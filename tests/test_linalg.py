import numpy as np
import pytest

from unsharp.errors import NotFinite, NotHermitian, NotNormalized, NotOrthonormal, NotPositive, TraceNotOne
from unsharp.linalg import (
    DensityMatrix,
    hermitian_eig,
    operator_norm,
    overlap,
    pure_state_density,
    require_orthonormal,
    require_unit_vector,
    validate_density,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def rand_hermitian(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (z + z.conj().T) / 2


class TestHermitianEig:
    def test_identity(self):
        dec = hermitian_eig(np.eye(2))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0])
        np.testing.assert_allclose(dec.vectors.conj() @ dec.vectors.T, np.eye(2), atol=1e-12)

    def test_sigma_z(self):
        dec = hermitian_eig(SIGMA_Z)
        np.testing.assert_allclose(dec.eigenvalues, [1.0, -1.0])
        assert abs(dec.vectors[0][0]) == pytest.approx(1.0)
        assert abs(dec.vectors[1][1]) == pytest.approx(1.0)

    def test_rotated_pauli(self):
        # characteristic polynomial of (sx + sz)/sqrt(2) is l^2 - 1
        dec = hermitian_eig((SIGMA_X + SIGMA_Z) / np.sqrt(2))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_random_reconstruction_and_trace(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            d = int(rng.integers(2, 7))
            m = rand_hermitian(rng, d)
            dec = hermitian_eig(m)
            assert np.all(np.diff(dec.eigenvalues) <= 1e-14)
            np.testing.assert_allclose(dec.reconstruct(), m, atol=1e-8)
            assert abs(dec.eigenvalues.sum() - np.trace(m).real) < 1e-10

    def test_eigenvectors_orthonormal(self):
        rng = np.random.default_rng(3)
        dec = hermitian_eig(rand_hermitian(rng, 5))
        np.testing.assert_allclose(dec.vectors.conj() @ dec.vectors.T, np.eye(5), atol=1e-8)


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(3)) == pytest.approx(1.0)

    def test_scaled_projector(self):
        proj = np.zeros((2, 2), dtype=complex)
        proj[0, 0] = 0.3
        assert operator_norm(proj) == pytest.approx(0.3)

    def test_two_projector_sum(self):
        # norm of |a><a| + |b><b| is 1 + |<a|b>|; brute-force eig is the path,
        # the closed form is the oracle
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            a = rng.normal(size=d) + 1j * rng.normal(size=d)
            b = rng.normal(size=d) + 1j * rng.normal(size=d)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            m = np.outer(a, a.conj()) + np.outer(b, b.conj())
            expected = 1.0 + abs(np.vdot(a, b))
            assert operator_norm(m) == pytest.approx(expected, abs=1e-10)

    def test_matches_eig_path(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            m = rand_hermitian(rng, int(rng.integers(2, 7)))
            dec = hermitian_eig(m)
            assert abs(operator_norm(m) - np.max(np.abs(dec.eigenvalues))) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            operator_norm(np.array([[0, 2], [0, 0]]))


class TestOverlap:
    def test_same_vector(self):
        v = np.array([1, 1j]) / np.sqrt(2)
        assert overlap(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert overlap(np.array([1, 0]), np.array([0, 1])) == pytest.approx(0.0)

    def test_qubit_mub(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        assert overlap(np.array([1.0, 0.0]), plus) == pytest.approx(0.5)

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            overlap(np.array([1.0, 1.0]), np.array([1.0, 0.0]))


class TestValidateDensity:
    def test_maximally_mixed(self):
        rho = validate_density(np.eye(2) / 2)
        assert isinstance(rho, DensityMatrix)
        assert rho.dim == 2

    def test_pure_state(self):
        rho = validate_density(np.diag([1.0, 0.0]))
        assert np.trace(rho.matrix).real == pytest.approx(1.0)

    def test_trace_violation(self):
        with pytest.raises(TraceNotOne):
            validate_density(np.diag([0.6, 0.6]))

    def test_negative_eigenvalue(self):
        with pytest.raises(NotPositive):
            validate_density(np.diag([1.2, -0.2]))

    def test_non_hermitian(self):
        with pytest.raises(NotHermitian):
            validate_density(np.array([[0.5, 0.1], [0.0, 0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry(self, bad):
        with pytest.raises(NotFinite):
            validate_density(np.array([[0.5, bad], [bad, 0.5]]))

    def test_wrapped_matrix_is_read_only(self):
        rho = validate_density(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 3.0

    def test_pure_state_density(self):
        psi = np.array([1, 1j]) / np.sqrt(2)
        rho = pure_state_density(psi)
        assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1.0)


class TestRequireOrthonormal:
    def test_accepts_fourier(self):
        d = 4
        j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
        basis = np.exp(2j * np.pi * j * k / d) / np.sqrt(d)
        require_orthonormal(basis)

    def test_rejects_skewed(self):
        from unsharp.errors import NotOrthonormal

        skew = np.array([[1.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)]])
        with pytest.raises(NotOrthonormal):
            require_orthonormal(skew)

    def test_rejects_nan(self):
        with pytest.raises(NotOrthonormal):
            require_orthonormal(np.array([[1.0, 0.0], [0.0, np.nan]]))


def test_unit_vector_rejects_nan():
    with pytest.raises(NotNormalized):
        require_unit_vector(np.array([1.0, np.nan]))
