import numpy as np
import pytest

from unsharp.errors import NotFinite, NotHermitian, NotOrthonormal, NotPositive, TraceNotOne
from unsharp.linalg import (
    basis_tol,
    pure_state_density,
    require_orthonormal,
    validate_density,
)
from unsharp.povm import make_povm, projective_from_basis
from unsharp.sampling import random_povm

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def reconstruct(povm):
    """sum_k w_k |v_k><v_k| of every effect, from the stored decomposition."""
    v = povm.eigenvectors
    return np.einsum("nk,nik,njk->nij", povm.eigenvalues, v, v.conj())


def column_gram(povm):
    """V^dagger V of every effect's eigenvector matrix."""
    return np.einsum("nki,nkj->nij", povm.eigenvectors.conj(), povm.eigenvectors)


class TestHermitianEig:
    """The Hermitian eigendecomposition of every effect, as Povm stores it."""

    def test_identity(self):
        povm = make_povm([np.eye(2)])
        np.testing.assert_allclose(povm.eigenvalues, [[1.0, 1.0]])
        np.testing.assert_allclose(column_gram(povm), [np.eye(2)], atol=1e-12)

    def test_sigma_z(self):
        povm = make_povm([(np.eye(2) + SIGMA_Z) / 2, (np.eye(2) - SIGMA_Z) / 2])
        np.testing.assert_allclose(povm.eigenvalues[0], [0.0, 1.0])
        # ascending: column 1 belongs to eigenvalue 1 (|0>), column 0 to 0 (|1>)
        assert abs(povm.eigenvectors[0][0, 1]) == pytest.approx(1.0)
        assert abs(povm.eigenvectors[0][1, 0]) == pytest.approx(1.0)

    def test_rotated_pauli(self):
        # characteristic polynomial of (sx + sz)/sqrt(2) is l^2 - 1
        rotated = (SIGMA_X + SIGMA_Z) / np.sqrt(2)
        povm = make_povm([(np.eye(2) + rotated) / 2, (np.eye(2) - rotated) / 2])
        np.testing.assert_allclose(povm.eigenvalues, [[0.0, 1.0], [0.0, 1.0]], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            make_povm([np.array([[0, 1], [0, 0]], dtype=complex), np.eye(2)])

    def test_random_reconstruction_and_trace(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            povm = random_povm(int(rng.integers(2, 7)), int(rng.integers(2, 7)), rng)
            assert np.all(np.diff(povm.eigenvalues, axis=1) >= -1e-14)
            np.testing.assert_allclose(reconstruct(povm), povm.effects, atol=1e-8)
            traces = np.trace(povm.effects, axis1=1, axis2=2).real
            assert np.max(np.abs(povm.eigenvalues.sum(axis=1) - traces)) < 1e-10

    def test_eigenvectors_orthonormal(self):
        povm = random_povm(5, 4, 3)
        np.testing.assert_allclose(column_gram(povm), np.broadcast_to(np.eye(5), (4, 5, 5)), atol=1e-8)


class TestValidateDensity:
    def test_maximally_mixed(self):
        rho = validate_density(np.eye(2) / 2)
        assert isinstance(rho, np.ndarray)
        assert rho.shape == (2, 2)

    def test_pure_state(self):
        rho = validate_density(np.diag([1.0, 0.0]))
        assert np.trace(rho).real == pytest.approx(1.0)

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
            rho[0, 0] = 3.0

    def test_pure_state_density(self):
        psi = np.array([1, 1j]) / np.sqrt(2)
        rho = pure_state_density(psi)
        assert np.trace(rho @ rho).real == pytest.approx(1.0)

    def test_pure_state_density_checks_the_squared_norm(self):
        # |psi|^2 = 1 + 1e-8: the trace that validate_density rejects.
        with pytest.raises(TraceNotOne):
            pure_state_density([1 + 5e-9, 0])


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

    @pytest.mark.parametrize("d", [2, 5, 8])
    def test_tolerance_is_basis_tol(self, d):
        # A Gram defect of 0.9 basis_tol(d) passes and builds a POVM; 1.1 times it fails.
        basis = np.eye(d, dtype=complex)
        basis[1, 0] = 0.9 * basis_tol(d)
        projective_from_basis(require_orthonormal(basis))
        basis[1, 0] = 1.1 * basis_tol(d)
        with pytest.raises(NotOrthonormal):
            require_orthonormal(basis)

    def test_rejects_nan(self):
        with pytest.raises(NotOrthonormal):
            require_orthonormal(np.array([[1.0, 0.0], [0.0, np.nan]]))


def test_unit_vector_rejects_nan():
    with pytest.raises(NotFinite):
        pure_state_density([1.0, np.nan])
