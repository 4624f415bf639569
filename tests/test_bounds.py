from itertools import combinations, product

import numpy as np
import pytest

from unsharp import bounds, suites, uncertainty
from unsharp.bounds import (
    MAX_MAJORIZATION_DIM,
    ad_coles_closed_form,
    basis_pair_bounds,
    coles_bound,
    device_uncertainty_operator,
    device_uncertainty_white_noise,
    krishna_bound,
    majorization_vector,
    min_device_uncertainty,
    min_pair_device_bound,
    pair_bound_report,
)
from unsharp.errors import DimensionMismatch, NotOrthonormal
from unsharp.linalg import validate_density
from unsharp.povm import (
    Povm,
    QubitPovmParams,
    amplitude_damping_povm,
    mub_fourier_basis,
    projective_from_basis,
    qubit_povm,
    white_noise_povm,
)
from unsharp.sampling import random_basis, random_mixed_state, random_pure_state, random_povm, sampled_min
from unsharp.suites import suite_coles, suite_majorization, suite_validity
from unsharp.sweeps import spin_basis
from unsharp.uncertainty import (
    binary_entropy,
    device_uncertainty,
    outcome_probs,
    quantum_uncertainty,
    shannon_entropy,
)

from oracles import berta_reduced_bound, coles_oracle, majorization_w_svd, mu_oracle, von_neumann_entropy

PLUS_MINUS = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def sharp(basis_a, basis_b) -> dict:
    """The basis-pair bounds of two bases at zero noise."""
    return basis_pair_bounds(basis_a, 1.0, basis_b, 1.0)


def ad_pair(e):
    basis_x, basis_z = mub_fourier_basis(3)
    return amplitude_damping_povm(basis_x, e), amplitude_damping_povm(basis_z, e)


class TestKrishnaBound:
    def test_pvm_is_zero(self):
        assert krishna_bound(projective_from_basis(np.eye(3))) == 0.0

    def test_white_noise(self):
        povm = white_noise_povm(np.eye(2), 0.5)
        assert krishna_bound(povm) == pytest.approx(-np.log2(0.75), abs=1e-12)
        assert krishna_bound(povm) == pytest.approx(0.415037, abs=1e-6)

    def test_trivial_povm(self):
        povm = Povm([np.eye(2) / 2, np.eye(2) / 2])
        assert krishna_bound(povm) == pytest.approx(1.0)

    def test_matches_operator_norm_route(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            povm = random_povm(int(rng.integers(2, 5)), 3, rng)
            direct = max(np.linalg.norm(e, 2) for e in povm.effects)
            assert krishna_bound(povm) == pytest.approx(-np.log2(direct), abs=1e-12)


class TestMinDeviceUncertainty:
    def test_pvm_is_zero(self):
        assert min_device_uncertainty(projective_from_basis(np.eye(4))) == pytest.approx(0.0, abs=1e-12)

    def test_white_noise_state_independent(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 4):
            basis = random_basis(d, rng)
            for alpha in (0.0, 0.4, 0.9, 1.0):
                povm = white_noise_povm(basis, alpha)
                closed = device_uncertainty_white_noise(alpha, d)
                assert min_device_uncertainty(povm) == pytest.approx(closed, abs=1e-10)

    def test_qubit_binary_entropy_form(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            direction = rng.normal(size=3)
            r = float(rng.uniform(0.2, 1.0))
            direction = r * direction / np.linalg.norm(direction)
            a0 = float(rng.uniform(r, 2.0 - r))
            params = QubitPovmParams(a0, direction)
            povm = qubit_povm(params)
            expected = min(
                binary_entropy(params.conditional_prob_up(+1)),
                binary_entropy(params.conditional_prob_up(-1)),
            )
            assert min_device_uncertainty(povm) == pytest.approx(expected, abs=1e-12)

    def test_sampling_oracle_dominates(self):
        rng = np.random.default_rng(7)
        povm = qubit_povm(QubitPovmParams(1.1, np.array([0.5, 0.1, 0.6])))
        floor = min_device_uncertainty(povm)
        sampled = sampled_min(lambda rho: device_uncertainty(rho, povm), 2, 2000, rng)
        assert sampled >= floor - 1e-12
        assert sampled - floor < 0.01


class TestWhiteNoiseClosedForm:
    def test_sharp(self):
        assert device_uncertainty_white_noise(1.0, 5) == 0.0

    def test_fully_mixed_qubit(self):
        assert device_uncertainty_white_noise(0.0, 2) == pytest.approx(1.0)

    def test_half(self):
        assert device_uncertainty_white_noise(0.5, 2) == pytest.approx(0.811278, abs=1e-6)

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_monotone_decreasing(self, d):
        grid = np.linspace(0.0, 1.0, 51)
        values = [device_uncertainty_white_noise(float(a), d) for a in grid]
        assert all(b <= a + 1e-12 for a, b in zip(values[:-1], values[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            device_uncertainty_white_noise(1.5, 2)


class TestColesBound:
    def test_identical_pvms(self):
        povm = projective_from_basis(np.eye(2))
        assert coles_bound(povm, povm) == pytest.approx(0.0, abs=1e-12)

    def test_qubit_mub(self):
        a = projective_from_basis(np.eye(2))
        b = projective_from_basis(PLUS_MINUS)
        assert coles_bound(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_damping_sharp_limit(self):
        a, b = ad_pair(0.0)
        assert coles_bound(a, b) == pytest.approx(np.log2(3.0), abs=1e-12)

    def test_reduces_to_mu_for_pvm_pairs(self):
        rng = np.random.default_rng(9)
        for d in (2, 3):
            for _ in range(20):
                basis_a = random_basis(d, rng)
                basis_b = random_basis(d, rng)
                lhs = coles_bound(projective_from_basis(basis_a), projective_from_basis(basis_b))
                assert lhs == pytest.approx(sharp(basis_a, basis_b)["mu"], abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            coles_bound(projective_from_basis(np.eye(2)), projective_from_basis(np.eye(3)))

    def test_validity_on_random_povms(self):
        result = suite_coles(trials=500, seed=23)
        assert result.passed, result.messages


class TestColesKernel:
    """The superoperator product agrees with the direct sandwich sum."""

    @pytest.mark.parametrize("d", range(2, 8))
    def test_unstacked(self, d):
        rng = np.random.default_rng(100 + d)
        a, b = random_povm(d, d, rng), random_povm(d, d + 2, rng)
        value = coles_bound(a, b)
        assert type(value) is float
        assert abs(value - coles_oracle(a, b)) <= 1e-14

    @pytest.mark.parametrize("d", range(2, 8))
    def test_stacked(self, d):
        rng = np.random.default_rng(200 + d)
        a, b = random_povm(d, 3, rng, size=(2, 3)), random_povm(d, 2, rng, size=(2, 3))
        np.testing.assert_allclose(coles_bound(a, b), coles_oracle(a, b), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("d", range(2, 8))
    def test_one_side_broadcast(self, d):
        rng = np.random.default_rng(300 + d)
        a, b = random_povm(d, 4, rng, size=5), random_povm(d, 3, rng)
        np.testing.assert_allclose(coles_bound(a, b), coles_oracle(a, b), rtol=0, atol=1e-14)
        np.testing.assert_allclose(coles_bound(b, a), coles_oracle(b, a), rtol=0, atol=1e-14)

    def test_theta_sweep_pair(self):
        # A stack of noisy spin POVMs against the fixed sigma_z POVM of the angle sweep.
        stacked = white_noise_povm(spin_basis(np.linspace(0.0, np.pi, 37)), 0.8)
        fixed = white_noise_povm(np.eye(2, dtype=complex), 0.9)
        np.testing.assert_allclose(coles_bound(stacked, fixed), coles_oracle(stacked, fixed), rtol=0, atol=1e-14)


class TestWhiteNoiseColesKernel:
    """-log2 C of two white-noise POVMs from the overlap matrix equals the
    general sandwich path on the POVMs themselves."""

    @staticmethod
    def general(basis_a, alpha, basis_b, beta):
        return coles_bound(white_noise_povm(basis_a, alpha), white_noise_povm(basis_b, beta))

    @pytest.mark.parametrize("d", range(2, 7))
    def test_stacked_against_general_path(self, d):
        rng = np.random.default_rng(400 + d)
        basis_a, basis_b = random_basis(d, rng, size=(3, 4)), random_basis(d, rng, size=(3, 4))
        alpha, beta = rng.uniform(size=(3, 4)), rng.uniform(size=(3, 4))
        # Row 0 at the edges of the noise range: (1, 1), (0, 1), (1, 0), (0, 0).
        alpha[0], beta[0] = [1.0, 0.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]
        value = bounds._white_noise_coles(bounds._overlaps(basis_a, basis_b), alpha, beta)
        assert value.shape == (3, 4)
        np.testing.assert_allclose(value, self.general(basis_a, alpha, basis_b, beta), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("d", range(2, 7))
    @pytest.mark.parametrize("alpha, beta", [(0.37, 0.81), (0.0, 0.6), (1.0, 0.0), (1.0, 1.0)])
    def test_unstacked(self, d, alpha, beta):
        rng = np.random.default_rng(500 + d)
        basis_a, basis_b = random_basis(d, rng), random_basis(d, rng)
        value = bounds._white_noise_coles(bounds._overlaps(basis_a, basis_b), alpha, beta)
        assert type(value) is float
        assert abs(value - self.general(basis_a, alpha, basis_b, beta)) <= 1e-13

    @pytest.mark.parametrize("d", range(2, 7))
    def test_noise_broadcasts_against_the_stack(self, d):
        rng = np.random.default_rng(600 + d)
        basis_a, basis_b = random_basis(d, rng, size=4), random_basis(d, rng)
        alpha, beta = rng.uniform(size=(3, 1)), np.array([0.0, 0.45, 1.0, 0.9])
        value = bounds._white_noise_coles(bounds._overlaps(basis_a, basis_b), alpha, beta)
        assert value.shape == (3, 4)
        np.testing.assert_allclose(value, self.general(basis_a, alpha, basis_b, beta), rtol=0, atol=1e-13)

    @staticmethod
    def two_calls(u, alpha, beta):
        """The kernel as one _white_noise_sandwiched_max call per side."""
        alpha, beta = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
        a_side = bounds._white_noise_sandwiched_max(u, alpha, beta)
        b_side = bounds._white_noise_sandwiched_max(u.swapaxes(-1, -2), beta, alpha)
        return bounds._neg_log2(np.minimum(a_side, b_side))

    @pytest.mark.parametrize("d", range(2, 7))
    def test_one_call_equals_one_call_per_side(self, d):
        # Both sides stacked in one call give the same bits as a call per side.
        rng = np.random.default_rng(800 + d)
        u = bounds._overlaps(random_basis(d, rng, size=(3, 4)), random_basis(d, rng, size=(3, 4)))
        alpha, beta = rng.uniform(size=(3, 4)), rng.uniform(size=(3, 4))
        alpha[0], beta[0] = [1.0, 0.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]
        assert np.array_equal(bounds._white_noise_coles(u, alpha, beta), self.two_calls(u, alpha, beta))
        for a, b in [(0.37, 0.81), (0.0, 0.6), (1.0, 0.0), (1.0, 1.0)]:
            value = bounds._white_noise_coles(u[1, 2], a, b)
            assert type(value) is float and value == self.two_calls(u[1, 2], a, b)
        # (3, 1) and (4,) noise arrays broadcast against a (4,) stack.
        alpha, beta = rng.uniform(size=(3, 1)), np.array([0.0, 0.45, 1.0, 0.9])
        value = bounds._white_noise_coles(u[0], alpha, beta)
        assert value.shape == (3, 4)
        assert np.array_equal(value, self.two_calls(u[0], alpha, beta))
        assert np.array_equal(bounds._white_noise_coles(u[0], beta, 0.3), self.two_calls(u[0], beta, 0.3))

    @pytest.mark.parametrize("d", range(2, 7))
    def test_sharp_limit_is_mu(self, d):
        rng = np.random.default_rng(700 + d)
        u = bounds._overlaps(random_basis(d, rng, size=5), random_basis(d, rng, size=5))
        mu = -np.log2((np.abs(u) ** 2).max(axis=(-2, -1)))
        np.testing.assert_allclose(bounds._white_noise_coles(u, 1.0, 1.0), mu, rtol=0, atol=1e-15)


class TestMuBound:
    def test_identical_bases(self):
        assert sharp(np.eye(3), np.eye(3))["mu"] == pytest.approx(0.0, abs=1e-12)

    def test_qubit_mub(self):
        assert sharp(np.eye(2), PLUS_MINUS)["mu"] == pytest.approx(1.0, abs=1e-12)

    def test_fourier_d3(self):
        basis_x, basis_z = mub_fourier_basis(3)
        assert sharp(basis_x, basis_z)["mu"] == pytest.approx(np.log2(3.0), abs=1e-12)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(NotOrthonormal):
            sharp(np.array([[1.0, 0.0], [0.7, 0.7]]), np.eye(2))


class TestB1Bound:
    def test_sharp_reduction(self):
        rng = np.random.default_rng(10)
        basis_a = random_basis(3, rng)
        basis_b = random_basis(3, rng)
        assert sharp(basis_a, basis_b)["B1"] == pytest.approx(mu_oracle(basis_a, basis_b), abs=1e-12)

    def test_qubit_mub_additive_form(self):
        for alpha, beta in ((0.9, 0.6), (0.3, 0.8), (1.0, 0.5)):
            expected = 1.0 + min(
                device_uncertainty_white_noise(alpha, 2),
                device_uncertainty_white_noise(beta, 2),
            )
            assert basis_pair_bounds(np.eye(2), alpha, PLUS_MINUS, beta)["B1"] == pytest.approx(expected, abs=1e-12)

    def test_identical_bases_full_noise(self):
        # B1 stays at one bit while the summed device uncertainty reaches two
        values = basis_pair_bounds(np.eye(2), 0.0, np.eye(2), 0.0)
        assert values["B1"] == pytest.approx(1.0, abs=1e-12)
        total = device_uncertainty_white_noise(0.0, 2) * 2
        assert total == pytest.approx(2.0)
        assert values["D_WN"] == total
        assert values["B1"] < total


class TestBertaReducedBound:
    def test_pure_state(self):
        rng = np.random.default_rng(11)
        basis_a = random_basis(2, rng)
        basis_b = random_basis(2, rng)
        rho = random_pure_state(2, rng)
        assert berta_reduced_bound(basis_a, basis_b, rho) == pytest.approx(
            sharp(basis_a, basis_b)["mu"], abs=1e-10
        )

    def test_maximally_mixed(self):
        basis_x, basis_z = mub_fourier_basis(3)
        value = berta_reduced_bound(basis_x, basis_z, validate_density(np.eye(3) / 3))
        assert value == pytest.approx(np.log2(3.0) + np.log2(3.0), abs=1e-12)

    def test_noisy_state_entropy_equals_device_uncertainty(self):
        rng = np.random.default_rng(12)
        for d in (2, 3, 4):
            psi = random_pure_state(d, rng)
            for alpha in (0.2, 0.7):
                rho_alpha = alpha * psi + (1 - alpha) * np.eye(d) / d
                assert von_neumann_entropy(rho_alpha) == pytest.approx(
                    device_uncertainty_white_noise(alpha, d), abs=1e-12
                )

    def test_validity_for_pvms(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            d = int(rng.integers(2, 4))
            basis_a = random_basis(d, rng)
            basis_b = random_basis(d, rng)
            rho = random_mixed_state(d, rng)
            entropies = shannon_entropy(outcome_probs(rho, projective_from_basis(basis_a)))
            entropies += shannon_entropy(outcome_probs(rho, projective_from_basis(basis_b)))
            assert entropies >= berta_reduced_bound(basis_a, basis_b, rho) - 1e-9


class TestMajorizationVector:
    def test_identical_bases(self):
        w, big_w = majorization_vector(np.eye(3), np.eye(3))
        assert w[0] == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(big_w, [1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-12)
        assert sharp(np.eye(3), np.eye(3))["HW"] == pytest.approx(0.0, abs=1e-10)

    def test_qubit_mub(self):
        w, big_w = majorization_vector(np.eye(2), PLUS_MINUS)
        assert w[0] == pytest.approx(1.0 + 1.0 / np.sqrt(2), abs=1e-12)
        np.testing.assert_allclose(big_w, [1.0 / np.sqrt(2), 1.0 - 1.0 / np.sqrt(2), 0.0], atol=1e-12)

    def test_first_coefficient_is_largest_overlap(self):
        rng = np.random.default_rng(14)
        for d in (2, 3):
            for _ in range(20):
                basis_a = random_basis(d, rng)
                basis_b = random_basis(d, rng)
                w, _ = majorization_vector(basis_a, basis_b)
                largest = float(np.max(np.abs(basis_a.conj() @ basis_b.T)))
                assert w[0] == pytest.approx(1.0 + largest, abs=1e-10)

    def test_structure_invariants(self):
        rng = np.random.default_rng(15)
        for d in (2, 3, 4):
            w, big_w = majorization_vector(random_basis(d, rng), random_basis(d, rng))
            assert w.shape == (d,)
            assert big_w.shape == (2 * d - 1,)
            assert 1.0 - 1e-10 <= w[0]
            assert np.all(np.diff(w) >= -1e-10)
            assert w[-1] == pytest.approx(2.0, abs=1e-10)
            assert np.all(big_w >= 0.0)
            assert big_w.sum() == pytest.approx(1.0, abs=1e-10)
            assert not (w.flags.writeable or big_w.flags.writeable)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            majorization_vector(np.eye(9), np.eye(9))

    @pytest.mark.parametrize("d", range(2, MAX_MAJORIZATION_DIM + 1))
    def test_no_roundoff_sized_increments(self, d):
        # Fourier pairs reach w = 2 before w_d; the exactly zero increments
        # after it must not enter W as an ulp of 2 (4.4e-16 at d = 6 and 8).
        basis_x, basis_z = mub_fourier_basis(d)
        pvm_x, pvm_z = (bounds._pvm_basis(projective_from_basis(basis)) for basis in (basis_x, basis_z))
        for _, big_w in (majorization_vector(basis_x, basis_z), majorization_vector(pvm_x, pvm_z)):
            assert not np.any((big_w > 0.0) & (big_w < 1e-12))

    @pytest.mark.parametrize("d", range(4, MAX_MAJORIZATION_DIM + 1))
    def test_rows_within_orthonormal_tolerance(self, d):
        # Rows 0 and 1 overlap by c, far above basis_tol(d), so majorization_vector
        # rejects them. Eigenvector rows that pair_bound_report passes on
        # unchecked can be this far from orthonormal, and there the block of
        # those two vectors against themselves has sigma_max = 1 + c: w must
        # still be nondecreasing, end at 2 and never exceed it, and W must sum to 1.
        c = 9e-9
        basis = np.eye(d, dtype=complex)
        basis[1] = (basis[1] + c * basis[0]) / np.sqrt(1.0 + c * c)
        for other in (basis, np.eye(d)[::-1]):
            with pytest.raises(NotOrthonormal):
                majorization_vector(basis, other)
            w, big_w = bounds._majorization(bounds._overlaps(basis, other))
            assert np.all(np.diff(w) >= 0.0)
            assert w.max() == w[-1] == 2.0
            assert np.all(big_w >= 0.0)
            assert big_w.sum() == pytest.approx(1.0, abs=1e-15)


def adversarial_grams(rng, n):
    """(7n, 3, 3) Hermitian PSD matrices with spectra in [0, 1]: double,
    near-double (relative gaps 1e-16 to 1e-4), triple and double-1 top
    eigenvalues, rank 1, generic spectra, and one zero matrix."""
    top, gap = rng.uniform(0.0, 1.0, n), 10.0 ** rng.uniform(-16.0, -4.0, n)
    low, ones, zeros = rng.uniform(0.0, 1.0, n) * top, np.ones(n), np.zeros(n)
    spectra = [(low, top, top), (low, top * (1.0 - gap), top), (top, top, top), (low, ones, ones), (zeros, zeros, top)]
    spectra = np.concatenate([np.stack(s, axis=-1) for s in spectra] + [rng.uniform(0.0, 1.0, (2 * n, 3))])
    spectra[-1] = 0.0
    v = random_basis(3, rng, size=len(spectra))
    return np.einsum("nji,nj,njk->nik", v.conj(), spectra, v)


class TestScreenedGramBlocks:
    """Size-3 Gram blocks (d >= 6): closed form for all, eigvalsh for the near-maximal ones."""

    def test_closed_form_within_a_hundredth_of_the_margin(self):
        grams = adversarial_grams(np.random.default_rng(61), 3000)
        closed = bounds._cubic_top_eigenvalue(np.moveaxis(grams, 0, -1))
        exact = np.linalg.eigvalsh(grams)[:, -1]
        assert np.abs(closed - exact).max() <= bounds._SCREEN_MARGIN / 100

    @pytest.mark.parametrize("d", [6, 7, 8])
    def test_screen_equals_eigvalsh_on_every_block(self, d, monkeypatch):
        rng = np.random.default_rng(60 + d)
        pairs = [(random_basis(d, rng), random_basis(d, rng)) for _ in range(2)]
        pairs += [mub_fourier_basis(d), (np.eye(d), np.eye(d)), (np.eye(d), np.eye(d)[rng.permutation(d)])]
        stack_a, stack_b = (np.stack(bases) for bases in zip(*pairs))
        screened = [majorization_vector(a, b) for a, b in pairs + [(stack_a, stack_b)]]
        monkeypatch.setattr(bounds, "_SCREEN_MARGIN", np.inf)
        for (a, b), mv in zip(pairs + [(stack_a, stack_b)], screened):
            every_block = majorization_vector(a, b)
            assert all(np.array_equal(x, y) for x, y in zip(mv, every_block))

    def test_few_blocks_solved_exactly(self, monkeypatch):
        real, solved = np.linalg.eigvalsh, []

        def counting(a, *args, **kwargs):
            solved.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        rng = np.random.default_rng(67)
        majorization_vector(random_basis(7, rng), random_basis(7, rng))
        # Two classes of 35 x 35 size-3 blocks at d = 7, and no other size.
        assert solved and all(shape[-2:] == (3, 3) for shape in solved)
        assert sum(int(np.prod(shape[:-2])) for shape in solved) < 0.1 * 2 * 35 * 35


class TestHwBound:
    def test_half_half(self, monkeypatch):
        # The kernel's H(W) of a given W: the enumeration is replaced by it.
        mv = (np.array([1.5, 2.0]), np.array([0.5, 0.5, 0.0]))
        monkeypatch.setattr(bounds, "_majorization", lambda u: mv)
        assert sharp(np.eye(2), PLUS_MINUS)["HW"] == pytest.approx(1.0)

    def test_qubit_mub_value(self):
        # oracle: entropy of (1/sqrt(2), 1 - 1/sqrt(2)) evaluated directly
        c = 1.0 / np.sqrt(2)
        expected = -(c * np.log2(c) + (1 - c) * np.log2(1 - c))
        hw = sharp(np.eye(2), PLUS_MINUS)["HW"]
        assert hw == pytest.approx(expected, abs=1e-12)
        assert hw == pytest.approx(0.87243, abs=1e-5)


class TestQwB2Bound:
    def test_sharp_case_equals_hw(self):
        rng = np.random.default_rng(16)
        for d in (2, 3):
            basis_a = random_basis(d, rng)
            basis_b = random_basis(d, rng)
            values = sharp(basis_a, basis_b)
            expected = shannon_entropy(majorization_vector(basis_a, basis_b)[1])
            assert values["QW"] == pytest.approx(expected, abs=1e-12)
            assert values["B2"] == pytest.approx(expected, abs=1e-12)

    def test_extreme_noise_collapses_to_device_uncertainty(self):
        rng = np.random.default_rng(17)
        basis_a = random_basis(2, rng)
        basis_b = random_basis(2, rng)
        for alpha in (0.0, 0.4, 1.0):
            values = basis_pair_bounds(basis_a, alpha, basis_b, 0.0)
            assert values["QW"] == pytest.approx(0.0, abs=1e-12)
            expected = device_uncertainty_white_noise(alpha, 2) + device_uncertainty_white_noise(0.0, 2)
            assert values["B2"] == pytest.approx(expected, abs=1e-12)

    def test_qubit_mub_below_b1(self):
        values = sharp(np.eye(2), PLUS_MINUS)
        assert values["B2"] == pytest.approx(0.87243, abs=1e-5)
        assert values["B1"] == pytest.approx(1.0, abs=1e-12)
        assert values["B2"] < values["B1"]

    def test_b2_at_least_hw(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            d = int(rng.integers(2, 4))
            basis_a = random_basis(d, rng)
            basis_b = random_basis(d, rng)
            alpha, beta = float(rng.uniform()), float(rng.uniform())
            b2 = basis_pair_bounds(basis_a, alpha, basis_b, beta)["B2"]
            assert b2 >= shannon_entropy(majorization_vector(basis_a, basis_b)[1]) - 1e-9

    def test_validity_suite(self):
        result = suite_validity(trials=300, seed=29)
        assert result.passed, result.messages


class TestMinPairDeviceBound:
    def test_two_pvms_vanish(self):
        a = projective_from_basis(np.eye(2))
        b = projective_from_basis(PLUS_MINUS)
        assert min_pair_device_bound(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_damping_closed_form(self):
        factor = 1.0 - 1.0 / np.sqrt(3.0)
        for e in np.linspace(0.0, 1.0, 11):
            a, b = ad_pair(float(e))
            assert min_pair_device_bound(a, b) == pytest.approx(factor * binary_entropy(float(e)), abs=1e-8)

    def test_half_damping_value(self):
        a, b = ad_pair(0.5)
        assert min_pair_device_bound(a, b) == pytest.approx(0.42265, abs=1e-5)

    def test_lower_bounds_sampled_states(self):
        # the dense 1e5-trial version of this oracle check lives in
        # test_sampling; here a coarse sample confirms dominance and scale
        rng = np.random.default_rng(19)
        a, b = ad_pair(0.35)
        floor = min_pair_device_bound(a, b)
        objective = lambda rho: device_uncertainty(rho, a) + device_uncertainty(rho, b)
        for _ in range(200):
            assert objective(random_pure_state(3, rng)) >= floor - 1e-12
        sampled = sampled_min(objective, 3, 3000, rng)
        assert floor - 1e-12 <= sampled < floor + 0.05

    def test_operator_is_hermitian_psd(self):
        a, _ = ad_pair(0.4)
        op = device_uncertainty_operator(a)
        np.testing.assert_allclose(op, op.conj().T, atol=1e-14)
        assert np.min(np.linalg.eigvalsh(op)) >= -1e-12


class TestAdColesClosedForm:
    def test_endpoints(self):
        assert ad_coles_closed_form(0.0) == pytest.approx(np.log2(3.0), abs=1e-12)
        assert ad_coles_closed_form(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_crossover_value(self):
        # direct arithmetic oracle: inner polynomial evaluated at e = 0.564
        e = 0.564
        inner = (2 + 2 * e - e**2 + 3 * e**3 + (1 - e) * e * np.sqrt(3 * (4 + 4 * e + 3 * e**2))) / 6
        assert ad_coles_closed_form(e) == pytest.approx(-np.log2(inner), abs=1e-12)
        assert ad_coles_closed_form(e) == pytest.approx(0.41767, abs=1e-5)

    def test_matches_numeric_coles(self):
        for e in np.linspace(0.0, 1.0, 26):
            a, b = ad_pair(float(e))
            assert coles_bound(a, b) == pytest.approx(ad_coles_closed_form(float(e)), abs=1e-8)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ad_coles_closed_form(1.4)


class TestMajorizationRelations:
    def test_direct_sum_suite(self):
        result = suite_majorization(trials=200, seed=31)
        assert result.passed, result.messages


class TestPairBoundReport:
    def test_pvm_pair_keys(self):
        a = projective_from_basis(np.eye(2))
        b = projective_from_basis(PLUS_MINUS)
        report = pair_bound_report(a, b)
        for key in ("krishna_A", "krishna_B", "minD_A", "minD_B", "minD_pair", "coles_C",
                    "mu", "B1", "HW", "QW", "B2", "D_WN"):
            assert key in report.values
        assert report.metadata["pvm_pair"] is True
        assert any("B1 convention" in note for note in report.notes)

    def test_non_pvm_pair_omits_basis_family(self):
        a, b = ad_pair(0.5)
        report = pair_bound_report(a, b)
        assert "mu" not in report.values
        assert report.metadata["pvm_pair"] is False

    def test_bounds_dominated_by_entropy_sum(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            d = int(rng.integers(2, 4))
            a = random_povm(d, int(rng.integers(2, 4)), rng)
            b = random_povm(d, int(rng.integers(2, 4)), rng)
            rho = random_mixed_state(d, rng)
            report = pair_bound_report(a, b, rho)
            entropy_sum = report.values["H_A"] + report.values["H_B"]
            for key in ("krishna_A", "krishna_B", "minD_A", "minD_B", "minD_pair", "coles_C"):
                assert report.values[key] <= entropy_sum + 1e-9

    def test_to_dict_round_trip(self):
        import json

        a, b = ad_pair(0.2)
        payload = json.dumps(pair_bound_report(a, b).to_dict())
        assert "minD_pair" in json.loads(payload)["values"]


def sandwiched_max_loop(core, wrap):
    """Per-effect oracle: max_i || sum_j W_j C_i W_j ||, one eigensolve per i."""
    best = 0.0
    for effect in core.effects:
        s = sum(w @ effect @ w for w in wrap.effects)
        s = (s + s.conj().T) / 2.0
        best = max(best, float(np.max(np.abs(np.linalg.eigvalsh(s)))))
    return best


def majorization_w_enumerated(basis_a, basis_b):
    """Brute-force oracle: the top eigenvalue of every projector-subset sum."""
    d = basis_a.shape[0]
    proj_a = [np.outer(v, v.conj()) for v in basis_a]
    proj_b = [np.outer(v, v.conj()) for v in basis_b]
    w = np.zeros(d)
    for k in range(1, d + 1):
        for r_size in range(max(0, k + 1 - d), min(d, k + 1) + 1):
            for r_set in combinations(range(d), r_size):
                for s_set in combinations(range(d), k + 1 - r_size):
                    total = sum((proj_a[i] for i in r_set), np.zeros((d, d), complex))
                    total = total + sum((proj_b[j] for j in s_set), np.zeros((d, d), complex))
                    w[k - 1] = max(w[k - 1], float(np.linalg.eigvalsh(total)[-1]))
    return w


class TestAgainstOracles:
    def test_majorization_matches_enumeration(self):
        rng = np.random.default_rng(41)
        pairs = [(np.eye(3), np.eye(3)), mub_fourier_basis(3), mub_fourier_basis(4)]
        for d in range(2, 7):
            for _ in range(3 if d < 6 else 1):
                pairs.append((random_basis(d, rng), random_basis(d, rng)))
        for basis_a, basis_b in pairs:
            w, _ = majorization_vector(basis_a, basis_b)
            np.testing.assert_allclose(w, majorization_w_enumerated(basis_a, basis_b), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", range(2, MAX_MAJORIZATION_DIM + 1))
    def test_majorization_matches_svd_enumeration(self, d, monkeypatch):
        rng = np.random.default_rng(40 + d)
        perm = np.eye(d)[rng.permutation(d)]  # blocks with exactly degenerate sigma = 1
        pairs = [(random_basis(d, rng), random_basis(d, rng)) for _ in range(3 if d < 8 else 1)]
        pairs += [mub_fourier_basis(d), (np.eye(d), np.eye(d)), (np.eye(d), perm)]
        stack_a, stack_b = (np.stack(bases) for bases in zip(*pairs))
        expected = majorization_w_svd(stack_a, stack_b)

        def no_svd(*args, **kwargs):
            raise AssertionError("majorization_vector called np.linalg.svd")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        for (basis_a, basis_b), w in zip(pairs, expected):
            np.testing.assert_allclose(majorization_vector(basis_a, basis_b)[0], w, rtol=0, atol=1e-15)
        np.testing.assert_allclose(majorization_vector(stack_a, stack_b)[0], expected, rtol=0, atol=1e-15)

    def test_stacked_sandwich_matches_loop(self):
        rng = np.random.default_rng(42)
        for d in (2, 3, 4):
            for _ in range(10):
                a = random_povm(d, int(rng.integers(2, d + 3)), rng)
                b = random_povm(d, int(rng.integers(2, d + 3)), rng)
                for core, wrap in ((a, b), (b, a)):
                    assert bounds._sandwiched_max(core, wrap) == pytest.approx(
                        sandwiched_max_loop(core, wrap), rel=0, abs=1e-14
                    )


def count_calls(monkeypatch, name):
    """Count the calls of bounds.<name> in a list of their arguments."""
    calls = []
    real = getattr(bounds, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bounds, name, counting)
    return calls


class TestPairQuantitiesOnce:
    @pytest.fixture
    def mv_calls(self, monkeypatch):
        return count_calls(monkeypatch, "_majorization")

    def test_projective_pair_report(self, mv_calls, monkeypatch):
        overlap_calls = count_calls(monkeypatch, "_overlaps")
        rng = np.random.default_rng(43)
        for d in (2, 3, 5):
            basis_a, basis_b = random_basis(d, rng), random_basis(d, rng)
            a, b = projective_from_basis(basis_a), projective_from_basis(basis_b)
            mv_calls.clear()
            overlap_calls.clear()
            report = pair_bound_report(a, b, random_mixed_state(d, rng))
            assert len(mv_calls) == len(overlap_calls) == 1
            assert report.values["mu"] == pytest.approx(mu_oracle(basis_a, basis_b), abs=1e-12)
            assert report.values["B1"] == pytest.approx(mu_oracle(basis_a, basis_b), abs=1e-12)
            hw = shannon_entropy(majorization_vector(basis_a, basis_b)[1])
            assert (report.values["QW"], report.values["B2"]) == pytest.approx((hw, hw), abs=1e-12)

    def test_non_projective_pair_report(self, mv_calls):
        a, b = ad_pair(0.3)
        pair_bound_report(a, b)
        assert mv_calls == []

    def test_one_operator_and_distribution_per_povm(self, monkeypatch):
        counts = dict.fromkeys(("device_uncertainty_operator", "outcome_probs"), 0)
        # Counted in both modules, so that a call through either one shows.
        for module, name in product((bounds, uncertainty), counts):
            real = getattr(module, name)

            def counting(*args, real=real, name=name):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counting)
        rng = np.random.default_rng(48)
        projective = [projective_from_basis(random_basis(3, rng)) for _ in range(2)]
        for a, b in (ad_pair(0.3), projective):
            rho = random_mixed_state(3, rng)
            for state, distributions in ((None, 0), (rho, 2)):
                counts.update(dict.fromkeys(counts, 0))
                values = pair_bound_report(a, b, state).values
                assert counts == {"device_uncertainty_operator": 2, "outcome_probs": distributions}
            # Each value equals the public function's, bit for bit.
            assert (values["minD_A"], values["minD_B"]) == (min_device_uncertainty(a), min_device_uncertainty(b))
            assert values["minD_pair"] == min_pair_device_bound(a, b)
            for side, povm in (("A", a), ("B", b)):
                assert values[f"H_{side}"] == shannon_entropy(outcome_probs(rho, povm))
                assert values[f"D_{side}"] == device_uncertainty(rho, povm)
                assert values[f"Q_{side}"] == quantum_uncertainty(rho, povm)


class TestBasisPairBounds:
    """The one kernel of the basis-pair bounds."""

    def test_one_overlap_matrix_per_call(self, monkeypatch):
        overlap_calls = count_calls(monkeypatch, "_overlaps")
        mv_calls = count_calls(monkeypatch, "_majorization")
        rng = np.random.default_rng(44)
        for d in (2, 3, MAX_MAJORIZATION_DIM + 1):
            overlap_calls.clear()
            mv_calls.clear()
            basis_pair_bounds(random_basis(d, rng, size=3), 0.4, random_basis(d, rng), rng.uniform(size=3))
            assert len(overlap_calls) == 1
            assert len(mv_calls) == (d <= MAX_MAJORIZATION_DIM)

    def test_one_overlap_matrix_per_validity_block(self, monkeypatch):
        overlap_calls = count_calls(monkeypatch, "_overlaps")
        trials = 2 * suites.BLOCK + 1
        assert suite_validity(trials=trials, seed=45).passed
        assert len(overlap_calls) == 3

    def test_keys(self):
        assert list(sharp(np.eye(2), PLUS_MINUS)) == ["mu", "B1", "HW", "QW", "B2", "D_WN"]

    def test_above_majorization_limit(self):
        rng = np.random.default_rng(46)
        d = MAX_MAJORIZATION_DIM + 1
        basis_a, basis_b = random_basis(d, rng), random_basis(d, rng)
        values = basis_pair_bounds(basis_a, 0.7, basis_b, 0.9)
        assert list(values) == ["mu", "B1", "D_WN"]
        assert values["mu"] == pytest.approx(mu_oracle(basis_a, basis_b), abs=1e-12)
        d_alpha, d_beta = device_uncertainty_white_noise(0.7, d), device_uncertainty_white_noise(0.9, d)
        assert values["B1"] == pytest.approx(values["mu"] + min(d_alpha, d_beta), abs=1e-12)
        assert values["D_WN"] == pytest.approx(d_alpha + d_beta, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_sharp_limit(self, d):
        rng = np.random.default_rng(47 + d)
        values = sharp(random_basis(d, rng), random_basis(d, rng))
        assert values["B1"] == values["mu"]
        assert values["B2"] == pytest.approx(values["HW"], abs=1e-12)
        assert values["D_WN"] == 0.0

    def test_b2_at_right_angle(self):
        # The qubit pair at theta = pi/2: the paper's B2(pi/2) = 0.8724 < B1 = 1.
        values = sharp(np.eye(2), PLUS_MINUS)
        assert round(values["B2"], 4) == 0.8724
        assert values["B2"] == values["HW"]

    def test_one_outcome_pair(self):
        values = sharp(np.eye(1), np.eye(1))
        assert values == dict(mu=0.0, B1=0.0, HW=0.0, QW=0.0, B2=0.0, D_WN=0.0)

    def test_bad_noise_level(self):
        with pytest.raises(ValueError):
            basis_pair_bounds(np.eye(2), 1.5, PLUS_MINUS, 1.0)
        with pytest.raises(ValueError):
            basis_pair_bounds(np.eye(2), 1.0, PLUS_MINUS, np.array([0.5, np.nan]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sharp(np.eye(2), np.eye(3))
