import numpy as np
import pytest

from unsharp.errors import DimensionMismatch
from unsharp.linalg import TOL_PSD, TOL_RECONSTRUCT, pure_state_density, validate_density
from unsharp.povm import (
    Povm,
    QubitPovmParams,
    amplitude_damping_povm,
    convex_combination,
    mub_fourier_basis,
    projective_from_basis,
    qubit_povm,
    white_noise_povm,
)
from unsharp.sampling import random_basis, random_mixed_state, random_povm, random_pure_state, random_state_vector
from unsharp.suites import suite_chain, suite_convexity, suite_dualmap
from unsharp.uncertainty import (
    binary_entropy,
    device_uncertainty,
    entropy_term,
    f_white_noise,
    outcome_probs,
    quantum_uncertainty,
    shannon_entropy,
)

from oracles import device_uncertainty_qubit, von_neumann_entropy

# Independent oracle for the repeated two-outcome entropy values.
H_THREE_QUARTERS = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))


def per_effect_device_uncertainty(rho, effects):
    """Reference loop: one eigendecomposition per effect, summing
    <v|rho|v> h(a) over its eigenpairs."""
    total = 0.0
    for effect in effects:
        w, v = np.linalg.eigh(effect)
        weights = np.einsum("ik,ij,jk->k", v.conj(), rho, v).real
        total += float(weights @ entropy_term(np.clip(w, 0.0, 1.0)))
    return total


class TestOutcomeProbs:
    def test_pure_state_pvm(self):
        rho = pure_state_density(np.array([1.0, 0.0]))
        probs = outcome_probs(rho, projective_from_basis(np.eye(2)))
        np.testing.assert_allclose(probs, [1.0, 0.0], atol=1e-15)

    def test_mixed_state_trace_linearity(self):
        povm = qubit_povm(QubitPovmParams(0.8, np.array([0.0, 0.0, 0.4])))
        t = float(np.trace(povm.effects[0]).real)
        probs = outcome_probs(validate_density(np.eye(2) / 2), povm)
        np.testing.assert_allclose(probs, [t / 2, 1 - t / 2], atol=1e-14)

    def test_white_noise(self):
        povm = white_noise_povm(np.eye(2), 0.5)
        probs = outcome_probs(pure_state_density(np.array([1.0, 0.0])), povm)
        np.testing.assert_allclose(probs, [0.75, 0.25], atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            outcome_probs(validate_density(np.eye(3) / 3), projective_from_basis(np.eye(2)))

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_largest_accepted_completeness_residual(self, d):
        # Shrinking the effect on the uniform superposition leaves the
        # entrywise residual just under TOL_RECONSTRUCT but lowers the
        # probability sum on that state by almost d times as much.
        _, fourier = mub_fourier_basis(d)
        shrink = 0.99 * TOL_RECONSTRUCT * d
        effects = [np.outer(v, v.conj()) for v in fourier]
        effects[0] = (1.0 - shrink) * effects[0]
        povm = Povm(effects)
        rho = validate_density(np.outer(fourier[0], fourier[0].conj()))
        probs = outcome_probs(rho, povm)
        assert probs.sum() == pytest.approx(1.0, abs=1e-15)
        assert shannon_entropy(probs) == pytest.approx(0.0, abs=1e-12)

    def test_accepted_negative_eigenvalues_on_both_sides(self):
        # Effect and state each sit TOL_PSD below positivity on the same
        # vector, so the raw probability is about -2 TOL_PSD.
        povm = Povm([np.diag([1.0 + TOL_PSD, -TOL_PSD]), np.diag([-TOL_PSD, 1.0 + TOL_PSD])])
        rho = validate_density(np.diag([-TOL_PSD, 1.0 + TOL_PSD]))
        probs = outcome_probs(rho, povm)
        assert np.all(probs >= 0.0) and probs.sum() == pytest.approx(1.0, abs=1e-15)
        assert shannon_entropy(probs) == pytest.approx(0.0, abs=1e-8)
        assert np.isfinite(quantum_uncertainty(rho, povm))

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            outcome_probs(np.eye(2), projective_from_basis(np.eye(2)))
        with pytest.raises(ValueError):
            outcome_probs(np.full((2, 2), np.nan), projective_from_basis(np.eye(2)))


class TestEntropies:
    def test_shannon_deterministic(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0

    def test_shannon_uniform(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0)

    def test_shannon_skewed(self):
        assert shannon_entropy([0.75, 0.25]) == pytest.approx(H_THREE_QUARTERS, abs=1e-12)
        assert shannon_entropy([0.75, 0.25]) == pytest.approx(0.811278, abs=1e-6)

    def test_shannon_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            shannon_entropy([0.7, 0.7])

    def test_binary(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0)
        assert binary_entropy(0.564) == pytest.approx(0.98815, abs=1e-5)

    def test_binary_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(1.2)

    def test_entropy_term_conventions(self):
        assert entropy_term(0.0) == 0.0
        assert entropy_term(1.0) == 0.0
        assert float(entropy_term(0.5)) == pytest.approx(0.5)

    def test_von_neumann(self):
        assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0)
        assert von_neumann_entropy(pure_state_density(np.array([1.0, 0.0]))) == pytest.approx(0.0, abs=1e-12)


class TestDeviceUncertainty:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_per_effect_loop(self, d):
        rng = np.random.default_rng(40 + d)
        for _ in range(20):
            povm = random_povm(d, int(rng.integers(2, 7)), rng)
            rho = random_mixed_state(d, rng)
            expected = per_effect_device_uncertainty(rho, povm.effects)
            assert device_uncertainty(rho, povm) == pytest.approx(expected, abs=1e-12)

    def test_vanishes_for_pvm(self):
        rng = np.random.default_rng(2)
        for d in (2, 3, 4):
            povm = projective_from_basis(random_basis(d, rng))
            for _ in range(10):
                rho = random_mixed_state(d, rng)
                assert device_uncertainty(rho, povm) < 1e-12

    def test_white_noise_value(self):
        povm = white_noise_povm(np.eye(2), 0.5)
        rng = np.random.default_rng(4)
        for _ in range(5):
            rho = random_pure_state(2, rng)
            assert device_uncertainty(rho, povm) == pytest.approx(H_THREE_QUARTERS, abs=1e-12)

    def test_damping_vanishes_on_ground_state(self):
        basis, _ = mub_fourier_basis(3)
        ground = pure_state_density(basis[0])
        for e in (0.2, 0.5, 0.9):
            assert device_uncertainty(ground, amplitude_damping_povm(basis, e)) < 1e-12

    def test_damping_excited_weight(self):
        basis, _ = mub_fourier_basis(3)
        rng = np.random.default_rng(8)
        for e in (0.25, 0.5, 0.8):
            povm = amplitude_damping_povm(basis, e)
            for _ in range(10):
                rho = random_mixed_state(3, rng)
                weight = float(
                    (basis[1].conj() @ rho @ basis[1] + basis[2].conj() @ rho @ basis[2]).real
                )
                expected = weight * binary_entropy(e)
                assert device_uncertainty(rho, povm) == pytest.approx(expected, abs=1e-12)

    def test_matches_operator_route(self):
        # independent path: expectation of the summed h(eigenvalue) projector
        from unsharp.bounds import device_uncertainty_operator

        rng = np.random.default_rng(12)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            povm = random_povm(d, int(rng.integers(2, 5)), rng)
            rho = random_mixed_state(d, rng)
            via_operator = float(np.trace(rho @ device_uncertainty_operator(povm)).real)
            assert device_uncertainty(rho, povm) == pytest.approx(via_operator, abs=1e-12)


class TestDeviceUncertaintyQubit:
    def test_sharp_measurement_vanishes(self):
        rng = np.random.default_rng(3)
        params = QubitPovmParams(1.0, np.array([0.0, 1.0, 0.0]))
        for _ in range(10):
            assert device_uncertainty_qubit(random_state_vector(2, rng), params) < 1e-12

    def test_unsharp_z_on_ground(self):
        eta = 0.7
        params = QubitPovmParams(1.0, np.array([0.0, 0.0, eta]))
        value = device_uncertainty_qubit(np.array([1.0, 0.0]), params)
        assert value == pytest.approx(binary_entropy((1 + eta) / 2), abs=1e-12)

    def test_trivial_povm_is_one_bit(self):
        rng = np.random.default_rng(9)
        params = QubitPovmParams(1.0, np.zeros(3))
        for _ in range(10):
            assert device_uncertainty_qubit(random_state_vector(2, rng), params) == pytest.approx(1.0)

    def test_agrees_with_general_route(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            direction = rng.normal(size=3)
            r = float(rng.uniform(0.0, 1.0))
            direction = r * direction / np.linalg.norm(direction)
            a0 = float(rng.uniform(r, 2.0 - r))
            params = QubitPovmParams(a0, direction)
            psi = random_state_vector(2, rng)
            fast = device_uncertainty_qubit(psi, params)
            general = device_uncertainty(pure_state_density(psi), qubit_povm(params))
            assert fast == pytest.approx(general, abs=1e-12)


class TestQuantumUncertainty:
    def test_pvm_gives_full_entropy(self):
        rng = np.random.default_rng(5)
        povm = projective_from_basis(random_basis(3, rng))
        for _ in range(10):
            rho = random_mixed_state(3, rng)
            entropy = shannon_entropy(outcome_probs(rho, povm))
            assert quantum_uncertainty(rho, povm) == pytest.approx(entropy, abs=1e-12)

    def test_identity_multiples_give_zero(self):
        rng = np.random.default_rng(6)
        weights = rng.dirichlet(np.ones(3))
        povm = Povm([w * np.eye(2) for w in weights])
        for _ in range(10):
            rho = random_mixed_state(2, rng)
            assert quantum_uncertainty(rho, povm) == pytest.approx(0.0, abs=1e-12)

    def test_white_noise_split(self):
        povm = white_noise_povm(np.eye(2), 0.5)
        rho = validate_density(np.eye(2) / 2)
        assert shannon_entropy(outcome_probs(rho, povm)) == pytest.approx(1.0)
        assert device_uncertainty(rho, povm) == pytest.approx(0.811278, abs=1e-6)
        assert quantum_uncertainty(rho, povm) == pytest.approx(1.0 - H_THREE_QUARTERS, abs=1e-12)
        assert quantum_uncertainty(rho, povm) == pytest.approx(0.188722, abs=1e-6)


class TestWhiteNoiseKernel:
    def test_sharp_limit(self):
        for p in np.linspace(0.0, 1.0, 21):
            expected = 0.0 if p in (0.0, 1.0) else -p * np.log2(p)
            assert f_white_noise(float(p), 1.0, 3) == pytest.approx(expected, abs=1e-14)

    def test_noise_only_limit(self):
        for p in np.linspace(0.0, 1.0, 21):
            assert f_white_noise(float(p), 0.0, 4) == pytest.approx(0.0, abs=1e-14)

    def test_vanishes_at_endpoints(self):
        for alpha in (0.2, 0.6, 0.9):
            assert f_white_noise(0.0, alpha, 3) == pytest.approx(0.0, abs=1e-14)
            assert f_white_noise(1.0, alpha, 3) == pytest.approx(0.0, abs=1e-14)

    def test_sums_to_quantum_uncertainty(self):
        rng = np.random.default_rng(7)
        d = 3
        for _ in range(200):
            basis = random_basis(d, rng)
            alpha = float(rng.uniform())
            rho = random_mixed_state(d, rng)
            povm = white_noise_povm(basis, alpha)
            populations = np.einsum("ni,ij,nj->n", basis.conj(), rho, basis).real
            total = sum(f_white_noise(float(np.clip(p, 0, 1)), alpha, d) for p in populations)
            assert quantum_uncertainty(rho, povm) == pytest.approx(total, abs=1e-10)

    def test_concave_in_p(self):
        grid = np.linspace(0.0, 1.0, 41)
        for alpha in (0.1, 0.5, 0.9):
            for p, q in zip(grid[:-1], grid[1:]):
                mid = f_white_noise((p + q) / 2, alpha, 3)
                chord = (f_white_noise(float(p), alpha, 3) + f_white_noise(float(q), alpha, 3)) / 2
                assert mid >= chord - 1e-12

    def test_monotone_in_alpha(self):
        alphas = np.linspace(0.0, 1.0, 21)
        for p in (0.1, 0.35, 0.8):
            values = [f_white_noise(p, float(a), 3) for a in alphas]
            assert all(b >= a - 1e-12 for a, b in zip(values[:-1], values[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            f_white_noise(1.2, 0.5, 3)
        with pytest.raises(ValueError):
            f_white_noise(0.5, -0.1, 3)
        with pytest.raises(ValueError):
            f_white_noise(0.5, 0.5, 1)


class TestEntropyChain:
    def test_entropy_dominates_device_uncertainty(self):
        result = suite_chain(trials=1000, seed=42)
        assert result.passed, result.messages
        assert result.checks == 12000

    def test_identity_multiples_saturate(self):
        # effects proportional to identity make D equal H for every state
        rng = np.random.default_rng(13)
        for d in (2, 3):
            weights = rng.dirichlet(np.ones(3))
            povm = Povm([w * np.eye(d) for w in weights])
            for _ in range(100):
                rho = random_mixed_state(d, rng)
                entropy = shannon_entropy(outcome_probs(rho, povm))
                assert device_uncertainty(rho, povm) == pytest.approx(entropy, abs=1e-12)

    def test_non_identity_povms_have_gap_somewhere(self):
        rng = np.random.default_rng(14)
        corpus = [
            qubit_povm(QubitPovmParams(1.0, np.array([0.0, 0.0, 0.8]))),
            white_noise_povm(np.eye(3), 0.7),
            amplitude_damping_povm(mub_fourier_basis(3)[1], 0.3),
            random_povm(2, 3, rng),
        ]
        for povm in corpus:
            gaps = []
            for _ in range(200):
                rho = random_pure_state(povm.dim, rng)
                entropy = shannon_entropy(outcome_probs(rho, povm))
                gaps.append(entropy - device_uncertainty(rho, povm))
            assert max(gaps) > 1e-6


class TestConvexIdentities:
    def test_device_uncertainty_gains_binary_entropy(self):
        rng = np.random.default_rng(15)
        a = random_povm(3, 2, rng)
        b = random_povm(3, 3, rng)
        rho = random_mixed_state(3, rng)
        for p in (0.0, 0.25, 0.5, 0.9, 1.0):
            mixed = convex_combination(a, b, p)
            expected = (
                p * device_uncertainty(rho, a)
                + (1 - p) * device_uncertainty(rho, b)
                + binary_entropy(p)
            )
            assert device_uncertainty(rho, mixed) == pytest.approx(expected, abs=1e-12)

    def test_quantum_uncertainty_self_mixture_invariant(self):
        rng = np.random.default_rng(16)
        povm = random_povm(2, 3, rng)
        rho = random_mixed_state(2, rng)
        q = quantum_uncertainty(rho, povm)
        for p in (0.1, 0.5, 0.75):
            assert quantum_uncertainty(rho, convex_combination(povm, povm, p)) == pytest.approx(q, abs=1e-12)

    def test_suite(self):
        result = suite_convexity(trials=200, seed=11)
        assert result.passed, result.messages


class TestDegeneracyIndependence:
    def test_rotated_degenerate_subspace(self):
        # white-noise effects have a (d-1)-fold degenerate eigenvalue; the
        # device uncertainty must not depend on the basis chosen inside it
        rng = np.random.default_rng(18)
        povm = white_noise_povm(random_basis(3, rng), 0.6)
        rho = random_mixed_state(3, rng)
        reference = device_uncertainty(rho, povm)
        for values, columns in zip(povm.eigenvalues, povm.eigenvectors):
            phi = float(rng.uniform(0, 2 * np.pi))
            rotation = np.array(
                [[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]], dtype=complex
            )
            # rows are eigenvectors, ascending: the first d - 1 span the degenerate space
            vectors = columns.T
            rotated = vectors.copy()
            rotated[:-1] = rotation @ rotated[:-1]
            manual = 0.0
            for vec, val in zip(rotated, values):
                weight = float((vec.conj() @ rho @ vec).real)
                manual += weight * float(entropy_term(val))
            partial_reference = 0.0
            for vec, val in zip(vectors, values):
                weight = float((vec.conj() @ rho @ vec).real)
                partial_reference += weight * float(entropy_term(val))
            assert manual == pytest.approx(partial_reference, abs=1e-10)
        assert device_uncertainty(rho, povm) == pytest.approx(reference, abs=1e-12)


class TestDualMap:
    def test_noisy_state_equals_noisy_measurement(self):
        result = suite_dualmap(trials=200, seed=19)
        assert result.passed, result.messages
