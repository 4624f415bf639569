import numpy as np
import pytest

from unsharp.errors import DegenerateDraw
from unsharp.linalg import validate_density
from unsharp.povm import Povm, amplitude_damping_povm, mub_fourier_basis, white_noise_povm
from unsharp.sampling import (
    random_basis,
    random_mixed_state,
    random_povm,
    random_pure_state,
    random_state_vector,
    sampled_min,
)
from unsharp.uncertainty import binary_entropy, device_uncertainty

from oracles import von_neumann_entropy


class TestDeterminism:
    def test_same_seed_same_stream(self):
        for draw in (
            lambda seed: random_state_vector(3, seed),
            lambda seed: random_pure_state(4, seed),
            lambda seed: random_mixed_state(2, seed),
            lambda seed: random_basis(3, seed),
            lambda seed: random_povm(2, 3, seed).effects,
        ):
            assert np.array_equal(np.asarray(draw(123)), np.asarray(draw(123)))

    def test_different_seeds_differ(self):
        assert not np.array_equal(random_basis(3, 1), random_basis(3, 2))

    def test_generator_streams_compose(self):
        rng = np.random.default_rng(5)
        first = random_state_vector(2, rng)
        second = random_state_vector(2, rng)
        assert not np.array_equal(first, second)


class TestRandomPureState:
    def test_unit_trace_and_purity(self):
        rng = np.random.default_rng(7)
        for d in (2, 3, 5):
            rho = random_pure_state(d, rng)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)

    def test_mean_approaches_maximally_mixed(self):
        rng = np.random.default_rng(8)
        d, samples = 2, 100_000
        total = random_pure_state(d, rng, size=samples).sum(axis=0)
        np.testing.assert_allclose(total / samples, np.eye(d) / d, atol=0.01)


class TestRandomMixedState:
    def test_valid_density(self):
        rng = np.random.default_rng(9)
        for d in (2, 3, 4):
            rho = random_mixed_state(d, rng)
            validate_density(rho)
            eigs = np.linalg.eigvalsh(rho)
            assert eigs.sum() == pytest.approx(1.0, abs=1e-12)
            assert 0.0 <= von_neumann_entropy(rho) <= np.log2(d) + 1e-12


class TestRandomBasis:
    def test_orthonormal_and_complete(self):
        rng = np.random.default_rng(10)
        for d in (2, 3, 5):
            basis = random_basis(d, rng)
            np.testing.assert_allclose(basis.conj() @ basis.T, np.eye(d), atol=1e-10)
            completeness = np.einsum("ni,nj->ij", basis, basis.conj())
            np.testing.assert_allclose(completeness, np.eye(d), atol=1e-10)

    def test_overlap_moment(self):
        # rotation invariance fixes the first moment of |<v|a_1>|^2 at 1/d
        rng = np.random.default_rng(11)
        d, draws = 2, 100_000
        v = np.array([1.0, 0.0], dtype=complex)
        first_vectors = random_basis(d, rng, size=draws)[:, 0]
        total = float(np.sum(np.abs(first_vectors @ v.conj()) ** 2))
        assert total / draws == pytest.approx(1.0 / d, abs=0.01)


class TestRandomPovm:
    def test_validation_passes_in_bulk(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            povm = random_povm(d, n, rng)
            assert povm.n_outcomes == n
            assert povm.completeness_residual() < 1e-10
            assert np.all(povm.eigenvalues >= 0.0)
            assert np.all(povm.eigenvalues <= 1.0)

    def test_revalidation(self):
        povm = random_povm(3, 4, 13)
        Povm(list(povm.effects))

    def test_rejects_single_outcome(self):
        with pytest.raises(ValueError):
            random_povm(2, 1, 0)


class TestSampledMin:
    def test_constant_objective(self):
        assert sampled_min(lambda rho: 0.25, 2, 10, 0) == 0.25

    def test_white_noise_is_flat(self):
        povm = white_noise_povm(np.eye(3), 0.6)
        values = {
            sampled_min(lambda rho: device_uncertainty(rho, povm), 3, trials, 5)
            for trials in (1, 10, 100)
        }
        reference = values.pop()
        for value in values:
            assert value == pytest.approx(reference, abs=1e-10)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            sampled_min(lambda rho: 0.0, 2, 0, 0)

    def test_dominates_eigen_floor_and_shrinks(self):
        from unsharp.bounds import min_pair_device_bound

        basis_x, basis_z = mub_fourier_basis(3)
        a = amplitude_damping_povm(basis_x, 0.5)
        b = amplitude_damping_povm(basis_z, 0.5)
        floor = min_pair_device_bound(a, b)
        assert floor == pytest.approx((1 - 1 / np.sqrt(3)) * binary_entropy(0.5), abs=1e-10)

        objective = lambda rho: device_uncertainty(rho, a) + device_uncertainty(rho, b)
        coarse = sampled_min(objective, 3, 100, 21)
        dense = sampled_min(objective, 3, 100_000, 21)
        assert coarse >= floor - 1e-12
        assert dense >= floor - 1e-12
        assert dense <= coarse + 1e-12
        assert dense - floor < 0.01


class ZeroRng(np.random.Generator):
    """A generator whose normal() always returns zeros: every draw is degenerate."""

    def __init__(self):
        super().__init__(np.random.PCG64(0))

    def normal(self, *args, **kwargs):
        result = super().normal(*args, **kwargs)
        return np.zeros_like(np.asarray(result))


class TestDegenerateDrawSurface:
    def test_exhausted_retries_raise(self):
        with pytest.raises(DegenerateDraw):
            random_state_vector(2, ZeroRng())

    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng: random_state_vector(2, rng, size=3),
            lambda rng: random_basis(2, rng, size=3),
            lambda rng: random_povm(2, 2, rng, size=3),
        ],
    )
    def test_exhausted_retries_raise_for_stacks(self, draw):
        with pytest.raises(DegenerateDraw):
            draw(ZeroRng())
