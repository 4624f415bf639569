import numpy as np
import pytest

from unsharp.errors import (
    CompletenessViolated,
    DimensionMismatch,
    EigenvalueAboveOne,
    NotFinite,
    NotHermitian,
    NotOrthonormal,
    NotPositive,
    ValidationError,
)
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
from unsharp.sampling import random_basis, random_povm

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)


def proj(v):
    return np.outer(v, v.conj())


class TestMakePovm:
    def test_computational_pvm(self):
        povm = Povm([proj(KET0), proj(KET1)])
        assert povm.dim == 2
        assert povm.n_outcomes == 2
        np.testing.assert_allclose(povm.eigenvalues[0], [0.0, 1.0])

    def test_trivial_povm(self):
        povm = Povm([np.eye(2) / 2, np.eye(2) / 2])
        np.testing.assert_allclose(povm.eigenvalues[0], [0.5, 0.5])

    def test_completeness_violated(self):
        with pytest.raises(CompletenessViolated):
            Povm([np.eye(2), np.eye(2)])

    def test_no_effects(self):
        with pytest.raises(ValidationError, match="at least one effect"):
            Povm(np.zeros((0, 2, 2)))

    def test_not_positive(self):
        with pytest.raises(NotPositive):
            Povm([np.diag([-0.2, 0.2]), np.diag([1.2, 0.8])])

    def test_eigenvalue_above_one(self):
        with pytest.raises(EigenvalueAboveOne):
            Povm([np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry(self, bad):
        with pytest.raises(NotFinite):
            Povm([np.array([[1.0, bad], [bad, 0.0]]), np.diag([0.0, 1.0])])

    def test_non_hermitian_effect_named_by_index(self):
        skew = np.array([[0.5, 0.1], [0.0, 0.5]])
        with pytest.raises(NotHermitian, match="matrix 1:"):
            Povm([np.diag([0.5, 0.5]), skew, np.diag([0.0, 0.0])])

    def test_first_failing_effect_in_index_order(self):
        # effect 1 is above one, effect 2 is not positive; effect 1 is reported
        with pytest.raises(EigenvalueAboveOne, match="effect 1:"):
            Povm([np.diag([0.5, 0.5]), np.diag([1.5, 0.0]), np.diag([-1.0, 0.5])])
        # within one effect, positivity is checked before the upper bound
        with pytest.raises(NotPositive, match="effect 0:"):
            Povm([np.diag([-0.5, 1.5]), np.diag([1.5, -0.5])])

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_one_stacked_eigh_per_povm(self, n, monkeypatch):
        effects = random_povm(3, n, n).effects
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(m):
            calls.append(np.shape(m))
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        povm = Povm(effects)
        assert calls == [(n, 3, 3)]
        assert povm.eigenvalues.shape == (n, 3)
        assert povm.eigenvectors.shape == (n, 3, 3)

    @pytest.mark.parametrize(
        "effects",
        [[], np.eye(2), np.zeros((2, 2, 3)), [[[1.0, 0.0], [0.0]]], [np.eye(2), np.eye(3)], [[[None, 0.0], [0.0, 1.0]]], [[["x"]]], [[[10**400]]]],
        ids=["empty", "2d", "not-square", "ragged", "mixed-dims", "none", "string", "huge-int"],
    )
    # Povm also takes a list of effect matrices, the form povm_from_json
    # passes; that case keeps the id of the make_povm wrapper it replaces.
    @pytest.mark.parametrize("build", [Povm, pytest.param(lambda effects: Povm(list(effects)), id="make_povm")])
    def test_malformed_effect_array(self, build, effects):
        with pytest.raises(ValidationError):
            build(effects)

    def test_effects_read_only(self):
        povm = Povm([np.eye(2) / 2, np.eye(2) / 2])
        with pytest.raises(ValueError):
            povm.effects[0, 0, 0] = 9.0

    def test_caller_effects_stay_writeable(self):
        effects = np.stack([np.eye(2) / 2, np.eye(2) / 2]) + 0j
        povm = Povm(effects)
        assert effects.flags.writeable and not povm.effects.flags.writeable
        effects[0, 0, 0] = 9.0
        assert povm.effects[0, 0, 0] == 0.5


class TestProjectiveFromBasis:
    def test_computational(self):
        povm = projective_from_basis(np.eye(2))
        np.testing.assert_allclose(povm.effects[0], proj(KET0))
        np.testing.assert_allclose(povm.effects[1], proj(KET1))

    def test_fourier_d3_complete(self):
        _, fourier = mub_fourier_basis(3)
        povm = projective_from_basis(fourier)
        np.testing.assert_allclose(povm.effects.sum(axis=0), np.eye(3), atol=1e-12)

    def test_rejects_non_orthogonal(self):
        with pytest.raises(NotOrthonormal):
            projective_from_basis(np.array([[1.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)]]))


class TestQubitPovm:
    def test_sharp_z(self):
        povm = qubit_povm(QubitPovmParams(a0=1.0, a_vec=np.array([0.0, 0.0, 1.0])))
        np.testing.assert_allclose(povm.effects[0], proj(KET0), atol=1e-12)
        np.testing.assert_allclose(povm.effects[1], proj(KET1), atol=1e-12)
        # sharp case has conditional probability p(up|+) = 1
        assert QubitPovmParams(1.0, np.array([0.0, 0.0, 1.0])).conditional_prob_up(+1) == 1.0

    def test_two_vector_rejected(self):
        with pytest.raises(ValueError, match=r"3-vector, got shape \(2,\)"):
            QubitPovmParams(a0=1.0, a_vec=np.array([0.0, 1.0]))

    def test_zero_bloch_vector(self):
        povm = qubit_povm(QubitPovmParams(a0=1.0, a_vec=np.zeros(3)))
        np.testing.assert_allclose(povm.effects[0], np.eye(2) / 2, atol=1e-15)
        np.testing.assert_allclose(povm.effects[1], np.eye(2) / 2, atol=1e-15)

    def test_unsharp_z(self):
        eta = 0.6
        povm = qubit_povm(QubitPovmParams(a0=1.0, a_vec=np.array([0.0, 0.0, eta])))
        np.testing.assert_allclose(povm.effects[0], np.diag([(1 + eta) / 2, (1 - eta) / 2]), atol=1e-15)
        np.testing.assert_allclose(povm.eigenvalues[0], [(1 - eta) / 2, (1 + eta) / 2])

    def test_params_out_of_range(self):
        with pytest.raises(ValueError):
            QubitPovmParams(a0=0.3, a_vec=np.array([0.0, 0.0, 0.5]))
        with pytest.raises(ValueError):
            QubitPovmParams(a0=1.8, a_vec=np.array([0.5, 0.0, 0.0]))

    def test_conditional_probabilities(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            r = float(rng.uniform(0.0, 1.0))
            a0 = float(rng.uniform(r, 2.0 - r))
            params = QubitPovmParams(a0=a0, a_vec=r * direction)
            povm = qubit_povm(params)
            up, down = povm.eigenvalues
            # effect spectra are the conditional probabilities
            assert up[1] == pytest.approx((a0 + r) / 2, abs=1e-12)
            assert up[0] == pytest.approx((a0 - r) / 2, abs=1e-12)
            assert params.conditional_prob_up(+1) + (1 - params.conditional_prob_up(+1)) == 1.0
            assert down.sum() + up.sum() == pytest.approx(2.0, abs=1e-12)


class TestWhiteNoisePovm:
    def test_sharp_limit(self):
        basis = np.eye(3, dtype=complex)
        np.testing.assert_allclose(
            white_noise_povm(basis, 1.0).effects, projective_from_basis(basis).effects, atol=1e-15
        )

    @pytest.mark.parametrize("shape", [(3,), (2, 3)])
    def test_wrongly_shaped_basis(self, shape):
        with pytest.raises(ValueError, match="expected d vectors of length d"):
            white_noise_povm(np.ones(shape), 0.5)

    def test_fully_mixed(self):
        povm = white_noise_povm(np.eye(2), 0.0)
        np.testing.assert_allclose(povm.effects, np.broadcast_to(np.eye(2) / 2, (2, 2, 2)), atol=1e-15)

    def test_half_noise_spectrum(self):
        povm = white_noise_povm(np.eye(2), 0.5)
        np.testing.assert_allclose(povm.eigenvalues[0], [0.25, 0.75])

    def test_spectrum_closed_form(self):
        rng = np.random.default_rng(31)
        for d in (2, 3, 4, 5):
            q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            for alpha in (0.0, 0.3, 0.8, 1.0):
                povm = white_noise_povm(q.T, alpha)
                alpha_d = (1 - alpha) / d
                expected = np.concatenate([np.full(d - 1, alpha_d), [alpha + alpha_d]])
                for row in povm.eigenvalues:
                    np.testing.assert_allclose(row, expected, atol=1e-10)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            white_noise_povm(np.eye(2), 1.2)


class TestAmplitudeDampingPovm:
    def test_no_damping(self):
        basis, _ = mub_fourier_basis(3)
        np.testing.assert_allclose(
            amplitude_damping_povm(basis, 0.0).effects,
            projective_from_basis(basis).effects,
            atol=1e-15,
        )

    def test_full_damping(self):
        povm = amplitude_damping_povm(np.eye(3), 1.0)
        np.testing.assert_allclose(povm.effects[0], np.eye(3), atol=1e-15)
        np.testing.assert_allclose(povm.effects[1], np.zeros((3, 3)), atol=1e-15)
        np.testing.assert_allclose(povm.effects[2], np.zeros((3, 3)), atol=1e-15)

    def test_half_damping_spectrum(self):
        povm = amplitude_damping_povm(np.eye(3), 0.5)
        np.testing.assert_allclose(povm.eigenvalues[0], [0.5, 0.5, 1.0])

    def test_completeness_exact(self):
        _, fourier = mub_fourier_basis(3)
        for e in np.linspace(0.0, 1.0, 11):
            povm = amplitude_damping_povm(fourier, float(e))
            assert povm.completeness_residual() < 1e-12

    def test_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            amplitude_damping_povm(np.eye(2), 0.5)

    def test_e_out_of_range(self):
        with pytest.raises(ValueError):
            amplitude_damping_povm(np.eye(3), -0.1)


class TestConvexCombination:
    def test_p_one_keeps_first(self):
        a = projective_from_basis(np.eye(2))
        b = Povm([np.eye(2) / 2, np.eye(2) / 2])
        mixed = convex_combination(a, b, 1.0)
        assert mixed.n_outcomes == 4
        np.testing.assert_allclose(mixed.effects[:2], a.effects)
        np.testing.assert_allclose(mixed.effects[2:], np.zeros((2, 2, 2)))

    def test_self_mixture(self):
        a = projective_from_basis(np.eye(2))
        mixed = convex_combination(a, a, 0.5)
        assert mixed.n_outcomes == 4
        np.testing.assert_allclose(mixed.effects.sum(axis=0), np.eye(2), atol=1e-14)

    def test_eigenvalues_scale(self):
        a = projective_from_basis(np.eye(2))
        plus_minus = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        b = projective_from_basis(plus_minus)
        mixed = convex_combination(a, b, 0.3)
        np.testing.assert_allclose(mixed.eigenvalues[0], [0.0, 0.3], atol=1e-12)
        np.testing.assert_allclose(mixed.eigenvalues[2], [0.0, 0.7], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            convex_combination(projective_from_basis(np.eye(2)), projective_from_basis(np.eye(3)), 0.5)

    def test_p_out_of_range(self):
        a = projective_from_basis(np.eye(2))
        with pytest.raises(ValueError):
            convex_combination(a, a, 1.5)


class TestMubFourierBasis:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_unbiased(self, d):
        basis_x, basis_z = mub_fourier_basis(d)
        overlaps = np.abs(basis_x.conj() @ basis_z.T) ** 2
        np.testing.assert_allclose(overlaps, np.full((d, d), 1.0 / d), atol=1e-12)

    def test_x0_z0_overlap(self):
        basis_x, basis_z = mub_fourier_basis(3)
        assert abs(np.vdot(basis_x[0], basis_z[0])) == pytest.approx(1 / np.sqrt(3))

    def test_rejects_d1(self):
        with pytest.raises(ValueError):
            mub_fourier_basis(1)


class TestRevalidation:
    def test_constructor_outputs_revalidate(self):
        basis_x, basis_z = mub_fourier_basis(3)
        candidates = [
            projective_from_basis(basis_z),
            qubit_povm(QubitPovmParams(1.0, np.array([0.3, 0.2, 0.1]))),
            white_noise_povm(basis_x, 0.4),
            amplitude_damping_povm(basis_z, 0.7),
            convex_combination(
                projective_from_basis(np.eye(2)),
                qubit_povm(QubitPovmParams(1.0, np.array([0.0, 0.5, 0.0]))),
                0.25,
            ),
        ]
        for povm in candidates:
            again = Povm(list(povm.effects))
            assert isinstance(again, Povm)
            assert again.n_outcomes == povm.n_outcomes

    @pytest.mark.parametrize("d", range(2, 9))
    def test_stated_spectra_match_eigh(self, d):
        # The builders state each effect's spectrum and eigenvectors instead
        # of computing them: eigh on their effects agrees, and the stated
        # decomposition rebuilds the effects, for a (3, 2) stack of POVMs
        # whose noise levels include both ends of [0, 1].
        bases = random_basis(d, d, size=2)
        levels = np.array([[0.0], [0.37], [1.0]])
        povms = [projective_from_basis(bases), white_noise_povm(bases, levels)]
        if d == 3:
            povms.append(amplitude_damping_povm(bases, levels))
        for povm in povms:
            np.testing.assert_allclose(povm.eigenvalues, Povm(povm.effects).eigenvalues, rtol=0, atol=1e-12)
            v = povm.eigenvectors
            rebuilt = np.einsum("...nk,...nik,...njk->...nij", povm.eigenvalues, v, v.conj())
            np.testing.assert_allclose(rebuilt, povm.effects, rtol=0, atol=1e-12)

    def test_cached_spectra_reconstruct_effects(self):
        basis_x, basis_z = mub_fourier_basis(3)
        for povm in (
            white_noise_povm(basis_z, 0.3),
            amplitude_damping_povm(basis_x, 0.6),
            qubit_povm(QubitPovmParams(1.2, np.array([0.1, 0.4, 0.2]))),
        ):
            v = povm.eigenvectors
            reconstructed = np.einsum("nk,nik,njk->nij", povm.eigenvalues, v, v.conj())
            np.testing.assert_allclose(reconstructed, povm.effects, atol=1e-8)
            gram = np.einsum("nki,nkj->nij", v.conj(), v)
            np.testing.assert_allclose(gram, np.broadcast_to(np.eye(povm.dim), gram.shape), atol=1e-12)
