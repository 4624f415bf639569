"""Leading stack axes: one call on a stack equals one call per item.

Every function that accepts stacks of states, POVMs, bases or noise levels is
compared with a Python loop of unstacked calls (1e-12), unstacked calls must
return Python floats, and a bad item in a stack must raise the unstacked
error type naming the item's index.
"""

import importlib
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from unsharp import bounds, suites, uncertainty
from unsharp.errors import (
    CompletenessViolated,
    DimensionMismatch,
    EigenvalueAboveOne,
    NotFinite,
    NotHermitian,
    NotOrthonormal,
    NotPositive,
    TraceNotOne,
)
from unsharp.linalg import validate_density
from unsharp.povm import (
    Povm,
    _rows,
    amplitude_damping_povm,
    convex_combination,
    projective_from_basis,
    white_noise_povm,
)
from unsharp.sampling import (
    random_basis,
    random_mixed_state,
    random_povm,
    random_pure_state,
    random_state_vector,
    sampled_min,
)
from unsharp.suites import SuiteResult, run_suite
from unsharp.sweeps import spin_basis
from unsharp.uncertainty import (
    binary_entropy,
    device_uncertainty,
    device_uncertainty_operator,
    f_white_noise,
    outcome_probs,
    quantum_uncertainty,
    shannon_entropy,
)

from oracles import von_neumann_entropy

TOL = 1e-12
STACK = 5


def povm_items(povm: Povm) -> list[Povm]:
    """The POVMs of a 1-D stack, rebuilt one by one."""
    return [Povm(e) for e in povm.effects]


def assert_stack(stacked, singles):
    assert isinstance(stacked, np.ndarray)
    np.testing.assert_allclose(stacked, np.array(singles), atol=TOL, rtol=0)


def assert_basis_pair_stack(basis_a, alpha, basis_b, beta):
    """basis_pair_bounds on broadcast stacks equals one call per stack item."""
    stacked = bounds.basis_pair_bounds(basis_a, alpha, basis_b, beta)
    shape = np.broadcast_shapes(np.shape(basis_a)[:-2], np.shape(alpha), np.shape(basis_b)[:-2], np.shape(beta))
    d = np.shape(basis_a)[-1]
    basis_a, basis_b = np.broadcast_to(basis_a, shape + (d, d)), np.broadcast_to(basis_b, shape + (d, d))
    alpha, beta = np.broadcast_to(alpha, shape), np.broadcast_to(beta, shape)
    items = [bounds.basis_pair_bounds(basis_a[i], alpha[i], basis_b[i], beta[i]) for i in np.ndindex(shape)]
    assert list(stacked) == list(items[0])
    for name, values in stacked.items():
        assert values.shape == shape
        assert_stack(values.ravel(), [item[name] for item in items])


@pytest.fixture(params=[2, 3, 4])
def d(request):
    return request.param


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


class TestPovmStacks:
    def test_spectra_match_single_construction(self, d, rng):
        stack = random_povm(d, 3, rng, size=STACK)
        assert stack.effects.shape == (STACK, 3, d, d)
        assert stack.eigenvalues.shape == (STACK, 3, d)
        assert stack.eigenvectors.shape == (STACK, 3, d, d)
        for i, single in enumerate(povm_items(stack)):
            np.testing.assert_allclose(stack.eigenvalues[i], single.eigenvalues, atol=TOL, rtol=0)
            w, v = stack.eigenvalues[i], stack.eigenvectors[i]
            np.testing.assert_allclose(
                np.einsum("nk,nik,njk->nij", w, v, v.conj()), single.effects, atol=1e-10, rtol=0
            )

    def test_two_stack_axes(self, rng):
        stack = random_povm(2, 2, rng, size=(2, 3))
        assert stack.effects.shape == (2, 3, 2, 2, 2)
        assert stack.dim == 2 and stack.n_outcomes == 2
        assert stack.completeness_residual().shape == (2, 3)

    def test_completeness_residual_float_or_stack(self, rng):
        stack = random_povm(3, 4, rng, size=STACK)
        assert_stack(stack.completeness_residual(), [p.completeness_residual() for p in povm_items(stack)])
        assert type(povm_items(stack)[0].completeness_residual()) is float

    def test_projective_and_white_noise(self, d, rng):
        bases = random_basis(d, rng, size=STACK)
        alphas = rng.uniform(size=STACK)
        for stack, singles in (
            (projective_from_basis(bases), [projective_from_basis(b) for b in bases]),
            (white_noise_povm(bases, alphas), [white_noise_povm(b, a) for b, a in zip(bases, alphas)]),
        ):
            np.testing.assert_allclose(stack.effects, [p.effects for p in singles], atol=TOL, rtol=0)

    def test_white_noise_alpha_grid_on_one_basis(self, rng):
        basis = random_basis(3, rng)
        alphas = np.linspace(0.0, 1.0, 4)
        stack = white_noise_povm(basis, alphas)
        assert stack.effects.shape == (4, 3, 3, 3)
        np.testing.assert_allclose(stack.effects[2], white_noise_povm(basis, alphas[2]).effects, atol=TOL)

    def test_convex_combination(self, rng):
        a = random_povm(2, 2, rng, size=STACK)
        b = random_povm(2, 3, rng, size=STACK)
        p = rng.uniform(size=STACK)
        mixed = convex_combination(a, b, p)
        assert mixed.effects.shape == (STACK, 5, 2, 2)
        for i, (pa, pb) in enumerate(zip(povm_items(a), povm_items(b))):
            np.testing.assert_allclose(mixed.effects[i], convex_combination(pa, pb, p[i]).effects, atol=TOL)

    def test_amplitude_damping(self, rng):
        bases = random_basis(3, rng, size=STACK)
        es = rng.uniform(size=STACK)
        stack = amplitude_damping_povm(bases, es)
        assert stack.effects.shape == (STACK, 3, 3, 3)
        singles = [amplitude_damping_povm(b, e) for b, e in zip(bases, es)]
        np.testing.assert_allclose(stack.effects, [p.effects for p in singles], atol=TOL, rtol=0)
        grid = amplitude_damping_povm(bases[0], es)
        assert grid.effects.shape == (STACK, 3, 3, 3)
        np.testing.assert_allclose(grid.effects[3], amplitude_damping_povm(bases[0], es[3]).effects, atol=TOL, rtol=0)
        assert singles[0].effects.shape == (3, 3, 3)

    def test_rows_of_a_stack(self, monkeypatch, rng):
        stack = random_povm(3, 4, rng, size=STACK)

        def no_eigh(*args):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        index = np.array([4, 0, 2])
        rows = _rows(stack, index)
        for name in ("effects", "eigenvalues", "eigenvectors"):
            assert not getattr(rows, name).flags.writeable
            np.testing.assert_array_equal(getattr(rows, name), getattr(stack, name)[index])
        assert (rows.dim, rows.n_outcomes) == (3, 4)

    def test_amplitude_damping_checks_the_basis_dimension_of_a_stack(self, rng):
        with pytest.raises(DimensionMismatch, match="d=2"):
            amplitude_damping_povm(random_basis(2, rng, size=3), 0.5)

    def test_out_of_range_parameter_in_stack(self, rng):
        basis = random_basis(2, rng)
        with pytest.raises(ValueError, match="alpha"):
            white_noise_povm(basis, np.array([0.5, 1.5]))
        with pytest.raises(ValueError, match="transition probability"):
            amplitude_damping_povm(random_basis(3, rng), np.array([0.2, 1.0, -0.1]))
        with pytest.raises(ValueError, match="transition probability"):
            bounds.ad_coles_closed_form(np.array([0.2, np.nan, 0.5]))
        a = random_povm(2, 2, rng)
        with pytest.raises(ValueError, match="mixing probability"):
            convex_combination(a, a, np.array([0.2, np.nan]))


class TestStackedValidationErrors:
    def good(self):
        return np.stack([np.stack([np.eye(2) / 2, np.eye(2) / 2])] * 3)

    def test_not_positive_names_povm_and_effect(self):
        effects = self.good()
        effects[1] = [np.diag([-0.2, 0.2]), np.diag([1.2, 0.8])]
        with pytest.raises(NotPositive, match=re.escape("effect (1, 0):")):
            Povm(effects)

    def test_above_one_names_povm_and_effect(self):
        effects = self.good()
        effects[2] = [np.diag([0.0, 0.5]), np.diag([1.0, 0.5])]
        effects[2, 1, 0, 0] = 1.5
        effects[2, 0, 0, 0] = -0.5
        # effect (2, 0) is not positive and comes first in C order
        with pytest.raises(NotPositive, match=re.escape("effect (2, 0):")):
            Povm(effects)
        effects[2, 0, 0, 0] = 0.0
        with pytest.raises(EigenvalueAboveOne, match=re.escape("effect (2, 1):")):
            Povm(effects)

    def test_completeness_names_povm(self):
        effects = self.good()
        effects[2, 0] *= 1.1
        with pytest.raises(CompletenessViolated, match="^POVM 2: "):
            Povm(effects)

    def test_hermiticity_and_finiteness_name_the_item(self):
        effects = self.good()
        effects[1, 1, 0, 1] = 0.1
        with pytest.raises(NotHermitian, match=re.escape("matrix (1, 1):")):
            Povm(effects)
        effects = self.good()
        effects[2, 0, 1, 1] = np.nan
        with pytest.raises(NotFinite, match="^item 2: POVM effect array has"):
            Povm(effects)

    def test_validate_density_stack(self):
        good = np.stack([np.eye(2) / 2] * 3)
        assert validate_density(good).shape == (3, 2, 2)
        assert validate_density(good).shape[-1] == 2
        cases = [
            (NotFinite, "item 1: density matrix has", (1, 0, 0), np.inf),
            (NotHermitian, "matrix 2:", (2, 0, 1), 0.3),
            (NotPositive, "matrix 1:", (1, 0, 0), -0.5),
            (TraceNotOne, "matrix 2:", (2, 1, 1), 0.6),
        ]
        for error, message, entry, value in cases:
            bad = good.copy()
            bad[entry] = value
            if error is NotPositive:
                bad[1, 1, 1] = 1.5
            with pytest.raises(error, match=re.escape(message)):
                validate_density(bad)

    def test_unstacked_messages_name_no_item(self):
        with pytest.raises(NotPositive, match="^lowest eigenvalue"):
            validate_density(np.diag([1.5, -0.5]))
        with pytest.raises(CompletenessViolated, match="^effects sum"):
            Povm(np.stack([np.eye(2), np.eye(2)]))

    def test_orthonormality_names_basis(self, rng):
        bases = random_basis(2, rng, size=3)
        bases[1, 0] *= 2.0
        with pytest.raises(NotOrthonormal, match="^basis 1: "):
            projective_from_basis(bases)


class TestUncertaintyStacks:
    def test_states_against_matching_povms(self, d, rng):
        povms = random_povm(d, d + 1, rng, size=STACK)
        rho = random_mixed_state(d, rng, size=STACK)
        pairs = list(zip(rho, povm_items(povms)))
        probs = outcome_probs(rho, povms)
        assert probs.shape == (STACK, d + 1)
        assert_stack(probs, [outcome_probs(r, p) for r, p in pairs])
        assert_stack(shannon_entropy(probs), [shannon_entropy(outcome_probs(r, p)) for r, p in pairs])
        assert_stack(device_uncertainty(rho, povms), [device_uncertainty(r, p) for r, p in pairs])
        assert_stack(quantum_uncertainty(rho, povms), [quantum_uncertainty(r, p) for r, p in pairs])
        assert_stack(
            device_uncertainty_operator(povms), [device_uncertainty_operator(p) for p in povm_items(povms)]
        )

    def test_one_povm_against_a_state_stack(self, d, rng):
        povm = random_povm(d, 3, rng)
        rho = random_pure_state(d, rng, size=(2, STACK))
        values = device_uncertainty(rho, povm)
        assert values.shape == (2, STACK)
        assert_stack(values, [[device_uncertainty(r, povm) for r in row] for row in rho])
        assert_stack(
            quantum_uncertainty(rho, povm), [[quantum_uncertainty(r, povm) for r in row] for row in rho]
        )

    def test_state_stack_against_povm_grid(self, rng):
        # states (s, 1, d, d) against POVMs (k,) broadcast to (s, k)
        povms = white_noise_povm(random_basis(3, rng), np.linspace(0.0, 1.0, 4))
        rho = random_pure_state(3, rng, size=(STACK, 1))
        values = device_uncertainty(rho, povms)
        assert values.shape == (STACK, 4)
        assert_stack(
            values, [[device_uncertainty(r[0], p) for p in povm_items(povms)] for r in rho]
        )

    def test_empty_stack(self, rng):
        povm = random_povm(2, 3, rng)
        rho = random_pure_state(2, rng, size=0)
        assert outcome_probs(rho, povm).shape == (0, 3)
        assert device_uncertainty(rho, povm).shape == (0,)
        assert quantum_uncertainty(rho, povm).shape == (0,)

    def test_unstacked_calls_return_floats(self, rng):
        povm = random_povm(3, 3, rng)
        rho = random_pure_state(3, rng)
        for value in (
            shannon_entropy(outcome_probs(rho, povm)),
            device_uncertainty(rho, povm),
            quantum_uncertainty(rho, povm),
            binary_entropy(0.3),
        ):
            assert type(value) is float

    def test_binary_entropy(self):
        p = np.linspace(0.0, 1.0, 7)
        assert_stack(binary_entropy(p), [binary_entropy(float(x)) for x in p])

    def test_von_neumann_entropy(self, d, rng):
        rho = random_mixed_state(d, rng, size=(2, 3))
        values = von_neumann_entropy(rho)
        assert values.shape == (2, 3)
        assert_stack(values, [[von_neumann_entropy(r) for r in row] for row in rho])
        assert type(von_neumann_entropy(rho[0, 0])) is float

    def test_f_white_noise(self):
        p, alpha = np.linspace(0.0, 1.0, 5)[:, None], np.linspace(0.0, 1.0, 7)
        for d in (2, 5):
            values = f_white_noise(p, alpha, d)
            assert values.shape == (5, 7)
            assert_stack(values, [[f_white_noise(float(x), float(a), d) for a in alpha] for x in p[:, 0]])
        assert type(f_white_noise(0.3, 0.6, 3)) is float

    def test_bad_distribution_in_stack(self):
        probs = np.array([[0.5, 0.5], [0.7, 0.7]])
        with pytest.raises(ValueError, match="sum to 1.4"):
            shannon_entropy(probs)


class TestBoundStacks:
    def test_single_povm_bounds(self, d, rng):
        povms = random_povm(d, 3, rng, size=STACK)
        singles = povm_items(povms)
        for fn in (bounds.krishna_bound, bounds.min_device_uncertainty):
            assert_stack(fn(povms), [fn(p) for p in singles])
            assert type(fn(singles[0])) is float

    def test_pair_bounds(self, d, rng):
        a = random_povm(d, 2, rng, size=STACK)
        b = random_povm(d, 4, rng, size=STACK)
        pairs = list(zip(povm_items(a), povm_items(b)))
        for fn in (bounds.coles_bound, bounds.min_pair_device_bound):
            assert_stack(fn(a, b), [fn(pa, pb) for pa, pb in pairs])
            assert type(fn(*pairs[0])) is float

    def test_one_povm_against_a_stack(self, rng):
        a = random_povm(3, 3, rng)
        b = random_povm(3, 2, rng, size=STACK)
        assert_stack(bounds.coles_bound(a, b), [bounds.coles_bound(a, pb) for pb in povm_items(b)])

    def test_basis_bounds(self, d, rng):
        basis_a = random_basis(d, rng, size=STACK)
        basis_b = random_basis(d, rng, size=STACK)
        alpha, beta = rng.uniform(size=STACK), rng.uniform(size=STACK)
        assert_basis_pair_stack(basis_a, alpha, basis_b, beta)
        single = bounds.basis_pair_bounds(basis_a[0], alpha[0], basis_b[0], beta[0])
        assert list(single) == ["mu", "B1", "HW", "QW", "B2", "D_WN"]
        assert all(type(v) is float for v in single.values())

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_basis_pair_bounds_broadcast(self, dim, rng):
        basis_a = random_basis(dim, rng, size=STACK)
        basis_b = random_basis(dim, rng, size=STACK)
        alpha, beta = rng.uniform(size=STACK), rng.uniform(size=STACK)
        assert_basis_pair_stack(basis_a, alpha, basis_b, beta)
        # One pair against a noise grid, a stack of pairs at one noise level,
        # and a (STACK, 1) stack of pairs against (STACK,) noise levels.
        assert_basis_pair_stack(basis_a[0], alpha, basis_b[0], beta)
        assert_basis_pair_stack(basis_a, 0.5, basis_b, 1.0)
        assert_basis_pair_stack(basis_a[:, None], alpha, basis_b[:, None], beta)

    def test_majorization_vector(self, d, rng):
        basis_a = random_basis(d, rng, size=STACK)
        basis_b = random_basis(d, rng, size=STACK)
        w, big_w = bounds.majorization_vector(basis_a, basis_b)
        assert w.shape == (STACK, d) and big_w.shape == (STACK, 2 * d - 1)
        singles = [bounds.majorization_vector(a, b) for a, b in zip(basis_a, basis_b)]
        assert_stack(w, [s[0] for s in singles])
        assert_stack(big_w, [s[1] for s in singles])

    @pytest.mark.parametrize("dim", range(2, bounds.MAX_MAJORIZATION_DIM + 1))
    def test_empty_basis_stack(self, dim):
        empty = np.zeros((0, dim, dim), dtype=complex)
        w, big_w = bounds.majorization_vector(empty, empty)
        assert w.shape == (0, dim) and big_w.shape == (0, 2 * dim - 1)
        values = bounds.basis_pair_bounds(empty, 0.5, empty, np.zeros(0))
        assert list(values) == ["mu", "B1", "HW", "QW", "B2", "D_WN"]
        assert all(v.shape == (0,) for v in values.values())

    def test_white_noise_closed_form(self):
        alphas = np.linspace(0.0, 1.0, 11)
        for d in (2, 5):
            values = bounds.device_uncertainty_white_noise(alphas, d)
            assert_stack(values, [bounds.device_uncertainty_white_noise(float(a), d) for a in alphas])
        assert type(bounds.device_uncertainty_white_noise(0.4, 3)) is float

    def test_damping_closed_form(self):
        es = np.linspace(0.0, 1.0, 11)
        assert_stack(bounds.ad_coles_closed_form(es), [bounds.ad_coles_closed_form(float(e)) for e in es])
        assert type(bounds.ad_coles_closed_form(0.3)) is float

    def test_spin_basis(self):
        thetas = np.linspace(0.0, np.pi, 6).reshape(2, 3)
        stack = spin_basis(thetas)
        assert stack.shape == (2, 3, 2, 2)
        np.testing.assert_array_equal(stack[1, 2], spin_basis(thetas[1, 2]))


class TestStackedDraws:
    @pytest.mark.parametrize(
        "draw, shape",
        [
            (lambda rng, size: random_state_vector(3, rng, size), (3,)),
            (lambda rng, size: random_pure_state(3, rng, size), (3, 3)),
            (lambda rng, size: random_mixed_state(3, rng, size), (3, 3)),
            (lambda rng, size: random_basis(3, rng, size), (3, 3)),
            (lambda rng, size: random_povm(3, 2, rng, size).effects, (2, 3, 3)),
        ],
    )
    def test_shapes_and_single_draw(self, draw, shape):
        assert np.shape(draw(np.random.default_rng(1), None)) == shape
        assert np.shape(draw(np.random.default_rng(1), 4)) == (4, *shape)
        assert np.shape(draw(np.random.default_rng(1), (2, 3))) == (2, 3, *shape)
        assert np.shape(draw(np.random.default_rng(1), 0)) == (0, *shape)

    def test_stacked_states_are_valid(self):
        validate_density(random_mixed_state(4, 3, size=50))
        validate_density(random_pure_state(4, 3, size=50))
        bases = random_basis(4, 3, size=50)
        np.testing.assert_allclose(bases.conj() @ bases.swapaxes(-1, -2), np.broadcast_to(np.eye(4), (50, 4, 4)), atol=1e-10)

    def test_degenerate_row_is_redrawn_alone(self):
        class ZeroFirstRow(np.random.Generator):
            """Zeroes row 0 of the first two normal() draws."""

            def __init__(self, seed):
                super().__init__(np.random.PCG64(seed))
                self.calls = 0

            def normal(self, *args, **kwargs):
                result = super().normal(*args, **kwargs)
                self.calls += 1
                if self.calls <= 2:
                    result[0] = 0.0
                return result

        plain = random_state_vector(2, np.random.default_rng(np.random.PCG64(9)), size=4)
        patched = random_state_vector(2, ZeroFirstRow(9), size=4)
        np.testing.assert_array_equal(patched[1:], plain[1:])
        assert abs(np.linalg.norm(patched[0]) - 1.0) < 1e-12

    def test_sampled_min_calls_objective_once(self):
        povm = random_povm(2, 3, 4)
        calls = []

        def objective(rho):
            calls.append(np.shape(rho))
            return device_uncertainty(rho, povm)

        best = sampled_min(objective, 2, 300, 5)
        assert calls == [(300, 2, 2)]
        rho = random_pure_state(2, np.random.default_rng(5), size=300)
        assert best == min(device_uncertainty(r, povm) for r in rho)


class TestSuiteResult:
    def test_records_a_stack_of_slacks(self):
        result = SuiteResult("demo", 3, 0)
        result.record(np.array([0.5, -0.2, 0.1]), 0.1, lambda i: f"x{i}")
        result.record(np.array([0.3]), 0.1, lambda i: f"y{i}")
        assert result.checks == 4
        assert result.failures == 1
        assert result.worst_slack == -0.2
        assert result.worst_label == "x1"
        assert result.messages == ["x1: slack -2.000e-01 < -1.0e-01"]

    def test_nan_slack_fails_and_stays_worst(self):
        result = SuiteResult("demo", 2, 0)
        result.record(np.array([0.1, np.nan]), 1e-9, lambda i: f"x{i}")
        result.record(np.array([-1.0]), 1e-9, lambda i: f"y{i}")
        result.record(np.array([np.nan]), 1e-9, lambda i: f"z{i}")
        assert result.failures == 3
        assert np.isnan(result.worst_slack)
        assert result.worst_label == "x1"

    def test_labels_formatted_only_when_needed(self):
        result = SuiteResult("demo", 100, 0)
        asked = []
        result.record(np.linspace(1.0, 2.0, 100), 1e-9, lambda i: asked.append(i) or f"x{i}")
        assert asked == [0]

    @pytest.mark.parametrize(
        "name, per_trial, fixed",
        [
            ("chain", 3 * 4, 0),
            ("majorization", 2 * 3, 0),
            ("convexity", 2, 0),
            ("whitenoise", 0, 5 * 11),
            ("validity", 1, 0),
            ("coles", 1, 0),
            ("dualmap", 1, 0),
        ],
    )
    def test_check_counts(self, name, per_trial, fixed):
        for trials in (1, 65, 130):
            result = suites.run_suite(name, trials, 8)
            assert result.checks == per_trial * trials + fixed
            assert result.passed, result.messages

    def test_chain_builds_one_povm_stack_per_group(self, monkeypatch):
        constructed = []
        post_init = Povm.__post_init__

        def counting(self):
            constructed.append(np.shape(self.effects))
            post_init(self)

        monkeypatch.setattr(Povm, "__post_init__", counting)
        result = run_suite("chain", 40, 5)
        assert result.checks == 3 * 4 * 40 and result.passed
        # at most one stack per (d, n): n in 2..d+1 for d = 2, 3, 4
        assert len(constructed) <= 2 + 3 + 4
        assert sum(shape[0] for shape in constructed) == 3 * 40


def count_calls(monkeypatch, name, *modules):
    """Count the calls of <module>.<name> in every module given, in one list of their arguments."""
    calls = []
    for module in modules:
        real = getattr(module, name)

        def counting(*args, real=real, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


def bench_expected_checks():
    """``expected_checks`` and ``SUITE_TRIALS`` of the benchmark's verify workload."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.pop(0)
    return workloads.expected_checks, workloads.SUITE_TRIALS


class TestSuiteCallStructure:
    def test_coles_draws_once_per_outcome_count(self, monkeypatch):
        draws = count_calls(monkeypatch, "random_povm", suites)
        pair_bounds = count_calls(monkeypatch, "coles_bound", suites)
        result = suites.run_suite("coles", 290, 3)
        assert result.checks == 290 and result.passed
        # d = 2, 3, one block each: 3 outcome counts per family, 3 x 3 groups.
        assert len(draws) == 2 * 2 * 3
        assert len(pair_bounds) == 2 * 3 * 3

    def test_convexity_draws_once_per_outcome_count(self, monkeypatch):
        draws = count_calls(monkeypatch, "random_povm", suites)
        result = suites.run_suite("convexity", 170, 3)
        assert result.checks == 2 * 170 and result.passed
        assert len(draws) == 2 * 2 * 2

    def test_pair_draws_give_each_trial_its_outcome_counts(self):
        rng = np.random.default_rng(6)
        trials = 2 * suites.BLOCK + 50
        dims, n_a, n_b = rng.integers(2, 4, size=trials), rng.integers(2, 5, size=trials), rng.integers(2, 5, size=trials)
        seen, drawn = [], set()
        for d, idx, a, b, rho in suites._povm_pairs(trials, rng, dims, n_a, n_b):
            assert idx.size <= suites.BLOCK
            assert (dims[idx] == d).all()
            assert (n_a[idx] == a.n_outcomes).all() and (n_b[idx] == b.n_outcomes).all()
            assert a.effects.shape[0] == b.effects.shape[0] == rho.shape[0] == idx.size
            assert a.dim == b.dim == rho.shape[-1] == d
            seen.extend(idx.tolist())
            drawn.update(item.tobytes() for stack in (a.effects, b.effects, rho) for item in stack)
        assert sorted(seen) == list(range(trials))
        # Every trial takes its own row of each draw: no row is handed out twice.
        assert len(drawn) == 3 * trials

    def test_chain_forms_one_device_uncertainty_operator_per_group(self, monkeypatch):
        operators = count_calls(monkeypatch, "device_uncertainty_operator", suites, bounds, uncertainty)
        draws = count_calls(monkeypatch, "random_povm", suites)
        result = suites.run_suite("chain", 130, 3)
        assert result.checks == 3 * 4 * 130 and result.passed
        assert len(operators) == len(draws) == 2 + 3 + 4

    @pytest.mark.parametrize("block", [1, 7, None])
    def test_check_counts_at_any_block(self, monkeypatch, block):
        expected_checks, suite_trials = bench_expected_checks()
        if block is not None:
            monkeypatch.setattr(suites, "BLOCK", block)
        for name in suites.SUITES:
            trials = suite_trials[name] if block is None else 15
            result = suites.run_suite(name, trials, 9)
            assert result.checks == expected_checks(name, trials)
            assert result.passed, result.messages
