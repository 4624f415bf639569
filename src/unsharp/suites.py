"""Randomized property suites behind the CLI verify subcommand.

Each suite draws seeded random scenarios, checks the relevant inequalities or
identities, and reports check counts, failures and the worst slack observed
with its location. A slack is lhs - rhs of an inequality lhs >= rhs;
identities record the negated absolute deviation, so the worst slack is
always "distance from violation" and suites pass when no slack falls below
its tolerance.

Trials are drawn and evaluated as stacks: one call per block of trials that
share a dimension and outcome count. The POVM-pair suites, coles and
convexity, block their trials by dimension alone: each block draws every POVM
family once per outcome count, and each (n_A, n_B) group of the block is
evaluated on its rows of those stacks. A seed therefore reproduces its
scenarios within one version of the package, not across versions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bounds import (
    _lowest_eigenvalue,
    basis_pair_bounds,
    coles_bound,
    device_uncertainty_white_noise,
    krishna_bound,
    majorization_vector,
)
from .errors import ConfigError
from .linalg import TOL_SUITE, TOL_SUITE_CLOSED_FORM, TOL_SUITE_IDENTITY
from .povm import Povm, _rows, convex_combination, projective_from_basis, white_noise_povm
from .sampling import (
    random_basis,
    random_mixed_state,
    random_povm,
    random_pure_state,
    random_state_vector,
)
from .uncertainty import (
    _expectation,
    binary_entropy,
    device_uncertainty,
    device_uncertainty_operator,
    outcome_probs,
    shannon_entropy,
)
from .sweeps import spin_basis

MAX_MESSAGES = 20
# Trials per stacked call. Every suite draws and evaluates its trials in blocks
# of at most BLOCK, so the arrays of one call, and with them the peak memory of
# a run, do not grow with the trial count; only the per-trial keys (sizes and
# scalar parameters) do. Larger blocks amortize the per-call cost; at 256 the
# largest call, a chain block at d = 4, n = 5, peaks at about 1.9 MB of
# tracemalloc (0.5 MB at 64).
BLOCK = 256
# Most trials per run. The per-trial keys drawn up front cost at most about
# 65 B of peak RSS per trial (convexity: 12.1 MB more at 2 x 10^5 trials than
# at 10^4), so the cap extrapolates to about 65 MB. Per trial chain is the
# slowest suite (about 110 us) and takes about 2 minutes at the cap on one
# core of a 2-vCPU Xeon VM. The slowest op of the benchmark's verify cycle is
# coles at 290 trials (about 13 ms).
MAX_TRIALS = 1_000_000


@dataclass
class SuiteResult:
    name: str
    trials: int
    seed: int
    checks: int = 0
    failures: int = 0
    worst_slack: float = np.inf
    worst_label: str = ""
    messages: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def record(self, slack, tol: float, label: Callable[[int], str]) -> None:
        """Record an array of slacks; a NaN slack counts as a failure.

        ``label(i)`` names slack i; it is called only for failures and for a
        new worst slack.
        """
        slack = np.ravel(slack)
        if slack.size == 0:
            return
        self.checks += slack.size
        i = int(np.argmin(slack))  # the first NaN, if there is one
        if slack[i] < self.worst_slack or (np.isnan(slack[i]) and not np.isnan(self.worst_slack)):
            self.worst_slack = float(slack[i])
            self.worst_label = label(i)
        bad = np.flatnonzero(~(slack >= -tol))
        self.failures += bad.size
        for j in bad[: max(0, MAX_MESSAGES - len(self.messages))]:
            self.messages.append(f"{label(j)}: slack {slack[j]:.3e} < -{tol:.1e}")

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"suite={self.name} trials={self.trials} seed={self.seed} "
            f"checks={self.checks} failures={self.failures} "
            f"worst_slack={self.worst_slack:.3e} {status}"
        )


def _groups(trials: int, *keys: np.ndarray):
    """Yield (key, trial indices) in blocks of at most BLOCK trials.

    Trials are grouped by their (d, n, ...) key, one entry of each array in
    keys per trial (no keys: one group), groups in ascending key order and
    trials in ascending order within a group. Every trial draws its sizes
    first; each block then draws its POVMs and states as one stack, so every
    trial keeps its distribution.
    """
    table = np.stack([np.zeros(trials, dtype=int), *keys], axis=-1)
    order = np.lexsort(table.T[::-1])  # stable: ascending trials within a key
    table = table[order]
    starts = np.flatnonzero((table[1:] != table[:-1]).any(axis=-1)) + 1
    for first, group in zip(np.r_[0, starts], np.split(order, starts)):
        key = tuple(table[first, 1:].tolist())
        for start in range(0, group.size, BLOCK):
            yield key, group[start : start + BLOCK]


def _by_outcomes(d: int, n: np.ndarray, rng) -> Callable[[np.ndarray], Povm]:
    """Draw random POVMs for trials with outcome counts n, one stack per count.

    Returns ``rows(sub)``: the POVMs of trials ``sub`` (ascending, one shared
    outcome count) as one stack, without validating them again.
    """
    row = np.empty(n.size, dtype=int)
    stacks = {}
    # Not np.unique: its first call in a process raised peak RSS by about 0.75 MB.
    for count in sorted(set(n.tolist())):
        mask = n == count
        row[mask] = np.arange(int(mask.sum()))
        stacks[count] = random_povm(d, count, rng, size=int(mask.sum()))
    return lambda sub: _rows(stacks[int(n[sub[0]])], row[sub])


def _povm_pairs(trials: int, rng, dims: np.ndarray, n_a: np.ndarray, n_b: np.ndarray):
    """Yield (d, trial indices, A, B, rho) for each (d, n_A, n_B) group of random POVM pairs.

    Trials are blocked by d alone (at most BLOCK each, as in ``_groups``).
    Each block draws its A POVMs once per outcome count, then its B POVMs,
    then one pure state per trial; each of its (n_A, n_B) groups takes its
    rows of those stacks, so every trial keeps its distribution.
    """
    for (d,), block in _groups(trials, dims):
        a = _by_outcomes(d, n_a[block], rng)
        b = _by_outcomes(d, n_b[block], rng)
        rho = random_pure_state(d, rng, size=block.size)
        for _, sub in _groups(block.size, n_a[block], n_b[block]):
            yield d, block[sub], a(sub), b(sub), rho[sub]


def suite_chain(trials: int = 1000, seed: int = 0) -> SuiteResult:
    """H >= D >= minD >= resolution bound on random states and POVMs."""
    result = SuiteResult("chain", trials, seed)
    rng = np.random.default_rng(seed)
    for d in (2, 3, 4):
        n_outcomes = rng.integers(2, d + 2, size=trials)
        for (n,), idx in _groups(trials, n_outcomes):
            povm = random_povm(d, n, rng, size=idx.size)
            odd = idx % 2 == 1  # odd trials take a pure state, even ones a mixed state
            rho = np.empty((idx.size, d, d), dtype=complex)
            rho[odd] = random_pure_state(d, rng, size=int(odd.sum()))
            rho[~odd] = random_mixed_state(d, rng, size=int((~odd).sum()))
            entropy = shannon_entropy(outcome_probs(rho, povm))
            # D = Tr[rho M] and minD = lowest eigenvalue of M, from one operator M.
            m = device_uncertainty_operator(povm)
            dev = _expectation(rho, m)
            floor = _lowest_eigenvalue(m)
            resolution = krishna_bound(povm)

            def label(check):
                return lambda i: f"d={d} trial={idx[i]} {check}"

            result.record(entropy - dev, TOL_SUITE, label("H>=D"))
            result.record(dev - floor, TOL_SUITE, label("D>=minD"))
            result.record(floor - resolution, TOL_SUITE, label("minD>=resolution"))
            result.record(dev, TOL_SUITE, label("D>=0"))
    return result


def suite_majorization(trials: int = 500, seed: int = 0) -> SuiteResult:
    """Direct-sum majorization and the H(W) entropy bound on random bases."""
    result = SuiteResult("majorization", trials, seed)
    rng = np.random.default_rng(seed)
    blocks = [idx for _, idx in _groups(trials)]
    for d in (2, 3):
        for idx in blocks:
            basis_a = random_basis(d, rng, size=idx.size)
            basis_b = random_basis(d, rng, size=idx.size)
            rho = random_pure_state(d, rng, size=idx.size)
            pa = outcome_probs(rho, projective_from_basis(basis_a))
            pb = outcome_probs(rho, projective_from_basis(basis_b))
            _, big_w = majorization_vector(basis_a, basis_b)
            merged = np.sort(np.concatenate([pa, pb], axis=-1), axis=-1)[:, ::-1]
            comparison = np.sort(np.concatenate([np.ones((idx.size, 1)), big_w], axis=-1), axis=-1)[:, ::-1]

            def label(check):
                return lambda i: f"d={d} trial={idx[i]} {check}"

            partial_gap = (np.cumsum(comparison, axis=-1) - np.cumsum(merged, axis=-1)).min(axis=-1)
            result.record(partial_gap, TOL_SUITE, label("partial sums"))
            result.record(-abs(merged.sum(axis=-1) - comparison.sum(axis=-1)), TOL_SUITE, label("equal totals"))
            result.record(
                shannon_entropy(pa) + shannon_entropy(pb) - shannon_entropy(big_w), TOL_SUITE, label("H_A+H_B>=H(W)")
            )
    return result


def suite_convexity(trials: int = 200, seed: int = 0) -> SuiteResult:
    """Mixture identities: D gains exactly H_bin(p) and Q mixes linearly."""
    result = SuiteResult("convexity", trials, seed)
    rng = np.random.default_rng(seed)
    dims = rng.integers(2, 4, size=trials)
    n_a = rng.integers(2, 4, size=trials)
    n_b = rng.integers(2, 4, size=trials)
    weights = rng.uniform(size=trials)
    for d, idx, a, b, rho in _povm_pairs(trials, rng, dims, n_a, n_b):
        p = weights[idx]
        mixed = convex_combination(a, b, p)
        gain = binary_entropy(p)
        # D and H once per POVM; Q = H - D is what quantum_uncertainty computes.
        d_mixed, d_a, d_b = (device_uncertainty(rho, povm) for povm in (mixed, a, b))
        h_mixed, h_a, h_b = (shannon_entropy(outcome_probs(rho, povm)) for povm in (mixed, a, b))
        d_expected = p * d_a + (1 - p) * d_b + gain
        q_expected = p * (h_a - d_a) + (1 - p) * (h_b - d_b)

        def label(check):
            return lambda i: f"trial={idx[i]} d={d} p={p[i]:.3f} {check}"

        result.record(-abs(d_mixed - d_expected), TOL_SUITE_IDENTITY, label("D identity"))
        result.record(-abs((h_mixed - d_mixed) - q_expected), TOL_SUITE_IDENTITY, label("Q identity"))
    return result


def suite_whitenoise(trials: int = 100, seed: int = 0) -> SuiteResult:
    """State independence and the closed form of white-noise unsharpness."""
    result = SuiteResult("whitenoise", trials, seed)
    rng = np.random.default_rng(seed)
    alphas = np.linspace(0.0, 1.0, 11)
    blocks = [idx for _, idx in _groups(trials)]
    for d in range(2, 7):
        # Decomposed numerically, so the check compares eigh's D with the closed form.
        povm = Povm(white_noise_povm(random_basis(d, rng), alphas).effects)
        closed = device_uncertainty_white_noise(alphas, d)
        # Every alpha is checked on the same random states: (block, 1) x (11,).
        worst = np.zeros_like(alphas)
        for idx in blocks:
            rho = random_pure_state(d, rng, size=(idx.size, 1))
            worst = np.maximum(worst, abs(device_uncertainty(rho, povm) - closed).max(axis=0))
        result.record(-worst, TOL_SUITE_CLOSED_FORM, lambda i: f"d={d} alpha={alphas[i]:.1f} state independence")
    return result


def suite_validity(trials: int = 500, seed: int = 0) -> SuiteResult:
    """Entropy sums dominate B1, B2 and -log2 C for white-noise spin pairs."""
    result = SuiteResult("validity", trials, seed)
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, np.pi, size=trials)
    alphas = rng.uniform(size=trials)
    betas = rng.uniform(size=trials)
    basis_b = np.eye(2, dtype=complex)
    for _, idx in _groups(trials):
        theta, alpha, beta = thetas[idx], alphas[idx], betas[idx]
        basis_a = spin_basis(theta)
        pa = white_noise_povm(basis_a, alpha)
        pb = white_noise_povm(basis_b, beta)
        rho = random_pure_state(2, rng, size=idx.size)
        entropy_sum = shannon_entropy(outcome_probs(rho, pa)) + shannon_entropy(outcome_probs(rho, pb))
        pair = basis_pair_bounds(basis_a, alpha, basis_b, beta)
        strongest = np.maximum(np.maximum(pair["B1"], pair["B2"]), coles_bound(pa, pb))
        result.record(
            entropy_sum - strongest,
            TOL_SUITE,
            lambda i: f"trial={idx[i]} theta={theta[i]:.3f} alpha={alpha[i]:.3f} beta={beta[i]:.3f}",
        )
    return result


def suite_coles(trials: int = 500, seed: int = 0) -> SuiteResult:
    """Entropy sums dominate -log2 C for unstructured random POVM pairs."""
    result = SuiteResult("coles", trials, seed)
    rng = np.random.default_rng(seed)
    dims = rng.integers(2, 4, size=trials)
    n_a = rng.integers(2, 5, size=trials)
    n_b = rng.integers(2, 5, size=trials)
    for d, idx, a, b, rho in _povm_pairs(trials, rng, dims, n_a, n_b):
        entropy_sum = shannon_entropy(outcome_probs(rho, a)) + shannon_entropy(outcome_probs(rho, b))
        result.record(entropy_sum - coles_bound(a, b), TOL_SUITE, lambda i: f"trial={idx[i]} d={d}")
    return result


def suite_dualmap(trials: int = 200, seed: int = 0) -> SuiteResult:
    """Noisy-state and noisy-measurement outcome probabilities coincide."""
    result = SuiteResult("dualmap", trials, seed)
    rng = np.random.default_rng(seed)
    dims = rng.integers(2, 5, size=trials)
    alphas = rng.uniform(size=trials)
    for (d,), idx in _groups(trials, dims):
        alpha = alphas[idx]
        basis = random_basis(d, rng, size=idx.size)
        psi = random_state_vector(d, rng, size=idx.size)
        pure = np.einsum("...i,...j->...ij", psi, psi.conj())
        a = alpha[:, None, None]
        rho_noisy = a * pure + (1 - a) * np.eye(d) / d
        noisy_probs = np.einsum("...ni,...ij,...nj->...n", basis.conj(), rho_noisy, basis).real
        sharp_probs = outcome_probs(pure, white_noise_povm(basis, alpha))
        result.record(
            -abs(noisy_probs - sharp_probs).max(axis=-1),
            TOL_SUITE_IDENTITY,
            lambda i: f"trial={idx[i]} d={d} alpha={alpha[i]:.3f}",
        )
    return result


SUITES = {
    "chain": suite_chain,
    "majorization": suite_majorization,
    "convexity": suite_convexity,
    "whitenoise": suite_whitenoise,
    "validity": suite_validity,
    "coles": suite_coles,
    "dualmap": suite_dualmap,
}


def run_suite(name: str, trials: int, seed: int) -> SuiteResult:
    """Run one suite by name; an unknown name, trials outside [1, MAX_TRIALS] or a negative seed raise ConfigError."""
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if trials < 1:
        raise ConfigError(f"need at least 1 trial, got {trials}")
    if trials > MAX_TRIALS:
        raise ConfigError(f"at most {MAX_TRIALS} trials, got {trials}")
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    return SUITES[name](trials=trials, seed=seed)
