"""Entropy functionals over measurement outcomes.

All entropies are in bits (base-2 logarithms) throughout the package, with
the 0 log 0 = 0 convention.

States and POVMs may carry leading stack axes: a state (..., d, d) and a POVM
with effects (..., n, d, d) broadcast like NumPy arrays, so one call
evaluates every state of a stack against one POVM or against a matching
stack of POVMs. A call without stack axes returns a Python float, a
stacked call an array of the broadcast stack shape.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .linalg import TOL_PROB_SUM, TOL_PSD, first_index, float_or_array, prob_tol, require_unit_interval
from .povm import Povm


def entropy_term(x):
    """Pointwise -x log2(x) with 0 log 0 = 0; accepts scalars or arrays."""
    x = np.asarray(x, dtype=float)
    positive = x > 0.0
    safe = np.where(positive, x, 1.0)
    h = np.log2(safe)
    h *= safe
    return np.where(positive, -h, 0.0)


def _state_dim(rho: np.ndarray, povm: Povm) -> None:
    if rho.shape[-2:] != (povm.dim, povm.dim):
        raise DimensionMismatch(f"state shape {rho.shape} does not match POVM dim {povm.dim}")


def outcome_probs(rho, povm: Povm) -> np.ndarray:
    """Outcome distribution p_i = Tr[rho A_i], clamped at 0 and renormalized.

    rho (..., d, d) and effects (..., n, d, d) give probabilities (..., n).
    The raw values must lie within ``prob_tol(d)`` of [0, 1] and sum to
    within ``prob_tol(d)`` of 1, which every validated state and POVM meet;
    the result is then a distribution that ``shannon_entropy`` accepts.
    """
    rho = np.asarray(rho, dtype=complex)
    _state_dim(rho, povm)
    probs = np.einsum("...ij,...nji->...n", rho, povm.effects).real
    tol = prob_tol(povm.dim)
    total = probs.sum(axis=-1)
    # Whole-stack checks first; the per-item ones below only name the failure.
    if not (
        probs.min(initial=np.inf) >= -tol
        and probs.max(initial=0.0) <= 1.0 + tol
        and abs(total - 1.0).max(initial=0.0) <= tol
    ):
        in_range = ((probs >= -tol) & (probs <= 1.0 + tol)).all(axis=-1)
        if not in_range.all():
            raise ValueError(f"outcome probabilities outside [0, 1]: {probs[first_index(~in_range)]}")
        bad = ~(abs(total - 1.0) <= tol)
        raise ValueError(f"outcome probabilities sum to {total[first_index(bad)]:.12f}, expected 1")
    probs = np.maximum(probs, 0.0)
    return probs / probs.sum(axis=-1, keepdims=True)


def shannon_entropy(probs):
    """H = -sum_i p_i log2 p_i of a probability distribution, in bits.

    Sums over the last axis: a (..., n) stack of distributions gives (...).
    """
    p = np.asarray(probs, dtype=float)
    total = p.sum(axis=-1)
    if not (p.min(initial=np.inf) >= -TOL_PSD and abs(total - 1.0).max(initial=0.0) <= TOL_PROB_SUM):
        low = p.min(axis=-1)
        bad = ~(low >= -TOL_PSD)
        if bad.any():
            raise ValueError(f"negative probability {low[first_index(bad)]:.3e}")
        bad = ~(abs(total - 1.0) <= TOL_PROB_SUM)
        raise ValueError(f"probabilities sum to {total[first_index(bad)]:.10f}, expected 1")
    return float_or_array(entropy_term(p.clip(0.0, 1.0)).sum(axis=-1))


def binary_entropy(p):
    """H_bin(p) = -p log2 p - (1-p) log2 (1-p), elementwise over an array p."""
    q = require_unit_interval(p, "probability")
    return float_or_array(entropy_term(q) + entropy_term(1.0 - q))


def device_uncertainty_operator(povm: Povm) -> np.ndarray:
    """Sum of h(a) |v><v| over all effect eigenpairs, h(a) = -a log2 a.

    Contracts ``povm.eigenvalues`` (..., n, d), ascending, with the
    eigenvector columns of ``povm.eigenvectors`` (..., n, d, d) into a
    Hermitian (..., d, d) operator M. The device uncertainty of any state rho
    equals Tr[rho M], so state minimization reduces to its lowest eigenvalue.
    """
    v = povm.eigenvectors
    m = np.einsum("...nk,...nik,...njk->...ij", entropy_term(povm.eigenvalues), v, v.conj())
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def device_uncertainty(rho, povm: Povm):
    """Entropic unsharpness of a measurement, averaged over the state.

    Sums -a log2(a) over every effect eigenvalue a, weighted by the overlap
    <v|rho|v> of the state with the corresponding eigenvector; that is
    Tr[rho M] for M = ``device_uncertainty_operator(povm)``. Vanishes for
    every state exactly when the measurement is projective, and never exceeds
    the outcome entropy. A float for one state and POVM, an array of the
    broadcast stack shape otherwise.
    """
    rho = np.asarray(rho, dtype=complex)
    _state_dim(rho, povm)
    return _expectation(rho, device_uncertainty_operator(povm))


def _expectation(rho: np.ndarray, m: np.ndarray):
    """Tr[rho M] of states rho and Hermitian operators M of matching dimension."""
    return float_or_array(np.einsum("...ij,...ji->...", rho, m).real)


def quantum_uncertainty(rho, povm: Povm):
    """Outcome entropy minus device uncertainty: randomness due to the state.

    Equals the full entropy for projective measurements and vanishes when
    every effect is a multiple of the identity. Broadcasts like
    ``device_uncertainty``.
    """
    return shannon_entropy(outcome_probs(rho, povm)) - device_uncertainty(rho, povm)


def f_white_noise(p, alpha, d: int):
    """Per-outcome quantum-uncertainty kernel of a white-noise measurement.

    With alpha_d = (1 - alpha) / d and h(x) = -x log2 x,

        f(p, alpha) = h(alpha p + alpha_d) - p h(alpha + alpha_d) - (1 - p) h(alpha_d)

    so the quantum uncertainty of a white-noise measurement is the sum of
    f over the sharp-basis populations. f is concave in p, vanishes at
    p in {0, 1}, reduces to -p log2 p at alpha = 1 and to 0 at alpha = 0,
    and is nondecreasing in alpha. Arrays p and alpha broadcast: a float for
    scalars, an array of the broadcast shape otherwise.
    """
    p = require_unit_interval(p, "p")
    alpha = require_unit_interval(alpha, "alpha")
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    return float_or_array(_white_noise_kernel(p, alpha, d))


def _white_noise_kernel(p, alpha, d: int):
    """f(p, alpha) of ``f_white_noise``, elementwise over arrays p and alpha, unchecked."""
    alpha_d = (1.0 - alpha) / d
    return (
        entropy_term(alpha * p + alpha_d)
        - p * entropy_term(alpha + alpha_d)
        - (1.0 - p) * entropy_term(alpha_d)
    )
