"""Entropic lower bounds for single measurements and measurement pairs.

Single-measurement bounds: the resolution bound (-log2 of the largest effect
norm) and its improvement, the device uncertainty minimized over all states.
Pair bounds: the effect-sandwich bound -log2 C, ``basis_pair_bounds`` for
two bases (the largest-overlap bound, B1, H(W) / Q(W) / B2 and the total
white-noise device uncertainty), and the minimized pair device uncertainty
with its amplitude-damping closed form.

Every bound except ``pair_bound_report`` broadcasts over leading stack axes
of its POVMs, bases and noise levels, returning a Python float for unstacked
input and an array otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import DimensionMismatch
from .linalg import TOL_PROJECTIVE, DensityMatrix, _frozen, float_or_array, require_orthonormal, require_unit_interval
from .povm import Povm, require_same_dim
from .uncertainty import (
    _white_noise_kernel,
    device_uncertainty,
    device_uncertainty_operator,
    entropy_term,
    outcome_probs,
    quantum_uncertainty,
    shannon_entropy,
)

# The majorization vector takes the largest singular value of every
# submatrix U[R, S] of the d x d overlap matrix with |R| + |S| <= d, using
# ||P_R + P_S|| = 1 + sigma_max(U[R, S]) (principal angles): O(4^d) singular
# value problems of size at most d/2, batched per (|R|, |S|). That is 25-45 ms
# at d = 7 on one core of a 2-vCPU Xeon VM, growing about 4-7x per
# dimension; desk scale ends well before this guard.
MAX_MAJORIZATION_DIM = 8


def _neg_log2(c):
    """-log2 of an overlap constant, capped at 1 and without a negative zero."""
    return float_or_array(-np.log2(np.minimum(c, 1.0)) + 0.0)


def krishna_bound(povm: Povm):
    """-log2 of the largest effect norm: the best resolution scale.

    Vanishes as soon as any effect has norm 1, even if other effects are
    unsharp, which is why the minimized device uncertainty below is the
    stronger state-independent bound.
    """
    top = povm.eigenvalues[..., -1].max(axis=-1)
    return float_or_array(-np.log2(top) + 0.0)


def min_device_uncertainty(povm: Povm):
    """Device uncertainty minimized over all states (lowest eigenvalue)."""
    return float_or_array(np.linalg.eigvalsh(device_uncertainty_operator(povm))[..., 0])


def min_pair_device_bound(a: Povm, b: Povm):
    """min over states of the summed device uncertainty of two measurements.

    The objective is linear in the state, so the minimum is the lowest
    eigenvalue of the summed device-uncertainty operators and is attained on
    a pure state.
    """
    require_same_dim(a, b)
    m = device_uncertainty_operator(a) + device_uncertainty_operator(b)
    return float_or_array(np.linalg.eigvalsh(m)[..., 0])


def device_uncertainty_white_noise(alpha, d: int):
    """Closed-form device uncertainty of a white-noise measurement.

    With alpha_d = (1 - alpha) / d this is h(alpha + alpha_d) +
    (d - 1) h(alpha_d), elementwise over an array alpha; it is
    state-independent, decreases in alpha, and vanishes at d = 1.
    """
    a = require_unit_interval(alpha, "alpha")
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    alpha_d = (1.0 - a) / d
    return float_or_array(entropy_term(a + alpha_d) + (d - 1) * entropy_term(alpha_d))


def _sandwiched_max(core: Povm, wrap: Povm) -> np.ndarray:
    """max_i || sum_j W_j C_i W_j || over the effects C_i of core, W_j of wrap."""
    s = np.einsum("...nij,...mjk,...nkl->...mil", wrap.effects, core.effects, wrap.effects)
    s = (s + s.conj().swapaxes(-1, -2)) / 2.0
    return abs(np.linalg.eigvalsh(s)).max(axis=(-2, -1))


def coles_bound(a: Povm, b: Povm):
    """State-independent pair bound -log2 C from sandwiched effect sums.

    C = min( max_i || sum_j B_j A_i B_j ||, max_j || sum_i A_i B_j A_i || ).
    For projective pairs this reduces to the largest-overlap bound mu of
    ``basis_pair_bounds``.
    """
    require_same_dim(a, b)
    return _neg_log2(np.minimum(_sandwiched_max(a, b), _sandwiched_max(b, a)))


def _overlaps(basis_a, basis_b) -> np.ndarray:
    """Overlap matrices U[..., i, j] = <a_i|b_j> of two validated (stacks of) bases."""
    basis_a = require_orthonormal(basis_a)
    basis_b = require_orthonormal(basis_b)
    if basis_a.shape[-1] != basis_b.shape[-1]:
        raise DimensionMismatch(f"basis dimensions differ: {basis_a.shape[-1]} vs {basis_b.shape[-1]}")
    return basis_a.conj() @ basis_b.swapaxes(-1, -2)


@dataclass(frozen=True)
class MajorizationVector:
    """Subset-maximized norms w and their increment distribution W.

    ``w[k-1]`` is the largest operator norm of a sum of k+1 projectors drawn
    from the two bases (any split between them); it grows from at least 1 to
    exactly 2. ``W = (w_1 - 1, w_2 - w_1, ..., w_d - w_{d-1}, 0, ..., 0)`` has
    length 2d - 1, entries >= 0, and sums to 1, so that prepending a 1 yields
    a comparison vector of the same length 2d as a pair of outcome
    distributions. For a stack of basis pairs, ``w`` is (..., d) and ``W``
    is (..., 2d - 1).
    """

    w: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", _frozen(np.asarray(self.w, dtype=float)))
        object.__setattr__(self, "W", _frozen(np.asarray(self.W, dtype=float)))

    @property
    def dim(self) -> int:
        return self.w.shape[-1]

    def padded(self) -> np.ndarray:
        """W zero-padded to length 2d."""
        return np.concatenate([self.W, np.zeros(self.W.shape[:-1] + (1,))], axis=-1)


def majorization_vector(basis_a, basis_b) -> MajorizationVector:
    """Majorization coefficients of two bases, by principal angles.

    For k = 1..d, w_k maximizes || sum_{i in R} |a_i><a_i| + sum_{j in S}
    |b_j><b_j| || over all index subsets with |R| + |S| = k + 1. For
    nonempty R and S that norm is 1 + sigma_max(U[R, S]), where U[i, j] =
    <a_i|b_j> is the overlap matrix and sigma_max is the cosine of the
    smallest principal angle between the two spans (Bjorck & Golub, Math.
    Comp. 27, 1973). An empty subset gives norm 1, which a nonempty split
    always matches, and when |R| + |S| > d the spans intersect, so w_d = 2
    exactly. The cost is one batched SVD per size pair (|R|, |S|) with
    |R| + |S| <= d: O(4^d) singular-value problems of size at most d/2.
    Stacks of bases (..., d, d) broadcast and enlarge each batched SVD.
    """
    return _majorization(_overlaps(basis_a, basis_b))


def _majorization(u: np.ndarray) -> MajorizationVector:
    """``majorization_vector`` of the overlap matrices u (..., d, d)."""
    d = u.shape[-1]
    if d > MAX_MAJORIZATION_DIM:
        raise ValueError(f"subset enumeration is limited to d <= {MAX_MAJORIZATION_DIM}, got d={d}")

    subsets = [np.array(list(combinations(range(d), size)), dtype=np.intp) for size in range(d)]
    top = np.zeros(u.shape[:-1])
    for r_size in range(1, d):
        rows = u[..., subsets[r_size], :]
        for s_size in range(1, d + 1 - r_size):
            # (..., R, |R|, S, |S|) -> (..., R, S, |R|, |S|): every U[R, S] of these sizes.
            block = rows[..., subsets[s_size]].swapaxes(-3, -2)
            if min(r_size, s_size) == 1:
                # A single row or column: sigma_max is its Euclidean norm. This
                # keeps d <= 3 off the SVD path, whose first call adds ~0.7 MB RSS.
                sigma = np.sqrt(np.sum(np.abs(block) ** 2, axis=(-2, -1)))
            else:
                sigma = np.linalg.svd(block, compute_uv=False)[..., 0]
            k = r_size + s_size - 1
            top[..., k - 1] = np.maximum(top[..., k - 1], sigma.max(axis=(-2, -1)))
    top[..., d - 1] = 1.0
    w = 1.0 + top

    increments = np.diff(w, axis=-1, prepend=1.0)
    big_w = np.concatenate([np.clip(increments, 0.0, None), np.zeros(w.shape[:-1] + (d - 1,))], axis=-1)
    return MajorizationVector(w=w, W=big_w)


def basis_pair_bounds(basis_a, alpha, basis_b, beta) -> dict:
    """mu, B1, HW, QW, B2 and D_WN of two bases under white noise alpha, beta.

    All from one overlap matrix U[i, j] = <a_i|b_j>: mu = -log2 max |U_ij|^2,
    D_WN = D_WN(alpha) + D_WN(beta) in closed form, B1 = mu + min(D_WN(alpha),
    D_WN(beta)), HW = H(W) of the majorization increments, QW the white-noise
    kernel at min(alpha, beta) summed over W padded to length 2d, and
    B2 = QW + D_WN. At alpha = beta = 1, B1 = mu and B2 = HW; at
    min(alpha, beta) = 0, B2 = D_WN. HW, QW and B2 are omitted above
    MAX_MAJORIZATION_DIM. Stacks of bases and noise levels broadcast: floats
    for unstacked input, arrays of the broadcast stack shape otherwise.
    """
    u = _overlaps(basis_a, basis_b)
    d = u.shape[-1]
    d_alpha = device_uncertainty_white_noise(alpha, d)
    d_beta = device_uncertainty_white_noise(beta, d)
    d_wn = d_alpha + d_beta
    # mu through w_1 - 1 = max |U_ij|, the route the pinned sweep outputs use.
    w1 = 1.0 + np.sqrt((np.abs(u) ** 2).max(axis=(-2, -1)))
    mu = _neg_log2((w1 - 1.0) ** 2)
    values = {"mu": mu, "B1": mu + np.minimum(d_alpha, d_beta)}
    if d <= MAX_MAJORIZATION_DIM:
        mv = _majorization(u)
        noisier = np.asarray(np.minimum(alpha, beta))[..., None]
        qw = np.sum(_white_noise_kernel(mv.padded(), noisier, d), axis=-1)
        values.update(HW=shannon_entropy(mv.W), QW=qw, B2=qw + d_wn)
    values["D_WN"] = d_wn
    return {name: float_or_array(v) for name, v in zip(values, np.broadcast_arrays(*values.values()))}


def ad_coles_closed_form(e):
    """Closed form of -log2 C for the damping pair on the d=3 Fourier pair.

    Valid for equal transition probabilities on both measurements. The value
    is log2(3) at e = 0 and 0 at e = 1. Elementwise over an array e.
    """
    e = require_unit_interval(e, "transition probability e")
    inner = (
        2.0 + 2.0 * e - e**2 + 3.0 * e**3 + (1.0 - e) * e * np.sqrt(3.0 * (4.0 + 4.0 * e + 3.0 * e**2))
    ) / 6.0
    return float_or_array(-np.log2(inner) + 0.0)


_B1_NOTE = (
    "B1 convention: the overlap constant is max_{i,j} |<a_i|b_j>|^2 and "
    "B1 = -log2(overlap constant) + min(D_WN(alpha), D_WN(beta))."
)


@dataclass(frozen=True)
class BoundReport:
    """Named bound values for one scenario, plus metadata and notes."""

    values: dict[str, float]
    metadata: dict[str, object] = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {"values": dict(self.values), "metadata": dict(self.metadata), "notes": list(self.notes)}


def _pvm_basis(povm: Povm) -> np.ndarray | None:
    """Rows of effect top-eigenvectors if the POVM is rank-1 projective."""
    w = povm.eigenvalues
    if (
        povm.n_outcomes != povm.dim
        or np.any(np.abs(w[:, -1] - 1.0) > TOL_PROJECTIVE)
        or np.any(w[:, :-1] > TOL_PROJECTIVE)
    ):
        return None
    return povm.eigenvectors[:, :, -1]


def pair_bound_report(a: Povm, b: Povm, rho: DensityMatrix | None = None) -> BoundReport:
    """All applicable bounds for a measurement pair, optionally with a state.

    POVM-level bounds are always included. The basis-family bounds (mu, B1,
    HW, QW, B2, D_WN) are included only when both POVMs are projective, in
    which case they are evaluated at zero noise; above MAX_MAJORIZATION_DIM
    the majorization bounds HW, QW and B2 are omitted and a note says so.
    With a state, the outcome entropies and the device/quantum split are
    added for both measurements.
    """
    values = {
        "krishna_A": krishna_bound(a),
        "krishna_B": krishna_bound(b),
        "minD_A": min_device_uncertainty(a),
        "minD_B": min_device_uncertainty(b),
        "minD_pair": min_pair_device_bound(a, b),
        "coles_C": coles_bound(a, b),
    }
    metadata: dict[str, object] = {"dim": a.dim, "n_A": a.n_outcomes, "n_B": b.n_outcomes}
    notes = []

    basis_a, basis_b = _pvm_basis(a), _pvm_basis(b)
    if basis_a is not None and basis_b is not None:
        notes.append(_B1_NOTE)
        notes.append("basis-family bounds evaluated at zero noise (both POVMs are projective)")
        values.update(basis_pair_bounds(basis_a, 1.0, basis_b, 1.0))
        if a.dim > MAX_MAJORIZATION_DIM:
            notes.append(
                f"HW, QW and B2 omitted: the majorization enumeration is limited to "
                f"d <= {MAX_MAJORIZATION_DIM}, got d={a.dim}"
            )
        metadata["pvm_pair"] = True
    else:
        metadata["pvm_pair"] = False

    if rho is not None:
        values.update(
            H_A=shannon_entropy(outcome_probs(rho, a)),
            H_B=shannon_entropy(outcome_probs(rho, b)),
            D_A=device_uncertainty(rho, a),
            D_B=device_uncertainty(rho, b),
            Q_A=quantum_uncertainty(rho, a),
            Q_B=quantum_uncertainty(rho, b),
        )
        metadata["state"] = True
    return BoundReport(values=values, metadata=metadata, notes=tuple(notes))
