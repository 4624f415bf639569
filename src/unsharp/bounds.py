"""Entropic lower bounds for single measurements and measurement pairs.

Single-measurement bounds: the resolution bound (-log2 of the largest effect
norm) and its improvement, the device uncertainty minimized over all states.
Pair bounds: the effect-sandwich bound -log2 C, ``basis_pair_bounds`` for
two bases (the largest-overlap bound, B1, H(W) / Q(W) / B2 and the total
white-noise device uncertainty), and the minimized pair device uncertainty
with its amplitude-damping closed form. ``majorization_vector`` gives the
read-only pair ``(w, W)`` of two bases that H(W), Q(W) and B2 are built from.
For the white-noise POVMs of two bases, -log2 C also follows from their
overlap matrix alone, which is how the angle sweep takes it.

Every bound except ``pair_bound_report`` broadcasts over leading stack axes
of its POVMs, bases and noise levels, returning a Python float for unstacked
input and an array otherwise.
"""

from __future__ import annotations

import functools
from itertools import combinations
from math import comb

import numpy as np

from .errors import DimensionMismatch
from .linalg import TOL_PROJECTIVE, _frozen, float_or_array, require_orthonormal, require_unit_interval
from .povm import Povm, require_same_dim
from .uncertainty import (
    _expectation,
    _white_noise_kernel,
    device_uncertainty_operator,
    entropy_term,
    outcome_probs,
    shannon_entropy,
)

# The majorization vector takes the largest singular value of every
# submatrix U[R, S] of the d x d overlap matrix with |R| + |S| <= d, using
# ||P_R + P_S|| = 1 + sigma_max(U[R, S]) (principal angles): O(4^d) top
# eigenvalues of Gram matrices of size at most d/2, batched per (|R|, |S|).
# Sizes 1 and 2 are in closed form, size 3 is screened (below) and size 4, at
# d = 8 only, goes to eigvalsh. On one pinned core of a 2-vCPU Xeon VM that is
# about 0.3 ms at d = 6, 0.8-2 ms at d = 7 and 11-13 ms at d = 8 (0.4, 3.5-6
# and 35-37 ms with eigvalsh on every size-3 block); d = 9 would take about
# 90-120 ms, and desk scale ends well before this guard.
MAX_MAJORIZATION_DIM = 8
# Size-3 Gram blocks are screened: every top eigenvalue is first evaluated in
# closed form, and only the blocks within _SCREEN_MARGIN of their class maximum
# are solved again by eigvalsh. The eigenvalues lie in [0, 1 + O(1e-8)]; the
# closed form's error peaks at a double top eigenvalue, where the arccos of the
# cubic's cosine is steepest, so that an error of a few eps in the cosine
# becomes one of order sqrt(eps). Measured, it was at most 9.5e-9 over 210 000
# adversarial Grams (double, triple and near-double tops, rank 1, zero). The
# block of the exact class maximum lies within twice that error of the
# closed-form maximum, so any margin above 2e-8 keeps it; this one leaves a
# factor 50, and the maximum of the exact values is the one eigvalsh on every
# block gives.
_SCREEN_MARGIN = 1e-6
# Each w_k = 1 + sqrt(lambda) carries the roundoff of its Gram sums and of
# eigvalsh, a few eps, so an increment of w whose exact value is 0 comes out as
# an ulp of 2 or so (4.4e-16 on the d = 6 and d = 8 Fourier pairs); W takes
# increments at or below 4 ulps of 2 (1.8e-15) as 0.
_INCREMENT_FLOOR = 4 * np.spacing(2.0)


def _neg_log2(c):
    """-log2 of an overlap constant, capped at 1 and without a negative zero."""
    return float_or_array(-np.log2(np.minimum(c, 1.0)) + 0.0)


def krishna_bound(povm: Povm):
    """-log2 of the largest effect norm: the best resolution scale.

    Vanishes as soon as any effect has norm 1, even if other effects are
    unsharp, which is why the minimized device uncertainty below is the
    stronger state-independent bound.
    """
    return _neg_log2(povm.eigenvalues[..., -1].max(axis=-1))


def _lowest_eigenvalue(m: np.ndarray):
    return float_or_array(np.linalg.eigvalsh(m)[..., 0])


def min_device_uncertainty(povm: Povm):
    """Device uncertainty minimized over all states (lowest eigenvalue)."""
    return _lowest_eigenvalue(device_uncertainty_operator(povm))


def min_pair_device_bound(a: Povm, b: Povm):
    """min over states of the summed device uncertainty of two measurements.

    The objective is linear in the state, so the minimum is the lowest
    eigenvalue of the summed device-uncertainty operators and is attained on
    a pure state.
    """
    require_same_dim(a, b)
    return _lowest_eigenvalue(device_uncertainty_operator(a) + device_uncertainty_operator(b))


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
    """max_i || sum_j W_j C_i W_j || over the effects C_i of core, W_j of wrap.

    The map C -> sum_j W_j C W_j is linear: it is formed once per stack item
    as a (d^2, d^2) matrix and applied to every C_i in one product.
    """
    d = core.dim
    superop = np.einsum("...nij,...nkl->...jkil", wrap.effects, wrap.effects)
    superop = superop.reshape(superop.shape[:-4] + (d * d, d * d))
    s = core.effects.reshape(core.effects.shape[:-2] + (d * d,)) @ superop
    s = s.reshape(s.shape[:-1] + (d, d))
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


def _white_noise_sandwiched_max(v: np.ndarray, core, wrap) -> np.ndarray:
    """``_sandwiched_max`` of white-noise POVMs from their overlap matrices.

    With C_i = core |c_i><c_i| + (1 - core)/d I, W_j = wrap |w_j><w_j| +
    (1 - wrap)/d I and v[..., i, j] = <c_i|w_j> or its conjugate, the matrix
    of sum_j W_j C_i W_j in the w basis is, up to a conjugation that keeps its
    spectrum, wrap^2 core diag_j |v_ij|^2 + core (1 - wrap^2)/d v_i v_i^dagger
    + c I with c = (1 - core)/d (wrap^2 + (1 - wrap^2)/d). The two terms
    before c I are PSD, so the norm is c plus their top eigenvalue.
    """
    d = v.shape[-1]
    core, wrap = core[..., None, None, None], wrap[..., None, None, None]
    # (..., i, j, k): the rank-1 term of row i, then its diagonal term.
    gram = (core * (1.0 - wrap**2) / d) * (v[..., :, :, None] * v.conj()[..., :, None, :])
    diagonal = np.arange(d)
    gram[..., diagonal, diagonal] += (wrap**2 * core)[..., 0] * (v.real**2 + v.imag**2)
    c = (1.0 - core) / d * (wrap**2 + (1.0 - wrap**2) / d)
    return c[..., 0, 0, 0] + _top_gram_eigenvalue(gram[..., None])


def _white_noise_coles(u: np.ndarray, alpha, beta):
    """``coles_bound`` of the white-noise POVMs of two bases at noise levels
    alpha and beta, from their overlap matrices u (..., d, d), without
    forming either POVM. Each side's norm is the top eigenvalue of a d x d
    Gram matrix per effect, closed form at d = 2; alpha and beta, already
    checked, broadcast against the stack."""
    # Both sides in one call, on a new stack axis: A's effects sandwiched by
    # B's, then B's by A's.
    levels = np.empty(np.broadcast(alpha, beta).shape + (2,))
    levels[..., 0], levels[..., 1] = alpha, beta
    sides = _white_noise_sandwiched_max(np.stack((u, u.swapaxes(-1, -2)), axis=-3), levels, levels[..., ::-1])
    return _neg_log2(sides.min(axis=-1))


def _overlaps(basis_a: np.ndarray, basis_b: np.ndarray) -> np.ndarray:
    """Overlap matrices U[..., i, j] = <a_i|b_j> of two (stacks of) bases,
    whose orthonormality the caller has checked or holds by construction."""
    if basis_a.shape[-1] != basis_b.shape[-1]:
        raise DimensionMismatch(f"basis dimensions differ: {basis_a.shape[-1]} vs {basis_b.shape[-1]}")
    return basis_a.conj() @ basis_b.swapaxes(-1, -2)


def majorization_vector(basis_a, basis_b) -> tuple[np.ndarray, np.ndarray]:
    """Majorization coefficients of two bases, by principal angles: the
    read-only pair ``(w, W)``.

    ``w[k-1]`` is the largest operator norm of a sum of k+1 projectors drawn
    from the two bases (any split between them); it grows from at least 1 to
    exactly 2. ``W = (w_1 - 1, w_2 - w_1, ..., w_d - w_{d-1}, 0, ..., 0)`` has
    length 2d - 1, entries >= 0, and sums to 1, so that prepending a 1 yields
    a comparison vector of the same length 2d as a pair of outcome
    distributions. For a stack of basis pairs, ``w`` is (..., d) and ``W``
    is (..., 2d - 1).

    For k = 1..d, w_k maximizes || sum_{i in R} |a_i><a_i| + sum_{j in S}
    |b_j><b_j| || over all index subsets with |R| + |S| = k + 1. For
    nonempty R and S that norm is 1 + sigma_max(U[R, S]), where U[i, j] =
    <a_i|b_j> is the overlap matrix and sigma_max is the cosine of the
    smallest principal angle between the two spans (Bjorck & Golub, Math.
    Comp. 27, 1973). An empty subset gives norm 1, which a nonempty split
    always matches, and when |R| + |S| > d the spans intersect, so w_d = 2
    exactly. sigma_max^2 is the top eigenvalue of the Gram matrix of the
    block's shorter side: a squared Euclidean norm for one row or column, a
    closed form for two, and for three a closed form (the trigonometric
    solution of the characteristic cubic) that screens the blocks, eigvalsh
    then solving only those within _SCREEN_MARGIN of the largest; eigvalsh
    for four (d = 8). When |R| + |S| = d, U[R, S] and U[R^c, S^c] share their
    singular values (CS decomposition; Paige & Wei, Linear Algebra Appl.
    208/209, 1994), so only one block of each such pair is evaluated. The
    cost is O(4^d) eigenvalue problems of size at most d/2, batched per size
    pair (|R|, |S|): on one core about 0.3 ms at d = 6, 1-2 ms at d = 7 and
    11-13 ms at d = 8. Stacks of bases (..., d, d) broadcast and enlarge each
    batch. Increments of w at or below a few ulps of 2, the roundoff of an
    exactly zero one, enter W as 0.
    """
    return _majorization(_overlaps(require_orthonormal(basis_a), require_orthonormal(basis_b)))


def _top_gram_eigenvalue(gram: np.ndarray) -> np.ndarray:
    """Largest top eigenvalue among the Hermitian PSD (..., R, m, m, S) Gram
    matrices of each stack item (m x m along axes -3, -2): (...,)."""
    m = gram.shape[-2]
    if m == 1:
        top = gram[..., 0, 0, :].real
    elif m == 2:
        a, c, b = gram[..., 0, 0, :].real, gram[..., 1, 1, :].real, gram[..., 0, 1, :]
        top = (a + c) / 2.0 + np.sqrt(((a - c) / 2.0) ** 2 + (b.real**2 + b.imag**2))
    elif m == 3:
        return _screened_top(gram)
    else:
        top = np.linalg.eigvalsh(np.moveaxis(gram, -1, -3))[..., -1]
    return top.max(axis=(-2, -1))


def _cubic_top_eigenvalue(gram: np.ndarray) -> np.ndarray:
    """Top eigenvalue of Hermitian (..., 3, 3, n) matrices, (..., n), by the
    trigonometric solution of the characteristic cubic (Smith, Commun. ACM
    4(4), 168, 1961); reads the lower triangle, as eigvalsh does."""
    a, b, c = (gram[..., i, i, :].real for i in range(3))
    x, y, z = gram[..., 1, 0, :], gram[..., 2, 1, :], gram[..., 2, 0, :]
    xx, yy, zz = (v.real**2 + v.imag**2 for v in (x, y, z))
    q = (a + b + c) / 3.0
    a, b, c = a - q, b - q, c - q
    p = np.sqrt((a * a + b * b + c * c + 2.0 * (xx + yy + zz)) / 6.0)
    # det(G - qI) / 2 and its cosine r = det / (2 p^3) in [-1, 1]; p = 0 is a multiple of I.
    half_det = (a * b * c - a * yy - b * zz - c * xx) / 2.0 + ((x * y).conj() * z).real
    p3 = p**3
    r = np.clip(np.divide(half_det, p3, out=np.zeros_like(p3), where=p3 > 0.0), -1.0, 1.0)
    return q + 2.0 * p * np.cos(np.arccos(r) / 3.0)


def _screened_top(gram: np.ndarray) -> np.ndarray:
    """``_top_gram_eigenvalue`` for m = 3: every block in closed form, then
    eigvalsh on only the blocks within _SCREEN_MARGIN of their item's
    closed-form maximum. The result is the largest of those exact values,
    the same number eigvalsh on every block gives."""
    rows, cols = gram.shape[-4], gram.shape[-1]
    closed = _cubic_top_eigenvalue(gram).reshape(-1, rows * cols)
    keep = closed >= closed.max(axis=-1, keepdims=True) - _SCREEN_MARGIN
    item, block = np.nonzero(keep)
    r, s = np.divmod(block, cols)
    exact = np.linalg.eigvalsh(gram.reshape((-1,) + gram.shape[-4:])[item, r, :, :, s])[:, -1]
    # nonzero lists the kept blocks item by item, and every item keeps its maximum.
    starts = np.flatnonzero(np.diff(item, prepend=-1))
    return np.maximum.reduceat(exact, starts).reshape(gram.shape[:-4])


@functools.cache
def _subset_tables(d: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Index subsets of range(d) by size 0..d-1, and their indicator rows.

    ``subsets[l]`` lists the size-l subsets in lexicographic order, so those
    holding index 0 come first; ``indicators[l][n, j]`` is 1 when j is in the
    n-th of them. Both are constant per d and read-only.
    """
    subsets = tuple(_frozen(np.array(list(combinations(range(d), size)), dtype=np.intp)) for size in range(d))
    indicators = tuple(_frozen(np.eye(d)[cols].sum(axis=-2)) for cols in subsets)
    return subsets, indicators


def _majorization(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``majorization_vector`` of the overlap matrices u (..., d, d)."""
    d = u.shape[-1]
    if d > MAX_MAJORIZATION_DIM:
        raise ValueError(f"subset enumeration is limited to d <= {MAX_MAJORIZATION_DIM}, got d={d}")

    subsets, indicators = _subset_tables(d)
    top = np.zeros(u.shape[:-1])
    for m in range(1, d // 2 + 1):
        # Blocks with m rows and l >= m columns come from u, those with l > m
        # rows and m columns from u^T. With m + l = d only the first kind is
        # needed (CS pairing), and at m = l = d/2 > 1 only the row subsets
        # holding index 0, since exactly one of R and R^c holds it. (At d = 2
        # both rows stay, which keeps the qubit sweep values bit-identical.)
        short = subsets[m][: comb(d - 1, m - 1)] if 2 * m == d > 2 else subsets[m]
        for v, longs in ((u, range(m, d + 1 - m)), (u.swapaxes(-1, -2), range(m + 1, d - m))):
            if not longs:
                continue
            rows = v[..., short, :]
            # Per column j, the rank-1 Gram term of the m chosen rows: (..., R, m, m, d).
            if m == 1:
                per_column = np.abs(rows[..., None, :]) ** 2
            else:
                per_column = rows[..., :, None, :] * rows.conj()[..., None, :, :]
            flat = per_column.reshape(-1, d)  # one matrix product per class, not one per stack item
            for l in longs:
                # The Gram matrix of every U[R, S] with |S| = l: (..., R, m, m, S).
                gram = (flat @ indicators[l].T).reshape(per_column.shape[:-1] + (len(indicators[l]),))
                sigma = np.sqrt(_top_gram_eigenvalue(gram))
                k = m + l - 1
                top[..., k - 1] = np.maximum(top[..., k - 1], sigma)
    top[..., d - 1] = 1.0
    # w is at most 2, but rows orthonormal only to a validation tolerance eps
    # give sigma_max = 1 + eps on a block [[1, eps], [eps*, 1]] of two shared
    # vectors; the drops back to 2 would enter W as zeros and leave it summing
    # to 1 + O(eps), past TOL_PROB_SUM. Capped, W sums to 1 at any accepted input.
    w = 1.0 + np.minimum(top, 1.0)

    increments = np.diff(w, axis=-1, prepend=1.0)
    increments[increments <= _INCREMENT_FLOOR] = 0.0
    big_w = np.concatenate([increments, np.zeros(w.shape[:-1] + (d - 1,))], axis=-1)
    return _frozen(w), _frozen(big_w)


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
    u = _overlaps(require_orthonormal(basis_a), require_orthonormal(basis_b))
    d = u.shape[-1]
    d_alpha = device_uncertainty_white_noise(alpha, d)
    d_beta = device_uncertainty_white_noise(beta, d)
    return _pair_bounds(u, d_alpha, d_beta, np.minimum(alpha, beta))


def _pair_bounds(u: np.ndarray, d_alpha, d_beta, noisier) -> dict:
    """``basis_pair_bounds`` from the overlap matrices u (..., d, d), the
    white-noise device uncertainties D_WN(alpha) and D_WN(beta), and
    min(alpha, beta), all already checked."""
    d = u.shape[-1]
    d_wn = d_alpha + d_beta
    # mu through w_1 - 1 = max |U_ij|, the route the pinned sweep outputs use.
    w1 = 1.0 + np.sqrt((np.abs(u) ** 2).max(axis=(-2, -1)))
    mu = _neg_log2((w1 - 1.0) ** 2)
    values = {"mu": mu, "B1": mu + np.minimum(d_alpha, d_beta)}
    if d <= MAX_MAJORIZATION_DIM:
        big_w = _majorization(u)[1]
        # Q(W) sums the kernel over W padded with one zero to length 2d.
        padded = np.concatenate([big_w, np.zeros(big_w.shape[:-1] + (1,))], axis=-1)
        qw = np.sum(_white_noise_kernel(padded, np.asarray(noisier)[..., None], d), axis=-1)
        values.update(HW=entropy_term(big_w).sum(axis=-1), QW=qw, B2=qw + d_wn)
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


def pair_bound_report(a: Povm, b: Povm, rho=None) -> dict:
    """All applicable bounds for a measurement pair, optionally with a state,
    as the plain ``{"values", "metadata", "notes"}`` dict that ``unsharp
    bounds`` prints as JSON.

    POVM-level bounds are always included. The basis-family bounds (mu, B1,
    HW, QW, B2, D_WN) are included only when both POVMs are projective, in
    which case they are evaluated at zero noise; above MAX_MAJORIZATION_DIM
    the majorization bounds HW, QW and B2 are omitted and a note says so.
    With a state, the outcome entropies and the device/quantum split are
    added for both measurements.

    Each POVM's device-uncertainty operator and outcome distribution is
    formed once and read by every value that needs it. One pair per call: a
    stack of POVMs or of states raises ValueError.
    """
    for name, povm in (("A", a), ("B", b)):
        if povm.effects.ndim != 3:
            raise ValueError(f"one pair per call: POVM {name} is a stack of shape {povm.effects.shape[:-3]}")
    if rho is not None and np.ndim(rho) != 2:
        raise ValueError(f"one state per call: expected a (d, d) state, got shape {np.shape(rho)}")
    require_same_dim(a, b)
    m_a, m_b = device_uncertainty_operator(a), device_uncertainty_operator(b)
    values = {
        "krishna_A": krishna_bound(a),
        "krishna_B": krishna_bound(b),
        "minD_A": _lowest_eigenvalue(m_a),
        "minD_B": _lowest_eigenvalue(m_b),
        "minD_pair": _lowest_eigenvalue(m_a + m_b),
        "coles_C": coles_bound(a, b),
    }
    metadata: dict[str, object] = {"dim": a.dim, "n_A": a.n_outcomes, "n_B": b.n_outcomes}
    notes = []

    basis_a, basis_b = _pvm_basis(a), _pvm_basis(b)
    if basis_a is not None and basis_b is not None:
        notes.append(_B1_NOTE)
        notes.append("basis-family bounds evaluated at zero noise (both POVMs are projective)")
        # The eigenvector rows of a validated projective POVM are a basis to
        # within about d times its completeness tolerance, which need not
        # meet basis_tol(d), so they are not checked again. At zero noise
        # both D_WN vanish and min(alpha, beta) is 1.
        values.update(_pair_bounds(_overlaps(basis_a, basis_b), 0.0, 0.0, 1.0))
        if a.dim > MAX_MAJORIZATION_DIM:
            notes.append(
                f"HW, QW and B2 omitted: the majorization enumeration is limited to "
                f"d <= {MAX_MAJORIZATION_DIM}, got d={a.dim}"
            )
        metadata["pvm_pair"] = True
    else:
        metadata["pvm_pair"] = False

    if rho is not None:
        p_a, p_b = outcome_probs(rho, a), outcome_probs(rho, b)
        state = np.asarray(rho, dtype=complex)
        h_a, h_b = shannon_entropy(p_a), shannon_entropy(p_b)
        d_a, d_b = _expectation(state, m_a), _expectation(state, m_b)
        values.update(H_A=h_a, H_B=h_b, D_A=d_a, D_B=d_b, Q_A=h_a - d_a, Q_B=h_b - d_b)
        metadata["state"] = True
    return {"values": values, "metadata": metadata, "notes": notes}
