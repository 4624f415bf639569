"""Dense linear algebra for small Hermitian operators and quantum states."""

from __future__ import annotations

import numpy as np

from .errors import (
    NotFinite,
    NotHermitian,
    NotOrthonormal,
    NotPositive,
    TraceNotOne,
)

# The tolerance policy, stated once. Each input kind has one check, with
# these input tolerances; nothing derived from a checked input is checked
# again at a tighter one. Double-precision dense eigensolvers on dim <= 8
# matrices stay well inside them.
#   TOL_HERMITIAN    max entrywise |m - m^dagger| of a state or an effect
#   TOL_PSD          state eigenvalues >= -TOL_PSD; effect ones in [-TOL_PSD, 1 + TOL_PSD]
#   TOL_TRACE        |Tr rho - 1| of a state, also of |psi><psi| for a vector psi
#   TOL_RECONSTRUCT  max entrywise |sum_i A_i - I| of a POVM
#   TOL_PROB_SUM     |sum_i p_i - 1| of a distribution given to shannon_entropy
# States go through validate_density or pure_state_density, POVMs through
# Povm. A basis (require_orthonormal) and the outcome probabilities of a
# checked state and POVM take tolerances derived from the ones above, so
# that whatever one step accepts the next accepts: basis_tol(d) and
# prob_tol(d), each derived in its docstring.
TOL_HERMITIAN = 1e-10
TOL_PSD = 1e-10
TOL_TRACE = 1e-10
TOL_RECONSTRUCT = 1e-8
TOL_PROB_SUM = 1e-8
# A classifier, not a check: an effect counts as a rank-1 projector when its
# eigenvalues lie within TOL_PROJECTIVE of 0 or 1.
TOL_PROJECTIVE = 1e-9
# None of the thresholds below validate input. Parameter slacks: the Bloch
# constraint of QubitPovmParams and a theta grid over pi.
TOL_BLOCH = 1e-12
TOL_ANGLE = 1e-12
# Suite slacks: inequalities and majorization sums; the mixture and dual-map
# identities; white-noise state independence against the closed form.
TOL_SUITE = 1e-9
TOL_SUITE_IDENTITY = 1e-12
TOL_SUITE_CLOSED_FORM = 1e-10
# Random draws below these are redrawn: a state vector's norm; a basis's
# |R_ii| and a POVM's smallest over largest effect-sum eigenvalue.
TOL_DRAW_NORM = 1e-12
TOL_DRAW_RANK = 1e-10


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _as_square_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    return m


def float_or_array(x):
    """A Python float for a 0-d result, the array itself otherwise.

    Unbatched calls of the public functions return Python floats, so JSON and
    CSV output is the same as for scalar code; batched calls return arrays.
    """
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def require_unit_interval(x, name: str) -> np.ndarray:
    """Return x as a float array, raising ValueError unless every entry lies in [0, 1]; NaN fails."""
    a = np.asarray(x, dtype=float)
    if a.size and not (a.min() >= 0.0 and a.max() <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {x}")
    return a


def first_index(mask: np.ndarray) -> tuple[int, ...]:
    """Multi-index of the first True entry of mask in C order (mask.any() holds)."""
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(mask)), mask.shape))


def item_prefix(kind: str, index: tuple[int, ...]) -> str:
    """Message prefix naming a stack element: "" unstacked, "kind 3: ", "kind (1, 2): "."""
    if not index:
        return ""
    return f"{kind} {index[0] if len(index) == 1 else index}: "


def require_finite(a, what: str, core_ndim: int = 2) -> np.ndarray:
    """Return a unchanged, raising NotFinite if any entry is NaN or infinite.

    The last core_ndim axes of a form one item and the leading axes index a
    stack of them; for a stack the error names the first bad item in C order.
    Every tolerance check compares with < or >, which NaN always fails, so
    finiteness is checked first.
    """
    finite = np.isfinite(a)
    if not finite.all():
        index = first_index(~finite.all(axis=tuple(range(-core_ndim, 0))))
        raise NotFinite(f"{item_prefix('item', index)}{what} has a NaN or infinite entry")
    return a


def prob_tol(d: int) -> float:
    """Slack of the outcome probabilities of a validated state and POVM.

    Validation passes both with entrywise Hermiticity defects up to
    TOL_HERMITIAN and eigenvalues down to -TOL_PSD (effects also up to
    1 + TOL_PSD); the state has a trace within TOL_TRACE of 1 and the effects
    an entrywise completeness residual up to TOL_RECONSTRUCT. Their Hermitian
    parts are then positive to within e = TOL_PSD + d * TOL_HERMITIAN, and
    the state has trace norm at most t = 1 + TOL_TRACE + 2 d e. So each
    Tr[rho A] lies within TOL_TRACE + (d + 1) e t of [0, 1], and the
    probabilities sum to within TOL_TRACE + d * TOL_RECONSTRUCT * t of 1.
    Twice the larger bound covers both, plus rounding.
    """
    e = TOL_PSD + d * TOL_HERMITIAN
    trace_norm = 1.0 + TOL_TRACE + 2.0 * d * e
    return 2.0 * (TOL_TRACE + trace_norm * max((d + 1) * e, d * TOL_RECONSTRUCT))


def basis_tol(d: int) -> float:
    """Largest Gram defect max |G - I| that ``require_orthonormal`` accepts.

    A Gram defect t bounds ||G - I||_2 by d * t. A sum of the projectors
    onto some of the rows has the nonzero eigenvalues of the matching
    principal submatrix of G, so its eigenvalues lie within d * t of [0, 1],
    and the sum of all d of them has completeness residual at most d * t.
    With d * t = TOL_PSD / 2, the projective, white-noise and
    amplitude-damping POVMs of an accepted basis pass ``Povm``, whose
    bounds are TOL_PSD and TOL_RECONSTRUCT >= TOL_PSD; the factor 2 leaves
    room for rounding.
    """
    return TOL_PSD / (2.0 * d)


def require_hermitian(m) -> np.ndarray:
    """Return m as a complex array, raising NotHermitian beyond TOL_HERMITIAN.

    m is one (d, d) matrix or a stack (..., d, d); for a stack the error names
    the first matrix, in C order, whose defect exceeds it.
    """
    m = _as_square_matrix(m)
    # Entries near the float maximum may overflow the difference to inf,
    # which fails the check as it should.
    with np.errstate(over="ignore"):
        defect = abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    bad = defect > TOL_HERMITIAN
    if bad.any():
        index = first_index(bad)
        raise NotHermitian(f"{item_prefix('matrix', index)}max |m - m^dagger| entry is {defect[index]:.3e} > {TOL_HERMITIAN:.1e}")
    return m


def require_orthonormal(basis) -> np.ndarray:
    """Check that the rows of basis form a complete orthonormal set.

    Returns the basis as a (..., d, d) complex array whose rows are the
    vectors; for a stack of bases the error names the first bad one.
    """
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim < 2 or basis.shape[-1] != basis.shape[-2]:
        raise ValueError(f"expected d vectors of length d, got shape {basis.shape}")
    d = basis.shape[-1]
    gram = basis.conj() @ basis.swapaxes(-1, -2)
    defect = abs(gram - np.eye(d)).max(axis=(-2, -1))
    ok = defect <= basis_tol(d)
    if not ok.all():
        index = first_index(~ok)
        raise NotOrthonormal(
            f"{item_prefix('basis', index)}max Gram-matrix deviation from identity is {defect[index]:.3e} > {basis_tol(d):.1e}"
        )
    return basis


def validate_density(m) -> np.ndarray:
    """Check finiteness, Hermiticity, positivity and unit trace.

    m is one (d, d) matrix or a stack (..., d, d). A state is that complex
    array, returned read-only; every function that takes a state broadcasts
    its leading axes. Raises NotFinite, NotHermitian, NotPositive or
    TraceNotOne naming the violated invariant together with the measured
    violation; for a stack the message names the first failing matrix in C
    order.
    """
    given = m
    m = require_hermitian(require_finite(_as_square_matrix(m), "density matrix"))
    lowest = np.linalg.eigvalsh(m)[..., 0]
    bad = lowest < -TOL_PSD
    if bad.any():
        index = first_index(bad)
        raise NotPositive(f"{item_prefix('matrix', index)}lowest eigenvalue is {lowest[index]:.3e} < -{TOL_PSD:.1e}")
    with np.errstate(over="ignore"):
        trace = np.trace(m, axis1=-2, axis2=-1)
    require_unit_trace(trace)
    # Freezing the caller's own array would make it read-only for the caller too.
    return _frozen(m.copy() if m is given else m)


def require_unit_trace(trace) -> None:
    """Raise TraceNotOne unless every trace lies within TOL_TRACE of 1.

    trace is a scalar or an array over a stack of states; for a stack the
    error names the first bad one. A trace that overflowed to inf fails.
    """
    trace = np.asarray(trace)
    bad = abs(trace - 1.0) > TOL_TRACE
    if bad.any():
        index = first_index(bad)
        raise TraceNotOne(
            f"{item_prefix('matrix', index)}trace is {trace[index].real:.12f}, expected 1 within {TOL_TRACE:.1e}"
        )


def pure_state_density(psi) -> np.ndarray:
    """|psi><psi| for a vector psi, as a read-only (d, d) array.

    The one check of a pure state: every entry finite (NotFinite), then the
    trace |psi|^2 within TOL_TRACE of 1 (TraceNotOne), summed as
    ``validate_density`` sums it, so every state returned passes that too.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise ValueError(f"expected a vector, got shape {psi.shape}")
    require_finite(psi, "density matrix", core_ndim=1)
    # An entry whose square overflows makes the trace infinite, which fails.
    with np.errstate(over="ignore", invalid="ignore"):
        rho = np.outer(psi, psi.conj())
        require_unit_trace(np.trace(rho))
    return _frozen(rho)
