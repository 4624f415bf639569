"""Dense linear algebra for small Hermitian operators and quantum states."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NotFinite,
    NotHermitian,
    NotNormalized,
    NotOrthonormal,
    NotPositive,
    TraceNotOne,
)

# Double-precision dense eigensolvers on dim <= 8 matrices stay well inside
# these tolerances.
TOL_HERMITIAN = 1e-10
TOL_PSD = 1e-10
TOL_TRACE = 1e-10
TOL_ORTHONORMAL = 1e-8
TOL_RECONSTRUCT = 1e-8
# Sum slack of a probability vector given to shannon_entropy.
TOL_PROB_SUM = 1e-8
# Largest eigenvalue deviation from 0 or 1 of a rank-1 projective effect.
TOL_PROJECTIVE = 1e-9
# Slack of the Bloch constraint of QubitPovmParams and of a theta grid over pi.
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


def require_hermitian(m) -> np.ndarray:
    """Return m as a complex array, raising NotHermitian beyond TOL_HERMITIAN.

    m is one (d, d) matrix or a stack (..., d, d); for a stack the error names
    the first matrix, in C order, whose defect exceeds it.
    """
    m = _as_square_matrix(m)
    defect = abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    bad = defect > TOL_HERMITIAN
    if bad.any():
        index = first_index(bad)
        raise NotHermitian(f"{item_prefix('matrix', index)}max |m - m^dagger| entry is {defect[index]:.3e} > {TOL_HERMITIAN:.1e}")
    return m


def require_unit_vector(v) -> np.ndarray:
    """Return v as a complex 1-D array, raising NotNormalized beyond TOL_ORTHONORMAL."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= TOL_ORTHONORMAL:
        raise NotNormalized(f"vector norm is {norm:.12f}, expected 1 within {TOL_ORTHONORMAL:.1e}")
    return v


def require_orthonormal(basis) -> np.ndarray:
    """Check that the rows of basis form a complete orthonormal set.

    Returns the basis as a (..., d, d) complex array whose rows are the
    vectors; for a stack of bases the error names the first bad one.
    """
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim < 2 or basis.shape[-1] != basis.shape[-2]:
        raise ValueError(f"expected d vectors of length d, got shape {basis.shape}")
    gram = basis.conj() @ basis.swapaxes(-1, -2)
    defect = abs(gram - np.eye(basis.shape[-1])).max(axis=(-2, -1))
    ok = defect <= TOL_ORTHONORMAL
    if not ok.all():
        index = first_index(~ok)
        raise NotOrthonormal(
            f"{item_prefix('basis', index)}max Gram-matrix deviation from identity is {defect[index]:.3e} > {TOL_ORTHONORMAL:.1e}"
        )
    return basis


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace positive semidefinite operator wrapping a (d, d) array.

    A (..., d, d) array wraps a stack of states; every function that takes a
    state broadcasts its leading axes. Construct untrusted input through
    :func:`validate_density`, which checks Hermiticity, positivity and trace
    before wrapping.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(_as_square_matrix(self.matrix)))

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    def __array__(self, dtype=None, copy=None):
        arr = self.matrix
        if dtype is not None:
            arr = arr.astype(dtype)
        if copy:
            arr = arr.copy()
        return arr


def validate_density(m) -> DensityMatrix:
    """Check finiteness, Hermiticity, positivity and unit trace, then wrap.

    m is one (d, d) matrix or a stack (..., d, d). Raises NotFinite,
    NotHermitian, NotPositive or TraceNotOne naming the violated invariant
    together with the measured violation; for a stack the message names the
    first failing matrix in C order.
    """
    m = require_hermitian(require_finite(_as_square_matrix(m), "density matrix"))
    lowest = np.linalg.eigvalsh(m)[..., 0]
    bad = lowest < -TOL_PSD
    if bad.any():
        index = first_index(bad)
        raise NotPositive(f"{item_prefix('matrix', index)}lowest eigenvalue is {lowest[index]:.3e} < -{TOL_PSD:.1e}")
    trace = np.trace(m, axis1=-2, axis2=-1)
    bad = abs(trace - 1.0) > TOL_TRACE
    if bad.any():
        index = first_index(bad)
        raise TraceNotOne(
            f"{item_prefix('matrix', index)}trace is {trace[index].real:.12f}, expected 1 within {TOL_TRACE:.1e}"
        )
    return DensityMatrix(m)


def pure_state_density(psi) -> DensityMatrix:
    """|psi><psi| for a unit vector psi."""
    psi = require_unit_vector(psi)
    return DensityMatrix(np.outer(psi, psi.conj()))
