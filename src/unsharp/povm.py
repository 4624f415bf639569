"""POVM construction and validation, including noise-model families.

A POVM is an ordered list of positive effects summing to identity. Outcome
labels are list indices; effect order is significant and preserved. Effects
that are exactly zero (produced by extreme noise parameters) are retained:
they carry outcome probability 0 and contribute nothing to any entropy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CompletenessViolated,
    DimensionMismatch,
    EigenvalueAboveOne,
    NotPositive,
    ValidationError,
)
from .linalg import (
    TOL_BLOCH,
    TOL_PSD,
    TOL_RECONSTRUCT,
    _frozen,
    first_index,
    float_or_array,
    item_prefix,
    require_finite,
    require_hermitian,
    require_orthonormal,
    require_unit_interval,
)

PAULI_X = _frozen(np.array([[0, 1], [1, 0]], dtype=complex))
PAULI_Y = _frozen(np.array([[0, -1j], [1j, 0]], dtype=complex))
PAULI_Z = _frozen(np.array([[1, 0], [0, -1]], dtype=complex))


@dataclass(frozen=True)
class Povm:
    """Validated POVM, or stack of POVMs, with the eigendecomposition of every effect.

    All three arrays are read-only. ``effects`` has shape (..., n, d, d): the
    leading axes index a stack of POVMs that every function taking a POVM
    broadcasts, and are absent for a single POVM. ``eigenvalues`` has shape
    (..., n, d): row i holds the eigenvalues of ``effects[..., i, :, :]`` in
    ascending order, clamped into [0, 1] after the positivity check (entropy
    weights are undefined off that interval). ``eigenvectors`` has shape
    (..., n, d, d): column k of ``eigenvectors[..., i, :, :]`` is the unit
    eigenvector of ``eigenvalues[..., i, k]``. Within a degenerate eigenspace
    any orthonormal basis may appear; every quantity built from the
    decomposition is independent of that choice. Validation runs on every
    POVM of a stack and names the first failing one in C order.
    """

    effects: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)
    eigenvectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        try:
            effects = np.asarray(self.effects, dtype=complex)
        except (OverflowError, TypeError, ValueError) as exc:  # ragged, non-numeric or too large for a float
            raise ValidationError(f"effects must form a numeric (..., n, d, d) array: {exc}") from None
        if effects.ndim < 3 or effects.shape[-1] != effects.shape[-2]:
            raise ValidationError(f"expected an (..., n, d, d) effect array, got shape {effects.shape}")
        if effects.shape[-3] == 0:
            raise ValidationError("a POVM needs at least one effect")
        effects = require_hermitian(require_finite(effects, "POVM effect array", core_ndim=3))
        eigenvalues, eigenvectors = np.linalg.eigh(effects)
        low, high = eigenvalues[..., 0], eigenvalues[..., -1]
        bad = (low < -TOL_PSD) | (high > 1.0 + TOL_PSD)
        if bad.any():
            i = first_index(bad)
            if low[i] < -TOL_PSD:
                raise NotPositive(f"{item_prefix('effect', i)}lowest eigenvalue {low[i]:.3e} < -{TOL_PSD:.1e}")
            raise EigenvalueAboveOne(f"{item_prefix('effect', i)}largest eigenvalue {high[i]:.12f} > 1")
        residual = _completeness_residual(effects)
        bad = residual > TOL_RECONSTRUCT
        if bad.any():
            i = first_index(bad)
            raise CompletenessViolated(
                f"{item_prefix('POVM', i)}effects sum to identity with max residual {residual[i]:.3e} > {TOL_RECONSTRUCT:.1e}"
            )
        # Freezing the caller's own array would make it read-only for the caller too.
        object.__setattr__(self, "effects", _frozen(effects.copy() if effects is self.effects else effects))
        object.__setattr__(self, "eigenvalues", _frozen(np.clip(eigenvalues, 0.0, 1.0)))
        object.__setattr__(self, "eigenvectors", _frozen(eigenvectors))

    @property
    def dim(self) -> int:
        return self.effects.shape[-1]

    @property
    def n_outcomes(self) -> int:
        return self.effects.shape[-3]

    def completeness_residual(self):
        """Max entrywise deviation of the effect sum from identity, per POVM.

        A float for a single POVM, an array of the stack's shape otherwise.
        """
        return float_or_array(_completeness_residual(self.effects))


def require_same_dim(a: Povm, b: Povm) -> None:
    """Raise DimensionMismatch unless a and b act on the same Hilbert space."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"POVM dimensions differ: {a.dim} vs {b.dim}")


def _completeness_residual(effects: np.ndarray) -> np.ndarray:
    """max |sum_i A_i - I| entry of (..., n, d, d) effects, shape (...)."""
    d = effects.shape[-1]
    return abs(effects.sum(axis=-3) - np.eye(d)).max(axis=(-2, -1))


def make_povm(effects) -> Povm:
    """Validate a sequence of effect matrices and decompose them."""
    return Povm(list(effects))


def _projectors(basis: np.ndarray) -> np.ndarray:
    """|a_i><a_i| for the rows of a (..., d, d) basis, shape (..., d, d, d)."""
    return np.einsum("...ni,...nj->...nij", basis, basis.conj())


def _others_then_own(d: int) -> np.ndarray:
    """Row i lists the basis rows other than i, then i: the eigenvector order
    of effect i when its own row carries the largest eigenvalue."""
    return (np.arange(d)[:, None] + np.arange(1, d + 1)) % d


# Eigenvector rows of the amplitude-damping effects E_0, E_1, E_2 (below),
# ordered by ascending eigenvalue: (e, e, 1), (0, 0, 1 - e), (0, 0, 1 - e).
_DAMPING_ORDER = _frozen(np.array([[1, 2, 0], [0, 2, 1], [0, 1, 2]]))


def _stated(effects: np.ndarray, eigenvalues: np.ndarray, basis: np.ndarray, order: np.ndarray) -> Povm:
    """The Povm of effects diagonal in the rows of a checked basis, its
    eigendecomposition stated instead of computed.

    Column k of eigenvector block i is row ``order[i, k]`` of the basis and
    ``eigenvalues[..., i, k]`` (ascending in k, within [0, 1]) its eigenvalue.
    The builders below reach here only with a basis that
    ``require_orthonormal`` accepted and noise levels in [0, 1], and
    ``basis_tol`` shows that ``Povm`` accepts every such output, so its checks
    and ``eigh`` are skipped. For a basis orthonormal only to within
    ``basis_tol(d)`` the stated spectrum is off by at most d times that.
    """
    povm = object.__new__(Povm)
    d = basis.shape[-1]
    # vectors[..., i, j, k] = basis[..., order[i, k], j], gathered in one contiguous copy.
    flat = order[:, None, :] * d + np.arange(d)[:, None]
    vectors = np.take(basis.reshape(basis.shape[:-2] + (d * d,)), flat, axis=-1)
    object.__setattr__(povm, "effects", _frozen(effects))
    object.__setattr__(povm, "eigenvalues", _frozen(np.broadcast_to(eigenvalues, effects.shape[:-1])))
    object.__setattr__(povm, "eigenvectors", _frozen(np.broadcast_to(vectors, effects.shape)))
    return povm


def _rows(povm: Povm, index) -> Povm:
    """The POVMs ``index`` picks along the first stack axis of a validated
    stack, as one read-only stack.

    The rows of a stack that ``Povm`` accepted pass its checks, and their
    decompositions are rows of the stack's, so like ``_stated`` this runs no
    validation and no ``eigh``.
    """
    rows = object.__new__(Povm)
    for name in ("effects", "eigenvalues", "eigenvectors"):
        object.__setattr__(rows, name, _frozen(getattr(povm, name)[index]))
    return rows


def projective_from_basis(basis) -> Povm:
    """Rank-1 projector POVM |a_i><a_i| in basis order (a sharp measurement).

    A (..., d, d) stack of bases gives a stack of POVMs. The spectrum of
    each effect is stated, not computed: 1 on its own row, 0 on the others.
    """
    basis = require_orthonormal(basis)
    d = basis.shape[-1]
    spectrum = np.zeros(d)
    spectrum[-1] = 1.0
    return _stated(_projectors(basis), spectrum, basis, _others_then_own(d))


@dataclass(frozen=True)
class QubitPovmParams:
    """Bloch parameterization of a two-outcome qubit measurement.

    The "up" effect is (a0 * I + a_vec . sigma) / 2 and the "down" effect is
    its complement. Positivity of both requires |a_vec| <= a0 <= 2 - |a_vec|.
    """

    a0: float
    a_vec: np.ndarray

    def __post_init__(self):
        a_vec = np.asarray(self.a_vec, dtype=float)
        if a_vec.shape != (3,):
            raise ValueError(f"a_vec must be a 3-vector, got shape {a_vec.shape}")
        object.__setattr__(self, "a_vec", _frozen(a_vec))
        r = self.bloch_norm
        if not (r - TOL_BLOCH <= self.a0 <= 2.0 - r + TOL_BLOCH):
            raise ValueError(
                f"need |a_vec| <= a0 <= 2 - |a_vec|, got a0={self.a0}, |a_vec|={r}"
            )

    @property
    def bloch_norm(self) -> float:
        return float(np.linalg.norm(self.a_vec))

    def conditional_prob_up(self, sign: int) -> float:
        """p(up | +-): probability of outcome "up" on the +-|a_vec| eigenstate."""
        return (self.a0 + sign * self.bloch_norm) / 2.0


def qubit_povm(params: QubitPovmParams) -> Povm:
    """Two-outcome qubit POVM from Bloch parameters.

    The effect eigenvectors are the eigenstates of a_vec . sigma and the
    eigenvalues are the conditional outcome probabilities (a0 +- |a_vec|) / 2
    and their complements.
    """
    a0, a_vec = params.a0, params.a_vec
    up = (a0 * np.eye(2) + a_vec[0] * PAULI_X + a_vec[1] * PAULI_Y + a_vec[2] * PAULI_Z) / 2.0
    return Povm(np.stack([up, np.eye(2) - up]))


def white_noise_povm(basis, alpha) -> Povm:
    """Sharp basis measurement mixed with white noise.

    Each effect is alpha |a_i><a_i| + (1 - alpha) I / d, so its spectrum is
    alpha + (1 - alpha) / d once and (1 - alpha) / d with multiplicity d - 1.
    That spectrum is stated, with the basis rows as eigenvectors, not computed.

    Parameters
    ----------
    basis : (..., d, d) array
        Rows are the orthonormal measurement directions.
    alpha : float or (...) array
        Mixedness parameter in [0, 1]; 1 is sharp, 0 is pure noise. Its
        shape broadcasts against the leading axes of basis, and the result
        is a stack of POVMs of the broadcast shape.
    """
    basis = require_orthonormal(basis)
    alpha = require_unit_interval(alpha, "alpha")
    d = basis.shape[-1]
    a = alpha[..., None, None, None]
    effects = a * _projectors(basis) + (1.0 - a) * np.eye(d) / d
    noise = (1.0 - alpha) / d
    spectrum = np.repeat(noise[..., None], d, axis=-1)
    spectrum[..., -1] += alpha
    return _stated(effects, spectrum[..., None, :], basis, _others_then_own(d))


def amplitude_damping_povm(basis, e) -> Povm:
    """Three-outcome measurement with amplitude-damping noise on a d=3 basis.

    Population leaks from the two excited outcomes into the ground outcome
    with transition probability e:

        E_0 = |x_0><x_0| + e |x_1><x_1| + e |x_2><x_2|
        E_1 = (1 - e) |x_1><x_1|
        E_2 = (1 - e) |x_2><x_2|

    Completeness holds exactly for every e in [0, 1]. A (..., 3, 3) stack of
    bases and an array e broadcast like ``white_noise_povm``. The spectra,
    (e, e, 1), (0, 0, 1 - e) and (0, 0, 1 - e) on the basis rows, are stated,
    not computed.
    """
    basis = require_orthonormal(basis)
    if basis.shape[-1] != 3:
        raise DimensionMismatch(f"amplitude damping model needs a d=3 basis, got d={basis.shape[-1]}")
    e = require_unit_interval(e, "transition probability e")
    x = e[..., None, None]
    p = _projectors(basis)
    ground, first, second = p[..., 0, :, :], p[..., 1, :, :], p[..., 2, :, :]
    effects = np.stack([ground + x * first + x * second, (1.0 - x) * first, (1.0 - x) * second], axis=-3)
    spectrum = np.zeros(e.shape + (3, 3))
    spectrum[..., 0, :2] = e[..., None]
    spectrum[..., 0, 2] = 1.0
    spectrum[..., 1:, 2] = (1.0 - e)[..., None]
    return _stated(effects, spectrum, basis, _DAMPING_ORDER)


def convex_combination(a: Povm, b: Povm, p) -> Povm:
    """Coin-flip mixture of two POVMs: effects {p A_1..A_n, (1-p) B_1..B_m}.

    The stack shapes of a and b and the shape of p broadcast together.
    """
    require_same_dim(a, b)
    q = require_unit_interval(p, "mixing probability")[..., None, None, None]
    parts = (q * a.effects, (1.0 - q) * b.effects)
    batch = np.broadcast_shapes(*(part.shape[:-3] for part in parts))
    return Povm(np.concatenate([np.broadcast_to(part, batch + part.shape[-3:]) for part in parts], axis=-3))


def mub_fourier_basis(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Computational basis and its discrete Fourier transform.

    The pair is mutually unbiased: every cross overlap |<x_i|z_j>|^2 is 1/d.
    """
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    fourier = np.exp(2j * np.pi * j * k / dim) / np.sqrt(dim)
    return np.eye(dim, dtype=complex), fourier
