"""Seeded random states, bases and POVMs, plus a sampling-based minimizer.

Every generator accepts either an integer seed or a ``numpy.random.Generator``
so independent streams can be derived per trial. A fixed seed reproduces the
same draws within a build; downstream floats are compared with tolerances,
not bit-identity.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateDraw
from .linalg import TOL_DRAW_NORM, TOL_DRAW_RANK, DensityMatrix
from .povm import Povm

_MAX_RETRIES = 100


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _draw(size, draw, what: str) -> np.ndarray:
    """A stack of draws of the given size; one draw without stack axes when size is None.

    ``draw(k)`` returns k candidates stacked on axis 0 and a length-k mask of
    the usable ones. Each unusable candidate is drawn again on its own, up to
    _MAX_RETRIES draws in all, before DegenerateDraw is raised.
    """
    shape = _shape(size)
    items, ok = draw(math.prod(shape))
    for _ in range(_MAX_RETRIES - 1):
        if ok.all():
            break
        bad = np.flatnonzero(~ok)
        items[bad], ok[bad] = draw(bad.size)
    if not ok.all():
        raise DegenerateDraw(f"no usable {what} in {_MAX_RETRIES} draws")
    return items.reshape(shape + items.shape[1:])


def _shape(size) -> tuple[int, ...]:
    """Stack shape of a ``size`` argument: () for None, (k,) for an int k."""
    if size is None:
        return ()
    return (int(size),) if np.ndim(size) == 0 else tuple(int(k) for k in size)


def _complex_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_state_vector(d: int, seed, size=None) -> np.ndarray:
    """Unit vector from a rotation-invariant distribution (complex Gaussians).

    ``size`` works as in ``numpy.random.Generator``: None gives one (d,)
    vector, an int or tuple a (*size, d) stack of independent vectors.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    rng = _rng(seed)

    def draw(k):
        z = _complex_normal(rng, (k, d))
        norm = np.sqrt((z.real**2 + z.imag**2).sum(axis=-1))
        usable = norm > TOL_DRAW_NORM
        # Unusable rows are drawn again, so only a division by zero is avoided.
        return z / np.maximum(norm, TOL_DRAW_NORM)[:, None], usable

    return _draw(size, draw, "state vector")


def random_pure_state(d: int, seed, size=None) -> DensityMatrix:
    """|psi><psi| for a rotation-invariant random unit vector psi.

    With ``size`` the DensityMatrix holds a (*size, d, d) stack of states.
    """
    psi = random_state_vector(d, seed, size)
    return DensityMatrix(np.einsum("...i,...j->...ij", psi, psi.conj()))


def random_mixed_state(d: int, seed, size=None) -> DensityMatrix:
    """Mixture of d random pure states with flat random simplex weights.

    With ``size`` the DensityMatrix holds a (*size, d, d) stack of states.
    """
    rng = _rng(seed)
    weights = rng.dirichlet(np.ones(d), size=size)
    psi = random_state_vector(d, rng, _shape(size) + (d,))
    return DensityMatrix(np.einsum("...k,...ki,...kj->...ij", weights, psi, psi.conj()))


def random_basis(d: int, seed, size=None) -> np.ndarray:
    """Orthonormal basis (rows) from QR of a complex Gaussian matrix.

    The R-diagonal phases are absorbed so the distribution is rotation
    invariant. Draws with a near-singular R diagonal are retried. ``size``
    gives a (*size, d, d) stack of independent bases.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    rng = _rng(seed)

    def draw(k):
        q, r = np.linalg.qr(_complex_normal(rng, (k, d, d)))
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        magnitude = abs(diag)
        usable = magnitude.min(axis=-1) >= TOL_DRAW_RANK
        # Unusable draws are drawn again, so only a division by zero is avoided.
        phases = diag / np.maximum(magnitude, TOL_DRAW_RANK)
        return (q * phases.conj()[:, None, :]).swapaxes(-1, -2), usable

    return _draw(size, draw, "basis")


def random_povm(d: int, n: int, seed, size=None) -> Povm:
    """n positive effects summing to identity via symmetric normalization.

    Draws Wishart-like positives G_i and returns S^{-1/2} G_i S^{-1/2} with
    S the sum, so completeness holds by construction. ``size`` gives one
    Povm holding a (*size, n, d, d) stack of independent POVMs.
    """
    if n < 2:
        raise ValueError(f"need at least 2 outcomes, got {n}")
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    rng = _rng(seed)

    def draw(k):
        z = _complex_normal(rng, (k, n, d, d))
        positives = np.einsum("...nik,...njk->...nij", z, z.conj())
        w, v = np.linalg.eigh(positives.sum(axis=-3))
        usable = w[:, 0] > TOL_DRAW_RANK * w[:, -1]
        # Unusable draws are drawn again, so only a division by zero is avoided.
        inv_sqrt = (v / np.sqrt(np.maximum(w, 1e-300))[:, None, :]) @ v.conj().swapaxes(-1, -2)
        effects = np.einsum("...ab,...nbc,...cd->...nad", inv_sqrt, positives, inv_sqrt)
        return (effects + effects.conj().swapaxes(-1, -2)) / 2.0, usable

    return Povm(_draw(size, draw, "POVM"))


def sampled_min(objective, d: int, trials: int, seed) -> float:
    """Minimum of an objective over random pure states.

    Draws one (trials, d, d) stack of pure states and calls the objective
    once on it, so the objective must broadcast over leading state axes (all
    the package's state functions do); a scalar result counts for every
    state. Upper-bounds the true minimum; for objectives linear in the state
    the true minimum is attained on a pure state, so the gap shrinks with
    more trials.

    Memory grows linearly with trials: the stack holds 16 * d**2 bytes per
    state (about 58 MB at d = 6 and 100 000 trials) before the objective's
    own temporaries, so split very large runs into several calls.
    """
    if trials < 1:
        raise ValueError(f"need at least 1 trial, got {trials}")
    return float(np.min(objective(random_pure_state(d, _rng(seed), size=trials))))
