"""Parameter sweeps over measurement-pair scenarios with crossover detection.

The angle sweep compares the bounds B1, B2, -log2 C and the total white-noise
device uncertainty for a pair of unsharp spin measurements whose directions
differ by a polar angle theta. The damping sweep compares -log2 C with the
minimized pair device uncertainty for the amplitude-damping pair on the d=3
Fourier couple of mutually unbiased bases.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from . import bounds
from .errors import ConfigError
from .linalg import TOL_ANGLE, _frozen, require_unit_interval
from .povm import amplitude_damping_povm, mub_fourier_basis

THETA_COLUMNS = ("theta", "B1", "B2", "logC", "D_WN", "HW", "QW")
DAMPING_COLUMNS = ("e", "logC_numeric", "logC_closed", "D_AD")

# Crossovers are reported correctly rounded to this many decimals.
CROSSOVER_DECIMALS = 4
# np.round(x, CROSSOVER_DECIMALS) is rint(x * _SCALE) / _SCALE.
_SCALE = 10.0**CROSSOVER_DECIMALS
# A bracket this narrow stops even if its ends round apart: its root lies on a
# rounding boundary, to within this width.
_WIDTH_FLOOR = 1e-12
# Two bounds that coincide exactly, such as D_WN and -log2 C at eta = 1,
# zeta = 0, leave a difference that is pure roundoff and may change sign
# anywhere. Each column is a bound of a few bits from a short chain of
# eigvalsh, log2 and entropy sums, correct to a few eps of its magnitude; with
# up to 8 eps per column, such a difference stays within 16 eps of the larger
# column. A bracket whose two ends both lie within that is dropped: a real
# crossing there would be indistinguishable from roundoff at both grid points.
# Over the 121 theta sweeps with eta, zeta in {0.0, ..., 1.0}^2 and the damping
# sweep, the one such bracket reads 1.5 eps at its larger end, every other one
# above 1e12 eps.
_ROUNDOFF_REL = 16 * np.finfo(float).eps
# ITP truncation coefficient, in units of 1 / (grid interval).
_ITP_K1 = 0.01
# Each refinement step also probes the rounding cell (of width _CELL) that
# holds its estimate of the root, at _CELL_EDGE either side of the cell's
# center: inside the cell by 1e-9, far above the roundoff of a point in
# [0, pi], so both edges round to the cell's value and a root between them
# settles its bracket.
_CELL = 10.0**-CROSSOVER_DECIMALS
_CELL_EDGE = 0.49999 * _CELL
# The first step's estimate interpolates the grid points i - 1 .. i + 2
# around the bracket (xs[i], xs[i + 1]).
_WINDOW = np.arange(-1, 3)
_OFF_DIAGONAL = ~np.eye(4, dtype=bool)
# Largest grid. The grid is computed, and its CSV rows formatted, in blocks of
# _GRID_BLOCK points, so the POVM stacks, temporaries and text of one block
# stay a few MB; what grows is the column table, filled in place block by
# block, about 0.06 KB of peak RSS per damping point and 0.08 KB per theta
# point. Measured with ru_maxrss at 10^5 points: 37.7 MB (damping) and
# 39.8 MB (theta), against 32.0 MB at the default grids.
MAX_STEPS = 100_000
# Grid points per column call and per block of CSV rows; at least 181 so that
# each default grid is one call.
_GRID_BLOCK = 512

# The damping sweep's fixed measurement bases, the d=3 Fourier pair.
_FOURIER_3 = tuple(_frozen(basis) for basis in mub_fourier_basis(3))


@dataclass(frozen=True)
class SweepConfig:
    """Validated grid and noise parameters for one sweep."""

    kind: str
    start: float
    stop: float
    steps: int
    eta: float | None = None
    zeta: float | None = None
    out: str | None = None

    def __post_init__(self):
        if self.kind not in ("theta", "damping"):
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        if self.steps < 2:
            raise ValueError(f"need at least 2 grid points, got {self.steps}")
        if self.steps > MAX_STEPS:
            raise ValueError(f"at most {MAX_STEPS} grid points, got {self.steps}")
        if not self.start < self.stop:
            raise ValueError(f"empty grid: start={self.start}, stop={self.stop}")
        if self.kind == "theta":
            if not (0.0 <= self.start and self.stop <= np.pi + TOL_ANGLE):
                raise ValueError("theta grid must lie within [0, pi]")
            require_unit_interval(self.eta, "eta")
            require_unit_interval(self.zeta, "zeta")
        else:
            if not (0.0 <= self.start and self.stop <= 1.0):
                raise ValueError("damping grid must lie within [0, 1]")

    @property
    def dim(self) -> int:
        return 2 if self.kind == "theta" else 3

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)

    def echo(self) -> list[str]:
        lines = [
            f"kind={self.kind}",
            f"start={self.start!r}",
            f"stop={self.stop!r}",
            f"steps={self.steps}",
            f"dim={self.dim}",
        ]
        if self.kind == "theta":
            lines.insert(4, f"eta={self.eta!r}")
            lines.insert(5, f"zeta={self.zeta!r}")
        return lines


@dataclass(frozen=True)
class SweepResult:
    """One sweep's grid values and refined crossover locations.

    ``table`` maps each CSV column name, in CSV order, to its read-only
    (steps,) float array; ``crossovers`` maps each difference label to its
    crossings in grid order, each the root of the difference correctly
    rounded to ``CROSSOVER_DECIMALS`` decimals (see ``find_crossings``).
    """

    table: dict[str, np.ndarray]
    crossovers: dict[str, tuple[float, ...]]
    config: SweepConfig

    def crossover_lines(self) -> list[str]:
        """One ``crossover NAME: x, y`` line per difference, ``none`` if it has no crossing."""
        return [
            f"crossover {name}: {', '.join(f'{x:.{CROSSOVER_DECIMALS}f}' for x in points) if points else 'none'}"
            for name, points in self.crossovers.items()
        ]

    def csv_lines(self) -> Iterator[str]:
        """The CSV text in pieces, each without its final newline: the
        configuration and crossovers as ``#`` comments, one line each, the
        header line, then the rows, one piece of newline-separated rows per
        block of ``_GRID_BLOCK`` grid points.

        Each block of rows is formatted by one ``%`` over its flat tuple of
        values, so the Python floats and text held at once do not grow with
        the grid.
        """
        yield from (f"# {line}" for line in self.config.echo() + self.crossover_lines())
        yield ",".join(self.table)
        columns = list(self.table.values())
        row_format = ",".join(["%.12g"] * len(columns))
        for start in range(0, self.config.steps, _GRID_BLOCK):
            block = np.column_stack([column[start : start + _GRID_BLOCK] for column in columns])
            yield "\n".join([row_format] * len(block)) % tuple(block.ravel().tolist())

    def write_csv(self, path) -> None:
        """Write csv_lines() to path as they are made, one write per piece;
        ConfigError if the file cannot be written."""
        try:
            with open(path, "w", encoding="utf-8") as handle:
                for piece in self.csv_lines():
                    handle.write(f"{piece}\n")
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from None


def spin_basis(theta) -> np.ndarray:
    """Orthonormal qubit basis along the direction (sin theta, 0, cos theta).

    An array of angles (...) gives a (..., 2, 2) stack of bases.
    """
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    basis = np.array([[c, s], [-s, c]], dtype=complex)
    return basis.transpose(*range(2, basis.ndim), 0, 1)


def find_crossings(xs: np.ndarray, table: dict, differences: dict, columns_of) -> dict[str, tuple[float, ...]]:
    """Strict sign changes of each labelled difference, correctly rounded to
    ``CROSSOVER_DECIMALS`` decimals.

    ``differences`` maps a label to a ``(minuend, subtrahend)`` pair of column
    names, ``table`` holds those columns on the grid ``xs``, and
    ``columns_of`` computes them at an array of points. Every pair of adjacent
    grid points where a difference changes sign is a bracket; grid points
    where the difference is exactly zero (degenerate equalities at grid
    endpoints) are not crossings, nor are brackets whose ends both differ by
    roundoff only (within ``_ROUNDOFF_REL`` of the larger column). The
    brackets of all differences are refined together, starting from the
    values in ``table``: each step is one ``columns_of`` call on a fixed
    number of probe points per open bracket, and each bracket reads its own
    difference from the result. Every step probes the ITP point (Oliveira &
    Takahashi, ACM TOMS 47(1), 2020) and the two edges, each just inside, of
    the rounding cell that holds an estimate of the root; an edge outside the
    open bracket is replaced by the ITP point. The first step estimates each
    root by inverse cubic interpolation through the four grid points around
    its bracket (by regula falsi where that window is cut short by the grid's
    end, flat or not monotone, or where the interpolant's root falls outside
    the bracket) and also probes the two edges of the neighbouring cell on
    the estimate's side, five probes per bracket; a root in either cell
    settles its bracket in that one call. Later steps probe the cell of the
    regula-falsi estimate, three probes per bracket. The new bracket is the
    first sign change among the bracket's ends and its probes.

    A bracket stops when both of its ends round to the same value, which it
    reports. It also stops when a probe's difference is exactly zero,
    reporting that probe rounded, and when it is narrower than
    ``_WIDTH_FLOOR`` (its root then lies within that width of a rounding
    boundary), reporting its rounded midpoint. Worst case: every ITP point
    lies close enough to its bracket's midpoint that after m + 1 calls a
    bracket refined by ITP points alone is no wider than bisection leaves it
    after m. The new bracket always lies on one side of the ITP point, within
    the bracket ITP alone would keep, so the same bound holds and a bracket
    reaches the width floor in at most one call more than bisection.
    Each label gets its results in grid order, without duplicates.
    """
    xs, pairs = np.asarray(xs, dtype=float), list(differences.values())

    def difference_rows(columns) -> np.ndarray:
        return np.array([columns[minuend] - columns[subtrahend] for minuend, subtrahend in pairs], dtype=float)

    def sign_changes(k, minuend, subtrahend):
        # One difference at a time, so the grid-sized temporaries are one
        # column's. Each sign change (xs[i], xs[i + 1]) comes with the window
        # of grid points i - 1 .. i + 2, repeating the grid's end where the
        # window runs past it, and with the larger column magnitude there.
        m, s = table[minuend], table[subtrahend]
        values = m - s
        i = np.flatnonzero(values[:-1] * values[1:] < 0.0)
        window = np.minimum(np.maximum(i[:, None] + _WINDOW, 0), xs.size - 1)
        return np.full(i.size, k), window, values[window], np.maximum(np.abs(m[window]), np.abs(s[window]))

    owner, window, f_window, scale = map(np.concatenate, zip(*(sign_changes(k, *pair) for k, pair in enumerate(pairs))))
    beyond_roundoff = (np.abs(f_window[:, 1:3]) > _ROUNDOFF_REL * scale[:, 1:3]).any(axis=1)
    owner, x_window, f_window = owner[beyond_roundoff], xs[window[beyond_roundoff]], f_window[beyond_roundoff]
    estimates, owner = _window_estimate(x_window, f_window).tolist(), owner.tolist()
    # A sweep has a handful of brackets, too few for array operations to pay
    # their fixed cost: each bracket is refined in Python floats, and each
    # step is one stacked columns_of call on the probes of all of them.
    lo, hi, f_lo, f_hi = (window[:, c].tolist() for window in (x_window, f_window) for c in (1, 2))
    # ITP with k1 = _ITP_K1 / h, k2 = 2 and n0 = 1 for a grid interval h: after
    # j calls a probe lies within budget - width / 2 of the midpoint, with
    # budget = h / 2**j, so the next bracket is at most budget wide.
    budget = [b - a for a, b in zip(lo, hi)]
    k1 = [_ITP_K1 / h for h in budget]
    active = [n for n in range(len(lo)) if _unsettled(lo[n], hi[n])]
    first = True
    while active:
        probes = []
        for n in active:
            a, b, fa, fb = lo[n], hi[n], f_lo[n], f_hi[n]
            mid, width = (a + b) / 2.0, b - a
            # Interpolate (regula falsi), then truncate toward the midpoint.
            falsi = (a * fb - b * fa) / (fb - fa)
            toward = (mid > falsi) - (mid < falsi)
            delta = k1[n] * (width * width)
            probe = falsi + toward * delta if delta <= abs(mid - falsi) else mid
            # Project into the budget's radius around the midpoint.
            radius = max(budget[n] - width / 2.0, 0.0)
            probe = probe if abs(probe - mid) <= radius else mid - toward * radius
            budget[n] /= 2.0
            # The truncation moves the estimate by up to _ITP_K1 of a grid
            # interval, more than a cell, so the cells are the untruncated
            # estimate's: on the first step the window estimate's cell and
            # its neighbour on the estimate's side, then the regula-falsi cell.
            guess = estimates[n] if first and not math.isnan(estimates[n]) else falsi
            cell = _rounded(guess)
            cells = (cell, cell + math.copysign(_CELL, guess - cell)) if first else (cell,)
            # The ITP point, then the lower and upper edge of each cell; an
            # edge outside the open bracket is replaced by the ITP point.
            edges = (e if a < e < b and e != probe else probe for c in cells for e in (c - _CELL_EDGE, c + _CELL_EDGE))
            probes.append([probe, *edges])
        x = np.array(probes)
        rows = np.repeat([owner[n] for n in active], x.shape[1])
        f = difference_rows(columns_of(x.ravel()))[rows, np.arange(x.size)].reshape(x.shape).tolist()
        for n, x_n, f_n in zip(active, probes, f):
            # A replaced edge takes the ITP point's value, so it changes
            # nothing below. The new bracket is the first sign change in x
            # order among the ends and the probes: its upper end is the first
            # candidate that is zero or has the sign opposite to f_lo's (b at
            # the latest), its lower end the candidate before it, or the upper
            # end itself if that is an exact zero.
            f_n = [f_n[0] if x_m == x_n[0] else f_m for x_m, f_m in zip(x_n, f_n)]
            candidates = sorted(zip([lo[n], *x_n, hi[n]], [f_lo[n], *f_n, f_hi[n]]))
            negative = f_lo[n] < 0.0
            m = next(m for m, (_, f_m) in enumerate(candidates) if f_m == 0.0 or (f_m < 0.0) != negative)
            (lo[n], f_lo[n]), (hi[n], f_hi[n]) = candidates[m if candidates[m][1] == 0.0 else m - 1], candidates[m]
        active = [n for n in active if _unsettled(lo[n], hi[n])]
        first = False
    found = {label: {} for label in differences}
    labels = list(found)
    for k, a, b in zip(owner, lo, hi):
        found[labels[k]][_rounded((a + b) / 2.0)] = None
    return {label: tuple(crossings) for label, crossings in found.items()}


def _rounded(x: float) -> float:
    """x rounded to CROSSOVER_DECIMALS decimals, as np.round rounds it."""
    return round(x * _SCALE) / _SCALE


def _unsettled(lo: float, hi: float) -> bool:
    """Whether the bracket (lo, hi) goes on: its ends round apart and it is
    wider than _WIDTH_FLOOR."""
    return _rounded(lo) != _rounded(hi) and hi - lo > _WIDTH_FLOOR


def _window_estimate(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Root estimates from the (n, 4) windows x, f of n brackets, each the
    bracket (x[:, 1], x[:, 2]) and one grid point either side: inverse cubic
    interpolation, the Lagrange polynomial x(f) through the four points at
    f = 0. NaN where f is not strictly monotone over the window (a window
    that repeats the grid's end is flat) or the estimate falls outside the
    bracket."""
    steps = f[:, 1:] - f[:, :-1]
    monotone = (steps * steps[:, 1:2] > 0.0).all(axis=1)
    # weights[:, k] = prod_{m != k} f_m / (f_m - f_k), finite where f is monotone.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratios = f[:, None, :] / (f[:, None, :] - f[:, :, None])
        cubic = (x * np.where(_OFF_DIAGONAL, ratios, 1.0).prod(axis=2)).sum(axis=1)
    return np.where(monotone & (x[:, 1] < cubic) & (cubic < x[:, 2]), cubic, np.nan)


def _theta_columns_of(eta: float, zeta: float) -> Callable[[np.ndarray], dict[str, np.ndarray]]:
    """The angle sweep's column function at noise levels eta, zeta.

    It maps (k,) angles theta to every THETA_COLUMNS value (and mu) as (k,)
    arrays. Both white-noise device uncertainties and min(eta, zeta) do not
    depend on theta and are computed here once. Every column comes from the
    overlap matrices U[i, j] = <a_i|z_j> of the spin bases a with sigma_z,
    -log2 C of the two white-noise POVMs through the white-noise kernel, so a
    call builds no POVM and runs no eigensolver. The sigma_z basis is the
    identity and the spin bases are real, so U is the spin basis itself. The
    spin bases are orthonormal by construction and go to the kernels
    unchecked.
    """
    d_eta, d_zeta = (bounds.device_uncertainty_white_noise(level, 2) for level in (eta, zeta))
    noisier = min(eta, zeta)

    def columns_of(theta: np.ndarray) -> dict[str, np.ndarray]:
        u = spin_basis(theta)
        columns = bounds._pair_bounds(u, d_eta, d_zeta, noisier)
        columns.update(theta=theta, logC=bounds._white_noise_coles(u, eta, zeta))
        return columns

    return columns_of


def _damping_columns(e: np.ndarray) -> dict[str, np.ndarray]:
    """Every DAMPING_COLUMNS value at the (k,) transition probabilities e."""
    basis_x, basis_z = _FOURIER_3
    pa, pb = amplitude_damping_povm(basis_x, e), amplitude_damping_povm(basis_z, e)
    return {
        "e": e,
        "logC_numeric": bounds.coles_bound(pa, pb),
        "logC_closed": bounds.ad_coles_closed_form(e),
        "D_AD": bounds.min_pair_device_bound(pa, pb),
    }


def run_sweep(config: SweepConfig) -> SweepResult:
    """Evaluate the sweep that ``config.kind`` names and locate its crossovers.

    theta: B1, B2, -log2 C, D_WN, H(W) and Q(W) over the angle; detects where
    B2 overtakes B1, and where the total device uncertainty overtakes -log2 C
    and B1. damping: -log2 C (numeric and closed form) against D_AD over the
    transition probability; detects where the minimized pair device
    uncertainty becomes the stronger bound.

    The grid is evaluated in blocks of ``_GRID_BLOCK`` points through the
    kind's column function, each block keeping only the CSV columns, and
    every crossing is refined through the same function.
    """
    if config.kind == "theta":
        columns_of = _theta_columns_of(config.eta, config.zeta)
        names = THETA_COLUMNS
        differences = {"B2-B1": ("B2", "B1"), "D_WN-logC": ("D_WN", "logC"), "D_WN-B1": ("D_WN", "B1")}
    else:
        columns_of, names, differences = _damping_columns, DAMPING_COLUMNS, {"D_AD-logC": ("D_AD", "logC_numeric")}
    grid = config.grid()
    table = {name: np.empty(grid.size) for name in names}
    for start in range(0, grid.size, _GRID_BLOCK):
        block = columns_of(grid[start : start + _GRID_BLOCK])
        for name, values in table.items():
            values[start : start + _GRID_BLOCK] = block[name]
    table = {name: _frozen(values) for name, values in table.items()}
    return SweepResult(table=table, crossovers=find_crossings(grid, table, differences, columns_of), config=config)
