"""Parameter sweeps over measurement-pair scenarios with crossover detection.

The angle sweep compares the bounds B1, B2, -log2 C and the total white-noise
device uncertainty for a pair of unsharp spin measurements whose directions
differ by a polar angle theta. The damping sweep compares -log2 C with the
minimized pair device uncertainty for the amplitude-damping pair on the d=3
Fourier couple of mutually unbiased bases.
"""

from __future__ import annotations

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
# Each refinement step also probes the rounding cell of its regula-falsi
# estimate, at this distance either side of the cell's center: inside the
# cell by 1e-9, far above the roundoff of a point in [0, pi], so both edges
# round to the cell's value and a root between them settles its bracket.
_CELL_EDGE = 0.49999 * 10.0**-CROSSOVER_DECIMALS
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

# Fixed measurement bases: sigma_z for the angle sweep, the d=3 Fourier pair
# for the damping sweep.
_Z_BASIS = _frozen(np.eye(2, dtype=complex))
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
        """The CSV lines, without newlines: the configuration and crossovers as
        ``#`` comments, the header, then one row per grid point.

        Rows are formatted one block of ``_GRID_BLOCK`` points at a time, so
        the Python floats and text held at once do not grow with the grid.
        """
        yield from (f"# {line}" for line in self.config.echo() + self.crossover_lines())
        yield ",".join(self.table)
        columns = list(self.table.values())
        row_format = ",".join(["%.12g"] * len(columns))
        for start in range(0, self.config.steps, _GRID_BLOCK):
            block = [column[start : start + _GRID_BLOCK].tolist() for column in columns]
            for row in zip(*block):
                yield row_format % row

    def write_csv(self, path) -> None:
        """Write csv_lines() to path as they are made; ConfigError if the file cannot be written."""
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.writelines(f"{line}\n" for line in self.csv_lines())
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
    values in ``table``: each step is one ``columns_of`` call on three probe
    points per open bracket, and each bracket reads its own difference from
    the result. The probes are the ITP point (Oliveira & Takahashi, ACM TOMS
    47(1), 2020) and the two edges of the rounding cell that holds the
    regula-falsi estimate, each just inside the cell; an edge outside the
    open bracket is replaced by the ITP point. When the root
    lies in that cell, one call settles the bracket. The new bracket is the
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

    def brackets(k, minuend, subtrahend):
        # One difference at a time, so the grid-sized temporaries are one column's.
        values = table[minuend] - table[subtrahend]
        roundoff = np.abs(values) <= _ROUNDOFF_REL * np.maximum(np.abs(table[minuend]), np.abs(table[subtrahend]))
        i = np.flatnonzero((values[:-1] * values[1:] < 0.0) & ~(roundoff[:-1] & roundoff[1:]))
        return np.full(i.size, k), xs[i], xs[i + 1], values[i], values[i + 1]

    def unsettled(lo, hi) -> np.ndarray:
        rounds_apart = np.round(lo, CROSSOVER_DECIMALS) != np.round(hi, CROSSOVER_DECIMALS)
        return rounds_apart & (hi - lo > _WIDTH_FLOOR)

    owner, lo, hi, f_lo, f_hi = map(np.concatenate, zip(*(brackets(k, *pair) for k, pair in enumerate(pairs))))
    # ITP with k1 = _ITP_K1 / h, k2 = 2 and n0 = 1 for a grid interval h: after
    # j calls a probe lies within budget - width / 2 of the midpoint, with
    # budget = h / 2**j, so the next bracket is at most budget wide.
    k1, budget = _ITP_K1 / (hi - lo), hi - lo
    active = unsettled(lo, hi)
    while active.any():
        j = np.flatnonzero(active)
        a, b, fa, fb = lo[j], hi[j], f_lo[j], f_hi[j]
        mid, width = (a + b) / 2.0, b - a
        # Interpolate (regula falsi), then truncate toward the midpoint.
        falsi = (a * fb - b * fa) / (fb - fa)
        toward = np.sign(mid - falsi)
        delta = k1[j] * width**2
        probe = np.where(delta <= np.abs(mid - falsi), falsi + toward * delta, mid)
        # Project into the budget's radius around the midpoint.
        radius = np.maximum(budget[j] - width / 2.0, 0.0)
        probe = np.where(np.abs(probe - mid) <= radius, probe, mid - toward * radius)
        budget[j] /= 2.0
        # The truncation moves the estimate by up to _ITP_K1 of a grid
        # interval, more than a cell, so the cell is the untruncated estimate's.
        cell = np.round(falsi, CROSSOVER_DECIMALS)
        edges = np.column_stack([cell - _CELL_EDGE, cell + _CELL_EDGE])
        inside = (a[:, None] < edges) & (edges < b[:, None]) & (edges != probe[:, None])
        # Each bracket's three probes are contiguous in the call: the ITP
        # point, then the lower and upper cell edges. An edge outside the open
        # bracket is replaced by the ITP point and takes its value, so it
        # changes nothing below.
        x = np.column_stack([probe, np.where(inside, edges, probe[:, None])])
        f = difference_rows(columns_of(x.ravel()))[np.repeat(owner[j], 3), np.arange(x.size)].reshape(x.shape)
        f[:, 1:] = np.where(inside, f[:, 1:], f[:, :1])
        # Candidate ends: a, the three probes and b. The first sign change in
        # x order: the new upper end is the leftmost candidate that is zero
        # or has the sign opposite to fa's (b at the latest), the new lower
        # end the rightmost candidate left of it.
        x, f = np.column_stack([a, x, b]), np.column_stack([fa, f, fb])
        crossed = (f == 0.0) | ((f < 0.0) != (fa < 0.0)[:, None])
        rows = np.arange(j.size)
        upper = np.argmin(np.where(crossed, x, np.inf), axis=1)
        lower = np.argmax(np.where(~crossed & (x < x[rows, upper][:, None]), x, -np.inf), axis=1)
        hi[j], f_hi[j] = x[rows, upper], f[rows, upper]
        lo[j], f_lo[j] = np.where(f_hi[j] == 0.0, hi[j], x[rows, lower]), f[rows, lower]
        active[j] = unsettled(lo[j], hi[j])
    found = np.round((lo + hi) / 2.0, CROSSOVER_DECIMALS)
    return {label: tuple(dict.fromkeys(found[owner == k].tolist())) for k, label in enumerate(differences)}


def _theta_columns_of(eta: float, zeta: float) -> Callable[[np.ndarray], dict[str, np.ndarray]]:
    """The angle sweep's column function at noise levels eta, zeta.

    It maps (k,) angles theta to every THETA_COLUMNS value (and mu) as (k,)
    arrays. Both white-noise device uncertainties and min(eta, zeta) do not
    depend on theta and are computed here once. Each call forms the overlap
    matrices of the spin bases with sigma_z once, and takes every column from
    them: -log2 C of the two white-noise POVMs through the white-noise
    kernel, so a call builds no POVM and runs no eigensolver. The spin bases
    are orthonormal by construction and go to the kernels unchecked.
    """
    d_eta, d_zeta = (bounds.device_uncertainty_white_noise(level, 2) for level in (eta, zeta))
    noisier = min(eta, zeta)

    def columns_of(theta: np.ndarray) -> dict[str, np.ndarray]:
        u = bounds._overlaps(spin_basis(theta), _Z_BASIS)
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
