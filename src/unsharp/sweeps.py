"""Parameter sweeps over measurement-pair scenarios with crossover detection.

The angle sweep compares the bounds B1, B2, -log2 C and the total white-noise
device uncertainty for a pair of unsharp spin measurements whose directions
differ by a polar angle theta. The damping sweep compares -log2 C with the
minimized pair device uncertainty for the amplitude-damping pair on the d=3
Fourier couple of mutually unbiased bases.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import bounds
from .errors import ConfigError
from .linalg import TOL_ANGLE, _frozen, require_unit_interval
from .povm import amplitude_damping_povm, mub_fourier_basis, white_noise_povm

THETA_COLUMNS = ("theta", "B1", "B2", "logC", "D_WN", "HW", "QW")
DAMPING_COLUMNS = ("e", "logC_numeric", "logC_closed", "D_AD")

CROSSOVER_TOL = 1e-4
# Largest grid. The grid is computed, and its CSV rows formatted, in blocks of
# _GRID_BLOCK points, so the POVM stacks, temporaries and text of one block
# stay a few MB; what grows is the column table (and the blocks it is joined
# from), about 0.1 KB of peak RSS per damping point and 0.2 KB per theta point.
# Measured with ru_maxrss at 10^5 points: 41.7 MB (damping) and 47.9 MB
# (theta), against 31.6 MB at the default grids.
MAX_STEPS = 100_000
# Grid points per column call and per block of CSV rows; at least 181 so that
# each default grid is one call.
_GRID_BLOCK = 1024

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
    crossings in grid order, rounded to 4 decimals.
    """

    table: dict[str, np.ndarray]
    crossovers: dict[str, tuple[float, ...]]
    config: SweepConfig

    def crossover_lines(self) -> list[str]:
        """One ``crossover NAME: x, y`` line per difference, ``none`` if it has no crossing."""
        return [
            f"crossover {name}: {', '.join(f'{x:.4f}' for x in points) if points else 'none'}"
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
        for start in range(0, self.config.steps, _GRID_BLOCK):
            block = [column[start : start + _GRID_BLOCK].tolist() for column in columns]
            for row in zip(*block):
                yield ",".join(f"{value:.12g}" for value in row)

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
    """Strict sign changes of each labelled difference, refined by bisection.

    ``differences`` maps a label to a ``(minuend, subtrahend)`` pair of column
    names, ``table`` holds those columns on the grid ``xs``, and
    ``columns_of`` computes them at an array of points. Every pair of adjacent
    grid points where a difference changes sign is a bracket, and the brackets
    of all differences are bisected together: each step is one ``columns_of``
    call on the (k,) midpoints of the k brackets still wider than
    ``CROSSOVER_TOL``, and each bracket reads its own difference from the
    result. A midpoint where the difference is exactly zero ends its bracket
    there. Grid points where the difference is exactly zero (degenerate
    equalities at grid endpoints) are not crossings.
    Each label gets its results rounded to 4 decimals, in grid order, without
    duplicates.
    """
    pairs = list(differences.values())

    def difference_rows(columns) -> np.ndarray:
        return np.array([columns[minuend] - columns[subtrahend] for minuend, subtrahend in pairs], dtype=float)

    xs, values = np.asarray(xs, dtype=float), difference_rows(table)
    owner, i = np.nonzero(values[:, :-1] * values[:, 1:] < 0.0)
    lo, hi, lo_negative = xs[i], xs[i + 1], values[owner, i] < 0.0
    active = hi - lo > CROSSOVER_TOL
    while active.any():
        j = np.flatnonzero(active)
        mid = (lo[j] + hi[j]) / 2.0
        f_mid = difference_rows(columns_of(mid))[owner[j], np.arange(j.size)]
        zero = f_mid == 0.0
        move_lo = (f_mid < 0.0) == lo_negative[j]
        lo[j] = np.where(zero | move_lo, mid, lo[j])
        hi[j] = np.where(zero | ~move_lo, mid, hi[j])
        active[j] = ~zero & (hi[j] - lo[j] > CROSSOVER_TOL)
    found = (lo + hi) / 2.0
    return {
        label: tuple(dict.fromkeys(round(float(x), 4) for x in found[owner == k]))
        for k, label in enumerate(differences)
    }


def _theta_columns(theta: np.ndarray, eta: float, zeta: float) -> dict[str, np.ndarray]:
    """Every THETA_COLUMNS value (and mu) at the (k,) angles theta, as (k,) arrays."""
    basis_a = spin_basis(theta)
    columns = bounds.basis_pair_bounds(basis_a, eta, _Z_BASIS, zeta)
    columns.update(
        theta=theta,
        logC=bounds.coles_bound(white_noise_povm(basis_a, eta), white_noise_povm(_Z_BASIS, zeta)),
    )
    return columns


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
    kind's column function, and every difference is bisected through it.
    """
    if config.kind == "theta":
        columns_of = partial(_theta_columns, eta=config.eta, zeta=config.zeta)
        names = THETA_COLUMNS
        differences = {"B2-B1": ("B2", "B1"), "D_WN-logC": ("D_WN", "logC"), "D_WN-B1": ("D_WN", "B1")}
    else:
        columns_of, names, differences = _damping_columns, DAMPING_COLUMNS, {"D_AD-logC": ("D_AD", "logC_numeric")}
    grid = config.grid()
    blocks = [columns_of(grid[start : start + _GRID_BLOCK]) for start in range(0, grid.size, _GRID_BLOCK)]
    table = {name: _frozen(np.concatenate([block[name] for block in blocks])) for name in names}
    return SweepResult(table=table, crossovers=find_crossings(grid, table, differences, columns_of), config=config)
