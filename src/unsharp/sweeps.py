"""Parameter sweeps over measurement-pair scenarios with crossover detection.

The angle sweep compares the bounds B1, B2, -log2 C and the total white-noise
device uncertainty for a pair of unsharp spin measurements whose directions
differ by a polar angle theta. The damping sweep compares -log2 C with the
minimized pair device uncertainty for the amplitude-damping pair on the d=3
Fourier couple of mutually unbiased bases.
"""

from __future__ import annotations

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
# Largest grid: a damping point costs about 3 KB of peak RSS (POVM stacks and
# temporaries), so 10^5 points stay near 300 MB.
MAX_STEPS = 100_000

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
    """Grid rows in column order plus refined crossover locations."""

    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    crossovers: dict[str, tuple[float, ...]]
    config: SweepConfig

    def column(self, name: str) -> np.ndarray:
        return np.array([row[self.columns.index(name)] for row in self.rows])

    def csv_lines(self) -> list[str]:
        lines = [f"# {entry}" for entry in self.config.echo()]
        for name, points in self.crossovers.items():
            formatted = ", ".join(f"{x:.4f}" for x in points) if points else "none"
            lines.append(f"# crossover {name}: {formatted}")
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(f"{value:.12g}" for value in row))
        return lines

    def write_csv(self, path) -> None:
        """Write csv_lines() to path; ConfigError if the file cannot be written."""
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(self.csv_lines()) + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from None


def spin_basis(theta) -> np.ndarray:
    """Orthonormal qubit basis along the direction (sin theta, 0, cos theta).

    An array of angles (...) gives a (..., 2, 2) stack of bases.
    """
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    basis = np.array([[c, s], [-s, c]], dtype=complex)
    return basis.transpose(*range(2, basis.ndim), 0, 1)


def find_crossings(xs: np.ndarray, values: np.ndarray, diff) -> tuple[float, ...]:
    """Strict sign changes of a sampled difference, refined by bisection.

    ``values`` are the grid samples of ``diff``. Every pair of adjacent grid
    points of opposite sign is a bracket, and all brackets are bisected
    together: ``diff`` takes the (k,) midpoints of the k brackets still wider
    than ``CROSSOVER_TOL`` and returns k differences. A midpoint where the
    difference is exactly zero ends its bracket there. Grid points where the
    difference is exactly zero (degenerate equalities at grid endpoints) are
    not crossings.
    Results are rounded to 4 decimals, in grid order, without duplicates.
    """
    xs, values = np.asarray(xs, dtype=float), np.asarray(values, dtype=float)
    i = np.flatnonzero(values[:-1] * values[1:] < 0.0)
    lo, hi, lo_negative = xs[i], xs[i + 1], values[i] < 0.0
    active = hi - lo > CROSSOVER_TOL
    while active.any():
        j = np.flatnonzero(active)
        mid = (lo[j] + hi[j]) / 2.0
        f_mid = np.asarray(diff(mid), dtype=float)
        zero = f_mid == 0.0
        move_lo = (f_mid < 0.0) == lo_negative[j]
        lo[j] = np.where(zero | move_lo, mid, lo[j])
        hi[j] = np.where(zero | ~move_lo, mid, hi[j])
        active[j] = ~zero & (hi[j] - lo[j] > CROSSOVER_TOL)
    return tuple(dict.fromkeys(round(float(x), 4) for x in (lo + hi) / 2.0))


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


def _sweep(config: SweepConfig, columns_of, names: tuple[str, ...], differences: dict) -> SweepResult:
    """Evaluate the whole grid in one call of ``columns_of`` and bisect each
    labelled difference ``(minuend, subtrahend)`` through the same function."""
    grid = config.grid()
    table = columns_of(grid)

    def crossings(minuend: str, subtrahend: str) -> tuple[float, ...]:
        def diff(x):
            columns = columns_of(x)
            return columns[minuend] - columns[subtrahend]

        return find_crossings(grid, table[minuend] - table[subtrahend], diff)

    rows = tuple(zip(*(table[name].tolist() for name in names)))
    crossovers = {label: crossings(*pair) for label, pair in differences.items()}
    return SweepResult(columns=names, rows=rows, crossovers=crossovers, config=config)


def theta_sweep(config: SweepConfig) -> SweepResult:
    """Angle sweep of B1, B2, -log2 C, D_WN, H(W) and Q(W).

    Detects where B2 overtakes B1, and where the total device uncertainty
    overtakes -log2 C and B1.
    """
    if config.kind != "theta":
        raise ValueError("theta_sweep needs a config of kind 'theta'")
    columns_of = partial(_theta_columns, eta=config.eta, zeta=config.zeta)
    differences = {"B2-B1": ("B2", "B1"), "D_WN-logC": ("D_WN", "logC"), "D_WN-B1": ("D_WN", "B1")}
    return _sweep(config, columns_of, THETA_COLUMNS, differences)


def damping_sweep(config: SweepConfig) -> SweepResult:
    """Damping sweep of -log2 C (numeric and closed form) against D_AD.

    Detects the transition probability beyond which the minimized pair
    device uncertainty becomes the stronger bound.
    """
    if config.kind != "damping":
        raise ValueError("damping_sweep needs a config of kind 'damping'")
    return _sweep(config, _damping_columns, DAMPING_COLUMNS, {"D_AD-logC": ("D_AD", "logC_numeric")})
