"""Parameter sweeps over measurement-pair scenarios with crossover detection.

The angle sweep compares the bounds B1, B2, -log2 C and the total white-noise
device uncertainty for a pair of unsharp spin measurements whose directions
differ by a polar angle theta. The damping sweep compares -log2 C with the
minimized pair device uncertainty for the amplitude-damping pair on the d=3
Fourier couple of mutually unbiased bases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds
from .linalg import _frozen
from .povm import Povm, amplitude_damping_povm, mub_fourier_basis, white_noise_povm

THETA_COLUMNS = ("theta", "B1", "B2", "logC", "D_WN", "HW", "QW")
DAMPING_COLUMNS = ("e", "logC_numeric", "logC_closed", "D_AD")

CROSSOVER_TOL = 1e-4

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
        if not self.start < self.stop:
            raise ValueError(f"empty grid: start={self.start}, stop={self.stop}")
        if self.kind == "theta":
            if not (0.0 <= self.start and self.stop <= np.pi + 1e-12):
                raise ValueError("theta grid must lie within [0, pi]")
            for name, value in (("eta", self.eta), ("zeta", self.zeta)):
                if value is None or not 0.0 <= value <= 1.0:
                    raise ValueError(f"{name} must be in [0, 1], got {value}")
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
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(self.csv_lines()) + "\n")


def spin_basis(theta) -> np.ndarray:
    """Orthonormal qubit basis along the direction (sin theta, 0, cos theta).

    An array of angles (...) gives a (..., 2, 2) stack of bases.
    """
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    basis = np.array([[c, s], [-s, c]], dtype=complex)
    return basis.transpose(*range(2, basis.ndim), 0, 1)


def _refine_crossing(diff, lo: float, hi: float, tol: float = CROSSOVER_TOL) -> float:
    f_lo = diff(lo)
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        f_mid = diff(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def find_crossings(xs: np.ndarray, values: np.ndarray, diff, tol: float = CROSSOVER_TOL) -> tuple[float, ...]:
    """Strict sign changes of a sampled difference, refined by bisection.

    ``values`` are the grid samples of ``diff``; refinement re-evaluates the
    continuous function between adjacent grid points of opposite sign. Grid
    points where the difference is exactly zero (degenerate equalities at
    grid endpoints) are not crossings.
    """
    found = []
    for i in range(len(xs) - 1):
        if float(values[i]) * float(values[i + 1]) < 0.0:
            found.append(round(_refine_crossing(diff, float(xs[i]), float(xs[i + 1]), tol), 4))
    return tuple(dict.fromkeys(found))


@dataclass(frozen=True)
class _SpinPair:
    """Angle-independent parts of the angle sweep for noise levels (eta, zeta).

    Holds the noisy sigma_z measurement and the closed-form white-noise
    device uncertainties, so that a sweep builds them once, not per row.
    """

    eta: float
    zeta: float
    pb: Povm
    d_eta: float
    d_zeta: float

    @classmethod
    def of(cls, eta: float, zeta: float) -> "_SpinPair":
        return cls(
            eta=eta,
            zeta=zeta,
            pb=white_noise_povm(_Z_BASIS, zeta),
            d_eta=bounds.device_uncertainty_white_noise(eta, 2),
            d_zeta=bounds.device_uncertainty_white_noise(zeta, 2),
        )

    @property
    def d_wn(self) -> float:
        return self.d_eta + self.d_zeta

    def b1(self, mu: float) -> float:
        return mu + min(self.d_eta, self.d_zeta)

    def log_c(self, basis_a) -> float:
        return bounds.coles_bound(white_noise_povm(basis_a, self.eta), self.pb)

    def b1_b2_qw(self, mv: bounds.MajorizationVector) -> tuple[float, float, float]:
        qw, b2 = bounds._qw_b2(mv, min(self.eta, self.zeta), self.d_wn)
        return self.b1(bounds._mu_from_majorization(mv)), b2, qw


def theta_row(theta: float, eta: float, zeta: float, *, pair: _SpinPair | None = None) -> tuple[float, ...]:
    """One angle-sweep grid row in THETA_COLUMNS order.

    ``pair`` carries the angle-independent terms for (eta, zeta) when the
    caller has already built them.
    """
    pair = pair if pair is not None else _SpinPair.of(eta, zeta)
    basis_a = spin_basis(theta)
    mv = bounds.majorization_vector(basis_a, _Z_BASIS)
    b1, b2, qw = pair.b1_b2_qw(mv)
    return (theta, b1, b2, pair.log_c(basis_a), pair.d_wn, bounds.hw_bound(mv), qw)


def _damping_pair(e: float) -> tuple[Povm, Povm]:
    basis_x, basis_z = _FOURIER_3
    return amplitude_damping_povm(basis_x, e), amplitude_damping_povm(basis_z, e)


def damping_row(e: float) -> tuple[float, ...]:
    """One damping-sweep grid row in DAMPING_COLUMNS order."""
    pa, pb = _damping_pair(e)
    return (
        e,
        bounds.coles_bound(pa, pb),
        bounds.ad_coles_closed_form(e),
        bounds.min_pair_device_bound(pa, pb),
    )


def theta_sweep(config: SweepConfig) -> SweepResult:
    """Angle sweep of B1, B2, -log2 C, D_WN, H(W) and Q(W).

    Detects where B2 overtakes B1, and where the total device uncertainty
    overtakes -log2 C and B1. Bisection evaluates only the two compared
    columns.
    """
    if config.kind != "theta":
        raise ValueError("theta_sweep needs a config of kind 'theta'")
    pair = _SpinPair.of(config.eta, config.zeta)
    grid = config.grid()
    rows = tuple(theta_row(theta, pair.eta, pair.zeta, pair=pair) for theta in grid)
    by_name = {name: np.array([row[i] for row in rows]) for i, name in enumerate(THETA_COLUMNS)}

    def b2_minus_b1(theta):
        b1, b2, _ = pair.b1_b2_qw(bounds.majorization_vector(spin_basis(theta), _Z_BASIS))
        return b2 - b1

    def d_wn_minus_log_c(theta):
        return pair.d_wn - pair.log_c(spin_basis(theta))

    def d_wn_minus_b1(theta):
        return pair.d_wn - pair.b1(bounds.mu_bound(spin_basis(theta), _Z_BASIS))

    crossovers = {
        "B2-B1": find_crossings(grid, by_name["B2"] - by_name["B1"], b2_minus_b1),
        "D_WN-logC": find_crossings(grid, by_name["D_WN"] - by_name["logC"], d_wn_minus_log_c),
        "D_WN-B1": find_crossings(grid, by_name["D_WN"] - by_name["B1"], d_wn_minus_b1),
    }
    return SweepResult(columns=THETA_COLUMNS, rows=rows, crossovers=crossovers, config=config)


def damping_sweep(config: SweepConfig) -> SweepResult:
    """Damping sweep of -log2 C (numeric and closed form) against D_AD.

    Detects the transition probability beyond which the minimized pair
    device uncertainty becomes the stronger bound.
    """
    if config.kind != "damping":
        raise ValueError("damping_sweep needs a config of kind 'damping'")
    grid = config.grid()
    rows = tuple(damping_row(e) for e in grid)
    d_ad = np.array([row[3] for row in rows])
    log_c = np.array([row[1] for row in rows])

    def diff(e):
        pa, pb = _damping_pair(e)
        return bounds.min_pair_device_bound(pa, pb) - bounds.coles_bound(pa, pb)

    crossovers = {"D_AD-logC": find_crossings(grid, d_ad - log_c, diff)}
    return SweepResult(columns=DAMPING_COLUMNS, rows=rows, crossovers=crossovers, config=config)
