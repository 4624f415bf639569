"""Acceptance suite: one pass/fail line per criterion.

Each test prints its line before asserting, so failures still report; the
``report`` fixture writes outside pytest's capture so the lines show up in
plain ``pytest -v`` runs.
"""

import time

import numpy as np
import pytest

from unsharp.bounds import (
    ad_coles_closed_form,
    coles_bound,
    device_uncertainty_white_noise,
    min_pair_device_bound,
)
from unsharp.povm import amplitude_damping_povm, mub_fourier_basis, white_noise_povm
from unsharp.sampling import random_pure_state
from unsharp.suites import run_suite
from unsharp.sweeps import SweepConfig, run_sweep, spin_basis
from unsharp.uncertainty import binary_entropy, device_uncertainty


@pytest.fixture
def report(capfd):
    def emit(number, description, failures):
        status = "PASS" if not failures else "FAIL"
        with capfd.disabled():
            print(f"ACCEPTANCE {number:2d} {status}: {description}", flush=True)
        assert not failures, f"criterion {number}: " + "; ".join(failures)

    return emit


def ad_pair(e):
    basis_x, basis_z = mub_fourier_basis(3)
    return amplitude_damping_povm(basis_x, e), amplitude_damping_povm(basis_z, e)


def test_criterion_01_damping_crossover(report):
    failures = []
    start = time.perf_counter()
    result = run_sweep(SweepConfig(kind="damping", start=0.0, stop=1.0, steps=101))
    elapsed = time.perf_counter() - start
    crossings = result.crossovers["D_AD-logC"]
    if len(crossings) != 1:
        failures.append(f"expected one crossover, got {crossings}")
    elif abs(crossings[0] - 0.564) > 0.005:
        failures.append(f"crossover {crossings[0]} outside 0.564 +- 0.005")
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    report(1, f"damping crossover e* = {crossings} in 0.564 +- 0.005, {elapsed:.2f}s < 5s", failures)


def test_criterion_02_pair_bound_closed_form(report):
    failures = []
    factor = 1.0 - 1.0 / np.sqrt(3.0)
    worst = 0.0
    for e in np.linspace(0.0, 1.0, 101):
        a, b = ad_pair(float(e))
        gap = abs(min_pair_device_bound(a, b) - factor * binary_entropy(float(e)))
        worst = max(worst, gap)
    if worst > 1e-8:
        failures.append(f"worst |eigenvalue path - closed form| = {worst:.3e} > 1e-8")
    report(2, f"pair device bound matches (1 - 1/sqrt(3)) H_bin(e), worst {worst:.2e} <= 1e-8", failures)


def test_criterion_03_damping_coles_closed_form(report):
    failures = []
    worst = 0.0
    for e in np.linspace(0.0, 1.0, 101):
        a, b = ad_pair(float(e))
        worst = max(worst, abs(coles_bound(a, b) - ad_coles_closed_form(float(e))))
    if worst > 1e-8:
        failures.append(f"worst |numeric - closed| = {worst:.3e} > 1e-8")
    a0, b0 = ad_pair(0.0)
    end0 = abs(coles_bound(a0, b0) - np.log2(3.0))
    a1, b1 = ad_pair(1.0)
    end1 = abs(coles_bound(a1, b1))
    if end0 > 1e-10:
        failures.append(f"e=0 endpoint off log2(3) by {end0:.3e}")
    if end1 > 1e-10:
        failures.append(f"e=1 endpoint off 0 by {end1:.3e}")
    report(3, f"damping -log2 C closed form: worst {worst:.2e} <= 1e-8, endpoints exact to 1e-10", failures)


def test_criterion_04_sharp_angle_sweep(report):
    failures = []
    result = run_sweep(SweepConfig(kind="theta", start=0.0, stop=float(np.pi), steps=181, eta=1.0, zeta=1.0))
    grid = result.table["theta"]
    b1 = result.table["B1"]
    b2 = result.table["B2"]
    hw = result.table["HW"]

    mid = int(np.argmin(np.abs(grid - np.pi / 2)))
    if abs(grid[mid] - np.pi / 2) > 1e-12:
        failures.append("grid does not contain theta = pi/2")
    if abs(b1[mid] - 1.0) > 1e-12:
        failures.append(f"B1(pi/2) = {b1[mid]!r} is not 1 bit")
    if abs(b2[mid] - 0.8724) > 1e-3:
        failures.append(f"B2(pi/2) = {b2[mid]} outside 0.8724 +- 1e-3")
    if abs(b2[mid] - hw[mid]) > 1e-12:
        failures.append("B2 and H(W) differ in the sharp case")

    crossings = result.crossovers["B2-B1"]
    if len(crossings) != 2:
        failures.append(f"expected two B2-B1 crossings, got {crossings}")
    else:
        left = np.pi / 2 - crossings[0]
        right = crossings[1] - np.pi / 2
        for name, theta_star in (("left", left), ("right", right)):
            if abs(theta_star - 0.15) > 0.02:
                failures.append(f"{name} crossing offset {theta_star:.4f} outside 0.15 +- 0.02")
        # sign pattern: B2 > B1 exactly beyond the crossing offset
        # (grid endpoints are identical-basis degeneracies where both are 0)
        margin = 0.02
        for theta, v1, v2 in zip(grid[1:-1], b1[1:-1], b2[1:-1]):
            offset = abs(np.pi / 2 - theta)
            if offset > max(left, right) + margin and not v2 > v1:
                failures.append(f"B2 <= B1 at theta {theta:.4f} beyond the crossing")
                break
            if offset < min(left, right) - margin and not v2 < v1:
                failures.append(f"B2 >= B1 at theta {theta:.4f} inside the crossing")
                break
    report(4, f"sharp sweep: B1(pi/2)=1, B2(pi/2)={b2[mid]:.4f}, theta* {crossings}", failures)


def test_criterion_05_bound_chain(report):
    failures = []
    start = time.perf_counter()
    result = run_suite("chain", 1000, 1234)
    elapsed = time.perf_counter() - start
    if not result.passed:
        failures.append(f"{result.failures} chain violations, worst slack {result.worst_slack:.3e}")
    if result.checks != 3 * 1000 * 4:
        failures.append(f"expected 12000 checks, ran {result.checks}")
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    report(5, f"bound chain on 1000 pairs per d in 2,3,4: worst slack {result.worst_slack:.2e}, {elapsed:.1f}s < 30s", failures)


def test_criterion_06_majorization(report):
    failures = []
    result = run_suite("majorization", 500, 1234)
    if not result.passed:
        failures.append(f"{result.failures} majorization violations, worst slack {result.worst_slack:.3e}")
    report(6, f"direct-sum majorization and H(W) on 500 trials per d in 2,3: worst slack {result.worst_slack:.2e}", failures)


def test_criterion_07_convex_identities(report):
    failures = []
    result = run_suite("convexity", 200, 1234)
    if not result.passed:
        failures.append(f"{result.failures} identity violations, worst deviation {-result.worst_slack:.3e}")
    report(7, f"mixture identities on 200 random triples: worst deviation {-result.worst_slack:.2e} <= 1e-12", failures)


def test_criterion_08_white_noise_closed_form(report):
    failures = []
    result = run_suite("whitenoise", 100, 1234)
    if not result.passed:
        failures.append(f"{result.failures} white-noise deviations, worst {-result.worst_slack:.3e}")
    if result.checks != 5 * 11:
        failures.append(f"expected 55 (d, alpha) cells, ran {result.checks}")
    # explicit split: spread across states (independence) and offset from
    # the closed form, on the computational basis
    rng = np.random.default_rng(99)
    worst_spread = 0.0
    worst_closed = 0.0
    for d in range(2, 7):
        basis = np.eye(d, dtype=complex)
        for alpha in np.linspace(0.0, 1.0, 11):
            povm = white_noise_povm(basis, float(alpha))
            closed = device_uncertainty_white_noise(float(alpha), d)
            values = [device_uncertainty(random_pure_state(d, rng), povm) for _ in range(100)]
            worst_spread = max(worst_spread, max(values) - min(values))
            worst_closed = max(worst_closed, max(abs(v - closed) for v in values))
    if worst_spread >= 1e-10:
        failures.append(f"state-dependence spread {worst_spread:.3e} >= 1e-10")
    if worst_closed > 1e-10:
        failures.append(f"closed-form offset {worst_closed:.3e} > 1e-10")
    report(8, f"white-noise closed form (offset {worst_closed:.2e}) and state independence (spread {worst_spread:.2e})", failures)


def test_criterion_09_pair_bound_validity(report):
    failures = []
    result = run_suite("validity", 500, 1234)
    if not result.passed:
        failures.append(f"{result.failures} validity violations, worst slack {result.worst_slack:.3e}")
    report(9, f"H(A)+H(B) >= max(B1, B2, -log2 C) on 500 white-noise scenarios: worst slack {result.worst_slack:.2e}", failures)


def test_criterion_10_unsharpness_dominates_coles(report):
    failures = []
    start = time.perf_counter()
    grid = np.linspace(0.0, np.pi, 181)
    basis_b = np.eye(2, dtype=complex)
    found = None
    margin = None
    for level in np.arange(0.9, 0.0, -0.1):
        eta = zeta = float(level)
        d_wn = device_uncertainty_white_noise(eta, 2) + device_uncertainty_white_noise(zeta, 2)
        pb = white_noise_povm(basis_b, zeta)
        gaps = []
        for theta in grid:
            pa = white_noise_povm(spin_basis(float(theta)), eta)
            gaps.append(d_wn - coles_bound(pa, pb))
        if min(gaps) > 0.0:
            found = (eta, zeta)
            margin = min(gaps)
            break
    elapsed = time.perf_counter() - start
    if found is None:
        failures.append("no eta, zeta < 1 with -log2 C < D_WN over the whole grid")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    report(10, f"found eta=zeta={found and found[0]:.1f} with -log2 C < D_WN everywhere (margin {margin and round(margin, 4)}), {elapsed:.1f}s < 60s", failures)
