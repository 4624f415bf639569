import numpy as np
import pytest

from unsharp import bounds, sweeps
from unsharp.bounds import device_uncertainty_white_noise
from unsharp.povm import amplitude_damping_povm, mub_fourier_basis, white_noise_povm
from unsharp.uncertainty import f_white_noise, shannon_entropy
from unsharp.sweeps import (
    CROSSOVER_TOL,
    DAMPING_COLUMNS,
    MAX_STEPS,
    THETA_COLUMNS,
    SweepConfig,
    damping_sweep,
    find_crossings,
    spin_basis,
    theta_sweep,
)


def theta_config(eta, zeta, steps=61):
    return SweepConfig(kind="theta", start=0.0, stop=float(np.pi), steps=steps, eta=eta, zeta=zeta)


def damping_config(steps=41):
    return SweepConfig(kind="damping", start=0.0, stop=1.0, steps=steps)


def theta_point(theta, eta, zeta):
    """The angle-sweep columns at one angle, through the sweep's column function."""
    columns = sweeps._theta_columns(np.array([theta]), eta, zeta)
    return {name: float(values[0]) for name, values in columns.items()}


class TestSweepConfig:
    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            damping_config(steps=1)

    def test_rejects_out_of_range_grid(self):
        with pytest.raises(ValueError):
            SweepConfig(kind="damping", start=0.0, stop=1.5, steps=11)
        with pytest.raises(ValueError):
            SweepConfig(kind="theta", start=-0.5, stop=1.0, steps=11, eta=1.0, zeta=1.0)

    def test_steps_cap(self):
        # The 181/101 defaults and a 20 001-point grid stay accepted.
        for steps in (101, 181, 20_001, MAX_STEPS):
            assert damping_config(steps=steps).steps == steps
        with pytest.raises(ValueError, match=f"at most {MAX_STEPS} grid points"):
            damping_config(steps=MAX_STEPS + 1)

    def test_theta_requires_noise_params(self):
        with pytest.raises(ValueError):
            SweepConfig(kind="theta", start=0.0, stop=1.0, steps=11, eta=None, zeta=0.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SweepConfig(kind="phi", start=0.0, stop=1.0, steps=11)

    def test_echo_names_only_used_settings(self):
        echo = theta_config(0.5, 0.6).echo()
        assert [line.split("=")[0] for line in echo] == ["kind", "start", "stop", "steps", "eta", "zeta", "dim"]


class TestSpinBasis:
    def test_aligned_with_z_at_zero(self):
        np.testing.assert_allclose(spin_basis(0.0), np.eye(2), atol=1e-15)

    def test_mub_at_right_angle(self):
        basis = spin_basis(np.pi / 2)
        overlaps = np.abs(basis.conj() @ np.eye(2).T) ** 2
        np.testing.assert_allclose(overlaps, 0.5, atol=1e-12)


class TestThetaSweep:
    def test_columns_and_shape(self):
        result = theta_sweep(theta_config(0.8, 0.9, steps=13))
        assert result.columns == THETA_COLUMNS
        assert len(result.rows) == 13
        assert all(len(row) == len(THETA_COLUMNS) for row in result.rows)
        assert np.all(np.isfinite(np.array(result.rows)))

    def test_identical_sharp_bases_give_zero(self):
        row = theta_point(0.0, 1.0, 1.0)
        for name in ("B1", "B2", "logC", "D_WN", "HW", "QW"):
            assert row[name] == pytest.approx(0.0, abs=1e-9)

    def test_sharp_mub_point(self):
        row = theta_point(np.pi / 2, 1.0, 1.0)
        assert row["B1"] == pytest.approx(1.0, abs=1e-12)
        assert row["B2"] == pytest.approx(0.87243, abs=1e-5)
        assert row["logC"] == pytest.approx(1.0, abs=1e-12)
        assert row["D_WN"] == pytest.approx(0.0, abs=1e-12)

    def test_d_wn_column_is_constant(self):
        result = theta_sweep(theta_config(0.6, 0.8, steps=9))
        expected = device_uncertainty_white_noise(0.6, 2) + device_uncertainty_white_noise(0.8, 2)
        np.testing.assert_allclose(result.column("D_WN"), expected, atol=1e-12)

    def test_crossovers_sharp_case(self):
        result = theta_sweep(theta_config(1.0, 1.0, steps=181))
        crossings = result.crossovers["B2-B1"]
        assert len(crossings) == 2
        assert abs((np.pi / 2 - crossings[0]) - 0.15) < 0.02
        assert abs((crossings[1] - np.pi / 2) - 0.15) < 0.02

    def test_csv_deterministic(self):
        config = theta_config(0.7, 0.5, steps=11)
        assert theta_sweep(config).csv_lines() == theta_sweep(config).csv_lines()

    def test_csv_structure(self, tmp_path):
        path = tmp_path / "sweep.csv"
        result = theta_sweep(theta_config(1.0, 1.0, steps=7))
        result.write_csv(path)
        lines = path.read_text().strip().split("\n")
        comments = [line for line in lines if line.startswith("# ")]
        assert any(line.startswith("# eta=") for line in comments)
        assert any(line.startswith("# crossover") for line in comments)
        header_idx = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[header_idx] == ",".join(THETA_COLUMNS)
        assert len(lines) - header_idx - 1 == 7


class TestDampingSweep:
    def test_columns_and_endpoints(self):
        result = damping_sweep(damping_config(steps=11))
        assert result.columns == DAMPING_COLUMNS
        first = dict(zip(DAMPING_COLUMNS, result.rows[0]))
        last = dict(zip(DAMPING_COLUMNS, result.rows[-1]))
        assert first["logC_numeric"] == pytest.approx(np.log2(3.0), abs=1e-10)
        assert first["D_AD"] == pytest.approx(0.0, abs=1e-12)
        assert last["logC_numeric"] == pytest.approx(0.0, abs=1e-10)
        assert last["D_AD"] == pytest.approx(0.0, abs=1e-12)

    def test_crossover_near_paper_value(self):
        result = damping_sweep(damping_config(steps=101))
        crossings = result.crossovers["D_AD-logC"]
        assert len(crossings) == 1
        assert abs(crossings[0] - 0.564) < 0.005

    def test_symmetry_of_pair_bound(self):
        result = damping_sweep(damping_config(steps=21))
        d_ad = result.column("D_AD")
        np.testing.assert_allclose(d_ad, d_ad[::-1], atol=1e-12)


# --- Per-row reference -------------------------------------------------------
# One grid point per call and one bracket at a time, with scalar bisection:
# the reference that the stacked grid and bisection must match. Each
# difference is bisected through the same row function as the grid.


def reference_theta_row(theta, eta, zeta):
    """mu = -log2 (w_1 - 1)^2 and Q(W) = sum_k f(W_k, min(eta, zeta)) from the
    majorization vector, without the package's basis-pair kernel."""
    basis_a, basis_z = spin_basis(theta), np.eye(2, dtype=complex)
    mv = bounds.majorization_vector(basis_a, basis_z)
    d_eta = device_uncertainty_white_noise(eta, 2)
    d_zeta = device_uncertainty_white_noise(zeta, 2)
    qw = sum(f_white_noise(float(p), min(eta, zeta), 2) for p in mv.padded())
    b1 = float(-np.log2((mv.w[0] - 1.0) ** 2)) + min(d_eta, d_zeta)
    log_c = bounds.coles_bound(white_noise_povm(basis_a, eta), white_noise_povm(basis_z, zeta))
    return (theta, b1, qw + d_eta + d_zeta, log_c, d_eta + d_zeta, shannon_entropy(mv.W), qw)


def reference_damping_row(e):
    basis_x, basis_z = mub_fourier_basis(3)
    pa, pb = amplitude_damping_povm(basis_x, e), amplitude_damping_povm(basis_z, e)
    return (
        e,
        bounds.coles_bound(pa, pb),
        bounds.ad_coles_closed_form(e),
        bounds.min_pair_device_bound(pa, pb),
    )


def reference_bisect(diff, lo, hi, tol=CROSSOVER_TOL):
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


def reference_crossings(xs, values, diff, tol=CROSSOVER_TOL):
    found = []
    for i in range(len(xs) - 1):
        if float(values[i]) * float(values[i + 1]) < 0.0:
            found.append(round(reference_bisect(diff, float(xs[i]), float(xs[i + 1]), tol), 4))
    return tuple(dict.fromkeys(found))


def reference_sweep(config, row, columns, differences):
    grid = config.grid()
    rows = [row(x) for x in grid]
    table = dict(zip(columns, np.array(rows).T))

    def crossings(minuend, subtrahend):
        def diff(x):
            values = dict(zip(columns, row(x)))
            return values[minuend] - values[subtrahend]

        return reference_crossings(grid, table[minuend] - table[subtrahend], diff)

    return rows, {label: crossings(*pair) for label, pair in differences.items()}


THETA_DIFFERENCES = {"B2-B1": ("B2", "B1"), "D_WN-logC": ("D_WN", "logC"), "D_WN-B1": ("D_WN", "B1")}


class TestFindCrossings:
    def test_single_linear_crossing(self):
        xs = np.linspace(0.0, 1.0, 11)
        values = xs - 0.37
        crossings = find_crossings(xs, values, lambda x: x - 0.37)
        assert len(crossings) == 1
        assert abs(crossings[0] - 0.37) < 1e-3

    def test_zero_endpoint_is_not_a_crossing(self):
        xs = np.linspace(0.0, 1.0, 11)
        values = np.concatenate([[0.0], np.ones(10)])
        assert find_crossings(xs, values, lambda x: 1.0) == ()

    @pytest.mark.parametrize("steps", [7, 10, 31, 100])
    def test_several_roots_match_scalar_bisection(self, steps):
        xs = np.linspace(0.0, np.pi, steps)
        calls = []

        def diff(x):
            calls.append(np.shape(x))
            return np.sin(3.0 * x)

        found = find_crossings(xs, np.sin(3.0 * xs), diff)
        assert found == reference_crossings(xs, np.sin(3.0 * xs), lambda x: np.sin(3.0 * x))
        assert len(found) == 2
        np.testing.assert_allclose(found, [np.pi / 3, 2 * np.pi / 3], atol=1e-4)
        # Every bracket is bisected in each call: one call per halving, not per bracket.
        assert calls[0] == (2,)
        assert len(calls) == int(np.ceil(np.log2((xs[1] - xs[0]) / CROSSOVER_TOL)))

    def test_exact_zero_midpoint_ends_its_bracket(self):
        xs = np.array([0.0, 0.25, 0.75, 1.0])

        def f(x):
            return (x - 0.5) * (x - 0.8125)

        calls = []

        def diff(x):
            calls.append(np.array(x))
            return f(x)

        found = find_crossings(xs, f(xs), diff)
        assert found == reference_crossings(xs, f(xs), f) == (0.5, 0.8125)
        # The first bracket ends at its first midpoint; the second at its second.
        np.testing.assert_array_equal(calls[0], [0.5, 0.875])
        np.testing.assert_array_equal(calls[1], [0.8125])
        assert len(calls) == 2


class TestAgainstRowReference:
    """The stacked grid and bisection reproduce the per-row reference."""

    @pytest.mark.parametrize("eta, zeta", [(1.0, 1.0), (0.8, 0.9), (0.3, 0.7), (0.5, 0.2), (0.0, 1.0), (1.0, 0.0)])
    def test_theta_sweep(self, eta, zeta):
        config = theta_config(eta, zeta, steps=181)
        rows, crossovers = reference_sweep(
            config, lambda t: reference_theta_row(t, eta, zeta), THETA_COLUMNS, THETA_DIFFERENCES
        )
        result = theta_sweep(config)
        np.testing.assert_allclose(np.array(result.rows), np.array(rows), atol=1e-12, rtol=0)
        assert result.crossovers == crossovers

    def test_damping_sweep(self):
        config = damping_config(steps=101)
        rows, crossovers = reference_sweep(
            config, reference_damping_row, DAMPING_COLUMNS, {"D_AD-logC": ("D_AD", "logC_numeric")}
        )
        result = damping_sweep(config)
        np.testing.assert_allclose(np.array(result.rows), np.array(rows), atol=1e-12, rtol=0)
        assert result.crossovers == crossovers

    def test_rows_hold_python_floats(self):
        result = theta_sweep(theta_config(0.7, 0.5, steps=5))
        assert all(type(value) is float for row in result.rows for value in row)


class TestNoPhantomCrossing:
    """With one noise level 0, D_WN - B1 = 1 - mu touches zero at pi/2 only.

    Grid and bisection compute B1 by one formula, so roundoff at pi/2 cannot
    put a crossing a whole grid step away from it.
    """

    @pytest.mark.parametrize("eta, zeta", [(0.0, 1.0), (1.0, 0.0)])
    def test_d_wn_b1_crossings_at_right_angle(self, eta, zeta):
        crossings = theta_sweep(theta_config(eta, zeta, steps=181)).crossovers["D_WN-B1"]
        assert crossings
        assert all(abs(x - np.pi / 2) < 1e-3 for x in crossings)


def _count_calls(monkeypatch, module, name, counts, shapes=None):
    real = getattr(module, name)

    def counting(*args, **kwargs):
        counts[name] += 1
        if shapes is not None:
            shapes.append(np.shape(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


class TestSweepWork:
    """The grid is one call of the sweep's column function, and each
    bisection step is one stacked call of it for every open bracket."""

    @pytest.fixture
    def work(self, monkeypatch):
        names = ("_majorization", "coles_bound", "_theta_columns", "_damping_columns")
        counts = dict.fromkeys(names, 0)
        shapes = []
        for name in ("_majorization", "coles_bound"):
            _count_calls(monkeypatch, bounds, name, counts)
        for name in ("_theta_columns", "_damping_columns"):
            _count_calls(monkeypatch, sweeps, name, counts, shapes)
        searches = []
        real_find = sweeps.find_crossings

        def recording_find(xs, values, diff, *args):
            before = dict(counts)
            steps = 0

            def counted(x):
                nonlocal steps
                steps += 1
                return diff(x)

            found = real_find(xs, values, counted, *args)
            searches.append((steps, {k: counts[k] - before[k] for k in counts}, found))
            return found

        monkeypatch.setattr(sweeps, "find_crossings", recording_find)
        return counts, shapes, searches

    def test_theta_sweep(self, work):
        counts, shapes, searches = work
        steps = 61
        result = theta_sweep(theta_config(0.8, 0.9, steps=steps))
        assert [found for _, _, found in searches] == list(result.crossovers.values())
        assert all(found for _, _, found in searches)
        # One grid call over all 61 angles, no call per grid row.
        assert shapes[0] == (steps,)
        total_steps = sum(n for n, _, _ in searches)
        assert counts["_theta_columns"] == 1 + total_steps
        assert counts["_majorization"] == counts["coles_bound"] == 1 + total_steps
        (b2_b1_steps, b2_b1, _), _, _ = searches
        assert b2_b1["_majorization"] == b2_b1_steps
        # Bisection halves every bracket per call: the step count is the
        # number of halvings of one grid interval, whatever the bracket count.
        halvings = int(np.ceil(np.log2((np.pi / (steps - 1)) / CROSSOVER_TOL)))
        assert all(n == halvings for n, _, _ in searches)

    def test_damping_sweep(self, work):
        counts, shapes, searches = work
        steps = 41
        result = damping_sweep(damping_config(steps=steps))
        ((bisection_steps, delta, found),) = searches
        assert found == result.crossovers["D_AD-logC"] != ()
        assert shapes[0] == (steps,)
        assert counts["_damping_columns"] == 1 + bisection_steps
        assert delta["_damping_columns"] == delta["coles_bound"] == bisection_steps
