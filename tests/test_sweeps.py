import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest

from oracles import crossing_roots
from unsharp import bounds, povm, sweeps
from unsharp.bounds import device_uncertainty_white_noise
from unsharp.povm import Povm, amplitude_damping_povm, mub_fourier_basis, white_noise_povm
from unsharp.uncertainty import binary_entropy, f_white_noise, shannon_entropy
from unsharp.sweeps import (
    CROSSOVER_DECIMALS,
    DAMPING_COLUMNS,
    MAX_STEPS,
    THETA_COLUMNS,
    SweepConfig,
    find_crossings,
    run_sweep,
    spin_basis,
)


def theta_config(eta, zeta, steps=61):
    return SweepConfig(kind="theta", start=0.0, stop=float(np.pi), steps=steps, eta=eta, zeta=zeta)


def damping_config(steps=41):
    return SweepConfig(kind="damping", start=0.0, stop=1.0, steps=steps)


def theta_point(theta, eta, zeta):
    """The angle-sweep columns at one angle, through the sweep's column function."""
    columns = sweeps._theta_columns_of(eta, zeta)(np.array([theta]))
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
        result = run_sweep(theta_config(0.8, 0.9, steps=13))
        assert tuple(result.table) == THETA_COLUMNS
        for values in result.table.values():
            assert values.shape == (13,)
            assert np.all(np.isfinite(values))
            assert not values.flags.writeable

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
        result = run_sweep(theta_config(0.6, 0.8, steps=9))
        expected = device_uncertainty_white_noise(0.6, 2) + device_uncertainty_white_noise(0.8, 2)
        np.testing.assert_allclose(result.table["D_WN"], expected, atol=1e-12)

    def test_crossovers_sharp_case(self):
        result = run_sweep(theta_config(1.0, 1.0, steps=181))
        crossings = result.crossovers["B2-B1"]
        assert len(crossings) == 2
        assert abs((np.pi / 2 - crossings[0]) - 0.15) < 0.02
        assert abs((crossings[1] - np.pi / 2) - 0.15) < 0.02

    def test_csv_deterministic(self):
        config = theta_config(0.7, 0.5, steps=11)
        assert list(run_sweep(config).csv_lines()) == list(run_sweep(config).csv_lines())

    def test_csv_structure(self, tmp_path):
        path = tmp_path / "sweep.csv"
        result = run_sweep(theta_config(1.0, 1.0, steps=7))
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
        result = run_sweep(damping_config(steps=11))
        assert tuple(result.table) == DAMPING_COLUMNS
        first = {name: values[0] for name, values in result.table.items()}
        last = {name: values[-1] for name, values in result.table.items()}
        assert first["logC_numeric"] == pytest.approx(np.log2(3.0), abs=1e-10)
        assert first["D_AD"] == pytest.approx(0.0, abs=1e-12)
        assert last["logC_numeric"] == pytest.approx(0.0, abs=1e-10)
        assert last["D_AD"] == pytest.approx(0.0, abs=1e-12)

    def test_crossover_near_paper_value(self):
        result = run_sweep(damping_config(steps=101))
        crossings = result.crossovers["D_AD-logC"]
        assert len(crossings) == 1
        assert abs(crossings[0] - 0.564) < 0.005

    def test_d_ad_closed_form(self):
        # On the d = 3 Fourier pair, D_AD(e) = (1 - 1/sqrt 3) H_bin(e). From the
        # stated damping spectra it holds to an ulp or two, and exactly at e = 0.
        result = run_sweep(damping_config(steps=101))
        e, d_ad = result.table["e"], result.table["D_AD"]
        np.testing.assert_allclose(d_ad, (1.0 - 1.0 / np.sqrt(3.0)) * binary_entropy(e), rtol=0, atol=1e-15)
        assert d_ad[0] == 0.0

    def test_symmetry_of_pair_bound(self):
        result = run_sweep(damping_config(steps=21))
        d_ad = result.table["D_AD"]
        np.testing.assert_allclose(d_ad, d_ad[::-1], atol=1e-12)


# --- Per-row reference -------------------------------------------------------
# One grid point per call and one bracket at a time, refined by plain
# bisection with find_crossings' stop, written for scalars: the reference that
# the stacked grid and refinement must match. Each difference is refined
# through the same row function as the grid. The same bisection is the
# reference for the results and call counts of the refinement.


def reference_theta_row(theta, eta, zeta):
    """mu = -log2 (w_1 - 1)^2 and Q(W) = sum_k f(W_k, min(eta, zeta)) from the
    majorization vector, without the package's basis-pair kernel."""
    basis_a, basis_z = spin_basis(theta), np.eye(2, dtype=complex)
    w, big_w = bounds.majorization_vector(basis_a, basis_z)
    d_eta = device_uncertainty_white_noise(eta, 2)
    d_zeta = device_uncertainty_white_noise(zeta, 2)
    qw = sum(f_white_noise(p, min(eta, zeta), 2) for p in [*big_w.tolist(), 0.0])
    b1 = float(-np.log2((w[0] - 1.0) ** 2)) + min(d_eta, d_zeta)
    log_c = bounds.coles_bound(white_noise_povm(basis_a, eta), white_noise_povm(basis_z, zeta))
    return (theta, b1, qw + d_eta + d_zeta, log_c, d_eta + d_zeta, shannon_entropy(big_w), qw)


def reference_damping_row(e):
    basis_x, basis_z = mub_fourier_basis(3)
    pa, pb = amplitude_damping_povm(basis_x, e), amplitude_damping_povm(basis_z, e)
    return (
        e,
        bounds.coles_bound(pa, pb),
        bounds.ad_coles_closed_form(e),
        bounds.min_pair_device_bound(pa, pb),
    )


def rounded(x):
    return np.round(x, CROSSOVER_DECIMALS)


def unsettled(lo, hi):
    return rounded(lo) != rounded(hi) and hi - lo > sweeps._WIDTH_FLOOR


def reference_bisect(diff, lo, hi):
    """Plain bisection of one bracket, stopped as find_crossings stops:
    the crossing it reports and its number of diff calls after the grid."""
    f_lo, calls = diff(lo), 0
    while unsettled(lo, hi):
        mid = (lo + hi) / 2.0
        f_mid = diff(mid)
        calls += 1
        if f_mid == 0.0:
            lo = hi = mid
        elif (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return float(rounded((lo + hi) / 2.0)), calls


def reference_brackets(xs, values, diff, refine=reference_bisect, scale=None):
    """refine every bracket: {grid index: (crossing, calls)}. Given the larger
    column magnitude at each grid point, ``scale``, a bracket whose ends both
    differ by roundoff only is skipped."""

    def roundoff(i):
        return scale is not None and abs(float(values[i])) <= sweeps._ROUNDOFF_REL * float(scale[i])

    return {
        i: refine(diff, float(xs[i]), float(xs[i + 1]))
        for i in range(len(xs) - 1)
        if float(values[i]) * float(values[i + 1]) < 0.0 and not (roundoff(i) and roundoff(i + 1))
    }


def reference_crossings(xs, values, diff, refine=reference_bisect, scale=None):
    return tuple(dict.fromkeys(found for found, _ in reference_brackets(xs, values, diff, refine, scale).values()))


def correctly_rounded(roots):
    """Each label's roots rounded, in grid order, without duplicates."""
    return {label: tuple(dict.fromkeys(round(x, CROSSOVER_DECIMALS) for x in found)) for label, found in roots.items()}


def reference_sweep(config, row, columns, differences):
    grid = config.grid()
    rows = [row(x) for x in grid]
    table = dict(zip(columns, np.array(rows).T))

    def crossings(minuend, subtrahend):
        def diff(x):
            values = dict(zip(columns, row(x)))
            return values[minuend] - values[subtrahend]

        scale = np.maximum(np.abs(table[minuend]), np.abs(table[subtrahend]))
        return reference_crossings(grid, table[minuend] - table[subtrahend], diff, scale=scale)

    return rows, {label: crossings(*pair) for label, pair in differences.items()}


THETA_DIFFERENCES = {"B2-B1": ("B2", "B1"), "D_WN-logC": ("D_WN", "logC"), "D_WN-B1": ("D_WN", "B1")}


def one_difference(xs, f, calls=None):
    """find_crossings for the single difference f(x) - 0; each refinement
    call's points are appended to calls."""

    def columns_of(x):
        if calls is not None:
            calls.append(np.array(x))
        return {"f": f(x), "zero": np.zeros(np.shape(x))}

    table = {"f": f(xs), "zero": np.zeros(xs.shape)}
    return find_crossings(xs, table, {"f": ("f", "zero")}, columns_of)["f"]


def calls_per_bracket(xs, calls):
    """{grid index i: calls that probed (xs[i], xs[i + 1])}, checking that
    every call probes one interval at most five times (the midpoint and the
    two edges of each of two rounding cells)."""
    counts = Counter()
    for points in calls:
        probes = Counter((np.searchsorted(xs, points, side="right") - 1).tolist())
        assert max(probes.values()) <= 5
        counts.update(probes.keys())
    return counts


def sin3(x):
    return np.sin(3.0 * x)


def assert_refines_like_bisection(xs, f):
    """find_crossings of f(x) - 0 reports what plain bisection with the same
    stop reports, in at most one call more per bracket, every bracket probed
    five times in the first call (the midpoint and the inner edges of the
    regula-falsi estimate's rounding cell and of its neighbour). Returns the
    crossings."""
    calls = []
    found = one_difference(xs, f, calls)
    brackets = reference_brackets(xs, f(xs), f)
    assert found == reference_crossings(xs, f(xs), f)
    counts = calls_per_bracket(xs, calls)
    assert set(counts) <= set(brackets)
    for i, (_, bisection_calls) in brackets.items():
        assert counts[i] <= bisection_calls + 1
    assert calls[0].shape == (5 * len(brackets),)
    assert len(calls) == max(counts.values())
    return found


class TestFindCrossings:
    def test_single_linear_crossing(self):
        xs = np.linspace(0.0, 1.0, 11)
        assert one_difference(xs, lambda x: x - 0.37) == (0.37,)

    def test_rounding_is_numpys(self):
        # The refinement rounds Python floats; its stop rule and its results
        # must round as np.round does, halfway cases included.
        rng = np.random.default_rng(3)
        xs = np.concatenate([rng.uniform(0.0, np.pi, 1000), (np.arange(1000) + 0.5) / 10**CROSSOVER_DECIMALS])
        assert [sweeps._rounded(x) for x in xs.tolist()] == np.round(xs, CROSSOVER_DECIMALS).tolist()

    def test_zero_endpoint_is_not_a_crossing(self):
        xs = np.linspace(0.0, 1.0, 11)
        calls = []
        assert one_difference(xs, lambda x: np.where(x == 0.0, 0.0, 1.0), calls) == ()
        assert calls == []

    @pytest.mark.parametrize("steps", [7, 10, 31, 100, 181])
    def test_several_roots_match_scalar_bisection(self, steps):
        xs = np.linspace(0.0, np.pi, steps)
        assert assert_refines_like_bisection(xs, sin3) == (1.0472, 2.0944)

    @pytest.mark.parametrize(
        "f, root",
        [
            (lambda x: np.cbrt(x - 0.37), 0.37),
            (lambda x: np.tanh(50.0 * (x - 0.41234)), 0.4123),
            # Interpolation alone takes about 950 calls on this triple root.
            (lambda x: (x - 0.37) ** 3, 0.37),
        ],
        ids=["cbrt", "tanh", "cube"],
    )
    # The regula-falsi estimate must not warn on these slopes either.
    @pytest.mark.filterwarnings("error")
    def test_infinite_steep_and_flat_slopes(self, f, root):
        assert assert_refines_like_bisection(np.linspace(0.0, 1.0, 11), f) == (root,)

    def test_exact_zero_midpoint_ends_its_bracket(self):
        xs = np.array([0.0, 0.25, 0.75, 1.0])

        def f(x):
            # Linear on [0.25, 0.75], whose midpoint is its root 0.5.
            return np.where(x <= 0.75, x - 0.5, 0.8 - x**2)

        calls = []
        found = one_difference(xs, f, calls)
        assert found == reference_crossings(xs, f(xs), f) == (0.5, 0.8944)
        # The first bracket ends at its midpoint, between the two edges of
        # its estimate's cell, which do not end it; the second goes on alone.
        # The first bracket's regula-falsi estimate is 0.5, and the
        # neighbouring cell is the one above.
        assert calls[0].shape == (10,) and calls[0][0] == 0.5
        assert calls[0][1] < 0.5 < calls[0][2] < calls[0][3] < calls[0][4] < 0.5002
        assert len(calls) > 1 and all(points.shape == (5,) for points in calls[1:])

    def test_roundoff_difference_is_not_a_crossing(self):
        # Two columns equal up to an ulp or two: their difference changes
        # sign on every grid interval, but is roundoff, not a root.
        xs = np.linspace(0.0, 1.0, 11)
        wobble = np.where(np.arange(11) % 2 == 0, 1.0 + 2.0**-51, 1.0 - 2.0**-52)
        calls = []
        table = {"a": wobble, "b": np.ones(11)}
        assert find_crossings(xs, table, {"a-b": ("a", "b")}, calls.append) == {"a-b": ()}
        assert calls == []

    def test_tiny_difference_beyond_roundoff_is_a_crossing(self):
        # A difference of 1e-9 (x - 0.37) between two columns of about 1 lies
        # far below the columns but far above their roundoff.
        xs = np.linspace(0.0, 1.0, 11)

        def columns_of(x):
            return {"a": 1.0 + 1e-9 * (x - 0.37), "b": np.ones(np.shape(x))}

        assert find_crossings(xs, columns_of(xs), {"a-b": ("a", "b")}, columns_of) == {"a-b": (0.37,)}

    def test_differences_share_each_call(self):
        xs = np.linspace(0.0, np.pi, 31)
        functions = {"s3": sin3, "c2": lambda x: np.cos(2.0 * x), "one": np.ones_like}
        calls = []

        def columns_of(x):
            calls.append(np.array(x))
            return {"zero": np.zeros(np.shape(x)), **{name: f(x) for name, f in functions.items()}}

        table = {"zero": np.zeros(xs.shape), **{name: f(xs) for name, f in functions.items()}}
        differences = {"s3": ("s3", "zero"), "flat": ("one", "zero"), "c2": ("zero", "c2")}
        found = find_crossings(xs, table, differences, columns_of)
        assert list(found) == list(differences)
        assert found["s3"] == reference_crossings(xs, table["s3"], functions["s3"])
        assert found["c2"] == reference_crossings(xs, -table["c2"], lambda x: -functions["c2"](x))
        assert found["flat"] == ()
        assert len(found["s3"]) == len(found["c2"]) == 2
        # The four brackets of both crossing differences share every call,
        # five probes each in the first.
        assert calls[0].shape == (20,)
        assert len(calls) == max(calls_per_bracket(xs, calls).values())


DAMPING_DIFFERENCES = {"D_AD-logC": ("D_AD", "logC_numeric")}


def assert_sweep_matches_bisection(config):
    """run_sweep's crossovers equal plain bisection of each difference, one
    point per call through the sweep's column function."""
    result = run_sweep(config)
    if config.kind == "theta":
        columns_of, differences = sweeps._theta_columns_of(config.eta, config.zeta), THETA_DIFFERENCES
    else:
        columns_of, differences = sweeps._damping_columns, DAMPING_DIFFERENCES
    grid, table = config.grid(), result.table
    for label, (minuend, subtrahend) in differences.items():

        def diff(x):
            columns = columns_of(np.array([x]))
            return float(columns[minuend][0] - columns[subtrahend][0])

        scale = np.maximum(np.abs(table[minuend]), np.abs(table[subtrahend]))
        assert result.crossovers[label] == reference_crossings(grid, table[minuend] - table[subtrahend], diff, scale=scale)
    return result.crossovers


@pytest.mark.filterwarnings("error")
class TestWindowEstimate:
    """The regula-falsi estimate on brackets whose grid window is cut short
    by the grid's end, flat or holds an exact zero, and on short sweeps: no
    floating-point warning, and the crossovers of plain bisection."""

    def test_estimate_is_regula_falsi(self):
        # The bracket (0.3, 0.4) of x**3 - 0.05: regula falsi on its ends
        # gives 0.36216, in cell 0.3622 whose neighbour on that side is
        # 0.3621. The root lies in cell 0.3684, and inverse cubic
        # interpolation through the grid points 0.2 .. 0.5 gives 0.37285.
        xs = np.linspace(0.0, 1.0, 11)
        calls = []
        assert one_difference(xs, lambda x: x**3 - 0.05, calls) == (0.3684,)
        assert calls[0].shape == (5,) and calls[0][0] == pytest.approx(0.35)
        assert np.round(calls[0][1:], CROSSOVER_DECIMALS).tolist() == [0.3622, 0.3622, 0.3621, 0.3621]

    @pytest.mark.parametrize(
        "steps, f, root",
        [
            (2, lambda x: x - 0.37, 0.37),
            (3, lambda x: x - 0.37, 0.37),
            (11, lambda x: (x - 0.03) ** 3, 0.03),
            (11, lambda x: (x - 0.97) ** 3, 0.97),
            (11, lambda x: np.clip(x - 0.37, -0.05, 0.05), 0.37),
        ],
        ids=["steps-2", "steps-3", "first-interval", "last-interval", "flat"],
    )
    def test_fallback_windows(self, steps, f, root):
        assert assert_refines_like_bisection(np.linspace(0.0, 1.0, steps), f) == (root,)

    def test_exact_zero_in_window(self):
        xs = np.linspace(0.0, 1.0, 11)

        def f(x):
            return (x - 0.37) * (x - 0.2)

        assert f(xs)[2] == 0.0
        assert assert_refines_like_bisection(xs, f) == (0.37,)

    @pytest.mark.parametrize(
        "eta, zeta, steps",
        # At eta = 1, zeta = 0, D_WN and -log2 C both equal 1 bit at every angle.
        [(1.0, 0.0, 181)] + [(eta, zeta, steps) for eta, zeta in [(1.0, 1.0), (0.8, 0.9), (1.0, 0.0)] for steps in (2, 3)],
    )
    def test_theta_sweeps(self, eta, zeta, steps):
        crossovers = assert_sweep_matches_bisection(theta_config(eta, zeta, steps=steps))
        if (eta, zeta) == (1.0, 0.0):
            assert crossovers["D_WN-logC"] == ()

    @pytest.mark.parametrize("steps", [2, 3])
    def test_damping_sweeps(self, steps):
        assert_sweep_matches_bisection(damping_config(steps=steps))


class TestAgainstRowReference:
    """The stacked grid and refinement reproduce the per-row reference."""

    @pytest.mark.parametrize("eta, zeta", [(1.0, 1.0), (0.8, 0.9), (0.3, 0.7), (0.5, 0.2), (0.0, 1.0), (1.0, 0.0)])
    def test_theta_sweep(self, eta, zeta):
        config = theta_config(eta, zeta, steps=181)
        rows, crossovers = reference_sweep(
            config, lambda t: reference_theta_row(t, eta, zeta), THETA_COLUMNS, THETA_DIFFERENCES
        )
        result = run_sweep(config)
        np.testing.assert_allclose(np.column_stack(list(result.table.values())), np.array(rows), atol=1e-12, rtol=0)
        assert result.crossovers == crossovers

    def test_damping_sweep(self):
        config = damping_config(steps=101)
        rows, crossovers = reference_sweep(config, reference_damping_row, DAMPING_COLUMNS, DAMPING_DIFFERENCES)
        result = run_sweep(config)
        np.testing.assert_allclose(np.column_stack(list(result.table.values())), np.array(rows), atol=1e-12, rtol=0)
        assert result.crossovers == crossovers

    def test_csv_cells_format_table_values(self, monkeypatch):
        # Blocks of 4 rows, the last one partial; csv_lines yields each block
        # of rows as one piece.
        monkeypatch.setattr(sweeps, "_GRID_BLOCK", 4)
        result = run_sweep(theta_config(0.7, 0.5, steps=11))
        lines = "\n".join(result.csv_lines()).split("\n")
        header = lines.index(",".join(THETA_COLUMNS))
        cells = [line.split(",") for line in lines[header + 1 :]]
        expected = [[f"{float(x):.12g}" for x in values] for values in result.table.values()]
        assert [list(column) for column in zip(*cells)] == expected

    def test_written_file_joins_the_pieces(self, tmp_path, monkeypatch):
        # 11 rows in blocks of 4, 4 and 3, each block written as one piece.
        monkeypatch.setattr(sweeps, "_GRID_BLOCK", 4)
        result = run_sweep(theta_config(0.7, 0.5, steps=11))
        result.write_csv(tmp_path / "sweep.csv")
        pieces = list(result.csv_lines())
        assert (tmp_path / "sweep.csv").read_bytes().decode("utf-8") == "\n".join(pieces) + "\n"
        rows = pieces[pieces.index(",".join(THETA_COLUMNS)) + 1 :]
        assert [len(piece.split("\n")) for piece in rows] == [4, 4, 3]

    def test_percent_format_matches_format_spec(self):
        # Rows are formatted by one "%.12g,..." format; it must print every
        # float as f"{x:.12g}" does, the cell format the CSV has always had.
        specials = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 3.0, -2.0, 1e12, 123456789012.0, 0.1]
        extremes = []
        for result in (run_sweep(theta_config(0.8, 0.9, steps=181)), run_sweep(damping_config(steps=101))):
            for values in result.table.values():
                nonzero = np.abs(values[values != 0.0])
                extremes += [values.min(), values.max(), nonzero.min(initial=np.inf), nonzero.max(initial=0.0)]
        for x in specials + [float(x) for x in extremes]:
            assert "%.12g" % x == f"{x:.12g}"


NOISE_GRID = sorted(set(product((0.0, 0.3, 0.8, 1.0), (0.0, 0.6, 0.9, 1.0))))


class TestCorrectlyRounded:
    """Every crossover is its root, found by bisection to 1e-13 through the
    same column function, rounded to CROSSOVER_DECIMALS decimals."""

    @pytest.mark.parametrize("eta, zeta", NOISE_GRID)
    def test_theta_sweep(self, eta, zeta):
        config = theta_config(eta, zeta, steps=181)
        result = run_sweep(config)
        columns_of = sweeps._theta_columns_of(eta, zeta)
        roots = crossing_roots(config.grid(), result.table, THETA_DIFFERENCES, columns_of)
        crossovers, expected = dict(result.crossovers), correctly_rounded(roots)
        if (eta, zeta) == (1.0, 0.0):
            # Here D_WN and -log2 C both equal 1 bit at every angle, so
            # D_WN - logC is roundoff: it has no root, and the one grid sign
            # change that the oracle bisects is not a crossing.
            assert np.abs(result.table["D_WN"] - result.table["logC"]).max() < 1e-15
            assert crossovers.pop("D_WN-logC") == ()
            expected.pop("D_WN-logC")
        assert crossovers == expected

    def test_damping_sweep(self):
        config = damping_config(steps=101)
        result = run_sweep(config)
        differences = {"D_AD-logC": ("D_AD", "logC_numeric")}
        roots = crossing_roots(config.grid(), result.table, differences, sweeps._damping_columns)
        assert result.crossovers == correctly_rounded(roots) == {"D_AD-logC": (0.564,)}


class TestNoPhantomCrossing:
    """With one noise level 0, D_WN - B1 = 1 - mu touches zero at pi/2 only.

    Grid and refinement compute B1 by one formula, so roundoff at pi/2 cannot
    put a crossing a whole grid step away from it.
    """

    def test_coinciding_bounds_do_not_cross(self):
        # At eta = 1, zeta = 0, D_WN and -log2 C both equal 1 bit at every angle.
        assert run_sweep(theta_config(1.0, 0.0, steps=181)).crossovers["D_WN-logC"] == ()

    @pytest.mark.parametrize("eta, zeta", [(0.0, 1.0), (1.0, 0.0)])
    def test_d_wn_b1_crossings_at_right_angle(self, eta, zeta):
        crossings = run_sweep(theta_config(eta, zeta, steps=181)).crossovers["D_WN-B1"]
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
    """The grid is one call of the sweep's column function per block of
    grid points, and each refinement step is one stacked call of it for every
    open bracket of every difference."""

    @pytest.fixture
    def work(self, monkeypatch):
        counts, shapes = Counter(), []
        for name in ("_majorization", "_white_noise_coles", "coles_bound", "device_uncertainty_white_noise"):
            _count_calls(monkeypatch, bounds, name, counts)
        # Every builder makes its Povm through _stated or Povm.__post_init__.
        for name in ("white_noise_povm", "_stated"):
            _count_calls(monkeypatch, povm, name, counts)
        _count_calls(monkeypatch, sweeps, "_damping_columns", counts, shapes)
        _count_calls(monkeypatch, Povm, "__post_init__", counts)
        for name in ("eigh", "eigvalsh"):
            _count_calls(monkeypatch, np.linalg, name, counts)
        real_factory = sweeps._theta_columns_of

        def factory(*args):
            # One theta column function per sweep; "_theta_columns" counts its calls.
            counts["_theta_columns_of"] += 1
            columns_of = real_factory(*args)

            def counted(theta):
                counts["_theta_columns"] += 1
                shapes.append(np.shape(theta))
                return columns_of(theta)

            return counted

        monkeypatch.setattr(sweeps, "_theta_columns_of", factory)
        searches = []
        real_find = sweeps.find_crossings

        def recording_find(xs, table, differences, columns_of):
            before = dict(counts)
            steps = []

            def counted(x):
                steps.append(np.shape(x))
                return columns_of(x)

            found = real_find(xs, table, differences, counted)
            searches.append((steps, {k: counts[k] - before.get(k, 0) for k in counts}, found))
            return found

        monkeypatch.setattr(sweeps, "find_crossings", recording_find)
        return counts, shapes, searches

    def test_theta_sweep(self, work):
        counts, shapes, searches = work
        steps = 181
        result = run_sweep(theta_config(0.8, 0.9, steps=steps))
        ((refinement, delta, found),) = searches
        assert found == result.crossovers
        assert all(len(points) == 2 for points in found.values())
        # One grid call over all 181 angles, no call per grid row.
        assert shapes[0] == (steps,)
        # The first call probes every bracket of every difference five times;
        # all six are correctly rounded within 6 calls.
        assert refinement[0] == (30,)
        assert len(refinement) <= 6
        assert counts["_theta_columns_of"] == 1
        assert counts["_theta_columns"] == 1 + len(refinement)
        assert counts["_majorization"] == counts["_white_noise_coles"] == 1 + len(refinement)
        assert delta["_majorization"] == delta["_white_noise_coles"] == len(refinement)
        # Every column comes from the overlap matrices: the sweep builds no
        # POVM and runs no eigensolver, and both D_WN values are computed once.
        for name in ("coles_bound", "white_noise_povm", "_stated", "__post_init__", "eigh", "eigvalsh"):
            assert counts[name] == 0, name
        assert counts["device_uncertainty_white_noise"] == 2
        assert delta["device_uncertainty_white_noise"] == 0

    def test_sharp_theta_sweep(self, work):
        _, _, searches = work
        result = run_sweep(theta_config(1.0, 1.0, steps=181))
        ((refinement, _, found),) = searches
        assert found == result.crossovers
        assert refinement[0] == (5 * len(found["B2-B1"]),) == (10,)
        assert len(refinement) <= 6

    def test_damping_sweep(self, work):
        counts, shapes, searches = work
        steps = 101
        result = run_sweep(damping_config(steps=steps))
        ((refinement, delta, found),) = searches
        assert found == result.crossovers
        assert found["D_AD-logC"] != ()
        assert shapes[0] == (steps,)
        assert len(refinement) <= 4
        assert counts["_damping_columns"] == 1 + len(refinement)
        assert delta["_damping_columns"] == delta["coles_bound"] == len(refinement)
        # Both damping POVMs of every call come from their stated spectra.
        assert counts["__post_init__"] == counts["eigh"] == 0

    @pytest.mark.parametrize(
        "config", [damping_config(steps=101), theta_config(1.0, 1.0, steps=181)], ids=["damping", "sharp-theta"]
    )
    def test_default_sweeps_settle_in_one_call(self, work, config):
        # Each crossing of these default sweeps lies in the rounding cell of
        # its regula-falsi estimate or in the neighbouring cell probed with it.
        _, _, searches = work
        run_sweep(config)
        ((refinement, _, _),) = searches
        assert len(refinement) == 1

    def test_noise_grid_settles_in_one_call(self, work):
        # Over (eta, zeta) in {0, 0.1, ..., 1}^2 at the default 181 angles,
        # all but a few sweeps settle every crossing in the first call.
        _, _, searches = work
        levels = [i / 10 for i in range(11)]
        for eta, zeta in product(levels, levels):
            run_sweep(theta_config(eta, zeta, steps=181))
        calls = [len(refinement) for refinement, _, _ in searches]
        assert len(calls) == 121
        assert sum(n <= 1 for n in calls) >= 115
        assert max(calls) <= 2

    def test_coarse_noise_grid_settles_in_three_calls(self, work):
        # At 37 angles some regula-falsi estimates miss both of their cells; with
        # the midpoint probed on every step, every sweep over (eta, zeta) in
        # {0, 0.1, ..., 1}^2 still settles all its crossings in three calls.
        _, _, searches = work
        levels = [i / 10 for i in range(11)]
        for eta, zeta in product(levels, levels):
            run_sweep(theta_config(eta, zeta, steps=37))
        calls = [len(refinement) for refinement, _, _ in searches]
        assert len(calls) == 121
        assert max(calls) <= 3

    def test_grid_in_blocks(self, work, monkeypatch):
        counts, shapes, searches = work
        whole = run_sweep(theta_config(0.3, 0.7, steps=61))
        whole_text = "\n".join(whole.csv_lines())
        shapes.clear()
        monkeypatch.setattr(sweeps, "_GRID_BLOCK", 7)
        blocked = run_sweep(theta_config(0.3, 0.7, steps=61))
        # 61 points in blocks of 7, then the refinement calls.
        assert shapes == [(7,)] * 8 + [(5,)] + searches[-1][0]
        # The fixed side is built once per sweep, not once per block.
        assert counts["_theta_columns_of"] == 2
        assert counts["device_uncertainty_white_noise"] == 4
        assert list(blocked.table) == list(whole.table)
        for name, values in whole.table.items():
            np.testing.assert_array_equal(blocked.table[name], values)
        assert blocked.crossovers == whole.crossovers
        # The CSV rows are formatted in blocks of 7 here, in one block above.
        assert "\n".join(blocked.csv_lines()) == whole_text


class TestCsvMemory:
    def test_run_sweep_holds_only_its_table(self):
        # Each block keeps only the CSV columns, filled into the table in place:
        # the traced peak stays under twice the table that run_sweep returns.
        config = theta_config(0.8, 0.9, steps=20_001)
        tracemalloc.start()
        try:
            result = run_sweep(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * sum(values.nbytes for values in result.table.values())

    def test_write_csv_streams(self, tmp_path):
        # Writing holds one block of formatted rows, not the whole file's text:
        # the traced peak counts only what write_csv allocates above the result.
        result = run_sweep(theta_config(0.8, 0.9, steps=20_001))
        tracemalloc.start()
        try:
            result.write_csv(tmp_path / "long.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        with open(tmp_path / "long.csv", encoding="utf-8") as handle:
            assert sum(1 for line in handle if not line.startswith("#")) == 20_002
