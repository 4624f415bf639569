import numpy as np
import pytest

from unsharp import bounds, sweeps
from unsharp.bounds import device_uncertainty_white_noise
from unsharp.sweeps import (
    DAMPING_COLUMNS,
    THETA_COLUMNS,
    SweepConfig,
    damping_sweep,
    find_crossings,
    spin_basis,
    theta_row,
    theta_sweep,
)


def theta_config(eta, zeta, steps=61):
    return SweepConfig(kind="theta", start=0.0, stop=float(np.pi), steps=steps, eta=eta, zeta=zeta)


def damping_config(steps=41):
    return SweepConfig(kind="damping", start=0.0, stop=1.0, steps=steps)


class TestSweepConfig:
    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            damping_config(steps=1)

    def test_rejects_out_of_range_grid(self):
        with pytest.raises(ValueError):
            SweepConfig(kind="damping", start=0.0, stop=1.5, steps=11)
        with pytest.raises(ValueError):
            SweepConfig(kind="theta", start=-0.5, stop=1.0, steps=11, eta=1.0, zeta=1.0)

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
        row = dict(zip(THETA_COLUMNS, theta_row(0.0, 1.0, 1.0)))
        for name in ("B1", "B2", "logC", "D_WN", "HW", "QW"):
            assert row[name] == pytest.approx(0.0, abs=1e-9)

    def test_sharp_mub_point(self):
        row = dict(zip(THETA_COLUMNS, theta_row(np.pi / 2, 1.0, 1.0)))
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


def _count_calls(monkeypatch, module, name, counts):
    real = getattr(module, name)

    def counting(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


class TestSweepWork:
    """Each grid row is evaluated once and each bisection step computes only
    the two columns it compares."""

    @pytest.fixture
    def work(self, monkeypatch):
        counts = dict.fromkeys(("majorization_vector", "coles_bound", "theta_row", "damping_row"), 0)
        for name in ("majorization_vector", "coles_bound"):
            _count_calls(monkeypatch, bounds, name, counts)
        for name in ("theta_row", "damping_row"):
            _count_calls(monkeypatch, sweeps, name, counts)
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
        return counts, searches

    def test_theta_sweep(self, work):
        counts, searches = work
        steps = 61
        result = theta_sweep(theta_config(0.8, 0.9, steps=steps))
        assert [found for _, _, found in searches] == list(result.crossovers.values())
        assert all(found for _, _, found in searches)
        assert counts["theta_row"] == steps
        (b2_b1_steps, b2_b1, _), (log_c_steps, log_c, _), (_, b1, _) = searches
        assert b2_b1["majorization_vector"] == b2_b1_steps and b2_b1["coles_bound"] == 0
        assert log_c["majorization_vector"] == 0 and log_c["coles_bound"] == log_c_steps
        assert b1["majorization_vector"] == 0 and b1["coles_bound"] == 0
        assert all(delta["theta_row"] == 0 for _, delta, _ in searches)
        assert counts["majorization_vector"] == steps + b2_b1_steps

    def test_damping_sweep(self, work):
        counts, searches = work
        steps = 41
        result = damping_sweep(damping_config(steps=steps))
        ((bisection_steps, delta, found),) = searches
        assert found == result.crossovers["D_AD-logC"] != ()
        assert counts["damping_row"] == steps
        assert delta["damping_row"] == 0 and delta["coles_bound"] == bisection_steps
