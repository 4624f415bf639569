import json
import re
from pathlib import Path

import numpy as np
import pytest

from unsharp.bounds import MAX_MAJORIZATION_DIM
from unsharp import cli
from unsharp.cli import main
from unsharp.linalg import validate_density
from unsharp.povm import make_povm, mub_fourier_basis, projective_from_basis, white_noise_povm
from unsharp.sampling import random_basis
from unsharp.serialize import povm_to_json, state_to_json
from unsharp import suites
from unsharp.suites import MAX_TRIALS, SUITES
from unsharp.sweeps import MAX_STEPS

DATA = Path(__file__).parent / "data"

@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def encode(m):
        m = np.asarray(m, dtype=complex)
        return np.stack([m.real, m.imag], axis=-1).tolist()

    basis_x, basis_z = mub_fourier_basis(2)
    return {
        "pvm_x": write("pvm_x.json", povm_to_json(projective_from_basis(basis_x))),
        "pvm_z": write("pvm_z.json", povm_to_json(projective_from_basis(basis_z))),
        "wn_half": write("wn_half.json", povm_to_json(white_noise_povm(basis_x, 0.5))),
        "trivial": write(
            "trivial.json",
            povm_to_json(make_povm([0.3 * np.eye(2), 0.7 * np.eye(2)])),
        ),
        "bad_povm": write(
            "bad_povm.json",
            {"dim": 2, "effects": [povm_to_json(projective_from_basis(basis_x))["effects"][0]] * 2},
        ),
        "mixed": write("mixed.json", state_to_json(validate_density(np.eye(2) / 2))),
        "ground": write("ground.json", {"dim": 2, "vector": [[1.0, 0.0], [0.0, 0.0]]}),
        # json.dumps writes NaN, which json.load reads back.
        "nan_povm": write(
            "nan_povm.json",
            {"dim": 2, "effects": [encode([[1.0, np.nan], [np.nan, 0.0]]), encode(np.diag([0.0, 1.0]))]},
        ),
        # Completeness residual 5e-9 < TOL_RECONSTRUCT: accepted, probabilities sum to 1 - 2.5e-9.
        "near": write("near.json", povm_to_json(make_povm([np.diag([1.0 - 5e-9, 0.0]), np.diag([0.0, 1.0])]))),
        "tmp": tmp_path,
    }


class TestValidate:
    def test_valid_povm(self, files, capsys):
        assert main(["validate", files["pvm_x"]]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "completeness residual" in out

    def test_invalid_povm_exits_one(self, files, capsys):
        assert main(["validate", files["bad_povm"]]) == 1
        assert "CompletenessViolated" in capsys.readouterr().err

    def test_malformed_json_exits_two(self, files, capsys):
        path = files["tmp"] / "broken.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2

    def test_json_error_output(self, files, capsys):
        assert main(["validate", files["bad_povm"], "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "CompletenessViolated"

    def test_nan_entry_exits_one_with_strict_json(self, files, capsys):
        assert main(["validate", files["nan_povm"], "--json"]) == 1
        payload = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert payload["error"] == "NotFinite"

    def test_json_success_output(self, files, capsys):
        assert main(["validate", files["wn_half"], "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is True
        np.testing.assert_allclose(payload["spectra"][0], [0.75, 0.25], atol=1e-12)


class TestAnalyze:
    def test_pvm_report(self, files, capsys):
        assert main(["analyze", files["pvm_x"], "--state", files["mixed"]]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["H"] == pytest.approx(1.0)
        assert row["D"] == pytest.approx(0.0, abs=1e-12)
        assert row["Q"] == pytest.approx(row["H"], abs=1e-12)

    def test_white_noise_report(self, files, capsys):
        assert main(["analyze", files["wn_half"], "--state", files["mixed"]]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["H"] == pytest.approx(1.0)
        assert row["D"] == pytest.approx(0.811278, abs=1e-6)
        assert row["Q"] == pytest.approx(0.188722, abs=1e-6)

    def test_identity_multiple_effects_have_zero_q(self, files, capsys):
        assert main(["analyze", files["trivial"], "--state", files["ground"]]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["Q"] == pytest.approx(0.0, abs=1e-12)

    def test_csv_format(self, files, capsys):
        assert main(["analyze", files["pvm_x"], "--state", files["mixed"], "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].split(",") == ["dim", "H", "D", "Q", "krishna", "minD"]
        assert len(lines) == 2

    def test_dimension_mismatch_exits_one(self, files, capsys):
        basis_x3, _ = mub_fourier_basis(3)
        path = files["tmp"] / "pvm3.json"
        path.write_text(json.dumps(povm_to_json(projective_from_basis(basis_x3))))
        assert main(["analyze", str(path), "--state", files["mixed"]]) == 1

    @pytest.mark.parametrize("state", ["mixed", "ground"])
    def test_accepted_near_tolerance_povm(self, files, capsys, state):
        assert main(["analyze", files["near"], "--state", files[state]]) == 0
        row = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert all(np.isfinite(row[key]) for key in ("H", "D", "Q", "krishna", "minD"))
        assert row["Q"] == pytest.approx(row["H"] - row["D"], abs=1e-12)


class TestBounds:
    def test_pvm_pair_report(self, files, capsys):
        assert main(["bounds", files["pvm_x"], files["pvm_z"], "--state", files["mixed"]]) == 0
        report = json.loads(capsys.readouterr().out)
        values = report["values"]
        assert values["coles_C"] == pytest.approx(1.0, abs=1e-9)
        assert values["mu"] == pytest.approx(1.0, abs=1e-9)
        assert values["HW"] == pytest.approx(0.87243, abs=1e-4)
        assert values["H_A"] + values["H_B"] >= values["B2"] - 1e-9
        assert report["metadata"]["pvm_pair"] is True

    def test_dimension_mismatch(self, files, capsys):
        basis_x3, _ = mub_fourier_basis(3)
        path = files["tmp"] / "pvm3.json"
        path.write_text(json.dumps(povm_to_json(projective_from_basis(basis_x3))))
        assert main(["bounds", files["pvm_x"], str(path)]) == 1

    def test_nan_entry_exits_one(self, files, capsys):
        assert main(["bounds", files["nan_povm"], files["pvm_z"]]) == 1
        assert json.loads(capsys.readouterr().out, parse_constant=pytest.fail)["error"] == "NotFinite"

    def test_accepted_near_tolerance_povm(self, files, capsys):
        assert main(["bounds", files["near"], files["pvm_z"], "--state", files["mixed"]]) == 0
        values = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)["values"]
        assert all(np.isfinite(list(values.values())))

    def test_projective_pair_within_completeness_tolerance(self, capsys):
        # Rank-1 projectors onto the rows of a random qubit unitary, each row
        # perturbed by 3e-9 (complex normal) and renormalized: both files pass
        # validate, but the effects' eigenvectors are orthonormal only to
        # 1.03e-8, far above basis_tol(2) = 2.5e-11. bounds used to exit 1 with
        # NotOrthonormal, and those rows are not checked against basis_tol again.
        paths = [str(DATA / f"near_orthonormal_{side}.json") for side in "ab"]
        for path in paths:
            assert main(["validate", path, "--json"]) == 0
        capsys.readouterr()
        assert main(["bounds", *paths]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert report["metadata"]["pvm_pair"] is True
        values = report["values"]
        assert all(np.isfinite(list(values.values())))
        assert values["mu"] == pytest.approx(values["coles_C"], abs=1e-8)
        assert values["B2"] == values["HW"]

    @pytest.mark.parametrize("second", ["near_orthonormal_d5.json", "near_orthonormal_d5_shared.json"])
    def test_near_orthonormal_pair_sharing_basis_vectors(self, second, capsys):
        # near_orthonormal_d5.json: projectors onto the rows of a random d = 5
        # unitary, each row perturbed by 3e-9 (complex normal) and renormalized;
        # its eigenvector rows are orthonormal to 1.04e-8. The _shared file keeps
        # its two most overlapping rows and completes them with another perturbed
        # basis. Against the file itself or its partner, a block of two shared
        # vectors has sigma_max = 1 + 1.04e-8; unless w is capped at 2 that pushes
        # the sum of W past TOL_PROB_SUM, a bare ValueError out of bounds.
        paths = [str(DATA / "near_orthonormal_d5.json"), str(DATA / second)]
        for path in paths:
            assert main(["validate", path, "--json"]) == 0
        capsys.readouterr()
        assert main(["bounds", *paths]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert report["metadata"]["pvm_pair"] is True
        values = report["values"]
        assert all(np.isfinite(list(values.values())))
        assert values["mu"] == pytest.approx(0.0, abs=1e-8)
        assert values["HW"] == pytest.approx(0.0, abs=1e-6)
        assert values["B2"] == values["HW"]

    def test_projective_pair_above_majorization_limit(self, files, capsys):
        d = MAX_MAJORIZATION_DIM + 1
        rng = np.random.default_rng(9)
        basis_a, basis_b = random_basis(d, rng), random_basis(d, rng)
        paths = []
        for name, basis in (("a9.json", basis_a), ("b9.json", basis_b)):
            path = files["tmp"] / name
            path.write_text(json.dumps(povm_to_json(projective_from_basis(basis))))
            paths.append(str(path))
        assert main(["bounds", *paths]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        values = report["values"]
        mu = -np.log2(np.max(np.abs(basis_a.conj() @ basis_b.T) ** 2))
        assert values["mu"] == pytest.approx(mu, abs=1e-12)
        assert values["B1"] == values["mu"]
        assert values["D_WN"] == 0.0
        assert not {"HW", "QW", "B2"} & set(values)
        assert any(f"d <= {MAX_MAJORIZATION_DIM}" in note for note in report["notes"])


class TestSharedParser:
    """The parser is built once per process and carries nothing between commands."""

    def test_two_commands_build_one_parser(self, files, capsys):
        cli.build_parser.cache_clear()
        assert main(["validate", files["pvm_x"]]) == 0
        assert main(["bounds", files["pvm_x"], files["pvm_z"]]) == 0
        assert cli.build_parser.cache_info().misses == 1

    def test_usage_error_leaves_next_command_unchanged(self, files, capsys):
        argv = ["bounds", files["pvm_x"], files["pvm_z"]]
        assert main(argv) == 0
        before = capsys.readouterr()
        # Rejected after every other argument, --state included, was parsed.
        with pytest.raises(SystemExit) as info:
            main([*argv, "--state", files["mixed"], "--bogus"])
        assert info.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert main(argv) == 0
        assert capsys.readouterr() == before

    def test_state_does_not_carry_over(self, files, capsys):
        assert main(["bounds", files["pvm_x"], files["pvm_z"], "--state", files["mixed"]]) == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["state"] is True
        assert main(["bounds", files["pvm_x"], files["pvm_z"]]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "state" not in report["metadata"]
        assert "H_A" not in report["values"]


class TestInputBoundary:
    """Malformed files and settings end in a typed error and exit 2, never a traceback."""

    @pytest.fixture
    def run(self, capsys):
        def run(argv, kind="ConfigError"):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(f"{kind}: ")
            assert "Traceback" not in captured.err
            return captured.err

        return run

    @pytest.mark.parametrize(
        "setting",
        [
            {"steps": None},
            {"eta": [1]},
            {"steps": 2.7},
            {"start": "zero"},
            {"out": 5},
            {"eta": "0.5"},
            {"zeta": True},
            {"start": False},
            {"start": None},
        ],
        ids=[
            "steps-null",
            "eta-list",
            "steps-fraction",
            "start-text",
            "out-number",
            "eta-numeric-text",
            "zeta-true",
            "start-false",
            "start-null",
        ],
    )
    def test_bad_config_value(self, files, run, setting):
        config = {"eta": 1.0, "zeta": 1.0, "out": str(files["tmp"] / "t.csv"), **setting}
        path = files["tmp"] / "c.json"
        path.write_text(json.dumps(config))
        (key,) = setting
        assert key in run(["sweep-theta", "--config", str(path)])
        assert not (files["tmp"] / "t.csv").exists()

    def test_deeply_nested_config(self, files, run):
        path = files["tmp"] / "deep.json"
        path.write_text("[" * 100_000)
        run(["sweep-damping", "--config", str(path), "--out", str(files["tmp"] / "d.csv")])

    def test_unwritable_out(self, files, run):
        out = files["tmp"] / "missing" / "t.csv"
        assert str(out) in run(["sweep-damping", "--steps", "5", "--out", str(out)])

    def test_non_utf8_input(self, files, run):
        path = files["tmp"] / "latin1.json"
        path.write_bytes('{"dim": 2, "effects": "\xe9"}'.encode("latin-1"))
        run(["validate", str(path)], kind="ParseError")

    def test_deeply_nested_input(self, files, run):
        path = files["tmp"] / "deep.json"
        path.write_text("[" * 100_000)
        run(["validate", str(path)], kind="ParseError")

    @pytest.mark.parametrize("dim", [2.7, "2", True, float("inf")])
    def test_non_integer_dim(self, files, run, dim):
        doc = povm_to_json(projective_from_basis(np.eye(2)))
        path = files["tmp"] / "dim.json"
        path.write_text(json.dumps({**doc, "dim": dim}))
        run(["validate", str(path)], kind="ParseError")

    def test_integral_float_dim_is_accepted(self, files, capsys):
        path = files["tmp"] / "dim.json"
        path.write_text(json.dumps({**povm_to_json(projective_from_basis(np.eye(2))), "dim": 2.0}))
        assert main(["validate", str(path)]) == 0

    # A 400-digit integer parses as a Python int that no float can hold, and
    # null must not be read as NaN; each site is one decoded array of the schema.
    @pytest.mark.parametrize("entry", [10**400, None], ids=["huge-int", "null"])
    @pytest.mark.parametrize("site", ["effect", "matrix", "vector"])
    def test_entry_that_is_not_a_float(self, files, capsys, site, entry):
        pair, zero = [[entry, 0], [0, 0]], [[0, 0], [0, 0]]
        doc = {
            "effect": {"dim": 2, "effects": [[pair, zero], [zero, [[0, 0], [1, 0]]]]},
            "matrix": {"dim": 2, "matrix": [pair, zero]},
            "vector": {"dim": 2, "vector": pair},
        }[site]
        path = files["tmp"] / "entry.json"
        path.write_text(json.dumps(doc))
        argv = ["validate", str(path), "--json"] if site == "effect" else ["analyze", files["pvm_x"], "--state", str(path)]
        assert main(argv) == 2
        payload = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert payload["error"] == "ParseError"
        assert ("effect 0: " if site == "effect" else f"state {site}: ") in payload["message"]

    def test_integer_beyond_the_parser_digit_limit(self, files, run):
        path = files["tmp"] / "digits.json"
        path.write_text('{"dim": 2, "effects": [[[[1' + "0" * 5000 + ", 0]]]]}")
        run(["validate", str(path)], kind="ParseError")

    def test_huge_integer_in_sweep_config(self, files, run):
        path = files["tmp"] / "c.json"
        path.write_text(json.dumps({"eta": 10**400, "zeta": 1.0, "out": str(files["tmp"] / "t.csv")}))
        assert "eta must be a number" in run(["sweep-theta", "--config", str(path)])

    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_steps_above_cap(self, files, run, route):
        out = str(files["tmp"] / "t.csv")
        path = files["tmp"] / "c.json"
        path.write_text(json.dumps({"eta": 1.0, "zeta": 1.0, "steps": 5 if route == "flag" else 10**12}))
        flags = ["--steps", str(10**12)] if route == "flag" else []
        assert f"at most {MAX_STEPS} grid points" in run(["sweep-theta", "--config", str(path), *flags, "--out", out])
        assert not (files["tmp"] / "t.csv").exists()

    def test_trials_above_cap(self, run, monkeypatch):
        # The cap is checked before the suite runs: a stand-in suite records
        # the calls, so no trial is drawn at these sizes.
        calls = []
        monkeypatch.setitem(suites.SUITES, "convexity", lambda trials, seed: calls.append(trials))
        for trials in (MAX_TRIALS + 1, 10**13):
            assert f"at most {MAX_TRIALS} trials" in run(["verify", "--suite", "convexity", "--trials", str(trials)])
        assert calls == []
        suites.run_suite("convexity", MAX_TRIALS, 0)
        assert calls == [MAX_TRIALS]

    def test_negative_seed(self, run):
        assert "seed" in run(["verify", "--suite", "chain", "--trials", "2", "--seed", "-1"])


class TestSweepTheta:
    def test_writes_deterministic_csv(self, files):
        out1 = files["tmp"] / "a.csv"
        out2 = files["tmp"] / "b.csv"
        args = ["sweep-theta", "--eta", "1", "--zeta", "1", "--steps", "19"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()

    def test_crossover_reported(self, files, capsys):
        out = files["tmp"] / "c.csv"
        assert main(["sweep-theta", "--eta", "1", "--zeta", "1", "--steps", "61", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "crossover B2-B1" in stdout
        assert "1.42" in stdout or "1.41" in stdout

    def test_config_file_with_flag_override(self, files, capsys):
        config_path = files["tmp"] / "cfg.json"
        config_path.write_text(json.dumps({"eta": 1.0, "zeta": 1.0, "steps": 11}))
        out = files["tmp"] / "d.csv"
        assert main(["sweep-theta", "--config", str(config_path), "--steps", "5", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert "# steps=5" in lines
        data_rows = [line for line in lines if not line.startswith("#")][1:]
        assert len(data_rows) == 5

    def test_missing_noise_params_exit_two(self, files):
        out = files["tmp"] / "e.csv"
        assert main(["sweep-theta", "--steps", "5", "--out", str(out)]) == 2

    def test_seed_flag_removed(self, files, capsys):
        out = files["tmp"] / "g.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep-theta", "--eta", "1", "--zeta", "1", "--seed", "3", "--out", str(out)])
        assert exc.value.code == 2

    def test_bad_steps_exit_two(self, files):
        out = files["tmp"] / "f.csv"
        assert main(["sweep-theta", "--eta", "1", "--zeta", "1", "--steps", "1", "--out", str(out)]) == 2


class TestSweepDamping:
    def test_csv_and_crossover(self, files, capsys):
        out = files["tmp"] / "damp.csv"
        assert main(["sweep-damping", "--steps", "41", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "crossover D_AD-logC: 0.56" in stdout
        lines = out.read_text().strip().split("\n")
        header = next(line for line in lines if not line.startswith("#"))
        assert header == "e,logC_numeric,logC_closed,D_AD"

    def test_all_cells_finite(self, files):
        out = files["tmp"] / "damp2.csv"
        assert main(["sweep-damping", "--steps", "11", "--out", str(out)]) == 0
        rows = [line for line in out.read_text().strip().split("\n") if not line.startswith("#")][1:]
        table = np.array([[float(cell) for cell in row.split(",")] for row in rows])
        assert np.all(np.isfinite(table))

    def test_eta_flag_is_a_usage_error(self, files):
        with pytest.raises(SystemExit) as exc:
            main(["sweep-damping", "--eta", "0.5", "--out", str(files["tmp"] / "h.csv")])
        assert exc.value.code == 2

    def test_config_noise_keys_are_ignored(self, files):
        path = files["tmp"] / "cfg.json"
        path.write_text(json.dumps({"eta": "x", "zeta": [1], "steps": 5}))
        out = files["tmp"] / "i.csv"
        assert main(["sweep-damping", "--config", str(path), "--out", str(out)]) == 0
        assert not any(line.startswith(("# eta", "# zeta")) for line in out.read_text().split("\n"))


@pytest.mark.parametrize(
    "argv",
    [["sweep-theta", "--eta", "0.8", "--zeta", "0.9", "--steps", "61"], ["sweep-damping", "--steps", "41"]],
    ids=["theta", "damping"],
)
def test_stdout_crossovers_match_csv_comments(files, capsys, argv):
    out = files["tmp"] / "x.csv"
    assert main([*argv, "--out", str(out)]) == 0
    printed = [line for line in capsys.readouterr().out.split("\n") if line.startswith("crossover ")]
    commented = [line[2:] for line in out.read_text().split("\n") if line.startswith("# crossover ")]
    assert printed
    assert printed == commented


class TestVerify:
    def test_passing_suite(self, capsys):
        assert main(["verify", "--suite", "convexity", "--trials", "20", "--seed", "4"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_unknown_suite_exits_two(self, capsys):
        assert main(["verify", "--suite", "nonsense", "--trials", "10"]) == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_zero_trials_exits_two(self):
        assert main(["verify", "--suite", "chain", "--trials", "0"]) == 2

    def test_summary_shape(self, capsys):
        assert main(["verify", "--suite", "dualmap", "--trials", "15", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "suite=dualmap" in out
        assert "worst_slack=" in out

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_worst_slack_location_line(self, suite, capsys):
        assert main(["verify", "--suite", suite, "--trials", "12", "--seed", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert re.match(rf"^suite={suite} .*checks=\d+ failures=0 .* PASS$", lines[0])
        assert re.match(r"^  worst at: \S.*\S$", lines[1])
        if suite == "chain":
            assert re.match(r"^  worst at: d=[234] trial=\d+ (H>=D|D>=minD|minD>=resolution|D>=0)$", lines[1])
