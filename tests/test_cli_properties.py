"""Property test of the CLI boundary: any argv and input files end in exit 0, 1 or 2.

Hypothesis builds argv for every subcommand together with the JSON files it
names, valid or malformed (wrong shapes, NaN, null, strings, huge integers,
bad dim, broken text), and runs them through ``cli.main``. Only argparse's
``SystemExit(2)`` may escape, and the JSON outputs stay strict JSON.
"""

import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from unsharp.cli import main
from unsharp.linalg import validate_density
from unsharp.povm import mub_fourier_basis, projective_from_basis, white_noise_povm
from unsharp.serialize import povm_to_json, state_to_json
from unsharp.suites import SUITES

HUGE = 10**400
BAD_ENTRIES = [None, "0.5", True, HUGE, -HUGE, float("nan"), float("inf"), [], [0.0, 0.0], {}]
BAD_DIMS = [None, 2.7, "2", True, 0, -1, 3, HUGE, float("inf"), float("nan")]
BAD_TEXTS = [b"", b"{", b"[1, 2]", b'"povm"', b"null", b'{"dim": 2}', b"[" * 5000, '{"dim": "\xe9"}'.encode("latin-1")]
OVERFLOW_POVM = json.dumps({"dim": 2, "effects": [[[[HUGE, 0], [0, 0]], [[0, 0], [0, 0]]]]}).encode()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _paths(obj, path=()):
    """(path, is_leaf) for every list and every leaf of a JSON document."""
    if isinstance(obj, (dict, list)):
        if isinstance(obj, list):
            yield path, False
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        for key, value in items:
            yield from _paths(value, (*path, key))
    else:
        yield path, True


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def _povm_docs(draw):
    basis = mub_fourier_basis(draw(st.sampled_from([2, 3])))[draw(st.integers(0, 1))]
    alpha = draw(st.sampled_from([1.0, 0.0, 0.5, 0.9]))
    return povm_to_json(projective_from_basis(basis) if alpha == 1.0 else white_noise_povm(basis, alpha))


@st.composite
def _state_docs(draw):
    d = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        return {"dim": d, "vector": [[1.0, 0.0]] + [[0.0, 0.0]] * (d - 1)}
    return state_to_json(validate_density(np.eye(d) / d))


@st.composite
def _file(draw, docs):
    """A valid document, or one with a bad entry, a bad dim, a short list or broken text."""
    doc = copy.deepcopy(draw(docs))
    how = draw(st.sampled_from(["valid", "entry", "dim", "shape", "text"]))
    if how == "text":
        return draw(st.sampled_from(BAD_TEXTS))
    paths = list(_paths(doc))
    if how == "entry":
        path = draw(st.sampled_from([p for p, leaf in paths if leaf and p[0] != "dim"]))
        _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(BAD_ENTRIES))
    elif how == "dim":
        doc["dim"] = draw(st.sampled_from(BAD_DIMS))
    elif how == "shape":
        _at(doc, draw(st.sampled_from([p for p, leaf in paths if not leaf]))).pop()
    return json.dumps(doc).encode()


# "steps" is always set, so that no example runs the 181- or 101-point default grid.
_SWEEP_SETTINGS = {
    "steps": [2, 5, -1, 0, 1, 2.5, "5", None, 10**12, HUGE],
    "eta": [0.0, 0.5, 1.0, -0.5, 1.5, "x", [1], None, HUGE, float("nan")],
    "zeta": [1.0, 0.3, None, float("inf")],
    "start": [0.0, 0.2, -1.0, "zero", HUGE],
    "stop": [1.0, 0.8, 5.0, None, float("nan")],
    "out": ["{dir}/o.csv", "{dir}/missing/o.csv", 5, None],
}
_SWEEP_FLAGS = {
    "--steps": ["3", "x", "-1", str(10**12)],
    "--eta": ["0.5", "nan", "2", "1e400"],
    "--start": ["0.1", "-0.1"],
    "--out": ["{dir}/f.csv", "{dir}/missing/f.csv"],
}


@st.composite
def cli_cases(draw):
    """(argv, files): argv names files as "{name}" and files name the work directory as "{dir}"."""
    command = draw(st.sampled_from(["validate", "analyze", "bounds", "sweep-theta", "sweep-damping", "verify"]))
    povm, state = _file(_povm_docs()), _file(_state_docs())
    if command == "validate":
        return ["validate", "{a}", *draw(st.sampled_from([[], ["--json"]]))], {"a": draw(povm)}
    if command == "analyze":
        fmt = draw(st.sampled_from([[], ["--format", "json"], ["--format", "csv"]]))
        return ["analyze", "{a}", "--state", "{s}", *fmt], {"a": draw(povm), "s": draw(state)}
    if command == "bounds":
        files = {"a": draw(povm), "b": draw(povm)}
        if draw(st.booleans()):
            files["s"] = draw(state)
            return ["bounds", "{a}", "{b}", "--state", "{s}"], files
        return ["bounds", "{a}", "{b}"], files
    if command == "verify":
        suite = draw(st.sampled_from([*sorted(SUITES), "nonsense"]))
        trials, seed = draw(st.sampled_from(["-1", "0", "1", "2"])), draw(st.sampled_from(["-1", "0", "7"]))
        return ["verify", "--suite", suite, "--trials", trials, "--seed", seed], {}
    config = {key: draw(st.sampled_from(values)) for key, values in _SWEEP_SETTINGS.items() if key == "steps" or draw(st.booleans())}
    flags = []
    for flag, values in _SWEEP_FLAGS.items():
        if (command == "sweep-theta" or flag != "--eta") and draw(st.booleans()):
            flags += [flag, draw(st.sampled_from(values))]
    return [command, "--config", "{c}", *flags], {"c": json.dumps(config).encode()}


def _json_output(argv) -> bool:
    """validate --json, analyze (unless --format csv) and bounds print JSON on stdout."""
    return argv[0] == "bounds" or "--json" in argv or argv[0] == "analyze" and "csv" not in argv


@settings(max_examples=60, derandomize=True, database=None, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cli_cases())
@example((["validate", "{a}", "--json"], {"a": OVERFLOW_POVM}))
@example((["analyze", "{a}", "--state", "{s}"], {"a": OVERFLOW_POVM, "s": b'{"dim": 2, "vector": [[null, 0], [0, 0]]}'}))
def test_cli_exit_code_and_output(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        names = {"dir": tmp}
        for name, content in files.items():
            path = Path(tmp) / f"{name}.json"
            path.write_bytes(content.replace(b"{dir}", tmp.encode()))
            names[name] = str(path)
        argv = [part.format(**names) for part in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv
                return
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if _json_output(argv):
        payload = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert ("error" in payload) == (code != 0), argv
    elif code == 2 or code == 1 and argv[0] != "verify":
        assert re.match(r"^[A-Za-z]+: ", err.getvalue()), argv
