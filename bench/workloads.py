"""The four workloads: seeded inputs, one cycle of ops, and the output checks.

An op is one unit of user-visible work. ``build(name, u, seed, workdir)``
returns the op cycle of a workload; the benchmark repeats the same cycle, so
per-op call counts repeat exactly for a seed. Every op is checked after it
returns; ``Op.check`` gives a failure message or None. The program is driven
only through ``unsharp.cli.main`` and public module functions, looked up at
call time so that the tracer's patches apply.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    # ROADMAP item of a known defect this op exposes; its failures are
    # counted but do not make the run incorrect.
    known_defect: str | None = None
    grid_rows: int = 0
    checks: int = 0


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


def run_cli(u, argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = u.cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """Parse JSON, rejecting the NaN / Infinity extensions."""
    return json.loads(text, parse_constant=_reject_constant)


def _h(x):
    x = np.asarray(x, dtype=float)
    safe = np.where(x > 0.0, x, 1.0)
    return np.where(x > 0.0, -safe * np.log2(safe), 0.0)


def _white_noise_d(alpha: float) -> float:
    """Closed-form qubit white-noise device uncertainty."""
    return float(_h(alpha + (1.0 - alpha) / 2.0) + _h((1.0 - alpha) / 2.0))


# --- sweeps ---------------------------------------------------------------

THETA_ROWS = 181
DAMPING_ROWS = 101
NOISE_GRID = 3  # noisy (eta, zeta) pairs: one jittered point per cell of a 3x3 grid


def _crossovers(text: str) -> dict[str, list[float]]:
    found = {}
    for name, points in re.findall(r"^crossover (\S+): (.*)$", text, flags=re.M):
        found[name] = [] if points.strip() == "none" else [float(x) for x in points.split(",")]
    return found


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = [line for line in path.read_text().splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    return header, np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


def _check_theta(res: CliResult, path: Path, eta: float, zeta: float):
    if res.code != 0:
        return f"exit {res.code}: {res.err.strip()}"
    header, rows = _read_csv(path)
    if rows.shape != (THETA_ROWS, 7) or not np.all(np.isfinite(rows)):
        return f"expected {THETA_ROWS} finite rows of 7 columns, got {rows.shape}"
    col = {name: rows[:, i] for i, name in enumerate(header)}
    theta = col["theta"]
    if np.max(np.abs(theta - np.linspace(0.0, np.pi, THETA_ROWS))) > 1e-9:
        return "theta grid differs from linspace(0, pi, 181)"
    d_eta, d_zeta = _white_noise_d(eta), _white_noise_d(zeta)
    overlap = np.maximum(np.cos(theta / 2.0) ** 2, np.sin(theta / 2.0) ** 2)
    b1 = -np.log2(overlap) + min(d_eta, d_zeta)
    if np.max(np.abs(col["B1"] - b1)) > 1e-9:
        return f"B1 column off its closed form by {np.max(np.abs(col['B1'] - b1)):.3e}"
    if np.max(np.abs(col["D_WN"] - (d_eta + d_zeta))) > 1e-9:
        return "D_WN column off its closed form"
    crossings = _crossovers(res.out)
    if set(crossings) != {"B2-B1", "D_WN-logC", "D_WN-B1"}:
        return f"unexpected crossover report {sorted(crossings)}"
    if eta == 1.0 and zeta == 1.0:
        mid = THETA_ROWS // 2
        if abs(col["B1"][mid] - 1.0) > 1e-9:
            return f"B1(pi/2) = {col['B1'][mid]}, expected 1"
        if abs(col["B2"][mid] - 0.8724) > 1e-3:
            return f"B2(pi/2) = {col['B2'][mid]}, expected 0.8724 +- 1e-3"
        if len(crossings["B2-B1"]) != 2:
            return f"B2-B1 crossings {crossings['B2-B1']}, expected two"
    return None


def _check_damping(res: CliResult, path: Path):
    if res.code != 0:
        return f"exit {res.code}: {res.err.strip()}"
    header, rows = _read_csv(path)
    if rows.shape != (DAMPING_ROWS, 4) or not np.all(np.isfinite(rows)):
        return f"expected {DAMPING_ROWS} finite rows of 4 columns, got {rows.shape}"
    col = {name: rows[:, i] for i, name in enumerate(header)}
    if np.max(np.abs(col["logC_numeric"] - col["logC_closed"])) > 1e-8:
        return "numeric -log2 C differs from its closed form"
    e = col["e"]
    d_ad = (1.0 - 1.0 / math.sqrt(3.0)) * (_h(e) + _h(1.0 - e))
    if np.max(np.abs(col["D_AD"] - d_ad)) > 1e-8:
        return "D_AD differs from (1 - 1/sqrt(3)) H_bin(e)"
    crossings = _crossovers(res.out).get("D_AD-logC", [])
    if len(crossings) != 1 or abs(crossings[0] - 0.564) > 0.005:
        return f"D_AD-logC crossover {crossings}, expected 0.564 +- 0.005"
    return None


def build_sweeps(u, seed: int, workdir: Path) -> list[Op]:
    """Cycle of 10 theta sweeps and 3 damping sweeps.

    The theta sweeps run on the sharp pair (1, 1) and on one seeded point in
    each cell of a 3x3 grid over [0.2, 1]^2: the bisection work depends on
    where (eta, zeta) falls, and the grid keeps that mix nearly the same for
    every seed. Theta ops are 10/13 of the mix, so the median falls inside
    the theta mode instead of between the two modes.
    """
    rng = np.random.default_rng(seed)
    edges = np.linspace(0.2, 1.0, NOISE_GRID + 1)
    cells = [(i, j) for i in range(NOISE_GRID) for j in range(NOISE_GRID)]
    noise = [(1.0, 1.0)] + [
        (round(float(rng.uniform(edges[i], edges[i + 1])), 4), round(float(rng.uniform(edges[j], edges[j + 1])), 4))
        for i, j in cells
    ]

    def theta_op(i, eta, zeta):
        path = workdir / f"theta{i}.csv"
        argv = ["sweep-theta", "--eta", repr(eta), "--zeta", repr(zeta), "--out", str(path)]
        return Op(
            kind="sweep-theta",
            run=lambda: run_cli(u, argv),
            check=lambda res: _check_theta(res, path, eta, zeta),
            grid_rows=THETA_ROWS,
        )

    def damping_op(i):
        path = workdir / f"damping{i}.csv"
        argv = ["sweep-damping", "--out", str(path)]
        return Op(
            kind="sweep-damping",
            run=lambda: run_cli(u, argv),
            check=lambda res: _check_damping(res, path),
            grid_rows=DAMPING_ROWS,
        )

    ops = []
    for i, (eta, zeta) in enumerate(noise):
        ops.append(theta_op(i, eta, zeta))
        if i % 3 == 2:
            ops.append(damping_op(i // 3))
    return ops


# --- verify ---------------------------------------------------------------

# Trials per suite, sized so that each op costs about the same (~0.2 s on
# one 2.1 GHz Xeon core), which keeps the latency distribution unimodal.
SUITE_TRIALS = {
    "chain": 130,
    "majorization": 100,
    "convexity": 170,
    "whitenoise": 40,
    "validity": 200,
    "coles": 290,
    "dualmap": 600,
}


def expected_checks(suite: str, trials: int) -> int:
    """Checks each suite records: dims x inequalities per trial, or per grid."""
    return {
        "chain": 3 * 4 * trials,
        "majorization": 2 * 3 * trials,
        "convexity": 2 * trials,
        "whitenoise": 5 * 11,
        "validity": trials,
        "coles": trials,
        "dualmap": trials,
    }[suite]


def _check_verify(res: CliResult, suite: str, expected: int):
    if res.code != 0:
        return f"exit {res.code}: {res.out.strip()[:200]} {res.err.strip()[:200]}"
    match = re.search(rf"^suite={suite} .*checks=(\d+) failures=(\d+) .* PASS$", res.out, flags=re.M)
    if match is None:
        return f"no PASS summary for suite {suite}"
    if int(match.group(1)) != expected or int(match.group(2)) != 0:
        return f"checks={match.group(1)} failures={match.group(2)}, expected {expected} and 0"
    return None


def build_verify(u, seed: int, workdir: Path) -> list[Op]:
    """All seven suites, each on its own seed derived from the workload seed."""
    seeds = np.random.default_rng(seed).integers(0, 2**31, size=len(SUITE_TRIALS))
    ops = []
    for (suite, trials), suite_seed in zip(SUITE_TRIALS.items(), seeds):
        argv = ["verify", "--suite", suite, "--trials", str(trials), "--seed", str(int(suite_seed))]
        expected = expected_checks(suite, trials)
        ops.append(
            Op(
                kind=f"verify-{suite}",
                run=lambda argv=argv: run_cli(u, argv),
                check=lambda res, suite=suite, expected=expected: _check_verify(res, suite, expected),
                checks=expected,
            )
        )
    return ops


# --- pairs ----------------------------------------------------------------

# Pairs per cycle; the majorization enumeration grows ~4x per dimension, so
# large d gets few pairs and sets the tail.
PROJECTIVE_PAIRS = {2: 12, 3: 10, 4: 8, 5: 4, 6: 2, 7: 1}
RANDOM_POVM_PAIRS = {2: 8, 3: 6, 4: 4, 5: 3, 6: 2}
BOUND_TOL = 1e-9


def _encode(m) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _povm_doc(effects) -> dict:
    return {"dim": int(np.asarray(effects[0]).shape[0]), "effects": [_encode(e) for e in effects]}


def _projectors(basis) -> list:
    return [np.outer(v, v.conj()) for v in basis]


def _random_state_doc(d: int, rng, pure: bool) -> dict:
    if pure:
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        return {"dim": d, "vector": np.stack([psi.real, psi.imag], axis=-1).tolist()}
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    return {"dim": d, "matrix": _encode(m / np.trace(m).real)}


def _check_report(res: CliResult, projective: bool, with_state: bool, mu: float | None):
    if res.code != 0:
        return f"exit {res.code}: {res.out.strip()[:200]}"
    try:
        doc = strict_json(res.out)
    except ValueError as exc:
        return f"output is not strict JSON: {exc}"
    values = doc.get("values", {})
    bad = [k for k, v in values.items() if not (isinstance(v, (int, float)) and math.isfinite(v))]
    if bad:
        return f"non-finite values {bad}"
    if doc.get("metadata", {}).get("pvm_pair") is not projective:
        return f"pvm_pair is {doc.get('metadata', {}).get('pvm_pair')}, expected {projective}"
    if projective:
        if abs(values["coles_C"] - values["mu"]) > BOUND_TOL:
            return f"coles_C {values['coles_C']} != mu {values['mu']}"
        if abs(values["mu"] - mu) > BOUND_TOL:
            return f"mu {values['mu']} != -log2 max overlap {mu}"
    if with_state:
        entropy_sum = values["H_A"] + values["H_B"]
        strongest = max(values[k] for k in ("coles_C", "B1", "B2", "HW") if k in values)
        if entropy_sum < strongest - BOUND_TOL:
            return f"H_A+H_B = {entropy_sum} < strongest bound {strongest}"
        for side in "AB":
            if values[f"D_{side}"] > values[f"H_{side}"] + BOUND_TOL:
                return f"D_{side} > H_{side}"
    return None


def _check_error(res: CliResult, expected: int):
    if res.code != expected:
        return f"exit {res.code}, expected {expected}"
    try:
        doc = strict_json(res.out)
    except ValueError as exc:
        return f"error output is not strict JSON: {exc}"
    if not isinstance(doc.get("error"), str):
        return "no typed error in the output"
    return None


def _check_near_tolerance(res: CliResult):
    # A completeness residual of 5e-9 is either accepted with finite values
    # or rejected with a typed error; it never raises.
    if res.code == 1:
        return _check_error(res, 1)
    return _check_report(res, projective=False, with_state=True, mu=None)


def build_pairs(u, seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    files = itertools.count()

    def write(doc, raw: str | None = None) -> str:
        path = workdir / f"in{next(files)}.json"
        path.write_text(raw if raw is not None else json.dumps(doc))
        return str(path)

    def bounds_op(kind, a, b, state, check, known_defect=None):
        argv = ["bounds", a, b] + (["--state", state] if state else [])
        return Op(kind=kind, run=lambda: run_cli(u, argv), check=check, known_defect=known_defect)

    ops = []
    for d, count in PROJECTIVE_PAIRS.items():
        for i in range(count):
            basis_a, basis_b = u.sampling.random_basis(d, rng), u.sampling.random_basis(d, rng)
            mu = float(-np.log2(np.max(np.abs(basis_a.conj() @ basis_b.T) ** 2)))
            with_state = i % 2 == 0
            state = write(_random_state_doc(d, rng, pure=i % 4 == 0)) if with_state else None
            ops.append(bounds_op(
                f"projective-d{d}",
                write(_povm_doc(_projectors(basis_a))),
                write(_povm_doc(_projectors(basis_b))),
                state,
                lambda res, w=with_state, mu=mu: _check_report(res, True, w, mu),
            ))
    for d, count in RANDOM_POVM_PAIRS.items():
        for i in range(count):
            a = u.sampling.random_povm(d, d + 1, rng)
            b = u.sampling.random_povm(d, d + 1, rng)
            with_state = i % 2 == 1
            state = write(_random_state_doc(d, rng, pure=i % 4 == 1)) if with_state else None
            ops.append(bounds_op(
                f"random-povm-d{d}",
                write(_povm_doc(np.asarray(a.effects))),
                write(_povm_doc(np.asarray(b.effects))),
                state,
                lambda res, w=with_state: _check_report(res, False, w, None),
            ))

    sharp_b = write(_povm_doc([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
    mixed = write({"dim": 2, "matrix": _encode(np.eye(2) / 2.0)})
    truncated = json.dumps(_povm_doc([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))[:-7]
    nan_effect = np.array([[1.0, np.nan], [np.nan, 0.0]])
    ops += [
        bounds_op("bad-json", write(None, truncated), sharp_b, None, lambda res: _check_error(res, 2)),
        bounds_op(
            "not-psd",
            write(_povm_doc([np.diag([1.2, -0.2]), np.diag([-0.2, 1.2])])),
            sharp_b,
            None,
            lambda res: _check_error(res, 1),
        ),
        bounds_op(
            "nan-entry",
            write(_povm_doc([nan_effect, np.diag([0.0, 1.0])])),
            sharp_b,
            None,
            lambda res: _check_error(res, 1),
            known_defect="2a",
        ),
        bounds_op(
            "near-tolerance",
            write(_povm_doc([np.diag([1.0 - 5e-9, 0.0]), np.diag([0.0, 1.0])])),
            sharp_b,
            mixed,
            _check_near_tolerance,
            known_defect="2b",
        ),
    ]
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# --- states ---------------------------------------------------------------

SAMPLED_STATES = 1000  # pure states per sampled minimum
MIXED_STATES = 40  # mixed states per op on which H, D and Q are evaluated


def _check_states(result, min_d: float):
    best, rows = result
    if not best >= min_d - 1e-9:
        return f"sampled_min {best} below minD {min_d}"
    h, dev, q = rows.T
    if not np.all(np.isfinite(rows)):
        return "non-finite H, D or Q"
    if np.max(np.abs(q - (h - dev))) > 1e-12:
        return f"Q differs from H - D by {np.max(np.abs(q - (h - dev))):.3e}"
    if np.min(dev) < -1e-12 or np.max(dev - h) > 1e-9:
        return "D outside [0, H]"
    return None


def build_states(u, seed: int, workdir: Path) -> list[Op]:
    """POVMs built once: white noise and random_povm for d = 2..6, and the
    amplitude-damping model (defined for d = 3 only)."""
    rng = np.random.default_rng(seed)
    povms = []
    for d in range(2, 7):
        basis = u.sampling.random_basis(d, rng)
        povms.append((f"white-noise-d{d}", u.povm.white_noise_povm(basis, float(rng.uniform(0.2, 0.9)))))
        povms.append((f"random-povm-d{d}", u.sampling.random_povm(d, d + 1, rng)))
        if d == 3:
            povms.append(("damping-d3", u.povm.amplitude_damping_povm(basis, float(rng.uniform(0.1, 0.9)))))
    op_seeds = rng.integers(0, 2**31, size=len(povms))

    def state_op(kind, povm, op_seed):
        d = povm.dim
        min_d = u.bounds.min_device_uncertainty(povm)

        def run():
            stream = np.random.default_rng(op_seed)
            best = u.sampling.sampled_min(
                lambda rho: u.uncertainty.device_uncertainty(rho, povm), d, SAMPLED_STATES, stream
            )
            rows = []
            for _ in range(MIXED_STATES):
                rho = u.sampling.random_mixed_state(d, stream)
                rows.append((
                    u.uncertainty.shannon_entropy(u.uncertainty.outcome_probs(rho, povm)),
                    u.uncertainty.device_uncertainty(rho, povm),
                    u.uncertainty.quantum_uncertainty(rho, povm),
                ))
            return best, np.array(rows)

        return Op(kind=kind, run=run, check=lambda result: _check_states(result, min_d))

    return [state_op(kind, povm, int(s)) for (kind, povm), s in zip(povms, op_seeds)]


BUILDERS = {"sweeps": build_sweeps, "verify": build_verify, "pairs": build_pairs, "states": build_states}


def build(name: str, u, seed: int, workdir: Path) -> list[Op]:
    return BUILDERS[name](u, seed, workdir)
