"""Command-line front end.

Subcommands: validate, analyze, bounds, sweep-theta, sweep-damping, verify.
Exit codes: 0 success, 1 validation or assertion failure or a closed stdout
pipe (no traceback), 2 usage or parse error. Sweep settings follow the
precedence CLI flags > config file > defaults, and the effective
configuration is echoed as '#' comments in the CSV output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .bounds import krishna_bound, min_device_uncertainty, pair_bound_report
from .errors import ConfigError, ParseError, ValidationError
from .serialize import json_int, load_povm, load_state
from .suites import SUITES, run_suite
from .sweeps import SweepConfig, run_sweep
from .uncertainty import device_uncertainty, outcome_probs, quantum_uncertainty, shannon_entropy

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _emit_error(kind: str, message: str, as_json: bool) -> None:
    if as_json:
        print(json.dumps({"error": kind, "message": message}))
    else:
        print(f"{kind}: {message}", file=sys.stderr)


def _load(loader, path):
    """loader(path) with the path prefixed to any error; an unreadable or malformed file is a ParseError."""
    try:
        return loader(path)
    except ValidationError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    except (OSError, RecursionError, ValueError) as exc:  # ValueError covers bad JSON and bad text
        raise ParseError(f"{path}: {exc}") from None


def cmd_validate(args) -> int:
    povm = _load(load_povm, args.povm)
    payload = {
        "valid": True,
        "dim": povm.dim,
        "n_outcomes": povm.n_outcomes,
        "spectra": povm.eigenvalues[:, ::-1].tolist(),
        "completeness_residual": povm.completeness_residual(),
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"dim={povm.dim} outcomes={povm.n_outcomes}")
        for i, spectrum in enumerate(payload["spectra"]):
            print(f"effect {i}: eigenvalues [{', '.join(f'{x:.12g}' for x in spectrum)}]")
        print(f"completeness residual: {payload['completeness_residual']:.3e}")
        print("OK")
    return EXIT_OK


def cmd_analyze(args) -> int:
    povm = _load(load_povm, args.povm)
    rho = _load(load_state, args.state)
    row = {
        "dim": povm.dim,
        "H": shannon_entropy(outcome_probs(rho, povm)),
        "D": device_uncertainty(rho, povm),
        "Q": quantum_uncertainty(rho, povm),
        "krishna": krishna_bound(povm),
        "minD": min_device_uncertainty(povm),
    }
    if args.format == "json":
        print(json.dumps(row))
    else:
        print(",".join(row))
        print(",".join(f"{row[key]:.12g}" if key != "dim" else str(row[key]) for key in row))
    return EXIT_OK


def cmd_bounds(args) -> int:
    povm_a = _load(load_povm, args.povm_a)
    povm_b = _load(load_povm, args.povm_b)
    rho = None if args.state is None else _load(load_state, args.state)
    print(json.dumps(pair_bound_report(povm_a, povm_b, rho).to_dict()))
    return EXIT_OK


def _number(value, key: str) -> float:
    """A JSON number as a float; strings, booleans, null and ints too large for a float raise ValueError."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{key} must be a number, got {value!r}")


def _path(value, key: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a path, got {value!r}")
    return value


def _sweep_config(args) -> SweepConfig:
    """The effective settings of the sweep ``args.kind``, CLI flag > config file > default;
    any bad one raises ConfigError. A damping sweep reads no eta or zeta."""
    try:
        config = {}
        if args.config is not None:
            with open(args.config, encoding="utf-8") as handle:
                config = json.load(handle)
            if not isinstance(config, dict):
                raise ValueError("config file must contain a JSON object")

        def setting(key: str, default, convert=_number):
            """An unset optional setting stays None."""
            value = getattr(args, key, None)
            if value is None:
                value = config.get(key, default)
            return None if value is None and default is None else convert(value, key)

        theta = args.kind == "theta"
        noise = {key: setting(key, None) for key in ("eta", "zeta")} if theta else {}
        for key, value in noise.items():
            if value is None:
                raise ValueError(f"theta sweep needs {key} (--{key} or config file)")
        sweep = SweepConfig(
            kind=args.kind,
            start=setting("start", 0.0),
            stop=setting("stop", float(np.pi) if theta else 1.0),
            steps=setting("steps", 181 if theta else 101, json_int),
            out=setting("out", None, _path),
            **noise,
        )
        if sweep.out is None:
            raise ValueError("an output path is required (--out or config file)")
        return sweep
    except (OSError, RecursionError, ValueError) as exc:  # ValueError covers bad JSON and every bad setting
        raise ConfigError(str(exc)) from None


def cmd_sweep(args) -> int:
    config = _sweep_config(args)
    result = run_sweep(config)
    result.write_csv(config.out)
    for line in result.crossover_lines():
        print(line)
    print(f"wrote {config.steps} rows to {config.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    result = run_suite(args.suite, args.trials, args.seed)
    print(result.summary())
    print(f"  worst at: {result.worst_label}")
    for message in result.messages:
        print(f"  {message}")
    return EXIT_OK if result.passed else EXIT_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared.

    parse_args returns a fresh Namespace on every call and leaves the parser
    unchanged, so sharing it keeps nothing from one command to the next.
    """
    parser = argparse.ArgumentParser(
        prog="unsharp",
        description="Measurement unsharpness and entropic uncertainty bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a POVM JSON file")
    p.add_argument("povm")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="entropy report for one POVM and state")
    p.add_argument("povm")
    p.add_argument("--state", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bounds", help="bound report for a POVM pair")
    p.add_argument("povm_a")
    p.add_argument("povm_b")
    p.add_argument("--state")
    p.set_defaults(func=cmd_bounds)

    for kind, about in (("theta", "angle sweep of the spin-pair bounds"), ("damping", "damping sweep of the d=3 pair bounds")):
        p = sub.add_parser(f"sweep-{kind}", help=about)
        if kind == "theta":
            p.add_argument("--eta", type=float)
            p.add_argument("--zeta", type=float)
        p.add_argument("--steps", type=int)
        p.add_argument("--start", type=float)
        p.add_argument("--stop", type=float)
        p.add_argument("--out")
        p.add_argument("--config", help="JSON file with default settings")
        p.set_defaults(func=cmd_sweep, kind=kind)

    p = sub.add_parser("verify", help="run a randomized property suite")
    p.add_argument("--suite", required=True, help=f"one of {sorted(SUITES)}")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one command; the only place where typed errors become exit codes.

    validate --json, analyze --format json and bounds print errors as JSON on
    stdout, every other command as text on stderr.
    """
    args = build_parser().parse_args(argv)
    as_json = args.command == "bounds" or getattr(args, "json", False) or getattr(args, "format", None) == "json"
    try:
        try:
            code = args.func(args)
        except (ValidationError, ParseError, ConfigError) as exc:
            _emit_error(type(exc).__name__, str(exc), as_json)
            code = EXIT_FAIL if isinstance(exc, ValidationError) else EXIT_USAGE
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout. Pointing it at devnull lets the
        # interpreter's last flush of what is still buffered succeed.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
