"""Command-line front end: invariant evaluation, verification, rotation, solving.

Subcommands
-----------
invariants   compute the ten invariants of a tensor (file or inline)
verify       run a verification suite: identity | parity | restriction |
             isotropy | witnesses | all
rotate       apply an orthogonal matrix to a tensor
solve        smith-bao-j6 | mixed-j6 | j8-root

Exit codes: 0 success, 1 verification/convergence failure, 2 usage or
input error.  Output is deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass

from . import polynomial, witnesses
from .invariants import INVARIANT_NAMES, InvariantVector, invariants
from .rotations import Orthogonal3, isotropy_suite, rotate
from .tensor import (EXACT, FLOAT, _coerce_exact, _coerce_float, from_independent,
                     from_json_dict, to_json_dict)
from .witnesses import bisect_root, h_eval, verify_j6_separation, verify_j8_separation


@dataclass
class RunConfig:
    """Resolved run options shared by the subcommand handlers."""

    backend: str = FLOAT
    seed: int = 42
    trials: int = 1000
    tol: float = None
    fmt: str = "json"
    out: str = None


class InputError(Exception):
    """Bad user input; maps to exit code 2."""


def _load_tensor(args, config: RunConfig):
    if args.component:
        if len(args.component) != 9:
            raise InputError(f"need exactly 9 --component values, got {len(args.component)}")
        try:
            return from_independent(args.component, backend=config.backend)
        except (TypeError, ValueError) as exc:
            raise InputError(str(exc)) from exc
    if args.input:
        try:
            with open(args.input) as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read {args.input}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed JSON in {args.input}: {exc}") from exc
        try:
            return from_json_dict(obj, backend=config.backend)
        except (TypeError, ValueError) as exc:
            raise InputError(str(exc)) from exc
    raise InputError("no tensor given: pass --input FILE or nine --component values")


def _emit(text: str, config: RunConfig):
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _format_invariants(vec: InvariantVector, fmt: str) -> str:
    payload = vec.to_json_dict()
    if fmt == "json":
        return json.dumps(payload, indent=2)
    if fmt == "csv":
        header = ",".join(INVARIANT_NAMES)
        row = ",".join(str(payload[name]) for name in INVARIANT_NAMES)
        return f"{header}\n{row}"
    return "\n".join(f"{name} = {payload[name]}" for name in INVARIANT_NAMES)


def cmd_invariants(args, config: RunConfig) -> int:
    tensor = _load_tensor(args, config)
    _emit(_format_invariants(invariants(tensor), config.fmt), config)
    return 0


def cmd_rotate(args, config: RunConfig) -> int:
    tensor = _load_tensor(args, config)
    coerce = _coerce_exact if config.backend == EXACT else _coerce_float
    try:
        entries = [coerce(v) for v in args.matrix]
        rows = tuple(tuple(entries[3 * i:3 * i + 3]) for i in range(3))
        rotated = rotate(tensor, Orthogonal3(rows))
    except (TypeError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    _emit(json.dumps(to_json_dict(rotated), indent=2), config)
    return 0


def _suite_identity():
    residual = polynomial.verify_k6_identity()
    return {"passed": residual.is_zero(), "residual_terms": len(residual)}


def _suite_parity():
    got = polynomial.verify_parity()
    return {"passed": got == polynomial.parity_expected(), "classification": got}


def _suite_restriction():
    survivors = polynomial.verify_restriction_lemma()
    return {
        "passed": all(p.is_zero() for p in survivors.values()),
        "surviving_terms": {name: len(p) for name, p in survivors.items()},
    }


def _suite_isotropy(config: RunConfig):
    passed, reports = isotropy_suite(trials=config.trials, seed=config.seed)
    worst = {
        name: max(r.deviations[name] for r in reports) for name in INVARIANT_NAMES
    }
    return {"passed": passed, "tensors": len(reports), "trials": config.trials,
            "worst_deviation": worst}


def _suite_witnesses(config: RunConfig):
    reports = witnesses.verify_witnesses(rel_tol=1e-9 if config.tol is None else config.tol)
    return {
        "passed": all(r.passed for r in reports),
        "checks": {r.label: r.passed for r in reports},
    }


def cmd_verify(args, config: RunConfig) -> int:
    if args.suite in ("isotropy", "all") and config.trials < 1:
        raise InputError(f"--trials must be at least 1, got {config.trials}")
    runners = {
        "identity": lambda: _suite_identity(),
        "parity": lambda: _suite_parity(),
        "restriction": lambda: _suite_restriction(),
        "isotropy": lambda: _suite_isotropy(config),
        "witnesses": lambda: _suite_witnesses(config),
    }
    names = list(runners) if args.suite == "all" else [args.suite]
    summary = {"suites": {}, "passed": True}
    for name in names:
        result = runners[name]()
        summary["suites"][name] = result
        summary["passed"] = summary["passed"] and result["passed"]
    _emit(json.dumps(summary, indent=2), config)
    return 0 if summary["passed"] else 1


def cmd_solve(args, config: RunConfig) -> int:
    if args.which == "j8-root":
        result = bisect_root(h_eval, 0.15, 0.2, 1e-14 if config.tol is None else config.tol)
        report = verify_j8_separation()
        payload = {"solve": result.to_json_dict(), "report": report.to_json_dict()}
        _emit(json.dumps(payload, indent=2), config)
        return 0 if result.converged and report.passed else 1
    which = {"smith-bao-j6": "smith_bao", "mixed-j6": "mixed"}[args.which]
    report = verify_j6_separation(which, tol=1e-9 if config.tol is None else config.tol)
    payload = {"solve": report.notes.get("solver", {}), "report": report.to_json_dict()}
    _emit(json.dumps(payload, indent=2), config)
    return 0 if report.passed else 1


def _tolerance(text: str) -> float:
    """Parse a --tol value: a positive finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid tolerance {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"tolerance must be positive and finite, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmonic4",
        description="Isotropic invariants of fourth-order symmetric traceless tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, backend=True):
        # argparse takes only plain negative numbers as values; let "-4/5" and
        # "-1e-3" through too.  No option of harmonic4 starts with "-<digit>".
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        if backend:
            p.add_argument("--backend", choices=(EXACT, FLOAT), default=FLOAT,
                           help="scalar backend; exact accepts 'p/q' strings and "
                                "rejects floats (default: float)")
        p.add_argument("--format", dest="fmt", choices=("json", "csv", "text"),
                       default="json", help="output format (default: json)")
        p.add_argument("--out", default=None, help="write output to a file")
        p.add_argument("--tol", type=_tolerance, default=None,
                       help="positive finite tolerance override (defaults: 1e-9 "
                            "relative agreement, 1e-14 root bracket)")

    p_inv = sub.add_parser("invariants", help="compute the ten invariants of a tensor")
    p_inv.add_argument("--input", help='tensor JSON file: {"components": [9 values]}')
    p_inv.add_argument("-c", "--component", action="append", default=[],
                       help="inline component, nine occurrences in canonical order "
                            "(overrides --input)")
    add_common(p_inv)
    p_inv.set_defaults(handler=cmd_invariants)

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("suite",
                       choices=("identity", "parity", "restriction", "isotropy",
                                "witnesses", "all"))
    p_ver.add_argument("--trials", type=int, default=1000,
                       help="rotations per tensor for the isotropy suite (default: 1000)")
    p_ver.add_argument("--seed", type=int, default=42,
                       help="master seed for random suites (default: 42)")
    add_common(p_ver, backend=False)
    p_ver.set_defaults(handler=cmd_verify)

    p_rot = sub.add_parser("rotate", help="apply an orthogonal matrix to a tensor")
    p_rot.add_argument("--input", help="tensor JSON file")
    p_rot.add_argument("-c", "--component", action="append", default=[],
                       help="inline component (nine occurrences)")
    p_rot.add_argument("--matrix", nargs=9, required=True, metavar="Q",
                       help="row-major 3x3 orthogonal matrix, read like the "
                            "components: exact takes ints, 'p/q' and decimals "
                            "as rationals")
    add_common(p_rot)
    p_rot.set_defaults(handler=cmd_rotate)

    p_sol = sub.add_parser("solve", help="reproduce a solved witness")
    p_sol.add_argument("which", choices=("smith-bao-j6", "mixed-j6", "j8-root"))
    p_sol.add_argument("--seed", type=int, default=42)
    add_common(p_sol, backend=False)
    p_sol.set_defaults(handler=cmd_solve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(
        backend=getattr(args, "backend", FLOAT),
        seed=getattr(args, "seed", 42),
        trials=getattr(args, "trials", 1000),
        tol=getattr(args, "tol", None),
        fmt=getattr(args, "fmt", "json"),
        out=getattr(args, "out", None),
    )
    try:
        return args.handler(args, config)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
