"""Command-line front end: invariant evaluation, verification, rotation, solving.

Subcommands
-----------
invariants   compute the ten invariants of a tensor (file or inline)
verify       run a verification suite: identity | parity | restriction |
             isotropy | witnesses | all
rotate       apply an orthogonal matrix to a tensor
solve        smith-bao-j6 | mixed-j6 | j8-root

Exit codes: 0 success, 1 verification/convergence failure, 2 usage or
input error (including a result that is not finite), 141 when the reader
of standard output closed it early.  Output is deterministic for fixed
inputs and flags.

JSON output is the bytes of ``json.dumps(value, indent=2, allow_nan=False)``,
ASCII-escaped, plus a newline; :func:`_dumps` writes them with json's C
encoder where it can, and a value json cannot write fails with json's own
message as an input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import polynomial, witnesses
from .invariants import INVARIANT_NAMES, InvariantVector, invariants
from .rotations import Orthogonal3, isotropy_suite, rotate
from .tensor import (EXACT, FLOAT, SEED_LIMIT, _coerce_exact, _coerce_float,
                     from_independent, from_json_dict, to_json_dict)
from .witnesses import verify_j6_separation, verify_j8_separation


class InputError(Exception):
    """Bad user input; maps to exit code 2."""


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _load_tensor(args):
    try:
        if args.component:
            if len(args.component) != 9:
                raise InputError(
                    f"need exactly 9 --component values, got {len(args.component)}")
            tensor = from_independent(args.component, backend=args.backend)
        elif args.input:
            tensor = from_json_dict(_read_json(args.input), backend=args.backend)
        else:
            raise InputError("no tensor given: pass --input FILE or nine --component values")
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(str(exc)) from exc
    if args.backend == FLOAT and not all(math.isfinite(v) for v in tensor.indep):
        raise InputError("float components must be finite numbers")
    return tensor


_INDENT = "  "
_CONTAINERS = (dict, list, tuple)
#: Types the encoder writes as one token; a container holding anything else is walked.
_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _flat(depth: int):
    """json's encoder of a scalar, or of a container of scalars whose items sit at ``depth`` + 1.

    Its item separator is "," + newline + the items' indent, so a container
    comes out as ``json.dumps(indent=2)`` writes it, less the line breaks
    after its opening and before its closing bracket.  It is the C encoder
    where the accelerator is there, else json's own pure-Python one.
    """
    sep = ",\n" + _INDENT * (depth + 1)
    encoder = json.JSONEncoder(separators=(sep, ": "), allow_nan=False)
    if json.encoder.c_make_encoder is None:
        return encoder.encode
    encode = json.encoder.c_make_encoder(None, encoder.default, json.encoder.encode_basestring_ascii,
                                         None, ": ", sep, False, False, False)
    return lambda value: "".join(encode(value, 0))


def _encode(value, depth: int) -> str:
    """A dict, list or tuple as ``json.dumps(indent=2)`` writes it at ``depth``."""
    values = value.values() if isinstance(value, dict) else value
    if _SCALARS.issuperset(map(type, values)):
        text = _flat(depth)(value)
        if len(text) == 2:  # {} or []
            return text
        body = text[1:-1]
    else:
        parts = [_encode(v, depth + 1) if isinstance(v, _CONTAINERS) else _flat(depth)(v)
                 for v in values]
        if isinstance(value, dict):
            key = json.encoder.encode_basestring_ascii
            parts = [f"{key(k)}: {part}" for k, part in zip(value, parts)]
        text = "{}" if isinstance(value, dict) else "[]"
        body = (",\n" + _INDENT * (depth + 1)).join(parts)
    return f"{text[0]}\n{_INDENT * (depth + 1)}{body}\n{_INDENT * depth}{text[-1]}"


def _dumps(value) -> str:
    """Exactly ``json.dumps(value, indent=2, allow_nan=False)``, its errors included.

    Each container of scalars is one call of :func:`_flat`; only containers
    that hold containers are walked here.  What that path cannot write (a
    float that is not finite, a nested dict's key that is not a string, an
    object json cannot encode, a cycle) goes to ``json.dumps`` itself, so
    the bytes, and the text of the error it raises, are json's.
    """
    try:
        return _encode(value, 0) if isinstance(value, _CONTAINERS) else _flat(0)(value)
    except (TypeError, ValueError, RecursionError):
        return json.dumps(value, indent=2, allow_nan=False)


def _json(payload) -> str:
    try:
        return _dumps(payload)
    except ValueError as exc:
        raise InputError(f"result is not finite in binary64 ({exc})") from exc


def _emit(text: str, args):
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from exc
    else:
        print(text, flush=True)


def _format_invariants(vec: InvariantVector, fmt: str) -> str:
    payload = vec.to_json_dict()
    if not all(math.isfinite(v) for v in payload.values() if isinstance(v, float)):
        raise InputError("invariants are not finite in binary64; scale the tensor down")
    if fmt == "json":
        return _dumps(payload)
    if fmt == "csv":
        header = ",".join(INVARIANT_NAMES)
        row = ",".join(str(payload[name]) for name in INVARIANT_NAMES)
        return f"{header}\n{row}"
    return "\n".join(f"{name} = {payload[name]}" for name in INVARIANT_NAMES)


def cmd_invariants(args) -> int:
    tensor = _load_tensor(args)
    # An overflow is reported as an input error below, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        vec = invariants(tensor)
    _emit(_format_invariants(vec, args.fmt), args)
    return 0


def cmd_rotate(args) -> int:
    tensor = _load_tensor(args)
    coerce = _coerce_exact if args.backend == EXACT else _coerce_float
    try:
        entries = [coerce(v) for v in args.matrix]
        rows = tuple(tuple(entries[3 * i:3 * i + 3]) for i in range(3))
        # An overflow is reported as an input error below, not as numpy warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            rotated = rotate(tensor, Orthogonal3(rows))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(str(exc)) from exc
    if args.backend == FLOAT and not all(math.isfinite(v) for v in rotated.indep):
        raise InputError("rotated tensor is not finite in binary64; scale the tensor down")
    _emit(_json(to_json_dict(rotated)), args)
    return 0


def _suite_identity(args):
    residual = polynomial.verify_k6_identity()
    return {"passed": residual.is_zero(), "residual_terms": len(residual)}


def _suite_parity(args):
    got = polynomial.verify_parity()
    return {"passed": got == polynomial.parity_expected(), "classification": got}


def _suite_restriction(args):
    survivors = polynomial.verify_restriction_lemma()
    return {
        "passed": all(p.is_zero() for p in survivors.values()),
        "surviving_terms": {name: len(p) for name, p in survivors.items()},
    }


def _suite_isotropy(args):
    passed, reports = isotropy_suite(trials=args.trials, seed=args.seed)
    # Each report's deviations are keyed in INVARIANT_NAMES order.
    rows = zip(*(r.deviations.values() for r in reports))
    worst = dict(zip(INVARIANT_NAMES, map(max, rows)))
    return {"passed": passed, "tensors": len(reports), "trials": args.trials,
            "worst_deviation": worst}


def _suite_witnesses(args):
    flags = witnesses.witness_flags()
    cells = {}
    for (basis, member), (label, passed) in flags.items():
        cells.setdefault(basis, {})[member] = {"witness": label, "passed": passed}
    return {"passed": all(passed for _, passed in flags.values()), "cells": cells}


SUITES = {
    "identity": _suite_identity,
    "parity": _suite_parity,
    "restriction": _suite_restriction,
    "isotropy": _suite_isotropy,
    "witnesses": _suite_witnesses,
}


def cmd_verify(args) -> int:
    if args.suite in ("isotropy", "all") and args.trials < 1:
        raise InputError(f"--trials must be at least 1, got {args.trials}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    summary = {"suites": {}, "passed": True}
    for name in names:
        result = SUITES[name](args)
        summary["suites"][name] = result
        summary["passed"] = summary["passed"] and result["passed"]
    _emit(_json(summary), args)
    return 0 if summary["passed"] else 1


def cmd_solve(args) -> int:
    if args.which == "j8-root":
        report = verify_j8_separation()
    else:
        which = {"smith-bao-j6": "smith_bao", "mixed-j6": "mixed"}[args.which]
        report = verify_j6_separation(which)
    payload = {"solve": report.notes["solver"], "report": report.to_json_dict()}
    _emit(_json(payload), args)
    return 0 if report.passed else 1


def _seed(text: str) -> int:
    """Parse a --seed value: an integer in [0, 2**64)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}") from None
    if not 0 <= value < SEED_LIMIT:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2**64), got {text}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of all subcommands, built once per process: it takes ~1 ms."""
    parser = argparse.ArgumentParser(
        prog="harmonic4",
        description="Isotropic invariants of fourth-order symmetric traceless tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, handler, help, parent=sub):
        p = parent.add_parser(name, help=help)
        # argparse takes only plain negative numbers as values; let "-4/5" and
        # "-1e-3" through too.  No option of harmonic4 starts with "-<digit>".
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        p.add_argument("--out", default=None, help="write output to a file")
        p.set_defaults(handler=handler)
        return p

    def add_tensor(p, component_help):
        p.add_argument("--input", help='tensor JSON file: {"components": [9 values]}')
        p.add_argument("-c", "--component", action="append", default=[],
                       help=component_help)
        p.add_argument("--backend", choices=(EXACT, FLOAT), default=FLOAT,
                       help="scalar backend; exact accepts 'p/q' strings and "
                            "rejects floats (default: float)")

    p_inv = add_parser("invariants", cmd_invariants, "compute the ten invariants of a tensor")
    add_tensor(p_inv, "inline component, nine occurrences in canonical order "
                      "(overrides --input)")
    p_inv.add_argument("--format", dest="fmt", choices=("json", "csv", "text"),
                       default="json", help="output format (default: json)")

    p_ver = sub.add_parser("verify", help="run verification suites")
    suites = p_ver.add_subparsers(dest="suite", required=True)
    for name in (*SUITES, "all"):
        p_suite = add_parser(name, cmd_verify,
                             "every suite" if name == "all" else f"the {name} suite", suites)
        if name in ("isotropy", "all"):
            p_suite.add_argument("--trials", type=int, default=1000,
                                 help="rotations per tensor for the isotropy suite "
                                      "(default: 1000)")
            p_suite.add_argument("--seed", type=_seed, default=42,
                                 help="master seed for the isotropy suite, an integer "
                                      "in [0, 2**64) (default: 42)")

    p_rot = add_parser("rotate", cmd_rotate, "apply an orthogonal matrix to a tensor")
    add_tensor(p_rot, "inline component (nine occurrences)")
    p_rot.add_argument("--matrix", nargs=9, required=True, metavar="Q",
                       help="row-major 3x3 orthogonal matrix, read like the "
                            "components: exact takes ints, 'p/q' and decimals "
                            "as rationals")

    p_sol = add_parser("solve", cmd_solve, "reproduce a solved witness")
    p_sol.add_argument("which", choices=("smith-bao-j6", "mixed-j6", "j8-root"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away: end quietly with 128 + SIGPIPE, as a shell
        # tool killed by the signal would.
        return 141


def run() -> int:
    """The console entry point: :func:`main` for a process of its own.

    After a closed pipe it points standard output at the null device, so
    the interpreter's final flush cannot raise.  :func:`main` leaves the
    process's descriptors alone, since it is also called in process.
    """
    code = main()
    if code == 141:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(run())
