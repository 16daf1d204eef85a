"""Byte-exact CLI output of every subcommand and format against tests/golden/.

Each case is an argv, the exit code it must return and a file under
``tests/golden/`` holding its exact standard output; the cases in
``STDERR_CASES`` also have a ``.stderr`` file holding their exact
standard error.  A change to what the CLI prints shows up here as a diff
of that file.  After an intended
change, rewrite the files with

    PYTHONPATH=src python tests/test_cli_golden.py

and commit them with the change that caused them.
"""

import contextlib
import io
import subprocess
import sys
from pathlib import Path

import pytest

from harmonic4.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

COMPONENTS = ("1/2", "-3", "0", "2", "1/3", "-1", "0", "5/4", "2")
MATRIX = ("1/9", "8/9", "4/9", "4/9", "-4/9", "7/9", "8/9", "1/9", "-4/9")


def _inline(values):
    return [arg for v in values for arg in ("-c", v)]


#: name -> (argv, exit code)
CASES = {
    "invariants-float-json": (["invariants", *_inline(COMPONENTS)], 0),
    "invariants-float-csv": (["invariants", *_inline(COMPONENTS), "--format", "csv"], 0),
    "invariants-float-text": (["invariants", *_inline(COMPONENTS), "--format", "text"], 0),
    "invariants-exact-json": (["invariants", "--backend", "exact", *_inline(COMPONENTS)], 0),
    "invariants-exact-csv": (["invariants", "--backend", "exact", *_inline(COMPONENTS),
                              "--format", "csv"], 0),
    "invariants-exact-text": (["invariants", "--backend", "exact", *_inline(COMPONENTS),
                               "--format", "text"], 0),
    "rotate-float": (["rotate", *_inline(COMPONENTS), "--matrix", *MATRIX], 0),
    "rotate-exact": (["rotate", "--backend", "exact", *_inline(COMPONENTS),
                      "--matrix", *MATRIX], 0),
    "verify-identity": (["verify", "identity"], 0),
    "verify-parity": (["verify", "parity"], 0),
    "verify-restriction": (["verify", "restriction"], 0),
    "verify-isotropy": (["verify", "isotropy", "--trials", "5"], 0),
    # 1,100 trials span two isotropy blocks of 1,024 rows per tensor.
    "verify-isotropy-blocks": (["verify", "isotropy", "--trials", "1100", "--seed", "7"], 0),
    # The argv of the benchmark's isotropy workload, at a fixed seed.
    "verify-isotropy-trials10": (["verify", "isotropy", "--trials", "10", "--seed", "1234567"], 0),
    "verify-witnesses": (["verify", "witnesses"], 0),
    "verify-all": (["verify", "all", "--trials", "5"], 0),
    "solve-smith-bao-j6": (["solve", "smith-bao-j6"], 0),
    "solve-mixed-j6": (["solve", "mixed-j6"], 0),
    "solve-j8-root": (["solve", "j8-root"], 0),
    # Flags a subcommand does not read are not accepted: usage error.
    "rotate-unread-flags": (["rotate", *_inline(COMPONENTS), "--matrix", *MATRIX,
                             "--format", "csv", "--tol", "0.5"], 2),
    "solve-unread-flags": (["solve", "j8-root", "--seed", "5", "--format", "text"], 2),
    "invariants-unread-tol": (["invariants", *_inline(COMPONENTS), "--tol", "0.5"], 2),
    "verify-unread-format": (["verify", "parity", "--format", "csv"], 2),
    # Inputs whose invariants are not finite binary64 numbers: input error.
    "invariants-nan": (["invariants", *_inline(["nan"] + ["0"] * 8)], 2),
    "invariants-overflow": (["invariants", *_inline(["1e200"] + ["0"] * 8)], 2),
    "rotate-overflow": (["rotate", *_inline(["1.7e308", "1.7e308"] + ["0"] * 7),
                         "--matrix", "0.6", "0.8", "0", "-0.8", "0.6", "0", "0", "0", "1"], 2),
    # A matrix entry whose exact defect has no binary64 value: still not orthogonal.
    "rotate-huge-matrix": (["rotate", "--backend", "exact", *_inline(["1"] + ["0"] * 8),
                            "--matrix", "1e400", "0", "0", "0", "1", "0", "0", "0", "1"], 2),
    # The same entry is inf in binary64: named before any orthogonality check.
    "rotate-nonfinite-matrix": (["rotate", *_inline(["1"] + ["0"] * 8),
                                 "--matrix", "1e400", "0", "0", "0", "1", "0", "0", "0", "1"], 2),
}

#: Cases whose standard error is pinned too, in ``<name>.stderr``.
STDERR_CASES = ("invariants-nan", "invariants-overflow", "rotate-overflow",
                "rotate-huge-matrix", "rotate-nonfinite-matrix")


def run_case(argv) -> tuple:
    """(exit code, standard output, standard error) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def want_stderr(name) -> str:
    """The pinned standard error of a case in ``STDERR_CASES``."""
    return (GOLDEN / f"{name}.stderr").read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    argv, want_code = CASES[name]
    code, out, err = run_case(argv)
    assert code == want_code
    assert out == (GOLDEN / f"{name}.txt").read_text()
    if name in STDERR_CASES:
        assert err == want_stderr(name)


def test_every_golden_file_has_a_case():
    assert {p.stem for p in GOLDEN.glob("*.txt")} == set(CASES)


def test_every_stderr_golden_has_a_case():
    assert {p.stem for p in GOLDEN.glob("*.stderr")} == set(STDERR_CASES)


@pytest.mark.parametrize("name", ["invariants-exact-json", "invariants-float-json", "rotate-exact",
                                  "rotate-float", "verify-isotropy", "verify-isotropy-blocks",
                                  "verify-isotropy-trials10", "verify-witnesses", "solve-j8-root",
                                  "solve-mixed-j6", "solve-smith-bao-j6", "rotate-overflow",
                                  "rotate-huge-matrix", "rotate-nonfinite-matrix"])
def test_optimized_run_matches_golden(name):
    """Under ``python -O`` the debug-only trace check is gone; exact, float and witness output,
    and the error of an overflowing rotation, keep their bytes."""
    argv, want_code = CASES[name]
    proc = subprocess.run([sys.executable, "-O", "-m", "harmonic4", *argv],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (
        want_code, want_stderr(name) if name in STDERR_CASES else "")
    assert proc.stdout == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    import warnings

    GOLDEN.mkdir(exist_ok=True)
    for stale in [*GOLDEN.glob("*.txt"), *GOLDEN.glob("*.stderr")]:
        stale.unlink()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, (argv, _) in sorted(CASES.items()):
            code, out, err = run_case(argv)
            (GOLDEN / f"{name}.txt").write_text(out)
            if name in STDERR_CASES:
                (GOLDEN / f"{name}.stderr").write_text(err)
            print(f"{name}: exit {code}", file=sys.stderr)
