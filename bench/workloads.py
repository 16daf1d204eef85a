"""The benchmark workloads, their independent output checks, and the layer probe.

Three workloads run in this process and are listed in BENCHMARK.json;
``symbolic`` runs each operation in a child process and is run by hand
(bench/README.md says why).  Every workload is a closed loop: one
operation at a time from one process, no threads.  Inputs come from the
seed alone.  A round is a fixed list of operations; a run repeats whole
rounds until its time is up, so every run attempts the same mix of
operations.

The checks below use facts stated in the paper (degrees, parities, the
restriction lemma, the isotropy gates, the witness tolerances) written out
here, not read back from the code under test.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
from harness import (
    Tracer,
    cayley,
    evaluate_terms,
    is_exactly_orthogonal,
    peak_rss_mb,
)

import harmonic4 as h4
from harmonic4 import cli, polynomial, witnesses
from harmonic4.rotations import trial_seeds

#: Invariant degrees as the paper states them.
DEGREES = {"J2": 2, "J3": 3, "J4": 4, "J5": 5, "J6": 6,
           "K6": 6, "J7": 7, "J8": 8, "J9": 9, "J10": 10}
ODD = tuple(name for name, k in DEGREES.items() if k % 2)

#: Rotations per tensor in each isotropy call (the CLI samples 20 tensors).
ISOTROPY_TRIALS = 10
ISOTROPY_TENSORS = 20

#: The matched invariants of the two degree-6 agreement systems.
J6_MATCHED = {"smith-bao-j6": ("J2", "J4", "J8", "J10"),
              "mixed-j6": ("J2", "K6", "J8", "J10")}

RUN_PY = Path(__file__).resolve().parent / "run.py"


def run_cli(argv) -> tuple:
    """harmonic4's CLI in process; returns (exit code, standard output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _parse(text: str, problems: list, label: str):
    try:
        return json.loads(text)
    except ValueError:
        problems.append(f"{label}: output is not valid JSON")
        return None


def _relative_gap(a: float, b: float) -> float:
    denom = max(abs(a), abs(b))
    return abs(a - b) / denom if denom else 0.0


#: Nominal duration of one reference computation, about its time on an
#: uncontended core of the machine the benchmark was written on.
NOMINAL_REF_S = 300e-6

_REF_ARRAY = np.arange(81.0).reshape(3, 3, 3, 3) / 81
_REF_FRACTIONS = tuple(Fraction(i, i + 7) for i in range(1, 9))


def reference_seconds() -> float:
    """Wall time of one fixed computation that does not touch harmonic4.

    It mixes the kinds of work the in-process operations do: dict and
    tuple handling, Fraction arithmetic and small numpy contractions.  On
    a shared machine the speed of a core changes by up to ~1.7x over
    seconds; the reference slows down with it, so dividing by it removes
    the machine's state from the reported times but not the program's.
    The garbage collector is off while it runs, so the size of the
    program's heap cannot change the reference's time.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        for i in range(600):
            table[(i, i & 7)] = table.get((i - 1, (i - 1) & 7), 0) + i * 3
        acc = Fraction(0)
        for f in _REF_FRACTIONS:
            acc = acc * f + f
        for _ in range(8):
            np.tensordot(_REF_ARRAY, _REF_ARRAY, axes=([1, 2, 3], [1, 2, 3]))
        return time.perf_counter() - t0
    finally:
        gc.enable()


@dataclass
class Result:
    """Measurements of one timed phase.

    ``op_s`` and ``round_s`` are the reported times; ``raw_op_s`` are the
    measured wall times before any scaling to the nominal speed.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    op_s: list = field(default_factory=list)
    raw_op_s: list = field(default_factory=list)
    round_s: list = field(default_factory=list)
    rss_mb: float = 0.0


class InProcess:
    """A workload whose operations run in this process.

    Subclasses set ``inputs`` (one round) and define ``op`` and ``check``.
    One untimed warm-up round fills lazy state and gives the expected
    output of each input.  Every timed operation must reproduce it
    exactly; each expected output is checked once, after the timed phase,
    so checks never run inside a timed region.

    A reference computation runs between consecutive operations.  Each
    operation's reported time is its wall time at nominal speed: scaled
    by NOMINAL_REF_S over the mean of the references just before and
    just after it.
    """

    inputs: list

    def op(self, x, tr):
        raise NotImplementedError

    def check(self, x, out) -> list:
        raise NotImplementedError

    def run(self, seconds: float, tr: Tracer) -> Result:
        res = Result()
        expected, errors = [], [0] * len(self.inputs)
        for x in self.inputs:
            try:
                expected.append(self.op(x, tr))
            except Exception as exc:  # a failing operation is data, not a crash
                print(f"warm-up operation raised {exc!r}", file=sys.stderr)
                expected.append(exc)
        mismatch = [0] * len(self.inputs)
        rounds = 0
        reference_seconds()  # the first call is slower: numpy warms up
        ref = reference_seconds()
        start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - start < seconds:
            spent = 0.0
            for i, x in enumerate(self.inputs):
                tr.op = res.attempted
                res.attempted += 1
                t0 = time.perf_counter()
                try:
                    out = self.op(x, tr)
                except Exception as exc:
                    print(f"{type(self).__name__} input {i} raised {exc!r}", file=sys.stderr)
                    errors[i] += 1
                    ref = reference_seconds()
                    continue
                dt = time.perf_counter() - t0
                ref_after = reference_seconds()
                scaled = dt * NOMINAL_REF_S / ((ref + ref_after) / 2)
                ref = ref_after
                res.raw_op_s.append(dt)
                res.op_s.append(scaled)
                spent += scaled
                if out != expected[i]:
                    mismatch[i] += 1
            res.round_s.append(spent)
            rounds += 1
        tr.op = None
        res.rss_mb = peak_rss_mb()
        for i, x in enumerate(self.inputs):
            problems = (["warm-up operation raised"] if isinstance(expected[i], Exception)
                        else self.check(x, expected[i]))
            # A wrong expected output condemns every completed repeat;
            # otherwise only the repeats that differ from it are wrong.
            bad = rounds - errors[i] if problems else mismatch[i]
            if mismatch[i]:
                problems.append(f"{mismatch[i]} repeats differ from the first output")
            for p in problems:
                print(f"{type(self).__name__} input {i}: {p}", file=sys.stderr)
            res.failed += errors[i] + bad
            res.wrong += bad
        return res


class Isotropy(InProcess):
    """``verify isotropy --trials T --seed s``: float engine, rotate, Haar sampling."""

    CALLS = 8

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.inputs = [rng.randrange(2**31) for _ in range(self.CALLS)]

    def op(self, s, tr):
        with tr.span("cli.verify_isotropy"):
            return run_cli(["verify", "isotropy", "--trials", str(ISOTROPY_TRIALS),
                            "--seed", str(s)])

    def check(self, s, out) -> list:
        code, text = out
        problems = [] if code == 0 else [f"exit code {code}"]
        report = _parse(text, problems, "verify isotropy")
        if report is None:
            return problems
        suite = report.get("suites", {}).get("isotropy", {})
        if report.get("passed") is not True or suite.get("passed") is not True:
            problems.append("suite did not report passed")
        if suite.get("tensors") != ISOTROPY_TENSORS or suite.get("trials") != ISOTROPY_TRIALS:
            problems.append("wrong tensor or trial count")
        worst = suite.get("worst_deviation", {})
        if set(worst) != set(DEGREES):
            problems.append("worst deviations do not cover the ten invariants")
        for name, dev in worst.items():
            gate = 1e-8 if DEGREES.get(name, 99) <= 6 else 1e-7
            if not 0 <= dev <= gate:
                problems.append(f"{name} deviation {dev} outside [0, {gate}]")
        return problems


class Exact(InProcess):
    """invariants(D), rotate(D, Q), invariants(QD) over Fractions of mixed heights."""

    # Many distinct tensors per round, so the operation times form a smooth
    # distribution rather than a few modes whose mix moves the quantiles.
    SMALL = 24
    LARGE = 12

    def __init__(self, seed: int):
        rng = random.Random(seed)
        tensors = [h4.random_harmonic(rng.randrange(2**31), h4.EXACT).indep
                   for _ in range(self.SMALL)]
        tensors += [tuple(Fraction(rng.randint(-999_999, 999_999), rng.randint(100_000, 999_999))
                          for _ in range(9)) for _ in range(self.LARGE)]
        self.inputs = []
        for i, indep in enumerate(tensors):
            params = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(3)]
            q = cayley(*params, reflect=i % 2 == 1)
            c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            self.inputs.append((indep, q, h4.Orthogonal3(q), c))

    def op(self, x, tr):
        indep, _, q, _ = x
        d = h4.Harmonic4(indep)
        with tr.span("invariants.exact"):
            before = h4.invariants(d)
        with tr.span("rotations.rotate_exact"):
            rotated = h4.rotate(d, q)
        with tr.span("invariants.exact"):
            after = h4.invariants(rotated)
        return before, after

    def check(self, x, out) -> list:
        indep, rows, _, c = x
        before, after = out
        d = h4.Harmonic4(indep)
        problems = []
        if not is_exactly_orthogonal(rows):
            problems.append("Q^T Q != I")
        if any(not isinstance(before[n], Fraction) for n in DEGREES):
            problems.append("invariants are not exact rationals")
        if before != h4.invariants_oracle(d):
            problems.append("invariants(D) != invariants_oracle(D)")
        if after != before:
            problems.append("invariants(rotate(D, Q)) != invariants(D)")
        scaled = h4.invariants(d.scale(c))
        for name, k in DEGREES.items():
            if scaled[name] != c ** k * before[name]:
                problems.append(f"{name}(cD) != c^{k} {name}(D)")
        return problems


WITNESS_COMMANDS = (("verify", "witnesses"), ("solve", "smith-bao-j6"),
                    ("solve", "mixed-j6"), ("solve", "j8-root"))


class Witnesses(InProcess):
    """The paper's witness reproduction: verify witnesses and the three solves.

    The witnesses are fixed by the paper, so the inputs do not depend on
    the seed.
    """

    def __init__(self, seed: int):
        self.inputs = [WITNESS_COMMANDS]

    def op(self, commands, tr):
        out = []
        for argv in commands:
            with tr.span("cli." + "_".join(argv).replace("-", "_")):
                out.append(run_cli(argv))
        return tuple(out)

    def check(self, commands, out) -> list:
        problems, payloads = [], {}
        for argv, (code, text) in zip(commands, out):
            label = " ".join(argv)
            if code != 0:
                problems.append(f"{label}: exit code {code}")
            payloads[argv[1]] = _parse(text, problems, label)
        verify = payloads["witnesses"]
        if verify is not None and verify.get("passed") is not True:
            problems.append("verify witnesses did not report passed")
        for which, matched in J6_MATCHED.items():
            payload = payloads[which]
            if payload is None:
                continue
            if payload.get("report", {}).get("passed") is not True:
                problems.append(f"{which} did not report passed")
            try:
                sol = payload["solve"]["solution"]
                left, right = (h4.Harmonic4((0.0, 0.0, sol["D1113"], 0.0, sol["D1123"],
                                             0.0, sol[slot], 0.0, sol["D2223"]))
                               for slot in ("D1223", "D1223_hat"))
            except (KeyError, TypeError):
                problems.append(f"{which}: no solution in the output")
                continue
            lv, rv = h4.invariants_oracle(left), h4.invariants_oracle(right)
            for name in matched:
                if _relative_gap(lv[name], rv[name]) > 1e-9:
                    problems.append(f"{which}: {name} does not agree within 1e-9")
            if _relative_gap(lv["J6"], rv["J6"]) < 1e-6:
                problems.append(f"{which}: J6 gap below 1e-6")
        j8 = payloads["j8-root"]
        if j8 is not None:
            if j8.get("report", {}).get("passed") is not True:
                problems.append("j8-root did not report passed")
            root = j8.get("solve", {}).get("solution", {}).get("root")
            if not (isinstance(root, float) and 0.15 < root < 0.2):
                problems.append(f"t* = {root!r} outside (0.15, 0.2)")
        return problems


def symbolic_points(seed: int, op: int, count: int = 2) -> list:
    """Seeded rational points at which operation ``op`` checks the expansions."""
    rng = random.Random(f"{seed}/{op}")
    return [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(9))
            for _ in range(count)]


def symbolic_op(seed: int, op: int, tr: Tracer) -> dict:
    """One symbolic operation in a fresh process: the three proofs, then the checks."""
    t0 = time.perf_counter()
    with tr.span("polynomial.verify_k6_identity_cold"):
        residual = polynomial.verify_k6_identity()
    with tr.span("polynomial.verify_parity"):
        parity = polynomial.verify_parity()
    with tr.span("polynomial.verify_restriction"):
        survivors = polynomial.verify_restriction_lemma()
    op_s = time.perf_counter() - t0
    done, rss = time.monotonic(), peak_rss_mb()

    problems = []
    if not residual.is_zero():
        problems.append(f"K6 identity residual has {len(residual)} terms")
    if parity != {n: "odd" if k % 2 else "even" for n, k in DEGREES.items()}:
        problems.append(f"parity classification {parity}")
    if set(survivors) != set(ODD) or any(not p.is_zero() for p in survivors.values()):
        problems.append("restriction terms survive")
    table = {n: polynomial.symbolic_invariant(n) for n in DEGREES}
    for n, k in DEGREES.items():
        if any(sum(m) != k for m in table[n].terms):
            problems.append(f"{n} has a monomial of degree other than {k}")
    for point in symbolic_points(seed, op):
        oracle = h4.invariants_oracle(h4.Harmonic4(point))
        for n in DEGREES:
            if evaluate_terms(table[n].terms, point) != oracle[n]:
                problems.append(f"{n} expansion != oracle at {point}")
    return {"op_s": op_s, "done": done, "rss_mb": rss, "problems": problems,
            "spans": tr.spans}


class Symbolic:
    """Identity, parity and restriction proofs from an empty symbolic cache.

    Each operation is a fresh child process, started one at a time, so
    every sample pays for the table build.  Operation time is measured in
    the child from the first proof call to the last; the round time is
    from spawning the child to that point, as a user of ``verify`` sees it.
    """

    def __init__(self, seed: int):
        self.seed = seed

    def run(self, seconds: float, tr: Tracer) -> Result:
        res = Result()
        start = time.perf_counter()
        while res.attempted == 0 or time.perf_counter() - start < seconds:
            op = res.attempted
            res.attempted += 1
            argv = [sys.executable, str(RUN_PY), "--symbolic-op", str(op),
                    "--seed", str(self.seed), "--trace", "1" if tr.enabled else "0"]
            spawned = time.monotonic()
            try:
                proc = subprocess.run(argv, capture_output=True, text=True, timeout=150)
                if proc.returncode != 0:
                    raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
                child = json.loads(proc.stdout.splitlines()[-1])
            except (subprocess.TimeoutExpired, RuntimeError, IndexError, ValueError) as exc:
                print(f"symbolic op {op} gave no result: {exc}", file=sys.stderr)
                res.failed += 1
                continue
            res.op_s.append(child["op_s"])
            res.raw_op_s.append(child["op_s"])
            # time.monotonic is one system-wide clock, so the child's stamp
            # and the parent's spawn time can be subtracted.
            res.round_s.append(child["done"] - spawned)
            res.rss_mb = max(res.rss_mb, child["rss_mb"])
            tr.adopt(child["spans"], op)
            for p in child["problems"]:
                print(f"symbolic op {op}: {p}", file=sys.stderr)
            if child["problems"]:
                res.failed += 1
                res.wrong += 1
        return res


WORKLOADS = {"isotropy": Isotropy, "symbolic": Symbolic, "exact": Exact,
             "witnesses": Witnesses}


def probe_layers(seed: int, tr: Tracer):
    """Time each layer's public functions on the workloads' own inputs.

    Float-layer spans use the 20 unit-norm tensors of the first isotropy
    call, exact-layer spans the exact workload's tensors and matrices.
    """
    iso_seed = Isotropy(seed).inputs[0]
    for ts in trial_seeds(iso_seed, ISOTROPY_TENSORS):
        raw = h4.random_harmonic(ts, h4.FLOAT)
        norm = float(raw.frobenius_norm_sq()) ** 0.5
        unit = [v / norm for v in raw.indep]
        with tr.span("tensor.from_independent"):
            d = h4.from_independent(unit, h4.FLOAT)
        with tr.span("tensor.to_array"):
            arr = d.to_array()
        with tr.span("tensor.from_array"):
            h4.from_array(arr)
        with tr.span("invariants.float"):
            h4.invariants(d)
        for s in trial_seeds(ts, ISOTROPY_TRIALS):
            with tr.span("rotations.isotropy_trial"):
                with tr.span("rotations.random_rotation"):
                    q = h4.random_rotation(s)
                with tr.span("rotations.rotate_float"):
                    rotated = h4.rotate(d, q)
                with tr.span("invariants.float_fresh"):
                    h4.invariants(rotated)
        with tr.span("rotations.isotropy_check"):
            h4.isotropy_check(d, ISOTROPY_TRIALS, ts)
        with tr.span("cli.invariants"):
            run_cli(["invariants"] + [a for v in unit for a in ("-c", repr(v))])

    for indep, _, q, _ in Exact(seed).inputs:
        d = h4.Harmonic4(indep)
        with tr.span("tensor.expand_exact"):
            d.expand()
        with tr.span("invariants.exact"):
            h4.invariants(d)
        with tr.span("invariants.bilinear_B_exact"):
            h4.bilinear_B(d)
        with tr.span("invariants.quartic_C_exact"):
            h4.quartic_C(d)
        with tr.span("invariants.oracle_exact"):
            h4.invariants_oracle(d)
        with tr.span("rotations.rotate_exact"):
            h4.rotate(d, q)

    symbols = h4.Harmonic4(tuple(h4.SparsePoly.variable(i) for i in range(9)))
    with tr.span("invariants.symbolic_expand"):
        vec = h4.invariants(symbols)
    tr.count("polynomial.terms", sum(len(vec[n]) for n in DEGREES))
    point = symbolic_points(seed, -1, count=1)[0]
    for _ in range(3):
        with tr.span("polynomial.mul"):
            vec["J2"] * vec["J4"]
            vec["J3"] * vec["J3"]
        with tr.span("polynomial.evaluate"):
            vec["J10"].evaluate(point)
    with tr.span("polynomial.symbolic_table"):
        polynomial.symbolic_invariant("J2")
    for _ in range(3):
        with tr.span("polynomial.verify_k6_identity"):
            polynomial.verify_k6_identity()
        with tr.span("polynomial.verify_parity"):
            polynomial.verify_parity()
        with tr.span("polynomial.verify_restriction"):
            polynomial.verify_restriction_lemma()

    for i in range(5):
        with tr.span("witnesses.verify_catalog"):
            witnesses.verify_catalog()
        with tr.span("witnesses.verify_sign_pairs"):
            witnesses.verify_sign_pairs()
        with tr.span("witnesses.verify_j8"):
            witnesses.verify_j8_separation()
        with tr.span("witnesses.bisect_root"):
            root = witnesses.bisect_root(witnesses.h_eval, 0.15, 0.2, 1e-14)
        with tr.span("witnesses.solve_smith_bao"):
            sb = witnesses.solve_agreement_system(witnesses.J6_SYSTEMS["smith_bao"])
        with tr.span("witnesses.solve_mixed"):
            mixed = witnesses.solve_agreement_system(witnesses.J6_SYSTEMS["mixed"])
        with tr.span("cli.verify_witnesses"):
            run_cli(["verify", "witnesses"])
        if i == 0:
            tr.count("witnesses.bisect_iterations", root.iterations)
            tr.count("witnesses.gn_iterations", sb.iterations + mixed.iterations)
    # No printed guess exists for this system, so it goes through _grid_seeds.
    with tr.span("witnesses.grid_solve"):
        witnesses.solve_agreement_system(("J2", "J4", "J6", "J10"))
