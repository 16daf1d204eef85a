"""Benchmark of harmonic4: four closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload isotropy --seed 1 --seconds 20 --trace 0

Workloads: isotropy, symbolic, exact, witnesses (see bench/README.md);
``--workload all`` runs the four in turn and prints one line each.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics named in
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Raw samples and, when traced, every span go to bench/out/.

The program under test is always imported from this checkout's src/.  Run
without -O: ``rotate`` checks its output under ``__debug__``, as it does
for users.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from harness import Tracer, median, percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: Set-up is measured this many times per run, in fresh processes.
SETUP_SAMPLES = 5

UNIT_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}

WORKLOAD_NAMES = ("isotropy", "symbolic", "exact", "witnesses")


def fail(message: str):
    print(f"bench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Put this checkout's src/ first on the path and import harmonic4 from it."""
    src = ROOT / "src"
    if not (src / "harmonic4" / "__init__.py").is_file():
        fail(f"no harmonic4 package under {src}")
    sys.path.insert(0, str(src))
    import harmonic4

    if Path(harmonic4.__file__).resolve().parent != src / "harmonic4":
        fail(f"harmonic4 was imported from {harmonic4.__file__}, not from {src}")


def measure_setup(workload: str, seed: int) -> float:
    """Median time from spawning a process until its inputs are ready.

    That covers interpreter start, importing harmonic4 and numpy, and
    generating the workload's inputs from the seed.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        spawned = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            fail(f"set-up probe exited {proc.returncode}: {proc.stderr[-2000:]}")
        # time.monotonic is one system-wide clock, shared with the child.
        samples.append(json.loads(proc.stdout.splitlines()[-1])["ready"] - spawned)
    return median(samples)


def end_to_end(res, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "wall_s": median(res.round_s),
        "op_p50_ms": median(res.op_s) * 1e3,
        "op_p90_ms": percentile(res.op_s, 90) * 1e3,
        "peak_rss_mb": res.rss_mb,
    }


def per_layer(spec: list, tr: Tracer, overhead_pct: float) -> dict:
    """Per-layer values by metric name.

    A timing metric is named ``<span>_<unit>`` (median duration) or
    ``<span>_self_<unit>`` (median self time); a count metric is named
    after its counter.
    """
    summary = tr.summary()
    out = {}
    for metric in spec:
        name, unit = metric["name"], metric["unit"]
        if name == "trace.overhead_pct":
            out[name] = overhead_pct
        elif unit == "count":
            out[name] = tr.counts[name]
        else:
            span = name.rpartition("_")[0]
            key = "median_s"
            if span.endswith("_self"):
                span, key = span[: -len("_self")], "self_median_s"
            out[name] = summary[span][key] * UNIT_SCALE[unit]
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        help="all: run each workload in turn, one JSON line each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed phase (default: 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--symbolic-op", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and args.symbolic_op is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and caches stay separate."""
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            code = proc.returncode
            continue
        print(json.dumps({"workload": name, **json.loads(proc.stdout.splitlines()[-1])}))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not __debug__:
        fail("run without -O: rotate checks its output under __debug__")
    load_program()
    import workloads

    if args.symbolic_op is not None:
        tr = Tracer(bool(args.trace))
        print(json.dumps(workloads.symbolic_op(args.seed, args.symbolic_op, tr)))
        return 0
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print(json.dumps({"ready": time.monotonic()}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_s = measure_setup(args.workload, args.seed)
    if args.trace:
        plain = workload.run(args.seconds / 2, Tracer(False))
        tr = Tracer(True)
        traced = workload.run(args.seconds / 2, tr)
        runs = [plain, traced]
        if not plain.op_s or not traced.op_s:
            fail("no operation completed")
        overhead_pct = (median(traced.op_s) / median(plain.op_s) - 1) * 100
        workloads.probe_layers(args.seed, tr)
        values = per_layer(spec["per_layer"], tr, overhead_pct)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        tr = None
        runs = [workload.run(args.seconds, Tracer(False))]
        if not runs[0].op_s:
            fail("no operation completed")
        values = end_to_end(runs[0], setup_s)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": all(r.wrong == 0 for r in runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump({**result, "setup_s": setup_s, "runs": [asdict(r) for r in runs]}, fh)
    if tr is not None:
        tr.write(OUT / f"trace-{stem}.json", {"workload": args.workload, "seed": args.seed})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
