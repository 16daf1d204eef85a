"""Statistics, peak memory and in-memory span tracing for the benchmark.

Nothing here imports harmonic4, so the helpers can be tested on their own.
"""

from __future__ import annotations

import contextlib
import json
import math
import resource
import statistics
import time
from fractions import Fraction

_UNTRACED = contextlib.nullcontext()


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank {q} outside (0, 100]")
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100 * len(ordered)), 1) - 1]


def median(values) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cayley(a, b, c, reflect: bool = False) -> tuple:
    """Dense rational orthogonal matrix (I - A)(I + A)^-1, A skew with entries a, b, c.

    With ``reflect`` the result is composed with diag(1, 1, -1), so both
    components of O(3) are reached.  Every entry is a Fraction.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    n = 1 + a * a + b * b + c * c
    rows = (
        (1 + a * a - b * b - c * c, 2 * (a * b - c), 2 * (a * c + b)),
        (2 * (a * b + c), 1 - a * a + b * b - c * c, 2 * (b * c - a)),
        (2 * (a * c - b), 2 * (b * c + a), 1 - a * a - b * b + c * c),
    )
    q = tuple(tuple(v / n for v in row) for row in rows)
    if reflect:
        q = tuple((r[0], r[1], -r[2]) for r in q)
    return q


def is_exactly_orthogonal(q) -> bool:
    """Q^T Q == I with exact arithmetic."""
    return all(sum(q[k][i] * q[k][j] for k in range(3)) == (i == j)
               for i in range(3) for j in range(3))


def evaluate_terms(terms, point) -> Fraction:
    """Exact value of a monomial -> coefficient map at a rational point.

    With x_i = n_i / q over a common denominator q, a monomial of degree k
    equals prod(n_i^e_i) / q^k, so each term is an integer product; terms
    are summed per degree and divided once.  It shares no code with
    ``SparsePoly.evaluate``.
    """
    point = [Fraction(x) for x in point]
    q = math.lcm(*(x.denominator for x in point))
    nums = [int(x * q) for x in point]
    top = max((max(m) for m in terms), default=0)
    powers = [[n ** e for e in range(top + 1)] for n in nums]
    by_degree = {}
    for mono, coeff in terms.items():
        value = coeff
        for row, e in zip(powers, mono):
            if e:
                value *= row[e]
        k = sum(mono)
        by_degree[k] = by_degree.get(k, 0) + value
    return sum((Fraction(v) / q ** k for k, v in by_degree.items()), Fraction(0))


class Tracer:
    """Spans kept in memory: name, start, end, parent span index, operation id.

    A disabled tracer hands out one shared no-op context, so untraced
    timing pays only for a ``with`` on ``nullcontext``.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.counts = {}
        self.op = None
        self._stack = []

    def span(self, name: str):
        return self._span(name) if self.enabled else _UNTRACED

    @contextlib.contextmanager
    def _span(self, name: str):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None, "op": self.op}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int):
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + n

    def adopt(self, spans, op):
        """Append spans recorded elsewhere (a child process), re-indexing parents."""
        base = len(self.spans)
        for record in spans:
            parent = record["parent"]
            self.spans.append(dict(record, op=op,
                                   parent=None if parent is None else base + parent))

    def summary(self) -> dict:
        """Per span name: count, median duration and median self time, in seconds."""
        return summarize(self.spans)

    def write(self, path: str, extra: dict):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "summary": self.summary(), **extra}, fh)


def self_times(spans) -> list:
    """Duration of each span minus the time covered by its direct children.

    Children of one span never overlap (spans nest like calls), so the
    covered time is the sum of their durations.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def summarize(spans) -> dict:
    own = self_times(spans)
    grouped = {}
    for s, self_time in zip(spans, own):
        grouped.setdefault(s["name"], []).append((s["end"] - s["start"], self_time))
    return {
        name: {"count": len(rows),
               "median_s": median([d for d, _ in rows]),
               "self_median_s": median([t for _, t in rows])}
        for name, rows in grouped.items()
    }
