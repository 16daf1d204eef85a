"""Tests of the benchmark's own helpers; run with ``python -m pytest bench``."""

import random
from fractions import Fraction

import pytest

from harness import (
    Tracer,
    cayley,
    evaluate_terms,
    is_exactly_orthogonal,
    percentile,
    self_times,
    summarize,
)


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([7.0], 90) == 7.0
    assert percentile([3, 1, 2], 50) == 2


@pytest.mark.parametrize("q", [0, 101])
def test_percentile_rejects_bad_rank(q):
    with pytest.raises(ValueError):
        percentile([1, 2], q)


def test_percentile_rejects_empty_sample():
    with pytest.raises(ValueError):
        percentile([], 50)


def span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "op": 0}


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("trial", 0.0, 10.0),
        span("sample", 1.0, 3.0, parent=0),
        span("rotate", 3.0, 7.0, parent=0),
        span("inner", 4.0, 5.0, parent=2),
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0]
    summary = summarize(spans)
    assert summary["trial"] == {"count": 1, "median_s": 10.0, "self_median_s": 4.0}
    assert summary["rotate"]["self_median_s"] == 3.0


def test_tracer_records_nesting_and_adopts_child_spans():
    tr = Tracer(True)
    tr.op = 5
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    assert [s["parent"] for s in tr.spans] == [None, 0]
    assert all(s["op"] == 5 for s in tr.spans)
    tr.adopt([span("child", 0.0, 2.0), span("grandchild", 0.5, 1.0, parent=0)], op=9)
    assert [s["parent"] for s in tr.spans] == [None, 0, None, 2]
    assert tr.spans[3]["op"] == 9
    assert tr.summary()["child"]["self_median_s"] == 1.5


def test_disabled_tracer_records_nothing():
    tr = Tracer(False)
    with tr.span("outer"):
        tr.count("work", 3)
    assert tr.spans == [] and tr.counts == {}


def test_cayley_matrices_are_exactly_orthogonal_and_dense():
    rng = random.Random(1)
    for i in range(100):
        params = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(3)]
        q = cayley(*params, reflect=i % 2 == 1)
        assert is_exactly_orthogonal(q)
        assert all(isinstance(v, Fraction) for row in q for v in row)
    q = cayley(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    assert all(v != 0 for row in q for v in row)


def test_cayley_reflection_flips_determinant():
    def det(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    assert det(cayley(1, 2, 3)) == 1
    assert det(cayley(1, 2, 3, reflect=True)) == -1


def test_orthogonality_check_rejects_a_perturbed_matrix():
    q = [list(row) for row in cayley(1, 2, 3)]
    q[0][0] += Fraction(1, 10**12)
    assert not is_exactly_orthogonal(q)


def test_evaluate_terms_matches_direct_rational_evaluation():
    rng = random.Random(2)
    terms = {}
    for _ in range(40):
        mono = tuple(rng.randint(0, 3) for _ in range(9))
        terms[mono] = Fraction(rng.randint(-20, 20), rng.randint(1, 5))
    point = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(9)]
    direct = sum(c * _monomial(m, point) for m, c in terms.items())
    assert evaluate_terms(terms, point) == direct


def _monomial(mono, point):
    value = Fraction(1)
    for e, x in zip(mono, point):
        value *= x ** e
    return value
