"""The exact engine in Python integers against the Fraction loops it replaced.

``loop_rotate`` is the former generic rotation: 15 canonical slots times 81
index tuples, one sorted-tuple lookup and four products per term.  The
integer engine must reproduce it with zero tolerance on dense rational
(Cayley) matrices, both determinant signs, small and large heights.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from harmonic4 import (
    EXACT,
    INVARIANT_DEGREES,
    INVARIANT_NAMES,
    Harmonic4,
    Orthogonal3,
    SparsePoly,
    from_independent,
    invariants,
    invariants_oracle,
    random_harmonic,
    rotate,
)
from harmonic4 import rotations
from harmonic4.tensor import ALL_SLOTS, INDEPENDENT_SLOTS


def loop_rotate(d: Harmonic4, q: Orthogonal3) -> Harmonic4:
    """The former generic path of ``rotate``, kept as the reference."""
    full = d.expand()
    transformed = {}
    rng = (1, 2, 3)
    for slot in ALL_SLOTS:
        a, b, c, e = slot
        acc = 0
        for i in rng:
            qa = q.entry(a, i)
            for j in rng:
                qb = qa * q.entry(b, j)
                for k in rng:
                    qc = qb * q.entry(c, k)
                    for l in rng:
                        acc = acc + qc * q.entry(e, l) * full[tuple(sorted((i, j, k, l)))]
        transformed[slot] = acc
    return Harmonic4(tuple(transformed[s] for s in INDEPENDENT_SLOTS))


def cayley(a, b, c, reflect=False) -> Orthogonal3:
    """Dense rational orthogonal (I - A)(I + A)^-1, A skew; optionally times diag(1, 1, -1)."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    n = 1 + a * a + b * b + c * c
    rows = (
        (1 + a * a - b * b - c * c, 2 * (a * b - c), 2 * (a * c + b)),
        (2 * (a * b + c), 1 - a * a + b * b - c * c, 2 * (b * c - a)),
        (2 * (a * c - b), 2 * (b * c + a), 1 - a * a - b * b + c * c),
    )
    sign = -1 if reflect else 1
    return Orthogonal3(tuple((r[0] / n, r[1] / n, sign * r[2] / n) for r in rows))


def det(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def random_cayley(rng, reflect) -> Orthogonal3:
    return cayley(*(Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(3)),
                  reflect=reflect)


def tensor_with_digits(rng, digits) -> Harmonic4:
    top = 10**digits - 1
    low = 10 ** (digits - 1)
    return from_independent([Fraction(rng.randint(-top, top), rng.randint(low, top))
                             for _ in range(9)], backend=EXACT)


def exact_tensors():
    rng = random.Random(2018)
    tensors = [tensor_with_digits(rng, 1) for _ in range(3)]
    tensors += [tensor_with_digits(rng, 6) for _ in range(3)]
    tensors.append(from_independent([0] * 9, backend=EXACT))
    tensors.append(Harmonic4((3, -1, 0, 2, 5, -7, 1, 4, -2)))
    return tensors


TENSORS = exact_tensors()
MATRICES = [random_cayley(random.Random(s), reflect=s % 2 == 1) for s in range(6)]


class TestRotate:
    @pytest.mark.parametrize("d", TENSORS)
    @pytest.mark.parametrize("q", MATRICES)
    def test_matches_fraction_loop(self, d, q):
        got = rotate(d, q)
        assert got == loop_rotate(d, q)
        assert all(type(v) is Fraction for v in got.indep)

    def test_dense_matrices_are_exactly_orthogonal_and_reach_both_signs(self):
        for q in MATRICES:
            assert q.orthogonality_defect() == 0
            assert all(v != 0 for row in q.rows for v in row)
        assert {det(q.rows) for q in MATRICES} == {1, -1}

    @pytest.mark.parametrize("d", TENSORS)
    def test_composition(self, d):
        rng = random.Random(11)
        for reflect in (False, True):
            q1, q2 = random_cayley(rng, reflect), random_cayley(rng, not reflect)
            assert rotate(rotate(d, q1), q2) == rotate(d, q2 @ q1)

    @pytest.mark.parametrize("d", TENSORS)
    def test_invariants_exactly_preserved(self, d):
        assert invariants(rotate(d, MATRICES[1])) == invariants(d)

    def test_symbolic_tensor_matches_fraction_loop(self):
        symbols = Harmonic4(tuple(SparsePoly.variable(i) for i in range(9)))
        q = MATRICES[3]
        assert rotate(symbols, q) == loop_rotate(symbols, q)

    def test_float_matrix_on_exact_tensor_raises(self):
        q = Orthogonal3(((0.6, 0.8, 0.0), (-0.8, 0.6, 0.0), (0.0, 0.0, 1.0)))
        with pytest.raises(ValueError):
            rotate(TENSORS[0], q)

    def test_rational_matrix_on_float_tensor_is_cast_to_float(self):
        d = random_harmonic(5)
        q = MATRICES[2]
        floated = Orthogonal3(tuple(tuple(float(v) for v in row) for row in q.rows))
        assert rotate(d, q).indep == rotate(d, floated).indep
        assert all(type(v) is float for v in rotate(d, q).indep)

    def test_numpy_float_components_take_the_float_engine(self):
        d = random_harmonic(6)
        wrapped = Harmonic4(tuple(np.float64(v) for v in d.indep))
        q = MATRICES[4]
        assert rotate(wrapped, q).indep == rotate(d, q).indep

    @pytest.mark.skipif(not __debug__, reason="the tracelessness check runs under __debug__")
    def test_debug_check_catches_a_corrupted_contraction(self, monkeypatch):
        real = rotations._contract

        def corrupt_then_contract(indep, m):
            rows = [list(r) for r in m]
            rows[0][1] += 1
            return real(indep, rows)

        monkeypatch.setattr(rotations, "_contract", corrupt_then_contract)
        with pytest.raises(AssertionError, match="tracelessness"):
            rotate(TENSORS[0], cayley(1, 2, 3))

    @pytest.mark.parametrize("d", [TENSORS[0], Harmonic4(tuple(SparsePoly.variable(i)
                                                                 for i in range(9)))])
    def test_near_orthogonal_rational_matrix_raises(self, d):
        s = 1 + Fraction(1, 2 * 10**9)  # (Q^T Q - I)_33 = 1e-9 + 2.5e-19, every other entry 0
        q = Orthogonal3(((1, 0, 0), (0, 1, 0), (0, 0, s)))
        assert q.orthogonality_defect() == s * s - 1
        with pytest.raises(ValueError, match=f"defect {float(q.orthogonality_defect()):.3e} > 0"):
            rotate(d, q)


class TestInvariants:
    @pytest.mark.parametrize("d", TENSORS)
    def test_equal_to_oracle_and_fractions(self, d):
        vec = invariants(d)
        assert vec == invariants_oracle(d)
        assert all(type(vec[name]) is Fraction for name in INVARIANT_NAMES)

    def test_homogeneity_across_denominators(self):
        d = TENSORS[4]
        c = Fraction(-7, 123457)
        base, scaled = invariants(d), invariants(d.scale(c))
        for name in INVARIANT_NAMES:
            assert scaled[name] == c ** INVARIANT_DEGREES[name] * base[name]
