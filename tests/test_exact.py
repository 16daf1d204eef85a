"""The exact engine in Python integers against the Fraction loops it replaced.

``loop_rotate`` is the former generic rotation: 15 canonical slots times 81
index tuples, one sorted-tuple lookup and four products per term.  The
integer engine must reproduce it with zero tolerance on dense rational
(Cayley) matrices, both determinant signs, small and large heights.
``loop_mode_products`` is the four-pass contraction over all 81 row-major
entries, the reference for the pair-view contraction K D K^T on integer and
symbolic components, and ``matrix_vector_engine`` the generic engine that
formed C Wb and C Wb2 before J6, J8 and J10 became Gram forms of D Wb and
D Wb2.  ``Counted`` integers bound the ring operations of both kernels, and
``Strict`` integers hold both to the engine's ring contract.
``nine_entry_defect`` is the Gram check over all nine entries of M^T M
that ``rotate`` ran before it read only the six distinct ones.
``dot_kernel`` is the generic engine as it was with one ``reference_dot``
call per six-term dot product, and ``Expr`` a hash-consed expression ring
in which two values are the same node only if they are the same circuit.
"""

import copy
import json
import math
import random
from fractions import Fraction
from functools import reduce
from operator import add, mul

import numpy as np
import pytest

from harmonic4 import (
    EXACT,
    INVARIANT_DEGREES,
    INVARIANT_NAMES,
    Harmonic4,
    Orthogonal3,
    SparsePoly,
    check_traceless,
    from_independent,
    invariants,
    invariants_oracle,
    isotropy_check,
    random_harmonic,
    rotate,
    to_json_dict,
)
from harmonic4 import rotations
from harmonic4 import tensor as tc
from harmonic4.invariants import (_B_PAIRS, _FORMS, _PAIR_ROWS, _ROW_PAIRS, _UPPER, _WEIGHTS,
                                  _invariants_generic, _pair_view, _partial_trace, _quartic,
                                  bilinear_B, quartic_C)
from harmonic4.tensor import ALL_SLOTS, INDEPENDENT_SLOTS, clear_denominators


def loop_rotate(d: Harmonic4, q: Orthogonal3) -> Harmonic4:
    """The former generic path of ``rotate``, kept as the reference."""
    full = d.expand()
    transformed = {}
    rng = (1, 2, 3)
    for slot in ALL_SLOTS:
        qa, qb, qc, qe = (q.rows[n - 1] for n in slot)
        acc = 0
        for i in rng:
            ti = qa[i - 1]
            for j in rng:
                tj = ti * qb[j - 1]
                for k in rng:
                    tk = tj * qc[k - 1]
                    for l in rng:
                        acc = acc + tk * qe[l - 1] * full[tuple(sorted((i, j, k, l)))]
        transformed[slot] = acc
    return Harmonic4(tuple(transformed[s] for s in INDEPENDENT_SLOTS))


def loop_mode_products(indep, m) -> list:
    """The former contraction: four passes over all 81 entries, read at the 15 sorted slots."""
    slots = tuple(indep) + tc._dependents(*indep)
    t = [slots[r] for r in tc._ENTRY_ROWS.tolist()]
    for _ in range(4):
        t = [a * t[n] + b * t[n + 1] + c * t[n + 2] for a, b, c in m for n in range(0, 81, 3)]
    return [t[np.ravel_multi_index(np.array(slot) - 1, (3, 3, 3, 3))] for slot in ALL_SLOTS]


def assert_contract_is_the_loop(indep, m):
    """``rotations._contract`` must give the nine independent slots of ``loop_mode_products``."""
    reference = loop_mode_products(indep, m)
    assert rotations._contract(indep, m) == tuple(
        reference[ALL_SLOTS.index(slot)] for slot in INDEPENDENT_SLOTS)


def matrix_vector_engine(indep) -> tuple:
    """The former generic engine: B, C and the ten invariants, J6/J8/J10 as Wb . C Wb etc."""
    pairs = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
    rows = [[(pairs.index(tuple(sorted((i, k)))), pairs.index(tuple(sorted((j, k)))))
             for k in (1, 2, 3)] for i, j in pairs]
    slots = tuple(indep) + tc._dependents(*indep)
    d = [[slots[r] for r in row] for row in _PAIR_ROWS]
    dw = [[w * v for w, v in zip(_WEIGHTS, row)] for row in d]
    c = [[sum(map(mul, dw[p], d[q])) for q in range(6)] for p in range(6)]
    b = tuple(sum(c[u][v] for u, v in row) for row in rows)
    b2 = tuple(sum(b[u] * b[v] for u, v in row) for row in rows)
    wb, wb2 = [w * v for w, v in zip(_WEIGHTS, b)], [w * v for w, v in zip(_WEIGHTS, b2)]
    d_wb, d_wb2, c_wb, c_wb2 = ([sum(map(mul, row, x)) for row in m]
                                for m, x in ((d, wb), (d, wb2), (c, wb), (c, wb2)))
    dot = lambda x, y: sum(map(mul, x, y))  # noqa: E731
    j2 = sum(w * c[p][p] for p, w in enumerate(_WEIGHTS))
    j3 = sum(w * dot(cp, dwp) for w, cp, dwp in zip(_WEIGHTS, c, dw))
    return b, c, (j2, j3, dot(wb, b), dot(wb, d_wb), dot(wb, c_wb), dot(wb, b2),
                  dot(wb2, d_wb), dot(wb2, c_wb), dot(wb2, d_wb2), dot(wb2, c_wb2))


class Counted(int):
    """An int that counts the ring products and sums it takes part in."""

    products = sums = 0

    def __mul__(self, other):
        Counted.products += 1
        return Counted(int(self) * int(other))

    def __add__(self, other):
        Counted.sums += 1
        return Counted(int(self) + int(other))

    def __sub__(self, other):
        Counted.sums += 1
        return Counted(int(self) - int(other))

    def __rsub__(self, other):
        Counted.sums += 1
        return Counted(int(other) - int(self))

    def __neg__(self):
        return Counted(-int(self))

    __rmul__, __radd__ = __mul__, __add__


class Strict:
    """An int that allows only the generic kernels' ring contract, and raises on anything else.

    Sums, differences and products of two Strict values, negation, and the
    product 2 * x with the int 2; ``==`` between Strict values serves the
    debug check of ``_contract``.  ``0 + x``, ``sum``, ``1 * x`` and every
    other mixed operation raise ``TypeError``.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    @staticmethod
    def _of(other):
        if type(other) is not Strict:
            raise TypeError(f"{other!r} is not a Strict value")
        return other.value

    def __add__(self, other):
        return Strict(self.value + self._of(other))

    def __sub__(self, other):
        return Strict(self.value - self._of(other))

    def __mul__(self, other):
        return Strict(self.value * self._of(other))

    def __rmul__(self, other):
        if type(other) is not int or other != 2:
            raise TypeError(f"product with {other!r}: only the int 2 may multiply a Strict value")
        return Strict(2 * self.value)

    def __neg__(self):
        return Strict(-self.value)

    def __eq__(self, other):
        return self.value == self._of(other)


def count_operations(kernel, *args) -> tuple:
    """The result of ``kernel(*args)`` on Counted ints, and its products and sums."""
    Counted.products = Counted.sums = 0
    result = kernel(*args)
    return result, Counted.products, Counted.sums


def cleared_rows(q: Orthogonal3) -> tuple:
    """The integer matrix M = den * Q that ``rotate`` hands to the contraction."""
    m, _ = clear_denominators(v for row in q.rows for v in row)
    return m[0:3], m[3:6], m[6:9]


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


SYMBOLS = tuple(SparsePoly.variable(i) for i in range(9))


class TestModeProducts:
    """K D K^T on the pair view against the 81-entry mode-product loop, exactly."""

    @pytest.mark.parametrize("q", MATRICES)
    def test_integer_tensors_under_cayley_matrices(self, q):
        m = cleared_rows(q)
        for d in TENSORS:
            assert_contract_is_the_loop(clear_denominators(d.indep)[0], m)

    @pytest.mark.parametrize("q", MATRICES[:2])
    def test_symbolic_components(self, q):
        assert_contract_is_the_loop(SYMBOLS, cleared_rows(q))

    # In debug builds the trace check in _contract trips first; under -O the comparison does.
    def test_a_corrupted_k_entry_fails_the_loop_comparison(self, monkeypatch):
        k_rows = copy.deepcopy(rotations._K_ROWS)
        k_rows[4][0][1] += 1  # K_(23),(11) reads Q_21 Q_32, not Q_21 Q_31
        monkeypatch.setattr(rotations, "_K_ROWS", k_rows)
        with pytest.raises(AssertionError):
            assert_contract_is_the_loop(clear_denominators(TENSORS[1].indep)[0],
                                        cleared_rows(MATRICES[1]))

    def test_a_corrupted_place_fails_the_loop_comparison(self, monkeypatch):
        places = list(rotations._SLOT_PLACES)
        places[6] = (0, 1)  # D1223 read at (11, 12), not (12, 23)
        monkeypatch.setattr(rotations, "_SLOT_PLACES", tuple(places))
        with pytest.raises(AssertionError):
            assert_contract_is_the_loop(clear_denominators(TENSORS[1].indep)[0],
                                        cleared_rows(MATRICES[1]))


def oracle_contractions(d: Harmonic4) -> tuple:
    """B_ij and C_ijkl by unweighted loops over every raw index, on the sorted pairs."""
    rng = (1, 2, 3)
    pairs = [(i, j) for i in rng for j in rng if i <= j]
    comp = d.component
    b = tuple(sum(comp(i, k, l, n) * comp(j, k, l, n) for k in rng for l in rng for n in rng)
              for i, j in pairs)
    c = [[sum(comp(i, j, m, n) * comp(k, l, m, n) for m in rng for n in rng)
          for k, l in pairs] for i, j in pairs]
    return b, c


class TestInvariants:
    @pytest.mark.parametrize("d", TENSORS)
    def test_contractions_equal_the_oracle(self, d):
        assert (bilinear_B(d), quartic_C(d)) == oracle_contractions(d)

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


class TestGramForms:
    """J6, J8 and J10 as Gram forms of D Wb and D Wb2 equal the former C Wb products."""

    @pytest.mark.parametrize("d", TENSORS + [-d for d in TENSORS[:6]])
    def test_equal_the_matrix_vector_engine(self, d):
        indep, q = clear_denominators(d.indep)
        b, c, vec = matrix_vector_engine(indep)
        assert tuple(_invariants_generic(indep).as_dict().values()) == vec
        assert bilinear_B(d) == tuple(Fraction(v, q * q) for v in b)
        assert quartic_C(d) == [[Fraction(v, q * q) for v in row] for row in c]

    def test_symbolic_components(self):
        x, y, z = (SparsePoly.variable(i) for i in range(3))
        indep = (x, 2, -y, z, 0, x, -3, y, 1)
        assert tuple(_invariants_generic(indep).as_dict().values()) == \
            matrix_vector_engine(indep)[2]


class TestRingOperations:
    """The kernels' ring products and sums on one integer tensor stay at their counts."""

    INDEP = (3, -1, 0, 2, 5, -7, 1, 4, -2)

    def test_generic_engine(self):
        vec, products, sums = count_operations(
            _invariants_generic, tuple(Counted(v) for v in self.INDEP))
        assert vec == _invariants_generic(self.INDEP)
        assert products <= 334
        assert sums <= 273

    def test_bilinear_B_forms_only_the_C_entries_it_reads(self):
        # From the pair view on: 15 entries of C (90 products) and 18 weight doublings.
        d = _pair_view(tuple(Counted(v) for v in self.INDEP))
        b, products, sums = count_operations(lambda d: _partial_trace(_quartic(d, _B_PAIRS)[1]), d)
        assert b == bilinear_B(Harmonic4(self.INDEP))
        assert (products, sums) == (108, 87)
        # quartic_C keeps all 21 entries: 126 products and the same 18 doublings.
        _, products, _ = count_operations(_quartic, d, _UPPER)
        assert products == 144

    def test_contract(self):
        m = ((1, 2, 2), (2, 1, -2), (2, -2, 1))  # 3 Q, Q orthogonal
        counted_m = tuple(tuple(Counted(v) for v in row) for row in m)
        out, products, _ = count_operations(
            rotations._contract, tuple(Counted(v) for v in self.INDEP), counted_m)
        assert out == rotations._contract(self.INDEP, m)
        assert products <= 290


class TestRingContract:
    """Both kernels run on a ring with nothing beyond the contract stated in ``invariants``."""

    INDEP = TestRingOperations.INDEP

    def test_generic_engine(self):
        vec = _invariants_generic(tuple(Strict(v) for v in self.INDEP))
        want = _invariants_generic(self.INDEP).as_dict()
        assert {name: v.value for name, v in vec.as_dict().items()} == want

    @pytest.mark.parametrize("seed", range(3))
    def test_generic_engine_on_random_integer_tensors(self, seed):
        indep = clear_denominators(random_harmonic(seed, backend=EXACT).indep)[0]
        vec = _invariants_generic(tuple(Strict(v) for v in indep))
        assert [v.value for v in vec.as_dict().values()] == list(
            _invariants_generic(indep).as_dict().values())

    @pytest.mark.parametrize("m", [((1, 2, 2), (2, 1, -2), (2, -2, 1)),  # 3 Q, Q orthogonal
                                   ((0, 0, -1), (1, 0, 0), (0, -1, 0))])
    def test_contract(self, m):
        strict_m = tuple(tuple(Strict(v) for v in row) for row in m)
        out = rotations._contract(tuple(Strict(v) for v in self.INDEP), strict_m)
        assert tuple(v.value for v in out) == rotations._contract(self.INDEP, m)

    def test_the_ring_refuses_what_the_contract_leaves_out(self):
        x = Strict(3)
        assert (x + x - -x).value == 9 and (x * x).value == 9 and (2 * x).value == 6
        for op in (lambda: 0 + x, lambda: x + 0, lambda: sum([x, x]), lambda: 1 * x,
                   lambda: x * 2, lambda: 3 * x, lambda: x - 0, lambda: 0 - x):
            with pytest.raises(TypeError):
                op()


def reference_dot(x, y):
    """x_0 y_0 + ... + x_5 y_5, the six-term dot product the generic engine called per entry."""
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2] + x[3] * y[3] + x[4] * y[4] + x[5] * y[5]


def reference_weighted(x) -> list:
    """W x: a copy of x with the entries of weight 2 in ``_WEIGHTS`` doubled."""
    wx = list(x)
    for p, w in enumerate(_WEIGHTS):
        if w == 2:
            wx[p] = 2 * wx[p]
    return wx


def dot_kernel(indep, dot=reference_dot) -> tuple:
    """The generic engine with one ``dot`` call per dot product: (C, B, the ten invariants)."""
    d = _pair_view(indep)
    dw = [reference_weighted(row) for row in d]
    c = [[None] * 6 for _ in range(6)]
    for p in range(6):
        for q in range(p, 6):
            c[p][q] = c[q][p] = dot(dw[p], d[q])
    b = tuple(c[p][q] + c[r][s] + c[t][u] for p, q, r, s, t, u in _ROW_PAIRS)
    b2 = tuple(b[p] * b[q] + b[r] * b[s] + b[t] * b[u] for p, q, r, s, t, u in _ROW_PAIRS)
    wb, wb2 = reference_weighted(b), reference_weighted(b2)
    y1, y2 = [dot(row, wb) for row in d], [dot(row, wb2) for row in d]
    p, wp = (b, b2, y1, y2), (wb, wb2, reference_weighted(y1), reference_weighted(y2))
    return c, b, (b[0] + b[3] + b[5],
                  reduce(add, reference_weighted([dot(cp, dwp) for cp, dwp in zip(c, dw)])),
                  *[dot(wp[i], p[j]) for i, j in _FORMS])


class Expr:
    """A hash-consed expression over the ring contract: ``node`` is the id of (op, left, right).

    Equal circuits intern to the same node, so a reassociated sum or a
    swapped operand gives another node.  Anything outside the contract,
    a sum with 0 or a product with 1 included, raises ``TypeError``.
    """

    __slots__ = ("node",)
    nodes: dict = {}

    def __init__(self, node):
        self.node = node

    @classmethod
    def make(cls, op, left, right=None):
        return cls(cls.nodes.setdefault((op, left, right), len(cls.nodes)))

    @staticmethod
    def _of(other):
        if type(other) is not Expr:
            raise TypeError(f"{other!r} is not an Expr")
        return other.node

    def __add__(self, other):
        return Expr.make("+", self.node, self._of(other))

    def __sub__(self, other):
        return Expr.make("-", self.node, self._of(other))

    def __mul__(self, other):
        return Expr.make("*", self.node, self._of(other))

    def __rmul__(self, other):
        if type(other) is not int or other != 2:
            raise TypeError(f"product with {other!r}: only the int 2 may multiply an Expr")
        return Expr.make("2*", self.node)

    def __neg__(self):
        return Expr.make("neg", self.node)


def expr_tensor() -> tuple:
    """The nine independent components as leaf nodes."""
    return tuple(Expr.make("leaf", "D" + "".join(map(str, slot))) for slot in INDEPENDENT_SLOTS)


def nodes(values) -> list:
    return [v.node for v in values]


def planted_float_tensor(rng) -> tuple:
    """Nine normal components at a scale in [1e-150, 1e150], about a third of them +-0.0."""
    scale = 10.0 ** rng.uniform(-150, 150)
    return tuple(rng.choice((0.0, -0.0)) if rng.random() < 0.3 else rng.gauss(0, 1) * scale
                 for _ in range(9))


class TestSameCircuit:
    """The engine without per-product calls forms every value as ``dot_kernel`` did."""

    def test_every_invariant_is_the_same_node(self):
        indep = expr_tensor()
        _, _, want = dot_kernel(indep)
        assert nodes(_invariants_generic(indep).as_dict().values()) == nodes(want)

    def test_bilinear_B_and_its_15_C_entries_are_the_same_nodes(self):
        indep = expr_tensor()
        c, b, _ = dot_kernel(indep)
        got = _quartic(_pair_view(indep), _B_PAIRS)[1]
        assert len(_B_PAIRS) == 15
        assert [got[p][q].node for p, q in _B_PAIRS] == [c[p][q].node for p, q in _B_PAIRS]
        assert nodes(bilinear_B(Harmonic4(indep))) == nodes(b)
        assert [nodes(row) for row in quartic_C(Harmonic4(indep))] == [nodes(row) for row in c]

    @pytest.mark.parametrize("dot", [
        lambda x, y: reference_dot(y, x),
        lambda x, y: (x[0] * y[0] + x[1] * y[1] + x[2] * y[2]) + (x[3] * y[3] + x[4] * y[4]
                                                                   + x[5] * y[5]),
    ], ids=["swapped-operands", "reassociated-sum"])
    def test_the_ring_tells_another_circuit_apart(self, dot):
        indep = expr_tensor()
        _, _, mutated = dot_kernel(indep, dot)
        got = nodes(_invariants_generic(indep).as_dict().values())
        assert all(g != m for g, m in zip(got, nodes(mutated)))

    def test_python_floats_agree_bit_for_bit(self):
        rng = random.Random(20261022)
        for _ in range(240):
            indep = planted_float_tensor(rng)
            c, b, want = dot_kernel(indep)
            got = _invariants_generic(indep).as_dict().values()
            assert [v.hex() for v in got] == [v.hex() for v in want], indep
            entries = _quartic(_pair_view(indep), _B_PAIRS)[1]
            assert ([entries[p][q].hex() for p, q in _B_PAIRS]
                    == [c[p][q].hex() for p, q in _B_PAIRS])
            assert [v.hex() for v in bilinear_B(Harmonic4(indep))] == [(0.0 + v).hex() for v in b]


def nine_entry_defect(rows, unit=1):
    """The former Gram check: max |(M^T M - unit * I)_ij| over all nine entries, NaN first."""
    gaps = [abs(sum(rows[k][i] * rows[k][j] for k in range(3)) - (unit if i == j else 0))
            for i in range(3) for j in range(3)]
    return next((g for g in gaps if g != g), max(gaps))


class TestGramDefect:
    """The six-entry Gram check equals the nine-entry one and keeps its NaN rule."""

    @pytest.mark.parametrize("seed", range(10))
    def test_float_matrices(self, seed):
        rng = np.random.default_rng(seed)
        for rows in (rotations.random_rotation(seed).rows,
                     (rotations.haar_matrices([seed])[0]
                      + 1e-9 * rng.standard_normal((3, 3))).tolist(),
                     rng.standard_normal((3, 3)).tolist()):
            q = Orthogonal3(rows)
            assert q.orthogonality_defect() == nine_entry_defect(q.rows)

    @pytest.mark.parametrize("seed", range(10))
    def test_exact_matrices(self, seed):
        rng = random.Random(seed)
        q = random_cayley(rng, reflect=seed % 2 == 1)
        skewed = Orthogonal3(tuple(tuple(v + Fraction(rng.randint(-2, 2), 7) for v in row)
                                   for row in q.rows))
        assert q.orthogonality_defect() == 0
        for matrix in (q, skewed):
            defect = matrix.orthogonality_defect()
            assert defect == nine_entry_defect(matrix.rows)
            assert type(defect) is type(nine_entry_defect(matrix.rows))
        m = [[rng.randint(-30, 30) for _ in range(3)] for _ in range(3)]
        assert rotations._gram_defect(m, 25) == nine_entry_defect(m, 25)

    @pytest.mark.parametrize("entry", range(9))
    def test_nan_in_any_entry_gives_nan_and_rotate_raises(self, entry):
        d = random_harmonic(entry)
        for flat in (sum(rotations.random_rotation(entry).rows, ()), (9.0,) * 9):
            flat = list(flat)
            flat[entry] = math.nan
            q = Orthogonal3((flat[0:3], flat[3:6], flat[6:9]))
            assert math.isnan(q.orthogonality_defect())
            assert math.isnan(nine_entry_defect(q.rows))
            with pytest.raises(ValueError, match="not orthogonal"):
                rotate(d, q)


class TestNumpyIntegers:
    """Numpy integer components are exact scalars and never wrap in int64."""

    INTS = (1000, 2, 3, 4, 5, 6, 7, 8, 9)

    def test_equal_their_python_int_twin(self):
        wrapped = Harmonic4(tuple(np.int64(v) for v in self.INTS))
        plain = Harmonic4(self.INTS)
        assert wrapped.backend == EXACT
        assert invariants(wrapped) == invariants(plain)
        assert invariants(wrapped).j10 == 642556781488578686740928839680
        assert rotate(wrapped, MATRICES[0]) == rotate(plain, MATRICES[0])
        assert bilinear_B(wrapped) == bilinear_B(plain)
        assert quartic_C(wrapped) == quartic_C(plain)

    def test_every_public_function_agrees_with_the_python_int_twin(self):
        # 3e9 squared overflows int64: every sum of products must run in Python ints.
        big = (3 * 10**9, 2, 3, 4, 5, 6, 7, 8, 9)
        wrapped, plain = Harmonic4(tuple(np.int64(v) for v in big)), Harmonic4(big)
        assert wrapped.frobenius_norm_sq() == plain.frobenius_norm_sq() == 72000000240000004736
        assert invariants_oracle(wrapped) == invariants_oracle(plain) == invariants(plain)
        assert invariants(wrapped) == invariants(plain)
        assert wrapped.expand() == plain.expand()
        for slot in ALL_SLOTS:
            assert type(wrapped.component(*slot)) is int
            assert wrapped.component(*slot) == plain.component(*slot)
        assert check_traceless(wrapped) == check_traceless(plain) == 0
        assert bilinear_B(wrapped) == bilinear_B(plain)
        assert quartic_C(wrapped) == quartic_C(plain)
        assert rotate(wrapped, MATRICES[1]) == rotate(plain, MATRICES[1])
        assert wrapped.scale(Fraction(1, 7)) == plain.scale(Fraction(1, 7))
        assert -wrapped == -plain
        assert json.dumps(to_json_dict(wrapped)) == json.dumps(to_json_dict(plain))
        assert wrapped.to_array().tobytes() == plain.to_array().tobytes()
        assert isotropy_check(wrapped, 3, 5) == isotropy_check(plain, 3, 5)

    @pytest.mark.parametrize("c", [10**10, np.int64(10**10), Fraction(-10**10, 7), -1])
    def test_scale_and_negation_agree_with_the_python_int_twin(self, c):
        # 3e9 * 1e10 overflows int64 (warnings are errors here).
        big = (3 * 10**9, 2, 3, 4, 5, 6, 7, 8, 9)
        wrapped, plain = Harmonic4(tuple(np.int64(v) for v in big)), Harmonic4(big)
        k = int(c) if isinstance(c, np.integer) else c
        for result, expected in ((wrapped.scale(c), plain.scale(k)), (-wrapped, -plain)):
            assert result == expected
            assert all(type(v) in (int, Fraction) for v in result.indep)
            assert invariants(result) == invariants(expected)
        assert invariants(wrapped.scale(c)).j2 == k**2 * invariants(plain).j2

    def test_are_held_as_python_ints(self):
        d = Harmonic4(tuple(np.int64(v) for v in self.INTS))
        assert d.indep == self.INTS
        assert all(type(v) is int for v in d.indep)

    def test_numpy_integer_matrix_rotates_exactly(self):
        rows = ((0, 1, 0), (-1, 0, 0), (0, 0, 1))
        d = TENSORS[0]
        assert rotate(d, Orthogonal3(np.array(rows))) == rotate(d, Orthogonal3(rows))

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_from_independent_reads_them(self, backend):
        assert from_independent(np.array(self.INTS), backend) == from_independent(self.INTS,
                                                                                 backend)
