"""Contractions of a harmonic tensor and its ten isotropic invariants.

With D a harmonic fourth-order tensor, the auxiliary contractions are

    B_ij   = D_iklm D_jklm        (symmetric 3x3)
    B2_ij  = B_ik B_kj
    C_ijkl = D_ijmn D_klmn        (symmetric in ij, in kl, and in ij<->kl)

and the invariants, with their homogeneity degrees in D:

    J2 = D_ijkl D_ijkl        (2)     K6  = B_ij B_jk B_ki        (6)
    J3 = C_ijkl D_ijkl        (3)     J7  = B2_ij D_ijkl B_kl     (7)
    J4 = B_ij B_ij            (4)     J8  = B2_ij C_ijkl B_kl     (8)
    J5 = B_ij D_ijkl B_kl     (5)     J9  = B2_ij D_ijkl B2_kl    (9)
    J6 = B_ij C_ijkl B_kl     (6)     J10 = B2_ij C_ijkl B2_kl    (10)

Both engines read D as the 6x6 pair view D_(p),(q) over the sorted pairs
p = (i, j), i <= j, with arrangement weights w_p (1 for ii, 2 for ij): the
Voigt/Mandel form of the tensor (Mehrabadi & Cowin, Q. J. Mech. Appl.
Math. 1990).  On it

    C_pq = sum_r w_r D_pr D_qr,  B_ij = sum_k C_(ik),(jk),  B2_ij = sum_k B_ik B_jk,

with the weighted rows DW = D diag(w) formed once and the pairs (ik) and
(jk) of each (ij) listed once, in :data:`_ROW_PAIRS`.  J2 = tr B and
J3 = sum_pq w_p w_q C_pq D_pq.  With b and b2 the pair entries of B and
B2, y1 = D Wb and y2 = D Wb2, every other invariant is one entry of the
weighted Gram matrix G_ij = sum_r w_r p_i,r p_j,r of p = (b, b2, y1, y2),
as C = D W D with D symmetric:

    J4 = G_00    J5 = G_02    J7 = G_03    J9  = G_13
    K6 = G_01    J6 = G_22    J8 = G_23    J10 = G_33

:data:`_FORMS` is that table.  Both engines read both tables, summing
over k in the same order.  The float engine, :func:`invariants_float`,
forms G on a whole (N, 9) stack of components at once, through their
pair views (:func:`invariants_of_views`); one float tensor is the N = 1
case.  The generic engine forms the eight entries on lists over any
commutative ring, 334 ring products in all: symbolic tensors
expand in sparse polynomials, and exact tensors run in Python integers.
Each six-term dot product is written out where it is consumed: C over a
list of pairs (p, q), all 21 for the invariants and :func:`quartic_C` and
the 15 that B reads for :func:`bilinear_B`; y1 and y2 as the rows of D
times one vector; J3 and the Gram entries as dot products of pairs.
Its ring contract: sums, binary and unary differences and products of
ring elements, and the product 2 * x with the int 2 at the weight-2 pairs.
No sum starts from int 0 and no entry is multiplied by the weight 1, so
any commutative ring with those operations will do;
``rotations._contract`` keeps the same contract.

The invariants are homogeneous, J_k(D) = J_k(qD) / q^k, so an exact
tensor is scaled by the least common multiple q of its component
denominators and each invariant divided by q^k once at the end.
:func:`invariants_oracle` is the deliberately naive check: unweighted full
loops over every raw index combination.  The two must agree exactly on
exact-backend input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement
from operator import add, itemgetter

import numpy as np

from .tensor import (EXACT, FLOAT, Harmonic4, _SLOT_ROW, _dependents, _format_scalar,
                     clear_denominators, multiplicity, slots_float)

#: Canonical invariant order used by every report and serialization.
INVARIANT_NAMES = ("J2", "J3", "J4", "J5", "J6", "K6", "J7", "J8", "J9", "J10")
_FIELDS = {name: name.lower() for name in INVARIANT_NAMES}

INVARIANT_DEGREES = {
    "J2": 2, "J3": 3, "J4": 4, "J5": 5, "J6": 6,
    "K6": 6, "J7": 7, "J8": 8, "J9": 9, "J10": 10,
}

#: The degrees in canonical order, beside an ``InvariantVector``'s fields.
_DEGREE_ORDER = tuple(INVARIANT_DEGREES[name] for name in INVARIANT_NAMES)

ODD_INVARIANTS = ("J3", "J5", "J7", "J9")
EVEN_INVARIANTS = ("J2", "J4", "J6", "K6", "J8", "J10")

#: The K6 relation: 39 J2^3 + 10 J3^2 - 198 J2 J4 - 135 J6 + 240 K6 = 0.
K6_RELATION = (39, 10, -198, -135, 240)

#: The six sorted index pairs, the rows and columns of the pair view.
_PAIRS = tuple(combinations_with_replacement((1, 2, 3), 2))
#: Arrangement weight of each pair: the number of orders of its indices.
_WEIGHTS = tuple(multiplicity(p) for p in _PAIRS)
#: Row of the 15-slot tuple (independent, then dependent) behind D_(p),(q).
_PAIR_ROWS = tuple(tuple(_SLOT_ROW[tuple(sorted(p + q))] for q in _PAIRS) for p in _PAIRS)
#: One getter per pair-view row, reading its six slots at once.
_ROW_GETTERS = tuple(itemgetter(*row) for row in _PAIR_ROWS)
#: For each pair (i, j), the positions of the pairs (i, k) and (j, k), flat over k = 1..3.
_ROW_PAIRS = tuple(tuple(_PAIRS.index(tuple(sorted(pair)))
                         for k in (1, 2, 3) for pair in ((i, k), (j, k)))
                   for i, j in _PAIRS)
#: The entries (p, q), p <= q, of the symmetric C: all 21, and the 15 that B reads.
_UPPER = tuple(combinations_with_replacement(range(6), 2))
_B_PAIRS = tuple(sorted({tuple(sorted(row[k:k + 2])) for row in _ROW_PAIRS for k in (0, 2, 4)}))
#: J4, J5, J6, K6, J7, J8, J9 and J10 as entries (i, j) of the weighted Gram
#: matrix G_ij = sum_r w_r p_i,r p_j,r of p = (b, b2, D Wb, D Wb2).
_FORMS = ((0, 0), (0, 2), (2, 2), (0, 1), (0, 3), (2, 3), (1, 3), (3, 3))


#: Float-engine tables: weights, the slot behind each pair-view entry,
#: _ROW_PAIRS split into the positions of (i, k) and of (j, k) as [k, ij],
#: and the places of the _FORMS entries in the flat 4x4 G.
_W = np.array(_WEIGHTS, dtype=float)
_PAIR_COLS = np.array(_PAIR_ROWS).ravel()
_IK, _JK = np.array(_ROW_PAIRS).reshape(6, 3, 2).T.copy()
_FORM_COLS = np.array([4 * i + j for i, j in _FORMS])


def pair_view_float(components) -> np.ndarray:
    """(N, 9) float components to the (N, 6, 6) pair views D_(p),(q), gathered from the slots."""
    return np.take(slots_float(components), _PAIR_COLS, axis=1).reshape(-1, 6, 6)


def _pair_view(indep) -> list:
    """The 6x6 matrix D_(p),(q) of the tensor with nine components ``indep``, as row tuples."""
    slots = tuple(indep) + _dependents(*indep)
    return [row(slots) for row in _ROW_GETTERS]


def _weighted(x) -> list:
    """W x: x_p where w_p = 1 and 2 x_p where w_p = 2, over the pairs 11, 12, 13, 22, 23, 33."""
    a, b, c, e, f, g = x
    return [a, 2 * b, 2 * c, e, 2 * f, g]


def _dots(pairs) -> list:
    """x_0 y_0 + ... + x_5 y_5 for each pair (x, y) of 6-vectors: no zero to start from."""
    return [a * x + b * y + c * z + e * u + f * v + g * w
            for (a, b, c, e, f, g), (x, y, z, u, v, w) in pairs]


def _products(rows, x) -> list:
    """Each row of ``rows`` dotted with the 6-vector ``x``, row first: D x for the pair view D."""
    x0, x1, x2, x3, x4, x5 = x
    return [a * x0 + b * x1 + c * x2 + e * x3 + f * x4 + g * x5 for a, b, c, e, f, g in rows]


def _quartic(d, pairs) -> tuple:
    """The weighted rows DW = D diag(w) of the pair view ``d``, and C_pq = sum_r w_r D_pr D_qr.

    C is a symmetric 6x6 list holding the entries (p, q) of ``pairs`` and
    their mirrors, each a row of DW dotted with a row of D; the rest are None.
    """
    dw = [_weighted(row) for row in d]
    c = [[None] * 6 for _ in range(6)]
    for p, q in pairs:
        a, b, e, f, g, h = dw[p]
        x, y, z, u, v, w = d[q]
        c[p][q] = c[q][p] = a * x + b * y + e * z + f * u + g * v + h * w
    return dw, c


def _partial_trace(c) -> tuple:
    """B_ij = sum_k C_(ik),(jk), as a 6-tuple over the sorted pairs."""
    return tuple(c[p][q] + c[r][s] + c[t][u] for p, q, r, s, t, u in _ROW_PAIRS)


def _square(b) -> tuple:
    """B2_ij = sum_k B_(ik) B_(jk) of a symmetric 6-tuple ``b``."""
    return tuple(b[p] * b[q] + b[r] * b[s] + b[t] * b[u] for p, q, r, s, t, u in _ROW_PAIRS)


def _quartic_of(d: Harmonic4, pairs) -> tuple:
    """C of ``d`` at ``pairs``, run on qD in integers when exact, and the map C(qD) / q^2 back."""
    if d.backend == FLOAT:
        # 0.0 + v turns a -0.0 from six -0.0 terms into 0.0, as a sum started from 0 gave.
        return _quartic(_pair_view(d.indep), pairs)[1], lambda v: 0.0 + v
    if d.backend != EXACT:
        return _quartic(_pair_view(d.indep), pairs)[1], lambda v: v
    indep, q = clear_denominators(d.indep)
    return _quartic(_pair_view(indep), pairs)[1], lambda v: Fraction(v, q * q)


def quartic_C(d: Harmonic4) -> list:
    """C_ijkl = D_ijmn D_klmn on the sorted pairs: 6x6, C[p][q] = C_(p),(q)."""
    c, unscale = _quartic_of(d, _UPPER)
    return [[unscale(v) for v in row] for row in c]


def bilinear_B(d: Harmonic4) -> tuple:
    """B_ij = D_iklm D_jklm on the sorted pairs: (B11, B12, B13, B22, B23, B33)."""
    c, unscale = _quartic_of(d, _B_PAIRS)
    return tuple(unscale(v) for v in _partial_trace(c))


@dataclass(frozen=True)
class InvariantVector:
    """The ten isotropic invariants of one tensor, in canonical order."""

    j2: object
    j3: object
    j4: object
    j5: object
    j6: object
    k6: object
    j7: object
    j8: object
    j9: object
    j10: object

    def __getitem__(self, name: str):
        """The invariant called ``name``; ``KeyError`` for any other name."""
        return getattr(self, _FIELDS[name])

    def as_dict(self) -> dict:
        return {name: self[name] for name in INVARIANT_NAMES}

    def to_json_dict(self) -> dict:
        return {name: _format_scalar(self[name]) for name in INVARIANT_NAMES}


def _invariants_generic(indep) -> InvariantVector:
    """The ten invariants of the tensor with nine components ``indep``, over any ring.

    Forming y1 = D Wb and y2 = D Wb2 before the final dot products keeps
    intermediate polynomial products small on the symbolic path.
    """
    d = _pair_view(indep)
    dw, c = _quartic(d, _UPPER)
    b = _partial_trace(c)
    b2 = _square(b)
    wb, wb2 = _weighted(b), _weighted(b2)
    y1, y2 = _products(d, wb), _products(d, wb2)
    p, wp = (b, b2, y1, y2), (wb, wb2, _weighted(y1), _weighted(y2))
    return InvariantVector(
        b[0] + b[3] + b[5],  # J2 = tr B, at the pairs 11, 22 and 33
        reduce(add, _weighted(_dots(zip(c, dw)))),  # J3
        *_dots((wp[i], p[j]) for i, j in _FORMS),
    )


def invariants_float(components) -> np.ndarray:
    """The ten invariants of an (N, 9) stack of float components, as (N, 10), via pair views."""
    return invariants_of_views(pair_view_float(components))


def invariants_of_views(d) -> np.ndarray:
    """The ten invariants of an (N, 6, 6) stack of float pair views, as (N, 10).

    Columns follow :data:`INVARIANT_NAMES`.  The module's formulas: b and
    b2 as the generic sums over k, J2 = tr B, y = (Wb, Wb2) D as one
    product and the Gram matrices G as another.  Every gather keeps C
    order, so each row takes the same path at any N.
    """
    n = len(d)
    dw = d * _W
    c = dw @ d.transpose(0, 2, 1)
    p = np.empty((n, 4, 6))
    b = c[:, _IK, _JK].sum(axis=1, out=p[:, 0])
    (b[:, _IK] * b[:, _JK]).sum(axis=1, out=p[:, 1])
    np.matmul(p[:, :2] * _W, d, out=p[:, 2:])
    g = (p * _W) @ p.transpose(0, 2, 1)
    out = np.empty((n, 10))
    out[:, 0] = b[:, 0] + b[:, 3] + b[:, 5]
    out[:, 1] = (c * dw * _W[:, None]).sum(axis=(1, 2))
    np.take(g.reshape(n, 16), _FORM_COLS, axis=1, out=out[:, 2:], mode="clip")  # no buffer
    return out


def invariants(d: Harmonic4) -> InvariantVector:
    """All ten invariants of ``d`` via the symmetry-weighted evaluator.

    The engine follows :attr:`Harmonic4.backend`.  Float tensors (any
    float component) go through numpy contractions and return Python
    floats.  Exact tensors (ints, numpy ints and Fractions) run the
    generic ring code on the integer tensor qD and return Fractions; every
    other scalar type (polynomials) runs it directly.  The generic path is
    pinned against :func:`invariants_oracle` by tests.
    """
    if d.backend == FLOAT:
        return InvariantVector(*invariants_float([d.indep])[0].tolist())
    if d.backend != EXACT:
        return _invariants_generic(d.indep)
    scaled, q = clear_denominators(d.indep)
    vec = _invariants_generic(scaled)
    return InvariantVector(*(Fraction(v, q**k) for v, k in zip(vars(vec).values(), _DEGREE_ORDER)))


def invariants_oracle(d: Harmonic4) -> InvariantVector:
    """Naive evaluator: full unweighted loops over all raw index tuples.

    No symmetry exploitation anywhere; 3^5 multiplications for B, 3^6 for
    C, 3^4 per quadruple contraction.  Kept independent of the optimized
    path so the two can check each other; agreement is exact on the exact
    backend.
    """
    rng = (1, 2, 3)
    comp = d.component
    b = {(i, j): sum(comp(i, k, l, m) * comp(j, k, l, m)
                     for k in rng for l in rng for m in rng)
         for i in rng for j in rng}
    b2 = {(i, j): sum(b[(i, k)] * b[(k, j)] for k in rng)
          for i in rng for j in rng}
    c = {(i, j, k, l): sum(comp(i, j, m, n) * comp(k, l, m, n)
                           for m in rng for n in rng)
         for i in rng for j in rng for k in rng for l in rng}

    j2 = sum(comp(i, j, k, l) * comp(i, j, k, l)
             for i in rng for j in rng for k in rng for l in rng)
    j3 = sum(c[(i, j, k, l)] * comp(i, j, k, l)
             for i in rng for j in rng for k in rng for l in rng)
    j4 = sum(b[(i, j)] * b[(i, j)] for i in rng for j in rng)
    j5 = sum(b[(i, j)] * comp(i, j, k, l) * b[(k, l)]
             for i in rng for j in rng for k in rng for l in rng)
    j6 = sum(b[(i, j)] * c[(i, j, k, l)] * b[(k, l)]
             for i in rng for j in rng for k in rng for l in rng)
    k6 = sum(b[(i, j)] * b[(j, k)] * b[(k, i)]
             for i in rng for j in rng for k in rng)
    j7 = sum(b2[(i, j)] * comp(i, j, k, l) * b[(k, l)]
             for i in rng for j in rng for k in rng for l in rng)
    j8 = sum(b2[(i, j)] * c[(i, j, k, l)] * b[(k, l)]
             for i in rng for j in rng for k in rng for l in rng)
    j9 = sum(b2[(i, j)] * comp(i, j, k, l) * b2[(k, l)]
             for i in rng for j in rng for k in rng for l in rng)
    j10 = sum(b2[(i, j)] * c[(i, j, k, l)] * b2[(k, l)]
              for i in rng for j in rng for k in rng for l in rng)
    return InvariantVector(j2, j3, j4, j5, j6, k6, j7, j8, j9, j10)


def j4_from_mixed(j2, j3, j6, k6):
    """Reconstruct the degree-4 invariant from {J2, J3, J6, K6} by :data:`K6_RELATION`.

    J4 = (39*J2^3 + 10*J3^2 - 135*J6 + 240*K6) / (198*J2) for J2 != 0;
    J2 = 0 forces D = 0 and hence J4 = 0.  Exact on Fraction input.
    """
    if j2 == 0:
        return j2
    c_j2, c_j3, c_j4, c_j6, c_k6 = K6_RELATION
    num = c_j2 * j2**3 + c_j3 * j3 * j3 + c_j6 * j6 + c_k6 * k6
    den = -c_j4 * j2
    if isinstance(num, int) and isinstance(den, int):
        return Fraction(num, den)
    return num / den
