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

Two evaluators are provided.  :func:`invariants` exploits full index
symmetry: sums run over canonical sorted index tuples with multinomial
arrangement weights (15 quadruples, 10 triples, 6 pairs instead of 81/27/9
raw entries).  This generic-ring engine runs on any commutative ring:
symbolic tensors expand in sparse polynomials, and exact tensors run in
Python integers.  The invariants are homogeneous, J_k(D) = J_k(qD) / q^k,
so an exact tensor is scaled by the least common multiple q of its
component denominators and each invariant divided by q^k once at the end.
Float-backend tensors go through the batched float engine instead:
:func:`invariants_float` evaluates a whole ``(N, 81)`` stack at once from
the 9x9 matrix view D_(ij),(kl), and one tensor is the N = 1 case.
:func:`invariants_oracle` is the deliberately naive check: unweighted full
loops over every raw index combination.  The two must agree
exactly on exact-backend input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from .tensor import EXACT, FLOAT, Harmonic4, SLOT_WEIGHTS, clear_denominators, multiplicity

#: Canonical invariant order used by every report and serialization.
INVARIANT_NAMES = ("J2", "J3", "J4", "J5", "J6", "K6", "J7", "J8", "J9", "J10")

INVARIANT_DEGREES = {
    "J2": 2, "J3": 3, "J4": 4, "J5": 5, "J6": 6,
    "K6": 6, "J7": 7, "J8": 8, "J9": 9, "J10": 10,
}

ODD_INVARIANTS = ("J3", "J5", "J7", "J9")
EVEN_INVARIANTS = ("J2", "J4", "J6", "K6", "J8", "J10")

_PAIRS = tuple(combinations_with_replacement((1, 2, 3), 2))
_PAIR_WEIGHT = {p: multiplicity(p) for p in _PAIRS}
_TRIPLES = tuple(combinations_with_replacement((1, 2, 3), 3))
_TRIPLE_WEIGHT = {t: multiplicity(t) for t in _TRIPLES}


@dataclass(frozen=True)
class SymMat3:
    """Symmetric 3x3 matrix; only the upper triangle (11,12,13,22,23,33) is stored."""

    entries: tuple

    def entry(self, i: int, j: int):
        if i > j:
            i, j = j, i
        return self.entries[_PAIRS.index((i, j))]

    def trace(self):
        return self.entries[0] + self.entries[3] + self.entries[5]


def mat_square(b: SymMat3) -> SymMat3:
    """Matrix square B*B (symmetric since B is)."""
    return SymMat3(tuple(
        sum(b.entry(i, k) * b.entry(k, j) for k in (1, 2, 3))
        for (i, j) in _PAIRS
    ))


@dataclass(frozen=True)
class PairSym4:
    """Pair-symmetric fourth-order tensor: C(ij,kl) = C(ji,kl) = C(kl,ij).

    Stored on 21 slots keyed by ordered pairs of sorted index pairs.  Full
    index symmetry is deliberately NOT assumed, and no arrangement weights
    are baked into storage; contraction weights are applied at use sites.
    """

    values: dict

    def entry(self, i: int, j: int, k: int, l: int):
        p = (i, j) if i <= j else (j, i)
        q = (k, l) if k <= l else (l, k)
        if p > q:
            p, q = q, p
        return self.values[(p, q)]


def bilinear_B(d: Harmonic4) -> SymMat3:
    """B_ij = D_iklm D_jklm via weighted sums over the 10 sorted (k,l,m)."""
    full = d._full
    entries = []
    for (i, j) in _PAIRS:
        acc = 0
        for t, w in _TRIPLE_WEIGHT.items():
            acc = acc + w * (full[tuple(sorted((i,) + t))] * full[tuple(sorted((j,) + t))])
        entries.append(acc)
    return SymMat3(tuple(entries))


def quartic_C(d: Harmonic4) -> PairSym4:
    """C_ijkl = D_ijmn D_klmn via weighted sums over the 6 sorted (m,n)."""
    full = d._full
    values = {}
    for a, p in enumerate(_PAIRS):
        for q in _PAIRS[a:]:
            acc = 0
            for mn, w in _PAIR_WEIGHT.items():
                acc = acc + w * (full[tuple(sorted(p + mn))] * full[tuple(sorted(q + mn))])
            values[(p, q)] = acc
    return PairSym4(values)


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
        return getattr(self, name.lower())

    def as_dict(self) -> dict:
        return {name: self[name] for name in INVARIANT_NAMES}

    def to_json_dict(self) -> dict:
        out = {}
        for name in INVARIANT_NAMES:
            v = self[name]
            out[name] = f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else v
        return out


def _quad_form(x: SymMat3, mid, y: SymMat3):
    """x_ij M_ijkl y_kl over symmetric x, y and pair-symmetric M.

    ``mid(p, q)`` returns M at the sorted pairs p, q.  Grouped as
    sum_q w_q (sum_p w_p x_p M_pq) y_q, which also keeps intermediate
    polynomial products small on the symbolic path.
    """
    total = 0
    for q in _PAIRS:
        inner = 0
        for p in _PAIRS:
            inner = inner + _PAIR_WEIGHT[p] * (x.entry(*p) * mid(p, q))
        total = total + _PAIR_WEIGHT[q] * (inner * y.entry(*q))
    return total


def _invariants_generic(d: Harmonic4) -> InvariantVector:
    full = d._full
    b = bilinear_B(d)
    b2 = mat_square(b)
    c = quartic_C(d)

    def d_mid(p, q):
        return full[tuple(sorted(p + q))]

    def c_mid(p, q):
        return c.entry(*p, *q)

    j2 = 0
    for slot, w in SLOT_WEIGHTS.items():
        j2 = j2 + w * (full[slot] * full[slot])
    j3 = 0
    for p in _PAIRS:
        for q in _PAIRS:
            j3 = j3 + (_PAIR_WEIGHT[p] * _PAIR_WEIGHT[q]) * (c_mid(p, q) * d_mid(p, q))
    j4 = 0
    k6 = 0
    for p in _PAIRS:
        j4 = j4 + _PAIR_WEIGHT[p] * (b.entry(*p) * b.entry(*p))
        k6 = k6 + _PAIR_WEIGHT[p] * (b.entry(*p) * b2.entry(*p))
    return InvariantVector(
        j2=j2,
        j3=j3,
        j4=j4,
        j5=_quad_form(b, d_mid, b),
        j6=_quad_form(b, c_mid, b),
        k6=k6,
        j7=_quad_form(b2, d_mid, b),
        j8=_quad_form(b2, c_mid, b),
        j9=_quad_form(b2, d_mid, b2),
        j10=_quad_form(b2, c_mid, b2),
    )


def invariants_float(entries) -> np.ndarray:
    """The ten invariants of an (N, 81) stack of row-major entries, as (N, 10).

    Columns follow :data:`INVARIANT_NAMES`.  With D the (N, 9, 9) matrix
    view D_(ij),(kl) and D3 the (N, 3, 27) view, B = D3 D3^T, C = D D^T
    and B2 = B B.  J2 = tr C and J3 = C:D; every other invariant is a
    9-vector quadratic form in b = vec B and b2 = vec B2 with the
    identity (J4, K6), D (J5, J7, J9) or C (J6, J8, J10) in the middle.
    """
    a = np.asarray(entries, dtype=float)
    n = a.shape[0]
    d = a.reshape(n, 9, 9)
    d3 = a.reshape(n, 3, 27)
    b = d3 @ d3.transpose(0, 2, 1)
    c = d @ d.transpose(0, 2, 1)
    v = np.empty((n, 9, 2))
    v[:, :, 0] = b.reshape(n, 9)
    v[:, :, 1] = (b @ b).reshape(n, 9)
    vt = v.transpose(0, 2, 1)
    plain, dv, cv = vt @ v, vt @ d @ v, vt @ c @ v
    out = np.empty((n, 10))
    out[:, 0] = c.reshape(n, 81)[:, ::10].sum(axis=1)
    out[:, 1] = (c * d).sum(axis=(1, 2))
    out[:, 2], out[:, 5] = plain[:, 0, 0], plain[:, 1, 0]
    out[:, 3], out[:, 6], out[:, 8] = dv[:, 0, 0], dv[:, 1, 0], dv[:, 1, 1]
    out[:, 4], out[:, 7], out[:, 9] = cv[:, 0, 0], cv[:, 1, 0], cv[:, 1, 1]
    return out


def _invariants_float(d: Harmonic4) -> InvariantVector:
    return InvariantVector(*invariants_float(d.to_array().reshape(1, 81))[0].tolist())


def _invariants_exact(d: Harmonic4) -> InvariantVector:
    scaled, q = clear_denominators(d.indep)
    vec = _invariants_generic(Harmonic4(scaled))
    return InvariantVector(*(Fraction(vec[name], q ** INVARIANT_DEGREES[name])
                             for name in INVARIANT_NAMES))


def invariants(d: Harmonic4) -> InvariantVector:
    """All ten invariants of ``d`` via the symmetry-weighted evaluator.

    Float-backend tensors go through numpy contractions.  Exact tensors
    (ints and Fractions) run the generic ring code on the integer tensor
    qD and return Fractions; every other scalar type (polynomials) runs it
    directly.  The generic path is pinned against :func:`invariants_oracle`
    by tests.
    """
    if d.backend == FLOAT:
        return _invariants_float(d)
    if d.backend == EXACT:
        return _invariants_exact(d)
    return _invariants_generic(d)


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
    """Reconstruct the degree-4 invariant from {J2, J3, J6, K6}.

    J4 = (39*J2^3 + 10*J3^2 - 135*J6 + 240*K6) / (198*J2) for J2 != 0;
    J2 = 0 forces D = 0 and hence J4 = 0.  Exact on Fraction input.
    """
    if j2 == 0:
        return j2
    num = 39 * j2**3 + 10 * j3 * j3 - 135 * j6 + 240 * k6
    den = 198 * j2
    if isinstance(num, int) and isinstance(den, int):
        return Fraction(num, den)
    return num / den
