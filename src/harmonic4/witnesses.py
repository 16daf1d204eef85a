"""Separation witnesses: tensor pairs that pin down both invariant bases.

Every witness here is a pair of harmonic tensors agreeing on all but one
invariant of a nine-invariant basis, which demonstrates that the excepted
invariant is not a function of the others.  Three constructions cover all
ten invariants:

* sign pairs (D, -D): the even invariants are fixed, the odd ones flip,
  so a tensor with exactly one nonzero odd invariant separates it;
* fixed catalog tensors whose invariants are matched by hand (the
  degree-2/degree-4 separators and the degree-10 branch pair);
* numerically solved families: all of them live in the restriction
  D1111 = D1112 = D1122 = D1222 = D2222 = 0 (which kills the four odd
  invariants identically), with D1223 mirrored about -D1113/4 so the
  degree-2 invariant agrees for free.  The remaining agreements are a
  one-parameter root for the degree-8 witness and a 4-equation/3-unknown
  Gauss-Newton solve for the two degree-6 witnesses.

Solved witnesses are validated post hoc by direct invariant evaluation,
independent of the solver path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .invariants import (
    EVEN_INVARIANTS,
    INVARIANT_NAMES,
    ODD_INVARIANTS,
    invariants,
    invariants_float,
)
from .tensor import EXACT, FLOAT, Harmonic4, expand_float, from_independent

SMITH_BAO_BASIS = ("J2", "J3", "J4", "J5", "J6", "J7", "J8", "J9", "J10")
MIXED_BASIS = ("J2", "J3", "J5", "J6", "K6", "J7", "J8", "J9", "J10")

#: Matched invariants of the two degree-6 agreement systems.
J6_SYSTEMS = {
    "smith_bao": ("J2", "J4", "J8", "J10"),
    "mixed": ("J2", "K6", "J8", "J10"),
}

#: Default absolute tolerance for "this odd invariant vanishes" checks on
#: radical-valued tensors (the restricted families cancel exactly).
ZERO_TOL = 1e-8


def relative_gap(a, b) -> float:
    """|a-b| / max(|a|,|b|), and 0 when both vanish."""
    a, b = float(a), float(b)
    denom = max(abs(a), abs(b))
    return abs(a - b) / denom if denom else 0.0


@dataclass(frozen=True)
class WitnessPair:
    """Two tensors, the invariants they agree on, and the one that separates."""

    left: Harmonic4
    right: Harmonic4
    agree: tuple
    differ: str | None
    source: str


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a root find or agreement-system solve."""

    solution: dict
    residual_norm: float
    iterations: int
    converged: bool
    message: str = ""

    def to_json_dict(self) -> dict:
        return {
            "solution": {k: float(v) for k, v in self.solution.items()},
            "residual_norm": self.residual_norm,
            "iterations": self.iterations,
            "converged": self.converged,
            "message": self.message,
        }


@dataclass(frozen=True)
class WitnessReport:
    """Checked values of one witness: what agreed, what separated, and by how much."""

    label: str
    left_values: dict
    right_values: dict
    gaps: dict
    agree: tuple
    differ: str | None
    passed: bool
    notes: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        def enc(v):
            if isinstance(v, Fraction):
                return f"{v.numerator}/{v.denominator}"
            if isinstance(v, dict):
                return {k: enc(x) for k, x in v.items()}
            if isinstance(v, (list, tuple)):
                return [enc(x) for x in v]
            return v

        return {
            "label": self.label,
            "passed": self.passed,
            "agree": list(self.agree),
            "differ": self.differ,
            "left": enc(self.left_values),
            "right": enc(self.right_values),
            "gaps": enc(self.gaps),
            "notes": enc(self.notes),
        }


@dataclass(frozen=True)
class CatalogEntry:
    """A fixed reference tensor (or pair) with its known invariant values."""

    label: str
    tensors: tuple
    expected: tuple
    exact: bool
    differ: str | None = None
    agree: tuple = ()


def _sqrt(x) -> float:
    return math.sqrt(x)


def _j5_witness() -> Harmonic4:
    q = _sqrt(5 / 2 + _sqrt(38 / 3))
    return from_independent(
        (1.0, q, -_sqrt(2) / 2, -1.0, 0.0, -q, 0.0, 0.5, 0.5 * _sqrt(5 + 2 * _sqrt(38 / 3))),
        backend=FLOAT,
    )


def _j7_witness() -> Harmonic4:
    r = _sqrt(13033)
    return from_independent(
        ((-83 + r) / 144, 0.0, _sqrt((-11455 + 101 * r) / 2) / 72, 0.0, 0.0,
         1 / (2 * _sqrt(2)), 0.0, 0.5, 0.0),
        backend=FLOAT,
    )


def _j10_pair() -> tuple:
    s5 = _sqrt(5)
    base = [0.0, 0.0, 1 / 9, 0.0, -1 / (9 * s5), 0.0, (-4 / 9 + 28 / s5) / 16, 0.0, s5 / 18]
    other = list(base)
    other[6] = -(4 / 9 + 28 / s5) / 16
    return (from_independent(base, backend=FLOAT),
            from_independent(other, backend=FLOAT))


def catalog() -> tuple:
    """All fixed reference tensors and pairs, expected values attached.

    Exact entries carry rational expected values and are checked exactly
    on the exact backend; radical-valued entries are float-mode and are
    checked to relative tolerance.
    """
    zero_smith_bao = {n: 0 for n in SMITH_BAO_BASIS}
    zero_mixed = {n: 0 for n in MIXED_BASIS}

    d1 = from_independent((1, 0, 0, 0, 0, 0, 0, 0, 0), backend=EXACT)
    d1_expected = dict(zero_smith_bao, J2=8, J4=32, K6=128)
    d2 = from_independent((0.0, _sqrt(2) / 11**0.25, 0, 0, 0, 0, 0, 0, 0), backend=FLOAT)
    d2_expected = dict(zero_smith_bao, J2=32 / _sqrt(11), J4=32.0)
    d3 = from_independent((0.0, 1 / _sqrt(2), 0, 0, 0, 0, 0, 0, 0), backend=FLOAT)
    d3_expected = dict(zero_smith_bao, J2=8.0, J4=22.0)

    m1 = from_independent((_sqrt(2), 0, 0, 0, 0, 0, 0, 0, 0), backend=FLOAT)
    m1_expected = dict(zero_mixed, J2=16.0, K6=1024.0)
    m2 = from_independent((0.0, 2 / 31**(1 / 6), 0, 0, 0, 0, 0, 0, 0), backend=FLOAT)
    m2_expected = dict(zero_mixed, J2=64 / 31**(1 / 3), K6=1024.0)

    j10_left, j10_right = _j10_pair()
    s5 = _sqrt(5)
    j10_shared = {
        "J2": 10.0, "J3": 0, "J4": 1553 / 45, "J5": 0, "J6": 98 / 135,
        "J7": 0, "J8": 207319 / 40500, "J9": 0,
    }

    return (
        CatalogEntry(
            label="unit-d1111",
            tensors=(d1,),
            expected=(d1_expected,),
            exact=True,
        ),
        CatalogEntry(
            label="d1112-j4-matched",
            tensors=(d2,),
            expected=(d2_expected,),
            exact=False,
        ),
        CatalogEntry(
            label="d1112-j2-matched",
            tensors=(d3,),
            expected=(d3_expected,),
            exact=False,
        ),
        CatalogEntry(
            label="scaled-unit-k6-matched",
            tensors=(m1,),
            expected=(m1_expected,),
            exact=False,
        ),
        CatalogEntry(
            label="d1112-k6-matched",
            tensors=(m2,),
            expected=(m2_expected,),
            exact=False,
        ),
        CatalogEntry(
            label="j3-sign-witness",
            tensors=(from_independent((8, 0, 0, -4, 0, 5, 5, 3, 0), backend=EXACT),),
            expected=({"J3": -6480, "J5": 0, "J7": 0, "J9": 0},),
            exact=True,
        ),
        CatalogEntry(
            label="j5-sign-witness",
            tensors=(_j5_witness(),),
            expected=({"J3": 0, "J5": 12.5, "J7": 0, "J9": 0},),
            exact=False,
        ),
        CatalogEntry(
            label="j7-sign-witness",
            tensors=(_j7_witness(),),
            expected=({"J3": 0, "J5": 0,
                       "J7": (6384263 - 55933 * _sqrt(13033)) / 884736, "J9": 0},),
            exact=False,
        ),
        CatalogEntry(
            label="j9-sign-witness",
            tensors=(from_independent(
                (0, 1, 0, 0, 0, Fraction(-3, 4), Fraction(1, 4), 1, 0), backend=EXACT),),
            expected=({"J3": 0, "J5": 0, "J7": 0, "J9": Fraction(45, 8)},),
            exact=True,
        ),
        CatalogEntry(
            label="j2-separation",
            tensors=(d1, d2),
            expected=(d1_expected, d2_expected),
            exact=False,
            differ="J2",
            agree=tuple(n for n in SMITH_BAO_BASIS if n != "J2"),
        ),
        CatalogEntry(
            label="j4-separation",
            tensors=(d1, d3),
            expected=(d1_expected, d3_expected),
            exact=False,
            differ="J4",
            agree=tuple(n for n in SMITH_BAO_BASIS if n != "J4"),
        ),
        CatalogEntry(
            label="mixed-j2-separation",
            tensors=(m1, m2),
            expected=(m1_expected, m2_expected),
            exact=False,
            differ="J2",
            agree=tuple(n for n in MIXED_BASIS if n != "J2"),
        ),
        CatalogEntry(
            label="j10-separation",
            tensors=(j10_left, j10_right),
            expected=(
                dict(j10_shared, J10=343 * (512675 + 216 * s5) / 4860000),
                dict(j10_shared, J10=343 * (512675 - 216 * s5) / 4860000),
            ),
            exact=False,
            differ="J10",
            agree=tuple(n for n in SMITH_BAO_BASIS if n != "J10"),
        ),
    )


def sign_pair(d: Harmonic4, zero_tol: float = ZERO_TOL) -> WitnessPair:
    """The pair (D, -D); separating iff exactly one odd invariant is nonzero."""
    vec = invariants(d)
    nonzero = [n for n in ODD_INVARIANTS if not _vanishes(vec[n], zero_tol)]
    differ = nonzero[0] if len(nonzero) == 1 else None
    agree = tuple(n for n in INVARIANT_NAMES if n != differ) if differ else EVEN_INVARIANTS
    return WitnessPair(left=d, right=-d, agree=agree, differ=differ,
                       source="odd-degree sign flip")


def _vanishes(value, zero_tol: float) -> bool:
    if isinstance(value, (int, Fraction)):
        return value == 0
    return abs(value) <= zero_tol


#: h(t), the sextic whose root in (0.15, 0.2) makes the degree-8 witness:
#: ascending coefficients of -4 - 156 t - 207 t^2 + 5863 t^3 + 6234 t^4
#: - 24147 t^5 + 9800 t^6.
H_COEFFS = (-4, -156, -207, 5863, 6234, -24147, 9800)


def h_eval(t):
    """Horner evaluation of the degree-8 agreement sextic h(t)."""
    acc = 0
    for c in reversed(H_COEFFS):
        acc = acc * t + c
    return acc


def bisect_root(f, lo: float, hi: float, tol: float) -> SolveResult:
    """Bracketing bisection; needs f(lo), f(hi) of opposite sign.

    Halves the bracket until its width is at most ``tol``, or until its
    ends are adjacent floats, and returns the midpoint, so the iteration
    count is at most ceil(log2((hi-lo)/tol)) and stays finite for any
    positive ``tol``.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    flo, fhi = f(lo), f(hi)
    if flo * fhi > 0:
        raise ValueError(f"no sign change on bracket [{lo}, {hi}]")
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        fm = f(mid)
        iterations += 1
        if fm == 0:
            lo = hi = mid
            break
        if flo * fm < 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    root = 0.5 * (lo + hi)
    return SolveResult(
        solution={"root": root},
        residual_norm=abs(f(root)),
        iterations=iterations,
        converged=True,
    )


def odd_vanishing_tensor(d1123: float, d1223: float, d2223: float,
                         d1113: float = 1.0) -> Harmonic4:
    """Tensor in the odd-killing restriction: only the single-'3' slots are free."""
    return from_independent((0.0, 0.0, d1113, 0.0, d1123, 0.0, d1223, 0.0, d2223),
                            backend=FLOAT)


def j8_family(t: float) -> WitnessPair:
    """The one-parameter pair whose degree-8 gap closes only at the root of h.

    For t in (0, 1/2) with 6 + 9t - 54t^2 + 24t^3 >= 0, both members have
    all odd invariants identically zero and share J2, J4 and J6 for every
    t; J10 also agrees exactly at roots of (1-5t)^2 h(t).
    """
    if not 0 < t < 0.5:
        raise ValueError(f"parameter t={t} outside the open interval (0, 1/2)")
    radicand = 6 + 9 * t - 54 * t**2 + 24 * t**3
    if radicand < 0:
        raise ValueError(f"negative radicand {radicand} at t={t}")
    denom = -4 + 8 * t
    root = _sqrt(radicand)
    sqrt_t = _sqrt(t)
    d2223 = (1 + 5 * t) / (4 * sqrt_t)
    left = odd_vanishing_tensor(-sqrt_t, (1 - 2 * t + root) / denom, d2223)
    right = odd_vanishing_tensor(-sqrt_t, (1 - 2 * t - root) / denom, d2223)
    return WitnessPair(
        left=left,
        right=right,
        agree=tuple(n for n in SMITH_BAO_BASIS if n != "J8"),
        differ="J8",
        source="degree-8 branch family",
    )


# Gauss-Newton solve of the agreement systems.  Parameters are
# x = (D1123, delta, D2223) with D1113 = 1 fixed and the branch pair
# D1223 = -1/4 + delta vs -1/4 - delta; four residuals, three unknowns,
# consistent at the separating solution.

#: Printed solution digits, keyed by the set of matched invariants: the
#: order of the equations does not change the solution.
_PAPER_GUESS = {
    frozenset(("J2", "J4", "J8", "J10")): (-0.406303, 0.672665 + 0.25, 1.12318),
    frozenset(("J2", "K6", "J8", "J10")): (-0.405381, 0.67075 + 0.25, 1.12345),
}

#: Solutions with |delta| below this are treated as collapses onto the
#: trivial manifold (left == right, every residual zero for any D1123 and
#: D2223); the genuine witnesses sit at delta ~ 0.92.
_DELTA_FLOOR = 1e-3


def _mirror_components(points) -> np.ndarray:
    """(2, P, 9) components of the left and right tensors at (P, 3) points x."""
    b, delta, d = np.asarray(points, dtype=float).T
    comps = np.zeros((2, len(b), 9))
    comps[:, :, 2] = 1.0
    comps[:, :, 4] = b
    comps[0, :, 6] = -0.25 + delta
    comps[1, :, 6] = -0.25 - delta
    comps[:, :, 8] = d
    return comps


def _mirror_pair(x) -> tuple:
    left, right = _mirror_components([x])[:, 0]
    return Harmonic4(tuple(left.tolist())), Harmonic4(tuple(right.tolist()))


def _system_residuals(points, matched) -> np.ndarray:
    """Normalized residuals of the mirror pairs at (P, 3) points, as (P, len(matched)).

    All 2P tensors go through the float engine in one call.
    """
    comps = _mirror_components(points)
    values = invariants_float(expand_float(comps.reshape(-1, 9))).reshape(2, comps.shape[1], -1)
    cols = [INVARIANT_NAMES.index(name) for name in matched]
    left, right = values[0][:, cols], values[1][:, cols]
    return (left - right) / np.maximum(1.0, np.maximum(np.abs(left), np.abs(right)))


def solve_agreement_system(matched, guess=None, tol: float = 1e-12,
                           max_iter: int = 200) -> SolveResult:
    """Damped Gauss-Newton on the four matched-invariant residuals.

    Residuals are normalized per equation by max(1, |J_k|) so the
    convergence tolerance is meaningful across degrees 2..10.  ``guess``
    defaults to the printed solution digits for the two known systems; a
    coarse grid search seeds the iteration otherwise.  Non-convergence
    (including collapse onto the trivial delta=0 manifold) is reported in
    the result, never raised.
    """
    matched = tuple(matched)
    if guess is not None:
        candidates = [tuple(float(v) for v in guess)]
    elif frozenset(matched) in _PAPER_GUESS:
        candidates = [_PAPER_GUESS[frozenset(matched)]]
    else:
        candidates = _grid_seeds(matched)
    result = None
    for candidate in candidates:
        result = _gauss_newton(np.asarray(candidate, dtype=float), matched, tol, max_iter)
        if result.converged:
            break
    return result


def _grid_seeds(matched, count: int = 8) -> list:
    """Best Newton seeds from a coarse (D1123, delta, D2223) grid in [-1.5, 1.5]^3."""
    grid = np.linspace(-1.5, 1.5, 7)
    points = np.array([(b, delta, d) for b in grid for delta in grid if abs(delta) >= 0.25
                       for d in grid])
    norms = np.linalg.norm(_system_residuals(points, matched), axis=1)
    best = np.argsort(norms, kind="stable")[:count]
    return [tuple(points[i].tolist()) for i in best]


def _gauss_newton(x, matched, tol, max_iter) -> SolveResult:
    fd_step = 1e-7
    bumps = fd_step * np.concatenate((np.eye(3), -np.eye(3)))
    r = _system_residuals(x[None], matched)[0]
    r_norm = float(np.linalg.norm(r))
    iterations = 0
    message = ""
    while r_norm > tol and iterations < max_iter:
        r_bumped = _system_residuals(x + bumps, matched)
        jac = ((r_bumped[:3] - r_bumped[3:]) / (2 * fd_step)).T
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        if not np.all(np.isfinite(step)):
            message = "singular Jacobian"
            break
        accepted = False
        for _ in range(30):
            candidate = x + step
            r_new = _system_residuals(candidate[None], matched)[0]
            r_new_norm = float(np.linalg.norm(r_new))
            if r_new_norm < r_norm:
                x, r, r_norm = candidate, r_new, r_new_norm
                accepted = True
                break
            step = step / 2
        iterations += 1
        if not accepted:
            message = "no decrease after 30 step halvings"
            break

    b, delta, d = (float(v) for v in x)
    converged = r_norm <= tol
    if converged and abs(delta) < _DELTA_FLOOR:
        converged = False
        message = "collapsed onto the trivial (left == right) solution"
    if not converged and not message:
        message = f"residual {r_norm:.3e} after {iterations} iterations"
    return SolveResult(
        solution={
            "D1113": 1.0,
            "D1123": b,
            "D1223": -0.25 + delta,
            "D2223": d,
            "D1223_hat": -0.25 - delta,
        },
        residual_norm=r_norm,
        iterations=iterations,
        converged=converged,
        message=message,
    )


def pair_from_solution(result: SolveResult, matched, differ: str = "J6") -> WitnessPair:
    """Realize the solved agreement system as a tensor pair."""
    sol = result.solution
    delta = sol["D1223"] + 0.25
    left, right = _mirror_pair((sol["D1123"], delta, sol["D2223"]))
    return WitnessPair(left=left, right=right,
                       agree=tuple(matched) + ODD_INVARIANTS, differ=differ,
                       source="four-invariant agreement system")


def verify_j8_separation(tol_agree: float = 1e-9, tol_sep: float = 1e-6) -> WitnessReport:
    """Root-find t*, build the branch pair there, and check the J8 witness.

    Passes iff the eight other basis invariants agree within ``tol_agree``
    relative (odd ones vanish within 1e-10 absolute) and the J8 relative
    gap is at least ``tol_sep``.
    """
    root_result = bisect_root(h_eval, 0.15, 0.2, 1e-14)
    t_star = root_result.solution["root"]
    pair = j8_family(t_star)
    lv, rv = invariants(pair.left), invariants(pair.right)
    gaps = {n: relative_gap(lv[n], rv[n]) for n in INVARIANT_NAMES}
    agree_ok = all(gaps[n] <= tol_agree for n in pair.agree)
    odd_ok = all(abs(float(lv[n])) <= 1e-10 and abs(float(rv[n])) <= 1e-10
                 for n in ODD_INVARIANTS)
    sep_ok = gaps["J8"] >= tol_sep
    return WitnessReport(
        label="j8-separation",
        left_values=lv.as_dict(),
        right_values=rv.as_dict(),
        gaps=gaps,
        agree=pair.agree,
        differ="J8",
        passed=agree_ok and odd_ok and sep_ok,
        notes={
            "t_star": t_star,
            "h_at_root": root_result.residual_norm,
            "bisection_iterations": root_result.iterations,
            "one_minus_5t_sq": (1 - 5 * t_star) ** 2,
        },
    )


def verify_j6_separation(which: str = "smith_bao", tol: float = 1e-9,
                         guess=None) -> WitnessReport:
    """Solve the chosen agreement system and check the J6 witness.

    Passes iff Newton converges, the four matched invariants agree within
    ``tol`` relative, the four odd invariants vanish within 1e-10, and the
    J6 relative gap exceeds 1000*tol.
    """
    if which not in J6_SYSTEMS:
        raise ValueError(f"unknown system {which!r}; expected one of {sorted(J6_SYSTEMS)}")
    matched = J6_SYSTEMS[which]
    result = solve_agreement_system(matched, guess=guess)
    if not result.converged:
        return WitnessReport(
            label=f"{which}-j6-separation",
            left_values={}, right_values={}, gaps={},
            agree=matched + ODD_INVARIANTS, differ="J6", passed=False,
            notes={"solver": result.to_json_dict()},
        )
    pair = pair_from_solution(result, matched)
    lv, rv = invariants(pair.left), invariants(pair.right)
    gaps = {n: relative_gap(lv[n], rv[n]) for n in INVARIANT_NAMES}
    matched_ok = all(gaps[n] <= tol for n in matched)
    odd_ok = all(abs(float(lv[n])) <= 1e-10 and abs(float(rv[n])) <= 1e-10
                 for n in ODD_INVARIANTS)
    sep_ok = gaps["J6"] > 1e3 * tol
    return WitnessReport(
        label=f"{which}-j6-separation",
        left_values=lv.as_dict(),
        right_values=rv.as_dict(),
        gaps=gaps,
        agree=matched + ODD_INVARIANTS,
        differ="J6",
        passed=matched_ok and odd_ok and sep_ok,
        notes={"solver": result.to_json_dict()},
    )


def _check_single(entry: CatalogEntry, idx: int, rel_tol: float,
                  zero_tol: float) -> tuple:
    """Compare one tensor's invariants against its expected values."""
    vec = invariants(entry.tensors[idx])
    computed, gaps, ok = {}, {}, True
    for name, want in entry.expected[idx].items():
        got = vec[name]
        computed[name] = got
        if entry.exact:
            good = got == want
            gaps[name] = 0.0 if good else relative_gap(got, want)
        elif want == 0:
            gaps[name] = abs(float(got))
            good = gaps[name] <= zero_tol
        else:
            gaps[name] = relative_gap(got, want)
            good = gaps[name] <= rel_tol
        ok = ok and good
    return vec, computed, gaps, ok


def verify_catalog(rel_tol: float = 1e-9, zero_tol: float = ZERO_TOL) -> list:
    """Value regression of every catalog entry against its attached numbers."""
    reports = []
    for entry in catalog():
        vec0, computed0, gaps0, ok0 = _check_single(entry, 0, rel_tol, zero_tol)
        if len(entry.tensors) == 1:
            reports.append(WitnessReport(
                label=entry.label,
                left_values=computed0,
                right_values=dict(entry.expected[0]),
                gaps=gaps0,
                agree=tuple(entry.expected[0]),
                differ=None,
                passed=ok0,
            ))
            continue
        vec1, computed1, gaps1, ok1 = _check_single(entry, 1, rel_tol, zero_tol)
        pair_gaps = {n: relative_gap(vec0[n], vec1[n]) for n in INVARIANT_NAMES}
        agree_ok = all(
            pair_gaps[n] <= rel_tol
            or (abs(float(vec0[n])) <= zero_tol and abs(float(vec1[n])) <= zero_tol)
            for n in entry.agree
        )
        sep_ok = pair_gaps[entry.differ] > 1e3 * rel_tol
        reports.append(WitnessReport(
            label=entry.label,
            left_values=computed0,
            right_values=computed1,
            gaps=pair_gaps,
            agree=entry.agree,
            differ=entry.differ,
            passed=ok0 and ok1 and agree_ok and sep_ok,
        ))
    return reports


def verify_sign_pairs(zero_tol: float = ZERO_TOL) -> list:
    """Check the four sign-flip witnesses: evens fixed, the one odd flips."""
    targets = {
        "j3-sign-witness": "J3",
        "j5-sign-witness": "J5",
        "j7-sign-witness": "J7",
        "j9-sign-witness": "J9",
    }
    by_label = {e.label: e for e in catalog()}
    reports = []
    for label, want_differ in targets.items():
        tensor = by_label[label].tensors[0]
        pair = sign_pair(tensor, zero_tol=zero_tol)
        lv, rv = invariants(pair.left), invariants(pair.right)
        gaps = {n: relative_gap(lv[n], rv[n]) for n in INVARIANT_NAMES}
        evens_ok = all(gaps[n] == 0.0 for n in EVEN_INVARIANTS)
        flip_ok = (pair.differ == want_differ
                   and float(lv[want_differ]) == -float(rv[want_differ])
                   and not _vanishes(lv[want_differ], zero_tol))
        reports.append(WitnessReport(
            label=f"{label}-pair",
            left_values=lv.as_dict(),
            right_values=rv.as_dict(),
            gaps=gaps,
            agree=pair.agree,
            differ=pair.differ,
            passed=evens_ok and flip_ok,
        ))
    return reports


def verify_witnesses(rel_tol: float = 1e-9) -> list:
    """Every witness check in one sweep: catalog, sign pairs, J8 and both J6."""
    reports = list(verify_catalog(rel_tol=rel_tol))
    reports.extend(verify_sign_pairs())
    reports.append(verify_j8_separation(tol_agree=rel_tol, tol_sep=1e3 * rel_tol))
    reports.append(verify_j6_separation("smith_bao", tol=rel_tol))
    reports.append(verify_j6_separation("mixed", tol=rel_tol))
    return reports
