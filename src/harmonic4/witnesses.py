"""Separation witnesses: one table over the 18 cells of the two bases.

A nine-invariant basis is irreducible when, for each member, some pair of
harmonic tensors agrees on the other eight members and differs on that
one.  Smith-Bao's basis {J2..J10} and the mixed basis (J4 replaced by K6)
give 18 such (basis, member) cells.

* ``CELLS`` maps each cell to the label of the witness pair that covers
  it.  One pair may cover several cells: the degree-4 catalog pair also
  separates K6 in the mixed basis, and the sign, J8 and J10 pairs serve
  both bases.
* ``WITNESSES`` defines each of the eleven pairs once: how to build it,
  the invariant values the paper prints for it, and its tolerance row.
* :func:`check_pair` is the one comparison every cell goes through, with
  agree = basis - {member}.  :func:`verify_witnesses` walks all 18 cells
  in one pass: all float tensors in one float-engine stack, each distinct
  exact tensor once, and each pair's cell-independent checks once.  It
  fails any cell without a passing witness.

The pairs come from three constructions:

* catalog pairs of fixed tensors whose invariants are matched by hand
  (the degree-2 and degree-4 separators and the degree-10 branch pair);
* sign pairs (D, -D): the even invariants are fixed and the odd ones
  flip, so a tensor with exactly one nonzero odd invariant separates it;
* solved pairs, three points of one mirror family
  :func:`mirror_pair` (D1123, delta, D2223): the restriction D1111 =
  D1112 = D1122 = D1222 = D2222 = 0 kills the four odd invariants
  identically, D1113 = 1, and D1223 = -1/4 +- delta makes the degree-2
  invariant agree for free.  The remaining agreements are a
  one-parameter root for the degree-8 witness (:func:`j8_family`) and a
  square 3x3 Newton solve for the two degree-6 witnesses, one per basis.

Solved witnesses are validated post hoc by direct invariant evaluation,
independent of the solver path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from .invariants import INVARIANT_NAMES, ODD_INVARIANTS, invariants, invariants_float
from .tensor import EXACT, FLOAT, Harmonic4, _format_scalar, from_independent

SMITH_BAO_BASIS = ("J2", "J3", "J4", "J5", "J6", "J7", "J8", "J9", "J10")
MIXED_BASIS = ("J2", "J3", "J5", "J6", "K6", "J7", "J8", "J9", "J10")
BASES = {"smith_bao": SMITH_BAO_BASIS, "mixed": MIXED_BASIS}

#: Matched invariants of the two degree-6 agreement systems.
J6_SYSTEMS = {
    "smith_bao": ("J2", "J4", "J8", "J10"),
    "mixed": ("J2", "K6", "J8", "J10"),
}

#: Which witness covers each (basis, member) cell.
CELLS = {
    ("smith_bao", "J2"): "j2-separation",
    ("smith_bao", "J3"): "j3-sign-pair",
    ("smith_bao", "J4"): "j4-separation",
    ("smith_bao", "J5"): "j5-sign-pair",
    ("smith_bao", "J6"): "smith_bao-j6-separation",
    ("smith_bao", "J7"): "j7-sign-pair",
    ("smith_bao", "J8"): "j8-separation",
    ("smith_bao", "J9"): "j9-sign-pair",
    ("smith_bao", "J10"): "j10-separation",
    ("mixed", "J2"): "mixed-j2-separation",
    ("mixed", "J3"): "j3-sign-pair",
    ("mixed", "J5"): "j5-sign-pair",
    ("mixed", "J6"): "mixed-j6-separation",
    ("mixed", "K6"): "j4-separation",
    ("mixed", "J7"): "j7-sign-pair",
    ("mixed", "J8"): "j8-separation",
    ("mixed", "J9"): "j9-sign-pair",
    ("mixed", "J10"): "j10-separation",
}

#: Relative agreement tolerance of every witness; a separating gap must
#: exceed SEPARATION times it.
REL_TOL = 1e-9
SEPARATION = 1e3

#: |value| at or below which an invariant of a radical-valued float tensor
#: counts as zero.  The restricted families cancel exactly and use 0.
ZERO_TOL = 1e-8


def relative_gap(a, b) -> float:
    """|a-b| / max(|a|,|b|), and 0 when both vanish."""
    a, b = float(a), float(b)
    denom = max(abs(a), abs(b))
    return abs(a - b) / denom if denom else 0.0


@dataclass(frozen=True)
class Tolerances:
    """The bounds one witness pair is checked against; see :func:`check_pair`."""

    agree: float
    vanish: float
    flip: bool = False


def check_pair(left, right, agree, differ: str, tols: Tolerances) -> tuple:
    """Whether the invariant values ``left`` and ``right`` separate ``differ``.

    A value vanishes when its magnitude is at most ``tols.vanish``.  The
    pair passes iff
    * each member of ``agree`` has relative gap <= ``tols.agree``, or
      vanishes on both sides;
    * every odd invariant other than ``differ`` vanishes on both sides;
    * ``differ`` has relative gap > SEPARATION * ``tols.agree`` and does
      not vanish on both sides;
    * with ``tols.flip`` (the pair is D and -D), every even value is equal
      and every odd value negated, exactly.

    Returns (passed, relative gap of each of the ten invariants).
    """
    gaps, separates = _pair_check(left, right, tols)
    return separates(agree, differ), gaps


def _pair_check(left, right, tols: Tolerances) -> tuple:
    """A pair's gaps and ``separates(agree, differ)``, its test of one cell."""
    gaps = {n: relative_gap(left[n], right[n]) for n in INVARIANT_NAMES}
    vanished = {n for n in INVARIANT_NAMES
                if max(abs(float(left[n])), abs(float(right[n]))) <= tols.vanish}
    flipped = not tols.flip or all(right[n] == (-left[n] if n in ODD_INVARIANTS else left[n])
                                   for n in INVARIANT_NAMES)

    def separates(agree, differ: str) -> bool:
        return (flipped and all(gaps[n] <= tols.agree or n in vanished for n in agree)
                and all(n in vanished for n in ODD_INVARIANTS if n != differ)
                and gaps[differ] > SEPARATION * tols.agree and differ not in vanished)

    return gaps, separates


def _reproduces(got, printed, tols: Tolerances) -> bool:
    """A printed value: exactly for exact tensors, else to ``tols``."""
    if isinstance(got, Fraction):
        return got == printed
    if printed == 0:
        return abs(got) <= tols.vanish
    return relative_gap(got, printed) <= tols.agree


@dataclass(frozen=True)
class WitnessPair:
    """Two tensors, with notes on how they were found.

    ``solved`` is False when the solver behind the pair did not converge.
    """

    left: Harmonic4
    right: Harmonic4
    notes: dict = field(default_factory=dict)
    solved: bool = True


@dataclass(frozen=True)
class Witness:
    """One witness: how to build its pair, what the paper prints, its tolerance row.

    ``printed`` holds the invariant values the paper gives for the left and
    the right tensor.  ``vanish`` and ``flip`` are the row's own
    :class:`Tolerances` fields; the relative ones are :data:`REL_TOL`.
    """

    label: str
    build: Callable[[], WitnessPair]
    printed: tuple = ({}, {})
    vanish: float = ZERO_TOL
    flip: bool = False

    @property
    def tolerances(self) -> Tolerances:
        return Tolerances(REL_TOL, self.vanish, self.flip)


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
    """Checked values of one cell: what agreed, what separated, and by how much."""

    label: str | None
    left_values: dict
    right_values: dict
    gaps: dict
    agree: tuple
    differ: str
    passed: bool
    notes: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        def enc(v):
            if isinstance(v, dict):
                return {k: enc(x) for k, x in v.items()}
            if isinstance(v, (list, tuple)):
                return [enc(x) for x in v]
            return _format_scalar(v)

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


def sign_pair(d: Harmonic4) -> WitnessPair:
    """The pair (D, -D): it separates the one odd invariant D does not kill."""
    return WitnessPair(left=d, right=-d)


# The catalog tensors and the values the paper prints for them.
_ZERO_SMITH_BAO = dict.fromkeys(SMITH_BAO_BASIS, 0)
_ZERO_MIXED = dict.fromkeys(MIXED_BASIS, 0)


def _d1112(value: float) -> Harmonic4:
    return from_independent((0.0, value, 0, 0, 0, 0, 0, 0, 0), backend=FLOAT)


_D1 = from_independent((1, 0, 0, 0, 0, 0, 0, 0, 0), backend=EXACT)
_D1_PRINTED = dict(_ZERO_SMITH_BAO, J2=8, J4=32, K6=128)
_D2 = _d1112(math.sqrt(2) / 11**0.25)
_D2_PRINTED = dict(_ZERO_SMITH_BAO, J2=32 / math.sqrt(11), J4=32.0)
_D3 = _d1112(1 / math.sqrt(2))
_D3_PRINTED = dict(_ZERO_SMITH_BAO, J2=8.0, J4=22.0)
_M1 = from_independent((math.sqrt(2), 0, 0, 0, 0, 0, 0, 0, 0), backend=FLOAT)
_M1_PRINTED = dict(_ZERO_MIXED, J2=16.0, K6=1024.0)
_M2 = _d1112(2 / 31**(1 / 6))
_M2_PRINTED = dict(_ZERO_MIXED, J2=64 / 31**(1 / 3), K6=1024.0)


def _j5_witness() -> Harmonic4:
    q = math.sqrt(5 / 2 + math.sqrt(38 / 3))
    return from_independent(
        (1.0, q, -math.sqrt(2) / 2, -1.0, 0.0, -q, 0.0, 0.5,
         0.5 * math.sqrt(5 + 2 * math.sqrt(38 / 3))),
        backend=FLOAT,
    )


def _j7_witness() -> Harmonic4:
    r = math.sqrt(13033)
    return from_independent(
        ((-83 + r) / 144, 0.0, math.sqrt((-11455 + 101 * r) / 2) / 72, 0.0, 0.0,
         1 / (2 * math.sqrt(2)), 0.0, 0.5, 0.0),
        backend=FLOAT,
    )


def _j10_pair() -> WitnessPair:
    s5 = math.sqrt(5)
    base = [0.0, 0.0, 1 / 9, 0.0, -1 / (9 * s5), 0.0, (-4 / 9 + 28 / s5) / 16, 0.0, s5 / 18]
    other = list(base)
    other[6] = -(4 / 9 + 28 / s5) / 16
    return WitnessPair(from_independent(base, backend=FLOAT),
                       from_independent(other, backend=FLOAT))


def _j10_printed() -> tuple:
    s5 = math.sqrt(5)
    shared = {"J2": 10.0, "J3": 0, "J4": 1553 / 45, "J5": 0, "J6": 98 / 135,
              "J7": 0, "J8": 207319 / 40500, "J9": 0}
    return (dict(shared, J10=343 * (512675 + 216 * s5) / 4860000),
            dict(shared, J10=343 * (512675 - 216 * s5) / 4860000))


def _sign_witness(label: str, tensor: Callable[[], Harmonic4], printed: dict) -> Witness:
    """A (D, -D) row; -D's printed odd values are D's negated."""
    return Witness(label, lambda: sign_pair(tensor()),
                   (printed, {n: -v for n, v in printed.items()}), flip=True)


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

    An end where f is exactly 0 is the root, found after 0 iterations.
    Otherwise it halves the bracket until its width is at most ``tol``,
    or until its ends are adjacent floats, and returns the midpoint, so
    the iteration count is at most ceil(log2((hi-lo)/tol)) and stays
    finite for any positive ``tol``.  It raises ``ValueError`` unless
    lo < hi and tol > 0, and on a NaN value of ``f`` at an end, a midpoint
    or the returned root.
    """
    if not (lo < hi and tol > 0):
        raise ValueError(f"need lo < hi and a positive tolerance, got [{lo}, {hi}] and {tol}")

    def value(t):
        if math.isnan(v := f(t)):
            raise ValueError(f"f is NaN at {t}")
        return v

    flo, fhi = value(lo), value(hi)
    if flo * fhi > 0:
        raise ValueError(f"no sign change on bracket [{lo}, {hi}]")
    if flo == 0 or fhi == 0:
        return SolveResult(solution={"root": lo if flo == 0 else hi}, residual_norm=0.0,
                           iterations=0, converged=True)
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        fm = value(mid)
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
        residual_norm=abs(value(root)),
        iterations=iterations,
        converged=True,
    )


def _mirror_components(points) -> np.ndarray:
    """(2, P, 9) components of the left and right mirror tensors at (P, 3) points x."""
    b, delta, d = np.asarray(points, dtype=float).T
    comps = np.zeros((2, len(b), 9))
    comps[:, :, 2] = 1.0
    comps[:, :, 4] = b
    comps[0, :, 6] = -0.25 + delta
    comps[1, :, 6] = -0.25 - delta
    comps[:, :, 8] = d
    return comps


def mirror_pair(d1123: float, delta: float, d2223: float) -> WitnessPair:
    """The float pair in the odd-killing restriction mirrored about D1223 = -1/4.

    Both tensors have D1113 = 1, the given D1123 and D2223, and zeros in the
    five restricted slots D1111, D1112, D1122, D1222, D2222, which kill the
    four odd invariants identically.  D1223 is -1/4 + delta on the left and
    -1/4 - delta on the right, so J2 agrees for free.  The J8 pair and both
    J6 pairs are points of this family.
    """
    left, right = _mirror_components([(d1123, delta, d2223)])[:, 0].tolist()
    return WitnessPair(Harmonic4(tuple(left)), Harmonic4(tuple(right)))


def j8_family(t: float) -> WitnessPair:
    """The one-parameter mirror family whose point at the root of h separates J8.

    For t in (0, 1/2) with r = 6 + 9t - 54t^2 + 24t^3 >= 0 it is
    ``mirror_pair(-sqrt(t), sqrt(r) / (-4 + 8t), (1 + 5t) / (4 sqrt(t)))``:
    both members have all odd invariants identically zero and share J2, J4
    and J6 for every t; J10 also agrees exactly at roots of (1-5t)^2 h(t).
    """
    if not 0 < t < 0.5:
        raise ValueError(f"parameter t={t} outside the open interval (0, 1/2)")
    radicand = 6 + 9 * t - 54 * t**2 + 24 * t**3
    if radicand < 0:
        raise ValueError(f"negative radicand {radicand} at t={t}")
    sqrt_t = math.sqrt(t)
    return mirror_pair(-sqrt_t, math.sqrt(radicand) / (-4 + 8 * t), (1 + 5 * t) / (4 * sqrt_t))


# Newton solve of the agreement systems in x = (D1123, delta, D2223) of
# :func:`mirror_pair`: three live residuals in three unknowns.

#: Printed solution digits (D1123, D1223 + 1/4, D2223), keyed by the set of
#: matched invariants: the order of the equations does not change the solution.
_PAPER_GUESS = {
    frozenset(J6_SYSTEMS["smith_bao"]): (-0.406303, 0.672665 + 0.25, 1.12318),
    frozenset(J6_SYSTEMS["mixed"]): (-0.405381, 0.67075 + 0.25, 1.12345),
}

#: Norm of the normalized residuals at which the Newton solve stops.
SOLVE_TOL = 1e-12

#: Newton iterations before a solve is reported as not converged.
MAX_ITER = 200

#: Solutions with |delta| below this are treated as collapses onto the
#: trivial manifold (left == right, every residual zero for any D1123 and
#: D2223); the genuine witnesses sit at delta ~ 0.92.
_DELTA_FLOOR = 1e-3


def _system_residuals(points, matched) -> np.ndarray:
    """Normalized residuals of the mirror pairs at (P, 3) points, as (P, len(matched)).

    All 2P tensors go through the float engine in one call.
    """
    comps = _mirror_components(points)
    values = invariants_float(comps.reshape(-1, 9)).reshape(2, comps.shape[1], -1)
    cols = [INVARIANT_NAMES.index(name) for name in matched]
    left, right = values[0][:, cols], values[1][:, cols]
    return (left - right) / np.maximum(1.0, np.maximum(np.abs(left), np.abs(right)))


def solve_agreement_system(matched) -> SolveResult:
    """Damped Newton on the three live residuals; the norm covers all of ``matched``.

    Residuals are normalized per equation by max(1, |J_k|) so the
    convergence tolerance :data:`SOLVE_TOL` is meaningful across degrees
    2..10.  The printed solution digits seed the two known systems; a
    coarse grid search seeds any other.  Non-convergence (including
    collapse onto the trivial delta=0 manifold) is reported in the result,
    never raised.  A name given twice counts once.  ``ValueError`` is raised
    on unknown names and unless exactly three names are live (not J2, not odd).
    """
    matched = tuple(matched)
    if unknown := [name for name in matched if name not in INVARIANT_NAMES]:
        raise ValueError(f"unknown invariants {unknown}; expected {INVARIANT_NAMES}")
    matched = tuple(dict.fromkeys(matched))
    live = [k for k, name in enumerate(matched) if name not in {"J2", *ODD_INVARIANTS}]
    if not live:
        raise ValueError(f"{matched} constrains nothing: every mirror pair agrees on it")
    if len(live) != 3:
        raise ValueError(f"{matched} is not square: {len(live)} live equations in 3 unknowns")
    guess = _PAPER_GUESS.get(frozenset(matched))
    for candidate in [guess] if guess else _grid_seeds(matched):
        result = _newton(list(candidate), matched, live)
        if result.converged:
            break
    return result


def _grid_seeds(matched) -> list:
    """The eight best Newton seeds of a coarse (D1123, delta, D2223) grid in [-1.5, 1.5]^3."""
    grid = np.linspace(-1.5, 1.5, 7)
    points = np.array([(b, delta, d) for b in grid for delta in grid if abs(delta) >= 0.25
                       for d in grid])
    norms = np.linalg.norm(_system_residuals(points, matched), axis=1)
    best = np.argsort(norms, kind="stable")[:8]
    return [tuple(points[i].tolist()) for i in best]


def _cramer(a, b) -> list:
    """x with a x = b, for a 3x3 matrix a given by rows, by Cramer's rule; NaNs if det(a) = 0."""
    def det(m):
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = m
        return a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)

    d = det(a) or math.nan
    return [det([row[:j] + [v] + row[j + 1:] for row, v in zip(a, b)]) / d for j in range(3)]


def _newton(x, matched, live) -> SolveResult:
    """Damped Newton from ``x``, stepping on the ``live`` columns of the residuals."""
    fd_step = 1e-7
    bumps = fd_step * np.concatenate((np.eye(3), -np.eye(3)))

    def probe(point):  # every probe, a halved retry too, takes its 6 bumps along in one call
        rows = _system_residuals(np.vstack((point, point + bumps)), matched)
        return float(np.linalg.norm(rows[0])), rows[:, live].T.tolist()

    r_norm, r_live = probe(x)
    iterations, message = 0, ""
    while r_norm > SOLVE_TOL and iterations < MAX_ITER:
        step = _cramer([[(row[1 + j] - row[4 + j]) / (2 * fd_step) for j in range(3)]
                        for row in r_live], [-row[0] for row in r_live])
        if not all(map(math.isfinite, step)):
            message = "singular Jacobian"
            break
        iterations += 1
        for _ in range(30):
            candidate = [a + s for a, s in zip(x, step)]
            new_norm, new_live = probe(candidate)
            if new_norm < r_norm:
                x, r_norm, r_live = candidate, new_norm, new_live
                break
            step = [s / 2 for s in step]
        else:
            message = "no decrease after 30 step halvings"
            break

    b, delta, d = x
    converged = r_norm <= SOLVE_TOL
    if converged and abs(delta) < _DELTA_FLOOR:
        converged = False
        message = "collapsed onto the trivial (left == right) solution"
    if not converged and not message:
        message = f"residual {r_norm:.3e} after {iterations} iterations"
    solution = {"D1113": 1.0, "D1123": b, "D1223": -0.25 + delta, "D2223": d,
                "D1223_hat": -0.25 - delta}
    return SolveResult(solution, r_norm, iterations, converged, message)


def pair_from_solution(result: SolveResult) -> WitnessPair:
    """Realize a solved agreement system as its mirror pair."""
    sol = result.solution
    pair = mirror_pair(sol["D1123"], sol["D1223"] + 0.25, sol["D2223"])
    return replace(pair, notes={"solver": result.to_json_dict()}, solved=result.converged)


def _j8_pair() -> WitnessPair:
    """The degree-8 branch pair at the root t* of h, bisected to 1e-14."""
    root = bisect_root(h_eval, 0.15, 0.2, 1e-14)
    t_star = root.solution["root"]
    return replace(j8_family(t_star), notes={
        "solver": root.to_json_dict(),
        "one_minus_5t_sq": (1 - 5 * t_star) ** 2,
    })


WITNESSES = {w.label: w for w in (
    Witness("j2-separation", lambda: WitnessPair(_D1, _D2), (_D1_PRINTED, _D2_PRINTED)),
    Witness("j4-separation", lambda: WitnessPair(_D1, _D3), (_D1_PRINTED, _D3_PRINTED)),
    Witness("mixed-j2-separation", lambda: WitnessPair(_M1, _M2),
            (_M1_PRINTED, _M2_PRINTED)),
    Witness("j10-separation", _j10_pair, _j10_printed()),
    _sign_witness("j3-sign-pair",
                  lambda: from_independent((8, 0, 0, -4, 0, 5, 5, 3, 0), backend=EXACT),
                  {"J3": -6480, "J5": 0, "J7": 0, "J9": 0}),
    _sign_witness("j5-sign-pair", _j5_witness, {"J3": 0, "J5": 12.5, "J7": 0, "J9": 0}),
    _sign_witness("j7-sign-pair", _j7_witness,
                  {"J3": 0, "J5": 0,
                   "J7": (6384263 - 55933 * math.sqrt(13033)) / 884736, "J9": 0}),
    _sign_witness("j9-sign-pair",
                  lambda: from_independent((0, 1, 0, 0, 0, Fraction(-3, 4), Fraction(1, 4),
                                            1, 0), backend=EXACT),
                  {"J3": 0, "J5": 0, "J7": 0, "J9": Fraction(45, 8)}),
    Witness("j8-separation", _j8_pair, vanish=0.0),
    *(Witness(f"{which}-j6-separation",
              lambda matched=matched: pair_from_solution(solve_agreement_system(matched)),
              vanish=0.0)
      for which, matched in J6_SYSTEMS.items()),
)}

#: Labels of the fixed catalog pairs and of the sign pairs.
CATALOG_PAIRS = ("j2-separation", "j4-separation", "mixed-j2-separation", "j10-separation")
SIGN_PAIRS = ("j3-sign-pair", "j5-sign-pair", "j7-sign-pair", "j9-sign-pair")


def all_cells() -> list:
    """The 18 (basis, member) cells, basis by basis."""
    return [(basis, member) for basis, members in BASES.items() for member in members]


def _table_values(tensors) -> list:
    """Each tensor's invariants as a dict: float tensors in one stack, each exact object once."""
    stack = np.array([t.indep for t in tensors if t.backend == FLOAT], dtype=float)
    rows = iter(invariants_float(stack.reshape(-1, 9)).tolist())
    exact = {id(t): t for t in tensors if t.backend != FLOAT}
    exact = {key: invariants(t).as_dict() for key, t in exact.items()}
    return [dict(zip(INVARIANT_NAMES, next(rows))) if t.backend == FLOAT else exact[id(t)]
            for t in tensors]


def _copy_notes(notes: dict) -> dict:
    """A copy of ``notes``, nested dicts of scalars, that shares no dict with it."""
    return {k: _copy_notes(v) if isinstance(v, dict) else v for k, v in notes.items()}


def _check_cells(cells) -> dict:
    """Report on each cell through the witness ``CELLS`` names for it.

    One pass over the table (see the module docstring); a cell with no witness fails.
    """
    labels = dict.fromkeys(CELLS.get(cell) for cell in cells)
    pairs = {label: WITNESSES[label].build() for label in labels if label in WITNESSES}
    values = iter(_table_values([t for p in pairs.values() for t in (p.left, p.right)]))
    checked, reports = {}, {}
    for label, pair in pairs.items():
        witness, lv, rv = WITNESSES[label], next(values), next(values)
        tols = witness.tolerances
        pair_ok = pair.solved and all(
            _reproduces(got[n], want, tols)
            for got, printed in zip((lv, rv), witness.printed) for n, want in printed.items())
        checked[label] = (pair, lv, rv, pair_ok, *_pair_check(lv, rv, tols))
    for basis, member in cells:
        agree = tuple(n for n in BASES[basis] if n != member)
        label = CELLS.get((basis, member))
        if label not in checked:
            reports[basis, member] = WitnessReport(
                label=label, left_values={}, right_values={}, gaps={}, agree=agree,
                differ=member, passed=False, notes={"error": "no witness for this cell"})
            continue
        pair, lv, rv, pair_ok, gaps, separates = checked[label]
        reports[basis, member] = WitnessReport(
            label=label, left_values=dict(lv), right_values=dict(rv), gaps=dict(gaps),
            agree=agree, differ=member, passed=pair_ok and separates(agree, member),
            notes=_copy_notes(pair.notes))
    return reports


def verify_witnesses() -> dict:
    """Every cell of both bases, keyed by (basis, member)."""
    return _check_cells(all_cells())


def _covered_by(labels) -> list:
    cells = [cell for cell in all_cells() if CELLS.get(cell) in labels]
    return list(_check_cells(cells).values())


def verify_catalog() -> list:
    """The cells the catalog pairs cover, with their printed values."""
    return _covered_by(CATALOG_PAIRS)


def verify_sign_pairs() -> list:
    """The cells the sign pairs cover: evens fixed, the one odd flips."""
    return _covered_by(SIGN_PAIRS)


def verify_j8_separation() -> WitnessReport:
    """The Smith-Bao J8 cell: root-find t*, then check the branch pair there.

    The bisection's :class:`SolveResult` is in ``notes["solver"]``.
    """
    return _check_cells([("smith_bao", "J8")])["smith_bao", "J8"]


def verify_j6_separation(which: str = "smith_bao") -> WitnessReport:
    """The J6 cell of basis ``which``, through its solved agreement system."""
    if which not in J6_SYSTEMS:
        raise ValueError(f"unknown system {which!r}; expected one of {sorted(J6_SYSTEMS)}")
    return _check_cells([(which, "J6")])[which, "J6"]
