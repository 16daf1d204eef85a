"""Separation witnesses: one table over the 18 cells of the two bases.

A nine-invariant basis is irreducible when, for each member, some pair of
harmonic tensors agrees on the other eight members and differs on that
one.  Smith-Bao's basis {J2..J10} and the mixed basis (J4 replaced by K6)
give 18 such (basis, member) cells.

* ``CELLS`` maps each cell to the label of the witness pair that covers
  it.  One pair may cover several cells: the degree-4 catalog pair also
  separates K6 in the mixed basis, and the sign, J8 and J10 pairs serve
  both bases.
* ``WITNESSES`` defines each of the eleven pairs once: how to build it
  and the invariant values the paper prints for it.  No row sets a
  tolerance: each pair's gate is read off its two tensors (see
  :func:`check_pair`).
* :func:`check_pair` is the one comparison every cell goes through, with
  agree = basis - {member}.  :func:`verify_witnesses` walks all 18 cells
  in one pass: all float tensors in one float-engine stack, each distinct
  exact tensor once, and each pair's cell-independent checks once.  It
  fails any cell without a passing witness.  :func:`witness_flags` reads
  only each cell's label and verdict off that same pass.
* The tensors of the catalog and sign pairs are module constants, built
  at import; each ``build()`` wraps them in a new :class:`WitnessPair`.
  Only the J8 bisection and the two J6 Newton solves run on each call.
  The two J6 solves run as one batch: each Newton round probes every open
  run on a fixed 7-point stencil around its point, all in one float-engine
  call, and each run takes the steps it takes alone.

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
from .tensor import EXACT, FLOAT, RESTRICTED_INDICES, Harmonic4, _format_scalar, from_independent

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

#: |value| at or below which an invariant of a pair off the restricted slice
#: counts as zero.  On the slice the odd invariants cancel exactly, so 0.
ZERO_TOL = 1e-8


def relative_gap(a, b) -> float:
    """|a-b| / max(|a|,|b|): 0 when both are 0, and NaN when either is NaN."""
    a, b = float(a), float(b)
    diff, denom = abs(a - b), max(abs(a), abs(b))
    return diff / denom if denom else diff


def check_pair(pair: WitnessPair, agree, differ: str) -> tuple:
    """Whether ``pair`` separates ``differ`` while agreeing on ``agree``.

    A value vanishes when its magnitude is at most the pair's vanish bound:
    0 when both tensors have exact zeros at :data:`RESTRICTED_INDICES`, the
    slice where the restriction lemma kills every odd invariant, and
    :data:`ZERO_TOL` otherwise.  The pair passes iff
    * each member of ``agree`` has relative gap <= REL_TOL, or vanishes on
      both sides;
    * every odd invariant other than ``differ`` vanishes on both sides;
    * ``differ`` has relative gap > SEPARATION * REL_TOL and does not
      vanish on both sides;
    * when the pair is (D, -D), every even value is equal and every odd
      value negated, exactly.

    Returns (passed, relative gap of each of the ten invariants).
    """
    gaps, separates = _pair_check(*_table_values([pair.left, pair.right]), *_gate(pair))
    return separates(agree, differ), gaps


def _gate(pair: WitnessPair) -> tuple:
    """The pair's vanish bound and whether it is (D, -D); see :func:`check_pair`."""
    left, right = pair.left.indep, pair.right.indep
    on_slice = not any(left[i] or right[i] for i in RESTRICTED_INDICES)
    return (0.0 if on_slice else ZERO_TOL), all(r == -x for x, r in zip(left, right))


def _pair_check(left, right, vanish: float, flip: bool) -> tuple:
    """A pair's gaps and ``separates(agree, differ)``, its test of one cell.

    Each value is converted to binary64 once; a NaN never vanishes.
    """
    gaps, vanished = {}, set()
    for n in INVARIANT_NAMES:
        a, b = float(left[n]), float(right[n])
        gaps[n] = relative_gap(a, b)
        if abs(a) <= vanish and abs(b) <= vanish:
            vanished.add(n)
    flipped = not flip or all(right[n] == (-left[n] if n in ODD_INVARIANTS else left[n])
                              for n in INVARIANT_NAMES)

    def separates(agree, differ: str) -> bool:
        return (flipped and all(gaps[n] <= REL_TOL or n in vanished for n in agree)
                and all(n in vanished for n in ODD_INVARIANTS if n != differ)
                and gaps[differ] > SEPARATION * REL_TOL and differ not in vanished)

    return gaps, separates


def _reproduces(got, printed, vanish: float) -> bool:
    """A printed value: exactly for exact tensors, a printed 0 to ``vanish``, else to REL_TOL."""
    if isinstance(got, Fraction):
        return got == printed
    if printed == 0:
        return abs(got) <= vanish
    return relative_gap(got, printed) <= REL_TOL


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
    """One witness: how to build its pair and what the paper prints for it.

    ``printed`` holds the invariant values the paper gives for the left and
    the right tensor.  The pair's gate follows from its tensors; see
    :func:`check_pair`.  A solved row names its agreement system in
    ``matched``: :func:`verify_witnesses` solves every such system in one
    Newton batch, while ``build`` solves the row's system alone.
    """

    label: str
    build: Callable[[], WitnessPair]
    printed: tuple = ({}, {})
    matched: tuple = ()


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a root find or agreement-system solve.

    ``residual_history`` holds a Newton solve's residual norm at its start
    and at each accepted iterate; it is left out of :meth:`to_json_dict`.
    """

    solution: dict
    residual_norm: float
    iterations: int
    converged: bool
    message: str = ""
    residual_history: tuple = ()

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
        """JSON form, sharing no dict with the report; gaps are floats, notes JSON scalars."""
        return {
            "label": self.label,
            "passed": self.passed,
            "agree": list(self.agree),
            "differ": self.differ,
            "left": {k: _format_scalar(v) for k, v in self.left_values.items()},
            "right": {k: _format_scalar(v) for k, v in self.right_values.items()},
            "gaps": dict(self.gaps),
            "notes": _copy_notes(self.notes),
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


def _j10_tensors() -> tuple:
    s5 = math.sqrt(5)
    base = [0.0, 0.0, 1 / 9, 0.0, -1 / (9 * s5), 0.0, (-4 / 9 + 28 / s5) / 16, 0.0, s5 / 18]
    other = list(base)
    other[6] = -(4 / 9 + 28 / s5) / 16
    return from_independent(base, backend=FLOAT), from_independent(other, backend=FLOAT)


def _j10_printed() -> tuple:
    s5 = math.sqrt(5)
    shared = {"J2": 10.0, "J3": 0, "J4": 1553 / 45, "J5": 0, "J6": 98 / 135,
              "J7": 0, "J8": 207319 / 40500, "J9": 0}
    return (dict(shared, J10=343 * (512675 + 216 * s5) / 4860000),
            dict(shared, J10=343 * (512675 - 216 * s5) / 4860000))


def _fixed(label: str, left: Harmonic4, right: Harmonic4, printed: tuple) -> Witness:
    """A row of two constant tensors; each build is a new WitnessPair of them."""
    return Witness(label, lambda: WitnessPair(left, right), printed)


def _sign_witness(label: str, d: Harmonic4, printed: dict) -> Witness:
    """The constant row (D, -D); -D's printed odd values are D's negated."""
    return _fixed(label, d, -d, (printed, {n: -v for n, v in printed.items()}))


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
    if flo == 0 or fhi == 0:
        return SolveResult(solution={"root": lo if flo == 0 else hi}, residual_norm=0.0,
                           iterations=0, converged=True)
    # Signs, not products: a product of two tiny values underflows to 0.
    if (flo < 0) == (fhi < 0):
        raise ValueError(f"no sign change on bracket [{lo}, {hi}]")
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
        if (fm < 0) != (flo < 0):
            hi = mid
        else:
            lo, flo = mid, fm
    root = 0.5 * (lo + hi)
    return SolveResult(
        solution={"root": root},
        residual_norm=abs(value(root)),
        iterations=iterations,
        converged=True,
    )


def mirror_pair(d1123: float, delta: float, d2223: float) -> WitnessPair:
    """The float pair in the odd-killing restriction mirrored about D1223 = -1/4.

    Both tensors have D1113 = 1, the given D1123 and D2223, and zeros in the
    five restricted slots D1111, D1112, D1122, D1222, D2222, which kill the
    four odd invariants identically.  D1223 is -1/4 + delta on the left and
    -1/4 - delta on the right, so J2 agrees for free.  The J8 pair and both
    J6 pairs are points of this family.
    """
    delta = float(delta)
    return _mirror_tensors(d1123, -0.25 + delta, -0.25 - delta, d2223)


def _mirror_tensors(d1123, d1223, d1223_hat, d2223) -> WitnessPair:
    """The mirror pair with D1223 = ``d1223`` on the left and ``d1223_hat`` on the right."""
    b, d = float(d1123), float(d2223)
    return WitnessPair(Harmonic4((0.0, 0.0, 1.0, 0.0, b, 0.0, float(d1223), 0.0, d)),
                       Harmonic4((0.0, 0.0, 1.0, 0.0, b, 0.0, float(d1223_hat), 0.0, d)))


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

#: Central-difference step of the Newton Jacobian, and each probe's points
#: relative to its x: x itself, then x + step and x - step along each axis.
_FD_STEP = 1e-7
_STENCIL = np.concatenate((np.zeros((1, 3)), _FD_STEP * np.eye(3), -_FD_STEP * np.eye(3)))

#: Column of each invariant in the float engine's output.
_COLUMN = {name: k for k, name in enumerate(INVARIANT_NAMES)}


def _system_residuals(points, matched) -> np.ndarray:
    """Normalized residuals of the mirror pairs at (P, 3) points, as (P, len(matched)).

    The 2P tensors of :func:`mirror_pair` go through the float engine in one call.
    """
    b, delta, d = np.asarray(points, dtype=float).T
    comps = np.zeros((2, len(b), 9))
    comps[:, :, 2] = 1.0
    comps[:, :, 4] = b
    comps[0, :, 6] = -0.25 + delta
    comps[1, :, 6] = -0.25 - delta
    comps[:, :, 8] = d
    values = invariants_float(comps.reshape(-1, 9)).reshape(2, len(b), -1)
    left, right = values.take([_COLUMN[name] for name in matched], axis=2)
    return (left - right) / np.maximum(1.0, np.maximum(np.abs(left), np.abs(right)))


def solve_agreement_system(matched) -> SolveResult:
    """Damped Newton on the three live residuals; the norm covers all of ``matched``.

    Residuals are normalized per equation by max(1, |J_k|) so the
    convergence tolerance :data:`SOLVE_TOL` is meaningful across degrees
    2..10.  The printed solution digits seed the two known systems; a
    coarse grid search seeds any other, and its seeds are tried one after
    another until one converges.  This is the batch of one of
    :func:`_solve_systems`, which gives each system the same result it
    reaches alone.  Non-convergence (including collapse onto the trivial
    delta=0 manifold) is reported in the result, never raised.  A name given
    twice counts once.  ``ValueError`` is raised on unknown names and
    unless exactly three names are live (not J2, not odd).
    """
    return _solve_systems([matched])[0]


def _system(matched) -> tuple:
    """``matched`` without repeats, its live positions and its Newton seeds.

    Raises ``ValueError`` as :func:`solve_agreement_system` says.
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
    return matched, live, [guess] if guess else _grid_seeds(matched)


def _solve_systems(systems) -> list:
    """The :class:`SolveResult` of each agreement system, their Newton runs batched.

    Each system tries its seeds in order until one converges; the k-th
    seeds of the systems not yet solved run as one batch of :func:`_newton`.
    """
    plans = [_system(matched) for matched in systems]
    results = [None] * len(plans)
    for k in range(max((len(seeds) for _, _, seeds in plans), default=0)):
        todo = [i for i, (_, _, seeds) in enumerate(plans)
                if k < len(seeds) and not (results[i] and results[i].converged)]
        runs = [(seeds[k], matched, live) for matched, live, seeds in map(plans.__getitem__, todo)]
        for i, result in zip(todo, _newton(runs)):
            results[i] = result
    return results


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


def _newton(runs) -> list:
    """Damped Newton on each (start, matched, live) run; one float-engine call per round.

    Each round stacks the 7-point stencils of every open run into one
    :func:`_system_residuals` call over the union of the matched names, and
    sends each run its own rows.  A run leaves the batch when it converges
    or fails.  The engine's rows do not depend on the stack, so every run
    takes the steps, halvings and stopping rule it takes alone.
    """
    names = tuple(dict.fromkeys(name for _, matched, _ in runs for name in matched))
    steps = []
    for start, matched, live in runs:
        cols = np.array([names.index(name) for name in matched], dtype=np.intp)
        steps.append(_damped_newton(list(start), cols, cols[live]))
    points = [next(step) for step in steps]
    results, open_runs = [None] * len(runs), range(len(runs))
    while open_runs:
        stencils = np.array([points[i] for i in open_runs])[:, None] + _STENCIL
        rows = _system_residuals(stencils.reshape(-1, 3), names).reshape(len(open_runs), 7, -1)
        still_open = []
        for i, block in zip(open_runs, rows):
            try:
                points[i] = steps[i].send(block)
                still_open.append(i)
            except StopIteration as done:
                results[i] = done.value
        open_runs = still_open
    return results


def _damped_newton(x, cols, live):
    """One run of :func:`_newton`: the norm covers ``cols``, the step the ``live`` columns.

    It yields each point to probe and is sent the residuals of the point's
    7-point stencil, one row per stencil point and one column per name of
    the batch; it returns the run's :class:`SolveResult`.
    """
    def probe(rows):  # sqrt(r . r) is np.linalg.norm's own formula, bit for bit
        centre = rows[0].take(cols)
        return math.sqrt(centre.dot(centre)), rows.T.take(live, 0).tolist()

    r_norm, r_live = probe((yield x))
    history = [r_norm]
    iterations, message = 0, ""
    while r_norm > SOLVE_TOL and iterations < MAX_ITER:
        step = _cramer([[(row[1 + j] - row[4 + j]) / (2 * _FD_STEP) for j in range(3)]
                        for row in r_live], [-row[0] for row in r_live])
        if not all(map(math.isfinite, step)):
            message = "singular Jacobian"
            break
        iterations += 1
        for _ in range(30):
            candidate = [a + s for a, s in zip(x, step)]
            new_norm, new_live = probe((yield candidate))
            if new_norm < r_norm:
                x, r_norm, r_live = candidate, new_norm, new_live
                history.append(r_norm)
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
    return SolveResult(solution, r_norm, iterations, converged, message, tuple(history))


def pair_from_solution(result: SolveResult) -> WitnessPair:
    """Realize a solved agreement system as its mirror pair, from the values it reports."""
    sol = result.solution
    pair = _mirror_tensors(sol["D1123"], sol["D1223"], sol["D1223_hat"], sol["D2223"])
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
    _fixed("j2-separation", _D1, _D2, (_D1_PRINTED, _D2_PRINTED)),
    _fixed("j4-separation", _D1, _D3, (_D1_PRINTED, _D3_PRINTED)),
    _fixed("mixed-j2-separation", _M1, _M2, (_M1_PRINTED, _M2_PRINTED)),
    _fixed("j10-separation", *_j10_tensors(), _j10_printed()),
    _sign_witness("j3-sign-pair", from_independent((8, 0, 0, -4, 0, 5, 5, 3, 0), backend=EXACT),
                  {"J3": -6480, "J5": 0, "J7": 0, "J9": 0}),
    _sign_witness("j5-sign-pair", _j5_witness(), {"J3": 0, "J5": 12.5, "J7": 0, "J9": 0}),
    _sign_witness("j7-sign-pair", _j7_witness(),
                  {"J3": 0, "J5": 0,
                   "J7": (6384263 - 55933 * math.sqrt(13033)) / 884736, "J9": 0}),
    _sign_witness("j9-sign-pair",
                  from_independent((0, 1, 0, 0, 0, Fraction(-3, 4), Fraction(1, 4), 1, 0),
                                   backend=EXACT),
                  {"J3": 0, "J5": 0, "J7": 0, "J9": Fraction(45, 8)}),
    Witness("j8-separation", _j8_pair),
    *(Witness(f"{which}-j6-separation",
              lambda matched=matched: pair_from_solution(solve_agreement_system(matched)),
              matched=matched)
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


def _cell_pass(cells):
    """The one check of ``cells``: yield each cell, its label, agree, passed and pair entry.

    One pass over the table (see the module docstring): the agreement
    systems of the solved rows are solved in one batch, every other pair is
    built, and each pair is evaluated, gated and checked against its printed
    values once.  The pair entry is (pair, left values, right values, gaps),
    or None for a cell with no witness, which fails.
    """
    labels = dict.fromkeys(CELLS.get(cell) for cell in cells)
    rows = [WITNESSES[label] for label in labels if label in WITNESSES]
    systems = [row.matched for row in rows if row.matched]
    solved = dict(zip(systems, _solve_systems(systems)))
    pairs = {row.label: pair_from_solution(solved[row.matched]) if row.matched else row.build()
             for row in rows}
    values = iter(_table_values([t for p in pairs.values() for t in (p.left, p.right)]))
    checked = {}
    for label, pair in pairs.items():
        witness, lv, rv = WITNESSES[label], next(values), next(values)
        vanish, flip = _gate(pair)
        pair_ok = pair.solved and all(
            _reproduces(got[n], want, vanish)
            for got, printed in zip((lv, rv), witness.printed) for n, want in printed.items())
        gaps, separates = _pair_check(lv, rv, vanish, flip)
        checked[label] = (pair_ok, separates, (pair, lv, rv, gaps))
    for basis, member in cells:
        agree = tuple(n for n in BASES[basis] if n != member)
        label = CELLS.get((basis, member))
        pair_ok, separates, entry = checked.get(label, (False, None, None))
        yield (basis, member), label, agree, pair_ok and separates(agree, member), entry


def _check_cells(cells) -> dict:
    """A :class:`WitnessReport` on each cell, from :func:`_cell_pass`."""
    reports = {}
    for cell, label, agree, passed, entry in _cell_pass(cells):
        pair, lv, rv, gaps = entry or (None, {}, {}, {})
        notes = _copy_notes(pair.notes) if pair else {"error": "no witness for this cell"}
        reports[cell] = WitnessReport(label, dict(lv), dict(rv), dict(gaps), agree, cell[1],
                                      passed, notes)
    return reports


def witness_flags() -> dict:
    """(label, passed) of every cell of both bases, keyed by (basis, member).

    The same pass as :func:`verify_witnesses`, without building its reports.
    """
    return {cell: (label, passed) for cell, label, _, passed, _ in _cell_pass(all_cells())}


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
