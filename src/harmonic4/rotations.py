"""Orthogonal group action on harmonic tensors and isotropy verification.

The defining property of the ten invariants is insensitivity to the
simultaneous orthogonal transformation of all four indices,

    D'_abcd = Q_ai Q_bj Q_ck Q_dl D_ijkl,

for every orthogonal Q -- reflections included, so sampling covers all of
O(3), not just the rotation subgroup.  :func:`isotropy_check` hammers a
tensor with Haar-random orthogonal matrices and reports the worst
relative drift of each invariant.

One formula serves every ring: on the pair view of ``invariants``, Q acts
as K D K^T with K_(ab),(kl) = Q_ak Q_bl + [k < l] Q_al Q_bk (Mehrabadi &
Cowin, Q. J. Mech. Appl. Math. 1990).  Float tensors take it batched
(:func:`rotate_float`), and :func:`haar_matrices` draws one Haar matrix
per trial seed.  :func:`isotropy_suite` samples, rotates and evaluates
all its tensors x trials in shared blocks of at most
:data:`ISOTROPY_BLOCK` rows through that engine; :func:`isotropy_check`
is the one-tensor case of the same loop, and :func:`rotate` and
:func:`random_rotation` are the N = 1 case.

Every seeded draw comes from one vectorised seed stream,
:func:`tensor._seed_stream`: SplitMix64 in uint64 array arithmetic over
all seeds at once.  The master seed's words are the tensor seeds, each
tensor seed's words are its trial seeds, and each trial seed's words 0-3
are its Haar matrix (:func:`haar_matrices`), with no bit generator.
Seeds are integers in [0, 2**64).

The tensor decides the arithmetic (:attr:`Harmonic4.backend`) and the
matrix follows it.  A float tensor casts Q to float and needs Q^T Q = I
to :data:`ORTHO_TOL` per entry.  Exact and symbolic tensors need a
rational Q with Q^T Q = I exactly, and take the same K D K^T on lists
(:func:`_contract`), forming only the four rows of K D that are read.  It
runs with the matrix's denominators cleared, Q = M / den, and an exact
tensor's too, D = D' / q; the nine components are divided by q * den^4
once at the end.  The orthogonality check runs on the cleared matrix as
well: M^T M = den^2 I in Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import tensor as tc
from .invariants import (_PAIRS, _W, INVARIANT_DEGREES, INVARIANT_NAMES, _pair_view, invariants,
                         invariants_float, pair_view_float)
from .tensor import EXACT, FLOAT, Harmonic4, clear_denominators

#: Entrywise tolerance on Q^T Q - I for float matrices.
ORTHO_TOL = 1e-12

#: Rows (tensor, trial) evaluated together by the isotropy loop; bounds its
#: float stacks and trial seeds to a few megabytes whatever the number of
#: tensors and trials.
ISOTROPY_BLOCK = 1024


@dataclass(frozen=True)
class Orthogonal3:
    """A 3x3 orthogonal matrix, row-major.  det may be +1 or -1.

    ``rows`` is any 3x3 nested sequence (a numpy array included) and is
    stored as a tuple of row tuples, numpy scalars turned into Python
    scalars.  Whether Q^T Q = I exactly or to :data:`ORTHO_TOL` depends on
    the tensor it acts on (:func:`rotate`).
    """

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(map(tc._python_scalar, row)) for row in self.rows)
        if len(rows) != 3 or any(len(row) != 3 for row in rows):
            raise ValueError("expected a 3x3 matrix")
        object.__setattr__(self, "rows", rows)

    def __matmul__(self, other: "Orthogonal3") -> "Orthogonal3":
        cols = tuple(zip(*other.rows))
        return Orthogonal3(tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                                 for row in self.rows))

    def orthogonality_defect(self):
        """max |(Q^T Q - I)_ij| over all entries; NaN if any of them is NaN."""
        return _gram_defect(self.rows, 1)

    def to_array(self) -> np.ndarray:
        return np.array(self.rows, dtype=float)


def reflection(axis: int = 3) -> Orthogonal3:
    """Diagonal reflection flipping one coordinate axis."""
    return signed_permutation((1, 2, 3), tuple(-1 if j == axis else 1 for j in (1, 2, 3)))


def signed_permutation(perm, signs=(1, 1, 1)) -> Orthogonal3:
    """Exact orthogonal matrix sending axis j to sign*axis perm[j].

    ``perm`` is a permutation of (1, 2, 3); these are the orthogonal
    matrices with rational (in fact 0/+-1) entries, usable on the exact
    backend.
    """
    if sorted(perm) != [1, 2, 3]:
        raise ValueError(f"{perm!r} is not a permutation of (1, 2, 3)")
    rows = [[0] * 3 for _ in range(3)]
    for j, (p, s) in enumerate(zip(perm, signs)):
        rows[p - 1][j] = s
    return Orthogonal3(rows)


def _gram_defect(rows, unit):
    """max |(M^T M - unit * I)_ij| over all entries; NaN if any of them is NaN."""
    gaps = [abs(sum(rows[k][i] * rows[k][j] for k in range(3)) - (unit if i == j else 0))
            for i in range(3) for j in range(3)]
    return next((g for g in gaps if g != g), max(gaps))


def _require_orthogonal(m, tol, den=1):
    """Raise ``ValueError`` unless Q = m / den has |Q^T Q - I| <= ``tol`` entrywise; NaN fails."""
    unit = den * den
    defect = _gram_defect(m, unit)
    if not defect <= tol * unit:
        raise ValueError(f"matrix is not orthogonal: defect {defect / unit:.3e} > {tol}")


#: Places in Q, with a zero appended at 9, of the factors Q_ak, Q_bl, Q_al, Q_bk
#: of each K_(ab),(kl); the last two read the zero when k = l.  ``_K_ROWS``
#: holds the same places as lists, [row][column] -> (ak, bl, al, bk).
_K_FACTORS = np.array([[[3 * (a, b)[r] + (k, l)[c] - 4 if r == c or k < l else 9
                         for k, l in _PAIRS] for a, b in _PAIRS]
                       for r, c in ((0, 0), (1, 1), (0, 1), (1, 0))])
_K_ROWS = _K_FACTORS.transpose(1, 2, 0).tolist()
#: (row, column) in the pair view of each independent slot, then of each dependent
#: one, read transposed: ij33 at (33, ij).  So only the rows 11, 12, 22 and 33 are read.
_SLOT_PLACES = (tuple((_PAIRS.index(s[:2]), _PAIRS.index(s[2:])) for s in tc.INDEPENDENT_SLOTS)
                + tuple((_PAIRS.index(s[2:]), _PAIRS.index(s[:2])) for s in tc.DEPENDENT_SLOTS))
_READ_ROWS = sorted({row for row, _ in _SLOT_PLACES})
#: The same places, flat in a 36-entry pair view.
_INDEPENDENT_PAIRS, _DEPENDENT_PAIRS = (np.array([6 * row + col for row, col in places])
                                        for places in (_SLOT_PLACES[:9], _SLOT_PLACES[9:]))


def rotate(d: Harmonic4, q: Orthogonal3) -> Harmonic4:
    """Transform all four indices of ``d`` by the orthogonal matrix ``q``, as K D K^T.

    In debug builds the dependent slots of the transform are checked against
    the trace completion of the nine read back.  A float tensor takes the
    float engine with ``q`` cast to float.  Exact and symbolic tensors need
    a matrix of ints and Fractions that is exactly orthogonal; anything else
    raises ``ValueError``.
    """
    backend = d.backend
    if backend == FLOAT:
        m = q.to_array()
        _require_orthogonal(m.tolist(), ORTHO_TOL)
        rotated = rotate_float([d.indep], m[None])
        return Harmonic4(tuple(rotated[0].tolist()))
    if not all(isinstance(v, (int, Fraction)) for row in q.rows for v in row):
        raise ValueError(f"a {backend} tensor needs a matrix of ints and Fractions")
    m, den = clear_denominators(v for row in q.rows for v in row)
    m = (m[0:3], m[3:6], m[6:9])
    _require_orthogonal(m, 0, den)
    indep, scale = clear_denominators(d.indep) if backend == EXACT else (d.indep, 1)
    out = _contract(indep, m)
    divisor = scale * den**4
    if backend == EXACT:
        return Harmonic4(tuple(Fraction(v, divisor) for v in out))
    return Harmonic4(tuple(v * Fraction(1, divisor) for v in out))


def _contract(indep, m) -> tuple:
    """The nine components of M_ai M_bj M_ck M_dl D_ijkl as K D K^T, over any ring.

    Only the rows of K D that :data:`_SLOT_PLACES` reads are formed; the
    pair view D is symmetric, so its rows serve as its columns.  In debug
    builds the six dependent slots must equal their trace completion.
    """
    flat = [v for row in m for v in row] + [0]
    k = [tuple(flat[ak] * flat[bl] + flat[al] * flat[bk] for ak, bl, al, bk in row)
         for row in _K_ROWS]
    d = _pair_view(indep)
    kd = {}
    for p in _READ_ROWS:
        a, b, c, e, f, g = k[p]
        kd[p] = [a * x + b * y + c * z + e * u + f * v + g * w for x, y, z, u, v, w in d]

    def entry(row, col):
        a, b, c, e, f, g = kd[row]
        x, y, z, u, v, w = k[col]
        return a * x + b * y + c * z + e * u + f * v + g * w

    out = tuple(entry(row, col) for row, col in _SLOT_PLACES[:9])
    if __debug__:
        completed = tc._dependents(*out)
        for slot, (row, col), value in zip(tc.DEPENDENT_SLOTS, _SLOT_PLACES[9:], completed):
            assert entry(row, col) == value, f"rotated tensor lost tracelessness at {slot}"
    return out


def rotate_float(components, matrices) -> np.ndarray:
    """Rotate a stack of float tensors: (N, 9) components by (N, 3, 3) matrices.

    A single tensor, shape (1, 9), is rotated by every matrix of the
    stack.  Returns the (N, 9) components of K D K^T on the pair view,
    read back from the independent slots; in debug builds the dependent
    slots of the transform are checked against their trace completion.
    """
    padded = np.zeros((len(matrices), 10))
    padded[:, :9] = np.reshape(matrices, (-1, 9))
    f = np.take(padded, _K_FACTORS, axis=1)
    k = f[:, 0] * f[:, 1]
    k += f[:, 2] * f[:, 3]
    rotated = (k @ pair_view_float(components) @ k.transpose(0, 2, 1)).reshape(-1, 36)
    out = np.take(rotated, _INDEPENDENT_PAIRS, axis=1)
    if __debug__:
        _assert_traceless(rotated, out)
    return out


def _assert_traceless(rotated, indep):
    """Check the dependent slots of (N, 36) pair views against the completion of ``indep``.

    The bound is 1e-10 * max(1, largest |entry|) per tensor, so only a
    broken contraction trips it, never rounding.
    """
    completed = np.array(tc._dependents(*indep.T))
    scale = 1e-10 * np.maximum(1.0, np.abs(rotated).max(axis=1))
    bad = np.abs(rotated[:, _DEPENDENT_PAIRS].T - completed) > scale
    if bad.any():
        row, col = np.argwhere(bad.T)[0]
        raise AssertionError(f"rotated tensor {row} lost tracelessness at "
                             f"{tc.DEPENDENT_SLOTS[col]}")


def random_rotation(seed: int) -> Orthogonal3:
    """Haar-distributed orthogonal matrix, deterministic per seed: :func:`haar_matrices`' N = 1 case."""
    return Orthogonal3(haar_matrices([seed])[0].tolist())


def haar_matrices(seeds) -> np.ndarray:
    """(N, 3, 3) stack of Haar-distributed orthogonal matrices, one per seed.

    The seed's stream words 0-2 give uniforms u1, u2, u3, and
    Shoemake's formula turns them into a uniform unit quaternion,
    sqrt(1 - u1) (sin, cos)(2 pi u2) and sqrt(u1) (sin, cos)(2 pi u3): a
    Haar rotation in SO(3).  The top bit of word 3 is a fair coin flip
    composing it with diag(1, 1, -1), which extends the distribution to
    O(3).  It runs on columns, and each matrix is a fixed function of its
    seed's words, whatever stack it is drawn in.
    """
    words = tc._seed_stream(seeds, 0, 4)
    u = tc._uniforms(words[:, :3]).T
    radii = np.sqrt((1.0 - u[0], u[0]))
    angles = 2 * np.pi * u[1:]
    sin, cos = radii * np.sin(angles), radii * np.cos(angles)
    w, x, y, z = sin[0], cos[0], sin[1], cos[1]
    out = np.empty((3, 3, len(words)))
    out[...] = (
        (1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)),
        (2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)),
        (2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)),
    )
    flips = (words[:, 3] >> 63).astype(bool)
    out[:, 2, flips] = -out[:, 2, flips]
    return np.ascontiguousarray(out.transpose(2, 0, 1))


_DEGREES = np.array([INVARIANT_DEGREES[name] for name in INVARIANT_NAMES])

#: The paper's isotropy gates: the largest relative drift each invariant may
#: show, 1e-8 up to degree 6 and 1e-7 above.
ISOTROPY_GATES = {name: 1e-8 if INVARIANT_DEGREES[name] <= 6 else 1e-7
                  for name in INVARIANT_NAMES}
_GATES = np.array([ISOTROPY_GATES[name] for name in INVARIANT_NAMES])


@dataclass(frozen=True)
class IsotropyReport:
    """Worst-case relative invariant drift over a batch of random rotations.

    ``worst_seed`` is the first trial seed with the largest deviation; the
    invariants of ``rotate(d, random_rotation(worst_seed))`` reproduce that
    deviation bit for bit.
    """

    trials: int
    deviations: dict
    worst_seed: int
    passed: bool


def trial_seeds(seed: int, trials: int) -> list:
    """Per-trial integer seeds derived from one master seed in [0, 2**64).

    Deterministic and independent of execution order, so trial results do
    not depend on scheduling: the seed's SplitMix64 stream words.
    """
    return tc._seed_stream([seed], 0, trials)[0].tolist()


def isotropy_suite(num_tensors: int = 20, trials: int = 1000, seed: int = 42) -> tuple:
    """:func:`isotropy_check` on seeded random unit-norm tensors, in one pass.

    Tensor n is ``random_harmonic(s_n)`` over its Frobenius norm, checked
    with seed s_n, where s_n = ``trial_seeds(seed, num_tensors)[n]``; every
    (tensor, trial) row runs through the loop of :func:`isotropy_check` in
    shared blocks.  Returns (passed, reports); it passes iff every report
    passes, and needs at least one tensor and one trial.
    """
    if num_tensors < 1:
        raise ValueError("need at least one tensor")
    tensor_seeds = tc._seed_stream([seed], 0, num_tensors)[0]
    components = tc._random_components(tensor_seeds)
    d = pair_view_float(components)
    units = components / np.sqrt((d * d * _W * _W[:, None]).sum(axis=(1, 2)))[:, None]
    base = invariants_float(units)
    reports = _isotropy_reports(units, base, tensor_seeds, trials)
    return all(r.passed for r in reports), reports


def isotropy_check(d: Harmonic4, trials: int, seed: int) -> IsotropyReport:
    """Compare invariants(rotate(d, Q)) against invariants(d) over random Q.

    The Q are ``haar_matrices(trial_seeds(seed, trials))``, and ``seed`` is
    an integer in [0, 2**64).  The relative deviation of invariant f of
    degree k is |f(QD) - f(D)| / max(|f(D)|, ||D||_F^k): identically-zero
    invariants are measured against the tensor's natural degree-k scale.
    The report passes iff no deviation exceeds its ``ISOTROPY_GATES``
    entry.  Failure is data in the report, never an exception.
    ``rotate(d, random_rotation(report.worst_seed))`` replays the largest
    deviation bit for bit.
    """
    vec = invariants(d)
    base = np.array([[float(vec[name]) for name in INVARIANT_NAMES]])
    seeds = tc._seed_array([seed])
    return _isotropy_reports(np.array([d.indep], dtype=float), base, seeds, trials)[0]


def _isotropy_reports(components, base, seeds, trials: int) -> list:
    """The isotropy loop: one report per tensor, all (tensor, trial) rows in blocks.

    ``components`` (M, 9) are the tensors, ``base`` (M, 10) their
    invariants and ``seeds`` (M,) their uint64 seeds.  A block is a
    rectangle of whole tensors by a run of trials, at most
    :data:`ISOTROPY_BLOCK` rows, so neither the trial seeds nor the
    deviations ever exist for all rows at once.  Each tensor keeps its
    running worst deviations and the first trial with the largest one.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    # ||D||_F as the Python pow J2 ** 0.5, which may differ from np.sqrt in the last bit.
    norms = np.array([float(j2) ** 0.5 if j2 > 0 else 0.0 for j2 in base[:, 0]])
    scales = np.maximum(np.abs(base), norms[:, None] ** _DEGREES)
    worst = np.zeros(base.shape)
    worst_dev = np.full(len(seeds), -1.0)
    worst_seed = np.zeros(len(seeds), dtype=np.uint64)
    tensors_per_block = max(1, ISOTROPY_BLOCK // trials)
    trials_per_block = min(trials, ISOTROPY_BLOCK)
    for first in range(0, len(seeds), tensors_per_block):
        rows = slice(first, first + tensors_per_block)
        for start in range(0, trials, trials_per_block):
            words = tc._seed_stream(seeds[rows], start, min(start + trials_per_block, trials))
            count, width = words.shape
            rotated = rotate_float(np.repeat(components[rows], width, axis=0),
                                   haar_matrices(words.ravel()))
            got = invariants_float(rotated).reshape(count, width, -1)
            delta = np.abs(got - base[rows, None])
            with np.errstate(divide="ignore", invalid="ignore"):
                dev = np.where(delta == 0.0, 0.0, delta / scales[rows, None])
            worst[rows] = np.maximum(worst[rows], dev.max(axis=1))
            per_trial = dev.max(axis=2)
            at = per_trial.argmax(axis=1)
            top = per_trial[np.arange(count), at]
            better = top > worst_dev[rows]
            worst_dev[rows] = np.where(better, top, worst_dev[rows])
            worst_seed[rows] = np.where(better, words[np.arange(count), at], worst_seed[rows])
    passed = (worst <= _GATES).all(axis=1).tolist()
    return [IsotropyReport(trials=trials, deviations=dict(zip(INVARIANT_NAMES, deviations)),
                           worst_seed=seed, passed=ok)
            for deviations, seed, ok in zip(worst.tolist(), worst_seed.tolist(), passed)]
