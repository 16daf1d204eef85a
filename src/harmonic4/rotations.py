"""Orthogonal group action on harmonic tensors and isotropy verification.

The defining property of the ten invariants is insensitivity to the
simultaneous orthogonal transformation of all four indices,

    D'_abcd = Q_ai Q_bj Q_ck Q_dl D_ijkl,

for every orthogonal Q -- reflections included, so sampling covers all of
O(3), not just the rotation subgroup.  :func:`isotropy_check` hammers a
tensor with Haar-random orthogonal matrices and reports the worst
relative drift of each invariant.

Float tensors are rotated by the batched float engine: with D the 9x9
matrix view D_(ij),(kl), a stack of matrices acts as (Q x Q) D (Q x Q)^T
(:func:`rotate_float`), and :func:`haar_matrices` draws one Haar matrix
per trial seed.  :func:`isotropy_check` samples, rotates and evaluates
its trials in blocks of :data:`ISOTROPY_BLOCK` through that engine;
:func:`rotate` and :func:`random_rotation` are the N = 1 case.

The tensor decides the arithmetic (:attr:`Harmonic4.backend`) and the
matrix follows it.  A float tensor casts Q to float and needs Q^T Q = I
to :data:`ORTHO_TOL` per entry.  Exact and symbolic tensors need a
rational Q with Q^T Q = I exactly, and take one ring-generic contraction:
four mode products u[a, ...] = sum_l M_al t[..., l] over the 81 row-major
entries, 972 products in all.  It runs with the matrix's denominators
cleared, Q = M / den, and an exact tensor's too, D = D' / q; the nine
components are divided by q * den^4 once at the end.  The orthogonality
check runs on the cleared matrix as well: M^T M = den^2 I in Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import tensor as tc
from .invariants import INVARIANT_DEGREES, INVARIANT_NAMES, invariants, invariants_float
from .tensor import (EXACT, FLOAT, Harmonic4, clear_denominators, expand_float,
                     independent_float)

#: Entrywise tolerance on Q^T Q - I for float matrices.
ORTHO_TOL = 1e-12

#: Trials evaluated together by :func:`isotropy_check`; bounds its float
#: stacks to a few megabytes whatever the number of trials.  The trial
#: seeds stay one uint64 array, 8 bytes per trial.
ISOTROPY_BLOCK = 1024


@dataclass(frozen=True)
class Orthogonal3:
    """A 3x3 orthogonal matrix, row-major.  det may be +1 or -1.

    ``rows`` is any 3x3 nested sequence (a numpy array included) and is
    stored as a tuple of row tuples.  Whether Q^T Q = I exactly or to
    :data:`ORTHO_TOL` depends on the tensor it acts on (:func:`rotate`).
    """

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.rows)
        if len(rows) != 3 or any(len(row) != 3 for row in rows):
            raise ValueError("expected a 3x3 matrix")
        object.__setattr__(self, "rows", rows)

    def entry(self, i: int, j: int):
        return self.rows[i - 1][j - 1]

    def __matmul__(self, other: "Orthogonal3") -> "Orthogonal3":
        return Orthogonal3(tuple(
            tuple(sum(self.rows[i][k] * other.rows[k][j] for k in range(3))
                  for j in range(3))
            for i in range(3)
        ))

    def transpose(self) -> "Orthogonal3":
        return Orthogonal3(tuple(tuple(self.rows[j][i] for j in range(3))
                                 for i in range(3)))

    def orthogonality_defect(self):
        """max |(Q^T Q - I)_ij| over all entries; NaN if any of them is NaN."""
        return _gram_defect(self.rows, 1)

    def to_array(self) -> np.ndarray:
        return np.array(self.rows, dtype=float)

    @classmethod
    def identity(cls) -> "Orthogonal3":
        return cls(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


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


#: Row of the 15 slots (independent, then dependent) behind each of the 81 entries.
_ENTRY_ROWS = tuple(tc._ENTRY_ROWS.tolist())
_INDEPENDENT_FLAT = tuple(tc.INDEPENDENT_FLAT.tolist())
_DEPENDENT_FLAT = tuple(tc.DEPENDENT_FLAT.tolist())


def rotate(d: Harmonic4, q: Orthogonal3) -> Harmonic4:
    """Transform all four indices of ``d`` by the orthogonal matrix ``q``.

    The full tensor is transformed, the 9 independent slots are read back,
    and (in debug builds) the dependent slots of the transform are checked
    against their trace-completion values -- a free consistency check on
    the contraction.  A float tensor takes the float engine with ``q``
    cast to float.  Exact and symbolic tensors need a matrix of ints and
    Fractions that is exactly orthogonal; anything else raises
    ``ValueError``.
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
    """The nine components of M_ai M_bj M_ck M_dl D_ijkl, over any ring.

    Four mode products, each u[a, i, j, k] = sum_l M_al t[i, j, k, l] on
    81 row-major entries.  Each puts the new index in front, so the last
    leaves D' with its indices reversed, which full symmetry makes D'
    itself.  In debug builds the six dependent slots must equal their
    trace completion exactly.
    """
    slots = tuple(indep) + tc._dependents(*indep)
    t = [slots[r] for r in _ENTRY_ROWS]
    for _ in range(4):
        t = [a * t[n] + b * t[n + 1] + c * t[n + 2] for a, b, c in m for n in range(0, 81, 3)]
    out = tuple(t[n] for n in _INDEPENDENT_FLAT)
    if __debug__:
        completed = tc._dependents(*out)
        for slot, n, value in zip(tc.DEPENDENT_SLOTS, _DEPENDENT_FLAT, completed):
            assert t[n] == value, f"rotated tensor lost tracelessness at {slot}"
    return out


def rotate_float(components, matrices) -> np.ndarray:
    """Rotate a stack of float tensors: (N, 9) components by (N, 3, 3) matrices.

    A single tensor, shape (1, 9), is rotated by every matrix of the
    stack.  Returns the (N, 9) components of (Q x Q) D (Q x Q)^T, read
    back from the independent slots; in debug builds the dependent slots
    of the transform are checked against their trace completion.
    """
    q = np.asarray(matrices, dtype=float)
    n = q.shape[0]
    kron = (q[:, :, None, :, None] * q[:, None, :, None, :]).reshape(n, 9, 9)
    d = expand_float(components).reshape(-1, 9, 9)
    entries = (kron @ d @ kron.transpose(0, 2, 1)).reshape(n, 81)
    if __debug__:
        _assert_traceless(entries)
    return independent_float(entries)


def _assert_traceless(entries):
    """Check each dependent slot of (N, 81) entries against its completion.

    The bound is 1e-10 * max(1, largest |entry|) per tensor, so only a
    broken contraction trips it, never rounding.
    """
    completed = expand_float(independent_float(entries))[:, tc.DEPENDENT_FLAT]
    scale = np.maximum(1.0, np.abs(entries).max(axis=1))
    bad = np.abs(entries[:, tc.DEPENDENT_FLAT] - completed) > 1e-10 * scale[:, None]
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise AssertionError(f"rotated tensor {row} lost tracelessness at "
                             f"{tc.DEPENDENT_SLOTS[col]}")


def random_rotation(seed: int) -> Orthogonal3:
    """Haar-distributed orthogonal matrix, deterministic per seed: :func:`haar_matrices`' N = 1 case."""
    return Orthogonal3(haar_matrices([seed])[0].tolist())


def haar_matrices(seeds) -> np.ndarray:
    """(N, 3, 3) stack of Haar-distributed orthogonal matrices, one per seed.

    Each seed draws a uniform unit quaternion, a Haar rotation in SO(3),
    and a fair coin flip composing it with diag(1, 1, -1), which extends
    the distribution to O(3).  The quaternion formula runs on columns.
    """
    quats, flips = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        quat = rng.standard_normal(4)
        quats.append(quat / np.linalg.norm(quat))
        flips.append(rng.random() < 0.5)
    w, x, y, z = np.array(quats).reshape(-1, 4).T
    out = np.empty((3, 3, len(flips)))
    out[...] = (
        (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
    )
    flips = np.array(flips, dtype=bool)
    out[:, 2, flips] = -out[:, 2, flips]
    return np.ascontiguousarray(out.transpose(2, 0, 1))


#: The paper's isotropy gates: the largest relative drift each invariant may
#: show, 1e-8 up to degree 6 and 1e-7 above.
ISOTROPY_GATES = {name: 1e-8 if INVARIANT_DEGREES[name] <= 6 else 1e-7
                  for name in INVARIANT_NAMES}


@dataclass(frozen=True)
class IsotropyReport:
    """Worst-case relative invariant drift over a batch of random rotations."""

    trials: int
    deviations: dict
    worst_seed: int
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "deviations": {k: self.deviations[k] for k in INVARIANT_NAMES},
            "worst_seed": self.worst_seed,
            "passed": self.passed,
        }


def _seed_words(seed: int, count: int) -> np.ndarray:
    """``count`` uint64 seeds derived from one master seed, 8 bytes each."""
    return np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)


def trial_seeds(seed: int, trials: int) -> list:
    """Per-trial integer seeds derived from one master seed.

    Deterministic and independent of execution order, so trial results do
    not depend on scheduling.
    """
    return _seed_words(seed, trials).tolist()


def isotropy_suite(num_tensors: int = 20, trials: int = 1000, seed: int = 42) -> tuple:
    """Sweep seeded random unit-norm tensors through :func:`isotropy_check`.

    Returns (passed, reports); it passes iff every report passes.
    """
    reports = []
    for tensor_seed in trial_seeds(seed, num_tensors):
        d = tc.random_harmonic(tensor_seed, backend=FLOAT)
        norm = float(d.frobenius_norm_sq()) ** 0.5
        reports.append(isotropy_check(d.scale(1.0 / norm), trials, tensor_seed))
    return all(r.passed for r in reports), reports


def isotropy_check(d: Harmonic4, trials: int, seed: int) -> IsotropyReport:
    """Compare invariants(rotate(d, Q)) against invariants(d) over random Q.

    The relative deviation of invariant f of degree k is
    |f(QD) - f(D)| / max(|f(D)|, ||D||_F^k): identically-zero invariants
    are measured against the tensor's natural degree-k scale.  The report
    passes iff no deviation exceeds its ``ISOTROPY_GATES`` entry.  Failure
    is data in the report, never an exception.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    base_vec = invariants(d)
    base = np.array([float(base_vec[name]) for name in INVARIANT_NAMES])
    norm = float(base[0]) ** 0.5 if base[0] > 0 else 0.0
    scales = np.maximum(np.abs(base),
                        norm ** np.array([INVARIANT_DEGREES[n] for n in INVARIANT_NAMES]))
    components = np.array([d.indep], dtype=float)
    words = _seed_words(seed, trials)
    worst = np.zeros(len(INVARIANT_NAMES))
    worst_seed = -1
    worst_dev = -1.0
    for start in range(0, trials, ISOTROPY_BLOCK):
        block = words[start:start + ISOTROPY_BLOCK].tolist()
        rotated = rotate_float(components, haar_matrices(block))
        delta = np.abs(invariants_float(expand_float(rotated)) - base)
        with np.errstate(divide="ignore", invalid="ignore"):
            dev = np.where(delta == 0.0, 0.0, delta / scales)
        worst = np.maximum(worst, dev.max(axis=0))
        per_trial = dev.max(axis=1)
        first = int(np.argmax(per_trial))
        if per_trial[first] > worst_dev:
            worst_dev = float(per_trial[first])
            worst_seed = block[first]
    deviations = dict(zip(INVARIANT_NAMES, worst.tolist()))
    return IsotropyReport(
        trials=trials,
        deviations=deviations,
        worst_seed=worst_seed,
        passed=all(v <= ISOTROPY_GATES[name] for name, v in deviations.items()),
    )
