"""Fourth-order three-dimensional symmetric traceless (harmonic) tensors.

A fully symmetric fourth-order tensor on R^3 has 15 independent entries,
indexed by the non-decreasing 4-tuples over {1,2,3}.  Requiring every
single trace to vanish removes six of them, so a harmonic tensor D is
determined by the nine components

    (D1111, D1112, D1113, D1122, D1123, D1222, D1223, D2222, D2223)

kept here in exactly this fixed order everywhere (constructors, JSON,
random sampling).  The six dependent slots follow from the trace
conditions and are recomputed on demand, which makes tracelessness
unviolable by construction:

    D1133 = -D1111 - D1122          D1333 = -D1113 - D1223
    D2233 = -D1122 - D2222          D2333 = -D1123 - D2223
    D3333 =  D1111 + 2*D1122 + D2222    D1233 = -D1112 - D1222

Two scalar backends are supported: ``exact`` (arbitrary-precision
`fractions.Fraction`) and ``float`` (binary64).  :attr:`Harmonic4.backend`
is the one rule that classifies a tensor's scalars, and every engine
dispatches on it: one float component makes the whole tensor a float
tensor.  The algebra below is written generically, so components may
also be elements of any commutative ring (the symbolic layer exploits
this by feeding sparse polynomials through the same code path).

Float tensors also have a batched form, the first layer of the float
engine: :func:`expand_float` takes an ``(N, 9)`` stack of components,
completes the six dependent slots with the same trace rules as column
arithmetic, and gathers the ``(N, 81)`` row-major entries D_ijkl with one
constant index array; :func:`independent_float` gathers the nine
independent entries back.  :meth:`Harmonic4.to_array` and
:func:`from_array` are the N = 1 case.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement, product

import numpy as np

EXACT = "exact"
FLOAT = "float"

#: The nine independent slots, in the canonical component order.
INDEPENDENT_SLOTS = (
    (1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 1, 3), (1, 1, 2, 2), (1, 1, 2, 3),
    (1, 2, 2, 2), (1, 2, 2, 3), (2, 2, 2, 2), (2, 2, 2, 3),
)

COMPONENT_NAMES = (
    "D1111", "D1112", "D1113", "D1122", "D1123",
    "D1222", "D1223", "D2222", "D2223",
)

#: All 15 canonical (sorted) index 4-tuples of a fully symmetric tensor.
ALL_SLOTS = tuple(combinations_with_replacement((1, 2, 3), 4))

#: The six slots fixed by the trace conditions, in the order of :func:`_dependents`.
DEPENDENT_SLOTS = ((1, 1, 3, 3), (2, 2, 3, 3), (3, 3, 3, 3),
                   (1, 3, 3, 3), (2, 3, 3, 3), (1, 2, 3, 3))


def _dependents(d1111, d1112, d1113, d1122, d1123, d1222, d1223, d2222, d2223):
    """The six dependent slots, in :data:`DEPENDENT_SLOTS` order.

    Written for any ring: scalars give one tensor's slots, numpy columns
    a whole stack's.
    """
    return (
        -d1111 - d1122,
        -d1122 - d2222,
        d1111 + 2 * d1122 + d2222,
        -d1113 - d1223,
        -d1123 - d2223,
        -d1112 - d1222,
    )


_SLOT_ROW = {slot: n for n, slot in enumerate(INDEPENDENT_SLOTS + DEPENDENT_SLOTS)}
#: Row of the 15-slot array (independent, then dependent) behind each of the 81 entries.
_ENTRY_ROWS = np.array([_SLOT_ROW[tuple(sorted(ix))] for ix in product((1, 2, 3), repeat=4)])
#: Row-major positions of the independent and of the dependent slots among the 81 entries.
INDEPENDENT_FLAT = np.ravel_multi_index(np.array(INDEPENDENT_SLOTS).T - 1, (3, 3, 3, 3))
DEPENDENT_FLAT = np.ravel_multi_index(np.array(DEPENDENT_SLOTS).T - 1, (3, 3, 3, 3))


def canonical_index(i: int, j: int, k: int, l: int) -> tuple:
    """Return the non-decreasing reordering of the index 4-tuple.

    Indices must lie in {1, 2, 3}; anything else raises ``ValueError``.
    There are exactly 15 distinct keys.
    """
    key = (i, j, k, l)
    for ix in key:
        if ix not in (1, 2, 3):
            raise ValueError(f"tensor index {ix!r} outside {{1, 2, 3}}")
    return tuple(sorted(key))


def multiplicity(slot) -> int:
    """Number of distinct ordered arrangements of a sorted index tuple.

    This is the multinomial count len(slot)! / prod(repeats!), the weight
    with which each canonical slot enters an unrestricted index sum.
    """
    count = math.factorial(len(slot))
    for rep in Counter(slot).values():
        count //= math.factorial(rep)
    return count


#: Arrangement weights of the 15 canonical slots (sum = 81).
SLOT_WEIGHTS = {slot: multiplicity(slot) for slot in ALL_SLOTS}


@dataclass(frozen=True)
class Harmonic4:
    """A harmonic fourth-order tensor, stored by its 9 independent components.

    Instances are immutable values; all derived views (the 15-slot
    expansion, the float array) are cached on first use.  Prefer
    :func:`from_independent` for validated construction; the raw
    constructor accepts arbitrary ring elements.
    """

    indep: tuple

    def __post_init__(self):
        if len(self.indep) != 9:
            raise ValueError(f"expected 9 independent components, got {len(self.indep)}")

    @property
    def backend(self) -> str:
        """Scalar backend, the one rule every engine follows.

        ``float`` if any component is a float (Python or numpy), ``exact``
        if all are ints and Fractions, ``generic`` otherwise.
        """
        if all(isinstance(v, (int, Fraction)) for v in self.indep):
            return EXACT
        if any(isinstance(v, (float, np.floating)) for v in self.indep):
            return FLOAT
        return "generic"

    @cached_property
    def _full(self) -> dict:
        d = dict(zip(INDEPENDENT_SLOTS, self.indep))
        d.update(zip(DEPENDENT_SLOTS, _dependents(*self.indep)))
        return d

    def expand(self) -> dict:
        """All 15 canonical slots, dependent ones filled in by the trace rules."""
        return dict(self._full)

    def component(self, i: int, j: int, k: int, l: int):
        """Entry D_ijkl for any index order (full permutation symmetry)."""
        return self._full[canonical_index(i, j, k, l)]

    def __neg__(self) -> "Harmonic4":
        return Harmonic4(tuple(-v for v in self.indep))

    def scale(self, c) -> "Harmonic4":
        """Componentwise multiple c*D."""
        return Harmonic4(tuple(c * v for v in self.indep))

    def frobenius_norm_sq(self):
        """Sum of the squares of all 81 entries (equals the degree-2 invariant)."""
        full = self._full
        return sum(w * full[s] * full[s] for s, w in SLOT_WEIGHTS.items())

    @cached_property
    def _array(self) -> np.ndarray:
        arr = expand_float(np.array([self.indep], dtype=float)).reshape(3, 3, 3, 3)
        arr.flags.writeable = False
        return arr

    def to_array(self) -> np.ndarray:
        """Read-only float (3,3,3,3) view of the full tensor (float backend).

        Other backends are rounded to binary64 component by component
        before the dependent slots are completed.
        """
        return self._array


def expand_float(components) -> np.ndarray:
    """(N, 9) float components to the (N, 81) row-major entries D_ijkl.

    The dependent slots are completed column by column with the same
    expressions as the scalar path, so each entry is the binary64 value
    :meth:`Harmonic4.expand` gives, signed zeros included.  The gather
    copies values, never multiplies them, so infinities and -0.0 pass
    through unchanged.
    """
    rows = np.asarray(components, dtype=float).T
    slots = np.empty((15, rows.shape[1]))
    slots[:9] = rows
    slots[9:] = _dependents(*rows)
    return np.ascontiguousarray(slots[_ENTRY_ROWS].T)


def independent_float(entries) -> np.ndarray:
    """(N, 81) row-major entries to the (N, 9) independent components."""
    return np.asarray(entries, dtype=float)[:, INDEPENDENT_FLAT]


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _coerce_exact(value):
    if isinstance(value, bool):
        raise TypeError(f"exact backend rejects boolean input {value!r}")
    if isinstance(value, float):
        raise TypeError(
            f"exact backend rejects float input {value!r}; pass an int, Fraction, or 'p/q' string"
        )
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return _fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _coerce_float(value):
    if isinstance(value, bool):
        raise TypeError(f"float backend rejects boolean input {value!r}")
    if isinstance(value, str):
        value = _fraction(value) if "/" in value else float(value)
    if isinstance(value, (int, float, Fraction)):
        return float(value)
    raise TypeError(f"cannot interpret {value!r} as a float component")


def clear_denominators(values) -> tuple:
    """Integers n_i and the least common denominator q with values[i] = n_i / q.

    ``values`` are ints and Fractions.  Homogeneous maps of degree k then
    run in integers: f(values) = f(n) / q^k.
    """
    values = tuple(values)
    q = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (q // v.denominator) for v in values), q


def from_independent(values, backend: str = FLOAT) -> Harmonic4:
    """Build a tensor from the 9 independent components in canonical order.

    Parameters
    ----------
    values : sequence of 9 scalars
        In the order (D1111, D1112, D1113, D1122, D1123, D1222, D1223,
        D2222, D2223).  The exact backend accepts ints, Fractions and
        "p/q" strings and rejects floats; the float backend converts
        anything numeric to binary64.
    backend : {"exact", "float"}
    """
    values = tuple(values)
    if len(values) != 9:
        raise ValueError(f"expected 9 independent components, got {len(values)}")
    if backend == EXACT:
        return Harmonic4(tuple(_coerce_exact(v) for v in values))
    if backend == FLOAT:
        return Harmonic4(tuple(_coerce_float(v) for v in values))
    raise ValueError(f"unknown backend {backend!r}")


def from_array(arr) -> Harmonic4:
    """Read the 9 independent slots out of a full (3,3,3,3) float array."""
    arr = np.asarray(arr, dtype=float)
    if arr.shape != (3, 3, 3, 3):
        raise ValueError(f"expected shape (3,3,3,3), got {arr.shape}")
    return Harmonic4(tuple(independent_float(arr.reshape(1, 81))[0].tolist()))


def random_harmonic(seed: int, backend: str = FLOAT) -> Harmonic4:
    """Deterministic random harmonic tensor.

    Float backend draws the 9 components i.i.d. standard normal; the exact
    backend draws uniform rationals with numerator in [-12, 12] and
    denominator in [1, 12].  Same seed, same tensor.
    """
    if backend == FLOAT:
        rng = np.random.default_rng(seed)
        return Harmonic4(tuple(float(v) for v in rng.standard_normal(9)))
    if backend == EXACT:
        rng = random.Random(seed)
        return Harmonic4(tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 12))
                               for _ in range(9)))
    raise ValueError(f"unknown backend {backend!r}")


def check_traceless(tensor):
    """Maximum single-trace violation max_{j,k} |sum_i D_iijk|.

    Accepts a :class:`Harmonic4` or a raw 15-slot mapping (as returned by
    :meth:`Harmonic4.expand`); with canonical sorted-key storage the six
    trace positions coincide, so one contraction pattern covers them all.
    Any tensor built from 9 independent components returns exactly 0 in
    exact mode and rounding noise at most ~1e-12*|D| in float mode.
    """
    full = tensor.expand() if isinstance(tensor, Harmonic4) else dict(tensor)
    worst = 0
    for j in (1, 2, 3):
        for k in (1, 2, 3):
            trace = sum(full[tuple(sorted((i, i, j, k)))] for i in (1, 2, 3))
            worst = max(worst, abs(trace))
    return worst


def _format_scalar(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return value


def to_json_dict(tensor: Harmonic4) -> dict:
    """JSON form {"components": [...]}; exact scalars serialize as "p/q" strings."""
    return {"components": [_format_scalar(v) for v in tensor.indep]}


def from_json_dict(obj, backend: str = FLOAT) -> Harmonic4:
    """Parse the {"components": [...]} JSON form produced by :func:`to_json_dict`."""
    if not isinstance(obj, dict) or "components" not in obj:
        raise ValueError('tensor JSON must be an object with a "components" array')
    components = obj["components"]
    if not isinstance(components, (list, tuple)) or len(components) != 9:
        raise ValueError('"components" must be an array of 9 entries')
    return from_independent(components, backend=backend)
