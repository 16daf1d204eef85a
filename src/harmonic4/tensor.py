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
`fractions.Fraction`) and ``float`` (binary64).  Scalars have one normal
form, fixed when a value is built: a numpy scalar becomes the Python
scalar of the same value (:func:`_python_scalar`), so a numpy integer is
a Python int that cannot wrap and a float32 a binary64 float.
:attr:`Harmonic4.backend` is the one rule that classifies a tensor's
scalars, and every engine dispatches on it: one float component makes
the whole tensor a float tensor.  The algebra below is written
generically, so components may also be elements of any commutative ring
(the symbolic layer exploits this by feeding sparse polynomials through
the same code path).

Float tensors also have a batched form, the first layer of the float
engine: :func:`slots_float` completes an ``(N, 9)`` stack of components to
the 15 slots with the same trace rules, as column arithmetic.  Both
engines read D from the slots as one 6x6 pair view D_(ij),(kl), the
Voigt/Mandel form (Mehrabadi & Cowin, Q. J. Mech. Appl. Math. 1990), on
which Q acts as K D K^T (``invariants``, ``rotations``).  Only
:meth:`Harmonic4.to_array` and :func:`from_array` use the 81 entries.

Float draws are made straight from the words of one vectorised seed
stream, :func:`_seed_stream` (SplitMix64 in uint64 array arithmetic),
with no bit generator: a tensor from words 0-9, a Haar matrix
(``rotations.haar_matrices``) from words 0-3.
"""

from __future__ import annotations

import math
import operator
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
#: Column of the 15-slot array (independent, then dependent) behind each of the 81 entries.
_ENTRY_ROWS = np.array([_SLOT_ROW[tuple(sorted(ix))] for ix in product((1, 2, 3), repeat=4)])


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


def _python_scalar(value):
    """``value``, with a numpy scalar turned into the Python scalar of the same value."""
    return value.item() if isinstance(value, np.generic) else value


@dataclass(frozen=True)
class Harmonic4:
    """A harmonic fourth-order tensor, stored by its 9 independent components.

    Instances are immutable values; all derived views (the 15-slot
    expansion, the float array) are cached on first use.  Prefer
    :func:`from_independent` for validated construction; the raw
    constructor accepts arbitrary ring elements and stores ``indep`` as a
    tuple of them, numpy scalars turned into Python scalars.
    """

    indep: tuple

    def __post_init__(self):
        indep = tuple(map(_python_scalar, self.indep))
        if len(indep) != 9:
            raise ValueError(f"expected 9 independent components, got {len(indep)}")
        object.__setattr__(self, "indep", indep)

    @cached_property
    def backend(self) -> str:
        """Scalar backend, the one rule every engine follows; computed once per tensor.

        ``float`` if any component is a float, ``exact`` if all are ints
        and Fractions, ``generic`` otherwise.
        """
        if all(isinstance(v, (int, Fraction)) for v in self.indep):
            return EXACT
        if any(isinstance(v, float) for v in self.indep):
            return FLOAT
        return "generic"

    @cached_property
    def _full(self) -> dict:
        d = dict(zip(INDEPENDENT_SLOTS, self.indep))
        d.update(zip(DEPENDENT_SLOTS, _dependents(*self.indep)))
        return d

    def expand(self) -> dict:
        """All 15 canonical slots, trace-completed."""
        return dict(self._full)

    def component(self, i: int, j: int, k: int, l: int):
        """Entry D_ijkl for any index order (full permutation symmetry)."""
        return self._full[canonical_index(i, j, k, l)]

    def __neg__(self) -> "Harmonic4":
        return self.scale(-1)

    def scale(self, c) -> "Harmonic4":
        """Componentwise multiple c*D; a numpy scalar c acts as its Python scalar."""
        c = _python_scalar(c)
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


def slots_float(components) -> np.ndarray:
    """(N, 9) float components to the (N, 15) slots: each the binary64 value,
    signed zeros included, that :meth:`Harmonic4.expand` gives."""
    rows = np.asarray(components, dtype=float)
    slots = np.empty((len(rows), 15))
    slots[:, :9] = rows
    slots.T[9:] = _dependents(*rows.T)
    return slots


def expand_float(components) -> np.ndarray:
    """(N, 9) float components to the (N, 81) row-major entries D_ijkl, copied from the slots."""
    return np.take(slots_float(components), _ENTRY_ROWS, axis=1)


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
        anything numeric to binary64.  Numpy scalars are read as their
        Python scalars.
    backend : {"exact", "float"}
    """
    values = tuple(map(_python_scalar, values))
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
    return Harmonic4(tuple(float(arr[i - 1, j - 1, k - 1, l - 1])
                           for i, j, k, l in INDEPENDENT_SLOTS))


#: Float draws take seeds in [0, SEED_LIMIT): one uint64 word of state.
SEED_LIMIT = 2**64

# SplitMix64's increment and finaliser (Steele, Lea & Flood, OOPSLA 2014), as
# 0-d arrays rather than numpy scalars: a ufunc takes them with less overhead.
_GAMMA, _MULT_1, _MULT_2 = (np.array(c, np.uint64) for c in
                            (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
_SHIFT_30, _SHIFT_27, _SHIFT_31 = (np.array(k, np.uint64) for k in (30, 27, 31))


def _seed_array(seeds) -> np.ndarray:
    """Seeds as a uint64 array; ``ValueError`` unless each is an integer in [0, 2**64)."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        return seeds
    seeds = list(seeds)
    if any(isinstance(s, bool) for s in seeds):
        raise TypeError("a seed must be an integer, not a boolean")
    seeds = [operator.index(s) for s in seeds]
    for s in seeds:
        if not 0 <= s < SEED_LIMIT:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {s}")
    return np.array(seeds, dtype=np.uint64)


def _seed_stream(seeds, start: int, stop: int) -> np.ndarray:
    """Words [start, stop) of each seed's SplitMix64 stream: (N, stop - start) uint64, C order.

    Word i of seed s is mix(s + (i + 1) * gamma), output i + 1 of splitmix64.c
    from state s: it depends on s and i alone, so a slice costs only its own memory.
    """
    z = _seed_array(seeds)[:, None] + np.arange(start + 1, stop + 1, dtype=np.uint64) * _GAMMA
    z ^= z >> _SHIFT_30
    z *= _MULT_1
    z ^= z >> _SHIFT_27
    z *= _MULT_2
    z ^= z >> _SHIFT_31
    return z


def _uniforms(words) -> np.ndarray:
    """uint64 stream words to uniforms in [0, 1): the top 53 bits times 2**-53, exactly."""
    u = (words >> 11).astype(float)
    u *= 2.0**-53
    return u


def _random_components(seeds) -> np.ndarray:
    """(N, 9) i.i.d. standard normal components, one row per seed.

    Box-Muller on stream words 0-9: the uniforms (u, v) of words 2p and
    2p + 1 give sqrt(-2 log(1 - u)) * (cos, sin)(2 pi v) as components 2p
    and 2p + 1; the tenth normal is not used.
    """
    u = _uniforms(_seed_stream(seeds, 0, 10))
    angles = 2 * np.pi * u[:, 1::2]
    out = np.empty((len(u), 5, 2))
    np.cos(angles, out=out[:, :, 0])
    np.sin(angles, out=out[:, :, 1])
    out *= np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))[:, :, None]
    return out.reshape(-1, 10)[:, :9]


def random_harmonic(seed: int, backend: str = FLOAT) -> Harmonic4:
    """Deterministic random harmonic tensor.

    Both backends take a seed in [0, 2**64) (:func:`_seed_array`).  The
    float backend draws the 9 components i.i.d. standard normal from the
    seed's SplitMix64 words (:func:`_random_components`), the same alone or
    in a stack; the exact backend draws uniform rationals with numerator
    in [-12, 12] and denominator in [1, 12].  Same seed, same tensor.
    """
    if backend == FLOAT:
        return Harmonic4(tuple(_random_components([seed])[0].tolist()))
    if backend == EXACT:
        rng = random.Random(int(_seed_array([seed])[0]))
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
