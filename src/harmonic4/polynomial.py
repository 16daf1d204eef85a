"""Exact sparse polynomial arithmetic in the nine tensor components.

The nine independent components are the symbols, in the same fixed order
as everywhere else.  A monomial is a 9-tuple of exponents, a polynomial a
hash map monomial -> nonzero coefficient (int or Fraction -- Python's
numeric tower keeps mixed arithmetic exact; a numpy integer is stored as
its Python int, and any other coefficient is a ``TypeError``).  Canonical
form is automatic: zero coefficients are pruned on every operation, so
equal polynomials have equal term maps.  Graded-lex ordering is applied
only at output.

Feeding symbol polynomials through the generic contraction pipeline turns
every invariant into its exact expanded polynomial; that single shared
code path is what the identity, parity, and restriction verifications run
on, so there is no hand-transcribed formula to drift.  The restriction
proof feeds it the restricted tensor itself, zeros in five slots and four
symbols: substitution is a ring homomorphism, so this equals restricting
the full expansion.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .invariants import (
    EVEN_INVARIANTS,
    INVARIANT_NAMES,
    ODD_INVARIANTS,
    _invariants_generic,
)
from .tensor import COMPONENT_NAMES, RESTRICTED_INDICES, _python_scalar, clear_denominators

NUM_SYMBOLS = 9

#: Guard against runaway expansions; the largest honest expansion (the
#: degree-10 invariant) has ~1.1e4 terms out of the 43758 possible.
TERM_LIMIT = 10**6

_ZERO_MONOMIAL = (0,) * NUM_SYMBOLS


class SparsePoly:
    """Immutable sparse polynomial over exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(mono)
                if len(mono) != NUM_SYMBOLS or any(e < 0 for e in mono):
                    raise ValueError(f"bad monomial {mono!r}: need {NUM_SYMBOLS} "
                                     "nonnegative exponents")
                coeff = _python_scalar(coeff)
                if isinstance(coeff, bool) or not isinstance(coeff, (int, Fraction)):
                    raise TypeError(f"coefficients must be ints or Fractions, got {coeff!r}")
                if coeff:
                    data[mono] = coeff
        self._terms = data

    @classmethod
    def _raw(cls, data: dict) -> "SparsePoly":
        # internal: data already pruned and tuple-keyed
        p = cls.__new__(cls)
        p._terms = data
        return p

    @classmethod
    def constant(cls, c) -> "SparsePoly":
        return cls({_ZERO_MONOMIAL: c})

    @classmethod
    def variable(cls, index: int) -> "SparsePoly":
        mono = [0] * NUM_SYMBOLS
        mono[index] = 1
        return cls._raw({tuple(mono): 1})

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def total_degree(self) -> int:
        """Largest monomial degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self._terms), default=-1)

    def __eq__(self, other) -> bool:
        if isinstance(other, SparsePoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self._terms == ({_ZERO_MONOMIAL: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other) -> "SparsePoly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            s = out.get(mono, 0) + coeff
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return SparsePoly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "SparsePoly":
        return SparsePoly._raw({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "SparsePoly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "SparsePoly":
        return (-self) + other

    def __mul__(self, other) -> "SparsePoly":
        if isinstance(other, (int, Fraction)):
            if isinstance(other, bool):
                raise TypeError(f"coefficients must be ints or Fractions, got {other!r}")
            if not other:
                return SparsePoly._raw({})
            return SparsePoly._raw({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, SparsePoly):
            return NotImplemented
        out = {}
        get = out.get
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = tuple(map(int.__add__, m1, m2))
                s = get(mono, 0) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        if len(out) > TERM_LIMIT:
            raise MemoryError(
                f"polynomial product exceeded {TERM_LIMIT} terms; "
                "this indicates a runaway expansion"
            )
        return SparsePoly._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "SparsePoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = SparsePoly._raw({_ZERO_MONOMIAL: 1})
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n > 1
            n >>= 1
            if base_needed:
                base = base * base
        return result

    def evaluate(self, point) -> Fraction:
        """Exact value at a rational 9-point of ints and Fractions.

        With x_i = n_i / q over the common denominator q of the point, and
        every coefficient a / den over the common denominator den of the
        coefficients, a term of degree k is an integer product over
        den q^k.  Terms are summed per degree in integers, and each degree
        is divided once.
        """
        if len(point) != NUM_SYMBOLS:
            raise ValueError(f"expected {NUM_SYMBOLS} values, got {len(point)}")
        if not all(isinstance(x, (int, Fraction)) for x in point):
            raise TypeError(f"evaluate needs ints or Fractions, got {point!r}")
        nums, q = clear_denominators(point)
        coeffs, den = clear_denominators(self._terms.values())
        top = max((max(m) for m in self._terms), default=0)
        powers = [[n**e for e in range(top + 1)] for n in nums]
        by_degree = {}
        for mono, value in zip(self._terms, coeffs):
            for row, e in zip(powers, mono):
                if e:
                    value *= row[e]
            k = sum(mono)
            by_degree[k] = by_degree.get(k, 0) + value
        return sum((Fraction(v, den * q**k) for k, v in by_degree.items()), Fraction(0))

    def sorted_terms(self) -> list:
        """Terms in descending graded-lex order (degree first, then exponents)."""
        return sorted(self._terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def to_lines(self) -> list:
        """One canonical text line per term: ``coeff * D1111^a D1112^b ...``."""
        lines = []
        for mono, coeff in self.sorted_terms():
            factors = " ".join(
                f"{name}^{exp}" for name, exp in zip(COMPONENT_NAMES, mono) if exp
            )
            lines.append(f"{coeff} * {factors}" if factors else f"{coeff}")
        return lines

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(self.to_lines())

    def __repr__(self) -> str:
        return f"SparsePoly({len(self._terms)} terms, degree {self.total_degree()})"


def _as_poly(value):
    if isinstance(value, SparsePoly):
        return value
    if isinstance(value, (int, Fraction)):
        return SparsePoly.constant(value)
    return NotImplemented


def _expand(zeros=()) -> dict:
    """Every invariant of the tensor with symbols in its slots, except 0 at ``zeros``."""
    vec = _invariants_generic([SparsePoly() if i in zeros else SparsePoly.variable(i)
                               for i in range(NUM_SYMBOLS)])
    return {name: vec[name] for name in INVARIANT_NAMES}


@lru_cache(maxsize=1)
def _symbolic_table() -> dict:
    return _expand()


def symbolic_invariant(name: str) -> SparsePoly:
    """The named invariant expanded as an exact polynomial in the 9 symbols.

    Built once by running the generic contraction pipeline over symbolic
    components and cached; valid names are J2..J10 and K6.
    """
    table = _symbolic_table()
    if name not in table:
        raise ValueError(f"unknown invariant {name!r}; expected one of {INVARIANT_NAMES}")
    return table[name]


def verify_k6_identity() -> SparsePoly:
    """Residual of the cubic-trace identity; must be the zero polynomial.

    K6 + 13/80*J2^3 - 33/40*J2*J4 + 1/24*J3^2 - 9/16*J6 is returned as a
    polynomial: an empty term map is a proof of the identity by exact
    expansion.
    """
    j2 = symbolic_invariant("J2")
    combo = (
        Fraction(-13, 80) * (j2 * j2 * j2)
        + Fraction(33, 40) * (j2 * symbolic_invariant("J4"))
        + Fraction(-1, 24) * (symbolic_invariant("J3") ** 2)
        + Fraction(9, 16) * symbolic_invariant("J6")
    )
    return symbolic_invariant("K6") - combo


def verify_parity() -> dict:
    """Behavior of each invariant under D -> -D, as exact identities.

    Returns a name -> "odd" / "even" / "neither" map; correctness means
    the four odd-degree invariants flip sign and the six even-degree ones
    are fixed.  J(-x) = sum_m c_m (-1)^|m| x^m, so an invariant is odd iff
    every monomial has odd degree and even iff every one has even degree
    (the zero polynomial included).
    """
    out = {}
    for name in INVARIANT_NAMES:
        degrees = {sum(m) % 2 for m in symbolic_invariant(name).terms}
        out[name] = "odd" if degrees == {1} else "even" if degrees <= {0} else "neither"
    return out


def verify_restriction_lemma() -> dict:
    """Restrict each odd invariant to the four single-'3' components.

    Substituting 0 for D1111, D1112, D1122, D1222 and D2222 must kill
    J3, J5, J7 and J9 identically; the returned name -> polynomial map
    holds whatever survives (all zero = lemma verified).
    """
    restricted = _expand(RESTRICTED_INDICES)
    return {name: restricted[name] for name in ODD_INVARIANTS}


def parity_expected() -> dict:
    """The expected classification checked against :func:`verify_parity`."""
    expected = {name: "odd" for name in ODD_INVARIANTS}
    expected.update({name: "even" for name in EVEN_INVARIANTS})
    return expected
