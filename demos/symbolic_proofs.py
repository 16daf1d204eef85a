"""Exact symbolic proofs: the degree-6 identity, parity, and restriction.

The same contraction code that evaluates invariants numerically also runs
over sparse polynomials, which expands each invariant as an exact
polynomial in the nine components.  Identities then become statements
about term maps: no tolerance anywhere in this file.

Run with:  python demos/symbolic_proofs.py
"""

import time

import harmonic4 as h4

# --- Expand all ten invariants symbolically (cached after the first call).
start = time.time()
sizes = {name: len(h4.symbolic_invariant(name).terms) for name in h4.INVARIANT_NAMES}
print(f"symbolic expansion of all ten invariants in {time.time() - start:.2f}s")
print("term counts:", sizes)

# --- A small invariant is readable in full.
j2 = h4.symbolic_invariant("J2")
print("\nJ2 as a polynomial (graded-lex):")
for line in j2.to_lines():
    print("  ", line)

# --- The cubic-trace invariant K6 is a linear combination of J2^3, J2*J4,
#     J3^2 and J6.  The residual of that combination is the zero polynomial.
residual = h4.verify_k6_identity()
print("\n39 J2^3 + 10 J3^2 - 198 J2 J4 - 135 J6 + 240 K6:",
      residual, f" ({len(residual.terms)} terms)")

# --- Numeric cross-check of the same identity at a rational point.
point = (8, 0, 0, -4, 0, 5, 5, 3, 0)
lhs = h4.symbolic_invariant("K6").evaluate(point)
vals = {n: h4.symbolic_invariant(n).evaluate(point) for n in ("J2", "J3", "J4", "J6")}
from fractions import Fraction
rhs = (Fraction(-13, 80) * vals["J2"]**3 + Fraction(33, 40) * vals["J2"] * vals["J4"]
       - Fraction(1, 24) * vals["J3"]**2 + Fraction(9, 16) * vals["J6"])
print("numeric cross-check at the cubic witness:", lhs == rhs, f" (both {lhs})")

# --- Substituting D -> -D flips exactly the four odd-degree invariants.
print("\nparity under D -> -D:", h4.verify_parity())

# --- Setting D1111 = D1112 = D1122 = D1222 = D2222 = 0 kills the odd
#     invariants identically; the even ones survive.  The engine runs on the
#     restricted tensor itself: zeros in five slots, symbols in the other four.
survivors = h4.verify_restriction_lemma()
print("\nodd invariants after the five-component restriction:")
for name, poly in survivors.items():
    print(f"   {name}: {poly}")
restricted = h4.Harmonic4(tuple(h4.SparsePoly() if i in (0, 1, 3, 5, 7)
                                else h4.SparsePoly.variable(i) for i in range(9)))
restricted_j2 = h4.invariants(restricted).j2
print("restricted J2 keeps", len(restricted_j2.terms), "terms (not killed)")
