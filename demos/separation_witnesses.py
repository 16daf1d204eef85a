"""The separation witnesses behind both irreducible bases.

A basis invariant is indispensable exactly when some pair of tensors
agrees on all the others but not on it.  Each basis has nine members, so
the two bases give 18 (basis, member) cells, and the table ``h4.CELLS``
names the witness pair that covers each one.  This script walks through
the pairs: the sign flips for the odd degrees, the hand-built catalog
pairs for degrees 2, 4 and 10, the one-parameter root construction for
degree 8, and the Newton-solved systems for the two sextics; then
it checks all 18 cells at once.

Run with:  python demos/separation_witnesses.py
"""

import harmonic4 as h4

# --- Odd degrees: negating the tensor fixes the six even invariants and
#     flips the odd ones, so one nonzero odd invariant separates itself.
cubic = h4.from_independent((8, 0, 0, -4, 0, 5, 5, 3, 0), backend=h4.EXACT)
pair = h4.sign_pair(cubic)
print("sign pair J3 values:", h4.invariants(pair.left).j3, "/", h4.invariants(pair.right).j3)

# --- One check for every cell: check_pair compares the two tensors'
#     invariants, with agree = basis - {member}.  Its gate follows from
#     the pair: (D, -D) must flip exactly, and a pair on the restricted
#     slice must have odd invariants of exactly 0.
agree = tuple(n for n in h4.witnesses.SMITH_BAO_BASIS if n != "J3")
print("check_pair separates J3 in Smith-Bao's basis:",
      h4.check_pair(pair, agree, "J3")[0])

# --- The catalog pairs also reproduce the values the paper prints.
print("\ncatalog pairs:")
for report in h4.verify_catalog():
    marker = "ok " if report.passed else "FAIL"
    print(f"   [{marker}] {report.label} separates {report.differ}")

# --- Degree 8: a family D(t) vs its conjugate branch.  Both members share
#     J2, J4, J6 for every t and the odd invariants vanish identically;
#     the degree-10 gap closes exactly at roots of (1-5t)^2 h(t).
print("\nsextic h on the bracketing interval: h(0.15) =", round(h4.h_eval(0.15), 4),
      "  h(0.2) =", round(h4.h_eval(0.2), 5))
root = h4.bisect_root(h4.h_eval, 0.15, 0.2, 1e-14)
t_star = root.solution["root"]
print(f"bisection root t* = {t_star:.12f} after {root.iterations} iterations, "
      f"|h(t*)| = {root.residual_norm:.2e}")

witness = h4.verify_j8_separation()
print("at t*: all other invariants agree, J8 relative gap =",
      f"{witness.gaps['J8']:.3e}  (passed = {witness.passed})")

# --- At t = 0.2 the degree-8 gap closes instead; the family is a witness
#     only at the sextic's root.
closed = h4.j8_family(0.2)
lv, rv = h4.invariants(closed.left), h4.invariants(closed.right)
print("at t = 0.2 the J8 gap closes:", abs(lv.j8 - rv.j8) <= 1e-9 * abs(lv.j8))

# --- Degree 6, twice: agreement systems solved by damped Newton in
#     the restricted family with the D1223 branch mirrored about -1/4.
for which, matched in h4.witnesses.J6_SYSTEMS.items():
    report = h4.verify_j6_separation(which)
    solver = report.notes["solver"]
    sol = solver["solution"]
    print(f"\n{which} system (matches {', '.join(matched)}):")
    print(f"   solution D1123 = {sol['D1123']:+.6f}  D1223 = {sol['D1223']:+.6f}  "
          f"D2223 = {sol['D2223']:+.6f}  D1223_hat = {sol['D1223_hat']:+.6f}")
    print(f"   residual {solver['residual_norm']:.2e} in {solver['iterations']} "
          f"Newton steps; J6 relative gap {report.gaps['J6']:.3e}; "
          f"passed = {report.passed}")

# --- All 18 cells at once, as the CLI's `verify witnesses` suite runs them.
reports = h4.verify_witnesses()
print(f"\nall cells: {sum(r.passed for r in reports.values())}/{len(reports)} pass")
for (basis, member), report in reports.items():
    print(f"   {basis:>9} {member:>3}: {report.label}")
