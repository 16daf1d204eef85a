"""Orthogonal equivariance and Monte-Carlo isotropy checks.

Rotations act on all four indices at once.  Signed permutation matrices
keep everything rational, so invariance is checked exactly; Haar-random
matrices (reflections included) exercise the float path.

Run with:  python demos/rotation_invariance.py
"""

import harmonic4 as h4

# --- Exact invariance under a signed permutation of the axes.
d = h4.random_harmonic(2024, backend=h4.EXACT)
q = h4.signed_permutation((2, 3, 1), signs=(1, -1, 1))
print("Q =", q.rows, " defect:", q.orthogonality_defect())
print("invariants exactly preserved:",
      h4.invariants(h4.rotate(d, q)) == h4.invariants(d))

# --- The group action composes contravariantly.
q2 = h4.signed_permutation((3, 1, 2), signs=(-1, -1, 1))
lhs = h4.rotate(h4.rotate(d, q), q2)
print("rotate(rotate(D,Q1),Q2) == rotate(D, Q2 Q1):", lhs == h4.rotate(d, q2 @ q))

# --- A reflection flips every component with an odd count of the mirrored
#     axis; odd invariants survive because they are even in the components.
refl = h4.reflection(axis=3)
flipped = h4.rotate(d, refl)
print("\nD1113:", d.indep[2], "->", flipped.indep[2], "(reflection through axis 3)")
print("J3 unchanged by the reflection:",
      h4.invariants(flipped).j3 == h4.invariants(d).j3)

# --- Haar sampling covers all of O(3): both determinant signs appear.
import numpy as np
dets = [round(float(np.linalg.det(h4.random_rotation(s).to_array()))) for s in range(12)]
print("\ndeterminants of 12 Haar samples:", dets)

# --- Monte-Carlo isotropy: worst relative drift per invariant over many
#     random orthogonal matrices.
unit = h4.random_harmonic(7, backend=h4.FLOAT)
unit = unit.scale(1.0 / float(unit.frobenius_norm_sq()) ** 0.5)
report = h4.isotropy_check(unit, trials=1000, seed=7)
print("\nisotropy over 1000 trials: passed =", report.passed,
      " every drift within 1e-8:", max(report.deviations.values()) <= 1e-8)
for name, dev in report.deviations.items():
    print(f"   {name:>3}: worst relative drift {dev:.3e}")

# --- The batch version sweeps many seeded tensors at once.
passed, reports = h4.isotropy_suite(num_tensors=5, trials=200, seed=1)
print("\nbatch sweep over 5 tensors x 200 trials: passed =", passed)
