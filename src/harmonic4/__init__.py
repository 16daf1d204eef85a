"""Isotropic invariants of fourth-order three-dimensional harmonic tensors.

The package computes the ten invariants {J2..J10, K6} of a symmetric
traceless fourth-order tensor over exact rationals or floats, proves the
degree-6 trace identity and the parity/restriction lemmas by exact
polynomial expansion, verifies isotropy under Haar-random orthogonal
action, and reproduces every separation witness that makes the two
nine-invariant bases irreducible.
"""

from .invariants import (
    EVEN_INVARIANTS,
    INVARIANT_DEGREES,
    INVARIANT_NAMES,
    ODD_INVARIANTS,
    InvariantVector,
    bilinear_B,
    invariants,
    invariants_oracle,
    j4_from_mixed,
    quartic_C,
)
from .polynomial import (
    SparsePoly,
    symbolic_invariant,
    verify_k6_identity,
    verify_parity,
    verify_restriction_lemma,
)
from .rotations import (
    IsotropyReport,
    Orthogonal3,
    isotropy_check,
    isotropy_suite,
    random_rotation,
    reflection,
    rotate,
    signed_permutation,
)
from .tensor import (
    ALL_SLOTS,
    COMPONENT_NAMES,
    EXACT,
    FLOAT,
    INDEPENDENT_SLOTS,
    Harmonic4,
    canonical_index,
    check_traceless,
    from_array,
    from_independent,
    from_json_dict,
    multiplicity,
    random_harmonic,
    to_json_dict,
)
from .witnesses import (
    CELLS,
    WITNESSES,
    SolveResult,
    Witness,
    WitnessPair,
    WitnessReport,
    bisect_root,
    check_pair,
    h_eval,
    j8_family,
    mirror_pair,
    sign_pair,
    solve_agreement_system,
    verify_catalog,
    verify_j6_separation,
    verify_j8_separation,
    verify_witnesses,
)

__version__ = "0.1.0"
