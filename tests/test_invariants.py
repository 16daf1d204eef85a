"""Contractions and the ten invariants: oracle agreement and known values."""

from fractions import Fraction
from itertools import product
from operator import mul

import numpy as np
import pytest

from harmonic4 import (
    EXACT,
    FLOAT,
    INVARIANT_DEGREES,
    INVARIANT_NAMES,
    Harmonic4,
    bilinear_B,
    from_independent,
    invariants,
    invariants_oracle,
    j4_from_mixed,
    quartic_C,
    random_harmonic,
)
from harmonic4.invariants import (_PAIR_ROWS, _PAIRS as PAIRS, _WEIGHTS, _invariants_generic,
                                  _pair_view)
from harmonic4.tensor import DEPENDENT_SLOTS, INDEPENDENT_SLOTS

RANGE3 = (1, 2, 3)

D1 = from_independent((1, 0, 0, 0, 0, 0, 0, 0, 0), backend=EXACT)
ZERO = from_independent([0] * 9, backend=EXACT)
J3_WITNESS = from_independent((8, 0, 0, -4, 0, 5, 5, 3, 0), backend=EXACT)
J9_WITNESS = from_independent(
    (0, 1, 0, 0, 0, Fraction(-3, 4), Fraction(1, 4), 1, 0), backend=EXACT)


def brute_force_B(d):
    """Independent reference: unreduced triple loop for B_ij."""
    return [[sum(d.component(i, k, l, m) * d.component(j, k, l, m)
                 for k, l, m in product(RANGE3, repeat=3))
             for j in RANGE3] for i in RANGE3]


def brute_force_C(d, i, j, k, l):
    """Independent reference: unreduced double loop for C_ijkl."""
    return sum(d.component(i, j, m, n) * d.component(k, l, m, n)
               for m, n in product(RANGE3, repeat=2))


def pair(i, j):
    """Position of the index pair (i, j), either order, in the pair basis."""
    return PAIRS.index(tuple(sorted((i, j))))


class TestPairView:
    def test_table_entry_is_the_slot_of_the_merged_pairs(self):
        slots = INDEPENDENT_SLOTS + DEPENDENT_SLOTS
        for a, p in enumerate(PAIRS):
            for b, q in enumerate(PAIRS):
                assert slots[_PAIR_ROWS[a][b]] == tuple(sorted(p + q))

    def test_pair_view_reads_every_component(self):
        d = random_harmonic(3, backend=EXACT)
        view = _pair_view(d.indep)
        for (i, j), row in zip(PAIRS, view):
            for (k, l), value in zip(PAIRS, row):
                assert value == d.component(i, j, k, l)


class TestBilinearB:
    def test_unit_d1111_is_diag_4_0_4(self):
        # frozen from the brute-force contraction below
        expected = [[4, 0, 0], [0, 0, 0], [0, 0, 4]]
        assert brute_force_B(D1) == expected
        b = bilinear_B(D1)
        assert [[b[pair(i, j)] for j in RANGE3] for i in RANGE3] == expected

    def test_zero_tensor(self):
        assert bilinear_B(ZERO) == (0,) * 6

    def test_matches_brute_force_on_random_tensors(self):
        for seed in range(10):
            d = random_harmonic(seed, backend=EXACT)
            b = bilinear_B(d)
            reference = brute_force_B(d)
            for i in RANGE3:
                for j in RANGE3:
                    assert b[pair(i, j)] == reference[i - 1][j - 1]

    def test_trace_equals_degree2_invariant(self):
        for seed in range(5):
            d = random_harmonic(seed, backend=EXACT)
            b = bilinear_B(d)
            assert b[pair(1, 1)] + b[pair(2, 2)] + b[pair(3, 3)] == invariants(d).j2


class TestQuarticC:
    def test_unit_d1111_corner(self):
        # brute force over the 9 (m,n): D_11mn D_11mn = 1^2 + (-1)^2 = 2
        assert brute_force_C(D1, 1, 1, 1, 1) == 2
        assert quartic_C(D1)[pair(1, 1)][pair(1, 1)] == 2

    def test_zero_tensor(self):
        assert quartic_C(ZERO) == [[0] * 6 for _ in range(6)]

    def test_pair_symmetry(self):
        c = quartic_C(random_harmonic(4, backend=EXACT))
        for p in range(6):
            for q in range(6):
                assert c[p][q] == c[q][p]

    def test_matches_brute_force_on_random_tensors(self):
        for seed in range(5):
            d = random_harmonic(seed, backend=EXACT)
            c = quartic_C(d)
            for i, j, k, l in product(RANGE3, repeat=4):
                assert c[pair(i, j)][pair(k, l)] == brute_force_C(d, i, j, k, l)


class TestExactContractionsInIntegers:
    def test_raw_int_tensor_returns_fractions(self):
        raw = Harmonic4((3, -1, 0, 2, 5, -7, 1, 4, -2))
        b, c = bilinear_B(raw), quartic_C(raw)
        assert all(type(v) is Fraction for v in b)
        assert all(type(v) is Fraction for row in c for v in row)
        rational = from_independent(raw.indep, backend=EXACT)
        assert (b, c) == (bilinear_B(rational), quartic_C(rational))


def sums_from_zero(d) -> tuple:
    """B and C of a float tensor with every C entry a sum started from int 0.

    Such a sum is never -0.0, so neither is a B entry; these are the bits
    that ``bilinear_B`` and ``quartic_C`` must keep.
    """
    view = _pair_view(d.indep)
    dw = [[w * v for w, v in zip(_WEIGHTS, row)] for row in view]
    c = [[None] * 6 for _ in range(6)]
    for p in range(6):
        for q in range(p, 6):
            c[p][q] = c[q][p] = sum(map(mul, dw[p], view[q]))
    b = tuple(sum(c[pair(i, k)][pair(j, k)] for k in RANGE3) for i, j in PAIRS)
    return b, c


def signed_zeros(seed) -> Harmonic4:
    """A random float tensor with some components set to 0.0 and some to -0.0."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(9)
    values[rng.random(9) < 0.6] = 0.0
    values[rng.random(9) < 0.3] *= -1
    return Harmonic4(tuple(values.tolist()))


class TestFloatContractionBits:
    """Float B and C carry the bits of sums started from 0, signed zeros included."""

    TENSORS = ([Harmonic4((0.0,) * 9), Harmonic4((-0.0,) * 9),
                Harmonic4((1.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0))]
               + [signed_zeros(seed) for seed in range(8)])

    def test_zero_tensor_gives_positive_zeros(self):
        c = quartic_C(Harmonic4((0.0,) * 9))
        assert c[0][5].hex() == "0x0.0p+0"  # -0.0 if the six -0.0 terms were summed bare
        assert all(v.hex() == "0x0.0p+0" for v in [*bilinear_B(Harmonic4((0.0,) * 9)),
                                                   *(v for row in c for v in row)])

    @pytest.mark.parametrize("d", TENSORS)
    def test_bits_equal_the_sums_from_zero(self, d):
        b, c = sums_from_zero(d)
        assert [v.hex() for v in bilinear_B(d)] == [v.hex() for v in b]
        assert [[v.hex() for v in row] for row in quartic_C(d)] == \
            [[v.hex() for v in row] for row in c]


class TestKnownValues:
    def test_unit_d1111_row(self):
        vec = invariants(D1)
        assert vec.as_dict() == {
            "J2": 8, "J3": 0, "J4": 32, "J5": 0, "J6": 0,
            "K6": 128, "J7": 0, "J8": 0, "J9": 0, "J10": 0,
        }

    def test_k6_of_unit_d1111_consistent_with_trace_identity(self):
        # tr(diag(4,0,4)^3) = 128, and the degree-6 linear identity gives
        # -13/80*8^3 + 33/40*8*32 = 128 as an independent cross-check
        vec = invariants(D1)
        assert vec.k6 == 128
        assert (Fraction(-13, 80) * vec.j2**3 + Fraction(33, 40) * vec.j2 * vec.j4
                - Fraction(1, 24) * vec.j3**2 + Fraction(9, 16) * vec.j6) == 128

    def test_cubic_witness(self):
        vec = invariants(J3_WITNESS)
        assert (vec.j5, vec.j7, vec.j9) == (0, 0, 0)
        assert vec.j3 == -6480

    def test_degree9_witness(self):
        vec = invariants(J9_WITNESS)
        assert (vec.j3, vec.j5, vec.j7) == (0, 0, 0)
        assert vec.j9 == Fraction(45, 8)

    def test_scaled_unit_float(self):
        vec = invariants(from_independent((2**0.5, 0, 0, 0, 0, 0, 0, 0, 0),
                                          backend=FLOAT))
        assert vec.j2 == pytest.approx(16.0, rel=1e-12)
        assert vec.k6 == pytest.approx(1024.0, rel=1e-12)


class TestOracleEquivalence:
    def test_unit_d1111(self):
        assert invariants(D1) == invariants_oracle(D1)

    def test_cubic_witness_all_ten(self):
        assert invariants(J3_WITNESS) == invariants_oracle(J3_WITNESS)

    def test_random_rational_tensors(self):
        for seed in range(25):
            d = random_harmonic(seed, backend=EXACT)
            assert invariants(d) == invariants_oracle(d)

    def test_float_fast_path_matches_generic(self):
        for seed in range(10):
            d = random_harmonic(seed, backend=FLOAT)
            norm = float(d.frobenius_norm_sq()) ** 0.5
            d = d.scale(1.0 / norm)
            fast = invariants(d)
            generic = _invariants_generic(d.indep)
            for name in INVARIANT_NAMES:
                assert fast[name] == pytest.approx(generic[name], rel=1e-12, abs=1e-13)


class TestFloatBackendRule:
    """A tensor with any float component takes the float engine, bit for bit."""

    @staticmethod
    def bits(vec):
        assert all(type(vec[name]) is float for name in INVARIANT_NAMES)
        return [vec[name].hex() for name in INVARIANT_NAMES]

    def test_mixed_int_and_float_components(self):
        d = random_harmonic(3, backend=FLOAT)
        mixed = Harmonic4((d.indep[0], 0, d.indep[2], 1) + d.indep[4:8] + (0,))
        floats = Harmonic4(tuple(float(v) for v in mixed.indep))
        assert self.bits(invariants(mixed)) == self.bits(invariants(floats))

    def test_numpy_float_components(self):
        d = random_harmonic(4, backend=FLOAT)
        wrapped = Harmonic4(tuple(np.float64(v) for v in d.indep))
        assert self.bits(invariants(wrapped)) == self.bits(invariants(d))


class TestStructuralProperties:
    def test_homogeneity_exact(self):
        d = random_harmonic(2, backend=EXACT)
        c = Fraction(3, 2)
        base = invariants(d)
        scaled = invariants(d.scale(c))
        for name in INVARIANT_NAMES:
            assert scaled[name] == c ** INVARIANT_DEGREES[name] * base[name]

    def test_parity_under_negation(self):
        for seed in range(5):
            d = random_harmonic(seed, backend=EXACT)
            plus = invariants(d)
            minus = invariants(-d)
            for name in ("J3", "J5", "J7", "J9"):
                assert minus[name] == -plus[name]
            for name in ("J2", "J4", "J6", "K6", "J8", "J10"):
                assert minus[name] == plus[name]

    def test_degree6_trace_identity_numeric(self):
        for seed in range(10):
            vec = invariants(random_harmonic(seed, backend=EXACT))
            combo = (Fraction(-13, 80) * vec.j2**3
                     + Fraction(33, 40) * vec.j2 * vec.j4
                     - Fraction(1, 24) * vec.j3**2
                     + Fraction(9, 16) * vec.j6)
            assert vec.k6 == combo


class TestJ4Reconstruction:
    def test_unit_d1111_values(self):
        assert j4_from_mixed(8, 0, 0, 128) == 32

    def test_zero_branch(self):
        assert j4_from_mixed(0, 0, 0, 0) == 0
        assert j4_from_mixed(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_float_results_keep_their_bits(self):
        # the formula as it was written out before it read K6_RELATION
        for seed in range(25):
            vec = invariants(random_harmonic(seed))
            j2, j3, j6, k6 = vec.j2, vec.j3, vec.j6, vec.k6
            want = (39 * j2**3 + 10 * j3 * j3 - 135 * j6 + 240 * k6) / (198 * j2)
            assert j4_from_mixed(j2, j3, j6, k6).hex() == want.hex()
            assert j4_from_mixed(j2, -j3, -j6, k6).hex() == (
                (39 * j2**3 + 10 * j3 * j3 + 135 * j6 + 240 * k6) / (198 * j2)).hex()

    def test_reconstructs_j4_exactly(self):
        for seed in range(25):
            vec = invariants(random_harmonic(seed, backend=EXACT))
            if vec.j2 == 0:
                continue
            assert j4_from_mixed(vec.j2, vec.j3, vec.j6, vec.k6) == vec.j4


class TestInvariantVector:
    def test_canonical_order_and_lookup(self):
        vec = invariants(D1)
        assert list(vec.as_dict()) == list(INVARIANT_NAMES)
        assert vec["J4"] == 32
        assert vec["K6"] == 128

    @pytest.mark.parametrize("name", ["J11", "j2", "k6", "", "as_dict"])
    def test_unknown_name_raises_key_error(self, name):
        # only the canonical names are keys; field names and methods are not
        with pytest.raises(KeyError):
            invariants(D1)[name]

    def test_json_uses_fraction_strings(self):
        payload = invariants(J3_WITNESS).to_json_dict()
        assert payload["J3"] == "-6480/1"
        assert payload["J9"] == "0/1"

    def test_json_floats_stay_numbers(self):
        payload = invariants(random_harmonic(1, backend=FLOAT)).to_json_dict()
        assert all(isinstance(v, float) for v in payload.values())
