"""Construction, trace completion, and algebra of harmonic tensors."""

import json
import re
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic4 import (
    EXACT,
    FLOAT,
    Harmonic4,
    SparsePoly,
    canonical_index,
    check_traceless,
    from_independent,
    from_json_dict,
    invariants,
    invariants_oracle,
    multiplicity,
    random_harmonic,
    to_json_dict,
)
from harmonic4.tensor import _random_components

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
nine_rationals = st.tuples(*([rationals] * 9))


class TestCanonicalIndex:
    def test_sorts_indices(self):
        assert canonical_index(2, 1, 1, 1) == (1, 1, 1, 2)
        assert canonical_index(3, 1, 3, 1) == (1, 1, 3, 3)
        assert canonical_index(3, 3, 3, 3) == (3, 3, 3, 3)

    def test_fifteen_distinct_keys(self):
        keys = {canonical_index(*ix) for ix in product((1, 2, 3), repeat=4)}
        assert len(keys) == 15

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            canonical_index(0, 1, 1, 1)
        with pytest.raises(ValueError):
            canonical_index(1, 2, 3, 4)

    def test_multiplicities_cover_all_81_tuples(self):
        keys = [canonical_index(*ix) for ix in product((1, 2, 3), repeat=4)]
        for key in set(keys):
            assert multiplicity(key) == keys.count(key)


class TestCompletion:
    def test_unit_d1111(self):
        full = from_independent((1, 0, 0, 0, 0, 0, 0, 0, 0), backend=EXACT).expand()
        assert full[(1, 1, 3, 3)] == -1
        assert full[(3, 3, 3, 3)] == 1
        others = {k: v for k, v in full.items()
                  if k not in ((1, 1, 1, 1), (1, 1, 3, 3), (3, 3, 3, 3))}
        assert all(v == 0 for v in others.values())

    def test_zero_tensor(self):
        full = from_independent([0] * 9, backend=EXACT).expand()
        assert len(full) == 15
        assert all(v == 0 for v in full.values())

    def test_dependents_of_cubic_witness(self):
        full = from_independent((8, 0, 0, -4, 0, 5, 5, 3, 0), backend=EXACT).expand()
        assert full[(1, 1, 3, 3)] == -4
        assert full[(2, 2, 3, 3)] == 1
        assert full[(3, 3, 3, 3)] == 3
        assert full[(1, 3, 3, 3)] == -5
        assert full[(2, 3, 3, 3)] == 0
        assert full[(1, 2, 3, 3)] == -5


class TestComponent:
    def test_trace_completed_slot(self):
        d = from_independent((1, 0, 0, 0, 0, 0, 0, 0, 0), backend=EXACT)
        assert d.component(1, 1, 3, 3) == -1

    def test_permutation_of_same_slot(self):
        d = from_independent((1, 0, 0, 0, 0, 0, 0, 0, 0), backend=EXACT)
        assert d.component(3, 1, 1, 3) == -1

    def test_stored_slot(self):
        d = from_independent((1, 0, 0, 0, 0, 0, 0, 0, 0), backend=EXACT)
        assert d.component(2, 2, 2, 2) == 0

    @given(nine_rationals)
    @settings(max_examples=25, deadline=None)
    def test_full_permutation_symmetry(self, x):
        d = from_independent(x, backend=EXACT)
        for ix in ((1, 2, 3, 3), (1, 1, 2, 3), (2, 2, 2, 3)):
            reference = d.component(*ix)
            for perm in permutations(ix):
                assert d.component(*perm) == reference


class TestTraceless:
    @given(nine_rationals)
    @settings(max_examples=50, deadline=None)
    def test_exact_mode_is_exactly_traceless(self, x):
        assert check_traceless(from_independent(x, backend=EXACT)) == 0

    def test_zero_tensor(self):
        assert check_traceless(from_independent([0] * 9, backend=EXACT)) == 0

    def test_corrupted_expansion_is_detected(self):
        full = from_independent((1, 0, 0, 0, 0, 0, 0, 0, 0), backend=EXACT).expand()
        full[(1, 1, 3, 3)] += 1
        assert check_traceless(full) == 1

    def test_float_mode_within_rounding(self):
        d = random_harmonic(3, backend=FLOAT)
        norm = float(d.frobenius_norm_sq()) ** 0.5
        assert check_traceless(d) <= 1e-12 * norm


class TestAlgebra:
    def test_frobenius_of_unit_d1111(self):
        assert from_independent((1, 0, 0, 0, 0, 0, 0, 0, 0), backend=EXACT
                                ).frobenius_norm_sq() == 8

    def test_double_negation(self):
        d = random_harmonic(11, backend=EXACT)
        assert -(-d) == d

    def test_scale_by_sqrt2_doubles_frobenius(self):
        d = from_independent((1, 0, 0, 0, 0, 0, 0, 0, 0), backend=FLOAT)
        scaled = d.scale(2**0.5)
        assert scaled.frobenius_norm_sq() == pytest.approx(16.0, rel=1e-12)

    @given(nine_rationals, rationals)
    @settings(max_examples=25, deadline=None)
    def test_negate_and_scale_act_slotwise(self, x, c):
        d = from_independent(x, backend=EXACT)
        full = d.expand()
        assert (-d).expand() == {k: -v for k, v in full.items()}
        assert d.scale(c).expand() == {k: c * v for k, v in full.items()}

    @given(nine_rationals)
    @settings(max_examples=25, deadline=None)
    def test_frobenius_equals_degree2_invariant(self, x):
        d = from_independent(x, backend=EXACT)
        assert d.frobenius_norm_sq() == invariants(d).j2


class TestRandomHarmonic:
    @pytest.mark.parametrize("backend", [EXACT, FLOAT])
    def test_deterministic(self, backend):
        assert random_harmonic(7, backend) == random_harmonic(7, backend)

    @pytest.mark.parametrize("backend", [EXACT, FLOAT])
    def test_seed_sensitivity(self, backend):
        assert random_harmonic(7, backend) != random_harmonic(8, backend)

    def test_float_components_are_standard_normal(self):
        draws = 20_000
        bound = 5.0 / draws**0.5  # five standard errors of a mean of unit variance
        comps = _random_components(range(draws))
        assert comps.shape == (draws, 9)
        for n in range(9):
            col = comps[:, n]
            assert abs(col.mean()) <= bound, n
            assert abs((col**2).mean() - 1) <= bound * 2**0.5, n  # Var(Z^2) = 2
            for m in range(n):
                assert abs((col * comps[:, m]).mean()) <= bound, (m, n)

    def test_exact_mode_traceless(self):
        for seed in range(5):
            assert check_traceless(random_harmonic(seed, EXACT)) == 0

    def test_exact_draw_is_pinned(self):
        f = Fraction
        assert random_harmonic(2**64 - 1, EXACT).indep == (
            f(-3), f(-1, 5), f(-3, 4), f(7, 2), f(-1, 12), f(5, 6), f(-11, 12), f(-1, 2), f(5, 8))

    @pytest.mark.parametrize("seed", [-1, True, "x", 1.5, 2**70])
    def test_exact_seed_follows_the_float_rule(self, seed):
        with pytest.raises((TypeError, ValueError)) as floated:
            random_harmonic(seed, FLOAT)
        with pytest.raises(floated.type, match=f"^{re.escape(str(floated.value))}$"):
            random_harmonic(seed, EXACT)


class TestConstruction:
    def test_needs_nine_components(self):
        with pytest.raises(ValueError):
            from_independent((1, 2, 3), backend=EXACT)

    def test_exact_rejects_floats(self):
        with pytest.raises(TypeError):
            from_independent((0.5,) + (0,) * 8, backend=EXACT)

    def test_exact_parses_strings(self):
        d = from_independent(("3/4",) + ("0",) * 8, backend=EXACT)
        assert d.indep[0] == Fraction(3, 4)

    def test_float_accepts_fraction_strings(self):
        d = from_independent(("3/4",) + ("0",) * 8, backend=FLOAT)
        assert d.indep[0] == 0.75

    def test_backend_property(self):
        assert from_independent([1] * 9, backend=EXACT).backend == EXACT
        assert from_independent([1] * 9, backend=FLOAT).backend == FLOAT

    @pytest.mark.parametrize("indep, backend", [
        ((1.5,) + (0,) * 8, FLOAT),
        ((0,) * 8 + (np.float32(0.5),), FLOAT),
        (tuple(np.float64(v) for v in range(9)), FLOAT),
        ((1, Fraction(1, 2)) + (0,) * 7, EXACT),
        ((SparsePoly.variable(0),) + (0,) * 8, "generic"),
    ])
    def test_any_float_component_makes_a_float_tensor(self, indep, backend):
        assert Harmonic4(indep).backend == backend

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            from_independent([0] * 9, backend="decimal")


class TestNormalForm:
    """Numpy scalars are stored as Python scalars when a tensor is built."""

    def test_list_and_tuple_build_the_same_hashable_value(self):
        values = [1, 0, Fraction(1, 2), 0, 3, 0, 0, -2, 0]
        d = Harmonic4(values)
        assert d == Harmonic4(tuple(values))
        assert type(d.indep) is tuple
        assert hash(d) == hash(Harmonic4(tuple(values)))

    def test_float32_components_run_in_binary64(self):
        values = random_harmonic(3, backend=FLOAT).indep
        d = Harmonic4(tuple(np.float32(v) for v in values))
        assert all(type(v) is float for v in d.indep)
        assert type(d.component(1, 2, 3, 3)) is float
        assert type(d.frobenius_norm_sq()) is float
        fast, oracle = invariants(d), invariants_oracle(d)
        assert abs(oracle.j10 - fast.j10) <= 1e-13 * abs(fast.j10)
        assert json.loads(json.dumps(to_json_dict(d)))["components"] == list(d.indep)

    def test_scale_by_a_numpy_float_stays_binary64(self):
        d = from_independent([0.1] * 9, backend=FLOAT).scale(np.float32(3))
        assert all(type(v) is float for v in d.indep)
        assert d.indep[0] == 0.1 * 3.0 == 0.30000000000000004


class TestJson:
    def test_exact_round_trip(self):
        d = from_independent((8, 0, 0, -4, 0, 5, 5, 3, "1/3"), backend=EXACT)
        obj = to_json_dict(d)
        assert obj["components"][0] == "8/1"
        assert obj["components"][8] == "1/3"
        assert from_json_dict(obj, backend=EXACT) == d

    def test_float_round_trip(self):
        d = random_harmonic(5, backend=FLOAT)
        assert from_json_dict(to_json_dict(d), backend=FLOAT) == d

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            from_json_dict({"components": [1, 2]}, backend=FLOAT)
        with pytest.raises(ValueError):
            from_json_dict({"values": [0] * 9}, backend=FLOAT)

    def test_array_round_trip(self):
        import harmonic4

        d = random_harmonic(9, backend=FLOAT)
        assert harmonic4.from_array(d.to_array()) == d
