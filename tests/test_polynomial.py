"""Exact polynomial ring and the symbolic identity/parity/restriction proofs."""

from fractions import Fraction

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import harmonic4.polynomial as poly_mod
from harmonic4 import (
    EXACT,
    INVARIANT_DEGREES,
    INVARIANT_NAMES,
    SparsePoly,
    from_independent,
    invariants_oracle,
    random_harmonic,
    symbolic_invariant,
    verify_k6_identity,
    verify_parity,
    verify_restriction_lemma,
)
from harmonic4.polynomial import RESTRICTED_INDICES, parity_expected

monomials = st.tuples(*([st.integers(min_value=0, max_value=2)] * 9))
coeffs = st.fractions(min_value=-8, max_value=8, max_denominator=6)
polys = st.dictionaries(monomials, coeffs, max_size=4).map(SparsePoly)

#: The monomial D1111.
X1 = (1,) + (0,) * 8


class TestRingBasics:
    def test_zero_and_constants(self):
        assert SparsePoly().is_zero()
        assert SparsePoly.constant(0).is_zero()
        assert SparsePoly.constant(3) == 3
        assert not SparsePoly.constant(3).is_zero()

    def test_numpy_coefficients_are_held_as_python_ints(self):
        # 2**80 overflows int64 (warnings are errors here).
        mono = (1,) + (0,) * 8
        p = SparsePoly({mono: np.int64(2**40)})
        assert type(p.terms[mono]) is int
        assert (p * p).terms[(2,) + (0,) * 8] == 2**80

    def test_numpy_constant_is_held_as_a_python_int(self):
        c = SparsePoly.constant(np.int64(2**40))
        assert type(c.terms[(0,) * 9]) is int
        assert (c * c) == 2**80

    def test_float_coefficient_rejected_before_evaluate(self):
        with pytest.raises(TypeError, match="ints or Fractions"):
            SparsePoly({X1: 0.5}).evaluate([Fraction(1, 3)] + [0] * 8)

    def test_float_coefficient_rejected_before_float_products(self):
        with pytest.raises(TypeError, match="ints or Fractions"):
            SparsePoly({X1: 0.5}) * SparsePoly({X1: 0.5})

    @pytest.mark.parametrize("bad", ["x", True, np.float64(2.0), np.bool_(True), 0.0])
    def test_non_rational_coefficient_rejected(self, bad):
        with pytest.raises(TypeError, match="ints or Fractions"):
            SparsePoly({X1: bad})

    @pytest.mark.parametrize("bad", [0.25, False, "1"])
    def test_non_rational_constant_rejected(self, bad):
        with pytest.raises(TypeError, match="ints or Fractions"):
            SparsePoly.constant(bad)

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_factor_rejected(self, flag):
        with pytest.raises(TypeError, match="ints or Fractions"):
            SparsePoly.variable(0) * flag
        with pytest.raises(TypeError, match="ints or Fractions"):
            flag * SparsePoly.variable(0)

    def test_bool_is_not_a_constant(self):
        assert SparsePoly.constant(1).__eq__(True) is NotImplemented
        assert SparsePoly().__eq__(False) is NotImplemented
        assert SparsePoly.constant(1) != True  # noqa: E712
        assert SparsePoly() != False  # noqa: E712
        assert SparsePoly.constant(1) == 1 and SparsePoly() == 0

    def test_additive_inverse_prunes_to_zero(self):
        p = SparsePoly.variable(0) * 5 + SparsePoly.constant(2)
        assert (p + (-p)).is_zero()

    def test_pow_zero_is_one(self):
        p = SparsePoly.variable(3) + 1
        assert p**0 == SparsePoly.constant(1)

    def test_pow_matches_repeated_multiplication(self):
        p = SparsePoly.variable(1) + SparsePoly.variable(4) * Fraction(1, 2)
        assert p**3 == p * p * p

    def test_pow_rejects_negative(self):
        with pytest.raises(ValueError):
            SparsePoly.variable(0) ** -1

    def test_bad_monomials_rejected(self):
        with pytest.raises(ValueError):
            SparsePoly({(1, 2): 1})
        with pytest.raises(ValueError):
            SparsePoly({(-1,) + (0,) * 8: 1})

    def test_equal_polynomials_share_hash(self):
        p = SparsePoly.variable(2) + 3
        q = SparsePoly.constant(3) + SparsePoly.variable(2)
        assert p == q
        assert hash(p) == hash(q)


class TestRingAxioms:
    @given(polys, polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_associativity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    @given(polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(polys, polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys, polys)
    @settings(max_examples=40, deadline=None)
    def test_product_matches_term_by_term_expansion(self, a, b):
        expanded = SparsePoly()
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                expanded = expanded + SparsePoly(
                    {tuple(x + y for x, y in zip(m1, m2)): c1 * c2})
        assert a * b == expanded

    @given(polys, st.fractions(min_value=-5, max_value=5, max_denominator=4))
    @settings(max_examples=40, deadline=None)
    def test_evaluation_is_a_ring_morphism(self, a, c):
        point = tuple(Fraction(i - 4, 3) for i in range(9))
        assert (a * c).evaluate(point) == c * a.evaluate(point)


class TestEvaluate:
    def test_fraction_coefficients_and_mixed_degrees(self):
        p = SparsePoly({(2,) + (0,) * 8: Fraction(3, 4), (0, 1) + (0,) * 7: Fraction(-1, 6)})
        point = (Fraction(2, 3), Fraction(-5, 7)) + (0,) * 7
        assert p.evaluate(point) == Fraction(3, 4) * Fraction(4, 9) + Fraction(5, 42)

    def test_zero_polynomial_is_zero(self):
        assert SparsePoly().evaluate((Fraction(1, 3),) * 9) == 0

    @pytest.mark.parametrize("bad", [0.5, "1/2", None])
    def test_rejects_non_rational_points(self, bad):
        with pytest.raises(TypeError):
            SparsePoly.variable(0).evaluate((bad,) + (0,) * 8)


class TestSymbolicInvariants:
    def test_degree2_at_unit_d1111(self):
        assert symbolic_invariant("J2").evaluate((1, 0, 0, 0, 0, 0, 0, 0, 0)) == 8

    def test_degree2_is_homogeneous_quadratic(self):
        j2 = symbolic_invariant("J2")
        assert j2.total_degree() == 2
        assert all(sum(m) == 2 for m in j2.terms)

    def test_every_invariant_is_homogeneous(self):
        for name in INVARIANT_NAMES:
            poly = symbolic_invariant(name)
            degree = INVARIANT_DEGREES[name]
            assert all(sum(m) == degree for m in poly.terms), name

    def test_degree9_at_its_witness(self):
        point = (0, 1, 0, 0, 0, Fraction(-3, 4), Fraction(1, 4), 1, 0)
        assert symbolic_invariant("J9").evaluate(point) == Fraction(45, 8)

    def test_matches_oracle_at_random_rational_points(self):
        for seed in range(5):
            d = random_harmonic(seed, backend=EXACT)
            oracle = invariants_oracle(d)
            for name in INVARIANT_NAMES:
                assert symbolic_invariant(name).evaluate(d.indep) == oracle[name], name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            symbolic_invariant("J11")


class TestIdentity:
    def test_residual_is_identically_zero(self):
        assert verify_k6_identity().is_zero()

    def test_numeric_cross_check_at_unit_d1111(self):
        point = (1, 0, 0, 0, 0, 0, 0, 0, 0)
        j2 = symbolic_invariant("J2").evaluate(point)
        j4 = symbolic_invariant("J4").evaluate(point)
        combo = Fraction(-13, 80) * j2**3 + Fraction(33, 40) * j2 * j4
        assert symbolic_invariant("K6").evaluate(point) == 128
        assert combo == 128

    def test_numeric_cross_check_at_cubic_witness(self):
        point = (8, 0, 0, -4, 0, 5, 5, 3, 0)
        values = {n: symbolic_invariant(n).evaluate(point)
                  for n in ("J2", "J3", "J4", "J6", "K6")}
        combo = (Fraction(-13, 80) * values["J2"]**3
                 + Fraction(33, 40) * values["J2"] * values["J4"]
                 - Fraction(1, 24) * values["J3"]**2
                 + Fraction(9, 16) * values["J6"])
        assert values["K6"] == combo


class TestParity:
    def test_classification(self):
        assert verify_parity() == parity_expected()

    def test_odd_flip_is_an_exact_polynomial_identity(self):
        # J(-x) = -J(x) term by term: every monomial of J3 has odd degree.
        assert {sum(m) % 2 for m in symbolic_invariant("J3").terms} == {1}

    def test_even_fixed_point(self):
        for name in ("J2", "K6"):
            assert {sum(m) % 2 for m in symbolic_invariant(name).terms} == {0}, name

    @pytest.mark.parametrize("poly, kind", [
        (SparsePoly(), "even"),
        (SparsePoly.variable(0) + SparsePoly.variable(0) ** 2, "neither"),
        (SparsePoly.variable(0) ** 3 - SparsePoly.variable(4), "odd"),
    ])
    def test_classification_reads_monomial_degrees(self, monkeypatch, poly, kind):
        monkeypatch.setattr(poly_mod, "symbolic_invariant", lambda name: poly)
        assert set(verify_parity().values()) == {kind}


class TestRestrictionLemma:
    def test_all_four_odd_invariants_vanish(self):
        survivors = verify_restriction_lemma()
        assert set(survivors) == {"J3", "J5", "J7", "J9"}
        for name, poly in survivors.items():
            assert poly.is_zero(), name

    def test_restriction_does_not_kill_even_invariants(self):
        restricted = poly_mod._expand(RESTRICTED_INDICES)["J2"]
        assert not restricted.is_zero()
        # a tensor with only D1113 = 1 has positive squared norm
        point = (0, 0, 1, 0, 0, 0, 0, 0, 0)
        assert restricted.evaluate(point) == 8

    def test_restricted_run_equals_the_zeroed_table(self):
        restricted = poly_mod._expand(RESTRICTED_INDICES)
        assert list(restricted) == list(INVARIANT_NAMES)
        for name in INVARIANT_NAMES:
            zeroed = {mono: coeff for mono, coeff in symbolic_invariant(name).terms.items()
                      if not any(mono[i] for i in RESTRICTED_INDICES)}
            assert dict(restricted[name].terms) == zeroed, name

    def test_cli_suite_never_builds_the_table(self):
        script = ("import contextlib, io\n"
                  "from harmonic4 import cli, polynomial\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    code = cli.main(['verify', 'restriction'])\n"
                  "print(code, polynomial._symbolic_table.cache_info().currsize)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]


class TestSerialization:
    def test_graded_lex_output(self):
        p = (SparsePoly.variable(0) ** 2 + SparsePoly.variable(1)
             + SparsePoly.constant(Fraction(1, 2)))
        lines = p.to_lines()
        assert lines[0] == "1 * D1111^2"
        assert lines[1] == "1 * D1112^1"
        assert lines[2] == "1/2"

    def test_zero_prints_as_zero(self):
        assert str(SparsePoly()) == "0"

    def test_deterministic_output(self):
        j4 = symbolic_invariant("J4")
        assert j4.to_lines() == j4.to_lines()
        assert any("D1111^4" in line for line in j4.to_lines())


class TestMemoryGuard:
    def test_runaway_product_aborts(self, monkeypatch):
        monkeypatch.setattr(poly_mod, "TERM_LIMIT", 10)
        dense = SparsePoly({(i, 0, 0, 0, 0, 0, 0, 0, 0): 1 for i in range(6)})
        with pytest.raises(MemoryError):
            (dense * dense) * dense
