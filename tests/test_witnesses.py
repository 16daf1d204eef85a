"""The witness table over the 18 basis cells, root finding, and the solved witnesses."""

import itertools
import json
import math
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from harmonic4 import (
    CELLS,
    EXACT,
    FLOAT,
    INVARIANT_NAMES,
    WITNESSES,
    Harmonic4,
    bisect_root,
    check_pair,
    from_independent,
    h_eval,
    invariants,
    invariants_oracle,
    j8_family,
    mirror_pair,
    random_harmonic,
    sign_pair,
    solve_agreement_system,
    verify_catalog,
    verify_j6_separation,
    verify_j8_separation,
    verify_witnesses,
)
from harmonic4 import witnesses as w
from harmonic4.cli import main as cli_main
from harmonic4.invariants import invariants_float
from harmonic4.tensor import RESTRICTED_INDICES
from harmonic4.witnesses import (
    BASES,
    J6_SYSTEMS,
    ODD_INVARIANTS,
    pair_from_solution,
    relative_gap,
)


def witness_values(label):
    pair = WITNESSES[label].build()
    return invariants(pair.left), invariants(pair.right)


class TestCatalog:
    def test_expected_entries_present(self):
        assert set(WITNESSES) == {
            "j2-separation", "j4-separation", "mixed-j2-separation", "j10-separation",
            "j3-sign-pair", "j5-sign-pair", "j7-sign-pair", "j9-sign-pair",
            "j8-separation", "smith_bao-j6-separation", "mixed-j6-separation",
        }
        assert set(CELLS.values()) == set(WITNESSES)

    def test_all_entries_reproduce_their_values(self):
        reports = verify_catalog()
        assert {r.label for r in reports} == set(w.CATALOG_PAIRS)
        for report in reports:
            assert report.passed, (report.label, report.gaps)

    def test_j5_witness_value(self):
        vec, _ = witness_values("j5-sign-pair")
        assert vec.j5 == pytest.approx(12.5, rel=1e-9)
        for name in ("J3", "J7", "J9"):
            assert abs(vec[name]) <= 1e-8

    def test_j7_witness_value(self):
        vec, _ = witness_values("j7-sign-pair")
        expected = (6384263 - 55933 * math.sqrt(13033)) / 884736
        assert expected == pytest.approx(-0.00132174, abs=1e-8)
        assert vec.j7 == pytest.approx(expected, rel=1e-9)

    def test_j10_pair_values_and_agreement(self):
        left, right = witness_values("j10-separation")
        s5 = math.sqrt(5)
        assert left.j10 == pytest.approx(343 * (512675 + 216 * s5) / 4860000, rel=1e-9)
        assert right.j10 == pytest.approx(343 * (512675 - 216 * s5) / 4860000, rel=1e-9)
        assert left.j2 == pytest.approx(10.0, rel=1e-9)
        assert left.j4 == pytest.approx(1553 / 45, rel=1e-9)
        assert left.j6 == pytest.approx(98 / 135, rel=1e-9)
        assert left.j8 == pytest.approx(207319 / 40500, rel=1e-9)
        for name in INVARIANT_NAMES:
            if name == "J10":
                continue
            assert relative_gap(left[name], right[name]) <= 1e-9 or (
                abs(float(left[name])) <= 1e-9 and abs(float(right[name])) <= 1e-9)

    def test_printed_value_off_by_a_part_in_a_million_fails(self, monkeypatch):
        row = WITNESSES["j4-separation"]
        d3 = dict(row.printed[1], J4=22.0 * (1 + 1e-6))
        monkeypatch.setitem(WITNESSES, row.label,
                            w.Witness(row.label, row.build, (row.printed[0], d3)))
        assert not any(r.passed for r in verify_catalog() if r.label == row.label)


class TestSignPairs:
    def test_cubic_witness_pair(self):
        d = from_independent((8, 0, 0, -4, 0, 5, 5, 3, 0), backend=EXACT)
        pair = sign_pair(d)
        lv, rv = invariants(pair.left), invariants(pair.right)
        assert lv.j3 == -6480
        assert rv.j3 == 6480
        agree = tuple(n for n in BASES["smith_bao"] if n != "J3")
        assert check_pair(pair, agree, "J3")[0]

    def test_degree9_witness_pair(self):
        d = from_independent((0, 1, 0, 0, 0, Fraction(-3, 4), Fraction(1, 4), 1, 0),
                             backend=EXACT)
        pair = sign_pair(d)
        lv, rv = invariants(pair.left), invariants(pair.right)
        assert lv.j9 == Fraction(45, 8)
        assert rv.j9 == Fraction(-45, 8)
        agree = tuple(n for n in BASES["mixed"] if n != "J9")
        assert check_pair(pair, agree, "J9")[0]

    def test_all_odds_zero_marks_non_separating(self):
        d = from_independent((1, 0, 0, 0, 0, 0, 0, 0, 0), backend=EXACT)
        pair = sign_pair(d)
        for basis in BASES.values():
            for odd in ODD_INVARIANTS:
                agree = tuple(n for n in basis if n != odd)
                assert not check_pair(pair, agree, odd)[0]

    def test_inexact_flip_fails(self):
        pair = WITNESSES["j5-sign-pair"].build()
        lv, rv = invariants(pair.left), invariants(pair.right)
        agree = tuple(n for n in BASES["smith_bao"] if n != "J5")
        assert check_pair(pair, agree, "J5")[0]
        gate = w._gate(pair)
        assert gate == (w.ZERO_TOL, True)
        nudged = dict(rv.as_dict(), J5=math.nextafter(rv.j5, 0.0))
        assert not w._pair_check(lv, nudged, *gate)[1](agree, "J5")
        nudged = dict(rv.as_dict(), J6=math.nextafter(rv.j6, 0.0))
        assert not w._pair_check(lv, nudged, *gate)[1](agree, "J5")


class TestSextic:
    def test_printed_values(self):
        assert h_eval(0.15) == pytest.approx(-10.8359, abs=1e-3)
        assert h_eval(0.2) == pytest.approx(6.29856, abs=1e-3)

    def test_constant_term(self):
        assert h_eval(0) == -4

    def test_exact_rational_evaluation(self):
        assert h_eval(Fraction(1, 5)) == Fraction(19683, 3125)


class TestBisection:
    def test_root_of_the_sextic(self):
        result = bisect_root(h_eval, 0.15, 0.2, 1e-14)
        root = result.solution["root"]
        assert 0.15 < root < 0.2
        assert abs(h_eval(root)) <= 1e-10
        assert result.converged

    def test_iteration_bound(self):
        tol = 1e-14
        result = bisect_root(h_eval, 0.15, 0.2, tol)
        assert result.iterations <= math.ceil(math.log2((0.2 - 0.15) / tol))

    def test_tolerance_below_float_spacing_terminates(self):
        result = bisect_root(h_eval, 0.15, 0.2, 1e-300)
        assert result.iterations < 64
        assert abs(h_eval(result.solution["root"])) <= 1e-10

    def test_identity_function(self):
        result = bisect_root(lambda x: x, -1.0, 1.0, 1e-12)
        assert result.solution["root"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 0.0)])
    def test_root_at_a_bracket_end_is_returned(self, lo, hi):
        result = bisect_root(lambda t: t, lo, hi, 1e-3)
        assert result.solution["root"] == 0.0
        assert (result.residual_norm, result.iterations, result.converged) == (0.0, 0, True)

    def test_bracket_error(self):
        with pytest.raises(ValueError):
            bisect_root(lambda x: x * x + 1, -1.0, 1.0, 1e-12)

    def test_tiny_values_without_a_sign_change_raise(self):
        # 1e-200 * 1e-200 underflows to 0, so a product test saw no bracket error here
        with pytest.raises(ValueError, match="no sign change"):
            bisect_root(lambda t: 1e-200 * (t - 5), 0.0, 1.0, 1e-12)

    def test_tiny_values_keep_the_half_with_the_root(self):
        result = bisect_root(lambda t: 1e-200 * (t - 0.3), 0.0, 1.0, 1e-12)
        assert result.converged
        assert result.solution["root"] == pytest.approx(0.3, abs=1e-12)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            bisect_root(lambda x: x, -1.0, 1.0, 0.0)

    def test_rejects_nan_tolerance(self):
        with pytest.raises(ValueError, match="positive tolerance"):
            bisect_root(h_eval, 0.15, 0.2, math.nan)

    @pytest.mark.parametrize("lo, hi", [(0.2, 0.15), (0.15, 0.15), (math.nan, 0.2)])
    def test_rejects_a_bracket_not_in_order(self, lo, hi):
        with pytest.raises(ValueError, match="lo < hi"):
            bisect_root(h_eval, lo, hi, 1e-14)

    @pytest.mark.parametrize("f", [lambda t: math.nan, lambda t: math.nan if t == 1.0 else t])
    def test_nan_at_an_end_raises(self, f):
        with pytest.raises(ValueError, match="NaN"):
            bisect_root(f, 0.0, 1.0, 1e-3)

    @pytest.mark.parametrize("nan_at, tol", [(0.75, 1e-3), (0.5, 1.0)])
    def test_nan_at_a_midpoint_raises(self, nan_at, tol):
        # With tol = 1 no step is taken, and the NaN is at the returned root.
        with pytest.raises(ValueError, match=f"NaN at {nan_at}"):
            bisect_root(lambda t: math.nan if t == nan_at else t - 0.6, 0.0, 1.0, tol)


class TestJ8Family:
    @pytest.mark.parametrize("t", [-0.1, 0.0, 0.5, 0.7])
    def test_rejects_out_of_range(self, t):
        with pytest.raises(ValueError):
            j8_family(t)

    def test_restricted_components_are_zero(self):
        pair = j8_family(0.3)
        for tensor in (pair.left, pair.right):
            for idx in (0, 1, 3, 5, 7):
                assert tensor.indep[idx] == 0.0

    def test_odd_invariants_vanish_for_any_t(self):
        for t in (0.05, 0.2, 0.3, 0.45):
            pair = j8_family(t)
            for vec in (invariants(pair.left), invariants(pair.right)):
                for name in ODD_INVARIANTS:
                    assert abs(vec[name]) <= 1e-10

    def test_low_even_invariants_agree_for_any_t(self):
        for t in (0.1, 0.3, 0.45):
            pair = j8_family(t)
            left, right = invariants(pair.left), invariants(pair.right)
            for name in ("J2", "J4", "J6"):
                assert relative_gap(left[name], right[name]) <= 1e-12

    def test_j8_agrees_exactly_at_one_fifth(self):
        pair = j8_family(0.2)
        left, right = invariants(pair.left), invariants(pair.right)
        assert relative_gap(left.j8, right.j8) <= 1e-12
        assert relative_gap(left.j10, right.j10) <= 1e-12

    def test_j8_separates_at_generic_t(self):
        pair = j8_family(0.35)
        left, right = invariants(pair.left), invariants(pair.right)
        assert relative_gap(left.j8, right.j8) > 1e-6


class TestJ8Separation:
    def test_report_passes(self):
        report = verify_j8_separation()
        assert report.passed
        assert 0.15 < report.notes["solver"]["solution"]["root"] < 0.2
        assert report.notes["solver"]["residual_norm"] <= 1e-10
        assert report.gaps["J8"] > 1e-6
        assert report.notes["one_minus_5t_sq"] > 1e-3
        for name in report.agree:
            assert report.gaps[name] <= 1e-9


class TestAgreementSystems:
    def test_smith_bao_solution_matches_printed_digits(self):
        result = solve_agreement_system(J6_SYSTEMS["smith_bao"])
        assert result.converged
        assert result.residual_norm <= 1e-12
        sol = result.solution
        assert sol["D1123"] == pytest.approx(-0.406303, abs=1e-4)
        assert sol["D1223"] == pytest.approx(0.672665, abs=1e-4)
        assert sol["D2223"] == pytest.approx(1.12318, abs=1e-4)
        assert abs(sol["D1223_hat"]) == pytest.approx(1.17267, abs=1e-4)

    def test_mixed_solution_matches_printed_digits(self):
        result = solve_agreement_system(J6_SYSTEMS["mixed"])
        assert result.converged
        assert result.residual_norm <= 1e-12
        sol = result.solution
        assert sol["D1123"] == pytest.approx(-0.405381, abs=1e-4)
        assert sol["D1223"] == pytest.approx(0.67075, abs=1e-4)
        assert sol["D2223"] == pytest.approx(1.12345, abs=1e-4)
        assert abs(sol["D1223_hat"]) == pytest.approx(1.17075, abs=1e-4)

    def test_far_guess_reports_non_convergence(self):
        # where a start this far away ends follows the float engine's last bits
        live = [1, 2, 3]  # J4, J8, J10 of ("J2", "J4", "J8", "J10")
        result, = w._newton([([40.0, 55.0, -38.0], J6_SYSTEMS["smith_bao"], live)])
        assert not result.converged
        assert result.message

    @pytest.mark.parametrize("start", [(-0.4, 0.01, 1.1), (-0.4, 0.001, 1.1),
                                       (0.5, 0.05, -0.7)])
    def test_start_near_the_trivial_solution_collapses(self, start):
        # (D1123, delta, D2223) with delta = D1223 + 1/4 small: left and right nearly equal
        live = [1, 2, 3]  # J4, J8, J10 of ("J2", "J4", "J8", "J10")
        result, = w._newton([(start, J6_SYSTEMS["smith_bao"], live)])
        assert not result.converged
        assert result.message == "collapsed onto the trivial (left == right) solution"
        assert result.residual_norm <= w.SOLVE_TOL
        assert abs(result.solution["D1223"] + 0.25) < w._DELTA_FLOOR

    def test_singular_jacobian_is_reported(self, monkeypatch):
        monkeypatch.setattr(w, "_system_residuals", lambda points, matched: np.ones(
            (len(points), len(matched))))
        result = solve_agreement_system(J6_SYSTEMS["smith_bao"])
        assert not result.converged
        assert result.iterations == 0
        assert result.message == "singular Jacobian"

    def test_iteration_cap_reports_the_residual(self, monkeypatch):
        monkeypatch.setattr(w, "MAX_ITER", 1)
        result = solve_agreement_system(J6_SYSTEMS["smith_bao"])
        assert not result.converged
        assert result.iterations == 1
        assert result.message.startswith("residual ")

    def test_solution_validates_independently_of_solver(self):
        result = solve_agreement_system(J6_SYSTEMS["smith_bao"])
        pair = pair_from_solution(result)
        left, right = invariants(pair.left), invariants(pair.right)
        for name in J6_SYSTEMS["smith_bao"]:
            assert relative_gap(left[name], right[name]) <= 1e-11

    @pytest.mark.parametrize("matched", [(), ("J3",), ("J3", "J5", "J7"), ("J2", "J9")])
    def test_rejects_a_set_the_mirror_pairs_satisfy_identically(self, matched):
        with pytest.raises(ValueError, match="constrains nothing"):
            solve_agreement_system(matched)

    @pytest.mark.parametrize("matched", [
        ("J2", "J4", "J8"),
        ("J4", "J6", "J8", "J10"),
        ("J4", "J3"),
        ("J2", "J4", "K6", "J6", "J8", "J10"),
    ])
    def test_rejects_a_set_that_is_not_square(self, matched):
        live = len(set(matched) - {"J2", *ODD_INVARIANTS})
        with pytest.raises(ValueError, match=f"is not square: {live} live equations"):
            solve_agreement_system(matched)

    def test_a_name_given_twice_counts_once(self):
        repeated = solve_agreement_system(("J2", "J4", "J4", "J8", "J10"))
        assert repeated == solve_agreement_system(J6_SYSTEMS["smith_bao"])
        assert repeated.converged and repeated.iterations == 2

    @pytest.mark.parametrize("matched", [("J2", "X9"), ("J4", "j6")])
    def test_rejects_an_unknown_name(self, matched):
        with pytest.raises(ValueError, match=rf"unknown invariants \['{matched[1]}'\]"):
            solve_agreement_system(matched)

    def test_rejects_an_unhashable_name(self):
        with pytest.raises(ValueError, match=r"unknown invariants \[\['J6'\]\]"):
            solve_agreement_system(("J4", ["J6"]))

    def test_grid_seed_discovers_solution_without_guess(self):
        # no printed guess exists for this system, so the grid seeds the solve
        result = solve_agreement_system(("J2", "J4", "J6", "J10"))
        assert result.converged
        assert abs(result.solution["D1223"] + 0.25) > 1e-3

    @pytest.mark.parametrize("which,order", [
        ("smith_bao", ("J4", "J2", "J8", "J10")),
        ("smith_bao", ("J10", "J8", "J4", "J2")),
        ("mixed", ("K6", "J10", "J2", "J8")),
    ])
    def test_printed_guess_ignores_equation_order(self, which, order):
        canonical = solve_agreement_system(J6_SYSTEMS[which])
        reordered = solve_agreement_system(order)
        assert reordered.converged
        assert reordered.iterations <= 3
        for key, value in canonical.solution.items():
            assert reordered.solution[key] == pytest.approx(value, abs=1e-12)

    def test_pair_is_built_from_the_reported_values(self):
        # D1223 + 1/4 rounds for this delta: rebuilding delta from D1223 moved
        # the right tensor's D1223 one bit off the D1223_hat the solve reports
        delta = 3.578550498664788e-05
        sol = {"D1113": 1.0, "D1123": -0.4, "D1223": -0.25 + delta, "D2223": 1.1,
               "D1223_hat": -0.25 - delta}
        assert sol["D1223_hat"] == -0.2500357855049867
        assert -0.25 - (sol["D1223"] + 0.25) == -0.2500357855049866
        pair = pair_from_solution(w.SolveResult(sol, 0.0, 0, True))
        assert pair.left.indep[6] == sol["D1223"] and pair.right.indep[6] == sol["D1223_hat"]
        twin = mirror_pair(-0.4, delta, 1.1)
        assert (pair.left, pair.right) == (twin.left, twin.right)

    @pytest.mark.parametrize("which", sorted(J6_SYSTEMS))
    def test_residual_history(self, which):
        result = solve_agreement_system(J6_SYSTEMS[which])
        history = result.residual_history
        assert len(history) == result.iterations + 1 and history[-1] == result.residual_norm
        assert all(a > b for a, b in zip(history, history[1:]))
        assert history[1] <= history[0] ** 2  # the first step from the printed guess
        assert "residual_history" not in result.to_json_dict()


SMITH_BAO, MIXED = J6_SYSTEMS["smith_bao"], J6_SYSTEMS["mixed"]

#: A start around which the fixture below makes every residual 1: a singular Jacobian.
SINGULAR = (5000.0, 1.0, 1.0)


def newton_runs() -> dict:
    """(start, matched, live) runs that end in every way a run can end."""
    runs = {}
    for name, matched in (("smith_bao", SMITH_BAO), ("mixed", MIXED)):
        matched, live, (guess,) = w._system(matched)
        runs[name] = (guess, matched, live)
    matched, live, seeds = w._system(("J2", "J4", "J6", "J10"))
    runs["grid"] = (seeds[0], matched, live)
    runs["far"] = ([40.0, 55.0, -38.0], SMITH_BAO, [1, 2, 3])
    runs["collapse"] = ((-0.4, 0.01, 1.1), SMITH_BAO, [1, 2, 3])
    runs["singular"] = (SINGULAR, MIXED, [1, 2, 3])
    return runs


class TestNewtonBatch:
    """Runs solved together take, field for field, the steps they take alone."""

    @pytest.fixture
    def rounds(self, monkeypatch):
        """Points per residual call, in call order; every residual is 1 around SINGULAR."""
        sizes, residuals = [], w._system_residuals

        def patched(points, names):
            sizes.append(len(points))
            rows = residuals(points, names)
            rows[np.abs(np.asarray(points)[:, 0] - SINGULAR[0]) < 1e-6] = 1.0
            return rows

        monkeypatch.setattr(w, "_system_residuals", patched)
        return sizes

    @pytest.fixture
    def lone(self, rounds):
        """Each run of :func:`newton_runs` alone: its result and its number of probes."""
        runs = newton_runs()
        results = {}
        for name, run in runs.items():
            rounds.clear()
            results[name] = w._newton([run])[0], len(rounds)
            assert rounds == [7] * len(rounds)
        rounds.clear()
        return runs, results

    def test_lone_runs_end_every_way(self, lone):
        _, results = lone
        ends = {name: (r.converged, r.iterations, r.message) for name, (r, _) in results.items()}
        converged, _, message = ends.pop("far")  # its end follows the engine's last bits
        assert not converged and message
        assert ends == {
            "smith_bao": (True, 2, ""), "mixed": (True, 2, ""), "grid": (True, 31, ""),
            "collapse": (False, 5, "collapsed onto the trivial (left == right) solution"),
            "singular": (False, 0, "singular Jacobian"),
        }
        probes = {name: p for name, (_, p) in results.items()}
        halvings = {name: probes[name] - r.iterations - 1 for name, (r, _) in results.items()}
        assert halvings["grid"] > 0 == halvings["smith_bao"] == halvings["collapse"]
        assert len({probes[name] for name in ("smith_bao", "grid", "collapse", "singular")}) == 4

    @pytest.mark.parametrize("names", [
        *itertools.combinations(["smith_bao", "mixed", "grid", "far", "collapse", "singular"], 2),
        ("smith_bao", "mixed", "grid", "far", "collapse", "singular"),
        ("singular", "collapse", "far", "grid", "mixed", "smith_bao"),
    ])
    def test_batched_runs_equal_lone_runs(self, names, lone, rounds):
        runs, results = lone
        batched = w._newton([runs[name] for name in names])
        assert [repr(r) for r in batched] == [repr(results[name][0]) for name in names]
        # each round probes the runs still open; a run leaves after its last lone probe
        probes = [results[name][1] for name in names]
        assert rounds == [7 * sum(p > k for p in probes) for k in range(max(probes))]

    def test_systems_solved_together_equal_lone_solves(self):
        # ("J2", "J4", "K6", "J8") fails from all eight grid seeds, so its later
        # seeds run in batches of their own after the first
        systems = [SMITH_BAO, ("J2", "J4", "K6", "J8"), ("J2", "J4", "J6", "J10"), MIXED]
        together = w._solve_systems(systems)
        assert [r.converged for r in together] == [True, False, True, True]
        assert together == [solve_agreement_system(m) for m in systems]

    def test_verify_reports_the_lone_solves(self):
        reports = verify_witnesses()
        for which, matched in J6_SYSTEMS.items():
            assert reports[which, "J6"].notes["solver"] == (
                solve_agreement_system(matched).to_json_dict())

    @pytest.mark.parametrize("argv, sizes", [
        (["verify", "witnesses"], [28, 28, 28, 16]),
        (["solve", "smith-bao-j6"], [14, 14, 14, 2]),
        (["solve", "mixed-j6"], [14, 14, 14, 2]),
        (["solve", "j8-root"], [2]),
    ])
    def test_float_engine_calls(self, argv, sizes, monkeypatch, capsys):
        # the J6 solves of verify share each round's call: 2 runs x 7 points x 2 tensors
        calls, engine = [], w.invariants_float

        def counting(components):
            calls.append(len(components))
            return engine(components)

        monkeypatch.setattr(w, "invariants_float", counting)
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert calls == sizes


class TestJ6Separation:
    @pytest.mark.parametrize("which,digits", [
        ("smith_bao", (-0.406303, 0.672665, 1.12318)),
        ("mixed", (-0.405381, 0.67075, 1.12345)),
    ])
    def test_separation_report(self, which, digits):
        report = verify_j6_separation(which)
        assert report.passed
        sol = report.notes["solver"]["solution"]
        assert sol["D1123"] == pytest.approx(digits[0], abs=1e-4)
        assert sol["D1223"] == pytest.approx(digits[1], abs=1e-4)
        assert sol["D2223"] == pytest.approx(digits[2], abs=1e-4)
        for name in J6_SYSTEMS[which]:
            assert report.gaps[name] <= 1e-9
        for name in ODD_INVARIANTS:
            assert abs(report.left_values[name]) <= 1e-10
        assert report.gaps["J6"] > 1e-6

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            verify_j6_separation("boehler")


class TestReports:
    def test_full_sweep_passes(self):
        reports = verify_witnesses()
        assert set(reports) == set(w.all_cells())
        failures = [cell for cell, r in reports.items() if not r.passed]
        assert not failures

    def test_report_json_round_trips_fractions(self):
        report = next(r for r in verify_catalog() if r.label == "j2-separation")
        payload = report.to_json_dict()
        assert payload["left"]["J2"] == "8/1"
        json.dumps(payload)  # must be serializable as-is

    def test_report_json_shares_no_dict_with_the_report(self):
        for report in verify_witnesses().values():
            payload, want = report.to_json_dict(), json.dumps(report.to_json_dict())
            dicts = [payload]
            while dicts:
                d = dicts.pop()
                dicts.extend(v for v in d.values() if isinstance(v, dict))
                d.clear()
            assert json.dumps(report.to_json_dict()) == want

    def test_reports_of_one_pair_do_not_share_notes(self):
        reports = verify_witnesses()
        fresh = verify_witnesses()
        for one, sibling in ((("smith_bao", "J8"), ("mixed", "J8")),
                             (("smith_bao", "J3"), ("mixed", "J3"))):
            assert reports[one].label == reports[sibling].label
            reports[one].notes["x"] = 1
            if "solver" in reports[one].notes:
                reports[one].notes["solver"]["iterations"] = -5
                reports[one].notes["solver"]["solution"]["root"] = 0.0
            assert reports[sibling].notes == fresh[sibling].notes
        assert fresh["mixed", "J8"].notes["solver"]["iterations"] > 0

    def test_relative_gap_of_two_zeros(self):
        assert relative_gap(0.0, 0.0) == 0.0

    def test_mirror_pair_layout(self):
        pair = mirror_pair(0.5, 0.125, 1.0)
        assert pair.left.indep == (0.0, 0.0, 1.0, 0.0, 0.5, 0.0, -0.125, 0.0, 1.0)
        assert pair.right.indep == (0.0, 0.0, 1.0, 0.0, 0.5, 0.0, -0.375, 0.0, 1.0)
        assert all(type(v) is float for v in pair.left.indep + pair.right.indep)

    def test_gates_follow_from_the_pairs(self):
        # the vanish bound is 0 exactly for the pairs on the restricted
        # slice, and the flip test runs exactly for the (D, -D) pairs
        assert [f.name for f in fields(w.Witness)] == ["label", "build", "printed", "matched"]
        pairs = {label: row.build() for label, row in WITNESSES.items()}
        gates = {label: w._gate(pair) for label, pair in pairs.items()}
        assert {label for label, (vanish, _) in gates.items() if vanish == 0.0} == {
            "j8-separation", "smith_bao-j6-separation", "mixed-j6-separation",
            "j10-separation"}
        assert {vanish for vanish, _ in gates.values()} == {0.0, w.ZERO_TOL}
        assert {label for label, (_, flip) in gates.items() if flip} == set(w.SIGN_PAIRS)
        for label, (vanish, _) in gates.items():
            for tensor in (pairs[label].left, pairs[label].right):
                zeros = {i for i, v in enumerate(tensor.indep) if v == 0}
                assert (vanish == 0.0) == (zeros >= set(RESTRICTED_INDICES)), label

    def test_gate_of_pairs_built_here(self):
        on_slice = mirror_pair(-0.7, 0.9, 1.3)
        assert w._gate(on_slice) == (0.0, False)
        assert w._gate(sign_pair(on_slice.left)) == (0.0, True)
        off = list(on_slice.right.indep)
        off[RESTRICTED_INDICES[-1]] = 1e-300
        assert w._gate(replace(on_slice, right=Harmonic4(tuple(off)))) == (w.ZERO_TOL, False)
        assert w._gate(w.WitnessPair(on_slice.left, on_slice.left)) == (0.0, False)

    @pytest.mark.parametrize("size", [1, 14, 200])
    def test_float_engine_odds_are_exactly_zero_on_the_slice(self, size):
        # the 0 gate of a pair on the slice rests on this: no rounding residue
        rng = np.random.default_rng(size)
        odd = [INVARIANT_NAMES.index(name) for name in ODD_INVARIANTS]
        for _ in range(-(-2000 // size)):
            comps = rng.standard_normal((size, 9)) * 10.0 ** rng.uniform(-3, 3, (size, 1))
            comps[:, RESTRICTED_INDICES] = 0.0
            values = invariants_float(comps)
            assert values[:, 0].all()
            assert not values[:, odd].any()


def cli_witnesses_pass(capsys) -> bool:
    code = cli_main(["verify", "witnesses"])
    passed = json.loads(capsys.readouterr().out)["suites"]["witnesses"]["passed"]
    assert (code == 0) == passed
    return passed


class TestCells:
    def test_eighteen_cells_present_and_passing(self, capsys):
        assert len(CELLS) == 18
        assert set(CELLS) == {(b, m) for b, members in BASES.items() for m in members}
        reports = verify_witnesses()
        assert len(reports) == 18
        for (basis, member), report in reports.items():
            assert report.passed, (basis, member, report.label)
            assert report.label == CELLS[basis, member]
            assert report.differ == member
        assert cli_witnesses_pass(capsys)

    def test_agree_is_basis_minus_member(self):
        for (basis, member), report in verify_witnesses().items():
            assert report.agree == tuple(n for n in BASES[basis] if n != member)

    def test_mixed_cells_of_shared_pairs(self):
        reports = verify_witnesses()
        assert reports["mixed", "K6"].label == "j4-separation"
        assert reports["mixed", "K6"].left_values["K6"] == 128
        assert reports["mixed", "K6"].right_values["K6"] == pytest.approx(62.0, rel=1e-12)
        for member in ("J8", "J10"):
            assert reports["mixed", member].gaps["K6"] <= 1e-15

    @pytest.mark.parametrize("cell,label", [
        (("smith_bao", "J4"), None),
        (("mixed", "J9"), None),
        (("smith_bao", "J4"), "j2-separation"),
        (("mixed", "K6"), "mixed-j2-separation"),
        (("mixed", "J2"), "j2-separation"),
        (("smith_bao", "J6"), "mixed-j6-separation"),
    ])
    def test_wrong_or_missing_row_fails(self, cell, label, monkeypatch, capsys):
        table = dict(CELLS)
        if label is None:
            del table[cell]
        else:
            table[cell] = label
        monkeypatch.setattr(w, "CELLS", table)
        reports = verify_witnesses()
        assert set(reports) == set(w.all_cells())
        assert [c for c, r in reports.items() if not r.passed] == [cell]
        assert not cli_witnesses_pass(capsys)

    def test_flag_pass_matches_the_reports(self, capsys):
        flags = w.witness_flags()
        assert flags == {cell: (r.label, r.passed) for cell, r in verify_witnesses().items()}
        assert list(flags) == w.all_cells()
        assert cli_main(["verify", "witnesses"]) == 0
        cells = json.loads(capsys.readouterr().out)["suites"]["witnesses"]["cells"]
        assert {(b, m): (c["witness"], c["passed"]) for b, row in cells.items()
                for m, c in row.items()} == flags

    @pytest.mark.parametrize("cell,label", [
        (("smith_bao", "J5"), "no-such-witness"),
        (("mixed", "K6"), None),
        (("smith_bao", "J4"), "j2-separation"),
    ])
    def test_flag_pass_fails_what_the_reports_fail(self, cell, label, monkeypatch):
        monkeypatch.setattr(w, "CELLS", dict(CELLS) | {cell: label})
        flags = w.witness_flags()
        assert flags == {c: (r.label, r.passed) for c, r in verify_witnesses().items()}
        assert [c for c, (_, passed) in flags.items() if not passed] == [cell]
        assert flags[cell] == (label, False)

    def test_restricted_pairs_need_exactly_vanishing_odds(self):
        pair = WITNESSES["j8-separation"].build()
        lv, rv = invariants(pair.left), invariants(pair.right)
        agree = tuple(n for n in BASES["smith_bao"] if n != "J8")
        assert check_pair(pair, agree, "J8")[0]
        gate = w._gate(pair)
        assert gate == (0.0, False)
        assert not w._pair_check(lv, dict(rv.as_dict(), J5=1e-300), *gate)[1](agree, "J8")

    def test_j10_pair_agrees_on_j8_only_to_rounding(self, monkeypatch):
        # the j10 pair agrees on J8 to ~1e-15 relative: within REL_TOL, far above 1e-17
        pair = WITNESSES["j10-separation"].build()
        lv, rv = invariants(pair.left), invariants(pair.right)
        agree = tuple(n for n in BASES["smith_bao"] if n != "J10")
        assert 1e-17 < relative_gap(lv.j8, rv.j8) <= w.REL_TOL
        assert check_pair(pair, agree, "J10")[0]
        monkeypatch.setattr(w, "REL_TOL", 1e-17)
        assert not check_pair(pair, agree, "J10")[0]

    def test_separation_must_exceed_its_bound(self, monkeypatch):
        # With SEPARATION = 1 the bound on the J8 gap is the agree tolerance
        # itself, so an agree tolerance equal to the gap must fail.
        pair = WITNESSES["j8-separation"].build()
        lv, rv = invariants(pair.left), invariants(pair.right)
        agree = tuple(n for n in BASES["smith_bao"] if n != "J8")
        gap = relative_gap(lv.j8, rv.j8)
        monkeypatch.setattr(w, "SEPARATION", 1.0)
        monkeypatch.setattr(w, "REL_TOL", gap * 0.99)
        assert check_pair(pair, agree, "J8")[0]
        monkeypatch.setattr(w, "REL_TOL", gap)
        assert not check_pair(pair, agree, "J8")[0]


def table_tensors():
    """The 22 tensors of the eleven witness pairs, left then right."""
    pairs = [row.build() for row in WITNESSES.values()]
    return [t for pair in pairs for t in (pair.left, pair.right)]


def hexed(values):
    return {n: v.hex() if isinstance(v, float) else v for n, v in values.items()}


class TestTablePass:
    def test_stacked_values_equal_per_tensor_invariants(self):
        tensors = table_tensors()
        assert len(tensors) == 22
        for t, values in zip(tensors, w._table_values(tensors)):
            assert list(values) == list(INVARIANT_NAMES)
            if t.backend == EXACT:
                assert all(type(v) is Fraction for v in values.values())
                assert values == invariants_oracle(t).as_dict()
            else:
                assert all(type(v) is float for v in values.values())
            assert hexed(values) == hexed(invariants(t).as_dict())

    def test_float_engine_rows_do_not_depend_on_the_stack(self):
        floats = [t for t in table_tensors() if t.backend != EXACT]
        tensors = floats + [random_harmonic(s) for s in range(24)]
        stack = np.array([t.indep for t in tensors])
        alone = [invariants_float(row[None]) for row in stack]
        for n in (2, 3, 7, 16, 17, len(tensors)):
            for start in (0, len(tensors) - n):
                rows = invariants_float(stack[start:start + n])
                for k, row in enumerate(rows):
                    assert [v.hex() for v in row.tolist()] == [
                        v.hex() for v in alone[start + k][0].tolist()]

    def test_each_build_and_each_exact_tensor_runs_once(self, monkeypatch):
        # a solved row is solved in the batch, not built: one of the two per row
        builds, evaluated = Counter(), Counter()

        def counted(row):
            def build():
                builds[row.label] += 1
                return row.build()
            return replace(row, build=build)

        table = {label: counted(row) for label, row in WITNESSES.items()}
        monkeypatch.setattr(w, "WITNESSES", table)
        solve_systems = w._solve_systems

        def counting_solves(systems):
            builds.update(label for label, row in WITNESSES.items() if row.matched in systems)
            return solve_systems(systems)

        monkeypatch.setattr(w, "_solve_systems", counting_solves)

        def counting(t):
            evaluated[t] += 1
            return invariants(t)

        monkeypatch.setattr(w, "invariants", counting)
        reports = verify_witnesses()
        assert all(r.passed for r in reports.values())
        assert builds == Counter(set(CELLS.values()))
        assert all(t.backend == EXACT for t in evaluated)
        assert len(evaluated) == 5  # D1 is in two pairs; two sign pairs hold the rest
        assert set(evaluated.values()) == {1}

    def test_reports_own_their_values(self):
        reports = verify_witnesses()
        first, second = reports["smith_bao", "J8"], reports["mixed", "J8"]
        notes = json.dumps(second.notes)
        first.left_values["J2"] = first.gaps["J2"] = None
        first.notes["solver"]["solution"]["root"] = None
        first.notes["solver"]["solution"]["x"] = 1
        assert second.left_values["J2"] is not None and second.gaps["J2"] is not None
        assert json.dumps(second.notes) == notes

    def test_backend_is_scanned_once_per_tensor(self):
        tensors = [Harmonic4(t.indep) for t in table_tensors()]  # none scanned yet
        assert not any("backend" in vars(t) for t in tensors)
        w._table_values(tensors)
        assert Counter(vars(t)["backend"] for t in tensors) == {FLOAT: 16, EXACT: 6}

    @pytest.fixture
    def probe_sizes(self, monkeypatch):
        """The number of points in each residual call, in call order."""
        calls = []
        residuals = w._system_residuals

        def counting(points, matched):
            calls.append(len(points))
            return residuals(points, matched)

        monkeypatch.setattr(w, "_system_residuals", counting)
        return calls

    @pytest.mark.parametrize("which", sorted(J6_SYSTEMS))
    def test_converged_solve_evaluates_one_probe_per_iteration(self, which, probe_sizes):
        result = solve_agreement_system(J6_SYSTEMS[which])
        assert result.converged and result.iterations == 2
        assert probe_sizes == [7] * (result.iterations + 1)

    def test_halved_retries_carry_their_bumps(self, probe_sizes):
        result = solve_agreement_system(("J2", "J4", "J6", "J10"))  # grid-seeded
        assert result.converged and result.iterations == 31
        probes = probe_sizes[1:]  # after the grid
        assert len(probes) > result.iterations + 1  # some steps were halved
        assert set(probes) == {7}


class TestGaps:
    def test_reported_gaps_are_relative_gaps(self):
        for cell, report in verify_witnesses().items():
            for n in INVARIANT_NAMES:
                want = relative_gap(report.left_values[n], report.right_values[n])
                assert float.hex(report.gaps[n]) == float.hex(want), (cell, n)

    @pytest.mark.parametrize("a, b", [(0.0, math.nan), (math.nan, 0.0), (1.0, math.nan),
                                      (math.nan, Fraction(1, 3)), (math.nan, math.nan)])
    def test_relative_gap_of_a_nan_is_nan(self, a, b):
        assert math.isnan(relative_gap(a, b))

    @pytest.mark.parametrize("side", [0, 1])
    def test_a_nan_value_fails_its_cell(self, side):
        pairs = {label: row.build() for label, row in WITNESSES.items()}
        for (basis, member), report in verify_witnesses().items():
            gate = w._gate(pairs[report.label])
            for n in report.agree + (member,):
                values = [dict(report.left_values), dict(report.right_values)]
                values[side][n] = math.nan
                assert not w._pair_check(*values, *gate)[1](report.agree, member), (
                    basis, member, n)


FIXED_PAIRS = w.CATALOG_PAIRS + w.SIGN_PAIRS


class TestFixedPairs:
    """The catalog and sign pairs are built once; the J6 and J8 pairs on each call."""

    @pytest.mark.parametrize("label", FIXED_PAIRS)
    def test_each_build_is_a_new_pair_of_the_same_tensors(self, label):
        first, second = WITNESSES[label].build(), WITNESSES[label].build()
        assert first is not second and first.notes is not second.notes
        assert first.left is second.left and first.right is second.right
        if label in w.SIGN_PAIRS:
            assert first.right == -first.left

    def test_catalog_rows_hold_the_module_tensors(self):
        for label, (left, right) in {"j2-separation": (w._D1, w._D2),
                                     "j4-separation": (w._D1, w._D3),
                                     "mixed-j2-separation": (w._M1, w._M2)}.items():
            pair = WITNESSES[label].build()
            assert pair.left is left and pair.right is right

    def test_mutated_reports_leave_the_next_run_unchanged(self):
        def encoded(reports):
            return json.dumps({str(cell): r.to_json_dict() for cell, r in reports.items()})

        want = encoded(verify_witnesses())
        for report in verify_witnesses().values():
            report.left_values.clear()
            report.gaps["J2"] = None
            for note in report.notes.values():
                if isinstance(note, dict):
                    note.clear()
            report.notes["x"] = 1
        for label in FIXED_PAIRS:
            WITNESSES[label].build().notes["x"] = 1
        assert encoded(verify_witnesses()) == want

    def test_solved_rows_solve_on_each_call(self, monkeypatch):
        calls = Counter()
        solve, bisect = w._solve_systems, w.bisect_root

        def counting_solve(systems):
            calls.update(map(tuple, systems))
            calls["batch"] += 1
            return solve(systems)

        def counting_bisect(*args):
            calls["bisect"] += 1
            return bisect(*args)

        monkeypatch.setattr(w, "_solve_systems", counting_solve)
        monkeypatch.setattr(w, "bisect_root", counting_bisect)
        for n in (1, 2):
            assert all(r.passed for r in verify_witnesses().values())
            assert calls == {J6_SYSTEMS["smith_bao"]: n, J6_SYSTEMS["mixed"]: n, "bisect": n,
                             "batch": n}
