"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the criterion.  Numbered for traceability; run
serially in one process so the symbolic cache is shared.
"""

import math
import time
from fractions import Fraction

import pytest

import harmonic4 as h4
from harmonic4.cli import main as cli_main
from harmonic4.polynomial import parity_expected
from harmonic4.witnesses import J6_SYSTEMS, relative_gap


def report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number}: {detail}")
    return ok


def test_criterion_1_symbolic_identity():
    start = time.time()
    residual = h4.verify_k6_identity()
    elapsed = time.time() - start
    ok = residual.is_zero() and elapsed < 60
    assert report(1, ok, f"identity residual {len(residual)} terms in {elapsed:.1f}s "
                         "(exact, limit 60s)")


def test_criterion_2_parity_and_restriction():
    parity_ok = h4.verify_parity() == parity_expected()
    survivors = h4.verify_restriction_lemma()
    restriction_ok = all(p.is_zero() for p in survivors.values())
    ok = parity_ok and restriction_ok
    assert report(2, ok, f"parity classification exact={parity_ok}, "
                         f"restriction survivors zero={restriction_ok}")


def test_criterion_3_paper_value_regression():
    reports = h4.verify_catalog(rel_tol=1e-9)
    failures = [r.label for r in reports if not r.passed]

    # exact-mode spot checks on the rational witnesses
    d1 = h4.invariants(h4.from_independent((1, 0, 0, 0, 0, 0, 0, 0, 0), backend=h4.EXACT))
    exact_ok = (d1.j2, d1.j4) == (8, 32)
    j3w = h4.invariants(h4.from_independent((8, 0, 0, -4, 0, 5, 5, 3, 0), backend=h4.EXACT))
    exact_ok = exact_ok and j3w.j3 == -6480
    j9w = h4.invariants(h4.from_independent(
        (0, 1, 0, 0, 0, Fraction(-3, 4), Fraction(1, 4), 1, 0), backend=h4.EXACT))
    exact_ok = exact_ok and j9w.j9 == Fraction(45, 8)

    ok = not failures and exact_ok
    assert report(3, ok, f"catalog regression: {len(reports)} entries, "
                         f"failures={failures or 'none'}, exact spot checks={exact_ok}")


def test_criterion_4_oracle_equivalence():
    mismatches = 0
    for seed in range(100):
        d = h4.random_harmonic(seed, backend=h4.EXACT)
        if h4.invariants(d) != h4.invariants_oracle(d):
            mismatches += 1
    ok = mismatches == 0
    assert report(4, ok, f"optimized vs naive oracle on 100 rational tensors, "
                         f"mismatches={mismatches} (exact)")


def test_criterion_5_isotropy():
    start = time.time()
    passed, reports = h4.isotropy_suite(num_tensors=20, trials=1000, seed=42)
    elapsed = time.time() - start
    worst = max(max(r.deviations.values()) for r in reports)
    gates_ok = all(dev <= (1e-8 if h4.INVARIANT_DEGREES[name] <= 6 else 1e-7)
                   for r in reports for name, dev in r.deviations.items())
    ok = passed and gates_ok and elapsed < 30
    assert report(5, ok, f"20 tensors x 1000 O(3) samples in {elapsed:.1f}s "
                         f"(limit 30s), worst deviation {worst:.2e} "
                         "(bounds 1e-8 / 1e-7)")


def test_criterion_6_j8_witness():
    root_result = h4.bisect_root(h4.h_eval, 0.15, 0.2, 1e-14)
    t_star = root_result.solution["root"]
    bracket_ok = 0.15 < t_star < 0.2 and abs(h4.h_eval(t_star)) <= 1e-10
    endpoints_ok = (abs(h4.h_eval(0.15) + 10.8359) <= 1e-3
                    and abs(h4.h_eval(0.2) - 6.29856) <= 1e-3)
    witness = h4.verify_j8_separation(rel_tol=1e-9)
    agree_ok = all(witness.gaps[n] <= 1e-9 for n in witness.agree)
    sep_ok = witness.gaps["J8"] > 1e-6
    ok = bracket_ok and endpoints_ok and witness.passed and agree_ok and sep_ok
    assert report(6, ok, f"t*={t_star:.10f}, |h(t*)|={abs(h4.h_eval(t_star)):.1e} "
                         f"(<=1e-10), J8 gap {witness.gaps['J8']:.2e} (>1e-6), "
                         f"agreements <=1e-9: {agree_ok}")


@pytest.mark.parametrize("which,digits,hat", [
    ("smith_bao", (-0.406303, 0.672665, 1.12318), 1.17267),
    ("mixed", (-0.405381, 0.67075, 1.12345), 1.17075),
])
def test_criterion_7_j6_witnesses(which, digits, hat):
    result = h4.solve_agreement_system(J6_SYSTEMS[which])
    sol = result.solution
    newton_ok = result.converged and result.residual_norm <= 1e-12
    digits_ok = (abs(sol["D1123"] - digits[0]) <= 1e-4
                 and abs(sol["D1223"] - digits[1]) <= 1e-4
                 and abs(sol["D2223"] - digits[2]) <= 1e-4
                 and abs(abs(sol["D1223_hat"]) - hat) <= 1e-4)
    witness = h4.verify_j6_separation(which, rel_tol=1e-9)
    matched_ok = all(witness.gaps[n] <= 1e-9 for n in J6_SYSTEMS[which])
    odd_ok = all(abs(witness.left_values[n]) <= 1e-10 and
                 abs(witness.right_values[n]) <= 1e-10
                 for n in ("J3", "J5", "J7", "J9"))
    sep_ok = witness.gaps["J6"] > 1e-6
    ok = newton_ok and digits_ok and witness.passed and matched_ok and odd_ok and sep_ok
    assert report(7, ok, f"{which}: residual {result.residual_norm:.1e} (<=1e-12), "
                         f"digits within 1e-4: {digits_ok}, J6 gap "
                         f"{witness.gaps['J6']:.2e} (>1e-6), odds vanish: {odd_ok}")


def test_criterion_8_j4_reconstruction():
    failures = 0
    checked = 0
    seed = 0
    while checked < 100:
        vec = h4.invariants(h4.random_harmonic(seed, backend=h4.EXACT))
        seed += 1
        if vec.j2 == 0:
            continue
        checked += 1
        if h4.j4_from_mixed(vec.j2, vec.j3, vec.j6, vec.k6) != vec.j4:
            failures += 1
    zero_ok = h4.j4_from_mixed(0, 0, 0, 0) == 0
    ok = failures == 0 and zero_ok
    assert report(8, ok, f"J4 reconstruction exact on {checked} tensors, "
                         f"failures={failures}, zero branch={zero_ok}")


def test_criterion_9_verify_all_end_to_end(capsys):
    start = time.time()
    code = cli_main(["verify", "all"])
    elapsed = time.time() - start
    capsys.readouterr()  # swallow the CLI JSON; timing and exit code matter here
    ok = code == 0 and elapsed < 180
    assert report(9, ok, f"`verify all` exit={code} in {elapsed:.1f}s (limit 180s)")
