"""The batched float engine against the per-tensor loops it replaced.

The loops below are the former single-tensor float paths, kept here as
references: the 81-entry fill of ``Harmonic4.to_array``, a naive
four-index rotation and the per-trial isotropy loop.  A scalar
SplitMix64 in Python ints, stepped as in Vigna's splitmix64.c, is the
reference for the vectorised seed stream, and each seed's draws are
rebuilt from its words one value at a time, with numpy ufuncs on
1-element arrays for sqrt, log1p, sin and cos.
"""

import importlib
import math
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from harmonic4 import (
    EXACT,
    FLOAT,
    INVARIANT_DEGREES,
    INVARIANT_NAMES,
    Harmonic4,
    from_array,
    from_independent,
    invariants,
    invariants_oracle,
    isotropy_check,
    isotropy_suite,
    random_harmonic,
    random_rotation,
    rotate,
)
from harmonic4 import rotations
from harmonic4.invariants import invariants_float, invariants_of_views, pair_view_float
from harmonic4.rotations import haar_matrices, rotate_float, trial_seeds
from harmonic4.tensor import (INDEPENDENT_SLOTS, _random_components, _seed_stream, expand_float,
                              slots_float)

#: Relative tolerance of the float engine against the exact oracle, measured
#: against max(|J|, ||D||_F^k): a few hundred ulps of the largest term.
ORACLE_RTOL = 1e-12
#: Rotation against the naive einsum reference, relative to the largest |D_ijkl|
#: (every term of a rotated entry is at most that large; 81 terms, 5 factors).
ROTATE_RTOL = 1e-14


def loop_array(d: Harmonic4) -> np.ndarray:
    """The former ``Harmonic4._array``: one Python assignment per entry."""
    arr = np.empty((3, 3, 3, 3))
    full = d.expand()
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 4):
                for l in range(1, 4):
                    arr[i - 1, j - 1, k - 1, l - 1] = full[tuple(sorted((i, j, k, l)))]
    return arr


def exact_rotation(components, q) -> list:
    """Q_ai Q_bj Q_ck Q_dl D_ijkl at the nine independent slots, in Fractions, for any 3x3 Q.

    Four passes over all 81 row-major entries; each sums out the last index
    against a row of Q and puts the new index first.
    """
    full = Harmonic4(tuple(Fraction(v) for v in components)).expand()
    t = [full[tuple(sorted(ix))] for ix in product((1, 2, 3), repeat=4)]
    m = [[Fraction(v) for v in row] for row in q]
    for _ in range(4):
        t = [a * t[n] + b * t[n + 1] + c * t[n + 2] for a, b, c in m for n in range(0, 81, 3)]
    return [t[27 * i + 9 * j + 3 * k + l - 40] for i, j, k, l in INDEPENDENT_SLOTS]


#: Stack sizes of the float engine's callers: one tensor, a bisection pair,
#: a Newton probe (7 points x 2), the witness table, and isotropy blocks.
STACK_SIZES = (1, 2, 14, 16, 200, 1024)
#: The sorted index pairs, the rows and columns of the pair view.
PAIRS = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))


def natural_scale(vec, name):
    """max(|J|, ||D||_F^k): the size of the terms J is summed from."""
    j2 = float(vec["J2"])
    return max(abs(float(vec[name])), j2 ** (INVARIANT_DEGREES[name] / 2))


class TestArrayView:
    @pytest.mark.parametrize("seed", range(20))
    def test_bit_identical_to_loop(self, seed):
        d = random_harmonic(seed, backend=FLOAT)
        assert d.to_array().tobytes() == loop_array(d).tobytes()

    def test_signed_zeros_survive(self):
        d = Harmonic4((-0.0, 0.0, -0.0, -0.0, 0.0, -0.0, -0.0, -0.0, -0.0))
        got, want = d.to_array(), loop_array(d)
        assert got.tobytes() == want.tobytes()
        assert np.signbit(got).any()

    def test_infinity_does_not_spread_nan(self):
        d = Harmonic4((math.inf, 0.0, -0.0, 1.0, 0.0, -0.0, -0.0, -0.0, -0.0))
        assert d.to_array().tobytes() == loop_array(d).tobytes()

    def test_read_only(self):
        arr = random_harmonic(3, backend=FLOAT).to_array()
        with pytest.raises(ValueError):
            arr[0, 0, 0, 0] = 1.0

    def test_stack_rows_match_single_tensors(self):
        tensors = [random_harmonic(s, backend=FLOAT) for s in range(5)]
        stack = expand_float([d.indep for d in tensors])
        for row, d in zip(stack, tensors):
            assert row.tobytes() == d.to_array().tobytes()

    def test_independent_gather_inverts_expand(self):
        comps = np.random.default_rng(4).standard_normal((6, 9))
        for row, entries in zip(comps, expand_float(comps)):
            assert from_array(entries.reshape(3, 3, 3, 3)).indep == tuple(row.tolist())
        d = random_harmonic(11, backend=FLOAT)
        assert from_array(loop_array(d)) == d

    def test_pair_view_holds_the_array_entries(self):
        tensors = [random_harmonic(s, backend=FLOAT) for s in range(5)]
        tensors.append(Harmonic4((-0.0, 0.0, -0.0, -0.0, 0.0, -0.0, -0.0, -0.0, -0.0)))
        for d, view in zip(tensors, pair_view_float([d.indep for d in tensors])):
            arr = d.to_array()
            for p, (i, j) in enumerate(PAIRS):
                for q, (k, l) in enumerate(PAIRS):
                    assert view[p, q].tobytes() == arr[i - 1, j - 1, k - 1, l - 1].tobytes()


class TestBatchedInvariants:
    @pytest.mark.parametrize("n", [1, 7])
    def test_matches_oracle(self, n):
        exact = [random_harmonic(100 + s, backend=EXACT) for s in range(n)]
        values = invariants_float([[float(v) for v in d.indep] for d in exact])
        assert values.shape == (n, len(INVARIANT_NAMES))
        for row, d in zip(values, exact):
            want = invariants_oracle(d)
            for col, name in enumerate(INVARIANT_NAMES):
                err = abs(row[col] - float(want[name]))
                assert err <= ORACLE_RTOL * natural_scale(want, name), name

    def test_single_tensor_path_is_the_n1_case(self):
        comps = _random_components(range(max(STACK_SIZES)))
        alone = [invariants(Harmonic4(tuple(c.tolist()))) for c in comps]
        alone = [[vec[name] for name in INVARIANT_NAMES] for vec in alone]
        for n in STACK_SIZES:
            for start in (0, len(comps) - n):
                rows = invariants_float(comps[start:start + n]).tolist()
                assert rows == alone[start:start + n], n


#: binary64 unit roundoff.
U = 2.0**-53
#: The golden CLI tensor (tests/test_cli_golden.py) as binary64 components.
GOLDEN = tuple(float(Fraction(v)) for v in ("1/2", "-3", "0", "2", "1/3", "-1", "0", "5/4", "2"))


class TestAccuracy:
    """The float engine against exact arithmetic on the same binary64 inputs.

    The bounds are measured, not derived: over 301 tensors the worst
    invariant error was 2.9u ||D||_F^k and the worst rotated component
    was 6.5u max |D_i|; on these 65 inputs they are 2.4u and 4.7u.  They
    hold the float engine to a few rounding errors whatever its formula;
    ROADMAP item 2(b) will derive them.
    """

    COMPONENTS = np.vstack([_random_components(range(64)), [GOLDEN]])

    def test_invariants_within_8u_of_the_exact_values(self):
        for row, comps in zip(invariants_float(self.COMPONENTS), self.COMPONENTS):
            exact = invariants(Harmonic4(tuple(Fraction(v) for v in comps.tolist())))
            norm = float(exact.j2) ** 0.5
            for value, name in zip(row.tolist(), INVARIANT_NAMES):
                err = abs(Fraction(value) - exact[name])
                assert err <= 8 * U * norm ** INVARIANT_DEGREES[name], name

    def test_rotation_within_16u_of_the_exact_mode_products(self):
        qs = haar_matrices(range(100, 100 + len(self.COMPONENTS)))
        for row, comps, q in zip(rotate_float(self.COMPONENTS, qs), self.COMPONENTS, qs):
            exact = exact_rotation(comps.tolist(), q.tolist())
            err = max(abs(Fraction(v) - x) for v, x in zip(row.tolist(), exact))
            assert err <= 16 * U * np.abs(comps).max()


def _small_integer_rows(count):
    """``count`` tensors with components in {-1, 0, 1} and all ten exact invariants below
    2^50, as (components, exact invariants as floats)."""
    rows = []
    for comps in list(product((-1, 0, 1), repeat=9))[::65]:
        exact = [invariants(Harmonic4(comps))[name] for name in INVARIANT_NAMES]
        if all(abs(v) < 2**50 for v in exact):
            rows.append((comps, [float(v) for v in exact]))
    assert len(rows) >= count
    comps, exact = zip(*rows[:count])
    return np.array(comps, dtype=float), np.array(exact)


class TestExactWhereBinary64Is:
    """On small integer tensors every intermediate of the float engine is an integer that
    binary64 holds exactly, in any summation order, so its output is the exact value bit for
    bit: a wrong Gram entry or weight shows as a wrong number, not as a rounding error."""

    COMPONENTS, EXACT_VALUES = _small_integer_rows(300)

    def test_stack_equals_the_exact_values(self):
        assert invariants_float(self.COMPONENTS).tobytes() == self.EXACT_VALUES.tobytes()

    def test_each_row_alone_equals_the_exact_values(self):
        for comps, exact in zip(self.COMPONENTS, self.EXACT_VALUES):
            assert invariants_float([comps])[0].tobytes() == exact.tobytes(), comps

    def test_a_swapped_form_is_caught(self, monkeypatch):
        engine = importlib.import_module("harmonic4.invariants")
        cols = engine._FORM_COLS.copy()
        j6, j8 = (INVARIANT_NAMES.index(name) - 2 for name in ("J6", "J8"))
        cols[[j6, j8]] = cols[[j8, j6]]
        monkeypatch.setattr(engine, "_FORM_COLS", cols)
        assert invariants_float(self.COMPONENTS).tobytes() != self.EXACT_VALUES.tobytes()

    def test_a_swapped_pair_table_row_is_caught(self, monkeypatch):
        engine = importlib.import_module("harmonic4.invariants")
        jk = engine._JK.copy()
        jk[:, [0, 1]] = jk[:, [1, 0]]  # the (j, k) positions of pairs 11 and 12 exchanged
        monkeypatch.setattr(engine, "_JK", jk)
        assert invariants_float(self.COMPONENTS).tobytes() != self.EXACT_VALUES.tobytes()


MASK64 = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15


def stream_words(seed, count, start=0):
    """Words start .. start + count - 1 of the seed's stream, as Python ints.

    SplitMix64 as splitmix64.c steps it: the state starts at the seed,
    and each word adds gamma to the state and returns its finalised mix.
    ``start`` skips ahead by adding start * gamma at once.
    """
    state = (seed + start * GAMMA) & MASK64
    words = []
    for _ in range(count):
        state = (state + GAMMA) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        words.append(z ^ (z >> 31))
    return words


def uniform(word):
    """The top 53 bits of a stream word as a float in [0, 1)."""
    return (word >> 11) / 2**53


def ufunc(f, x):
    """The numpy ufunc ``f`` at one float, on a 1-element array."""
    return f(np.array([x]))[0].item()


def scalar_exact_components(words):
    """One exact tensor's nine Fractions from stream words, one value at a time.

    Each component takes a numerator w % 25 - 12, then a denominator
    w % 12 + 1, from the next word w below 2**64 - 2**64 % n for its
    modulus n; words at or above that bound are skipped.
    """
    values = []
    for w in words:
        n = (25, 12)[len(values) % 2]
        if w < 2**64 - 2**64 % n:
            values.append(w % n)
    return tuple(Fraction(values[p] - 12, values[p + 1] + 1) for p in range(0, 18, 2))


def scalar_haar_matrix(seed):
    """One Haar matrix in Python floats: Shoemake's quaternion, then the coin flip."""
    words = stream_words(seed, 4)
    u1, u2, u3 = (uniform(w) for w in words[:3])
    a, b = ufunc(np.sqrt, 1 - u1), ufunc(np.sqrt, u1)
    w, x = (a * ufunc(f, 2 * np.pi * u2) for f in (np.sin, np.cos))
    y, z = (b * ufunc(f, 2 * np.pi * u3) for f in (np.sin, np.cos))
    rows = (
        (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
    )
    if words[3] >> 63:
        rows = tuple((r[0], r[1], -r[2]) for r in rows)
    return np.array(rows)


def scalar_components(seed):
    """One tensor's nine components in Python floats: Box-Muller on words 0-9."""
    u = [uniform(w) for w in stream_words(seed, 10)]
    out = []
    for p in range(5):
        radius = ufunc(np.sqrt, -2 * ufunc(np.log1p, -u[2 * p]))
        out += (radius * ufunc(f, 2 * np.pi * u[2 * p + 1]) for f in (np.cos, np.sin))
    return tuple(out[:9])


class TestHaarStack:
    def test_rows_equal_random_rotation(self):
        seeds = list(range(40)) + trial_seeds(42, 60)
        stack = haar_matrices(seeds)
        assert stack.shape == (len(seeds), 3, 3)
        for q, s in zip(stack, seeds):
            assert np.array_equal(q, scalar_haar_matrix(s))
            assert np.array_equal(q, random_rotation(s).to_array())

    def test_rows_do_not_depend_on_the_stack(self):
        seeds = trial_seeds(3, 40)
        full = haar_matrices(seeds)
        for start in (0, 1, 5):
            for count in range(1, 20):
                part = haar_matrices(seeds[start:start + count])
                assert np.array_equal(part, full[start:start + count])

    def test_reflections_present(self):
        dets = np.linalg.det(haar_matrices(range(40)))
        assert set(np.round(dets).astype(int)) == {-1, 1}


class TestBatchedRotation:
    def test_matches_naive_einsum(self):
        tensors = [random_harmonic(s, backend=FLOAT) for s in range(6)]
        qs = haar_matrices(range(6))
        rotated = rotate_float([d.indep for d in tensors], qs)
        for comps, d, q in zip(rotated, tensors, qs):
            want = np.einsum("ai,bj,ck,dl,ijkl->abcd", q, q, q, q, d.to_array())
            got = expand_float(comps[None]).reshape(3, 3, 3, 3)
            assert np.abs(got - want).max() <= ROTATE_RTOL * np.abs(d.to_array()).max()

    def test_one_tensor_broadcasts_over_matrices(self):
        d = random_harmonic(8, backend=FLOAT)
        seeds = range(max(STACK_SIZES))
        alone = [rotate(d, random_rotation(s)).indep for s in seeds]
        qs = haar_matrices(seeds)
        for n in STACK_SIZES:
            for start in (0, len(qs) - n):
                stack = rotate_float([d.indep], qs[start:start + n])
                assert [tuple(row) for row in stack.tolist()] == alone[start:start + n], n

    def test_stacked_rows_are_the_n1_case(self):
        n = max(STACK_SIZES)
        comps, qs = _random_components(range(n)), haar_matrices(range(n, 2 * n))
        alone = [rotate_float(c[None], q[None])[0].tolist() for c, q in zip(comps, qs)]
        for n in STACK_SIZES:
            for start in (0, len(qs) - n):
                stack = rotate_float(comps[start:start + n], qs[start:start + n])
                assert stack.tolist() == alone[start:start + n], n

    @pytest.mark.skipif(not __debug__, reason="the check runs in debug builds only")
    @pytest.mark.parametrize("slot", range(6))
    def test_debug_check_catches_broken_completion(self, slot):
        comps = np.random.default_rng(slot).standard_normal((3, 9))
        views = pair_view_float(comps).reshape(3, 36)
        rotations._assert_traceless(views, slots_float(comps))
        views[1, rotations._DEPENDENT_PAIRS[slot]] += 1e-6
        with pytest.raises(AssertionError, match=str(rotations.tc.DEPENDENT_SLOTS[slot])):
            rotations._assert_traceless(views, slots_float(comps))

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_accepted_shapes_equal_one_rotation_at_a_time(self, n):
        comps, qs = _random_components(range(n + 1)), haar_matrices(range(50, 51 + n))
        one_c, one_q, cs, ms = comps[:1], qs[:1], comps[1:], qs[1:]
        for c, q, pairs in ((one_c, ms, [(one_c[0], m) for m in ms]),
                            (cs, one_q, [(v, one_q[0]) for v in cs]),
                            (cs, ms, list(zip(cs, ms)))):
            got = rotate_float(c, q)
            assert got.shape == (n, 9)
            assert got.tobytes() == np.array([one_rotation(v, m) for v, m in pairs]).tobytes()


def one_rotation(c, q) -> list:
    """K D K^T of one tensor by one matrix as 6x6 products, K built entry by entry.

    K_(ab),(kl) = Q_ak Q_bl + Q_al Q_bk for k < l and Q_ak Q_bl + 0.0 for k = l,
    as the padded zero of ``rotate_float`` gives it; the nine components are
    read at the independent slots.
    """
    k = np.array([[q[a - 1, i - 1] * q[b - 1, j - 1]
                   + (q[a - 1, j - 1] * q[b - 1, i - 1] if i < j else 0.0)
                   for i, j in PAIRS] for a, b in PAIRS])
    rotated = k @ pair_view_float([c])[0] @ k.T
    return [rotated[PAIRS.index(s[:2]), PAIRS.index(s[2:])] for s in INDEPENDENT_SLOTS]


def loop_isotropy(d, trials, seed):
    """The former per-trial loop of ``isotropy_check``: deviations and worst seed."""
    base = invariants(d)
    norm = float(base.j2) ** 0.5
    scales = {name: max(abs(float(base[name])), norm ** INVARIANT_DEGREES[name])
              for name in INVARIANT_NAMES}
    worst = dict.fromkeys(INVARIANT_NAMES, 0.0)
    worst_seed, worst_dev = -1, -1.0
    for s in trial_seeds(seed, trials):
        rotated = invariants(rotate(d, random_rotation(s)))
        for name in INVARIANT_NAMES:
            delta = abs(float(rotated[name]) - float(base[name]))
            dev = 0.0 if delta == 0.0 else delta / scales[name]
            worst[name] = max(worst[name], dev)
            if dev > worst_dev:
                worst_dev, worst_seed = dev, s
    return worst, worst_seed


class TestBlockedIsotropy:
    @pytest.mark.parametrize("block", [1, 7, 1024])
    def test_matches_per_trial_loop(self, monkeypatch, block):
        monkeypatch.setattr(rotations, "ISOTROPY_BLOCK", block)
        d = random_harmonic(21, backend=FLOAT)
        d = d.scale(1.0 / float(d.frobenius_norm_sq()) ** 0.5)
        report = isotropy_check(d, trials=30, seed=5)
        worst, worst_seed = loop_isotropy(d, 30, 5)
        assert report.deviations == worst
        assert report.worst_seed == worst_seed
        assert type(report.worst_seed) is int

    def test_zero_deviation_keeps_first_trial(self):
        zero = from_independent([0.0] * 9, backend=FLOAT)
        report = isotropy_check(zero, trials=3, seed=9)
        assert report.worst_seed == trial_seeds(9, 3)[0]

    @pytest.mark.parametrize("trials", [3, 1100])
    def test_nan_deviation_keeps_first_trial(self, trials):
        # J2 of this tensor overflows, so every trial deviates by NaN, with no
        # RuntimeWarning; 1,100 trials take two blocks.
        huge = from_independent([1e200] + [0.0] * 8, backend=FLOAT)
        report = isotropy_check(huge, trials=trials, seed=9)
        assert not report.passed
        assert math.isnan(report.deviations["J10"])
        assert report.worst_seed == trial_seeds(9, trials)[0]

    def test_nan_deviation_counts_as_largest(self, monkeypatch):
        def stage(views):
            got = invariants_of_views(views)
            got[2, 3] = np.nan  # row 0 is the tensor itself, so this is trial 1's J5
            return got

        monkeypatch.setattr(rotations, "invariants_of_views", stage)
        report = isotropy_check(random_harmonic(21, backend=FLOAT), trials=3, seed=5)
        assert math.isnan(report.deviations["J5"]) and not report.passed
        assert report.worst_seed == trial_seeds(5, 3)[1]


#: Seeds at the edges of [0, 2**64); from 2**64 - gamma, word 0's state wraps to exactly 0.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - GAMMA, 2**64 - 1]


class TestSeedStream:
    @pytest.mark.parametrize("count", [1, 4, 10, 37])
    def test_equals_splitmix64(self, count):
        got = _seed_stream(EDGE_SEEDS, 0, count)
        assert got.dtype == np.uint64 and got.flags.c_contiguous
        for row, s in zip(got, EDGE_SEEDS):
            assert row.tolist() == stream_words(s, count)

    def test_known_answer(self):
        # The first three outputs of splitmix64.c from state 0, as published.
        want = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert stream_words(0, 3) == want
        assert _seed_stream([0], 0, 3)[0].tolist() == want

    @pytest.mark.parametrize("start, stop", [(0, 37), (3, 9), (5, 6), (36, 37), (9, 9)])
    def test_slices_equal_the_full_stream(self, start, stop):
        got = _seed_stream(EDGE_SEEDS, start, stop)
        assert got.flags.c_contiguous
        assert np.array_equal(got, _seed_stream(EDGE_SEEDS, 0, 37)[:, start:stop])

    def test_far_slice_equals_splitmix64(self):
        n = 10**6
        assert _seed_stream([7], n - 3, n)[0].tolist() == stream_words(7, 3, start=n - 3)

    def test_float_tensors_equal_box_muller_draws(self):
        for s in EDGE_SEEDS + list(range(20)):
            assert random_harmonic(s, backend=FLOAT).indep == scalar_components(s)

    def test_exact_tensors_equal_rejection_draws(self):
        for s in EDGE_SEEDS + list(range(20)):
            assert random_harmonic(s, backend=EXACT).indep == scalar_exact_components(
                stream_words(s, 18))

    def test_exact_draw_skips_words_at_the_bound(self, monkeypatch):
        # Word 0 (2**64 - 1) is skipped as a numerator and word 2 (2**64 - 4,
        # the bound for 12) as a denominator; word 1 (2**64 - 17, just below
        # the bound for 25) is kept as numerator 24 - 12.  So the draw reads
        # 20 words, past the first 18.
        planted = {0: 2**64 - 1, 1: 2**64 - 17, 2: 2**64 - 4}

        def stream(seeds, start, stop):
            out = _seed_stream(seeds, start, stop).copy()
            for i, w in planted.items():
                if start <= i < stop:
                    out[:, i - start] = w
            return out

        monkeypatch.setattr(importlib.import_module("harmonic4.tensor"), "_seed_stream", stream)
        words = [planted.get(i, w) for i, w in enumerate(stream_words(3, 20))]
        got = random_harmonic(3, backend=EXACT).indep
        assert got == scalar_exact_components(words)
        assert got[0] == Fraction(12, stream_words(3, 4)[3] % 12 + 1)
        assert got != scalar_exact_components(stream_words(3, 18))

    def test_src_never_names_numpy_random(self):
        src = Path(rotations.__file__).resolve().parent
        for path in src.glob("*.py"):
            text = path.read_text()
            assert "np.random" not in text and "numpy.random" not in text, path.name
            assert not re.search(r"^\s*(import|from) random\b", text, re.M), path.name

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("draw", [
        random_rotation,
        lambda s: random_harmonic(s, backend=FLOAT),
        lambda s: trial_seeds(s, 3),
        lambda s: haar_matrices([0, s]),
        lambda s: isotropy_suite(num_tensors=1, trials=1, seed=s),
        lambda s: isotropy_check(random_harmonic(1, backend=FLOAT), 1, s),
    ])
    def test_seeds_outside_the_range_raise(self, draw, seed):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            draw(seed)

    @pytest.mark.parametrize("seed", [True, False])
    @pytest.mark.parametrize("draw", [
        random_rotation,
        lambda s: random_harmonic(s, backend=FLOAT),
        lambda s: isotropy_check(random_harmonic(1, backend=FLOAT), 1, s),
    ])
    def test_boolean_seeds_raise(self, draw, seed):
        with pytest.raises(TypeError, match="boolean"):
            draw(seed)


class TestIsotropyBlocks:
    @pytest.mark.parametrize("m, t", [(1, 1), (1, 1024), (20, 10), (7, 3)])
    def test_broadcast_rows_equal_repeated_rows(self, m, t):
        comps, qs = _random_components(range(m)), haar_matrices(range(m * t))
        out, views = rotations._rotate_views(pair_view_float(comps)[:, None],
                                             qs.reshape(m, t, 3, 3))
        repeated = np.repeat(comps, t, axis=0)
        want, want_views = rotations._rotate_views(pair_view_float(repeated), qs)
        assert out.tobytes() == want.tobytes() == rotate_float(repeated, qs).tobytes()
        assert views.tobytes() == want_views.tobytes()

    @staticmethod
    def count_engine_calls(monkeypatch) -> list:
        """Record the pair views of each call of the engine's pair-view stage."""
        calls = []

        def stage(views):
            calls.append(views.copy())
            return invariants_of_views(views)

        monkeypatch.setattr(rotations, "invariants_of_views", stage)
        return calls

    def test_one_engine_call_per_block(self, monkeypatch):
        calls = self.count_engine_calls(monkeypatch)
        isotropy_suite(num_tensors=20, trials=10)
        assert [len(views) for views in calls] == [20 + 20 * 10]

    @pytest.mark.parametrize("trials", [3, 10])
    def test_own_views_lead_only_the_first_trial_block(self, monkeypatch, trials):
        # Blocks of 7 rows: tensors (0, 1), (2, 3) and (4) for 3 trials, or
        # trials 0-6 and 7-9 of each tensor for 10.
        monkeypatch.setattr(rotations, "ISOTROPY_BLOCK", 7)
        calls = self.count_engine_calls(monkeypatch)
        isotropy_suite(num_tensors=5, trials=trials, seed=11)
        comps = _random_components(_seed_stream([11], 0, 5)[0])
        own = {view.tobytes(): n for n, view in enumerate(pair_view_float(comps))}
        found = [[own.get(view.tobytes()) for view in views] for views in calls]
        if trials == 3:
            assert found == [[0, 1] + [None] * 6, [2, 3] + [None] * 6, [4] + [None] * 3]
        else:
            assert found == [row for n in range(5) for row in ([n] + [None] * 7, [None] * 3)]


def loop_suite(num_tensors, trials, seed):
    """The per-tensor suite: each tensor drawn alone, then the per-trial loop."""
    return [loop_isotropy(Harmonic4(scalar_components(ts)), trials, ts)
            for ts in stream_words(seed, num_tensors)]


class TestBatchedSuite:
    @pytest.mark.parametrize("trials", [3, 10])
    def test_matches_per_tensor_loop(self, monkeypatch, trials):
        # A block of 7 rows holds two whole tensors of 3 trials, or splits
        # a tensor of 10 trials into 7 and 3.
        monkeypatch.setattr(rotations, "ISOTROPY_BLOCK", 7)
        passed, reports = isotropy_suite(num_tensors=5, trials=trials, seed=2**63 + 5)
        assert passed
        for report, (worst, worst_seed) in zip(reports, loop_suite(5, trials, 2**63 + 5),
                                               strict=True):
            assert report.trials == trials
            assert report.deviations == worst
            assert report.worst_seed == worst_seed
            assert type(report.worst_seed) is int

    @pytest.mark.parametrize("trials", [10, 1000, 1100])
    def test_reports_replay_with_isotropy_check(self, trials):
        _, reports = isotropy_suite(num_tensors=20, trials=trials, seed=42)
        for report, ts in zip(reports, trial_seeds(42, 20), strict=True):
            assert report == isotropy_check(random_harmonic(ts), trials, ts)

    @pytest.mark.parametrize("num_tensors", [0, -1])
    def test_needs_a_tensor(self, num_tensors):
        with pytest.raises(ValueError, match="at least one tensor"):
            isotropy_suite(num_tensors=num_tensors, trials=1)
