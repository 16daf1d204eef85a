"""Orthogonal action: exact equivariance, Haar sampling, isotropy drift."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from harmonic4 import (
    EXACT,
    FLOAT,
    INVARIANT_DEGREES,
    INVARIANT_NAMES,
    Orthogonal3,
    check_traceless,
    from_independent,
    invariants,
    isotropy_check,
    random_harmonic,
    random_rotation,
    reflection,
    rotate,
    signed_permutation,
)
from harmonic4.rotations import haar_matrices, trial_seeds

D1_EXACT = from_independent((1, 0, 0, 0, 0, 0, 0, 0, 0), backend=EXACT)
D1_FLOAT = from_independent((1, 0, 0, 0, 0, 0, 0, 0, 0), backend=FLOAT)


def random_signed_permutation(rng):
    perm = [1, 2, 3]
    rng.shuffle(perm)
    signs = tuple(rng.choice((-1, 1)) for _ in range(3))
    return signed_permutation(tuple(perm), signs)


class TestRotate:
    def test_identity_leaves_tensor_unchanged(self):
        d = random_harmonic(1, backend=EXACT)
        assert rotate(d, signed_permutation((1, 2, 3))) == d

    def test_reflection_parity(self):
        d = random_harmonic(2, backend=EXACT)
        flipped = rotate(d, reflection(axis=3))
        for slot, value in d.expand().items():
            sign = -1 if slot.count(3) % 2 else 1
            assert flipped.expand()[slot] == sign * value

    def test_reflection_on_single_component(self):
        d = from_independent((0, 0, 1, 0, 0, 0, 0, 0, 0), backend=EXACT)
        assert rotate(d, reflection(axis=3)).indep[2] == -1

    def test_axis_swap_relabels_components(self):
        d = random_harmonic(3, backend=EXACT)
        swapped = rotate(d, signed_permutation((2, 1, 3)))
        assert swapped.component(1, 1, 1, 1) == d.component(2, 2, 2, 2)
        assert swapped.component(2, 2, 2, 2) == d.component(1, 1, 1, 1)
        assert swapped.component(1, 1, 1, 2) == d.component(2, 2, 2, 1)

    def test_action_composition_exact(self):
        rng = random.Random(5)
        d = random_harmonic(6, backend=EXACT)
        for _ in range(5):
            q1 = random_signed_permutation(rng)
            q2 = random_signed_permutation(rng)
            assert rotate(rotate(d, q1), q2) == rotate(d, q2 @ q1)

    def test_exact_invariance_under_signed_permutations(self):
        rng = random.Random(8)
        d = random_harmonic(7, backend=EXACT)
        base = invariants(d)
        for _ in range(8):
            q = random_signed_permutation(rng)
            assert invariants(rotate(d, q)) == base

    def test_preserves_tracelessness(self):
        d = random_harmonic(4, backend=FLOAT)
        rotated = rotate(d, random_rotation(99))
        norm = float(d.frobenius_norm_sq()) ** 0.5
        assert check_traceless(rotated) <= 1e-12 * norm

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            rotate(D1_FLOAT, Orthogonal3(((1.0, 1.0, 0.0),
                                          (0.0, 1.0, 0.0),
                                          (0.0, 0.0, 1.0))))

    @pytest.mark.parametrize("entry", [0, 8])
    @pytest.mark.parametrize("one", [1, 1.0])
    def test_rejects_nan_entry(self, entry, one):
        flat = [one if n in (0, 4, 8) else 0 * one for n in range(9)]
        flat[entry] = math.nan
        q = Orthogonal3(tuple(tuple(flat[3 * i:3 * i + 3]) for i in range(3)))
        assert math.isnan(q.orthogonality_defect())
        with pytest.raises(ValueError, match="not orthogonal"):
            rotate(D1_FLOAT, q)

    def test_float_matrix_with_integer_entries_is_cast_to_float(self):
        c = math.cos(math.pi / 4)
        d = random_harmonic(5)
        mixed = Orthogonal3(((c, -c, 0), (c, c, 0), (0, 0, 1)))
        floats = Orthogonal3(((c, -c, 0.0), (c, c, 0.0), (0.0, 0.0, 1.0)))
        got = rotate(d, mixed).indep
        assert [v.hex() for v in got] == [v.hex() for v in rotate(d, floats).indep]

    def test_quarter_turn_preserves_invariants(self):
        c = math.cos(math.pi / 4)
        q = Orthogonal3(((c, -c, 0.0), (c, c, 0.0), (0.0, 0.0, 1.0)))
        base = invariants(D1_FLOAT)
        turned = invariants(rotate(D1_FLOAT, q))
        for name in INVARIANT_NAMES:
            assert turned[name] == pytest.approx(base[name], rel=1e-9, abs=1e-9)


class TestRandomRotation:
    def test_orthogonality(self):
        for seed in range(50):
            assert random_rotation(seed).orthogonality_defect() <= 1e-12

    def test_deterministic(self):
        assert random_rotation(123).rows == random_rotation(123).rows

    def test_both_determinant_signs_occur(self):
        dets = {round(float(np.linalg.det(random_rotation(s).to_array())))
                for s in range(40)}
        assert dets == {-1, 1}

    def test_haar_first_entry_mean(self):
        n = 10_000
        mean = sum(haar_matrices(range(n))[:, 0, 0].tolist()) / n
        assert abs(mean) <= 3 / math.sqrt(n)


#: Matrices drawn for each statistical test.
DRAWS = 20_000
#: A sample mean passes when within Z standard errors of the true mean.
Z = 5.0


def mean_within(samples, mean, variance):
    """Whether the sample mean lies within Z standard errors, sqrt(variance / n), of ``mean``."""
    return abs(samples.mean() - mean) <= Z * math.sqrt(variance / len(samples))


def trace_moment_holds(q):
    """E[(tr R)^2] = 1 for the rotation part R = det(Q) Q of Haar samples Q.

    tr R is the character of SO(3) on R^3, which is irreducible, so its
    second moment is 1; its fourth moment is 3 (three irreducible
    summands in R^3 x R^3), so (tr R)^2 has variance 2.
    """
    traces = np.sign(np.linalg.det(q)) * np.trace(q, axis1=1, axis2=2)
    return mean_within(traces**2, 1.0, 2.0)


def axis_angle_matrices(n):
    """Rotations about a uniform axis by a uniform angle: not Haar (E[(tr R)^2] = 3)."""
    rng = np.random.default_rng(0)
    axes = rng.standard_normal((n, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    angle = rng.uniform(0.0, 2 * math.pi, n)[:, None, None]
    k = np.zeros((n, 3, 3))
    k[:, [2, 0, 1], [1, 2, 0]] = axes
    k -= k.transpose(0, 2, 1)
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


class TestHaarDistribution:
    @pytest.fixture(scope="class")
    def haar(self):
        return haar_matrices(range(DRAWS))

    def test_entry_second_moments(self, haar):
        # Each entry is a coordinate of a uniform unit vector, uniform on
        # [-1, 1], so Q_ij^2 has mean 1/3 and variance 1/5 - 1/9.
        for i in range(3):
            for j in range(3):
                assert mean_within(haar[:, i, j] ** 2, 1 / 3, 4 / 45), (i, j)

    def test_trace_second_moment(self, haar):
        assert trace_moment_holds(haar)

    def test_axis_angle_sampler_fails_the_trace_test(self):
        q = axis_angle_matrices(DRAWS)
        assert np.abs(np.linalg.det(q) - 1).max() < 1e-12
        assert not trace_moment_holds(q)

    def test_half_are_reflections(self, haar):
        assert mean_within(np.linalg.det(haar) < 0, 0.5, 0.25)


class TestIsotropyCheck:
    def test_zero_tensor(self):
        zero = from_independent([0.0] * 9, backend=FLOAT)
        report = isotropy_check(zero, trials=10, seed=0)
        assert all(v == 0.0 for v in report.deviations.values())
        assert report.passed

    def test_unit_d1111_thousand_trials(self):
        report = isotropy_check(D1_FLOAT, trials=1000, seed=7)
        assert report.passed
        assert all(v <= 1e-8 for v in report.deviations.values())

    def test_random_unit_norm_split_tolerances(self):
        d = random_harmonic(17, backend=FLOAT)
        d = d.scale(1.0 / float(d.frobenius_norm_sq()) ** 0.5)
        report = isotropy_check(d, trials=1000, seed=17)
        for name, dev in report.deviations.items():
            bound = 1e-8 if INVARIANT_DEGREES[name] <= 6 else 1e-7
            assert dev <= bound

    def test_worst_seed_replays_the_largest_deviation(self):
        d = random_harmonic(17, backend=FLOAT)
        d = d.scale(1.0 / float(d.frobenius_norm_sq()) ** 0.5)
        report = isotropy_check(d, trials=1000, seed=17)
        base = invariants(d)
        norm = float(base.j2) ** 0.5
        replay = invariants(rotate(d, random_rotation(report.worst_seed)))
        deviations = [abs(replay[name] - base[name])
                      / max(abs(base[name]), norm ** INVARIANT_DEGREES[name])
                      for name in INVARIANT_NAMES]
        assert max(deviations) == max(report.deviations.values()) > 0

    def test_int_tensor_checks_as_its_float_copy(self):
        ints = from_independent((1, -2, 0, 3, 1, 0, 2, -1, 1), backend=EXACT)
        floats = from_independent([float(v) for v in ints.indep], backend=FLOAT)
        # binary64 holds these invariants and every step of the float engine exactly.
        exact = invariants(ints)
        assert [float(exact[name]) for name in INVARIANT_NAMES] == list(invariants(floats)
                                                                          .as_dict().values())
        assert isotropy_check(ints, trials=50, seed=3) == isotropy_check(floats, trials=50, seed=3)

    def test_rational_tensor_is_rounded_to_binary64_first(self):
        thirds = from_independent([Fraction(k, 3) for k in (1, -2, 4, 5, 1, -1, 2, 7, -4)],
                                  backend=EXACT)
        rounded = from_independent([float(v) for v in thirds.indep], backend=FLOAT)
        assert (isotropy_check(thirds, trials=50, seed=3)
                == isotropy_check(rounded, trials=50, seed=3))

    def test_trial_seeds_are_deterministic(self):
        assert trial_seeds(5, 8) == trial_seeds(5, 8)
        assert trial_seeds(5, 8) != trial_seeds(6, 8)

    def test_requires_positive_trials(self):
        with pytest.raises(ValueError):
            isotropy_check(D1_FLOAT, trials=0, seed=1)


class TestOrthogonal3:
    def test_matmul_and_transpose(self):
        q = signed_permutation((2, 3, 1))
        qt = Orthogonal3(tuple(zip(*q.rows)))
        assert (q @ qt).rows == signed_permutation((1, 2, 3)).rows

    def test_numpy_rows_are_stored_as_tuples(self):
        q = Orthogonal3(np.eye(3))
        assert q.rows == signed_permutation((1, 2, 3)).rows
        assert all(type(row) is tuple for row in q.rows)
        assert rotate(D1_FLOAT, q) == D1_FLOAT

    def test_numpy_integer_rows_are_held_as_python_ints(self):
        q = Orthogonal3(np.eye(3, dtype=np.int64))
        assert q == signed_permutation((1, 2, 3))
        assert all(type(v) is int for row in q.rows for v in row)

    @pytest.mark.parametrize("rows", [((1, 0), (0, 1)),
                                      ((1, 0, 0), (0, 1, 0)),
                                      ((1, 0, 0), (0, 1, 0), (0, 0, 1, 0)),
                                      np.eye(4),
                                      [1, 0, 0, 0, 1, 0, 0, 0, 1],
                                      5,
                                      np.eye(3).ravel(),
                                      np.array(1.0)])
    def test_rejects_bad_shape(self, rows):
        with pytest.raises(ValueError, match="3x3"):
            Orthogonal3(rows)

    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_reflection_is_a_diagonal_sign_flip(self, axis):
        diag = [-1 if j == axis else 1 for j in (1, 2, 3)]
        assert reflection(axis).rows == tuple(
            tuple(diag[i] if i == j else 0 for j in range(3)) for i in range(3))
