"""The LBI kernel: moment form against the direct node sum, the closed
form's valid range, power sums and the block-substream contract."""

import dataclasses

import numpy as np
import pytest

from lbinorm.calibration import (
    BLOCK_SIZE,
    AlternativeSpec,
    calibrate_null,
    closed_form_weights,
    make_statistic,
    power_curve,
    sample_alternative,
)
from lbinorm.core import power_sums, standardize
from lbinorm.errors import ScoreOverflow
from lbinorm.scores import score_gh_limit, score_hermite
from lbinorm.univariate import lbi_closed_form, lbi_exact, lbi_monte_carlo


class TestMomentKernel:
    def test_batch_matches_direct_node_sum(self):
        # the same score without polynomial coefficients takes the direct
        # node sum, one row at a time
        scores = [score_hermite(3), score_hermite(4), score_hermite(6), score_gh_limit(1.0)]
        mc_reps, mc_seed = 20_000, 3
        got, ref = [], []
        for n in (8, 20, 200):
            rng = np.random.default_rng(n)
            x = np.vstack([rng.normal(size=(2, n)), rng.standard_t(3, size=(1, n))])
            z = [standardize(xi) for xi in x]
            for score in scores:
                direct = dataclasses.replace(score, polynomial_coeffs=None)
                got.append(make_statistic("lbi-exact", score=score).compute_batch(x))
                ref.append([lbi_exact(zi, direct, check=False).value for zi in z])
                got.append(
                    make_statistic("lbi-mc", score=score, mc_reps=mc_reps, mc_seed=mc_seed)
                    .compute_batch(x)
                )
                ref.append([lbi_monte_carlo(zi, direct, mc_reps, mc_seed).value for zi in z])
        got, ref = np.concatenate(got), np.concatenate(ref)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_monte_carlo_std_error_matches_direct(self):
        z = standardize(np.random.default_rng(5).normal(size=12))
        score = score_hermite(4)
        direct = dataclasses.replace(score, polynomial_coeffs=None)
        a = lbi_monte_carlo(z, score, reps=25_000, seed=2)
        b = lbi_monte_carlo(z, direct, reps=25_000, seed=2)
        assert a.value == pytest.approx(b.value, rel=1e-10)
        assert a.std_error == pytest.approx(b.std_error, rel=1e-8)


class TestClosedFormRange:
    def test_affine_to_exact_at_n_340(self):
        rng = np.random.default_rng(340)
        samples = [standardize(rng.standard_t(8, size=340)) for _ in range(8)]
        exact = np.array([lbi_exact(z, score_hermite(4)).value for z in samples])
        closed = np.array([lbi_closed_form(z, score_hermite(4)).value for z in samples])
        assert np.all(np.isfinite(closed))
        # both are ~1e-73 here: fit on values scaled to unit size
        x, y = closed / np.max(np.abs(closed)), exact / np.max(np.abs(exact))
        A = np.vstack([np.ones_like(x), x]).T
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        assert coef[1] > 0.0
        assert np.max(np.abs(y - A @ coef)) < 1e-9

    def test_finite_up_to_n_1400(self):
        for k in (3, 4):
            weights = closed_form_weights(np.asarray(score_hermite(k).polynomial_coeffs), 1400)
            assert weights and all(np.isfinite(w) and w > 0.0 for w in weights.values())

    def test_underflow_raises(self):
        z = standardize(np.random.default_rng(2000).normal(size=2000))
        for k in (3, 4, 8):
            with pytest.raises(ScoreOverflow):
                lbi_closed_form(z, score_hermite(k))
            with pytest.raises(ScoreOverflow):
                closed_form_weights(np.asarray(score_hermite(k).polynomial_coeffs), 2000)


class TestPowerSums:
    def test_matches_integer_powers(self):
        z = np.random.default_rng(3).normal(size=(4, 9))
        got = power_sums(z, 8)
        assert got.shape == (4, 9)
        for s in range(9):
            scale = np.sum(np.abs(z) ** s, axis=1)
            np.testing.assert_allclose(got[:, s], np.sum(z**s, axis=1), rtol=0, atol=1e-13 * scale.max())

    def test_single_sample(self):
        z = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(power_sums(z, 3), [3.0, 2.0, 14.0, 20.0])


class TestBlockSubstreams:
    def test_calibrate_null_from_hand_drawn_blocks(self):
        spec = make_statistic("kurt")
        n, reps, seed = 10, 25_000, 13
        blocks = []
        for block, start in enumerate(range(0, reps, BLOCK_SIZE)):
            m = min(BLOCK_SIZE, reps - start)
            x = np.random.default_rng([seed, block]).standard_normal((m, n))
            blocks.append(spec.compute_batch(x))
        expected = np.sort(np.concatenate(blocks))
        cal = calibrate_null(spec, n, reps, seed)
        np.testing.assert_array_equal(cal.sorted_null_values, expected)

    def test_power_curve_from_hand_drawn_blocks(self):
        spec = make_statistic("kurt")
        n, reps, seed = 12, 15_000, 17
        cal = calibrate_null(spec, n, 20_000, seed=16)
        crit = cal.critical_value(0.05)
        shapes = [0.0, 0.3]
        rows = power_curve(spec, "student-t", shapes, n, 0.05, reps, seed, cal)
        for gi, shape in enumerate(shapes):
            rejected = 0
            for block, start in enumerate(range(0, reps, BLOCK_SIZE)):
                m = min(BLOCK_SIZE, reps - start)
                rng = np.random.default_rng([seed, gi, block])
                x = sample_alternative(AlternativeSpec("student-t", shape), n, rng, size=(m, n))
                rejected += int(np.sum(spec.compute_batch(x) > crit))
            assert rows[gi]["power"] == rejected / reps
