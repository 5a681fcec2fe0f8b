"""Univariate statistics: exact quadrature, closed form, Laplace, MC, profile."""

import math
import warnings

import numpy as np
import pytest

from lbinorm.calibration import calibrate_null, make_statistic, p_value
from lbinorm.core import (
    FD_STEP,
    central_difference,
    coefficient_c,
    null_denominator_constant,
    standardize,
    standardized_moment,
)
from lbinorm.errors import QuadratureUnconverged, ScoreOverflow
from lbinorm import univariate
from lbinorm.scores import (ScoreFunction, builtin_contaminations, score_contamination,
                            score_gh_limit, score_hermite)
from lbinorm.univariate import (
    QuadratureConfig,
    kurtosis,
    lbi_closed_form,
    lbi_exact,
    lbi_laplace,
    lbi_monte_carlo,
    null_integral_quadrature,
    profile_likelihood_statistic,
    skewness,
)

from conftest import make_poly_score


def _samples(rng, n, count):
    return [standardize(rng.normal(size=n)) for _ in range(count)]


CONST_SCORE = ScoreFunction(
    evaluate=lambda x: np.ones_like(np.asarray(x, dtype=float)),
    family_label="const",
    polynomial_coeffs=(1.0,),
)


class TestQuadratureConfig:
    def test_node_floor(self):
        with pytest.raises(ValueError):
            QuadratureConfig(a_nodes=16)
        with pytest.raises(ValueError):
            QuadratureConfig(b_nodes=8)


class TestLbiExact:
    def test_constant_score_total_mass(self):
        # a constant score pulls out of the sum: the value is n times the
        # weight mass, i.e. n * (2 pi)^(n/2) * the null constant
        for n in (3, 5, 10, 20):
            z = standardize(np.random.default_rng(n).normal(size=n))
            val = lbi_exact(z, CONST_SCORE).value
            target = n * (2.0 * math.pi) ** (n / 2.0) * null_denominator_constant(n)
            np.testing.assert_allclose(val, target, rtol=1e-12)

    def test_skew_score_is_affine_in_third_moment(self):
        # cubic score: the statistic is K(n) * m3 for a positive constant
        rng = np.random.default_rng(2)
        n = 8
        ratios = []
        for z in _samples(rng, n, 40):
            m3 = standardized_moment(z, 3)
            if abs(m3) < 0.1:
                continue
            ratios.append(lbi_exact(z, score_hermite(3)).value / m3)
        ratios = np.asarray(ratios[:20])
        assert ratios.size >= 15
        assert np.all(ratios > 0.0)
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-6)

    def test_matches_closed_form_for_quartic(self):
        rng = np.random.default_rng(7)
        n = 10
        exact = []
        closed = []
        for z in _samples(rng, n, 20):
            exact.append(lbi_exact(z, score_hermite(4)).value)
            closed.append(lbi_closed_form(z, score_hermite(4)).value)
        # the two conventions differ by a fixed affine map with positive slope
        A = np.vstack([np.ones_like(closed), closed]).T
        coef, *_ = np.linalg.lstsq(A, exact, rcond=None)
        resid = exact - A @ coef
        assert coef[1] > 0.0
        assert np.max(np.abs(resid)) < 1e-8 * np.max(np.abs(exact))

    def test_permutation_invariance(self):
        z = standardize(np.random.default_rng(9).normal(size=12))
        ref = lbi_exact(z, score_hermite(4)).value
        perm = np.random.default_rng(10).permutation(12)
        assert lbi_exact(z[perm], score_hermite(4)).value == pytest.approx(ref, rel=1e-13)

    def test_sign_equivariance_even_scores(self):
        z = standardize(np.random.default_rng(12).normal(size=9))
        for score in (score_hermite(4), score_gh_limit(0.0)):
            assert lbi_exact(-z, score).value == pytest.approx(
                lbi_exact(z, score).value, rel=1e-12
            )

    def test_score_overflow(self):
        z = standardize(np.random.default_rng(1).normal(size=5))
        bad = ScoreFunction(
            evaluate=lambda x: np.exp(10.0 * np.asarray(x) ** 2),
            family_label="overflow",
        )
        with pytest.raises(ScoreOverflow):
            lbi_exact(z, bad)

    def test_unconverged_detection(self, stable_score0):
        z = standardize(np.random.default_rng(4).normal(size=5))
        cfg = QuadratureConfig(a_nodes=32, b_nodes=32, rtol=1e-30)
        with pytest.raises(QuadratureUnconverged):
            lbi_exact(z, stable_score0, cfg)


    def test_non_finite_hermite_rule_is_refused(self, stable_score0):
        # the doubled rule would take numpy's 384-node Hermite rule, whose
        # weights are NaN; the value used to come back NaN
        z = standardize(np.random.default_rng(4).normal(size=20))
        with pytest.raises(QuadratureUnconverged, match="384-node Gauss-Hermite rule is not finite"):
            lbi_exact(z, stable_score0, QuadratureConfig(a_nodes=192))
        with pytest.raises(QuadratureUnconverged, match="372-node"):
            univariate._ab_rule(20, QuadratureConfig(a_nodes=372))
        assert np.all(np.isfinite(univariate._ab_rule(20, QuadratureConfig(a_nodes=371))[1]))

    def test_rule_at_large_n_warns_nothing(self):
        # b ** (n - 2) overflows at n = 10 000; numpy's two RuntimeWarnings
        # used to print before the one-line error of the failed null
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, wa, b, _ = univariate._ab_rule.__wrapped__(10_000, QuadratureConfig())
        assert np.all(np.isfinite(a)) and np.all(np.isfinite(wa)) and np.all(np.isfinite(b))

    def test_a_nan_fails_the_node_doubling_check(self, monkeypatch):
        z = standardize(np.random.default_rng(4).normal(size=8))
        inner = univariate.exact_kernel

        def nan_when_doubled(score, n, cfg=None):
            kernel = inner(score, n, cfg)
            if cfg.a_nodes > 96:
                return univariate.LbiKernel(kappa=np.full_like(kernel.kappa, np.nan),
                                            score=score, nodes=kernel.nodes)
            return kernel

        monkeypatch.setattr(univariate, "exact_kernel", nan_when_doubled)
        with pytest.raises(QuadratureUnconverged, match="to nan under node doubling"):
            lbi_exact(z, score_hermite(4))

    def test_two_points_are_refused(self):
        with pytest.raises(ValueError, match=r"^need n >= 3$"):
            lbi_exact(np.array([-1.0, 1.0]), score_hermite(4))


class TestLbiClosedForm:
    def test_cubic_single_term(self):
        z = standardize(np.random.default_rng(3).normal(size=7))
        n = 7
        target = (
            (2.0 / n) ** ((n + 1) / 2.0)
            * math.gamma(0.5)
            * math.gamma((n + 2) / 2.0)
            * standardized_moment(z, 3)
        )
        assert lbi_closed_form(z, score_hermite(3)).value == pytest.approx(target, rel=1e-13)

    def test_quartic_is_pure_kurtosis_direction(self):
        n = 9
        z = standardize(np.random.default_rng(5).normal(size=n))
        w4 = (
            (2.0 / n) ** ((n + 2) / 2.0)
            * math.gamma(0.5)
            * math.gamma((n + 3) / 2.0)
        )
        target = w4 * standardized_moment(z, 4)
        assert lbi_closed_form(z, score_hermite(4)).value == pytest.approx(target, rel=1e-13)

    def test_gh_score_matches_moment_combination(self):
        beta, n = 1.0, 10
        z = standardize(np.random.default_rng(6).normal(size=n))
        got = lbi_closed_form(z, score_gh_limit(beta)).value
        # proportional (positive scalar) to c_{n+2} sum z^4 + 4 beta c_{n+1} sum z^3
        target = coefficient_c(n + 2, n) * np.sum(z**4) + 4.0 * beta * coefficient_c(
            n + 1, n
        ) * np.sum(z**3)
        z2 = standardize(np.random.default_rng(8).normal(size=n))
        got2 = lbi_closed_form(z2, score_gh_limit(beta)).value
        target2 = coefficient_c(n + 2, n) * np.sum(z2**4) + 4.0 * beta * coefficient_c(
            n + 1, n
        ) * np.sum(z2**3)
        ratio1, ratio2 = got / target, got2 / target2
        assert ratio1 > 0.0
        assert ratio1 == pytest.approx(ratio2, rel=1e-10)

    def test_raw_coefficient_input(self):
        z = standardize(np.random.default_rng(14).normal(size=6))
        a = lbi_closed_form(z, (1.0, 0.0, -3.0, 0.0)).value
        b = lbi_closed_form(z, score_hermite(3)).value
        assert a == pytest.approx(b, rel=1e-14)

    def test_degree_cap(self):
        z = standardize(np.random.default_rng(15).normal(size=6))
        with pytest.raises(ValueError):
            lbi_closed_form(z, np.ones(10))

    def test_degree_cap_in_make_statistic(self, monkeypatch):
        # the statistic was built, and gave -13.39 on a 12-point sample
        def no_kernel(*args, **kwargs):
            raise AssertionError("a closed-form kernel was built")

        monkeypatch.setattr(univariate, "closed_form_kernel", no_kernel)
        deg9 = make_poly_score(np.ones(10), "deg9")
        with pytest.raises(ValueError, match=r"^polynomial degree must be <= 8$"):
            make_statistic("lbi-closed", score=deg9)
        z = standardize(np.random.default_rng(15).normal(size=12))
        with pytest.raises(ValueError, match=r"^polynomial degree must be <= 8$"):
            lbi_closed_form(z, deg9)

    def test_score_without_coefficients_is_refused(self):
        z = standardize(np.random.default_rng(16).normal(size=6))
        quartic = ScoreFunction(evaluate=lambda x: x**4, family_label="x4")
        with pytest.raises(ValueError, match="^closed form needs polynomial coefficients$"):
            lbi_closed_form(z, quartic)


class TestLbiLaplace:
    def test_hermite_identities(self):
        z = standardize(np.random.default_rng(21).normal(size=14))
        n = z.size
        m3, m4 = standardized_moment(z, 3), standardized_moment(z, 4)
        assert lbi_laplace(z, score_hermite(3)).value == pytest.approx(n * m3, rel=1e-12)
        assert lbi_laplace(z, score_hermite(4)).value == pytest.approx(
            n * m4 - 3 * n, rel=1e-10, abs=1e-10
        )

    def test_zero_score(self):
        z = standardize(np.random.default_rng(22).normal(size=5))
        zero = ScoreFunction(evaluate=lambda x: np.zeros_like(x), family_label="zero")
        assert lbi_laplace(z, zero).value == 0.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_score_value_raises(self, bad):
        z = standardize(np.random.default_rng(23).normal(size=8))
        score = ScoreFunction(evaluate=lambda x: np.where(x == x.max(), bad, x),
                              family_label="bad")
        with pytest.raises(ScoreOverflow, match="^score produced a non-finite value$"):
            lbi_laplace(z, score)


class TestLbiMonteCarlo:
    def test_constant_score_is_exactly_n(self):
        z = standardize(np.random.default_rng(31).normal(size=11))
        out = lbi_monte_carlo(z, CONST_SCORE, reps=2000, seed=0)
        assert out.value == pytest.approx(11.0, rel=1e-14)
        assert out.std_error == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_for_fixed_seed(self):
        z = standardize(np.random.default_rng(32).normal(size=9))
        a = lbi_monte_carlo(z, score_hermite(3), reps=25_000, seed=5)
        b = lbi_monte_carlo(z, score_hermite(3), reps=25_000, seed=5)
        assert a.value == b.value

    def test_matches_exact_quadrature(self):
        # E[sum score(A + B z)] equals the exact integral times the
        # normalizing constant of the (A, B) density
        n = 10
        z = standardize(np.random.default_rng(33).normal(size=n))
        mc = lbi_monte_carlo(z, score_hermite(4), reps=400_000, seed=3)
        exact = lbi_exact(z, score_hermite(4)).value
        norm = math.sqrt(n / (2.0 * math.pi)) / coefficient_c(n - 2, n)
        assert abs(mc.value - exact * norm) < 3.0 * mc.std_error

    def test_laplace_consistency_large_n(self):
        # the MC statistic differs from the Laplace sum by an O(1) offset
        # (about 6 for a quartic score), so the 5% relative comparison
        # needs a sample whose moment terms are not near zero
        rng = np.random.default_rng(137)
        z = standardize(rng.normal(size=200))
        for k in (3, 4):
            mc = lbi_monte_carlo(z, score_hermite(k), reps=1_000_000, seed=6).value
            lap = lbi_laplace(z, score_hermite(k)).value
            assert abs(mc - lap) / abs(lap) < 0.05

    def test_rejects_tiny_reps(self):
        z = standardize(np.random.default_rng(35).normal(size=5))
        with pytest.raises(ValueError):
            lbi_monte_carlo(z, score_hermite(3), reps=10, seed=0)


class TestProfileLikelihood:
    def test_cubic_and_quartic_identities(self):
        z = standardize(np.random.default_rng(41).normal(size=13))
        n = z.size
        m3, m4 = standardized_moment(z, 3), standardized_moment(z, 4)
        assert profile_likelihood_statistic(z, score_hermite(3)) == pytest.approx(
            3 * n * m3, rel=1e-12
        )
        assert profile_likelihood_statistic(z, score_hermite(4)) == pytest.approx(
            4 * n * m4 - 12 * n, rel=1e-10
        )

    def test_sextic_differs_from_laplace_direction(self):
        z = standardize(np.random.default_rng(42).normal(size=13))
        n = z.size
        h = make_poly_score([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], label="x6")
        got = profile_likelihood_statistic(z, h)
        assert got == pytest.approx(6 * n * standardized_moment(z, 6), rel=1e-12)
        assert got != pytest.approx(lbi_laplace(z, h).value)

    def test_finite_difference_fallback(self):
        z = standardize(np.random.default_rng(43).normal(size=8))
        h = ScoreFunction(evaluate=lambda x: np.asarray(x) ** 3, family_label="fd")
        np.testing.assert_allclose(
            profile_likelihood_statistic(z, h),
            3.0 * z.size * standardized_moment(z, 3),
            rtol=1e-7,
        )

    def test_central_difference_is_the_two_call_formula(self):
        h = score_contamination(builtin_contaminations()["normal-scale-2"])
        z = standardize(np.random.default_rng(44).normal(size=(3, 8)))
        calls = []

        def counted(x):
            calls.append(np.shape(x))
            return h(x)

        got = central_difference(counted, z)
        assert calls == [(2, 3, 8)]
        np.testing.assert_array_equal(got, (h(z + FD_STEP) - h(z - FD_STEP)) / (2.0 * FD_STEP))
        np.testing.assert_array_equal(profile_likelihood_statistic(z, h), np.sum(z * got, axis=-1))


class TestMomentStatistics:
    def test_symmetric_sample(self):
        r = math.sqrt(1.5)
        z = np.array([-r, 0.0, r])
        assert skewness(z) == pytest.approx(0.0, abs=1e-14)
        assert kurtosis(z) == pytest.approx(1.5)

    def test_skewness_is_odd(self):
        z = standardize(np.random.default_rng(51).normal(size=20))
        assert skewness(-z) == pytest.approx(-skewness(z), rel=1e-12)


class TestNullIntegralQuadrature:
    def test_reproduces_closed_constant(self):
        for n in (3, 5, 10, 20):
            z = standardize(np.random.default_rng(100 + n).normal(size=n))
            np.testing.assert_allclose(
                null_integral_quadrature(z), null_denominator_constant(n), rtol=1e-10
            )


def test_quadrature_rule_built_once_per_n_and_config(monkeypatch):
    built = []
    inner = univariate.hermgauss

    def counted(deg):
        built.append(deg)
        return inner(deg)

    monkeypatch.setattr(univariate, "hermgauss", counted)
    cfg = QuadratureConfig(a_nodes=41, b_nodes=43)
    z = standardize(np.random.default_rng(9).normal(size=13))
    score = score_hermite(4)
    first = lbi_exact(z, score, cfg, check=False).value
    second = lbi_exact(z, score, cfg, check=False).value
    assert built == [41]
    assert second == first
    rule = univariate._ab_rule(13, cfg)
    fresh = univariate._ab_rule.__wrapped__(13, cfg)
    for cached, new in zip(rule, fresh):
        assert not cached.flags.writeable
        np.testing.assert_array_equal(cached, new)


class TestOneSampleRefusals:
    """The refusals that every one-sample form reaches through ``univariate._form``."""

    @pytest.mark.parametrize("form", [
        lambda z, score: lbi_exact(z, score),
        lambda z, score: lbi_closed_form(z, score),
        lambda z, score: lbi_laplace(z, score),
        lambda z, score: lbi_monte_carlo(z, score, 2000, 0),
    ], ids=["exact", "closed", "laplace", "mc"])
    def test_two_points_are_refused(self, form):
        # two standardized residuals are always -1 and 1; the closed form, the
        # Laplace and the MC form returned 2.356, -4.0 and 0.167 here
        with pytest.raises(ValueError, match=r"^need n >= 3$"):
            form(np.array([-1.0, 1.0]), score_hermite(4))

    def test_closed_form_without_coefficients_one_message(self, monkeypatch):
        def no_kernel(*args, **kwargs):
            raise AssertionError("a closed-form kernel was built")

        monkeypatch.setattr(univariate, "closed_form_kernel", no_kernel)
        z = standardize(np.random.default_rng(17).normal(size=6))
        quartic = ScoreFunction(evaluate=lambda x: x**4, family_label="x4")
        for build in (lambda: make_statistic("lbi-closed", score=quartic),
                      lambda: lbi_closed_form(z, quartic)):
            with pytest.raises(ValueError, match="^closed form needs polynomial coefficients$"):
                build()

    def test_a_finite_score_whose_sum_overflows(self):
        rng = np.random.default_rng(24)
        z = standardize(rng.normal(size=10))
        huge = ScoreFunction(evaluate=lambda x: np.full_like(x, 1e308), family_label="huge")
        spec = make_statistic("lbi-approx", score=huge)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScoreOverflow,
                               match="^the sum of the score over the 10 points leaves the float range$"):
                lbi_laplace(z, huge)
            # the batch form sums alike: its inf null values are refused as such
            assert np.all(spec.compute_batch(rng.normal(size=(3, 10))) == np.inf)
            with pytest.raises(ScoreOverflow, match="10000 of 10000 null values at n = 10 are not finite"):
                calibrate_null(spec, 10, 10_000, 0)

    def test_a_finite_score_whose_sum_overflows_with_both_signs(self):
        # inf - inf: numpy warned "invalid value encountered in reduce" first
        rng = np.random.default_rng(25)
        z = standardize(rng.normal(size=10))
        huge = ScoreFunction(evaluate=lambda x: np.copysign(1e308, x), family_label="huge")
        spec = make_statistic("lbi-approx", score=huge)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(univariate.score_sums(np.repeat([[1.0, -1.0]], 4, axis=1), huge)[0])
            with pytest.raises(ScoreOverflow,
                               match="^the sum of the score over the 10 points leaves the float range$"):
                lbi_laplace(z, huge)
            with pytest.raises(ScoreOverflow, match=r"^lbi-approx\(huge\): \d+ of 10000 null values "
                                                    "at n = 10 are not finite$"):
                calibrate_null(spec, 10, 10_000, 0)

    def test_a_finite_derivative_whose_profile_sum_overflows(self):
        # Σ z_i h'(z_i) leaves the float range: inf for this sample, and inf
        # or NaN (terms of both signs overflow) in the null, both refused
        rng = np.random.default_rng(24)
        z = standardize(rng.normal(size=10))
        huge = ScoreFunction(evaluate=lambda x: x, family_label="huge",
                             derivative=lambda x: np.full_like(x, 1e308))
        spec = make_statistic("profile", score=huge)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = profile_likelihood_statistic(z, huge)
            assert value == np.inf
            with pytest.raises(ScoreOverflow, match=r"^observed statistic is not finite \(inf\)$"):
                p_value(calibrate_null(make_statistic("kurt"), 10, 10_000, 0), value)
            with pytest.raises(ScoreOverflow, match=r"^profile\(huge\): \d+ of 10000 null values "
                                                    "at n = 10 are not finite$"):
                calibrate_null(spec, 10, 10_000, 0)
