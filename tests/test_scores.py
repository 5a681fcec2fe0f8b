"""Score-function catalog and the Gaussian orthogonalization."""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from lbinorm.core import hermite_coefficients, standardize
from lbinorm.errors import BothCumulantsZero, InvalidDensity, NotSquareIntegrable
from lbinorm.scores import (
    _gauss_hermite_moments,
    builtin_contaminations,
    orthogonalize,
    score_contamination,
    score_edgeworth_combined,
    score_gh_limit,
    score_hermite,
    score_infinitely_divisible,
)
from lbinorm.univariate import lbi_exact

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _gaussian_moments(score, nodes=64):
    """E[s(X) x^k] for k = 0, 1, 2 under X ~ N(0,1)."""
    x, w = hermegauss(nodes)
    w = w / _SQRT_2PI
    v = np.asarray(score(x))
    return np.array([np.sum(w * v), np.sum(w * v * x), np.sum(w * v * x * x)])


class TestScoreHermite:
    def test_coefficients(self):
        assert score_hermite(3).polynomial_coeffs == (1.0, 0.0, -3.0, 0.0)
        assert score_hermite(4).polynomial_coeffs == (1.0, 0.0, -6.0, 0.0, 3.0)

    def test_degree_five_value(self):
        # recurrence oracle: He_5(1) = 1 - 10 + 15 = 6
        assert score_hermite(5)(1.0) == pytest.approx(6.0)

    def test_polynomial_consistency(self):
        x = np.linspace(-10.0, 10.0, 201)
        for k in range(3, 9):
            s = score_hermite(k)
            np.testing.assert_allclose(
                s(x), np.polyval(s.polynomial_coeffs, x), rtol=1e-12
            )

    def test_rejects_out_of_range_order(self):
        for k in (2, 9):
            with pytest.raises(ValueError):
                score_hermite(k)


class TestScoreGhLimit:
    def test_symmetric_case_is_even(self):
        coeffs = np.asarray(score_gh_limit(0.0).polynomial_coeffs)
        assert np.all(coeffs[1::2] == 0.0)

    def test_is_orthogonalized_combination(self):
        # (beta/2) He_3 + (1/8) He_4: the orthogonalized form of
        # (beta/2) x^3 + (1/8) x^4
        for beta in (-1.0, 0.0, 0.7):
            expect = 0.125 * hermite_coefficients(4)
            expect[1:] += 0.5 * beta * hermite_coefficients(3)
            np.testing.assert_allclose(
                score_gh_limit(beta).polynomial_coeffs, expect, atol=1e-14
            )
            m = _gaussian_moments(score_gh_limit(beta))
            assert np.max(np.abs(m)) < 1e-9

    def test_constant_term_matches_projection(self):
        s = score_gh_limit(0.0)
        # evaluate(0) is the constant term of the orthogonalized quartic
        assert s(0.0) == pytest.approx(s.polynomial_coeffs[-1])
        assert s(0.0) == pytest.approx(3.0 / 8.0)


class TestScoreInfinitelyDivisible:
    def test_skew_direction(self):
        s = score_infinitely_divisible(2.0, 5.0)
        np.testing.assert_allclose(
            s.polynomial_coeffs, (2.0 / 6.0) * hermite_coefficients(3), rtol=1e-14
        )

    def test_kurtosis_direction(self):
        s = score_infinitely_divisible(0.0, 3.0)
        np.testing.assert_allclose(
            s.polynomial_coeffs, (3.0 / 24.0) * hermite_coefficients(4), rtol=1e-14
        )

    def test_both_zero_raises(self):
        with pytest.raises(BothCumulantsZero):
            score_infinitely_divisible(0.0, 0.0)

    @pytest.mark.parametrize("kappa3, kappa4", [(np.nan, 1.0), (1.0, np.nan),
                                                (np.inf, 0.0), (0.0, -np.inf)])
    def test_combined_blend_refuses_non_finite_cumulants(self, kappa3, kappa4):
        with pytest.raises(ValueError, match="^kappa3 and kappa4 must be finite$"):
            score_edgeworth_combined(kappa3, kappa4)

    def test_combined_blend(self):
        s = score_edgeworth_combined(6.0, 24.0)
        expect = hermite_coefficients(4).astype(float)
        expect[1:] += hermite_coefficients(3)
        np.testing.assert_allclose(s.polynomial_coeffs, expect, rtol=1e-14)


class TestScoreContamination:
    def test_identity_contamination_is_zero(self):
        s = score_contamination(
            lambda x: np.exp(-np.asarray(x) ** 2 / 2.0) / _SQRT_2PI
        )
        x = np.linspace(-5.0, 5.0, 41)
        np.testing.assert_allclose(s(x), 0.0, atol=1e-12)

    def test_scale_two_value_at_origin(self):
        s = score_contamination(builtin_contaminations()["normal-scale-2"])
        assert s(0.0) == pytest.approx(1.0 / math.sqrt(2.0) - 1.0)

    def test_shifted_normal_closed_form(self):
        s = score_contamination(builtin_contaminations()["normal-shift-1"])
        x = np.linspace(-3.0, 3.0, 25)
        np.testing.assert_allclose(s(x), np.exp(x - 0.5) - 1.0, rtol=1e-12)
        assert s(0.5) == pytest.approx(0.0, abs=1e-14)

    def test_invalid_density_rejected(self):
        with pytest.raises(InvalidDensity):
            score_contamination(lambda x: 2.0 * np.exp(-np.abs(x)))

    def test_symmetric_density_gives_even_score(self):
        s = score_contamination(builtin_contaminations()["laplace-unit"])
        x = np.random.default_rng(3).uniform(0.0, 8.0, size=100)
        np.testing.assert_allclose(s(x), s(-x), rtol=1e-10)


class TestOrthogonalize:
    def test_hermite_scores_unchanged(self):
        for k in (3, 4):
            out = orthogonalize(score_hermite(k))
            np.testing.assert_allclose(
                out.polynomial_coeffs, score_hermite(k).polynomial_coeffs, atol=1e-10
            )

    def test_cubic_monomial_becomes_hermite(self, poly_score):
        out = orthogonalize(poly_score([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(
            out.polynomial_coeffs, [1.0, 0.0, -3.0, 0.0], atol=1e-10
        )

    def test_quartic_monomial_projection(self, poly_score):
        out = orthogonalize(poly_score([1.0, 0.0, 0.0, 0.0, 0.0]))
        c = np.asarray(out.polynomial_coeffs)
        # x^4 - 6x^2 + const: degree-3 and degree-1 terms vanish, and the
        # result is mean-zero under the Gaussian weight
        np.testing.assert_allclose(c[:4], [1.0, 0.0, -6.0, 0.0], atol=1e-9)
        m = _gaussian_moments(out)
        assert np.max(np.abs(m)) < 1e-9

    def test_idempotent_on_coefficients(self, poly_score):
        rng = np.random.default_rng(5)
        for _ in range(5):
            s = poly_score(rng.normal(size=6))
            once = orthogonalize(s)
            twice = orthogonalize(once)
            np.testing.assert_allclose(
                twice.polynomial_coeffs, once.polynomial_coeffs, atol=1e-12
            )

    def test_callable_path_matches_polynomial_path(self, poly_score):
        coeffs = [0.5, -1.0, 2.0, 0.0, 1.0]
        from lbinorm.scores import ScoreFunction

        as_poly = orthogonalize(poly_score(coeffs))
        as_callable = orthogonalize(
            ScoreFunction(
                evaluate=lambda x: np.polyval(coeffs, x), family_label="raw"
            )
        )
        x = np.linspace(-4.0, 4.0, 33)
        np.testing.assert_allclose(as_callable(x), as_poly(x), atol=1e-9)

    def test_gaussian_moments_of_monomials(self):
        # E[X^k], E[X^(k+1)], E[X^k (X^2 - 1)] for X ~ N(0, 1)
        for k, expected in [(0, [1.0, 0.0, 0.0]), (2, [1.0, 0.0, 2.0]), (4, [3.0, 0.0, 12.0]),
                            (3, [0.0, 3.0, 0.0])]:
            got = _gauss_hermite_moments(lambda x, k=k: x**k, 64)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_stable_score_rejected(self, stable_score0):
        with pytest.raises(NotSquareIntegrable):
            orthogonalize(stable_score0)

    def test_rank_invariance_of_exact_statistic(self, poly_score):
        # orthogonalization changes the exact statistic only by a
        # positive-slope affine map, so sample orderings are preserved
        raw = poly_score([1.0, 1.0, 0.0, 0.0, 0.0], label="x4+x3")
        orth = orthogonalize(raw)
        rng = np.random.default_rng(17)
        before, after = [], []
        for _ in range(200):
            z = standardize(rng.normal(size=10))
            before.append(lbi_exact(z, raw, check=False).value)
            after.append(lbi_exact(z, orth, check=False).value)
        assert np.array_equal(np.argsort(before), np.argsort(after))
