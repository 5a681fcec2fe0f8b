"""Standardization, moments, Hermite polynomials and closed-form constants."""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from scipy.integrate import dblquad, quad

from lbinorm.core import (
    BLOCK_SIZE,
    CHUNK,
    coefficient_c,
    hermite,
    hermite_coefficients,
    null_denominator_constant,
    replications,
    row_chunks,
    standardize,
    standardized_moment,
)
from lbinorm.errors import DegenerateSample, ScoreOverflow


class TestStandardize:
    def test_symmetric_three_point(self):
        z = standardize([0.0, 1.0, 2.0])
        r = math.sqrt(1.5)
        np.testing.assert_allclose(z, [-r, 0.0, r], atol=1e-14)

    def test_constant_sample_raises(self):
        with pytest.raises(DegenerateSample):
            standardize([5.0, 5.0, 5.0])

    def test_direct_arithmetic_oracle(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        xbar = x.mean()
        s = math.sqrt(np.mean((x - xbar) ** 2))
        z = standardize(x)
        np.testing.assert_allclose(z, (x - xbar) / s, rtol=1e-14)
        assert abs(z.sum()) < 1e-10 * 4
        np.testing.assert_allclose(np.sum(z * z), 4.0, rtol=1e-10)

    def test_affine_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = rng.normal(size=17)
            a, b = rng.normal(), rng.uniform(0.1, 5.0)
            np.testing.assert_allclose(
                standardize(a + b * x), standardize(x), atol=1e-9
            )

    def test_small_and_invalid_samples(self):
        with pytest.raises(ValueError):
            standardize([1.0, 2.0])
        with pytest.raises(ValueError):
            standardize([1.0, 2.0, np.nan])

    def test_constant_sample_with_inexact_mean_raises(self):
        # the mean of twenty 0.1s is 0.1 + 1.4e-17: every residual is +-1.4e-17
        x = np.full(20, 0.1)
        assert x.mean() != 0.1
        with pytest.raises(DegenerateSample, match="zero sample variance"):
            standardize(x)
        stack = np.random.default_rng(14).normal(size=(3, 20))
        stack[2] = x
        with pytest.raises(DegenerateSample, match="zero sample variance"):
            standardize(stack)

    def test_stack_equals_row_by_row(self):
        x = np.random.default_rng(12).normal(size=(3, 7))
        assert np.array_equal(standardize(x), np.stack([standardize(row) for row in x]))

    @pytest.mark.parametrize("cells, value, error, message", [
        ((1, slice(None)), 5.0, DegenerateSample, "zero sample variance"),
        ((1, 4), np.nan, ValueError, "non-finite")])
    def test_stack_with_one_bad_sample_raises(self, cells, value, error, message):
        x = np.random.default_rng(13).normal(size=(3, 7))
        x[cells] = value
        with pytest.raises(error, match=message):
            standardize(x)


class TestStandardizedMoment:
    def test_centering_and_scaling(self):
        z = standardize(np.random.default_rng(0).normal(size=25))
        assert abs(standardized_moment(z, 1)) < 1e-12
        np.testing.assert_allclose(standardized_moment(z, 2), 1.0, rtol=1e-12)

    def test_fourth_moment_example(self):
        r = math.sqrt(1.5)
        z = np.array([-r, 0.0, r])
        np.testing.assert_allclose(standardized_moment(z, 4), 1.5, rtol=1e-14)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            standardized_moment([0.0, 1.0, -1.0], 0)


class TestHermite:
    def test_low_order_values(self):
        assert hermite(3, 2.0) == pytest.approx(2.0)  # x^3 - 3x
        assert hermite(4, 0.0) == pytest.approx(3.0)  # x^4 - 6x^2 + 3
        # explicit degree-6 polynomial x^6 - 15x^4 + 45x^2 - 15 at x=1
        assert hermite(6, 1.0) == pytest.approx(16.0)
        assert np.polyval([1, 0, -15, 0, 45, 0, -15], 1.0) == 16.0

    def test_recurrence_matches_coefficients(self):
        x = np.linspace(-4.0, 4.0, 41)
        for k in range(13):
            np.testing.assert_allclose(
                hermite(k, x),
                np.polyval(hermite_coefficients(k), x),
                rtol=1e-12,
                atol=1e-9,
            )

    def test_orthogonality_under_gaussian_weight(self):
        x, w = hermegauss(64)
        w = w / math.sqrt(2.0 * math.pi)
        for j in range(9):
            hj = hermite(j, x)
            for k in range(9):
                inner = np.sum(w * hj * hermite(k, x))
                target = math.factorial(j) if j == k else 0.0
                assert abs(inner - target) < 1e-8

    def test_array_and_scalar_forms(self):
        assert isinstance(hermite(3, 1.0), float)
        assert hermite(0, np.array([1.0, 2.0])).shape == (2,)


class TestCoefficientC:
    def test_closed_form_values(self):
        assert coefficient_c(0, 1) == pytest.approx(math.sqrt(math.pi / 2.0))
        assert coefficient_c(1, 2) == pytest.approx(0.5)
        assert coefficient_c(2, 4) == pytest.approx(
            math.sqrt(2.0) * (math.sqrt(math.pi) / 2.0) / 8.0
        )

    def test_against_defining_integral(self):
        for l in range(0, 7):
            for n in (1, 3, 10):
                val, _ = quad(lambda x: x**l * math.exp(-n * x * x / 2.0), 0, np.inf)
                np.testing.assert_allclose(coefficient_c(l, n), val, rtol=1e-9)


class TestNullDenominatorConstant:
    def test_small_n_closed_forms(self):
        np.testing.assert_allclose(
            null_denominator_constant(3), 1.0 / (2.0 * 3**1.5 * math.pi), rtol=1e-14
        )
        np.testing.assert_allclose(
            null_denominator_constant(5),
            math.gamma(2.0) / (2.0 * 5**2.5 * math.pi**2),
            rtol=1e-14,
        )

    def test_quadrature_oracle_n10(self):
        # with sum z = 0 and sum z^2 = n, prod phi(a + b z_i) equals
        # (2 pi)^(-n/2) exp(-n(a^2+b^2)/2), so the 2-D integral is analytic
        n = 10
        val, _ = dblquad(
            lambda b, a: (2.0 * math.pi) ** (-n / 2.0)
            * math.exp(-0.5 * n * (a * a + b * b))
            * b ** (n - 2),
            -np.inf,
            np.inf,
            0.0,
            np.inf,
        )
        np.testing.assert_allclose(null_denominator_constant(n), val, rtol=1e-8)

    def test_large_n_from_logarithms(self):
        # the product form gave 0.0 at n = 255 and OverflowError from n = 256
        for n in (255, 256):
            log_value = (math.lgamma((n - 1) / 2.0) - math.log(2.0) - 0.5 * n * math.log(n)
                         - 0.5 * (n - 1) * math.log(math.pi))
            value = null_denominator_constant(n)
            assert value > 0.0
            assert value == pytest.approx(math.exp(log_value), rel=1e-12)

    def test_below_normal_float_range_raises(self):
        assert null_denominator_constant(495) >= 2.2250738585072014e-308
        for n in (496, 2000):
            with pytest.raises(ScoreOverflow):
                null_denominator_constant(n)


class TestReplications:
    """Block i of BLOCK_SIZE rows comes from default_rng([*key, i]), drawn in
    its row_chunks, one draw call per chunk, in order."""

    @pytest.mark.parametrize("reps, row_shape", [
        (25_000, (20,)), (10_000, ()), (2_500, (50, 5)), (12_000, (2000,)), (3, (40_000,))])
    def test_chunks_of_each_block_from_its_substream(self, reps, row_shape):
        key = (7, 2)
        expected = []
        for block, start in enumerate(range(0, reps, BLOCK_SIZE)):
            m = min(BLOCK_SIZE, reps - start)
            rng = np.random.default_rng([*key, block])
            for rows in row_chunks(m, math.prod(row_shape)):
                expected.append(rng.standard_normal((rows, *row_shape)))
        got = list(replications(key, reps, row_shape, lambda rng, size: rng.standard_normal(size)))
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g.shape == e.shape
            assert g.size <= max(CHUNK, math.prod(row_shape))
            np.testing.assert_array_equal(g, e)
        assert sum(g.shape[0] for g in got) == reps

    def test_scalar_rows_are_one_chunk_per_block(self):
        sizes = replications((3,), 25_000, (), lambda rng, size: size)
        assert list(sizes) == [(10_000,), (10_000,), (5_000,)]
