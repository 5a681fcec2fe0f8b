"""Whitening, the two multivariate statistics and their moment oracles."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from lbinorm.core import standardize
from lbinorm.errors import SingularCovariance
from lbinorm.multivariate import (
    moment_R,
    moment_S,
    sample_bartlett_lower,
    stat_gl,
    stat_lt,
    whiten,
    wishart_moment_check,
)


def _stat_lt_bruteforce(Z):
    """Literal quadruple-loop form of the triangular-group statistic."""
    n, p = Z.shape
    total = 0.0
    for i in range(n):
        q = Z[i] ** 2
        r2 = q.sum()
        total += (n + p + 2) * (n + p) * r2 * r2
        for j in range(1, p + 1):
            for k in range(1, p + 1):
                total -= 2.0 * (n + p + 2) * max(j, k) * q[j - 1] * q[k - 1]
                total -= 2.0 * (n + p) * min(j, k) * q[j - 1] * q[k - 1]
        u = sum(j * q[j - 1] for j in range(1, p + 1))
        total += 4.0 * u * u
    return total


class TestWhiten:
    def test_reduces_to_univariate_standardize(self):
        x = np.random.default_rng(1).normal(size=9)
        Z = whiten(x[:, None])
        np.testing.assert_allclose(Z[:, 0], standardize(x), rtol=1e-12)

    def test_identical_rows_raise(self):
        with pytest.raises(SingularCovariance):
            whiten(np.ones((8, 2)))

    def test_whitening_identities(self):
        X = np.random.default_rng(2).normal(size=(10, 2))
        Z = whiten(X)
        np.testing.assert_allclose(Z.sum(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(Z.T @ Z / 10.0, np.eye(2), atol=1e-10)

    def test_shape_requirements(self):
        with pytest.raises(ValueError):
            whiten(np.random.default_rng(3).normal(size=(3, 2)))

    @pytest.mark.parametrize("fn", [whiten, stat_gl, stat_lt])
    @pytest.mark.parametrize("shape", [(8,), (8, 0), (3, 8, 0)])
    def test_no_coordinates_rejected(self, fn, shape):
        with pytest.raises(ValueError, match="expected an n x p matrix"):
            fn(np.zeros(shape))


class TestStatGl:
    def test_p1_reduction_to_kurtosis_direction(self):
        x = np.random.default_rng(4).normal(size=12)
        z = standardize(x)
        assert stat_gl(whiten(x[:, None])) == pytest.approx(np.sum(z**4), rel=1e-12)

    def test_spherical_equality_case(self):
        # rows on a sphere of squared radius p give exactly n * p^2
        Z = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        assert stat_gl(Z) == pytest.approx(4.0 * 4.0)

    def test_mahalanobis_bruteforce(self):
        X = np.random.default_rng(5).normal(size=(12, 3))
        xbar = X.mean(axis=0)
        S = (X - xbar).T @ (X - xbar) / 12.0
        d = np.array([(x - xbar) @ np.linalg.solve(S, x - xbar) for x in X])
        assert stat_gl(whiten(X)) == pytest.approx(np.sum(d * d), rel=1e-10)

    def test_general_linear_invariance(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(15, 3))
        ref = stat_gl(whiten(X))
        for _ in range(20):
            B = rng.normal(size=(3, 3))
            while abs(np.linalg.det(B)) < 0.05:
                B = rng.normal(size=(3, 3))
            a = rng.normal(size=3)
            assert stat_gl(whiten(a + X @ B.T)) == pytest.approx(ref, rel=1e-8)


class TestStatLt:
    def test_p1_reduction_factor(self):
        x = np.random.default_rng(7).normal(size=11)
        z = standardize(x)
        n = 11
        # (n+3)(n+1) - 2(n+3) - 2(n+1) + 4 = n^2 - 1
        assert stat_lt(whiten(x[:, None])) == pytest.approx(
            (n * n - 1) * np.sum(z**4), rel=1e-12
        )

    def test_bruteforce_oracle(self):
        rng = np.random.default_rng(8)
        for p in (2, 3):
            Z = whiten(rng.normal(size=(12, p)))
            assert stat_lt(Z) == pytest.approx(_stat_lt_bruteforce(Z), rel=1e-10)

    def test_column_order_dependence(self):
        Z = whiten(np.random.default_rng(9).normal(size=(12, 2)))
        assert stat_lt(Z) != pytest.approx(stat_lt(Z[:, ::-1]))

    def test_lower_triangular_invariance(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(14, 3))
        ref = stat_lt(whiten(X))
        for _ in range(20):
            T0 = np.tril(rng.normal(size=(3, 3)))
            np.fill_diagonal(T0, rng.uniform(0.2, 2.0, size=3))
            a = rng.normal(size=3)
            assert stat_lt(whiten(a + X @ T0.T)) == pytest.approx(ref, rel=1e-8)

    def test_not_invariant_under_rotation(self):
        X = np.random.default_rng(11).normal(size=(14, 2))
        c, s = math.cos(0.7), math.sin(0.7)
        R = np.array([[c, -s], [s, c]])
        assert stat_lt(whiten(X @ R.T)) != pytest.approx(stat_lt(whiten(X)), rel=1e-4)


class TestTriangularMoments:
    def test_p1_closed_forms(self):
        # single term of R at p=1: m + 2 - 2 = m; S matches E[chi_m^4] = m(m+2)
        assert moment_R([1.0], 5.0) == pytest.approx(5.0)
        for m in (3.0, 5.0, 8.0):
            assert moment_S([1.0], m) == pytest.approx(m * (m + 2.0))

    def test_monte_carlo_oracle_p2(self):
        m, p = 4.0, 2
        z = np.array([1.0, 1.0])
        rng = np.random.default_rng(12)
        T = sample_bartlett_lower(m, p, 200_000, rng)
        qf = np.sum((T @ z) ** 2, axis=1)
        np.testing.assert_allclose(moment_R(z, m), qf.mean(), rtol=0.01)
        np.testing.assert_allclose(moment_S(z, m), (qf * qf).mean(), rtol=0.01)

    def test_scaling_in_z(self):
        z = np.array([0.5, -1.5, 2.0])
        np.testing.assert_allclose(moment_R(2.0 * z, 6.0), 4.0 * moment_R(z, 6.0))
        np.testing.assert_allclose(moment_S(2.0 * z, 6.0), 16.0 * moment_S(z, 6.0))


class TestWishartMomentCheck:
    def test_p1_chisquare_mean(self):
        rep = wishart_moment_check(12, 1, 100_000, seed=1, z=np.array([2.0]))
        assert abs(rep["mean"] - rep["mean_target"]) < 3.0 * rep["mean_se"]
        assert rep["mean_target"] == pytest.approx(11.0 * 4.0)

    def test_p2_second_moment(self):
        rep = wishart_moment_check(10, 2, 300_000, seed=2, z=np.array([1.0, 0.0]))
        assert rep["second_moment_target"] == pytest.approx(99.0)
        assert (
            abs(rep["second_moment"] - rep["second_moment_target"])
            < 3.0 * rep["second_moment_se"]
        )

    def test_zero_vector(self):
        rep = wishart_moment_check(8, 2, 1000, seed=3, z=np.zeros(2))
        assert rep["mean"] == 0.0
        assert rep["second_moment"] == 0.0

    def test_requires_n_above_p(self):
        with pytest.raises(ValueError):
            wishart_moment_check(2, 3, 100, seed=0)


class TestDegreesOfFreedomMapping:
    def test_expansion_matches_displayed_statistic(self):
        # summing the triangular second-moment form over whitened rows must
        # reproduce the displayed statistic exactly when the chi diagonals
        # carry m = n - p degrees (plus z-independent terms, which vanish
        # here because the column norms of a whitened Z are fixed)
        rng = np.random.default_rng(13)
        n, p = 8, 2
        for _ in range(5):
            Z = whiten(rng.normal(size=(n, p)))
            expansion = sum(moment_S(z, float(n - p)) for z in Z)
            assert expansion == pytest.approx(stat_lt(Z), rel=1e-12)
            wrong = sum(moment_S(z, float(n - p - 1)) for z in Z)
            assert wrong != pytest.approx(stat_lt(Z), rel=1e-3)


def test_whiten_matches_scipy_triangular_solve():
    rng = np.random.default_rng(8)
    for n, p in ((5, 3), (50, 3), (50, 5), (200, 8)):
        X = rng.standard_normal((n, p)) @ (np.eye(p) + 0.5 * rng.standard_normal((p, p)))
        D = X - X.mean(axis=0)
        ref = solve_triangular(np.linalg.cholesky(D.T @ D / n), D.T, lower=True).T
        np.testing.assert_allclose(whiten(X), ref, rtol=0.0, atol=1e-12 * np.max(np.abs(ref)))
    with pytest.raises(SingularCovariance):
        whiten(np.column_stack([rng.standard_normal(10), np.full(10, 2.0)]))


class TestStackedSamples:
    """whiten and the statistics on a (..., n, p) stack equal the per-sample loop."""

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_stack_matches_per_sample_loop(self, p):
        X = np.random.default_rng(20 + p).normal(size=(40, 12, p))
        Z = whiten(X)
        assert Z.shape == X.shape
        for xi, zi in zip(X, Z):
            ref = whiten(xi)
            np.testing.assert_allclose(zi, ref, rtol=0.0, atol=1e-12 * np.max(np.abs(ref)))
        np.testing.assert_array_equal(whiten(X.reshape(4, 10, 12, p)), Z.reshape(4, 10, 12, p))
        for fn in (stat_gl, stat_lt):
            vals = fn(Z)
            assert isinstance(vals, np.ndarray) and vals.shape == (40,)
            np.testing.assert_allclose(vals, [fn(whiten(xi)) for xi in X], rtol=1e-12, atol=0.0)
            assert type(fn(Z[0])) is float

    def test_one_singular_sample_raises(self):
        X = np.random.default_rng(30).normal(size=(6, 12, 3))
        X[4, :, 1] = 2.0
        with pytest.raises(SingularCovariance):
            whiten(X)


@pytest.mark.parametrize("p", range(1, 9))
def test_whiten_stack_matches_general_solve(p):
    X = np.random.default_rng(40 + p).normal(size=(25, p + 6, p)) @ (np.eye(p) + 0.4 * np.ones((p, p)))
    D = X - X.mean(axis=-2, keepdims=True)
    T = np.linalg.cholesky(np.swapaxes(D, -1, -2) @ D / X.shape[-2])
    ref = np.swapaxes(np.linalg.solve(T, np.swapaxes(D, -1, -2)), -1, -2)
    np.testing.assert_allclose(whiten(X), ref, rtol=0.0, atol=1e-12 * np.max(np.abs(ref)))


def _layouts(A):
    """The same values as a C-ordered array, a Fortran-ordered copy, a
    strided slice of a larger array and a read-only array."""
    strided = np.zeros(tuple(2 * s + 1 for s in A.shape))
    view = strided[tuple(slice(1, None, 2) for _ in A.shape)]
    view[...] = A
    read_only = A.copy()
    read_only.setflags(write=False)
    return {"C": np.ascontiguousarray(A), "F": np.asfortranarray(A), "strided": view,
            "read-only": read_only}


class TestMemoryLayouts:
    """whiten and the statistics give one answer whatever the input's layout."""

    @pytest.mark.parametrize("shape", [(30, 4), (7, 30, 4), (2, 3, 12, 5)])
    def test_whiten_and_statistics_agree_across_layouts(self, shape):
        X = np.random.default_rng(60).standard_normal(shape) @ (np.eye(shape[-1]) + 0.3)
        Z = whiten(X)
        for name, Xl in _layouts(X).items():
            np.testing.assert_allclose(whiten(Xl), Z, rtol=1e-12, atol=1e-12, err_msg=name)
        for fn in (stat_gl, stat_lt):
            ref = fn(Z)
            for name, Zl in _layouts(Z).items():
                np.testing.assert_allclose(fn(Zl), ref, rtol=1e-12, atol=0.0, err_msg=name)
                np.testing.assert_allclose(fn(whiten(Zl)), ref, rtol=1e-12, atol=0.0, err_msg=name)

    @pytest.mark.parametrize("shape", [(30, 4), (7, 30, 4)])
    def test_whiten_never_writes_its_input(self, shape):
        X = np.random.default_rng(61).standard_normal(shape) + 5.0
        for name, Xl in _layouts(X).items():
            before = Xl.copy()
            whiten(Xl)
            np.testing.assert_array_equal(Xl, before, err_msg=name)

    @pytest.mark.parametrize("p", [3, 5, 8])
    def test_near_collinear_matches_scipy_triangular_solve(self, p):
        # integer columns of ~1e6, the last one their sum off by at most 1,
        # and rows Y, -Y: the mean is 0 and D'D/n is exact, so whiten and
        # the reference share S and T, and differ only in applying T^{-1}
        rng = np.random.default_rng(62 + p)
        Y = rng.integers(-10**6, 10**6, size=(8, p)).astype(float)
        Y[:, -1] = Y[:, :-1].sum(axis=1) + rng.integers(-1, 2, size=8)
        X = np.concatenate([Y, -Y])
        T = np.linalg.cholesky(X.T @ X / X.shape[0])
        cond = np.linalg.cond(T)
        assert cond > 1e6
        ref = solve_triangular(T, X.T, lower=True).T
        tol = p * np.finfo(float).eps * cond * np.max(np.abs(ref))
        np.testing.assert_allclose(whiten(X), ref, rtol=0.0, atol=tol)
        np.testing.assert_allclose(whiten(np.stack([X, X[::-1]]))[1], ref[::-1], rtol=0.0, atol=tol)
