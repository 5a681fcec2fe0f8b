"""Null calibration, p-values, alternative samplers, power and the cache."""

import contextlib
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from lbinorm.calibration import (
    AlternativeSpec,
    NullCalibration,
    StatisticSpec,
    _sample_gig,
    _sample_stable_m,
    cache_path,
    calibrate_null,
    check_alternative,
    closed_form_weights,
    load_calibration,
    make_statistic,
    p_value,
    power_curve,
    sample_alternative,
    save_calibration,
)
from lbinorm.core import BLOCK_SIZE, CHUNK, block_substreams, standardize, standardized_moment
from lbinorm.core import row_chunks as _row_chunks
from lbinorm.errors import (DegenerateSample, IncompatibleSelection, ScoreOverflow,
                            SingularCovariance, UnsupportedShape)
from lbinorm.multivariate import stat_gl, stat_lt, whiten
from lbinorm.scores import score_gh_limit, score_hermite
from lbinorm.stable import InversionConfig, score_stable
from lbinorm.univariate import (
    QuadratureConfig,
    lbi_closed_form,
    lbi_laplace,
    profile_likelihood_statistic,
)


class TestMakeStatistic:
    def test_moment_statistics_match_module(self):
        x = np.random.default_rng(1).normal(size=15)
        z = standardize(x)
        assert make_statistic("skew").compute(x) == pytest.approx(
            standardized_moment(z, 3), rel=1e-12
        )
        assert make_statistic("kurt").compute(x) == pytest.approx(
            standardized_moment(z, 4), rel=1e-12
        )

    def test_laplace_profile_and_closed_paths(self):
        x = np.random.default_rng(2).normal(size=12)
        z = standardize(x)
        s = score_gh_limit(0.5)
        assert make_statistic("lbi-approx", score=s).compute(x) == pytest.approx(
            lbi_laplace(z, s).value, rel=1e-12
        )
        assert make_statistic("profile", score=s).compute(x) == pytest.approx(
            profile_likelihood_statistic(z, s), rel=1e-12
        )
        assert make_statistic("lbi-closed", score=s).compute(x) == pytest.approx(
            lbi_closed_form(z, s).value, rel=1e-12
        )

    def test_mvn_statistic(self):
        X = np.random.default_rng(3).normal(size=(12, 2))
        assert make_statistic("mvn", group="lt").compute(X) == pytest.approx(
            stat_lt(whiten(X)), rel=1e-12
        )

    def test_exact_statistic_batch(self):
        from lbinorm.univariate import lbi_exact

        x = np.random.default_rng(4).normal(size=(2, 8))
        spec = make_statistic("lbi-exact", score=score_hermite(4))
        vals = spec.compute_batch(x)
        for xi, v in zip(x, vals):
            assert v == pytest.approx(
                lbi_exact(standardize(xi), score_hermite(4), check=False).value,
                rel=1e-12,
            )

    def test_score_required(self):
        with pytest.raises(ValueError):
            make_statistic("lbi-approx")

    @pytest.mark.parametrize("name", ["skew", "kurt", "mvn"])
    def test_statistic_without_a_score_refuses_one(self, name):
        # it returned the plain statistic, label and empty fingerprint alike
        with pytest.raises(ValueError, match=f"^statistic '{name}' takes no score$"):
            make_statistic(name, score=score_hermite(4))

    @pytest.mark.parametrize("name, kwargs, message", [
        ("mvn", {"group": "x"}, "group must be 'gl' or 'lt'"),
        ("nope", {"score": score_hermite(4)}, "unknown statistic 'nope'"),
    ], ids=["group", "name"])
    def test_unknown_name_or_group_refused(self, name, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_statistic(name, **kwargs)

    @pytest.mark.parametrize("name", ["skew", "kurt", "lbi-closed", "lbi-approx", "profile"])
    def test_constant_sample_in_batch_raises(self, name):
        x = np.random.default_rng(6).normal(size=(4, 12))
        x[2] = 1.5
        score = None if name in ("skew", "kurt") else score_gh_limit(0.5)
        with pytest.raises(DegenerateSample):
            make_statistic(name, score=score).compute_batch(x)


class TestClosedFormWeights:
    def test_weights_reproduce_closed_form(self):
        s = score_gh_limit(1.0)
        z = standardize(np.random.default_rng(5).normal(size=10))
        w = closed_form_weights(np.asarray(s.polynomial_coeffs), 10)
        total = sum(weight * standardized_moment(z, order) for order, weight in w.items())
        assert total == pytest.approx(lbi_closed_form(z, s).value, rel=1e-12)


class TestCalibrateNull:
    def test_deterministic(self):
        spec = make_statistic("kurt")
        a = calibrate_null(spec, 10, 20_000, seed=9)
        b = calibrate_null(spec, 10, 20_000, seed=9)
        assert np.array_equal(a.sorted_null_values, b.sorted_null_values)

    def test_skewness_null_symmetric(self):
        cal = calibrate_null(make_statistic("skew"), 10, 100_000, seed=1)
        v = cal.sorted_null_values
        iqr = np.quantile(v, 0.75) - np.quantile(v, 0.25)
        assert abs(np.median(v)) < 3.0 * iqr / math.sqrt(v.size)

    def test_kurtosis_bounds(self):
        cal = calibrate_null(make_statistic("kurt"), 12, 20_000, seed=2)
        assert cal.sorted_null_values.min() >= 1.0
        assert cal.sorted_null_values.max() <= 12.0

    def test_low_reps_flagged(self):
        with pytest.warns(UserWarning):
            cal = calibrate_null(make_statistic("skew"), 8, 2000, seed=3)
        assert cal.low_reps
        with pytest.raises(ValueError):
            calibrate_null(make_statistic("skew"), 8, 500, seed=3)

    def test_mvn_at_one_column_is_n_times_kurtosis(self):
        # the same (n, 1) draws as kurt's (n,): sum z^4 = n times the kurtosis
        n = 20
        gl = calibrate_null(make_statistic("mvn", group="gl"), n, 10_000, seed=5, p=1)
        kurt = calibrate_null(make_statistic("kurt"), n, 10_000, seed=5)
        assert gl.p == 1
        np.testing.assert_allclose(gl.sorted_null_values, n * kurt.sorted_null_values,
                                   rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("p", [0, -2])
    def test_no_columns_refused(self, p):
        with pytest.raises(ValueError, match=f"^p must be >= 1, got {p}$"):
            calibrate_null(make_statistic("mvn"), 20, 10_000, seed=5, p=p)

    @pytest.mark.parametrize("name", ["kurt", "mvn"])
    @pytest.mark.parametrize("n", [-5, 0, 2])
    def test_fewer_than_three_observations_refused(self, name, n):
        with pytest.raises(ValueError, match=f"^need at least 3 observations, got {n}$"):
            calibrate_null(make_statistic(name), n, 10_000, seed=5)

    @pytest.mark.parametrize("level", [0.0, 1.0, math.nan])
    def test_critical_value_level_outside_unit_interval(self, level):
        cal = NullCalibration("kurt", 10, 1, 1000, 1, np.linspace(1.0, 2.0, 1000))
        with pytest.raises(ValueError, match=r"^level must be in \(0, 1\)$"):
            cal.critical_value(level)

    def test_critical_values_are_empirical_quantiles(self):
        cal = calibrate_null(make_statistic("kurt"), 10, 20_000, seed=4)
        crit = cal.critical_value(0.05)
        frac = np.mean(cal.sorted_null_values > crit)
        assert frac <= 0.05


class TestPValue:
    def _cal(self, values):
        v = np.sort(np.asarray(values, dtype=float))
        return NullCalibration("toy", 5, 1, v.size, 0, v)

    def test_extremes(self):
        cal = self._cal(np.arange(99.0))
        assert p_value(cal, 1e9) == pytest.approx(1.0 / 100.0)
        assert p_value(cal, -1e9) == pytest.approx(1.0)

    def test_median(self):
        cal = self._cal(np.arange(101.0))
        assert p_value(cal, 50.0) == pytest.approx(0.5, abs=1.0 / 102.0)


class TestSampleAlternative:
    def test_null_boundary_is_standard_normal(self):
        rng = np.random.default_rng(6)
        for fam in ("student-t", "gamma-centered", "laplace", "gh-variance-mean"):
            x = sample_alternative(AlternativeSpec(fam, 0.0), 10_000, rng)
            assert abs(x.mean()) < 0.05
            assert abs(x.var() - 1.0) < 0.05

    def test_gamma_skewness(self):
        m = 25.0
        x = sample_alternative(
            AlternativeSpec("gamma-centered", 1.0 / m), 1_000_000,
            np.random.default_rng(7),
        )
        z = (x - x.mean()) / x.std()
        assert abs(np.mean(z**3) - 2.0 / math.sqrt(m)) < 0.02

    def test_stable_boundary_variance_two(self):
        x = sample_alternative(
            AlternativeSpec("stable", 0.0, beta=0.4), 1_000_000,
            np.random.default_rng(8),
        )
        assert abs(x.var() - 2.0) < 0.01

    def test_stable_heavy_tail_when_off_boundary(self):
        x = sample_alternative(
            AlternativeSpec("stable", 0.5), 200_000, np.random.default_rng(9)
        )
        # alpha = 1.5: tail index below 2, so extreme draws appear
        assert np.max(np.abs(x)) > 50.0

    def test_batch_shape(self):
        x = sample_alternative(
            AlternativeSpec("laplace", 0.5), 7, np.random.default_rng(10),
            size=(4, 7),
        )
        assert x.shape == (4, 7)

    def test_invalid_parameters(self):
        rng = np.random.default_rng(11)
        with pytest.raises(UnsupportedShape):
            sample_alternative(AlternativeSpec("stable", 1.0), 5, rng)  # alpha = 1
        with pytest.raises(UnsupportedShape):
            sample_alternative(AlternativeSpec("stable", -0.1), 5, rng)
        with pytest.raises(UnsupportedShape):
            sample_alternative(AlternativeSpec("gh-variance-mean", 0.1, lam=50.0), 5, rng)
        with pytest.raises(UnsupportedShape):
            sample_alternative(AlternativeSpec("no-such-family", 0.1), 5, rng)

    @pytest.mark.parametrize("shape", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("family", AlternativeSpec.FAMILIES)
    def test_non_finite_shape_is_refused(self, family, shape):
        with pytest.raises(UnsupportedShape, match="shape must be finite"):
            check_alternative(AlternativeSpec(family, shape))
        with pytest.raises(UnsupportedShape, match="shape must be finite"):
            sample_alternative(AlternativeSpec(family, shape), 5, np.random.default_rng(12))

    def test_check_accepts_what_the_sampler_draws(self):
        for spec in (AlternativeSpec("stable", 0.0, beta=1.0), AlternativeSpec("stable", 1.9),
                     AlternativeSpec("gh-variance-mean", 0.0, lam=50.0),
                     AlternativeSpec("gh-variance-mean", 1e-3), AlternativeSpec("student-t", 3.0)):
            assert check_alternative(spec) is None
            assert np.all(np.isfinite(sample_alternative(spec, 5, np.random.default_rng(13))))


def _stable_m_reference(alpha, beta, size, rng):
    """``_sample_stable_m`` as one expression: the oracle of the in-place draw."""
    if alpha == 2.0:
        return rng.normal(0.0, math.sqrt(2.0), size=size)
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=size)
    w = rng.exponential(1.0, size=size)
    tan_half = math.tan(math.pi * alpha / 2.0)
    b0 = math.atan(beta * tan_half) / alpha
    s0 = (1.0 + beta * beta * tan_half * tan_half) ** (1.0 / (2.0 * alpha))
    x = (
        s0
        * np.sin(alpha * (u + b0))
        / np.cos(u) ** (1.0 / alpha)
        * (np.cos(u - alpha * (u + b0)) / w) ** ((1.0 - alpha) / alpha)
    )
    return x - beta * tan_half


class TestStableSampler:
    """The Chambers-Mallows-Stuck draw against its one-expression form."""

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 1.9, 2.0])
    @pytest.mark.parametrize("beta", [-1.0, -0.3, 0.0, 0.7, 1.0])
    @pytest.mark.parametrize("size", [7, (100, 20)])
    def test_bit_identical_to_reference(self, alpha, beta, size):
        ref_rng, rng = np.random.default_rng(4), np.random.default_rng(4)
        expected = _stable_m_reference(alpha, beta, size, ref_rng)
        got = _sample_stable_m(alpha, beta, size, rng)
        assert got.shape == expected.shape
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))
        # both consumed the same draws
        assert rng.uniform() == ref_rng.uniform()

    def test_stable_draws_unchanged(self):
        # the first draws of this seed when the sampler was one expression
        x = sample_alternative(AlternativeSpec("stable", 0.5, beta=0.5), 20,
                               np.random.default_rng(11), size=(3, 20))
        np.testing.assert_array_equal(x[0, :6], [
            -0.2756724148833247, 0.019561882422688526, 0.5140684381545743,
            -2.1418895570831453, -1.5813256809024985, 1.8167810844535106,
        ])


class TestGigSampler:
    """The numpy GIG sampler against scipy.stats.geninvgauss, draw for draw."""

    @pytest.mark.parametrize("lam, b", [
        (1.0, 5.0),    # ratio of uniforms with mode shift
        (3.0, 0.2),    # the same, reached by lam >= 1 alone
        (0.5, 0.6),    # ratio of uniforms without mode shift
        (0.3, 0.1),    # Hörmann-Leydold rejection from a three-piece hat
        (0.0, 0.3),    # the same with the logarithmic middle piece
        (-2.0, 3.0),   # lam < 0: the reciprocal of a GIG(2, b) draw
        (1.0, 1e3),    # the largest b that sample_alternative accepts
    ])
    @pytest.mark.parametrize("size", [7, (100, 20)])
    def test_bit_identical_to_scipy(self, lam, b, size):
        from scipy.stats import geninvgauss

        ref_rng, rng = np.random.default_rng(3), np.random.default_rng(3)
        expected = geninvgauss.rvs(lam, b, size=size, random_state=ref_rng)
        got = _sample_gig(lam, b, size, rng)
        assert got.shape == expected.shape
        np.testing.assert_array_equal(got, expected)
        # both consumed the same number of uniforms
        assert rng.uniform() == ref_rng.uniform()

    @pytest.mark.parametrize("lam, b, error", [
        (1e5, 1e-90, ValueError),     # the bounding rectangle collapses
        (1.0, 1e-300, RuntimeError),  # no draw accepted in 50 000 tries
    ])
    def test_guards_match_scipy(self, lam, b, error):
        from scipy.stats import geninvgauss

        with np.errstate(all="ignore"):
            with pytest.raises(error) as ours:
                _sample_gig(lam, b, 1000, np.random.default_rng(1))
            with pytest.raises(error) as theirs:
                geninvgauss.rvs(lam, b, size=1000, random_state=np.random.default_rng(1))
        assert str(ours.value) == str(theirs.value)

    def test_variance_mean_draws_unchanged(self):
        # the first draws of this seed when the mixing law came from scipy
        spec = AlternativeSpec("gh-variance-mean", 0.5, beta=0.5)
        x = sample_alternative(spec, 20, np.random.default_rng(11), size=(3, 20))
        np.testing.assert_array_equal(x[0, :6], [
            1.679800195090639, 0.4692680896177003, 2.6410688733162093,
            -1.4685223081648757, 1.4198288736514684, -0.7751994987555733,
        ])


class TestPowerCurve:
    def test_size_at_null_boundary(self):
        spec = make_statistic("kurt")
        cal = calibrate_null(spec, 15, 50_000, seed=20)
        rows = power_curve(
            spec, "student-t", [0.0], 15, 0.05, 20_000, seed=21, calibration=cal
        )
        assert abs(rows[0]["power"] - 0.05) < 3.0 * rows[0]["se"] + 0.002

    def test_power_increases_with_shape(self):
        spec = make_statistic("kurt")
        cal = calibrate_null(spec, 20, 50_000, seed=22)
        rows = power_curve(
            spec, "student-t", [0.0, 0.5], 20, 0.05, 20_000, seed=23, calibration=cal
        )
        assert rows[1]["power"] > rows[0]["power"] + 5.0 * rows[1]["se"]

    def test_calibration_mismatch_rejected(self):
        spec = make_statistic("kurt")
        cal = calibrate_null(spec, 15, 20_000, seed=24)
        with pytest.raises(ValueError):
            power_curve(spec, "laplace", [0.1], 12, 0.05, 5000, seed=25, calibration=cal)

    @pytest.mark.parametrize("reps", [0, -5])
    def test_reps_below_one_rejected(self, reps):
        spec = make_statistic("kurt")
        cal = calibrate_null(spec, 12, 20_000, seed=24)
        with pytest.raises(ValueError, match="power reps must be >= 1"):
            power_curve(spec, "laplace", [0.1], 12, 0.05, reps, seed=25, calibration=cal)


class TestCache:
    def test_round_trip(self, tmp_path):
        cal = calibrate_null(make_statistic("skew"), 9, 20_000, seed=30)
        path = cache_path(tmp_path, cal.statistic_label, 9, 1, 20_000, 30)
        save_calibration(cal, path)
        loaded = load_calibration(path, cal.statistic_label)
        assert loaded.n == 9 and loaded.reps == 20_000 and loaded.seed == 30
        assert np.array_equal(loaded.sorted_null_values, cal.sorted_null_values)

    def test_byte_determinism(self, tmp_path):
        cal = calibrate_null(make_statistic("skew"), 9, 20_000, seed=30)
        p1, p2 = tmp_path / "a.lbical", tmp_path / "b.lbical"
        save_calibration(cal, p1)
        save_calibration(cal, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_label_mismatch_rejected(self, tmp_path):
        cal = calibrate_null(make_statistic("skew"), 9, 20_000, seed=30)
        path = save_calibration(cal, tmp_path / "c.lbical")
        with pytest.raises(ValueError):
            load_calibration(path, "kurt")

    @pytest.mark.parametrize("offset, byte", [(0, b"X"), (7, b"\x01")], ids=["magic", "version"])
    def test_another_magic_or_version_is_not_a_cache(self, tmp_path, offset, byte):
        cal = calibrate_null(make_statistic("skew"), 9, 20_000, seed=30)
        path = save_calibration(cal, tmp_path / "c.lbical")
        raw = bytearray(path.read_bytes())
        raw[offset:offset + 1] = byte
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a calibration cache file$"):
            load_calibration(path, cal.statistic_label)

    @pytest.mark.parametrize("change", [-3, -8, 8])
    def test_payload_of_another_size_names_the_file(self, tmp_path, change):
        # 3 bytes short got numpy's "buffer size must be a multiple of element
        # size", which named no file
        cal = calibrate_null(make_statistic("skew"), 9, 20_000, seed=30)
        path = save_calibration(cal, tmp_path / "c.lbical")
        raw = path.read_bytes()
        path.write_bytes(raw[:change] if change < 0 else raw + bytes(change))
        with pytest.raises(ValueError, match=(
                f"^{re.escape(str(path))}: cache payload holds {160_000 + change} bytes, "
                "not the 160000 of 20000 float64 values$")):
            load_calibration(path, cal.statistic_label)

    @pytest.mark.parametrize("reps, low", [(2000, True), (20_000, False)])
    def test_low_reps_read_back_from_the_cache(self, tmp_path, reps, low):
        with pytest.warns(UserWarning) if low else contextlib.nullcontext():
            cal = calibrate_null(make_statistic("skew"), 9, reps, seed=30)
        loaded = load_calibration(save_calibration(cal, tmp_path / "low.lbical"), cal.statistic_label)
        assert cal.low_reps is loaded.low_reps is low


class TestCacheFingerprint:
    def test_settings_change_the_key_not_the_label(self, tmp_path):
        score = score_hermite(4)
        specs = [
            make_statistic("lbi-exact", score=score),
            make_statistic("lbi-exact", score=score, quad_cfg=QuadratureConfig(a_nodes=128)),
            make_statistic("lbi-mc", score=score, mc_reps=2000),
            make_statistic("lbi-mc", score=score, mc_reps=2000, mc_seed=1),
            make_statistic("lbi-mc", score=score, mc_reps=3000),
            make_statistic("lbi-approx", score=score_stable(0.0)),
            make_statistic("lbi-approx", score=score_stable(0.0, InversionConfig(nodes=1024))),
        ]
        assert [s.label for s in specs] == (["lbi-exact(hermite:4)"] * 2 + ["lbi-mc(hermite:4)"] * 3
                                            + ["lbi-approx(stable:beta=0)"] * 2)
        assert make_statistic("lbi-exact", score=score, quad_cfg=QuadratureConfig()).fingerprint \
            == specs[0].fingerprint
        paths = {cache_path(tmp_path, s.label, 9, 1, 2000, 1, s.fingerprint) for s in specs}
        assert len(paths) == len(specs)

    def test_load_checks_the_fingerprint(self, tmp_path):
        spec = make_statistic("lbi-mc", score=score_hermite(4), mc_reps=2000)
        cal = calibrate_null(spec, 9, 2000, seed=32)
        assert cal.fingerprint == spec.fingerprint
        path = save_calibration(cal, tmp_path / "c.lbical")
        assert load_calibration(path, spec.label, spec.fingerprint).fingerprint == spec.fingerprint
        with pytest.raises(ValueError, match="different statistic"):
            load_calibration(path, spec.label)
        other = make_statistic("lbi-mc", score=score_hermite(4), mc_reps=2000, mc_seed=1)
        with pytest.raises(ValueError, match="does not match"):
            power_curve(other, "laplace", [0.1], 9, 0.05, 1000, seed=33, calibration=cal)


class TestBadValues:
    def test_p_value_rejects_non_finite_observed(self):
        cal = NullCalibration("toy", 5, 1, 99, 0, np.arange(99.0))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ScoreOverflow):
                p_value(cal, bad)

    def test_non_finite_null_value_raises(self):
        def one_nan(x):
            v = x.sum(axis=1)
            v[17] = math.nan
            return v

        with pytest.raises(ScoreOverflow, match="1 of 2000 null values at n = 6"):
            calibrate_null(StatisticSpec("one-nan", 1, one_nan), 6, 2000, seed=3)

    def test_non_finite_power_value_raises(self):
        def one_nan(x):
            v = x.sum(axis=1)
            v[17] = math.nan
            return v

        cal = calibrate_null(StatisticSpec("one-nan", 1, lambda x: x.sum(axis=1)), 6, 2000, seed=3)
        with pytest.raises(ScoreOverflow,
                           match="one-nan: 1 of 2000 statistic values at shape 0.5, n = 6 are not finite"):
            power_curve(StatisticSpec("one-nan", 1, one_nan), "laplace", [0.5], 6, 0.05, 2000, 4, cal)

    def test_cached_non_finite_null_value_raises(self, tmp_path):
        cal = calibrate_null(make_statistic("skew"), 9, 2000, seed=31)
        path = save_calibration(cal, tmp_path / "c.lbical")
        raw = bytearray(path.read_bytes())
        raw[-8:] = np.float64(math.nan).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ScoreOverflow, match="skew: 1 of 2000 null values at n = 9"):
            load_calibration(path, "skew")

    def test_rounding_level_null_spread_raises(self, tmp_path):
        with pytest.raises(IncompatibleSelection, match="kurt: the null values at n = 3 differ by"):
            calibrate_null(make_statistic("kurt"), 3, 2000, seed=3)
        cal = calibrate_null(make_statistic("skew"), 9, 2000, seed=31)
        path = tmp_path / "c.lbical"
        raw = save_calibration(cal, path).read_bytes()
        path.write_bytes(raw[:-8 * 2000] + np.full(2000, 1.5).tobytes())
        with pytest.raises(IncompatibleSelection, match="skew: the null values at n = 9"):
            load_calibration(path, "skew")

    def test_cache_shorter_than_header(self, tmp_path):
        path = tmp_path / "short.lbical"
        path.write_bytes(b"LBICAL1\x01" + bytes(10))
        with pytest.raises(ValueError, match="shorter than its 48-byte header"):
            load_calibration(path, "skew")

    def test_save_replaces_the_file_whole(self, tmp_path, monkeypatch):
        cal = calibrate_null(make_statistic("skew"), 9, 2000, seed=31)
        path = tmp_path / "c.lbical"
        path.write_bytes(b"old")
        replaced = []

        def failing_replace(src, dst):
            replaced.append((src, dst))
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            save_calibration(cal, path)
        # written next to the target, never over it, and cleaned up
        assert [(os.path.dirname(s), d) for s, d in replaced] == [(str(tmp_path), path)]
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["c.lbical"]
        monkeypatch.undo()
        save_calibration(cal, path)
        assert os.listdir(tmp_path) == ["c.lbical"]
        assert np.array_equal(load_calibration(path, "skew").sorted_null_values, cal.sorted_null_values)


class TestMvnBatch:
    """The mvn statistics evaluate a whole batch of samples in bounded chunks."""

    @pytest.mark.parametrize("group, p", [("gl", 3), ("lt", 5)])
    def test_calibration_matches_per_sample_loop(self, group, p):
        fn = stat_gl if group == "gl" else stat_lt
        n, reps, seed = 50, 20_000, 17
        cal = calibrate_null(make_statistic("mvn", group=group), n, reps, seed, p)
        ref = np.concatenate([
            [fn(whiten(xi)) for xi in rng.standard_normal((m, n, p))]
            for rng, m in block_substreams((seed,), reps, BLOCK_SIZE)
        ])
        ref.sort()
        np.testing.assert_allclose(cal.sorted_null_values, ref, rtol=1e-12, atol=0.0)

    def test_non_3d_batch_rejected(self):
        for group in ("gl", "lt"):
            with pytest.raises(ValueError, match="expected an n x p matrix"):
                make_statistic("mvn", group=group).compute_batch(np.zeros((4, 50)))

    def test_singular_sample_in_batch_raises(self):
        X = np.random.default_rng(31).normal(size=(300, 12, 3))
        X[250, :, 2] = -1.5
        for group in ("gl", "lt"):
            with pytest.raises(SingularCovariance):
                make_statistic("mvn", group=group).compute_batch(X)

    def test_memory_stays_bounded(self):
        x = np.random.default_rng(32).standard_normal((10_000, 50, 5))
        spec = make_statistic("mvn", group="lt")
        tracemalloc.start()
        try:
            vals = spec.compute_batch(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an unchunked batch holds several 20 MB temporaries at once
        assert peak <= 4 * 2**20
        assert vals.shape == (10_000,) and np.all(np.isfinite(vals))

    def test_gl_null_mean_is_mardia_expectation(self):
        # E[b_{2,p}] = p(p+2)(n-1)/(n+1) under the null, b_{2,p} = mvn-gl / n
        n, p, reps = 50, 3, 20_000
        b2 = calibrate_null(make_statistic("mvn", group="gl"), n, reps, 23, p).sorted_null_values / n
        expected = p * (p + 2) * (n - 1) / (n + 1)
        assert abs(b2.mean() - expected) <= 5.0 * b2.std(ddof=1) / math.sqrt(reps)


class TestChunkedDraws:
    """Every substream block is drawn and evaluated in chunks of at most
    CHUNK values; the values are those of whole-block draws."""

    @pytest.mark.parametrize("rows, row_values", [
        (10_000, 20), (5_000, 20), (10_000, 2000), (1000, 10_000), (7, 40_000), (1, 3), (0, 5)])
    def test_row_chunks_are_the_fewest_equal_ones(self, rows, row_values):
        chunks = _row_chunks(rows, row_values)
        per = max(1, CHUNK // row_values)
        assert sum(chunks) == rows
        assert len(chunks) == -(-rows // per)
        assert all(c <= per for c in chunks)
        assert max(chunks, default=0) - min(chunks, default=0) <= 1

    @pytest.mark.parametrize("name", ["lbi-exact", "lbi-approx", "profile", "mvn"])
    def test_null_equals_whole_block_draws(self, name, stable_score0):
        # at n = 20 every 10 000-row block splits into chunks of ~1640 rows
        n, reps, seed = 20, 25_000, 41
        p = 5 if name == "mvn" else 1
        spec = (make_statistic("mvn", group="lt") if name == "mvn"
                else make_statistic(name, score=stable_score0))
        shape = (n, p) if name == "mvn" else (n,)
        expected = np.sort(np.concatenate([
            spec.compute_batch(rng.standard_normal((m, *shape)))
            for rng, m in block_substreams((seed,), reps, BLOCK_SIZE)
        ]))
        cal = calibrate_null(spec, n, reps, seed, p)
        assert np.array_equal(cal.sorted_null_values, expected)

    def test_gamma_power_equals_whole_block_draws(self):
        spec = make_statistic("kurt")
        n, reps, seed = 20, 15_000, 43
        cal = calibrate_null(spec, n, 10_000, seed=42)
        crit = cal.critical_value(0.05)
        shapes = [0.0, 0.4]
        rows = power_curve(spec, "gamma-centered", shapes, n, 0.05, reps, seed, cal)
        for gi, shape in enumerate(shapes):
            alt = AlternativeSpec("gamma-centered", shape)
            rejected = sum(
                int(np.sum(spec.compute_batch(sample_alternative(alt, n, rng, size=(m, n))) > crit))
                for rng, m in block_substreams((seed, gi), reps, BLOCK_SIZE)
            )
            assert rows[gi]["power"] == rejected / reps

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_calibration_memory_stays_bounded(self):
        with pytest.warns(UserWarning):
            peak = self._peak(lambda: calibrate_null(make_statistic("kurt"), 2000, 2000, seed=44))
        # whole-block draws hold 32 MB arrays at this size
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize("family", ["stable", "laplace", "gh-variance-mean"])
    def test_power_memory_stays_bounded(self, family):
        spec = make_statistic("kurt")
        with pytest.warns(UserWarning):
            cal = calibrate_null(spec, 2000, 1000, seed=45)
        peak = self._peak(lambda: power_curve(spec, family, [0.5], 2000, 0.05, 1000, 46, cal))
        assert peak <= 8 * 2**20
