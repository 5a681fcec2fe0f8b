"""Stable characteristic function, its alpha-derivative and the inverted score."""

import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad, simpson
from scipy.interpolate import CubicSpline

import lbinorm
from lbinorm import core, stable
from lbinorm.errors import AlphaOne, InversionUnconverged
from lbinorm.stable import (
    InversionConfig,
    dcf_dalpha_at_2,
    normal_var2_pdf,
    score_stable,
    stable_cf,
    stable_density_derivative,
)


class TestStableCf:
    def test_origin_and_boundary(self):
        assert stable_cf(0.0, 1.5, 0.3) == pytest.approx(1.0)
        # at alpha = 2 the skewness term vanishes for every beta
        assert stable_cf(1.0, 2.0, 0.5) == pytest.approx(math.exp(-1.0))

    def test_symmetric_value(self):
        v = stable_cf(2.0, 1.5, 0.0)
        assert v.real == pytest.approx(math.exp(-(2.0**1.5)))
        assert abs(v.imag) < 1e-15

    def test_modulus_depends_only_on_alpha(self):
        t = np.linspace(-4.0, 4.0, 33)
        for alpha in (0.5, 1.3, 1.9, 2.0):
            for beta in (-1.0, -0.3, 0.4, 1.0):
                np.testing.assert_allclose(
                    np.abs(stable_cf(t, alpha, beta)),
                    np.exp(-np.abs(t) ** alpha),
                    rtol=1e-12,
                )

    def test_excluded_and_invalid_parameters(self):
        with pytest.raises(AlphaOne):
            stable_cf(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            stable_cf(1.0, 2.5, 0.0)
        with pytest.raises(ValueError):
            stable_cf(1.0, 1.5, 1.5)


class TestDcfDalphaAt2:
    def test_zero_at_unit_frequency_symmetric(self):
        assert dcf_dalpha_at_2(1.0, 0.0) == pytest.approx(0.0)

    def test_closed_form_at_e(self):
        v = dcf_dalpha_at_2(math.e, 0.0)
        assert v.real == pytest.approx(-math.e**2 * math.exp(-math.e**2), rel=1e-12)
        assert v.imag == pytest.approx(0.0)

    def test_finite_difference_grid(self):
        # one-sided second-order difference from below (alpha <= 2)
        h = 1e-5
        for beta in (-1.0, -0.5, 0.0, 0.5, 1.0):
            for t in (0.1, 0.5, 1.0, 2.0, 3.0, 5.0):
                fd = (
                    3.0 * stable_cf(t, 2.0, beta)
                    - 4.0 * stable_cf(t, 2.0 - h, beta)
                    + stable_cf(t, 2.0 - 2.0 * h, beta)
                ) / (2.0 * h)
                an = dcf_dalpha_at_2(t, beta)
                assert abs(an - fd) <= 1e-6 * max(abs(an), 1e-12)

    def test_defined_as_zero_at_origin(self):
        assert dcf_dalpha_at_2(0.0, 0.7) == 0.0


class TestInversionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            InversionConfig(t_max=4.0)
        with pytest.raises(ValueError):
            InversionConfig(nodes=64)
        with pytest.raises(ValueError):
            InversionConfig(oscillation_splits=1)

    @pytest.mark.parametrize("nodes", [0, 256, 383, 600, 1000])
    def test_nodes_are_a_positive_multiple_of_512(self, nodes):
        # the panels refine in whole steps of 512 nodes: any other count would
        # build the rule of a nearby multiple, and 128 to 383 would make the
        # convergence check compare the 512-node rule with itself
        with pytest.raises(ValueError, match="nodes must be a positive multiple of 512"):
            InversionConfig(nodes=nodes)

    @pytest.mark.parametrize("nodes", [512, 1024])
    @pytest.mark.parametrize("bound", [4.0, 9.0])
    def test_the_doubling_check_compares_two_rules(self, nodes, bound):
        cfg = InversionConfig(nodes=nodes)
        coarse = stable._panel_edges(bound, cfg, cfg.nodes)
        fine = stable._panel_edges(bound, cfg, 2 * cfg.nodes)
        assert fine.size > coarse.size
        assert np.diff(fine).max() <= 0.5 * np.diff(coarse).max() * (1.0 + 1e-12)
        coarse_nodes, _, _ = stable._panel_rule(bound, cfg, cfg.nodes)
        fine_nodes, _, _ = stable._panel_rule(bound, cfg, 2 * cfg.nodes)
        assert fine_nodes.size > coarse_nodes.size


class TestStableDensityDerivative:
    def test_origin_against_direct_quadrature(self):
        # symmetric case at x = 0: (1/pi) int_0^inf t^2 log t exp(-t^2) dt
        target, _ = quad(
            lambda t: t * t * math.log(t) * math.exp(-t * t) / math.pi, 0.0, np.inf
        )
        assert stable_density_derivative(0.0, 0.0) == pytest.approx(target, rel=1e-9)

    def test_even_in_x_for_symmetric_case(self):
        for x in (0.5, 1.0, 3.0):
            np.testing.assert_allclose(
                stable_density_derivative(x, 0.0),
                stable_density_derivative(-x, 0.0),
                rtol=1e-12,
            )

    def test_cubic_tail_decay(self):
        # far tail falls off like |x|^-3; the ratio between x=6 and x=5
        # should sit within a factor 2 of the pure power law
        d5 = stable_density_derivative(5.0, 0.0)
        d6 = stable_density_derivative(6.0, 0.0)
        law = (5.0 / 6.0) ** 3
        assert 0.5 * law < d6 / d5 < 2.0 * law

    def test_skewed_case_finite_and_asymmetric(self):
        d_pos = stable_density_derivative(1.0, 0.8)
        d_neg = stable_density_derivative(-1.0, 0.8)
        assert np.isfinite(d_pos) and np.isfinite(d_neg)
        assert d_pos != pytest.approx(d_neg)

    def test_mean_zero_over_real_line(self):
        # the derivative of a density family integrates to zero over R.
        # On [-40, 40] the numerical integral must equal minus the mass of
        # the analytic x^-3 tail (with its x^-5 correction) outside the
        # window: 2 * int_40^inf (x^-3 + 12 x^-5) dx.
        x = np.linspace(-40.0, 40.0, 8001)
        vals = stable_density_derivative(x, 0.0)
        integral = simpson(vals, x=x)
        tail = 2.0 * (1.0 / (2.0 * 40.0**2) + 12.0 / (4.0 * 40.0**4))
        assert abs(integral + tail) < 1e-6


class TestScoreStable:
    def test_even_symmetry(self, stable_score0):
        assert stable_score0(1.0) == pytest.approx(stable_score0(-1.0), rel=1e-10)
        assert stable_score0(1.0) != pytest.approx(-stable_score0(-1.0))

    def test_spline_matches_direct_inversion(self, stable_score0):
        for x in (0.3337, 2.71, 7.777, -11.2):
            direct = stable_density_derivative(x, 0.0) / normal_var2_pdf(x)
            assert stable_score0(x) == pytest.approx(direct, rel=1e-6)

    def test_outside_grid_falls_back_to_direct(self, stable_score0):
        x = 13.5
        direct = stable_density_derivative(x, 0.0, check=False) / normal_var2_pdf(x)
        assert stable_score0(x) == pytest.approx(direct, rel=1e-12)

    def test_tail_magnitude(self, stable_score0):
        # score grows like exp(x^2/4)/x^3 (up to a bounded constant)
        for x in (5.0, 6.0, 7.0, 8.0):
            ref = math.exp(x * x / 4.0) / x**3
            assert 0.1 * ref < abs(stable_score0(x)) < 10.0 * ref

    def test_mean_zero_up_to_tail_mass(self, stable_score0):
        # int score * f0 over [-12, 12] equals the density-derivative mass
        # inside the window; the deficit is the analytic x^-3 tail mass
        x = np.linspace(-12.0, 12.0, 4801)
        integral = simpson(stable_score0(x) * normal_var2_pdf(x), x=x)
        tail = 2.0 * (1.0 / (2.0 * 12.0**2) + 12.0 / (4.0 * 12.0**4))
        assert abs(integral) > 5e-3  # the window integral itself is not zero
        assert abs(integral + tail) < 1e-4

    def test_vectorized_evaluation(self, stable_score0):
        x = np.array([-13.0, -1.0, 0.0, 2.5, 13.0])
        out = stable_score0(x)
        assert out.shape == x.shape
        assert np.all(np.isfinite(out))


class TestGridEvaluation:
    def test_horner_matches_cubic_spline(self, stable_score0):
        cfg = InversionConfig()
        grid = np.linspace(-cfg.grid_halfwidth, cfg.grid_halfwidth, 2401)
        spline = CubicSpline(grid, stable_density_derivative(grid, 0.0, cfg) / normal_var2_pdf(grid))
        x = np.concatenate([np.random.default_rng(3).uniform(-12.0, 12.0, 10**5), grid, [-12.0, 12.0]])
        ref = spline(x)
        assert np.all(np.abs(stable_score0(x) - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    def test_out_of_grid_points_of_all_chunks_share_one_inversion(self, stable_score0, monkeypatch):
        x = np.random.default_rng(4).uniform(-20.0, 20.0, (9, 7))
        whole = stable_score0(x)
        calls = []
        inner = stable.stable_density_derivative

        def counted(xo, *args, **kwargs):
            calls.append(np.size(xo))
            return inner(xo, *args, **kwargs)

        monkeypatch.setattr(stable, "stable_density_derivative", counted)
        monkeypatch.setattr(core, "BLOCK", 5)
        chunked = stable_score0(x)
        assert chunked.shape == x.shape
        assert calls == [int(np.sum(np.abs(x) > 12.0))]
        np.testing.assert_array_equal(chunked, whole)

    def test_inversion_memory_bounded(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(12.0, 30.0, 10**4) * rng.choice([-1.0, 1.0], 10**4)
        tracemalloc.start()
        try:
            vals = stable_density_derivative(x, 0.5, check=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        # each value is computed on its own, on panels sized by the same largest
        # |x|: the first 40 come out bit for bit when evaluated apart
        head = np.append(x[:40], x[np.argmax(np.abs(x))])
        np.testing.assert_array_equal(vals[:40], stable_density_derivative(head, 0.5, check=False)[:40])

    def test_non_finite_point_raises(self, stable_score0):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                stable_density_derivative(np.array([1.0, bad]), 0.0, check=False)
            with pytest.raises(ValueError, match="finite"):
                stable_score0(np.array([0.5, bad]))


class TestMirroredInversion:
    @pytest.mark.parametrize("beta", [0.0, 0.5, -1.0])
    def test_symmetric_points_match_per_point_evaluation(self, beta):
        x = np.array([0.0, 0.2, -0.2, 1.0, -1.0, 2.5, -2.5, 3.9, -3.9])
        together = stable_density_derivative(x, beta)
        alone = np.array([stable_density_derivative(v, beta) for v in x])
        np.testing.assert_allclose(together, alone, rtol=1e-13, atol=0.0)

    def test_tabulation_keeps_the_node_doubling_check(self, monkeypatch):
        cfg = InversionConfig()
        calls = []
        inner = stable._inversion_values

        def recorded(x, beta, cfg_, nodes):
            calls.append((x.size, nodes))
            return inner(x, beta, cfg_, nodes)

        monkeypatch.setattr(stable, "_inversion_values", recorded)
        score_stable(0.5, cfg)
        assert calls == [(2401, cfg.nodes), (2401, 2 * cfg.nodes)]


class TestGridInversion:
    """The tabulation grid's angle-addition sums against per-point sums."""

    @pytest.mark.parametrize("beta", [0.0, 0.5, -1.0])
    def test_matches_per_point_sums(self, beta):
        cfg = InversionConfig()
        grid, _ = stable._score_grid(cfg)
        for nodes in (cfg.nodes, 2 * cfg.nodes):
            sums = stable._inversion_values(grid, beta, cfg, nodes)
            # a copy is not the grid, so it takes the per-point sums
            per_point = stable._inversion_values(grid.copy(), beta, cfg, nodes)
            assert np.max(np.abs(sums - per_point)) <= 1e-14 * np.max(np.abs(per_point))

    def test_grid_of_an_even_point_count(self):
        # a grid whose |x| are the half-integer multiples of its step
        cfg = InversionConfig(grid_step=0.03, grid_halfwidth=5.0)
        grid, step = stable._score_grid(cfg)
        assert grid.size % 2 == 0 and grid[grid.size // 2] == pytest.approx(step / 2)
        sums = stable._inversion_values(grid, 0.5, cfg, cfg.nodes)
        per_point = stable._inversion_values(grid.copy(), 0.5, cfg, cfg.nodes)
        assert np.max(np.abs(sums - per_point)) <= 1e-14 * np.max(np.abs(per_point))

    def test_grid_is_shared_and_read_only(self):
        cfg = InversionConfig()
        grid, step = stable._score_grid(cfg)
        assert stable._score_grid(cfg)[0] is grid
        assert grid.size == 2401 and step == pytest.approx(0.01)
        np.testing.assert_array_equal(grid, -grid[::-1])
        with pytest.raises(ValueError, match="read-only"):
            grid[0] = 0.0

    def test_unique_matches_numpy(self):
        rng = np.random.default_rng(13)
        for values in (rng.integers(-5, 5, 200).astype(float), rng.normal(size=50),
                       np.array([2.0]), np.array([1.0, 1.0, 1.0])):
            ref, ref_inverse = np.unique(values, return_inverse=True)
            got, inverse = stable._unique(values)
            np.testing.assert_array_equal(got, ref)
            np.testing.assert_array_equal(inverse, ref_inverse)

    def test_stable_score_leaves_numpy_ma_unloaded(self):
        src = str(Path(lbinorm.__file__).resolve().parents[1])
        script = ("import sys; sys.path.insert(0, sys.argv[1])\n"
                  "from lbinorm.stable import score_stable\n"
                  "score = score_stable(0.5)\n"
                  "score([0.1, -3.0, 13.0]); score.derivative([0.1, 20.0])\n"
                  "print('numpy.ma' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", script, src], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_unconverged_inversion_names_the_worst_point(self):
        with pytest.raises(InversionUnconverged) as info:
            score_stable(1.0)
        msg = str(info.value)
        assert msg.startswith("inversion changed by more than 1e-8 relative under node doubling; ")
        x = float(re.search(r"worst at x = (\S+), where d\(x\) = \S+ moved by \S+ relative$", msg)[1])
        assert -12.0 <= x <= -11.0

    def test_a_nan_fails_the_node_doubling_check(self, monkeypatch):
        inner = stable._inversion_values

        def nan_when_doubled(x, beta, cfg, nodes):
            out = inner(x, beta, cfg, nodes)
            if nodes > cfg.nodes:
                out[1] = np.nan
            return out

        monkeypatch.setattr(stable, "_inversion_values", nan_when_doubled)
        with pytest.raises(InversionUnconverged, match=r"worst at x = 0\.5, where d\(x\) = nan"):
            stable_density_derivative(np.array([0.0, 0.5, 1.0]), 0.0)


class TestPanelRule:
    def test_built_once_and_read_only(self):
        cfg = InversionConfig()
        rule = stable._panel_rule(7.0, cfg, cfg.nodes)
        assert stable._panel_rule(7.0, cfg, cfg.nodes) is rule
        for arr in rule:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


class TestNotAKnotSpline:
    def test_grid_needs_four_points(self):
        InversionConfig(grid_step=8.0, grid_halfwidth=12.0)
        with pytest.raises(ValueError, match="4 points"):
            InversionConfig(grid_step=12.0, grid_halfwidth=12.0)

    @pytest.mark.parametrize("npts", [4, 5, 2401])
    def test_coefficients_match_cubic_spline(self, npts):
        grid = np.linspace(-3.0, 3.0, npts)
        y = np.random.default_rng(npts).normal(size=npts)
        ref = CubicSpline(grid, y).c
        got = core.not_a_knot_coefficients(y, grid[1] - grid[0])
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-12 * np.max(np.abs(ref), axis=1, keepdims=True))

    def test_horner_matches_cubic_spline_skewed(self):
        cfg = InversionConfig()
        score = score_stable(0.5, cfg)
        grid = np.linspace(-cfg.grid_halfwidth, cfg.grid_halfwidth, 2401)
        spline = CubicSpline(grid, stable_density_derivative(grid, 0.5, cfg) / normal_var2_pdf(grid))
        x = np.concatenate([np.random.default_rng(6).uniform(-12.0, 12.0, 10**5), grid, [-12.0, 12.0]])
        ref = spline(x)
        assert np.all(np.abs(score(x) - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


class TestScoreDerivative:
    """The score's own derivative against the central difference of its values."""

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_matches_central_differences(self, beta):
        cfg = InversionConfig()
        score = score_stable(beta, cfg)
        grid = np.linspace(-cfg.grid_halfwidth, cfg.grid_halfwidth, 2401)
        rng = np.random.default_rng(11)
        outside = rng.uniform(12.0, 30.0, 100) * rng.choice([-1.0, 1.0], 100)
        # at the two grid ends the difference would take one side from the
        # spline and the other from the inversion; they are checked below
        x = np.concatenate([rng.uniform(-12.0, 12.0, 10**5), grid[1:-1], outside])
        ref = (score(x + 1e-6) - score(x - 1e-6)) / 2e-6
        scale = np.maximum(1.0, np.abs(score(x)))
        assert np.all(np.abs(score.derivative(x) - ref) <= 1e-7 * scale)
        # the spline's slope at its ends, from its own second-order one-sided difference
        h = 1e-6
        for end, side in ((grid[0], 1.0), (grid[-1], -1.0)):
            pts = end + side * h * np.arange(3)
            one_sided = side * (-3.0 * score(pts[0]) + 4.0 * score(pts[1]) - score(pts[2])) / (2.0 * h)
            assert abs(score.derivative(end) - one_sided) <= 1e-7 * max(1.0, abs(score(end)))

    def test_one_spline_pass_and_one_inversion(self, stable_score0, monkeypatch):
        x = np.array([[0.5, -3.0, 13.0], [-20.0, 11.9, 2.0]])
        calls = []
        inner = stable.stable_density_derivative

        def counted(xo, *args, **kwargs):
            calls.append(np.size(xo))
            return inner(xo, *args, **kwargs)

        monkeypatch.setattr(stable, "stable_density_derivative", counted)
        d = stable_score0.derivative(x)
        assert d.shape == x.shape
        # the two out-of-grid points, each at x + h and x - h, in one call
        assert calls == [4]


class TestTailEnvelope:
    @pytest.mark.parametrize("beta", [0.0, 0.5, -0.5])
    def test_bounds_the_score(self, beta):
        cfg = InversionConfig()
        score = score_stable(beta, cfg)
        rng = np.random.default_rng(12)
        knots = np.linspace(-cfg.grid_halfwidth, cfg.grid_halfwidth, 2401)
        outside = rng.uniform(12.0, 30.0, 200) * rng.choice([-1.0, 1.0], 200)
        x = np.concatenate([knots, rng.uniform(-12.0, 12.0, 10**5), outside])
        with np.errstate(divide="ignore"):
            assert np.all(np.log(np.abs(score(x))) <= score.log_bound(x))
