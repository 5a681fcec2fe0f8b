"""The LBI kernel: moment form and kernel table against the direct node
sum, the closed form's valid range, power sums and the block-substream
contract."""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

from lbinorm import core, stable, univariate

from lbinorm.calibration import (
    AlternativeSpec,
    calibrate_null,
    closed_form_weights,
    make_statistic,
    power_curve,
    sample_alternative,
)
from lbinorm.cli import parse_score
from lbinorm.core import BLOCK_SIZE, power_sums, standardize
from lbinorm.errors import QuadratureUnconverged, ScoreOverflow
from lbinorm.scores import score_gh_limit, score_hermite
from lbinorm.stable import InversionConfig, score_stable
from lbinorm.univariate import (
    TABLE_HALFWIDTH,
    TABLE_POINTS,
    exact_kernel,
    lbi_closed_form,
    lbi_exact,
    lbi_monte_carlo,
    mc_kernel,
)


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


def _design_kappa(coeffs, a, b, w):
    """The kernel coefficients from the whole (nodes x degree) design, as
    they were computed before the node moments: the oracle of TestNodeMoments."""
    table = univariate._binomial_table(coeffs)
    d = table.shape[0]
    design = (np.vander(a, d, increasing=True) @ table) * np.vander(b, d, increasing=True)
    return w @ design, design


_SCORES = {"hermite:3": score_hermite(3), "hermite:4": score_hermite(4),
           "hermite:8": score_hermite(8), "gh:beta=1": score_gh_limit(1.0)}


class TestNodeMoments:
    """A polynomial kernel summed over blocks of nodes against the whole design."""

    @pytest.mark.parametrize("label", list(_SCORES))
    @pytest.mark.parametrize("rule", ["exact:5", "exact:20", "exact:2000", "mc:100000"])
    def test_kappa_matches_the_design_product(self, label, rule):
        score = _SCORES[label]
        kind, size = rule.split(":")
        kernel = (exact_kernel(score, int(size)) if kind == "exact"
                  else mc_kernel(score, 20, int(size), 0))
        ref, _ = _design_kappa(score.polynomial_coeffs, *kernel.nodes)
        # at n = 2000 the exact rule's unnormalized weights underflow: both are 0
        assert np.max(np.abs(kernel.kappa - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_node_sums_match_the_design_product(self):
        score = score_hermite(4)
        kernel = mc_kernel(score, 20, 10**5, 0)
        z = standardize(np.random.default_rng(11).standard_t(5, size=20))
        _, design = _design_kappa(score.polynomial_coeffs, *kernel.nodes)
        ref = design @ power_sums(z, 4)
        assert np.max(np.abs(kernel.node_sums(z) - ref)) <= 1e-13 * np.max(np.abs(ref))


def _traced_peak(fn):
    """fn()'s peak of traced memory, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestKernelMemory:
    """Kernel paths hold their nodes plus one block, not nodes x degree."""

    def test_monte_carlo_kernel(self):
        # 10^6 nodes: 99.2 MiB with the whole design
        assert _traced_peak(lambda: mc_kernel(score_hermite(4), 20, 10**6, 0)) <= 40.0

    def test_monte_carlo_statistic(self):
        z = standardize(np.random.default_rng(12).normal(size=20))
        assert _traced_peak(lambda: lbi_monte_carlo(z, score_hermite(4), 10**6, 0)) <= 40.0

    def test_stable_kernel_table(self, stable_score0):
        kernel = exact_kernel(stable_score0, 20)
        # 2.3 MiB in blocks of 2^16 values
        assert _traced_peak(lambda: kernel._table) <= 1.0

    def test_stable_score_beyond_its_grid(self, stable_score0):
        x = np.linspace(12.0, 30.0, 10**4)
        # 5.9 MiB in phase blocks of 2^18
        assert _traced_peak(lambda: stable_score0(x)) <= 4.0


class TestBlockSize:
    """core.BLOCK bounds the temporaries of every kernel and score loop and
    nothing else: each value computed point by point is bit-identical under
    any block size, and a sum over blocks of nodes moves in its last bits."""

    POINTS = np.array([-3.3, -0.4, 1.7, 3.3])

    @staticmethod
    def _values(stable_score0):
        z = standardize(np.random.default_rng(13).standard_t(5, size=20))
        beyond = np.linspace(12.5, 30.0, 40) * (-1.0) ** np.arange(40)
        contam = mc_kernel(parse_score("contam:normal-scale-2"), 20, 2000, 4)
        exact = {label: exact_kernel(_SCORES[label], 20) for label in ("hermite:4", "gh:beta=1")}
        identical = {
            "stable score beyond its grid": stable_score0(beyond),
            "stable kernel direct sum": exact_kernel(stable_score0, 20).direct(TestBlockSize.POINTS),
            "exact kernel direct sum": exact["hermite:4"].direct(TestBlockSize.POINTS),
            "mc contamination kernel direct sum": contam.direct(TestBlockSize.POINTS),
            "mc contamination node sums": contam.node_sums(z),
        }
        close = {
            **{f"kappa of the exact rule, {label}": k.kappa for label, k in exact.items()},
            "mc node sums": mc_kernel(score_hermite(4), 20, 2000, 0).node_sums(z),
        }
        return identical, close

    @pytest.mark.parametrize("block", [7, 1000])
    def test_block_size_moves_no_value_beyond_rounding(self, block, stable_score0, monkeypatch):
        identical, close = self._values(stable_score0)
        monkeypatch.setattr(core, "BLOCK", block)
        got_identical, got_close = self._values(stable_score0)
        for name, ref in identical.items():
            np.testing.assert_array_equal(got_identical[name], ref, err_msg=name)
        for name, ref in close.items():
            assert np.max(np.abs(got_close[name] - ref)) <= 1e-14 * np.max(np.abs(ref)), name

    def test_stable_kernel_table(self, stable_score0, monkeypatch):
        # at a block of 7 the build makes ~770 000 score calls (17 s); its
        # direct sums are checked at 7 above
        ref = exact_kernel(stable_score0, 20)._table
        monkeypatch.setattr(core, "BLOCK", 1000)
        np.testing.assert_array_equal(exact_kernel(stable_score0, 20)._table, ref)


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

    @pytest.mark.parametrize("reps", [10_000, 25_000])
    def test_mc_kernel_nodes_from_hand_drawn_blocks(self, reps):
        n, seed = 20, 5
        a, b = [], []
        for block, start in enumerate(range(0, reps, BLOCK_SIZE)):
            m = min(BLOCK_SIZE, reps - start)
            rng = np.random.default_rng([seed, block])
            a.append(rng.normal(0.0, 1.0 / math.sqrt(n), size=m))
            b.append(np.sqrt(rng.chisquare(n - 1, size=m)) / math.sqrt(n))
        nodes = mc_kernel(score_hermite(4), n, reps, seed).nodes
        np.testing.assert_array_equal(nodes[0], np.concatenate(a))
        np.testing.assert_array_equal(nodes[1], np.concatenate(b))
        np.testing.assert_array_equal(nodes[2], np.full(reps, 1.0 / reps))


def _direct_rows(kernel, z):
    """Row sums of K_n(z_i) by the direct node sum, and sum_i |K_n(z_i)| per
    row: the scale of a row's error, as its value can cancel to near zero."""
    values = kernel.direct(z.ravel()).reshape(z.shape)
    return values.sum(axis=1), np.abs(values).sum(axis=1)


class TestKernelTable:
    """A non-polynomial score's kernel read off its table against the direct node sum."""

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    @pytest.mark.parametrize("n,rows", [(5, 170), (20, 100), (200, 30)])
    def test_batch_matches_lbi_exact(self, beta, n, rows):
        # at n = 5 the nodes reach |x| ~ 19; a score grid out to 20 keeps them
        # all on it, where the 12 of the default grid sends each to an inversion
        score = score_stable(beta, InversionConfig(grid_halfwidth=20.0) if n == 5 else None)
        rng = np.random.default_rng(n)
        # t3 rows put residuals beyond the table's |x| <= 3
        x = np.vstack([rng.normal(size=(rows // 2, n)), rng.standard_t(3, size=(rows - rows // 2, n))])
        z = np.array([standardize(xi) for xi in x])
        assert z.size > TABLE_POINTS
        if n > 10:
            assert np.any(np.abs(z) > TABLE_HALFWIDTH)
        got = make_statistic("lbi-exact", score=score).compute_batch(x)
        # lbi_exact(check=False) sums the same direct values row by row
        ref, scale = _direct_rows(exact_kernel(score, n), z)
        assert [lbi_exact(zi, score, check=False).value for zi in z[:2]] == list(ref[:2])
        assert np.all(np.abs(got - ref) <= 1e-8 * scale)

    def test_small_batch_builds_no_table(self, stable_score0):
        x = np.random.default_rng(7).standard_t(3, size=(2, 20))
        z = np.array([standardize(xi) for xi in x])
        assert z.size <= TABLE_POINTS
        kernel = exact_kernel(stable_score0, 20)
        values = kernel(z)
        assert "_table" not in vars(kernel)
        ref = [lbi_exact(zi, stable_score0, check=False).value for zi in z]
        np.testing.assert_array_equal(values, ref)
        np.testing.assert_array_equal(make_statistic("lbi-exact", score=stable_score0).compute_batch(x), ref)

    def test_monte_carlo_kernel_on_the_table(self):
        score = parse_score("contam:normal-scale-2")
        n, mc_reps, mc_seed = 20, 2000, 4
        x = np.random.default_rng(8).standard_t(5, size=(40, n))
        z = np.array([standardize(xi) for xi in x])
        got = make_statistic("lbi-mc", score=score, mc_reps=mc_reps, mc_seed=mc_seed).compute_batch(x)
        ref = np.array([lbi_monte_carlo(zi, score, mc_reps, mc_seed).value for zi in z])
        _, scale = _direct_rows(mc_kernel(score, n, mc_reps, mc_seed), z)
        assert np.all(np.abs(got - ref) <= 1e-8 * scale)

    def test_memory_bounded(self, stable_score0):
        x = np.random.default_rng(9).standard_t(5, size=(1000, 20))
        spec = make_statistic("lbi-exact", score=stable_score0)
        tracemalloc.start()
        try:
            values = spec.compute_batch(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(values))
        assert peak <= 32 * 2**20

    def test_midpoint_check_raises_on_a_coarse_table(self, stable_score0, monkeypatch):
        monkeypatch.setattr(univariate, "TABLE_POINTS", 9)
        x = np.random.default_rng(10).normal(size=(1, 200))
        with pytest.raises(QuadratureUnconverged, match="between grid points"):
            make_statistic("lbi-exact", score=stable_score0).compute_batch(x)


@functools.cache
def _stable_score(beta):
    return score_stable(beta)


def _count_inversion_points(monkeypatch):
    """Patch the stable inversion to count the points it is called for."""
    points = [0]
    inner = stable.stable_density_derivative

    def counted(x, *args, **kwargs):
        points[0] += np.size(x)
        return inner(x, *args, **kwargs)

    monkeypatch.setattr(stable, "stable_density_derivative", counted)
    return points


class TestKernelPruning:
    """Nodes dropped by the stable score's tail bound against the full node sum."""

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    @pytest.mark.parametrize("n", [5, 8, 20])
    def test_matches_the_full_node_sum(self, beta, n):
        score = _stable_score(beta)
        full = dataclasses.replace(score, log_bound=None)
        kernel, reference = exact_kernel(score, n), exact_kernel(full, n)
        # every 32nd table point, both ends included, the midpoints between
        # them, and residuals beyond the table out to Samuelson's bound
        h = kernel.halfwidth
        grid = np.linspace(-h, h, TABLE_POINTS)[::32]
        x = np.concatenate([grid, 0.5 * (grid[1:] + grid[:-1]), np.linspace(h, math.sqrt(n - 1), 8)])
        ref = reference.direct(x)
        tol = 1e-15 * np.max(np.abs(ref))
        assert np.all(np.abs(kernel.direct(x) - ref) <= tol)
        z = standardize(np.random.default_rng(n).standard_t(3, size=n))
        assert abs(lbi_exact(z, score).value - lbi_exact(z, full).value) <= tol

    def test_monte_carlo_kernel_drops_nothing(self, stable_score0):
        # uniform weights: no node's bound falls below eps * S
        kernel = mc_kernel(stable_score0, 20, 2000, 5)
        reference = mc_kernel(dataclasses.replace(stable_score0, log_bound=None), 20, 2000, 5)
        x = np.linspace(-math.sqrt(19.0), math.sqrt(19.0), 41)
        np.testing.assert_array_equal(kernel.direct(x), reference.direct(x))

    def test_table_at_n_20_inverts_nothing(self, stable_score0, monkeypatch):
        kernel = exact_kernel(stable_score0, 20)
        points = _count_inversion_points(monkeypatch)
        assert kernel._table.shape == (4, TABLE_POINTS - 1)
        assert points[0] == 0

    def test_table_at_n_5_on_the_default_grid(self, stable_score0, monkeypatch):
        # the full node sum inverted 220 599 points for this table (its
        # midpoint check included), in 7-13 s
        kernel = exact_kernel(stable_score0, 5)
        points = _count_inversion_points(monkeypatch)
        assert kernel._table.shape == (4, TABLE_POINTS - 1)
        assert points[0] <= 22_059


class TestLogFloor:
    """A kernel whose weights let no node be dropped never evaluates the tail bound."""

    def test_monte_carlo_kernel_has_no_floor(self, stable_score0):
        assert mc_kernel(stable_score0, 20, 5000, 0)._log_floor is None
        assert exact_kernel(stable_score0, 20)._log_floor is not None

    def test_monte_carlo_kernel_matches_the_unbounded_score(self, stable_score0):
        calls = []

        def counted(y):
            calls.append(y.size)
            return stable_score0.log_bound(y)

        kernel = mc_kernel(dataclasses.replace(stable_score0, log_bound=counted), 20, 5000, 0)
        reference = mc_kernel(dataclasses.replace(stable_score0, log_bound=None), 20, 5000, 0)
        x = np.linspace(-math.sqrt(19.0), math.sqrt(19.0), 41)
        np.testing.assert_array_equal(kernel.direct(x), reference.direct(x))
        assert calls == [1]  # once, at y = 0, when the floor was built
