"""Univariate test statistics.

Every LBI form is sum_i K_n(z_i) for the kernel K_n(x) = E[l(A + B x)] over
the location/scale law of (A, B) (see :class:`LbiKernel`).  The exact form
integrates against exp(-n(a^2+b^2)/2) * b^(n-2) over a in R, b > 0, exactly
as the integrand is displayed (no (2*pi)^(-n/2) prefactor).  The closed form
uses the analytic moments of that weight and drops degree <= 2 terms, so
the two differ by a fixed affine map per (n, score) with positive slope.
"""

import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .core import (central_difference, not_a_knot_coefficients, power_sums, replications,
                   row_blocks, standardized_moment, uniform_cubic)
from .errors import QuadratureUnconverged, ScoreOverflow
from .scores import ScoreFunction, _poly_score

__all__ = [
    "QuadratureConfig",
    "LbiStatistic",
    "LbiKernel",
    "lbi_exact",
    "lbi_closed_form",
    "lbi_laplace",
    "lbi_monte_carlo",
    "profile_likelihood_statistic",
    "skewness",
    "kurtosis",
    "null_integral_quadrature",
]

# Grid points of a tabulated kernel, on |x| <= min(TABLE_HALFWIDTH, sqrt(n - 1)).
# Measured for the stable score at n = 20: on |x| <= 3 the build inverts no
# point; on |x| <= 4 it still inverts ~27 000 nodes that the tail bound cannot
# drop (~0.75 s against ~0.12 s); out to sqrt(19) the midpoint check fails
# (a gap of 6.5e-12 between grid points, above 1e-8 * max |K_n|).
TABLE_POINTS = 513
TABLE_HALFWIDTH = 3.0
# Extra grid points fitted past each end of the table (see LbiKernel._table).
TABLE_MARGIN = 4


@dataclass(frozen=True)
class QuadratureConfig:
    """Node counts and drift tolerance of the 2-D location/scale quadrature."""

    a_nodes: int = 96
    b_nodes: int = 96
    rtol: float = 1e-6

    def __post_init__(self):
        if self.a_nodes < 32 or self.b_nodes < 32:
            raise ValueError("a_nodes and b_nodes must be >= 32")


@dataclass(frozen=True)
class LbiStatistic:
    """A computed statistic with its method provenance."""

    value: float
    method: str
    score_label: str
    n: int
    std_error: Optional[float] = None


@dataclass(frozen=True, eq=False)
class LbiKernel:
    """K_n(x) = sum_k w_k l(a_k + b_k x) for one score over (a, b, w) ``nodes``.

    Called on a (m, n) batch of residuals, it returns sum_i K_n(z_i) per row.
    For a polynomial score sum_j c_j x^j, K_n has coefficients ``kappa[s] =
    sum_j c_j C(j, s) M[j-s, s]``, M[r, s] = sum_k w_k a_k^r b_k^s, applied
    through power sums; the closed form has ``kappa`` only.  Other scores
    are tabulated once on ``TABLE_POINTS`` points of |x| <= ``halfwidth``
    and read off a not-a-knot cubic, built on the first call with more
    points than the table has; smaller calls, and points beyond the
    table, take the direct node sum (``direct``).
    """

    kappa: Optional[np.ndarray] = None  # lowest degree first
    score: Optional[ScoreFunction] = None
    nodes: tuple = ()
    halfwidth: float = 0.0

    def __call__(self, z) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=float))
        if self.kappa is not None:
            return power_sums(z, self.kappa.size - 1) @ self.kappa
        x = z.ravel()
        if x.size <= TABLE_POINTS:
            values = self.direct(x)
        else:
            coef, h = self._table, self.halfwidth
            values = uniform_cubic(coef, h, 2.0 * h / coef.shape[1], x, self.direct)
        return values.reshape(z.shape).sum(axis=1)

    def direct(self, x) -> np.ndarray:
        """K_n at each point of a flat array by the direct node sum, over
        ``core.row_blocks`` of points, each filled in blocks of nodes where one
        point's row of nodes is longer than ``core.BLOCK``: the score sees at
        most ``BLOCK`` values per call.  Every point's row is summed whole, so
        no value depends on the block size.  A (point, node) pair whose term is
        provably negligible (``_log_floor``) is not evaluated and adds 0."""
        a, b, w = self.nodes
        floor = self._log_floor
        out = np.empty(x.size)
        for points in row_blocks(x.size, a.size):
            vals = np.zeros((points.stop - points.start, a.size))
            for k in row_blocks(a.size, vals.shape[0]):
                y = a[k] + b[k] * x[points, None]
                if floor is None:
                    vals[:, k] = self._score(y)
                else:
                    keep = self.score.log_bound(y) > floor[k]
                    vals[:, k][keep] = self._score(y[keep])
            vals *= w
            out[points] = vals.sum(axis=1)
        return out

    @functools.cached_property
    def _log_floor(self) -> Optional[np.ndarray]:
        """log(eps S / |w_k|) per node, below which the score's log bound at
        a + b x proves the term |w_k l(a_k + b_k x)| negligible; None for a
        score without ``log_bound``.  S = sum |w_k| * max |l| on |y| <= 1 is
        the scale of the sum, and eps = 2**-53 / node count keeps all that
        is dropped at one point under one unit roundoff of S.  None also when
        every floor lies below the bound's minimum, at y = 0: then no pair can
        be dropped (e.g. the uniform weights of an MC kernel)."""
        if self.score.log_bound is None:
            return None
        _, _, w = self.nodes
        scale = np.abs(w).sum() * np.max(np.abs(self._score(np.linspace(-1.0, 1.0, 257))))
        with np.errstate(divide="ignore"):
            floor = np.log(2.0**-53 / w.size * scale) - np.log(np.abs(w))
        return None if floor.max() < self.score.log_bound(np.zeros(1))[0] else floor

    @functools.cached_property
    def _table(self) -> np.ndarray:
        """Spline coefficient rows of K_n on the cells of |x| <= halfwidth,
        checked against the direct node sum at the midpoint of every 8th
        cell.  The spline is fitted through ``TABLE_MARGIN`` more points on
        each side, so that its larger error in the end cells stays outside."""
        h, cells = self.halfwidth, TABLE_POINTS - 1
        step = 2.0 * h / cells
        grid = step * np.arange(-TABLE_MARGIN, cells + TABLE_MARGIN + 1) - h
        values = self.direct(grid)
        coef = not_a_knot_coefficients(values, step)[:, TABLE_MARGIN:TABLE_MARGIN + cells]
        mid = grid[TABLE_MARGIN:-TABLE_MARGIN - 1:8] + 0.5 * step
        gap = np.max(np.abs(uniform_cubic(coef, h, step, mid, None) - self.direct(mid)))
        if gap > 1e-8 * np.max(np.abs(values)):
            raise QuadratureUnconverged(
                f"kernel table is off the node sum by {gap:.3e} between grid points"
            )
        return coef

    def node_sums(self, z) -> np.ndarray:
        """sum_i l(a_k + b_k z_i) at every node k, for one sample z, over
        ``core.row_blocks`` of nodes."""
        a, b, _ = self.nodes
        if self.kappa is not None:
            table, sums = _binomial_table(self.score.polynomial_coeffs), power_sums(z, self.kappa.size - 1)
        out = np.empty(a.size)
        for k in row_blocks(a.size, z.size if self.kappa is None else self.kappa.size):
            out[k] = (self._score(a[k, None] + b[k, None] * z).sum(axis=1) if self.kappa is None
                      else _poly_design(table, a[k], b[k]) @ sums)
        return out

    def _score(self, x) -> np.ndarray:
        vals = np.asarray(self.score(x))
        if not np.all(np.isfinite(vals)):
            raise ScoreOverflow("score produced a non-finite value at a kernel node")
        return vals


def _binomial_table(coeffs) -> np.ndarray:
    """T[r, s] = c_(r+s) C(r+s, s), for coefficients given highest degree first."""
    c = np.asarray(coeffs, dtype=float)[::-1]
    return np.array([[c[r + s] * math.comb(r + s, s) if r + s < c.size else 0.0
                      for s in range(c.size)] for r in range(c.size)])


def _poly_design(table, a, b) -> np.ndarray:
    """G[k, s] such that sum_i l(a_k + b_k z_i) = sum_s G[k, s] sum_i z_i^s,
    from the score's ``_binomial_table``."""
    d = table.shape[0]
    return (np.vander(a, d, increasing=True) @ table) * np.vander(b, d, increasing=True)


def _node_moments(a, b, w, d: int) -> np.ndarray:
    """M[r, s] = sum_k w_k a_k^r b_k^s for r, s < d, summed over
    ``core.row_blocks`` of nodes; the block size moves M in its last bits."""
    moments = np.zeros((d, d))
    for k in row_blocks(a.size, d):
        moments += np.vander(a[k], d, increasing=True).T @ (
            np.vander(b[k], d, increasing=True) * w[k, None])
    return moments


def _node_kernel(score: ScoreFunction, a, b, w, n: int) -> LbiKernel:
    kappa = None
    if score.polynomial_coeffs is not None:
        table = _binomial_table(score.polynomial_coeffs)
        kappa = (table * _node_moments(a, b, w, table.shape[0])).sum(axis=0)
        if not np.all(np.isfinite(kappa)):
            raise ScoreOverflow("polynomial kernel coefficient is not finite")
    # standardized residuals have |z| <= sqrt(n - 1) (Samuelson's bound)
    return LbiKernel(kappa=kappa, score=score, nodes=(a, b, w),
                     halfwidth=min(TABLE_HALFWIDTH, math.sqrt(n - 1)))


@functools.lru_cache(maxsize=32)
def _ab_rule(n: int, cfg: QuadratureConfig):
    """Quadrature nodes/weights absorbing the exp(-n(a^2+b^2)/2) b^(n-2) weight.

    a-integral: Gauss-Hermite after a = u*sqrt(2/n); b-integral:
    Gauss-Legendre on [0, 1 + 10/sqrt(n)] with the weight kept in the
    integrand.
    Cached per (n, cfg); the returned arrays are read-only.  A Hermite rule
    that is not finite (numpy 2.4's weights overflow from 372 nodes on)
    raises QuadratureUnconverged.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        u, wu = hermgauss(cfg.a_nodes)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(wu))):
        raise QuadratureUnconverged(f"the {cfg.a_nodes}-node Gauss-Hermite rule is not finite")
    a = u * math.sqrt(2.0 / n)
    wa = wu * math.sqrt(2.0 / n)
    b_max = 1.0 + 10.0 / math.sqrt(n)
    x, wx = leggauss(cfg.b_nodes)
    b = 0.5 * b_max * (x + 1.0)
    # unscaled, this weight is 0 * inf = NaN at large n (b ** (n - 2)
    # overflows from n ~ 5700 on); the NaN then fails the null's check
    with np.errstate(over="ignore", invalid="ignore"):
        wb = 0.5 * b_max * wx * np.exp(-0.5 * n * b * b) * b ** (n - 2)
    for arr in (a, wa, b, wb):
        arr.setflags(write=False)
    return a, wa, b, wb


def exact_kernel(score: ScoreFunction, n: int, cfg: QuadratureConfig | None = None) -> LbiKernel:
    """Kernel on the product grid of ``_ab_rule``."""
    a, wa, b, wb = _ab_rule(n, cfg or QuadratureConfig())
    return _node_kernel(score, np.repeat(a, b.size), np.tile(b, a.size),
                        np.outer(wa, wb).ravel(), n)


def mc_kernel(score: ScoreFunction, n: int, reps: int, seed: int) -> LbiKernel:
    """Kernel on ``reps`` draws of A ~ N(0, 1/n), B ~ chi_(n-1)/sqrt(n), each
    weighted 1/reps, drawn by ``core.replications`` keyed by (seed,): a block
    of scalar rows is one chunk, so each block draws its A, then its B."""
    if reps < 1000:
        raise ValueError("reps must be >= 1000")

    def draw(rng, size):
        return (rng.normal(0.0, 1.0 / math.sqrt(n), size=size),
                np.sqrt(rng.chisquare(n - 1, size=size)) / math.sqrt(n))

    a, b = (np.concatenate(v) for v in zip(*replications((seed,), reps, (), draw)))
    return _node_kernel(score, a, b, np.full(reps, 1.0 / reps), n)


def closed_form_kernel(coeffs, n: int) -> LbiKernel:
    """Polynomial kernel from the analytic moments of the exact weight, in log
    space: M[r, s] = Gamma((r+1)/2) Gamma((n+s-1)/2) (2/n)^((n+r+s)/2) / 2 for
    even r, 0 for odd r; orders s <= 2 are dropped.  A coefficient outside
    the normal float range (from n ~ 1380 on) raises ScoreOverflow."""
    table = _binomial_table(coeffs)
    moments = np.zeros_like(table)
    for (r, s), t in np.ndenumerate(table):
        if t != 0.0 and r % 2 == 0 and s >= 3:
            log_m = (0.5 * (n + r + s) * math.log(2.0 / n) - math.log(2.0)
                     + math.lgamma((r + 1) / 2.0) + math.lgamma((n + s - 1) / 2.0))
            if not math.log(sys.float_info.min) <= log_m <= math.log(sys.float_info.max):
                raise ScoreOverflow(f"closed-form coefficient of order {s} leaves the float range at n = {n}")
            moments[r, s] = math.exp(log_m)
    return LbiKernel(kappa=(table * moments).sum(axis=0))


def _form(name: str, score: ScoreFunction, n: int, **settings):
    """Report method and kernel at n of the LBI form ``name``, from LBI_FORMS.
    Refuses n < 3, where the two standardized residuals are always -1 and 1,
    and a score the form cannot use (``calibration.check_score``)."""
    from .calibration import LBI_FORMS, check_score  # on the first call, not when this module loads
    if n < 3:
        raise ValueError("need n >= 3")
    check_score(name, score)
    method, build, _ = LBI_FORMS[name]
    return method, build(sys.modules[__name__], score, n, **settings)


def lbi_exact(z, score: ScoreFunction, cfg: QuadratureConfig | None = None, check: bool = True) -> LbiStatistic:
    """Exact LBI statistic by 2-D quadrature of the summed score, summed
    over the nodes directly (never from a kernel table).  That is the same
    sum as ``LbiKernel.direct``: for a score with a ``log_bound``, the
    (point, node) pairs it proves below one unit roundoff are skipped.

    With ``check`` both node counts are doubled; a relative drift above
    ``cfg.rtol`` raises QuadratureUnconverged.
    """
    z = np.asarray(z, dtype=float)
    n = z.size
    cfg = cfg or QuadratureConfig()

    def value_on(rule):
        method, kernel = _form("lbi-exact", score, n, quad_cfg=rule)
        return method, float(kernel(z)[0] if kernel.kappa is not None else kernel.direct(z).sum())

    method, value = value_on(cfg)
    if check:
        _, value_fine = value_on(replace(cfg, a_nodes=2 * cfg.a_nodes, b_nodes=2 * cfg.b_nodes))
        if not abs(value_fine - value) <= cfg.rtol * max(abs(value_fine), 1e-300):
            raise QuadratureUnconverged(f"value moved from {value:.12e} to {value_fine:.12e} "
                                        "under node doubling")
        value = value_fine
    return LbiStatistic(value, method, score.family_label, n)


def lbi_closed_form(z, score) -> LbiStatistic:
    """Closed-form LBI statistic (``closed_form_kernel``) for a polynomial score:
    a ScoreFunction with polynomial coefficients or a raw coefficient
    sequence, highest degree first."""
    if not isinstance(score, ScoreFunction):
        score = _poly_score(score, "poly")
    z = np.asarray(z, dtype=float)
    method, kernel = _form("lbi-closed", score, z.size)
    return LbiStatistic(float(kernel(z)[0]), method, score.family_label, z.size)


def score_sums(z, score: ScoreFunction) -> np.ndarray:
    """sum_i l(z_i) per row of a (m, n) batch, the Laplace form's kernel.  A
    sum of finite values beyond the float range is inf, or NaN where terms of
    both signs overflow, without numpy's warning; the caller refuses it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.asarray(score(z)).sum(axis=1)


def lbi_laplace(z, score: ScoreFunction) -> LbiStatistic:
    """Approximate LBI: the score summed at the standardized residuals."""
    z = np.asarray(z, dtype=float)
    method, kernel = _form("lbi-approx", score, z.size)
    value = float(kernel(z.reshape(1, -1))[0])
    if not math.isfinite(value):
        if not np.all(np.isfinite(score(z))):
            raise ScoreOverflow("score produced a non-finite value")
        raise ScoreOverflow(f"the sum of the score over the {z.size} points leaves the float range")
    return LbiStatistic(value, method, score.family_label, z.size)


def lbi_monte_carlo(z, score: ScoreFunction, reps: int, seed: int) -> LbiStatistic:
    """Monte-Carlo LBI: the average of sum_i score(A + B z_i) over the
    fixed draws of ``mc_kernel``, with its standard error."""
    z = np.asarray(z, dtype=float)
    method, kernel = _form("lbi-mc", score, z.size, mc_reps=reps, mc_seed=seed)
    sums = kernel.node_sums(z)
    mean = sums.mean()
    var = max(sums @ sums / sums.size - mean * mean, 0.0)
    return LbiStatistic(float(mean), method, score.family_label, z.size, float(math.sqrt(var / reps)))


def profile_likelihood_statistic(z, h: ScoreFunction):
    """Profile-likelihood statistic sum_i z_i * h'(z_i) over the last axis:
    a float for one sample, an array for a (m, n) batch.

    The derivative is the score's own where it has one (polynomial and
    stable scores) and ``core.central_difference`` otherwise.  A sum beyond
    the float range is inf or NaN, without numpy's warning; callers refuse it.
    """
    z = np.asarray(z, dtype=float)
    dv = np.asarray(h.derivative(z)) if h.derivative is not None else central_difference(h, z)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sum(z * dv, axis=-1)


def skewness(z) -> float:
    """Standardized third sample moment of the residuals."""
    return standardized_moment(z, 3)


def kurtosis(z) -> float:
    """Standardized fourth sample moment (raw, not excess-adjusted)."""
    return standardized_moment(z, 4)


def null_integral_quadrature(z, cfg: QuadratureConfig | None = None) -> float:
    """2-D quadrature of prod_i phi(a + b z_i) * b^(n-2) over a in R, b > 0.

    Computed pointwise from the normal density (not via the algebraic
    reduction), so it serves as an accuracy oracle for the quadrature
    scheme against the known closed-form constant.
    """
    z = np.asarray(z, dtype=float)
    n = z.size
    a, wa, b, wb = _ab_rule(n, cfg or QuadratureConfig())
    pts = a[:, None, None] + b[None, :, None] * z[None, None, :]
    log_prod = (-0.5 * pts * pts - 0.5 * math.log(2.0 * math.pi)).sum(axis=2)
    # divide out the weight exp(-n(a^2+b^2)/2) b^(n-2) that the rule absorbs
    integrand = np.exp(log_prod + 0.5 * n * (a[:, None] ** 2 + b[None, :] ** 2))
    return float(wa @ integrand @ wb)
