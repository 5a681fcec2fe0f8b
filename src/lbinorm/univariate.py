"""Univariate test statistics.

Every LBI form is sum_i K_n(z_i) for the kernel K_n(x) = E[l(A + B x)] over
the location/scale law of (A, B) (see :class:`LbiKernel`).  The exact form
integrates against exp(-n(a^2+b^2)/2) * b^(n-2) over a in R, b > 0, exactly
as the integrand is displayed (no (2*pi)^(-n/2) prefactor).  The closed form
uses the analytic moments of that weight and drops degree <= 2 terms, so
the two differ by a fixed affine map per (n, score) with positive slope.
"""

import math
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .core import block_substreams, power_sums, standardized_moment
from .errors import QuadratureUnconverged, ScoreOverflow
from .scores import ScoreFunction

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


@dataclass(frozen=True)
class QuadratureConfig:
    """Node counts and truncation for the 2-D location/scale quadrature."""

    a_nodes: int = 96
    b_nodes: int = 96
    b_max: Optional[float] = None  # default 1 + 10/sqrt(n)
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
    through power sums; the closed form has ``kappa`` only.  Other scores are
    summed over the nodes, one row and at most ``block`` nodes per score
    call: the stable score's out-of-grid fallback sizes its panels by the
    largest |x| in a call.
    """

    kappa: Optional[np.ndarray] = None  # lowest degree first
    score: Optional[ScoreFunction] = None
    nodes: tuple = ()
    block: int = 0

    def __call__(self, z) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=float))
        if self.kappa is not None:
            return power_sums(z, self.kappa.size - 1) @ self.kappa
        return np.array([self.nodes[2] @ self.node_sums(zi) for zi in z])

    def node_sums(self, z) -> np.ndarray:
        """sum_i l(a_k + b_k z_i) at every node k, for one sample z."""
        a, b, _ = self.nodes
        if self.kappa is not None:
            return _poly_design(self.score.polynomial_coeffs, a, b) @ power_sums(z, self.kappa.size - 1)
        sums = []
        for lo in range(0, a.size, self.block):
            vals = np.asarray(self.score(a[lo:lo + self.block, None]
                                         + b[lo:lo + self.block, None] * z[None, :]))
            if not np.all(np.isfinite(vals)):
                raise ScoreOverflow("score produced a non-finite value at a kernel node")
            sums.append(vals.sum(axis=1))
        return np.concatenate(sums)


def _binomial_table(coeffs) -> np.ndarray:
    """T[r, s] = c_(r+s) C(r+s, s), for coefficients given highest degree first."""
    c = np.asarray(coeffs, dtype=float)[::-1]
    return np.array([[c[r + s] * math.comb(r + s, s) if r + s < c.size else 0.0
                      for s in range(c.size)] for r in range(c.size)])


def _poly_design(coeffs, a, b) -> np.ndarray:
    """G[k, s] such that sum_i l(a_k + b_k z_i) = sum_s G[k, s] sum_i z_i^s."""
    table = _binomial_table(coeffs)
    d = table.shape[0]
    return (np.vander(a, d, increasing=True) @ table) * np.vander(b, d, increasing=True)


def _node_kernel(score: ScoreFunction, a, b, w, block: int) -> LbiKernel:
    kappa = None
    if score.polynomial_coeffs is not None:
        kappa = w @ _poly_design(score.polynomial_coeffs, a, b)
        if not np.all(np.isfinite(kappa)):
            raise ScoreOverflow("polynomial kernel coefficient is not finite")
    return LbiKernel(kappa=kappa, score=score, nodes=(a, b, w), block=block)


def _ab_rule(n: int, cfg: QuadratureConfig):
    """Quadrature nodes/weights absorbing the exp(-n(a^2+b^2)/2) b^(n-2) weight.

    a-integral: Gauss-Hermite after a = u*sqrt(2/n); b-integral:
    Gauss-Legendre on [0, b_max] with the weight kept in the integrand.
    """
    u, wu = hermgauss(cfg.a_nodes)
    a = u * math.sqrt(2.0 / n)
    wa = wu * math.sqrt(2.0 / n)
    b_max = cfg.b_max if cfg.b_max is not None else 1.0 + 10.0 / math.sqrt(n)
    x, wx = leggauss(cfg.b_nodes)
    b = 0.5 * b_max * (x + 1.0)
    wb = 0.5 * b_max * wx * np.exp(-0.5 * n * b * b) * b ** (n - 2)
    return a, wa, b, wb


def exact_kernel(score: ScoreFunction, n: int, cfg: QuadratureConfig | None = None) -> LbiKernel:
    """Kernel on the product grid of ``_ab_rule``, all nodes in one score call."""
    a, wa, b, wb = _ab_rule(n, cfg or QuadratureConfig())
    return _node_kernel(score, np.repeat(a, b.size), np.tile(b, a.size),
                        np.outer(wa, wb).ravel(), a.size * b.size)


def mc_kernel(score: ScoreFunction, n: int, reps: int, seed: int,
              block_size: int = 10_000) -> LbiKernel:
    """Kernel on ``reps`` draws of A ~ N(0, 1/n), B ~ chi_(n-1)/sqrt(n), each
    weighted 1/reps, from substreams keyed by (seed, block index)."""
    if reps < 1000:
        raise ValueError("reps must be >= 1000")
    draws = [(rng.normal(0.0, 1.0 / math.sqrt(n), size=m),
              np.sqrt(rng.chisquare(n - 1, size=m)) / math.sqrt(n))
             for rng, m in block_substreams((seed,), reps, block_size)]
    a, b = (np.concatenate(v) for v in zip(*draws))
    return _node_kernel(score, a, b, np.full(reps, 1.0 / reps), block_size)


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


def lbi_exact(z, score: ScoreFunction, cfg: QuadratureConfig | None = None, check: bool = True) -> LbiStatistic:
    """Exact LBI statistic by 2-D quadrature of the summed score.

    With ``check`` both node counts are doubled; a relative drift above
    ``cfg.rtol`` raises QuadratureUnconverged.
    """
    z = np.asarray(z, dtype=float)
    n = z.size
    if n < 3:
        raise ValueError("need n >= 3")
    cfg = cfg or QuadratureConfig()
    value = float(exact_kernel(score, n, cfg)(z)[0])
    if check:
        fine = replace(cfg, a_nodes=2 * cfg.a_nodes, b_nodes=2 * cfg.b_nodes)
        value_fine = float(exact_kernel(score, n, fine)(z)[0])
        if abs(value_fine - value) > cfg.rtol * max(abs(value_fine), 1e-300):
            raise QuadratureUnconverged(
                f"value moved from {value:.12e} to {value_fine:.12e} under node doubling"
            )
        value = value_fine
    return LbiStatistic(value=value, method="exact-quadrature",
                        score_label=score.family_label, n=n)


def lbi_closed_form(z, score) -> LbiStatistic:
    """Closed-form LBI statistic (``closed_form_kernel``) for a polynomial score:
    a ScoreFunction with polynomial coefficients or a raw coefficient
    sequence, highest degree first."""
    if isinstance(score, ScoreFunction):
        if score.polynomial_coeffs is None:
            raise ValueError("closed form needs polynomial coefficients")
        coeffs = np.asarray(score.polynomial_coeffs, dtype=float)
        label = score.family_label
    else:
        coeffs = np.asarray(score, dtype=float)
        label = "poly"
    if coeffs.size - 1 > 8:
        raise ValueError("polynomial degree must be <= 8")
    z = np.asarray(z, dtype=float)
    value = float(closed_form_kernel(coeffs, z.size)(z)[0])
    return LbiStatistic(value=value, method="closed-form", score_label=label, n=z.size)


def lbi_laplace(z, score: ScoreFunction) -> LbiStatistic:
    """Approximate LBI: the score summed at the standardized residuals."""
    z = np.asarray(z, dtype=float)
    vals = np.asarray(score(z))
    if not np.all(np.isfinite(vals)):
        raise ScoreOverflow("score produced a non-finite value")
    return LbiStatistic(value=float(vals.sum()), method="laplace",
                        score_label=score.family_label, n=z.size)


def lbi_monte_carlo(z, score: ScoreFunction, reps: int, seed: int,
                    block_size: int = 10_000) -> LbiStatistic:
    """Monte-Carlo LBI: the average of sum_i score(A + B z_i) over the
    fixed draws of ``mc_kernel``, with its standard error."""
    z = np.asarray(z, dtype=float)
    n = z.size
    sums = mc_kernel(score, n, reps, seed, block_size).node_sums(z)
    mean = sums.mean()
    var = max((sums * sums).mean() - mean * mean, 0.0)
    return LbiStatistic(value=float(mean), method="monte-carlo",
                        score_label=score.family_label, n=n,
                        std_error=float(math.sqrt(var / reps)))


def profile_likelihood_statistic(z, h: ScoreFunction, fd_step: float = 1e-6):
    """Profile-likelihood statistic sum_i z_i * h'(z_i) over the last axis:
    a float for one sample, an array for a (m, n) batch.

    The derivative is analytic for polynomial scores and by central
    differences otherwise.
    """
    z = np.asarray(z, dtype=float)
    if h.derivative is not None:
        dv = np.asarray(h.derivative(z))
    else:
        dv = (np.asarray(h(z + fd_step)) - np.asarray(h(z - fd_step))) / (2.0 * fd_step)
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
