"""Alternative samplers and empirical power.

Loaded by the ``power`` command alone: ``calibration`` forwards these
names (PEP 562), so ``test`` and ``calibrate`` processes never import it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import calibration as cal_mod
from .calibration import AlternativeSpec, NullCalibration, StatisticSpec
from .core import replications
from .errors import ScoreOverflow, UnsupportedShape


def _sample_stable_m(alpha: float, beta: float, size: int, rng) -> np.ndarray:
    """Stable variates in the continuous (M) parametrization.

    Chambers-Mallows-Stuck draw in the classical parametrization, then
    the deterministic shift -beta*tan(pi*alpha/2) that converts to the
    M form.  At alpha = 2 this is exactly N(0, 2).
    """
    if alpha == 2.0:
        return rng.normal(0.0, math.sqrt(2.0), size=size)
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=size)
    w = rng.exponential(1.0, size=size)
    tan_half = math.tan(math.pi * alpha / 2.0)
    b0 = math.atan(beta * tan_half) / alpha
    s0 = (1.0 + beta * beta * tan_half * tan_half) ** (1.0 / (2.0 * alpha))
    # s0 sin(t) / cos(u)^(1/alpha) * (cos(u - t) / w)^((1 - alpha)/alpha), t = alpha (u + b0),
    # in place and in that order of operations
    t = u + b0
    t *= alpha
    x = np.sin(t)
    x *= s0
    np.subtract(u, t, out=t)
    np.cos(t, out=t)
    t /= w
    t **= (1.0 - alpha) / alpha
    np.cos(u, out=u)
    u **= 1.0 / alpha
    x /= u
    x *= t
    x -= beta * tan_half
    return x


def _gig_log_quasi_pdf(x, p: float, b: float) -> np.ndarray:
    """log of the GIG quasi-density x^(p-1) exp(-b (x + 1/x) / 2); -inf at x <= 0."""
    x = np.asarray(x)
    # every point, then -inf where x <= 0 (or NaN), whose log and 1/x are not used
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(x, out=np.empty(x.shape))
        out *= p - 1
        r = np.divide(1, x)
        r += x
        r *= b
        r /= 2
        out -= r
    out[~(x > 0)] = -np.inf
    return out


def _sample_gig(p: float, b: float, size, rng) -> np.ndarray:
    """Generalized inverse Gaussian variates, density ∝ x^(p-1) exp(-b (x + 1/x) / 2).

    Hörmann & Leydold, "Generating generalized inverse Gaussian random
    variates", Stat. Comput. 24 (2014): ratio of uniforms with a mode
    shift (p >= 1 or b > 1), ratio of uniforms without it (b >=
    min(1/2, 2 sqrt(1 - p) / 3)), else their rejection from a
    three-piece hat.  p < 0 draws 1/X for X ~ GIG(-p, b).  Every step,
    down to the order of ``rng.uniform`` calls, is that of
    ``scipy.stats.geninvgauss.rvs``, so the draws are bit-identical.
    """
    size = tuple(np.atleast_1d(size))
    total = int(np.prod(size))
    invert = p < 0
    if invert:
        p = -p
    if p < 1:
        m = b / (np.sqrt((p - 1)**2 + b**2) + 1 - p)
    else:
        m = (np.sqrt((1 - p)**2 + b**2) - (1 - p)) / b
    x = np.zeros(total)
    simulated = 0
    mode_shift = p >= 1 or b > 1
    if mode_shift or b >= min(0.5, 2 * np.sqrt(1 - p) / 3):
        if mode_shift:
            # ratio of uniforms around the mode: the bounding rectangle's
            # v-range comes from two roots of x^3 + a2 x^2 + a1 x + m (Cardano)
            a2 = -2 * (p + 1) / b - m
            a1 = 2 * m * (p - 1) / b - 1
            p1 = a1 - a2**2 / 3
            q1 = 2 * a2**3 / 27 - a2 * a1 / 3 + m
            phi = np.arccos(-q1 * np.sqrt(-27 / p1**3) / 2)
            s1 = -np.sqrt(-4 * p1 / 3)
            root1 = s1 * np.cos(phi / 3 + np.pi / 3) - a2 / 3
            root2 = -s1 * np.cos(phi / 3) - a2 / 3
            # relative to the quasi-density at the mode: the quasi-density
            # itself overflows for large p and b
            lm = _gig_log_quasi_pdf(m, p, b)
            vmin = (root1 - m) * np.exp(0.5 * (_gig_log_quasi_pdf(root1, p, b) - lm))
            vmax = (root2 - m) * np.exp(0.5 * (_gig_log_quasi_pdf(root2, p, b) - lm))
            umax, c = 1, m
        else:
            lm = 0
            umax = np.exp(0.5 * _gig_log_quasi_pdf(m, p, b))
            xplus = ((1 + p) + np.sqrt((1 + p)**2 + b**2)) / b
            vmin = 0
            vmax = xplus * np.exp(0.5 * _gig_log_quasi_pdf(xplus, p, b))
            c = 0
        if vmin >= vmax:
            raise ValueError("vmin must be smaller than vmax.")
        if umax <= 0:
            raise ValueError("umax must be positive.")
        tries = 1
        while simulated < total:
            k = total - simulated
            u = rng.uniform(size=k)
            u *= umax
            draws = rng.uniform(size=k)  # v, then v / u + c
            draws *= vmax - vmin
            draws += vmin
            draws /= u
            draws += c
            log_pdf = _gig_log_quasi_pdf(draws, p, b)
            log_pdf -= lm
            np.log(u, out=u)
            u *= 2
            accept = u <= log_pdf
            num = np.count_nonzero(accept)
            x[simulated:simulated + num] = draws[accept]
            simulated += num
            if simulated == 0 and tries * total >= 50_000:
                raise RuntimeError(
                    f"Not a single random variate could be generated in {tries * total} "
                    "attempts. Sampling does not appear to work for the provided parameters."
                )
            tries += 1
    else:
        # hat k1 on (0, x0), k2 x^(p-1) on (x0, 2/b), k3 exp(-b x / 2) beyond
        x0 = b / (1 - p)
        xs = np.max((x0, 2 / b))
        k1 = np.exp(_gig_log_quasi_pdf(m, p, b))
        A1 = k1 * x0
        if x0 < 2 / b:
            k2 = np.exp(-b)
            A2 = k2 * ((2 / b)**p - x0**p) / p if p > 0 else k2 * np.log(2 / b**2)
        else:
            k2, A2 = 0, 0
        k3 = xs**(p - 1)
        A3 = 2 * k3 * np.exp(-xs * b / 2) / b
        A = A1 + A2 + A3
        while simulated < total:
            k = total - simulated
            h, draws = np.zeros(k), np.zeros(k)
            u = rng.uniform(size=k)
            v = A * rng.uniform(size=k)
            cond1 = v <= A1
            cond2 = np.logical_not(cond1) & (v <= A1 + A2)
            cond3 = np.logical_not(cond1 | cond2)
            draws[cond1] = x0 * v[cond1] / A1
            h[cond1] = k1
            if p > 0:
                draws[cond2] = (x0**p + (v[cond2] - A1) * p / k2)**(1 / p)
            else:
                draws[cond2] = b * np.exp((v[cond2] - A1) * np.exp(b))
            h[cond2] = k2 * draws[cond2]**(p - 1)
            z = np.exp(-xs * b / 2) - b * (v[cond3] - A1 - A2) / (2 * k3)
            draws[cond3] = -2 / b * np.log(z)
            h[cond3] = k3 * np.exp(-draws[cond3] * b / 2)
            accept = np.log(u * h) <= _gig_log_quasi_pdf(draws, p, b)
            num = np.count_nonzero(accept)
            x[simulated:simulated + num] = draws[accept]
            simulated += num
    x = x.reshape(size)
    return 1 / x if invert else x


def check_alternative(spec: AlternativeSpec) -> None:
    """Raise UnsupportedShape unless ``sample_alternative`` can draw from
    ``spec``: a known family, a finite shape >= 0 and, per family, a stable
    index alpha = 2 - shape in (0, 2] other than 1 with |beta| <= 1, or a
    variance-mean mixture with a finite beta inside its validated envelope."""
    theta = spec.shape
    if not math.isfinite(theta):
        raise UnsupportedShape(f"shape must be finite, not {theta}")
    if theta < 0.0:
        raise UnsupportedShape("shape must be >= 0")
    fam = spec.family
    if fam not in AlternativeSpec.FAMILIES:
        raise UnsupportedShape(f"unknown family '{fam}'")
    if fam == "stable":
        alpha = 2.0 - theta
        if not 0.0 < alpha <= 2.0 or alpha == 1.0:
            raise UnsupportedShape(f"alpha = {alpha} outside the validated range")
        if not abs(spec.beta) <= 1.0:
            raise UnsupportedShape("|beta| must be <= 1")
    elif fam == "gh-variance-mean" and theta != 0.0:
        if not math.isfinite(spec.beta):
            raise UnsupportedShape(f"beta must be finite, not {spec.beta}")
        if not -20.0 <= spec.lam <= 20.0:
            raise UnsupportedShape("mixing index lam outside [-20, 20]")
        if not 0.0 < 1.0 / theta <= 1e3:
            raise UnsupportedShape("shape outside the validated mixing envelope")


def sample_alternative(spec: AlternativeSpec, n: int, rng, size=None) -> np.ndarray:
    """Draw i.i.d. observations from the named alternative family.

    Returns n draws, or an array of the given ``size`` (e.g. a
    (reps, n) batch).  shape = 0 returns exact draws from the null
    boundary (standard normal, or N(0,2) for the stable family).
    ``gh-variance-mean`` is beta (Y - 1) + sqrt(Y) N(0, 1) with Y
    generalized inverse Gaussian (index lam, b = 1/shape), drawn by
    Hörmann & Leydold, "Generating generalized inverse Gaussian random
    variates", Stat. Comput. 24 (2014) (``_sample_gig``).
    """
    check_alternative(spec)
    size = n if size is None else size
    theta = spec.shape
    fam = spec.family
    if fam == "stable":
        return _sample_stable_m(2.0 - theta, spec.beta, size, rng)
    if theta == 0.0:
        return rng.standard_normal(size)
    m = 1.0 / theta
    if fam == "student-t":
        return rng.standard_t(m, size=size)
    if fam == "gamma-centered":
        return (rng.gamma(m, 1.0, size=size) - m) / math.sqrt(m)
    if fam == "laplace":
        return (rng.gamma(m, 1.0, size=size) - rng.gamma(m, 1.0, size=size)) / math.sqrt(2.0 * m)
    # gh-variance-mean: m is delta*gamma of the symmetric mixing law
    y = _sample_gig(spec.lam, m, size, rng)
    return -spec.beta + spec.beta * y + np.sqrt(y) * rng.standard_normal(size)


def power_curve(
    statistic: StatisticSpec,
    family: str,
    shapes: Sequence[float],
    n: int,
    level: float,
    reps: int,
    seed: int,
    calibration: NullCalibration,
    beta: float = 0.0,
) -> list:
    """Empirical rejection frequency over a grid of shape parameters.

    Returns one dict per grid point: shape, power and its binomial
    standard error.  Grid point i is drawn by ``core.replications`` keyed
    by (seed, i), in the same chunks as ``calibrate_null``.  A non-finite
    statistic value raises ScoreOverflow: it failed to evaluate, and would
    count as an acceptance.
    """
    if reps < 1:
        raise ValueError("power reps must be >= 1")
    if (calibration.n, calibration.statistic_label, calibration.fingerprint) != (
        n, statistic.label, statistic.fingerprint
    ):
        raise ValueError("calibration does not match the requested statistic")
    crit = calibration.critical_value(level)
    out = []
    for gi, shape in enumerate(shapes):
        spec = AlternativeSpec(family=family, shape=shape, beta=beta)
        rejected = bad = 0
        # sample_alternative is looked up on calibration at each draw, so a
        # wrapper set there (perfbench's tracer) sees every call
        for x in replications((seed, gi), reps, (n,),
                              lambda rng, size: cal_mod.sample_alternative(spec, n, rng,
                                                                           size=size)):
            values = statistic.compute_batch(x)
            rejected += np.count_nonzero(values > crit)
            bad += np.count_nonzero(~np.isfinite(values))
        if bad:
            raise ScoreOverflow(f"{statistic.label}: {bad} of {reps} statistic values at "
                                f"shape {shape}, n = {n} are not finite")
        pw = rejected / reps
        out.append(
            {
                "shape": shape,
                "power": pw,
                "se": math.sqrt(max(pw * (1.0 - pw), 1.0 / reps) / reps),
            }
        )
    return out
