"""Monte-Carlo null calibration, p-values, alternative samplers and power.

Replications are drawn by ``core.replications``, in fixed-size blocks with
substreams keyed by (seed, block index), so a calibration is
bit-reproducible and does not depend on how blocks would be scheduled
across workers.  Calibrations can be cached to disk in a small versioned
binary format.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from .core import CHUNK, power_sums, replications, row_blocks, standardize
from .errors import IncompatibleSelection, ScoreOverflow, UnsupportedShape
from .multivariate import stat_gl, stat_lt, whiten

if TYPE_CHECKING:
    from .scores import ScoreFunction
    from .univariate import QuadratureConfig

__all__ = [
    "StatisticSpec",
    "NullCalibration",
    "AlternativeSpec",
    "make_statistic",
    "calibrate_null",
    "p_value",
    "check_alternative",
    "sample_alternative",
    "power_curve",
    "save_calibration",
    "load_calibration",
    "cache_path",
]

_MAGIC = b"LBICAL1"
_VERSION = 2
_HEADER = "<7sB16sIIQQ"


@dataclass(frozen=True)
class StatisticSpec:
    """A named statistic with a batch evaluator.

    ``compute_batch`` maps a raw-sample batch -- shape (reps, n) for
    univariate data, (reps, n, p) for multivariate -- to a vector of
    statistic values.  Large values reject.  ``fingerprint`` is the
    canonical text of every setting beyond the label that changes those
    values; with the label it keys the statistic's calibration caches.
    ``method`` names how the value is computed, as a report gives it.
    """

    label: str
    p: int
    compute_batch: Callable[[np.ndarray], np.ndarray]
    fingerprint: str = ""
    method: str = ""

    def compute(self, sample: np.ndarray) -> float:
        sample = np.asarray(sample, dtype=float)
        return float(self.compute_batch(sample[None, ...])[0])


@dataclass(frozen=True, eq=False)
class NullCalibration:
    """Sorted empirical null distribution of a statistic."""

    statistic_label: str
    n: int
    p: int
    reps: int
    seed: int
    sorted_null_values: np.ndarray
    fingerprint: str = ""

    def __post_init__(self):
        # Fresh and cached nulls alike: a NaN would sort above every
        # observed value and read as p = 1 or as a critical value no
        # sample exceeds.
        v = self.sorted_null_values
        bad = np.count_nonzero(~np.isfinite(v))
        if bad:
            raise ScoreOverflow(
                f"{self.statistic_label}: {bad} of {self.reps} null values "
                f"at n = {self.n} are not finite"
            )
        # A null spread at rounding level (e.g. kurt at n = 3, identically
        # 1.5) would rank observed values by their rounding noise.
        spread = v.max() - v.min()
        if spread <= 2.0**-40 * np.abs(v).max():
            raise IncompatibleSelection(
                f"{self.statistic_label}: the null values at n = {self.n} "
                f"differ by {spread:.3g} at most, a rounding-level spread; "
                "the statistic does not vary at this n"
            )

    @property
    def low_reps(self) -> bool:
        """Fewer than 1e4 replications: the critical values are coarse."""
        return self.reps < 10_000

    def critical_value(self, level: float) -> float:
        """Empirical upper quantile: large statistic values reject."""
        if not 0.0 < level < 1.0:
            raise ValueError("level must be in (0, 1)")
        return float(
            np.quantile(self.sorted_null_values, 1.0 - level, method="higher")
        )


def closed_form_weights(coeffs: np.ndarray, n: int) -> dict:
    """Weight per moment order of the explicit polynomial-score statistic."""
    from .univariate import closed_form_kernel
    kappa = closed_form_kernel(coeffs, n).kappa
    return {order: n * k for order, k in enumerate(kappa) if k != 0.0}


def _of_residuals(residual_fn: Callable, multivariate: bool = False) -> Callable:
    """compute_batch of a statistic of the residuals, the only evaluation path:
    every test is invariant under location and scale (or the GL/LT group), so
    each ``core.row_blocks`` chunk of at most ``CHUNK`` values (a whole
    ``core.replications`` chunk) of a raw batch is standardized (univariate)
    or whitened (mvn) and ``residual_fn`` maps it to one value per sample."""

    def compute(x):
        x = np.asarray(x, dtype=float)
        if multivariate and (x.ndim != 3 or x.shape[2] < 1):
            raise ValueError("expected an n x p matrix")
        out = np.empty(x.shape[0])
        for rows in row_blocks(x.shape[0], math.prod(x.shape[1:]), CHUNK):
            out[rows] = residual_fn(whiten(x[rows]) if multivariate else standardize(x[rows]))
        return out

    return compute


# The score-based LBI forms by name: the method a report gives; the form's
# function of an (m, n) batch of standardized residuals, given the univariate
# module, the score, n and make_statistic's settings; and a template, filled
# from those settings, of what the form adds to the score's fingerprint.
LBI_FORMS = {
    "lbi-exact": ("exact-quadrature",
                  lambda u, score, n, quad_cfg, **_: u.exact_kernel(score, n, quad_cfg),
                  "{quad_cfg!r}"),
    "lbi-closed": ("closed-form",
                   lambda u, score, n, **_: u.closed_form_kernel(score.polynomial_coeffs, n),
                   ""),
    "lbi-approx": ("laplace",
                   lambda u, score, n, **_: functools.partial(u.score_sums, score=score), ""),
    "lbi-mc": ("monte-carlo",
               lambda u, score, n, mc_reps, mc_seed, **_: u.mc_kernel(score, n, mc_reps, mc_seed),
               "mc_reps={mc_reps},mc_seed={mc_seed}"),
    "profile": ("profile",
                lambda u, score, n, **_: functools.partial(u.profile_likelihood_statistic, h=score),
                ""),
}


def check_score(name: str, score: ScoreFunction) -> None:
    """Refuse a score that the LBI form ``name`` cannot use.  make_statistic and
    the one-sample forms call it before any kernel or null is built."""
    if name == "lbi-closed" and score.polynomial_coeffs is None:
        raise ValueError("closed form needs polynomial coefficients")
    if name == "lbi-closed" and len(score.polynomial_coeffs) - 1 > 8:
        raise ValueError("polynomial degree must be <= 8")


def make_statistic(
    name: str,
    score: Optional[ScoreFunction] = None,
    group: str = "lt",
    quad_cfg: Optional[QuadratureConfig] = None,
    mc_reps: int = 100_000,
    mc_seed: int = 0,
) -> StatisticSpec:
    """Build a StatisticSpec for one of the named tests.

    Univariate names: skew, kurt and the ``LBI_FORMS`` (lbi-exact,
    lbi-closed, lbi-approx, lbi-mc, profile), which need ``score``.
    Multivariate: mvn with ``group`` in {gl, lt}.
    """
    if score is not None and name in ("skew", "kurt", "mvn"):
        raise ValueError(f"statistic '{name}' takes no score")
    if name in ("skew", "kurt"):
        k = 3 if name == "skew" else 4
        return StatisticSpec(name, 1, _of_residuals(lambda z: power_sums(z, k)[:, k] / z.shape[1]),
                             method="moment")
    if name == "mvn":
        if group not in ("gl", "lt"):
            raise ValueError("group must be 'gl' or 'lt'")
        return StatisticSpec(f"mvn-{group}", -1,
                             _of_residuals(stat_gl if group == "gl" else stat_lt, multivariate=True),
                             method=f"mvn-{group}")
    if score is None:
        raise ValueError(f"statistic '{name}' needs a score")
    if name not in LBI_FORMS:
        raise ValueError(f"unknown statistic '{name}'")
    check_score(name, score)
    # loads scores and numpy.polynomial too, which skew, kurt and mvn run without
    from . import univariate
    method, build, template = LBI_FORMS[name]
    settings = {"quad_cfg": quad_cfg or univariate.QuadratureConfig(), "mc_reps": mc_reps,
                "mc_seed": mc_seed}
    at_n = functools.cache(lambda n: build(univariate, score, n, **settings))
    fingerprint = ";".join(filter(None, [score.fingerprint, template.format(**settings)]))
    return StatisticSpec(f"{name}({score.family_label})", 1,
                         _of_residuals(lambda z: at_n(z.shape[1])(z)), fingerprint, method)


def calibrate_null(
    statistic: StatisticSpec, n: int, reps: int, seed: int, p: int = 1
) -> NullCalibration:
    """Empirical null distribution from standard-normal replications.

    Deterministic for fixed (seed, statistic, n, p, reps); reps below
    1e4 are accepted but flagged.  Each chunk of ``core.replications``
    is drawn and evaluated at once; the values are those of whole-block
    draws.  A non-finite null value raises ScoreOverflow: the statistic
    failed to evaluate at this n.  A null spread at rounding level raises
    IncompatibleSelection.
    """
    if reps < 1000:
        raise ValueError("reps must be >= 1000")
    if statistic.p > 0:
        p = statistic.p
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    shape = (n,) if statistic.p == 1 else (n, p)
    values = np.concatenate([
        statistic.compute_batch(x)
        for x in replications((seed,), reps, shape, lambda rng, size: rng.standard_normal(size))
    ])
    values.sort()
    cal = NullCalibration(
        statistic_label=statistic.label,
        n=n,
        p=p,
        reps=reps,
        seed=seed,
        sorted_null_values=values,
        fingerprint=statistic.fingerprint,
    )
    if cal.low_reps:
        warnings.warn("fewer than 1e4 replications; critical values are coarse")
    return cal


def p_value(cal: NullCalibration, observed: float) -> float:
    """One-sided add-one p-value (r+1)/(reps+1), r = #{null >= observed}.

    A non-finite observed value raises ScoreOverflow: it is a failed
    evaluation, not an extreme one.
    """
    if not math.isfinite(observed):
        raise ScoreOverflow(f"observed statistic is not finite ({observed})")
    v = cal.sorted_null_values
    r = v.size - np.searchsorted(v, observed, side="left")
    return float((r + 1) / (v.size + 1))


@dataclass(frozen=True)
class AlternativeSpec:
    """A one-parameter alternative family at a given shape value.

    ``shape`` is the departure parameter theta (0 = normal boundary);
    ``beta`` skews the stable and variance-mean-mixture families;
    ``lam`` is the mixing-law index of the variance-mean mixture.
    """

    family: str
    shape: float
    beta: float = 0.0
    lam: float = 1.0

    FAMILIES = ("student-t", "gamma-centered", "laplace", "stable", "gh-variance-mean")


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
    x = (
        s0
        * np.sin(alpha * (u + b0))
        / np.cos(u) ** (1.0 / alpha)
        * (np.cos(u - alpha * (u + b0)) / w) ** ((1.0 - alpha) / alpha)
    )
    return x - beta * tan_half


def _gig_log_quasi_pdf(x, p: float, b: float) -> np.ndarray:
    """log of the GIG quasi-density x^(p-1) exp(-b (x + 1/x) / 2); -inf at x <= 0."""
    x = np.asarray(x)
    pos = x > 0
    out = np.full(x.shape, -np.inf)
    xp = x[pos]
    out[pos] = (p - 1) * np.log(xp) - b * (xp + 1 / xp) / 2
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
            u = umax * rng.uniform(size=k)
            v = vmin + (vmax - vmin) * rng.uniform(size=k)
            draws = v / u + c
            accept = 2 * np.log(u) <= _gig_log_quasi_pdf(draws, p, b) - lm
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
        # sample_alternative is looked up at each draw, so a wrapper set on
        # the module (perfbench's tracer) sees every call
        for x in replications((seed, gi), reps, (n,),
                              lambda rng, size: sample_alternative(spec, n, rng, size=size)):
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


def _label_hash(label: str, fingerprint: str) -> bytes:
    """Hash of the statistic's label and settings fingerprint."""
    return hashlib.sha256(f"{label}\0{fingerprint}".encode("utf-8")).digest()[:16]


def cache_path(directory, statistic_label: str, n: int, p: int, reps: int, seed: int,
               fingerprint: str = "") -> Path:
    h = _label_hash(statistic_label, fingerprint).hex()
    return Path(directory) / f"{h}_n{n}_p{p}_r{reps}_s{seed}.lbical"


def save_calibration(cal: NullCalibration, path) -> Path:
    """Write a calibration cache: LBICAL1 header then float64-LE values.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path``: a reader sees the old file or the whole new one.
    """
    path = Path(path)
    header = struct.pack(
        _HEADER,
        _MAGIC,
        _VERSION,
        _label_hash(cal.statistic_label, cal.fingerprint),
        cal.n,
        cal.p,
        cal.reps,
        cal.seed,
    )
    payload = np.ascontiguousarray(cal.sorted_null_values, dtype="<f8").tobytes()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(header + payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_calibration(path, statistic_label: str, fingerprint: str = "") -> NullCalibration:
    """Read a calibration cache, verifying magic, version and the hash of
    the label and settings fingerprint.  A cache holding a non-finite
    value raises ScoreOverflow, as calibrate_null does."""
    raw = Path(path).read_bytes()
    head = struct.calcsize(_HEADER)
    if len(raw) < head:
        raise ValueError(f"{path}: calibration cache shorter than its {head}-byte header")
    magic, version, lhash, n, p, reps, seed = struct.unpack(_HEADER, raw[:head])
    if magic != _MAGIC or version != _VERSION:
        raise ValueError("not a calibration cache file")
    if lhash != _label_hash(statistic_label, fingerprint):
        raise ValueError("cache belongs to a different statistic")
    values = np.frombuffer(raw[head:], dtype="<f8")
    if values.size != reps:
        raise ValueError("cache truncated")
    return NullCalibration(
        statistic_label=statistic_label,
        n=n,
        p=p,
        reps=reps,
        seed=seed,
        sorted_null_values=np.array(values),
        fingerprint=fingerprint,
    )


def __getattr__(name: str):
    # lbi_exact and lbi_monte_carlo are no longer called here but stay
    # readable from this module: perfbench's tracer wraps them under these names
    if name in ("lbi_exact", "lbi_monte_carlo"):
        from . import univariate
        return getattr(univariate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
