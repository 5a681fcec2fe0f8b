"""Monte-Carlo null calibration, p-values, alternative samplers and power.

Replications are drawn in fixed-size blocks with substreams keyed by
(seed, block index), so a calibration is bit-reproducible and does not
depend on how blocks would be scheduled across workers.  Calibrations
can be cached to disk in a small versioned binary format.
"""

import functools
import hashlib
import math
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .core import block_substreams, power_sums
from .errors import UnsupportedShape
from .multivariate import stat_gl, stat_lt, whiten
from .scores import ScoreFunction
# lbi_exact and lbi_monte_carlo are no longer called here but stay importable
# from this module: perfbench's tracer wraps them under these names
from .univariate import (  # noqa: F401
    QuadratureConfig,
    closed_form_kernel,
    exact_kernel,
    lbi_exact,
    lbi_monte_carlo,
    mc_kernel,
    profile_likelihood_statistic,
)

__all__ = [
    "StatisticSpec",
    "NullCalibration",
    "AlternativeSpec",
    "make_statistic",
    "calibrate_null",
    "p_value",
    "sample_alternative",
    "power_curve",
    "save_calibration",
    "load_calibration",
    "cache_path",
]

BLOCK_SIZE = 10_000
_MAGIC = b"LBICAL1"
_VERSION = 1


@dataclass(frozen=True)
class StatisticSpec:
    """A named statistic with a batch evaluator.

    ``compute_batch`` maps a raw-sample batch -- shape (reps, n) for
    univariate data, (reps, n, p) for multivariate -- to a vector of
    statistic values.  Large values reject.
    """

    label: str
    p: int
    compute_batch: Callable[[np.ndarray], np.ndarray]

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
    low_reps: bool = False

    def critical_value(self, level: float) -> float:
        """Empirical upper quantile: large statistic values reject."""
        if not 0.0 < level < 1.0:
            raise ValueError("level must be in (0, 1)")
        return float(
            np.quantile(self.sorted_null_values, 1.0 - level, method="higher")
        )

    def critical_values(self, levels: Sequence[float] = (0.01, 0.05, 0.10)) -> dict:
        return {lvl: self.critical_value(lvl) for lvl in levels}


def _standardize_batch(x: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=1, keepdims=True)
    s = np.sqrt(((x - mean) ** 2).mean(axis=1, keepdims=True))
    return (x - mean) / s


def closed_form_weights(coeffs: np.ndarray, n: int) -> dict:
    """Weight per moment order of the explicit polynomial-score statistic."""
    kappa = closed_form_kernel(coeffs, n).kappa
    return {order: n * k for order, k in enumerate(kappa) if k != 0.0}


def _kernel_batch(build: Callable) -> Callable:
    """compute_batch of a kernel statistic, one ``build(n)`` kernel per n."""
    kernel_for = functools.cache(build)

    def compute(x):
        z = _standardize_batch(x)
        return kernel_for(z.shape[1])(z)

    return compute


def make_statistic(
    name: str,
    score: Optional[ScoreFunction] = None,
    group: str = "lt",
    n: Optional[int] = None,
    quad_cfg: Optional[QuadratureConfig] = None,
    mc_reps: int = 100_000,
    mc_seed: int = 0,
) -> StatisticSpec:
    """Build a StatisticSpec for one of the named tests.

    Univariate names: skew, kurt, lbi-exact, lbi-closed, lbi-approx,
    lbi-mc, profile (the last five need ``score``).  Multivariate: mvn
    with ``group`` in {gl, lt}.
    """
    if name in ("skew", "kurt"):
        k = 3 if name == "skew" else 4
        return StatisticSpec(name, 1, lambda x: power_sums(_standardize_batch(x), k)[:, k] / x.shape[1])
    if name == "mvn":
        if group not in ("gl", "lt"):
            raise ValueError("group must be 'gl' or 'lt'")
        fn = stat_gl if group == "gl" else stat_lt

        def compute_mvn(x, _fn=fn):
            return np.array([_fn(whiten(xi)) for xi in x])

        return StatisticSpec(f"mvn-{group}", -1, compute_mvn)
    if score is None:
        raise ValueError(f"statistic '{name}' needs a score")
    label = f"{name}({score.family_label})"
    if name == "lbi-approx":

        def compute_approx(x, _s=score):
            return np.asarray(_s(_standardize_batch(x))).sum(axis=1)

        return StatisticSpec(label, 1, compute_approx)
    if name == "profile":
        return StatisticSpec(label, 1, lambda x: profile_likelihood_statistic(_standardize_batch(x), score))
    kernels = {
        "lbi-closed": lambda n: closed_form_kernel(score.polynomial_coeffs, n),
        "lbi-exact": lambda n: exact_kernel(score, n, quad_cfg),
        "lbi-mc": lambda n: mc_kernel(score, n, mc_reps, mc_seed),
    }
    if name not in kernels:
        raise ValueError(f"unknown statistic '{name}'")
    if name == "lbi-closed" and score.polynomial_coeffs is None:
        raise ValueError("lbi-closed needs a polynomial score")
    return StatisticSpec(label, 1, _kernel_batch(kernels[name]))


def calibrate_null(
    statistic: StatisticSpec, n: int, reps: int, seed: int, p: int = 1
) -> NullCalibration:
    """Empirical null distribution from standard-normal replications.

    Deterministic for fixed (seed, statistic, n, p, reps); reps below
    1e4 are accepted but flagged.
    """
    if reps < 1000:
        raise ValueError("reps must be >= 1000")
    low = reps < 10_000
    if low:
        warnings.warn("fewer than 1e4 replications; critical values are coarse")
    if statistic.p > 0:
        p = statistic.p
    shape = (n,) if p == 1 else (n, p)
    values = np.concatenate([
        statistic.compute_batch(rng.standard_normal((m, *shape)))
        for rng, m in block_substreams((seed,), reps, BLOCK_SIZE)
    ])
    values.sort()
    return NullCalibration(
        statistic_label=statistic.label,
        n=n,
        p=p,
        reps=reps,
        seed=seed,
        sorted_null_values=values,
        low_reps=low,
    )


def p_value(cal: NullCalibration, observed: float) -> float:
    """One-sided add-one p-value (r+1)/(reps+1), r = #{null >= observed}."""
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
    sampler_seed: int = 0

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


def sample_alternative(spec: AlternativeSpec, n: int, rng=None, size=None) -> np.ndarray:
    """Draw i.i.d. observations from the named alternative family.

    Returns n draws, or an array of the given ``size`` (e.g. a
    (reps, n) batch).  shape = 0 returns exact draws from the null
    boundary (standard normal, or N(0,2) for the stable family).
    """
    rng = np.random.default_rng(spec.sampler_seed) if rng is None else rng
    size = n if size is None else size
    theta = spec.shape
    if theta < 0.0:
        raise UnsupportedShape("shape must be >= 0")
    fam = spec.family
    if fam == "student-t":
        if theta == 0.0:
            return rng.standard_normal(size)
        return rng.standard_t(1.0 / theta, size=size)
    if fam == "gamma-centered":
        if theta == 0.0:
            return rng.standard_normal(size)
        m = 1.0 / theta
        return (rng.gamma(m, 1.0, size=size) - m) / math.sqrt(m)
    if fam == "laplace":
        if theta == 0.0:
            return rng.standard_normal(size)
        m = 1.0 / theta
        return (rng.gamma(m, 1.0, size=size) - rng.gamma(m, 1.0, size=size)) / math.sqrt(2.0 * m)
    if fam == "stable":
        alpha = 2.0 - theta
        if not 0.0 < alpha <= 2.0 or alpha == 1.0:
            raise UnsupportedShape(f"alpha = {alpha} outside the validated range")
        if abs(spec.beta) > 1.0:
            raise UnsupportedShape("|beta| must be <= 1")
        return _sample_stable_m(alpha, spec.beta, size, rng)
    if fam == "gh-variance-mean":
        if theta == 0.0:
            return rng.standard_normal(size)
        if not -20.0 <= spec.lam <= 20.0:
            raise UnsupportedShape("mixing index lam outside [-20, 20]")
        b = 1.0 / theta  # delta*gamma of the symmetric mixing law
        if not 0.0 < b <= 1e3:
            raise UnsupportedShape("shape outside the validated mixing envelope")
        from scipy.stats import geninvgauss  # deferred: costs ~0.1 s of CLI start-up

        y = geninvgauss.rvs(spec.lam, b, size=size, random_state=rng)
        return -spec.beta + spec.beta * y + np.sqrt(y) * rng.standard_normal(size)
    raise UnsupportedShape(f"unknown family '{fam}'")


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
    lam: float = 1.0,
) -> list:
    """Empirical rejection frequency over a grid of shape parameters.

    Returns one dict per grid point: shape, power and its binomial
    standard error.  Draws use the same block-substream contract as
    ``calibrate_null``.
    """
    if calibration.n != n or calibration.statistic_label != statistic.label:
        raise ValueError("calibration does not match the requested statistic")
    crit = calibration.critical_value(level)
    out = []
    for gi, shape in enumerate(shapes):
        spec = AlternativeSpec(family=family, shape=shape, beta=beta, lam=lam)
        rejected = sum(
            int(np.sum(statistic.compute_batch(sample_alternative(spec, n, rng, size=(m, n))) > crit))
            for rng, m in block_substreams((seed, gi), reps, BLOCK_SIZE)
        )
        pw = rejected / reps
        out.append(
            {
                "shape": shape,
                "power": pw,
                "se": math.sqrt(max(pw * (1.0 - pw), 1.0 / reps) / reps),
            }
        )
    return out


def _label_hash(label: str) -> bytes:
    return hashlib.sha256(label.encode("utf-8")).digest()[:16]


def cache_path(directory, statistic_label: str, n: int, p: int, reps: int, seed: int) -> Path:
    h = _label_hash(statistic_label).hex()
    return Path(directory) / f"{h}_n{n}_p{p}_r{reps}_s{seed}.lbical"


def save_calibration(cal: NullCalibration, path) -> Path:
    """Write a calibration cache: LBICAL1 header then float64-LE values."""
    path = Path(path)
    header = struct.pack(
        "<7sB16sIIQQ",
        _MAGIC,
        _VERSION,
        _label_hash(cal.statistic_label),
        cal.n,
        max(cal.p, 0),
        cal.reps,
        cal.seed,
    )
    payload = np.ascontiguousarray(cal.sorted_null_values, dtype="<f8").tobytes()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(header + payload)
    return path


def load_calibration(path, statistic_label: str) -> NullCalibration:
    """Read a calibration cache, verifying magic, version and label hash."""
    raw = Path(path).read_bytes()
    head = struct.calcsize("<7sB16sIIQQ")
    magic, version, lhash, n, p, reps, seed = struct.unpack("<7sB16sIIQQ", raw[:head])
    if magic != _MAGIC or version != _VERSION:
        raise ValueError("not a calibration cache file")
    if lhash != _label_hash(statistic_label):
        raise ValueError("cache belongs to a different statistic")
    values = np.frombuffer(raw[head:], dtype="<f8")
    if values.size != reps:
        raise ValueError("cache truncated")
    return NullCalibration(
        statistic_label=statistic_label,
        n=n,
        p=p if p > 0 else -1,
        reps=reps,
        seed=seed,
        sorted_null_values=np.array(values),
    )
