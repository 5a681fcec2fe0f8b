"""Monte-Carlo null calibration, p-values and the alternative families.

Replications are drawn by ``core.replications``, in fixed-size blocks with
substreams keyed by (seed, block index), so a calibration is
bit-reproducible and does not depend on how blocks would be scheduled
across workers.  Calibrations can be cached to disk in a small versioned
binary format.

The samplers and ``power_curve`` live in ``alternatives``, and ``whiten``,
``stat_gl`` and ``stat_lt`` in ``multivariate``.  This module forwards
those names (PEP 562), so a process loads the samplers only to run
``power`` and the multivariate layer only for ``mvn``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import math
import os
import struct
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .core import CHUNK, power_sums, replications, row_blocks, standardize
from .errors import IncompatibleSelection, ScoreOverflow

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
            # whiten is read from this module at each call, as a tracer may replace it
            out[rows] = residual_fn(sys.modules[__name__].whiten(x[rows]) if multivariate
                                    else standardize(x[rows]))
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
        stat = getattr(sys.modules[__name__], f"stat_{group}")
        return StatisticSpec(f"mvn-{group}", -1, _of_residuals(stat, multivariate=True),
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


# Names read from this module but defined in another, which loads on the first
# read.  lbi_exact and lbi_monte_carlo are no longer called here: perfbench's
# tracer wraps them, and the sampler and multivariate names, under these names.
_FORWARDED = {
    **dict.fromkeys(("lbi_exact", "lbi_monte_carlo"), "univariate"),
    **dict.fromkeys(("whiten", "stat_gl", "stat_lt"), "multivariate"),
    **dict.fromkeys(("_sample_stable_m", "_gig_log_quasi_pdf", "_sample_gig",
                     "check_alternative", "sample_alternative", "power_curve"), "alternatives"),
}


def __getattr__(name: str):
    module = _FORWARDED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __package__), name)
