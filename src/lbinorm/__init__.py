"""Locally best invariant tests of normality.

Univariate and multivariate fourth-moment-type statistics with exact
quadrature, closed polynomial forms, Laplace and Monte-Carlo variants,
a stable-family score by Fourier inversion, and deterministic
Monte-Carlo calibration of critical values and power.

The public names below load their module on first access (PEP 562), so
``import lbinorm.cli`` -- and ``python -m lbinorm.cli``, which runs this
file first -- pays only for the modules its command uses.
"""

import importlib

_EXPORTS = {
    "alternatives": ("power_curve", "sample_alternative"),
    "calibration": (
        "AlternativeSpec",
        "NullCalibration",
        "StatisticSpec",
        "calibrate_null",
        "make_statistic",
        "p_value",
    ),
    "core": (
        "coefficient_c",
        "hermite",
        "null_denominator_constant",
        "standardize",
        "standardized_moment",
    ),
    "multivariate": ("moment_R", "moment_S", "stat_gl", "stat_lt", "whiten", "wishart_moment_check"),
    "scores": (
        "ScoreFunction",
        "orthogonalize",
        "score_contamination",
        "score_gh_limit",
        "score_hermite",
        "score_infinitely_divisible",
    ),
    "stable": ("InversionConfig", "dcf_dalpha_at_2", "score_stable", "stable_cf",
               "stable_density_derivative"),
    "univariate": (
        "LbiStatistic",
        "QuadratureConfig",
        "kurtosis",
        "lbi_closed_form",
        "lbi_exact",
        "lbi_laplace",
        "lbi_monte_carlo",
        "profile_likelihood_statistic",
        "skewness",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
