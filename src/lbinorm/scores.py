"""Catalog of score functions at the normal boundary.

Each constructor returns a :class:`ScoreFunction`, an immutable value
holding a vectorized evaluator plus polynomial coefficients whenever the
score is a polynomial.  ``orthogonalize`` removes the location/scale
ambiguity by projecting out the span of {1, x, x^2} under the standard
normal weight.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .core import hermite_coefficients
from .errors import BothCumulantsZero, InvalidDensity, NotSquareIntegrable

__all__ = [
    "ScoreFunction",
    "score_hermite",
    "score_gh_limit",
    "score_infinitely_divisible",
    "score_edgeworth_combined",
    "score_contamination",
    "orthogonalize",
    "builtin_contaminations",
]

TAIL_POLYNOMIAL = "polynomial"
TAIL_SUBGAUSSIAN_DOMINATING = "subgaussian-dominating"

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class ScoreFunction:
    """An evaluable score l(x) at the normal boundary.

    ``polynomial_coeffs`` are in numpy polyval order (highest degree
    first); when present, ``evaluate`` is exactly the polynomial.
    ``fingerprint`` is the canonical text of the settings the score was
    built under (empty if none); it is part of every cache key of a
    calibration that uses the score.  ``log_bound``, where present, is a
    rigorous bound on log |l(y)| at every finite y, smallest at y = 0 (the
    stable envelope grows like y^2/4); a kernel drops the nodes it proves
    negligible (see ``univariate.LbiKernel``).  Scores without it are
    summed over every node.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    family_label: str
    polynomial_coeffs: Optional[tuple] = None
    tail_class: str = TAIL_POLYNOMIAL
    derivative: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, compare=False
    )
    fingerprint: str = ""
    log_bound: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, compare=False
    )

    def __call__(self, x):
        return self.evaluate(np.asarray(x, dtype=float))


def _poly_score(coeffs, label, tail=TAIL_POLYNOMIAL) -> ScoreFunction:
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    dc = np.polyder(c) if c.size > 1 else np.array([0.0])
    return ScoreFunction(
        evaluate=lambda x, _c=c: np.polyval(_c, x),
        family_label=label,
        polynomial_coeffs=tuple(c.tolist()),
        tail_class=tail,
        derivative=lambda x, _d=dc: np.polyval(_d, x),
    )


def score_hermite(k: int) -> ScoreFunction:
    """Score equal to the k-th probabilists' Hermite polynomial, 3 <= k <= 8."""
    if not 3 <= k <= 8:
        raise ValueError("k must be in {3, ..., 8}")
    return _poly_score(hermite_coefficients(k), f"hermite:{k}")


def score_gh_limit(beta: float) -> ScoreFunction:
    """Leading score direction of the variance-mean mixture limit.

    The raw direction is (beta/2) x^3 + (1/8) x^4; orthogonalization
    against {1, x, x^2} turns it into (beta/2) He_3 + (1/8) He_4.
    """
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    coeffs = 0.125 * hermite_coefficients(4)
    coeffs[1:] += 0.5 * beta * hermite_coefficients(3)
    return _poly_score(coeffs, f"gh:beta={beta:g}")


def score_infinitely_divisible(kappa3: float, kappa4: float) -> ScoreFunction:
    """Leading Hermite direction for an infinitely divisible alternative.

    If kappa3 != 0 the direction is (kappa3/6) He_3; otherwise
    (kappa4/24) He_4.  The blend of both is available separately via
    ``score_edgeworth_combined`` but is not the canonical leading term.
    """
    if kappa3 == 0.0 and kappa4 == 0.0:
        raise BothCumulantsZero("kappa3 and kappa4 both zero")
    if kappa3 != 0.0:
        coeffs = (kappa3 / 6.0) * hermite_coefficients(3)
        return _poly_score(coeffs, f"id:kappa3={kappa3:g}")
    coeffs = (kappa4 / 24.0) * hermite_coefficients(4)
    return _poly_score(coeffs, f"id:kappa4={kappa4:g}")


def score_edgeworth_combined(kappa3: float, kappa4: float) -> ScoreFunction:
    """Non-canonical blend (kappa3/6) He_3 + (kappa4/24) He_4.

    Provided for experimentation; the leading-order direction used by the
    canonical constructor keeps only one term.
    """
    if kappa3 == 0.0 and kappa4 == 0.0:
        raise BothCumulantsZero("kappa3 and kappa4 both zero")
    coeffs = np.zeros(5)
    coeffs += (kappa4 / 24.0) * hermite_coefficients(4)
    coeffs[1:] += (kappa3 / 6.0) * hermite_coefficients(3)
    return _poly_score(coeffs, f"edgeworth:kappa3={kappa3:g},kappa4={kappa4:g}")


def _normal_pdf(x, mean=0.0, var=1.0):
    return np.exp(-((x - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def builtin_contaminations() -> dict:
    """Named contamination densities accepted by the CLI."""
    return {
        "normal-scale-2": lambda x: _normal_pdf(x, 0.0, 2.0),
        "normal-shift-1": lambda x: _normal_pdf(x, 1.0, 1.0),
        "laplace-unit": lambda x: np.exp(-math.sqrt(2.0) * np.abs(x)) / math.sqrt(2.0),
    }


def score_contamination(g: Callable, label: str = "contam", tail_class: str = TAIL_POLYNOMIAL) -> ScoreFunction:
    """Score g(x)/phi(x) - 1 of an epsilon-contamination alternative.

    ``g`` must be a vectorized probability density; it is checked to be
    nonnegative on a grid and to integrate to 1 within 1e-6.
    """
    from scipy.integrate import quad  # deferred: keeps scipy out of CLI start-up

    mass, _ = quad(lambda x: float(g(x)), -np.inf, np.inf, limit=200)
    if abs(mass - 1.0) > 1e-6:
        raise InvalidDensity(f"density integrates to {mass:.8f}, not 1")
    grid = np.linspace(-30.0, 30.0, 601)
    if np.any(np.asarray(g(grid)) < -1e-12):
        raise InvalidDensity("density takes negative values")

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return np.asarray(g(x)) / _normal_pdf(x) - 1.0

    return ScoreFunction(evaluate=evaluate, family_label=label, tail_class=tail_class)


def _gauss_hermite_moments(fn, nodes: int):
    """E[fn(X)], E[fn(X) X], E[fn(X) (X^2-1)] for X ~ N(0,1) by quadrature."""
    x, w = hermegauss(nodes)
    w = w / _SQRT_2PI
    v = np.asarray(fn(x), dtype=float)
    return np.array([np.sum(w * v), np.sum(w * v * x), np.sum(w * v * (x * x - 1.0))])


def orthogonalize(score: ScoreFunction, nodes: int = 64) -> ScoreFunction:
    """Remove the L2(phi) projection of a score onto span{1, x, x^2}.

    The result satisfies int s(x) x^k phi(x) dx = 0 for k = 0, 1, 2, which
    fixes the parametrization freedom of the alternative family.  The
    induced exact LBI statistic changes only by an affine map with
    positive slope, so test decisions are unaffected.

    Raises
    ------
    NotSquareIntegrable
        For scores whose tails dominate the Gaussian weight (the stable
        score), or when the quadrature projection does not stabilize.
    """
    if score.tail_class == TAIL_SUBGAUSSIAN_DOMINATING:
        raise NotSquareIntegrable(
            "score is not square integrable under the Gaussian weight"
        )
    m = _gauss_hermite_moments(score.evaluate, nodes)
    m_check = _gauss_hermite_moments(score.evaluate, 2 * nodes)
    if not np.all(np.isfinite(m_check)) or np.max(np.abs(m - m_check)) > 1e-6 * (
        1.0 + np.max(np.abs(m_check))
    ):
        raise NotSquareIntegrable("Gauss-Hermite projection did not converge")
    c0, c1, c2 = m_check
    # c2 multiplies He_2 = x^2 - 1 with E[He_2^2] = 2
    c2 = c2 / 2.0
    if score.polynomial_coeffs is not None:
        coeffs = np.array(score.polynomial_coeffs, dtype=float)
        proj = np.zeros(3)  # c2 x^2 + c1 x + (c0 - c2)
        proj[0] = c2
        proj[1] = c1
        proj[2] = c0 - c2
        k = max(coeffs.size, 3)
        out = np.zeros(k)
        out[-coeffs.size:] = coeffs
        out[-3:] -= proj
        return _poly_score(out, score.family_label + "|orth")

    def evaluate(x, _f=score.evaluate, _c=(c0, c1, c2)):
        x = np.asarray(x, dtype=float)
        return np.asarray(_f(x)) - (_c[0] + _c[1] * x + _c[2] * (x * x - 1.0))

    return ScoreFunction(
        evaluate=evaluate,
        family_label=score.family_label + "|orth",
        tail_class=score.tail_class,
    )
