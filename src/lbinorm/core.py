"""Sample standardization, standardized moments, Hermite polynomials and
the closed-form Gaussian constants used throughout the package.

All functions are pure and accept scalars or numpy arrays where sensible.
"""

import math

import numpy as np

from .errors import DegenerateSample

__all__ = [
    "standardize",
    "standardized_moment",
    "power_sums",
    "block_substreams",
    "hermite",
    "hermite_coefficients",
    "coefficient_c",
    "null_denominator_constant",
]


def standardize(values) -> np.ndarray:
    """Map a sample to its standardized residuals z_i = (x_i - mean)/s.

    The scale s uses the divisor n (not n-1) so that sum(z) = 0 and
    sum(z**2) = n hold exactly.  The result is invariant under affine
    maps x -> a + b*x with b > 0.

    Raises
    ------
    DegenerateSample
        If all observations are equal (zero variance).
    ValueError
        If n < 3 or any value is non-finite.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ValueError("expected a 1-D sample")
    n = x.size
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite values")
    xbar = x.mean()
    s2 = np.mean((x - xbar) ** 2)
    if s2 <= 0.0:
        raise DegenerateSample("zero sample variance: all values equal")
    return (x - xbar) / math.sqrt(s2)


def standardized_moment(z, l: int) -> float:
    """l-th standardized sample moment (1/n) * sum(z_i**l).

    For residuals produced by ``standardize`` this is 0 for l=1 and
    1 for l=2 by construction.
    """
    if l < 1:
        raise ValueError("moment order must be >= 1")
    z = np.asarray(z, dtype=float)
    return float(power_sums(z, l)[l]) / z.size


def power_sums(z, degree: int) -> np.ndarray:
    """Power sums sum_i z_i**s over the last axis, for s = 0, ..., degree.

    Built by repeated multiplication: numpy's ``z**k`` has no fast path
    above k = 2 and is about 40 times slower.  The result has shape
    ``z.shape[:-1] + (degree + 1,)``.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty(z.shape[:-1] + (degree + 1,))
    out[..., 0] = z.shape[-1]
    zs = z
    for s in range(1, degree + 1):
        out[..., s] = zs.sum(axis=-1)
        if s < degree:
            zs = zs * z
    return out


def block_substreams(key, reps: int, block_size: int):
    """Generators for ``reps`` replications drawn in blocks of ``block_size``.

    Yields ``(rng, m)`` per block, where block i draws its m replications
    from ``default_rng([*key, i])``.  Keyed substreams make the draws
    reproducible and independent of how blocks would be scheduled.
    """
    for i, start in enumerate(range(0, reps, block_size)):
        yield np.random.default_rng([*key, i]), min(block_size, reps - start)


def hermite(k: int, x):
    """Probabilists' Hermite polynomial He_k(x) by the three-term recurrence.

    He_0 = 1, He_1 = x, He_{k+1}(x) = x*He_k(x) - k*He_{k-1}(x).
    Accepts scalar or array ``x``.
    """
    if k < 0:
        raise ValueError("order must be nonnegative")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if k == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = x.copy()
    for j in range(1, k):
        h, h_prev = x * h - j * h_prev, h
    return h if h.ndim else float(h)


def hermite_coefficients(k: int) -> np.ndarray:
    """Coefficients of He_k, highest degree first (numpy polyval order)."""
    if k < 0:
        raise ValueError("order must be nonnegative")
    c_prev = np.array([1.0])
    if k == 0:
        return c_prev
    c = np.array([1.0, 0.0])
    for j in range(1, k):
        # He_{j+1} = x*He_j - j*He_{j-1}
        nxt = np.zeros(j + 2)
        nxt[:-1] += c
        nxt[-len(c_prev):] -= j * c_prev
        c, c_prev = nxt, c
    return c


def coefficient_c(l: int, n: int) -> float:
    """The half-line Gaussian moment c_l = int_0^inf x^l exp(-n x^2/2) dx.

    Closed form: 2**((l-1)/2) * Gamma((l+1)/2) / n**((l+1)/2).
    """
    if l < 0:
        raise ValueError("l must be nonnegative")
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2.0 ** ((l - 1) / 2.0) * math.gamma((l + 1) / 2.0) / n ** ((l + 1) / 2.0)


def null_denominator_constant(n: int) -> float:
    """Normal-null mass of the location/scale integral.

    Equals Gamma((n-1)/2) / (2 * n**(n/2) * pi**((n-1)/2)); the value of
    the 2-D integral of prod_i phi(a + b z_i) * b**(n-2) over a in R,
    b > 0 for any standardized z.  Used as a quadrature oracle.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    return math.gamma((n - 1) / 2.0) / (2.0 * n ** (n / 2.0) * math.pi ** ((n - 1) / 2.0))
