"""Sample standardization, standardized moments, the Monte-Carlo
replication contract, Hermite polynomials, the uniform-grid cubic spline
and the closed-form Gaussian constants used throughout the package.

All functions are pure and accept scalars or numpy arrays where sensible.
"""

import math
import sys

import numpy as np

from .errors import DegenerateSample, ScoreOverflow

__all__ = [
    "BLOCK_SIZE",
    "CHUNK",
    "BLOCK",
    "standardize",
    "standardized_moment",
    "power_sums",
    "block_substreams",
    "row_chunks",
    "row_blocks",
    "replications",
    "central_difference",
    "not_a_knot_coefficients",
    "uniform_cubic",
    "hermite",
    "hermite_coefficients",
    "coefficient_c",
    "null_denominator_constant",
]


def standardize(values) -> np.ndarray:
    """Map a sample to its standardized residuals z_i = (x_i - mean)/s.

    Works over the last axis: one sample of n values, or a stack (..., n)
    of them, each standardized on its own.  The scale s uses the divisor n
    (not n-1) so that sum(z) = 0 and sum(z**2) = n hold exactly.  The
    result is invariant under affine maps x -> a + b*x with b > 0.

    Raises
    ------
    DegenerateSample
        If all observations of a sample are equal (zero variance), also
        where an inexact mean leaves residuals of rounding size only:
        s^2 <= (n * 2**-53 * mean)^2.
    ValueError
        If n < 3 or any value is non-finite.
    """
    x = np.asarray(values, dtype=float)
    n = x.shape[-1] if x.ndim else 0
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")
    if not np.isfinite(x).all():
        raise ValueError("sample contains non-finite values")
    mean = x.mean(axis=-1, keepdims=True)
    d = x - mean
    s2 = (d * d).mean(axis=-1, keepdims=True)
    if not (s2 > (n * 2.0**-53 * mean) ** 2).all():
        raise DegenerateSample("zero sample variance: all values equal")
    d /= np.sqrt(s2)
    return d


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


# Replications per substream block of every Monte-Carlo draw.
BLOCK_SIZE = 10_000


def block_substreams(key, reps: int, block_size: int):
    """Generators for ``reps`` replications drawn in blocks of ``block_size``.

    Yields ``(rng, m)`` per block, where block i draws its m replications
    from ``default_rng([*key, i])``.  Keyed substreams make the draws
    reproducible and independent of how blocks would be scheduled.
    """
    for i, start in enumerate(range(0, reps, block_size)):
        yield np.random.default_rng([*key, i]), min(block_size, reps - start)


# At most this many values per array that a calibration or power run draws
# and evaluates at once (one row at the least), so every temporary of the
# samplers and statistics stays small however large n and reps are.  It
# fixes which values each chunk takes from its block's stream.
CHUNK = 2**15
# At most this many values per temporary of a kernel or score loop (one row
# at the least; ``row_blocks``), read at each call.  No value computed point
# by point depends on it; a sum over blocks of nodes moves in its last bits.
BLOCK = 2**14


def row_chunks(rows: int, row_values: int, limit: int | None = None) -> list:
    """Row counts of the fewest chunks of at most ``limit`` values (``CHUNK``
    by default; one row at the least) that ``rows`` rows of ``row_values``
    values split into, as equal as can be.

    Equal chunks keep every chunk of a split block above ~CHUNK/2 values,
    so none falls to a kernel's direct-sum path for small calls
    (``univariate.TABLE_POINTS``), whose values differ in the last bits.
    """
    per = max(1, (limit or CHUNK) // max(1, row_values))
    k = -(-rows // per)
    return [rows // k + (i < rows % k) for i in range(k)]


def row_blocks(rows: int, row_values: int, limit: int | None = None):
    """Slices, in order, of the ``row_chunks`` of at most ``limit`` values
    that ``rows`` rows split into; ``limit`` is ``BLOCK`` (read at each call)
    by default.  The one loop by which every kernel and score bounds its
    temporaries."""
    lo = 0
    for m in row_chunks(rows, row_values, limit or BLOCK):
        yield slice(lo, lo + m)
        lo += m


def replications(key, reps: int, row_shape: tuple, draw):
    """The draws of ``reps`` Monte-Carlo replications of shape ``row_shape``.

    Yields ``draw(rng, (rows, *row_shape))`` for every chunk, in order:
    block i of ``BLOCK_SIZE`` replications is drawn from
    ``default_rng([*key, i])`` (``block_substreams``) in its ``row_chunks``,
    one ``draw`` call each.  A numpy generator fills an array element by
    element, so a draw that takes one array from the stream gives the
    values of a whole-block draw.
    """
    row_values = math.prod(row_shape)
    for rng, m in block_substreams(key, reps, BLOCK_SIZE):
        for rows in row_chunks(m, row_values):
            yield draw(rng, (rows, *row_shape))


# Step of every central difference (``central_difference``).
FD_STEP = 1e-6


def central_difference(f, x) -> np.ndarray:
    """(f(x + h) - f(x - h)) / 2h with h = ``FD_STEP``, for an elementwise f,
    from one call of f on both point sets stacked along a new first axis."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(f(np.stack([x + FD_STEP, x - FD_STEP])))
    # inf - inf where f overflows: a non-finite result, refused where it is used
    with np.errstate(invalid="ignore", over="ignore"):
        return (v[0] - v[1]) / (2.0 * FD_STEP)


def not_a_knot_coefficients(y: np.ndarray, step: float) -> np.ndarray:
    """Not-a-knot cubic spline through y on a uniform grid.

    Returns the cubic, quadratic, linear and constant coefficient of each
    cell as the rows of a (4, len(y) - 1) array.  The knot slopes solve one
    tridiagonal system (interior rows 1 4 1, end rows 1 2 and 2 1), here by
    one forward and one back sweep in O(len(y)).
    """
    secant = np.diff(y) / step
    rhs = np.empty(y.size)
    rhs[0] = 0.5 * (5.0 * secant[0] + secant[1])
    rhs[1:-1] = 3.0 * (secant[:-1] + secant[1:])
    rhs[-1] = 0.5 * (secant[-2] + 5.0 * secant[-1])
    rhs = rhs.tolist()
    last = len(rhs) - 1
    # forward sweep: row i becomes s_i + upper[i] s_(i+1) = rhs[i]
    upper = [2.0] * last
    for i in range(1, last):
        piv = 4.0 - upper[i - 1]
        upper[i] = 1.0 / piv
        rhs[i] = (rhs[i] - rhs[i - 1]) / piv
    slopes = [0.0] * (last + 1)
    slopes[last] = (rhs[last] - 2.0 * rhs[last - 1]) / (1.0 - 2.0 * upper[last - 1])
    for i in range(last - 1, -1, -1):
        slopes[i] = rhs[i] - upper[i] * slopes[i + 1]
    s = np.asarray(slopes)
    bend = (s[:-1] + s[1:] - 2.0 * secant) / step
    return np.stack([bend / step, (secant - s[:-1]) / step - bend, s[:-1], y[:-1]])


def uniform_cubic(rows, half: float, step: float, x, beyond) -> np.ndarray:
    """A piecewise cubic on the uniform cells of [-half, half], at every point of x.

    ``rows`` hold one coefficient per cell, highest degree first: the four
    rows of ``not_a_knot_coefficients`` give the spline, the rows
    (3 c3, 2 c2, c1) its slope.  A point is evaluated by Horner in the
    cell found by division (no search), over ``row_blocks`` of at most
    ``BLOCK`` points; the points with |x| > half all go to one
    ``beyond(points)`` call.  Every value is computed on its own, so none
    depends on the block size.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty_like(flat)
    cells = rows[0].size
    outside = []
    for block in row_blocks(flat.size, 1):
        xc = flat[block]
        inside = np.abs(xc) <= half
        xs = np.where(inside, xc, 0.0)
        cell = ((xs + half) / step).astype(np.intp)
        np.clip(cell, 0, cells - 1, out=cell)
        dx = xs - (step * cell - half)
        val = rows[0].take(cell)
        for c in rows[1:]:
            val *= dx
            val += c.take(cell)
        out[block] = val
        if not inside.all():
            outside.append(block.start + np.flatnonzero(~inside))
    if outside:
        idx = np.concatenate(outside)
        out[idx] = beyond(flat[idx])
    return out.reshape(x.shape)


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
    from numpy.polynomial.hermite_e import herme2poly

    if k < 0:
        raise ValueError("order must be nonnegative")
    return herme2poly([0.0] * k + [1.0])[::-1]


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
    b > 0 for any standardized z.  Used as a quadrature oracle.  Built
    from logarithms; a value below the normal float range (from n = 496
    on) raises ScoreOverflow, never returning 0.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    log_value = (
        math.lgamma((n - 1) / 2.0)
        - math.log(2.0)
        - 0.5 * n * math.log(n)
        - 0.5 * (n - 1) * math.log(math.pi)
    )
    value = math.exp(log_value)
    if value < sys.float_info.min:
        raise ScoreOverflow(f"null denominator constant at n = {n} is below the normal float range")
    return value
