"""Stable-family score at the normal boundary alpha = 2.

The characteristic function uses Zolotarev's continuous-in-alpha
parametrization, whose alpha = 2 boundary is N(0, 2).  The score is the
Fourier inversion of the alpha-derivative of the characteristic
function, divided by the N(0, 2) density (log-derivative convention for
the shape parameter theta = 2 - alpha; the leading minus sign of the
theta-derivative is carried here once).

For beta = 0 the inversion reduces to two real half-line integrals

    d(x) = (1/pi) int_0^inf cos(tx) t^2 log(t) exp(-t^2) dt
         + (beta/2) int_0^inf sin(tx) (t - t^2) exp(-t^2) dt,

evaluated by composite Gauss-Legendre panels: geometric refinement
toward t = 0 (integrable log singularity of the derivative) and
per-period splitting of the oscillatory factor for large |x|.

The score is tabulated on a uniform grid when it is built.  There the
points of one panel size form an arithmetic progression, and the node
sums are taken by angle addition as matrix products (``_progression_values``):
cosines and sines of ~2 sqrt(k) phase rows for k points instead of k, which
takes a third to a fifth of the time of per-point sums.  Every
other evaluation sums each point on its own.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import central_difference, not_a_knot_coefficients, row_blocks, uniform_cubic
from .errors import AlphaOne, InversionUnconverged
from .scores import TAIL_SUBGAUSSIAN_DOMINATING, ScoreFunction, _normal_pdf

__all__ = [
    "InversionConfig",
    "stable_cf",
    "dcf_dalpha_at_2",
    "stable_density_derivative",
    "score_stable",
    "normal_var2_pdf",
]


@dataclass(frozen=True)
class InversionConfig:
    """Tuning knobs for the Fourier inversion of the stable score."""

    t_max: float = 10.0
    nodes: int = 512
    oscillation_splits: int = 4
    grid_step: float = 0.01
    grid_halfwidth: float = 12.0

    def __post_init__(self):
        if self.t_max < 8.0:
            raise ValueError("t_max must be >= 8")
        if self.nodes < 512 or self.nodes % 512:
            raise ValueError("nodes must be a positive multiple of 512")
        if self.oscillation_splits < 2:
            raise ValueError("oscillation_splits must be >= 2")
        if round(2.0 * self.grid_halfwidth / self.grid_step) < 3:
            raise ValueError("the score grid needs at least 4 points")


def stable_cf(t, alpha: float, beta: float):
    """Stable characteristic function in the continuous parametrization.

    exp(-|t|^alpha * {1 + i*beta*sgn(t)*tan(pi*alpha/2)*(|t|^(1-alpha)-1)}).
    At alpha = 2 this is exp(-t^2) for every beta.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must be in (0, 2]")
    if alpha == 1.0:
        raise AlphaOne("alpha = 1 is excluded by this parametrization formula")
    if not abs(beta) <= 1.0:
        raise ValueError("|beta| must be <= 1")
    t = np.asarray(t, dtype=float)
    at = np.abs(t)
    tan_term = math.tan(math.pi * alpha / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        skew = np.where(
            at > 0.0, np.sign(t) * tan_term * (at ** (1.0 - alpha) - 1.0), 0.0
        )
    out = np.exp(-(at**alpha) * (1.0 + 1j * beta * skew))
    out = np.where(at > 0.0, out, 1.0 + 0.0j)
    return out if out.ndim else complex(out)


def dcf_dalpha_at_2(t, beta: float):
    """Analytic d/dalpha of the stable characteristic function at alpha = 2.

    Equals exp(-t^2) * (-t^2 log|t| - i*beta*(pi/2)*sgn(t)*(|t| - t^2));
    tan(pi*alpha/2) vanishes at alpha = 2 while its alpha-derivative is
    pi/2, which is the only way beta enters.  Defined as 0 at t = 0.
    """
    if not abs(beta) <= 1.0:
        raise ValueError("|beta| must be <= 1")
    t = np.asarray(t, dtype=float)
    at = np.abs(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        real = np.where(at > 0.0, -(t * t) * np.log(at), 0.0)
    imag = -beta * (math.pi / 2.0) * np.sign(t) * (at - t * t)
    out = np.exp(-(t * t)) * (real + 1j * imag)
    out = np.where(at > 0.0, out, 0.0 + 0.0j)
    return out if out.ndim else complex(out)


def _panel_edges(max_abs_x: float, cfg: InversionConfig, nodes: int) -> np.ndarray:
    """Panel edges on [0, t_max]: geometric near 0, capped width elsewhere.

    ``nodes``, a multiple of 512, splits each panel of the 512-node rule in
    nodes/512, so doubling the node budget halves every panel.
    """
    refine = nodes // 512
    edges = [0.0]
    e = 2.0**-16
    while e < 1.0 - 1e-15:
        step = e / refine
        for j in range(1, refine + 1):
            edges.append(e + j * step)
        e *= 2.0
    width = 0.5 / refine
    if max_abs_x > 4.0:
        width = min(width, (2.0 * math.pi / max_abs_x) / (cfg.oscillation_splits * refine))
    t = 1.0
    while t < cfg.t_max - 1e-12:
        t = min(t + width, cfg.t_max)
        edges.append(t)
    return _unique(np.asarray(edges))[0]


def _unique(values: np.ndarray):
    """The sorted distinct values of a finite 1-D array and the index of each
    value among them, as ``np.unique(values, return_inverse=True)`` gives,
    from one sort.  (numpy's own ``unique`` imports ``numpy.ma`` on first
    use, ~14 ms that only a stable score's process would pay.)"""
    order = np.argsort(values)
    ordered = values[order]
    new = np.empty(ordered.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    inverse = np.empty(values.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


@functools.lru_cache(maxsize=8)
def _score_grid(cfg: InversionConfig):
    """The score's tabulation grid, uniform and exactly symmetric about 0, and
    its step.  Built once per cfg; the grid is read-only, and the inversion
    recognizes it by identity (see ``_inversion_values``)."""
    half = cfg.grid_halfwidth
    npts = int(round(2.0 * half / cfg.grid_step)) + 1
    step = 2.0 * half / (npts - 1)
    grid = step * (np.arange(npts) - 0.5 * (npts - 1))
    grid.setflags(write=False)
    return grid, step


@functools.cache
def _gauss_legendre16():
    """The 16-point Gauss-Legendre rule on [-1, 1] that every panel maps;
    built on first use, as its eigenvalue solve costs a process ~1 MiB."""
    rule = leggauss(16)
    for arr in rule:
        arr.setflags(write=False)
    return rule


# Score evaluations size panels for ceil(|x|), and standardized residuals
# have |x| <= sqrt(n - 1), so up to n = 1e4 a process needs ~120 rules.
@functools.lru_cache(maxsize=128)
def _panel_rule(max_abs_x: float, cfg: InversionConfig, nodes: int):
    """Frequency nodes and the cosine and sine weights of the panels sized
    for ``max_abs_x``.  Cached per (max_abs_x, cfg, nodes); the returned
    arrays are read-only."""
    edges = _panel_edges(max_abs_x, cfg, nodes)
    u, w = _gauss_legendre16()
    # all panel nodes as one flat array
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    tt = (mid[:, None] + half[:, None] * u[None, :]).ravel()
    ww = (half[:, None] * w[None, :]).ravel()
    with np.errstate(divide="ignore"):
        logt = np.where(tt > 0.0, np.log(tt), 0.0)
    damp = np.exp(-(tt * tt))
    rule = (tt, ww * (tt * tt * logt * damp), ww * ((tt - tt * tt) * damp))
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _inversion_values(x: np.ndarray, beta: float, cfg: InversionConfig, nodes: int) -> np.ndarray:
    """Evaluate the inversion integral at every point of x, in the shape of x,
    with the given node budget.

    The cosine integral is even in x and the sine integral odd, so both
    are evaluated once per distinct |x| and combined as C(|x|) + sgn(x) S(|x|).
    The panels of a point are sized for max(4, ceil(|x|)).  When x is the
    score's tabulation grid (``_score_grid``), the distinct |x| of one panel
    size are an arithmetic progression, summed by ``_progression_values``.
    Otherwise every sum runs over one point's nodes alone, so a value does
    not depend on the other points of the call, and the phase matrix is
    built over ``core.row_blocks`` of points, at most ``core.BLOCK``
    (point, node) pairs at once.
    """
    flat = x.ravel()
    ax, where = _unique(np.abs(flat))
    grid, step = _score_grid(cfg)
    # the |x| each point's panels are sized for, ascending with ax
    sized = np.maximum(np.ceil(ax), 4.0)
    even = np.empty(ax.size)
    odd = np.zeros(ax.size)
    for bound in _unique(sized)[0]:
        tt, w_cos, w_sin = _panel_rule(float(bound), cfg, nodes)
        first, stop = np.searchsorted(sized, [bound, bound + 1.0])
        if x is grid:
            even[first:stop], odd[first:stop] = _progression_values(
                ax[first:stop], step, beta, (tt, w_cos, w_sin))
            continue
        for block in row_blocks(stop - first, tt.size):
            points = slice(first + block.start, first + block.stop)
            phase = np.outer(ax[points], tt)
            even[points] = (1.0 / math.pi) * np.einsum("ij,j->i", np.cos(phase), w_cos)
            if beta != 0.0:
                odd[points] = (beta / 2.0) * np.einsum("ij,j->i", np.sin(phase), w_sin)
    return (even[where] + np.sign(flat) * odd[where]).reshape(x.shape)


def _progression_values(ax, step: float, beta: float, rule):
    """The even and odd parts of the inversion at every x of ``ax``, an
    arithmetic progression of difference ``step``, on one panel ``rule``.

    The k-th point is split as x_a + x_b with x_a = ax[a m], x_b = b step
    and k = a m + b, m ~ sqrt(ax.size).  By angle addition,
    cos(x t) = cos(x_a t) cos(x_b t) - sin(x_a t) sin(x_b t) and
    sin(x t) = sin(x_a t) cos(x_b t) + cos(x_a t) sin(x_b t), so cosines
    and sines are taken on ~2 sqrt(ax.size) rows of phases, not on
    ax.size, and the node sums are matrix products.
    """
    tt, w_cos, w_sin = rule
    count = ax.size
    m = math.isqrt(count - 1) + 1
    phase_a = np.outer(ax[::m], tt)
    phase_b = np.outer(step * np.arange(m), tt)
    cos_a, sin_a = np.cos(phase_a), np.sin(phase_a)
    cos_b, sin_b = np.cos(phase_b).T, np.sin(phase_b).T
    even = (1.0 / math.pi) * ((cos_a * w_cos) @ cos_b - (sin_a * w_cos) @ sin_b).ravel()[:count]
    if beta == 0.0:
        return even, 0.0
    odd = (beta / 2.0) * ((sin_a * w_sin) @ cos_b + (cos_a * w_sin) @ sin_b).ravel()[:count]
    return even, odd


def stable_density_derivative(x, beta: float, cfg: InversionConfig | None = None, check: bool = True):
    """Theta-derivative of the stable density at the normal boundary.

    Real by construction (the even/odd symmetry of the integrand is used
    exactly); even in x when beta = 0.  With ``check`` the node count is
    doubled and a relative drift above 1e-8 raises InversionUnconverged.
    A non-finite x raises ValueError (an infinite one has no panel width).
    """
    if not abs(beta) <= 1.0:
        raise ValueError("|beta| must be <= 1")
    cfg = cfg or InversionConfig()
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise ValueError("stable density derivative needs finite x")
    coarse = _inversion_values(x, beta, cfg, cfg.nodes)
    if not check:
        return coarse if coarse.size > 1 else coarse.item()
    fine = _inversion_values(x, beta, cfg, 2 * cfg.nodes)
    drift = (np.abs(fine - coarse) / np.maximum(np.abs(fine), 1e-12)).ravel()
    worst = int(np.argmax(drift))  # the first NaN, if there is one
    if not drift[worst] <= 1e-8:
        raise InversionUnconverged(
            "inversion changed by more than 1e-8 relative under node doubling; "
            f"worst at x = {x.flat[worst]:.6g}, where d(x) = {fine.flat[worst]:.6e} "
            f"moved by {drift[worst]:.3e} relative"
        )
    return fine if fine.size > 1 else fine.item()


def normal_var2_pdf(x):
    """Density of N(0, 2), the standard member at the alpha = 2 boundary."""
    return _normal_pdf(np.asarray(x, dtype=float), 0.0, 2.0)


def score_stable(beta: float, cfg: InversionConfig | None = None) -> ScoreFunction:
    """Stable-family score: density derivative divided by the N(0,2) density.

    Values are precomputed on a uniform grid, symmetric about 0
    (``_score_grid``, whose inversion sums by angle addition), and
    interpolated with a not-a-knot cubic spline, evaluated by Horner in
    the grid cell found by division (no search); evaluations outside the
    grid fall back to direct inversion, all of one call's in one batch.
    The derivative is the spline's own inside the grid and the central
    difference (``core.central_difference``) of the direct inversion
    outside it.
    The tail grows like exp(x^2/4)/|x|^3, so the score is not square
    integrable under the Gaussian weight.

    ``log_bound`` is log E(x) for the envelope E(x) = 2 D sqrt(4 pi)
    exp(x^2/4), where D = (1/pi) sum |w_cos| + (|beta|/2) sum |w_sin| over
    the inversion's panel weights bounds |d(x)| at every x.  Those sums
    agree across the panel rules of all x to ~1e-16; the factor 2 also
    covers the spline between its knots.
    """
    cfg = cfg or InversionConfig()
    half = cfg.grid_halfwidth
    grid, step = _score_grid(cfg)
    y = np.asarray(stable_density_derivative(grid, beta, cfg)) / normal_var2_pdf(grid)
    coef = not_a_knot_coefficients(y, step)
    slope = coef[:3] * np.array([[3.0], [2.0], [1.0]])

    def direct(x):
        return np.asarray(stable_density_derivative(x, beta, cfg, check=False)) / normal_var2_pdf(x)

    _, w_cos, w_sin = _panel_rule(4.0, cfg, cfg.nodes)
    log_envelope = math.log(2.0 * math.sqrt(4.0 * math.pi) * (
        np.abs(w_cos).sum() / math.pi + 0.5 * abs(beta) * np.abs(w_sin).sum()))

    def log_bound(x):
        return log_envelope + 0.25 * (x * x)

    def on_grid(rows, beyond):
        def evaluate(x):
            out = uniform_cubic(rows, half, step, x, beyond)
            return float(out) if out.ndim == 0 else out

        return evaluate

    return ScoreFunction(
        evaluate=on_grid(coef, direct),
        family_label=f"stable:beta={beta:g}",
        tail_class=TAIL_SUBGAUSSIAN_DOMINATING,
        derivative=on_grid(slope, functools.partial(central_difference, direct)),
        fingerprint=repr(cfg),
        log_bound=log_bound,
    )
