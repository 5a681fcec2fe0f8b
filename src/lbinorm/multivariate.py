"""Multivariate normality statistics and their triangular-moment oracles.

``whiten`` maps an n x p sample to Cholesky-standardized rows with zero
column sums and (1/n) Z'Z = I.  ``stat_gl`` is the fully linear-invariant
fourth-moment statistic sum ||z_i||^4; ``stat_lt`` is the triangular-group
statistic, which weights coordinates by their position and is therefore
coordinate-order dependent by design.  All three also take a stack of
samples, shape (..., n, p), in any memory layout, and work on each n x p
sample of it in one numpy call; a single n x p sample gives a plain float
statistic.  Their arithmetic runs coordinate-major: ``whiten`` centres and
solves on one contiguous (..., p, n) copy and returns a (..., n, p) view
of its result, and the statistics read that view back as p length-n rows,
so every loop runs over the p coordinates and acts on whole rows, with no
reduction over a length-p axis.  The moment functions and the Wishart
check back the triangular statistic with independent samplers.
"""

import math

import numpy as np

from .errors import SingularCovariance

__all__ = [
    "whiten",
    "stat_gl",
    "stat_lt",
    "moment_R",
    "moment_S",
    "sample_bartlett_lower",
    "wishart_moment_check",
]


def whiten(X) -> np.ndarray:
    """Cholesky standardization Z = (X - mean) (T')^{-1} with S = TT'.

    ``X`` is one n x p sample or a stack (..., n, p) of them, in any memory
    layout; each sample is whitened on its own and ``X`` is never written.
    The covariance uses the divisor n.  Requires n >= p + 2 and a positive
    definite S for every sample; raises SingularCovariance otherwise.

    The arithmetic runs coordinate-major, on one contiguous (..., p, n)
    copy whose rows are whole coordinates; the result is a (..., n, p) view
    of such an array, whose coordinates the statistics read as rows.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim < 2 or X.shape[-1] < 1:
        raise ValueError("expected an n x p matrix")
    n, p = X.shape[-2:]
    if n < p + 2:
        raise ValueError(f"need n >= p + 2, got n={n}, p={p}")
    Dt = np.swapaxes(X, -1, -2).copy()  # C order: a copy, never a view of X
    Dt -= Dt.mean(axis=-1, keepdims=True)
    S = Dt @ np.swapaxes(Dt, -1, -2) / n
    try:
        T = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance("sample covariance is not positive definite") from exc
    # z_i = T^{-1} (x_i - xbar); row j of the lower-triangular L = T^{-1}
    # from the rows before it (T L = I), then Z' = L D' in one product
    L = np.zeros_like(T)
    for j in range(p):
        L[..., j, :j] = -(T[..., j, None, :j] @ L[..., :j, :j])[..., 0, :]
        L[..., j, j] = 1.0
        L[..., j, :j + 1] /= T[..., j, j, None]
    return np.swapaxes(L @ Dt, -1, -2)


def _per_sample(total: np.ndarray) -> float | np.ndarray:
    """A float for one sample, the array of values for a stack."""
    return float(total) if total.ndim == 0 else total


def _coordinate_major(Z) -> np.ndarray:
    """The (..., p, n) view of a (..., n, p) sample or stack: contiguous
    coordinate rows for ``whiten``'s output, any layout otherwise."""
    Z = np.asarray(Z, dtype=float)
    if Z.ndim < 2 or Z.shape[-1] < 1:
        raise ValueError("expected an n x p matrix")
    return np.swapaxes(Z, -1, -2)


def stat_gl(Z) -> float | np.ndarray:
    """Fourth-moment statistic sum_i ||z_i||^4, invariant under all
    nonsingular linear maps of the data; per sample of a (..., n, p) stack."""
    Zt = _coordinate_major(Z)
    p = Zt.shape[-2]
    r = np.square(Zt[..., p - 1, :])
    for j in range(p - 2, -1, -1):
        r += np.square(Zt[..., j, :])
    return _per_sample(np.sum(r * r, axis=-1))


def stat_lt(Z) -> float | np.ndarray:
    """Triangular-group invariant statistic (coordinate-order dependent).

    Evaluates, in a regrouped O(np) form, the quadruple sum

        (n+p+2)(n+p) sum_i ||z_i||^4
        - 2(n+p+2) sum_i sum_{j,k} max(j,k) z_ij^2 z_ik^2
        - 2(n+p)   sum_i sum_{j,k} min(j,k) z_ij^2 z_ik^2
        + 4 sum_i (sum_j j z_ij^2)^2,

    per sample of a (..., n, p) stack.  With q_ij = z_ij^2 and the suffix
    sums s_im = sum_{j>=m} q_ij: ||z_i||^2 = s_i1, u_i = sum_j j q_ij =
    sum_m s_im, sum_{j,k} min(j,k) q_ij q_ik = sum_m s_im^2 (as min(j,k) =
    sum_m 1[j>=m] 1[k>=m]) and max = j + k - min, so the sum is
    sum_i [(n+p+2)(n+p) s_i1^2 - 4(n+p+2) u_i s_i1 + 4 sum_m s_im^2 + 4 u_i^2].
    Each is built by adding the p coordinate rows, from the last.
    """
    Zt = _coordinate_major(Z)
    p, n = Zt.shape[-2:]
    s = np.square(Zt[..., p - 1, :])
    u = s.copy()
    mn = s * s
    for m in range(p - 2, -1, -1):
        s += np.square(Zt[..., m, :])
        u += s
        mn += s * s
    per_row = s * ((n + p + 2) * (n + p) * s - 4.0 * (n + p + 2) * u) + 4.0 * (mn + u * u)
    return _per_sample(np.sum(per_row, axis=-1))


def moment_R(z, m: float) -> float:
    """E[z'T'Tz] for the random lower-triangular T with chi diagonals.

    T has independent entries t_ii ~ chi_(m+p-i), t_ij ~ N(0,1) (i > j).
    Closed form: sum_i z_i^2 (m + 2p - 2i).
    """
    z = np.asarray(z, dtype=float)
    p = z.size
    i = np.arange(1, p + 1)
    return float(np.sum(z * z * (m + 2.0 * p - 2.0 * i)))


def moment_S(z, m: float) -> float:
    """E[(z'T'Tz)^2] for the same triangular ensemble as ``moment_R``.

    Quadratic form q' A q in q_i = z_i^2 with
    A[i,j] = (m+2p+2)(m+2p) - 2(m+2p+2) max(i,j) - 2(m+2p) min(i,j)
             + 4 max(i,j) min(i,j).
    """
    z = np.asarray(z, dtype=float)
    p = z.size
    q = z * z
    idx = np.arange(1, p + 1)
    mx = np.maximum.outer(idx, idx)
    mn = np.minimum.outer(idx, idx)
    A = (
        (m + 2.0 * p + 2.0) * (m + 2.0 * p)
        - 2.0 * (m + 2.0 * p + 2.0) * mx
        - 2.0 * (m + 2.0 * p) * mn
        + 4.0 * mx * mn
    )
    return float(q @ A @ q)


def sample_bartlett_lower(m: float, p: int, size: int, rng) -> np.ndarray:
    """Draw lower-triangular matrices with t_ii ~ chi_(m+p-i), t_ij ~ N(0,1).

    Returns an array of shape (size, p, p).  This is the ensemble whose
    first two quadratic-form moments are ``moment_R``/``moment_S``, and
    (for m = n - p) the Bartlett factor of a Wishart matrix.
    """
    T = np.zeros((size, p, p))
    for i in range(1, p + 1):
        T[:, i - 1, i - 1] = np.sqrt(rng.chisquare(m + p - i, size=size))
        for j in range(1, i):
            T[:, i - 1, j - 1] = rng.normal(size=size)
    return T


def wishart_moment_check(n: int, p: int, trials: int, seed: int, z=None) -> dict:
    """Monte-Carlo verification of the Wishart quadratic-form identities.

    Samples C ~ W_p(n-1, I_p) via the Bartlett decomposition (chi
    diagonals chi_(n-i), normal subdiagonals) and checks
    E[z'Cz] = (n-1)||z||^2 and E[(z'Cz)^2] = (n-1)(n+1)||z||^4.
    Returns estimates, targets and standard errors.
    """
    if n <= p:
        raise ValueError("need n > p")
    rng = np.random.default_rng(seed)
    z = np.ones(p) if z is None else np.asarray(z, dtype=float)
    # Bartlett factor of W_p(n-1, I): diagonals chi_{n-1-(i-1)} = chi_{n-i}
    T = sample_bartlett_lower(n - p, p, trials, rng)
    w = T.transpose(0, 2, 1) @ z  # T'z per draw
    qf = np.sum(w * w, axis=1)  # z'TT'z; TT' ~ W_p(n-1, I) as well
    nz2 = float(z @ z)
    est1, est2 = float(qf.mean()), float((qf * qf).mean())
    return {
        "n": n,
        "p": p,
        "trials": trials,
        "mean": est1,
        "mean_target": (n - 1) * nz2,
        "mean_se": float(qf.std(ddof=1) / math.sqrt(trials)),
        "second_moment": est2,
        "second_moment_target": (n - 1) * (n + 1) * nz2 * nz2,
        "second_moment_se": float((qf * qf).std(ddof=1) / math.sqrt(trials)),
    }
