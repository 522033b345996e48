"""Test statistics: projections, quadratic norms, ANOVA F, spacings
statistics and the quadratic-basis statistic.

Every statistic reads the last axis of its data (the last two for an ANOVA
table) and treats any leading axes as replicates: a ``(reps, n)`` batch gives
``reps`` values and one vector gives a numpy scalar.  Projections are row
sums (``np.sum``, ``np.einsum``), not BLAS products, so a replicate's value
depends on its own row only, not on how many rows share the call or on the
BLAS thread count.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


# --------------------------------------------------------------------- #
# Core statistics
# --------------------------------------------------------------------- #


def np_statistic(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Neyman-Pearson projection ``m'x / ||m||`` for a known direction ``m``.

    Invariant under the orthogonal maps that fix ``m``, not under permutations.
    """
    m = np.asarray(m, dtype=float)
    norm = np.linalg.norm(m)
    if norm == 0.0:
        raise ValueError("m must have positive norm")
    return np.sum(np.asarray(x, dtype=float) * m, axis=-1) / norm


def chisq_statistic(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm ``||x||^2``, invariant under the orthogonal group."""
    x = np.asarray(x, dtype=float)
    return np.sum(x * x, axis=-1)


def sample_variance_statistic(x: np.ndarray) -> np.ndarray:
    """Sample variance ``sum (x_i - xbar)^2 / n``, invariant under permutations and shifts."""
    x = np.asarray(x, dtype=float)
    return x.var(axis=-1)


def anova_f(x: np.ndarray) -> np.ndarray:
    """One-way ANOVA F statistic for an ``n x nu`` table (rows are groups).

    Accepts batches shaped ``(..., n, nu)``.  Raises on zero within-group
    variance.  Invariant under permutations of the groups, permutations
    within each group and affine maps ``a x + b`` (``a != 0``).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim < 2:
        raise ValueError("need an n x nu table")
    n, nu = x.shape[-2], x.shape[-1]
    if n < 2 or nu < 2:
        raise ValueError("need n >= 2 groups and nu >= 2 replicates")
    row_means = x.mean(axis=-1)
    grand = row_means.mean(axis=-1, keepdims=True)
    between = nu * np.sum((row_means - grand) ** 2, axis=-1) / (n - 1)
    within = np.sum((x - row_means[..., None]) ** 2, axis=(-2, -1)) / (n * (nu - 1))
    if np.any(within == 0.0):
        raise ZeroDivisionError("zero within-group variance")
    return between / within


def moran(d: np.ndarray) -> np.ndarray:
    """Moran's statistic ``sum log d_i``; requires strictly positive spacings.

    Invariant under permutations of the spacings.
    """
    dv = np.asarray(d, dtype=float)
    if np.any(dv <= 0.0):
        raise ValueError("moran requires strictly positive spacings")
    return np.sum(np.log(dv), axis=-1)


def greenwood(d: np.ndarray) -> np.ndarray:
    """Greenwood's statistic ``sum d_i^2``, invariant under permutations of the spacings."""
    dv = np.asarray(d, dtype=float)
    return np.einsum("...i,...i->...", dv, dv)


def two_spacings_statistic(d: np.ndarray) -> np.ndarray:
    """Overlapping 2-spacings statistic ``sum_i (U_{i+2} - U_i)^2``.

    ``U_1 < ... < U_n`` is the ordered sample on [0, 1] with ``U_0 = 0`` and
    ``U_{n+1} = 1``; the statistic reads its spacings ``d`` (shape
    ``(..., n + 1)``, ``d_i = U_i - U_{i-1}``) as
    ``sum_i (d_{i+1} + d_{i+2})^2``, expanded into row dot products:
    ``2 sum d_i^2 - d_1^2 - d_{n+1}^2 + 2 sum d_i d_{i+1}``.  Invariant under
    the reflection ``u -> 1 - u`` (the spacings reversed), not under
    permutations of the spacings.
    """
    dv = np.asarray(d, dtype=float)
    squares = np.einsum("...i,...i->...", dv, dv)
    neighbours = np.einsum("...i,...i->...", dv[..., :-1], dv[..., 1:])
    return 2.0 * (squares + neighbours) - dv[..., 0] ** 2 - dv[..., -1] ** 2


def points_from_spacings(d: np.ndarray) -> np.ndarray:
    """Ordered sample points implied by a spacings vector (drops the final 1)."""
    dv = np.asarray(d, dtype=float)
    return np.cumsum(dv, axis=-1)[..., :-1]


# --------------------------------------------------------------------- #
# Quadratic basis statistic
# --------------------------------------------------------------------- #


#: Weights ``2^-i`` of the quadratic statistic on the cosines ``i = 1..8``.
QUADRATIC_WEIGHTS = 2.0 ** -np.arange(1, 9)
QUADRATIC_WEIGHTS.flags.writeable = False


# Row-chunked evaluation asks for the same grid, norms and sums once per chunk.
@lru_cache(maxsize=8)
def _quadratic_grid(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The basis ``sqrt(2) cos(2 pi i x)``, ``i = 1..8``, on the grid ``j/n``, ``j = 1..n``.

    Returns the ``8 x n`` values, their row norms and their row sums, all
    read-only.  Each norm is positive: every cosine is ``sqrt(2)`` at ``j = n``.
    """
    grid = np.arange(1, n + 1, dtype=float) / n
    terms = range(1, QUADRATIC_WEIGHTS.size + 1)
    values = np.stack([np.sqrt(2.0) * np.cos(2.0 * np.pi * i * grid) for i in terms])
    norms = np.sqrt(np.sum(values * values, axis=1))
    sums = values.sum(axis=1)
    for a in (values, norms, sums):
        a.flags.writeable = False
    return values, norms, sums


def quadratic_statistic(x: np.ndarray, scale: float = 1.0, shift: float = 0.0) -> np.ndarray:
    """Weighted sum ``sum 2^-i Z_i^2`` of the standardized cosine projections of ``scale * x - shift``.

    The projection on a basis vector ``g`` of :func:`_quadratic_grid` is taken
    as ``(scale (x . g) - shift sum(g)) / ||g||``, so the residuals are never
    formed; the defaults project ``x`` itself.  Invariant under the
    orthogonal maps that fix every basis vector on the grid, not under
    permutations.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if n < QUADRATIC_WEIGHTS.size:
        raise ValueError("need at least as many observations as basis terms")
    values, norms, sums = _quadratic_grid(n)
    z = (scale * np.einsum("...j,kj->...k", x, values) - shift * sums) / norms
    return np.sum(z * z * QUADRATIC_WEIGHTS, axis=-1)
