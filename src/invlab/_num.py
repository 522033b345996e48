"""The numerical routines invlab needs beyond numpy.

Composite Simpson quadrature on uniform odd-point grids, a max-shifted
log-sum-exp that follows scipy's algorithm step for step (so results are
bit-identical to ``scipy.special.logsumexp``), a Euclidean norm that stays
finite where the sum of squares overflows, and a sample mean with its
standard error.  Keeping them here keeps scipy off the import path of the
package; the tests use scipy as their oracle.
"""

from __future__ import annotations

import numpy as np


def simpson(y: np.ndarray, x: np.ndarray) -> float | np.ndarray:
    """Composite Simpson integral of ``y`` over the uniform grid ``x`` (last axis).

    ``x`` must be evenly spaced with an odd number of points; an even count
    raises ``ValueError``.  Uniformity is not checked.
    """
    x = np.asarray(x, dtype=float)
    num = x.size - 1
    if num < 2 or num % 2:
        raise ValueError(f"Simpson's rule needs an even number of intervals, got {num}")
    w = np.full(x.size, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return np.sum(np.asarray(y, dtype=float) * (w * ((x[-1] - x[0]) / num / 3.0)), axis=-1)


def logsumexp(a: np.ndarray, axis: int | None = None) -> float | np.ndarray:
    """``log(sum(exp(a)))`` along ``axis`` (all axes when ``None``), without overflow.

    The maxima are summed apart from the rest: with ``m`` entries equal to
    the maximum ``a_max`` and ``s`` the sum of ``exp(a - a_max)`` over the
    others, the result is ``log1p(s / m) + log(m) + a_max``.  Where the
    maximum is not finite the result is the maximum itself.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    a_max = np.max(a, axis=axis, keepdims=True)
    is_max = a == a_max
    m = np.sum(is_max, axis=axis, keepdims=True, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        shifted = np.exp(a - a_max)
        shifted[is_max] = 0.0
        s = np.sum(shifted, axis=axis, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + a_max
    out = np.where(np.isfinite(a_max), out, a_max)
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)``; where the squares of finite entries overflow, ``max|x| * norm(x / max|x|)``."""
    with np.errstate(over="ignore"):
        out = float(np.linalg.norm(x))
    if out == np.inf and np.isfinite(x).all():
        top = float(np.abs(x).max())
        return top * float(np.linalg.norm(x / top))
    return out


def mean_se(values: np.ndarray) -> tuple[float, float]:
    """The mean of the sample ``values`` and its standard error ``std(ddof=1) / sqrt(size)``."""
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(values.size))
