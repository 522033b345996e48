"""The three numerical routines invlab needs beyond numpy.

Composite Simpson quadrature on uniform odd-point grids, a max-shifted
log-sum-exp that follows scipy's algorithm step for step (so results are
bit-identical to ``scipy.special.logsumexp``), and the type-1 discrete
cosine transform through a real FFT.  Keeping them here keeps scipy off the
import path of the package; the tests use scipy as their oracle.
"""

from __future__ import annotations

import numpy as np


def simpson_weights(num: int, h: float) -> np.ndarray:
    """Composite Simpson weights ``h/3 * (1, 4, 2, ..., 2, 4, 1)`` for ``num`` intervals."""
    if num < 2 or num % 2:
        raise ValueError(f"Simpson's rule needs an even number of intervals, got {num}")
    w = np.full(num + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def simpson(y: np.ndarray, x: np.ndarray) -> float | np.ndarray:
    """Composite Simpson integral of ``y`` over the uniform grid ``x`` (last axis).

    ``x`` must be evenly spaced with an odd number of points; an even count
    raises ``ValueError``.  Uniformity is not checked.
    """
    x = np.asarray(x, dtype=float)
    h = (x[-1] - x[0]) / (x.size - 1)
    return np.sum(np.asarray(y, dtype=float) * simpson_weights(x.size - 1, h), axis=-1)


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


def dct1(x: np.ndarray) -> np.ndarray:
    """Unnormalised type-1 DCT: ``x_0 + (-1)^k x_{N-1} + 2 sum_j x_j cos(pi j k / (N - 1))``."""
    x = np.asarray(x, dtype=float)
    return np.fft.rfft(np.concatenate([x, x[-2:0:-1]])).real
