"""Sampling models and their likelihood ratios.

Covers the many-means normal model, one-parameter exponential families
(natural parametrisation, density ``exp(m*x - beta(m))`` against a fixed
carrier), a non-exponential one-parameter family (logistic location),
Neyman-Scott replicate layouts, and uniform spacings, together with the
exact laws of two sufficient blocks (a few numbers per replicate that
invariant statistics read instead of the data), and exact log-likelihood
ratios.

All samplers are pure functions of ``(spec, parameters, generator)`` that
draw a batch with replicates on the leading axis; types are immutable after
construction.  Functions of data read its last axis (the last two for a
Neyman-Scott table) and treat any leading axes as replicates, so one vector
gives a numpy scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from ._num import simpson
from .rng import CHUNK_ELEMENTS, jumped, row_chunks

#: Default compact parameter box, safely interior to every built-in family's
#: natural-parameter domain.
DEFAULT_COMPACT = (-2.0, 2.0)

#: Grid size used for numerical sup/integral checks on [0, 1] profiles.
_PROFILE_GRID = 4097

#: Composite-quadrature subintervals for integrating h^2 on [0, 1].
_HSQ_INTERVALS = 1024


# --------------------------------------------------------------------- #
# Domain types
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class MeanVector:
    """An alternative mean/parameter vector with its compact-set bounds."""

    entries: np.ndarray
    compact_lo: float | None = DEFAULT_COMPACT[0]
    compact_hi: float | None = DEFAULT_COMPACT[1]

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 1 or entries.size == 0:
            raise ValueError("entries must be a nonempty 1-D vector")
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries must be finite")
        object.__setattr__(self, "entries", entries)
        if (self.compact_lo is None) != (self.compact_hi is None):
            raise ValueError("compact_lo and compact_hi must be set together")
        if self.compact_lo is not None:
            if not self.compact_lo < self.compact_hi:
                raise ValueError("compact_lo must be < compact_hi")
            if entries.min() < self.compact_lo or entries.max() > self.compact_hi:
                raise ValueError(
                    "entries outside the compact parameter box "
                    f"[{self.compact_lo}, {self.compact_hi}]"
                )

    @property
    def n(self) -> int:
        return self.entries.size

    @property
    def mean(self) -> float:
        return float(self.entries.mean())

    @property
    def centered(self) -> np.ndarray:
        return self.entries - self.entries.mean()

    @property
    def centered_norm(self) -> float:
        """The centered norm ``||m - mean(m)||``."""
        return float(np.linalg.norm(self.centered))

    @property
    def max_centered_dev(self) -> float:
        return float(np.abs(self.centered).max())


def spike_levels(m: np.ndarray) -> tuple[float, float] | None:
    """``(a, b)`` with ``m = b 1 + (a - b) e_j`` for some ``j``, or ``None`` if ``m`` is no spike.

    A spike has exactly two distinct values, one of them on a single
    coordinate (at ``n = 2`` both are, and ``a`` is the first entry).  Its
    permutation orbit has only ``n`` points, one per position of ``a``.
    """
    levels, first, counts = np.unique(m, return_index=True, return_counts=True)
    if levels.size != 2 or counts.min() != 1:
        return None
    k = int(np.argmin(np.where(counts == 1, first, m.size)))
    return float(levels[k]), float(levels[1 - k])


@dataclass(frozen=True)
class ExpFamilySpec:
    """A one-parameter exponential family in its natural parametrisation.

    ``beta`` is the cumulant (log-normalizer) function, whose first two
    derivatives are the mean and variance of one observation.
    ``sampler(rng, m, size)`` draws observations
    with natural parameter ``m`` (vectorised over ``m``).
    ``convolution(rng, m, k, size)`` draws the sum of ``k`` independent
    observations at natural parameter ``m`` from its exact law (vectorised
    over ``m`` and ``k``).
    """

    name: str
    beta: Callable[[np.ndarray], np.ndarray]
    sampler: Callable[[np.random.Generator, np.ndarray, tuple], np.ndarray]
    convolution: Callable[[np.random.Generator, np.ndarray, np.ndarray, tuple], np.ndarray]


@dataclass(frozen=True)
class GeneralFamilySpec:
    """A general (non-exponential) one-parameter family ``exp(log_density(x; m))``.

    ``sampler(rng, m, size)`` draws observations with parameter ``m``
    (vectorised over ``m``).
    """

    name: str
    log_density: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sampler: Callable[[np.random.Generator, np.ndarray, tuple], np.ndarray]


@dataclass(frozen=True)
class NeymanScottLayout:
    """``n`` groups of ``nu`` replicates with a common standard deviation."""

    n: int
    nu: int
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need at least 2 groups")
        if self.nu < 2:
            raise ValueError("need at least 2 replicates per group")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")


# --------------------------------------------------------------------- #
# Built-in families
# --------------------------------------------------------------------- #


def _normal_carrier(rng: np.random.Generator, m: np.ndarray, size: tuple) -> np.ndarray:
    """``N(m, 1)`` draws: standard normals shifted in place by ``m`` (a scalar or a vector)."""
    x = rng.standard_normal(size)
    x += m
    return x


def normal_family() -> ExpFamilySpec:
    """Normal location family N(m, 1): beta(m) = m^2 / 2; a sum of k is N(k m, k)."""
    return ExpFamilySpec(
        name="normal",
        beta=lambda m: np.square(m) / 2.0,
        sampler=_normal_carrier,
        convolution=lambda rng, m, k, size: np.sqrt(k) * rng.standard_normal(size) + k * m,
    )


def poisson_family() -> ExpFamilySpec:
    """Poisson family with natural parameter m: beta(m) = exp(m); a sum of k is Pois(k e^m)."""
    return ExpFamilySpec(
        name="poisson",
        beta=np.exp,
        sampler=lambda rng, m, size: rng.poisson(lam=np.exp(m), size=size).astype(float),
        convolution=lambda rng, m, k, size: rng.poisson(lam=k * np.exp(m), size=size).astype(float),
    )


def bernoulli_logit_family() -> ExpFamilySpec:
    """Bernoulli family with log-odds parameter m: beta(m) = log(1 + exp(m)).

    A sum of k observations is Bin(k, sigmoid(m)).
    """

    def _sample(rng: np.random.Generator, m: np.ndarray, size: tuple) -> np.ndarray:
        p = _sigmoid(np.asarray(m, dtype=float))
        return (rng.random(size) < p).astype(float)

    return ExpFamilySpec(
        name="bernoulli",
        beta=lambda m: np.logaddexp(0.0, m),
        sampler=_sample,
        convolution=lambda rng, m, k, size: rng.binomial(k, _sigmoid(m), size=size).astype(float),
    )


def logistic_location_family() -> GeneralFamilySpec:
    """Logistic location family, the built-in non-exponential model.

    Log density ``-(x - m) - 2 log(1 + exp(-(x - m)))``.
    """

    def log_density(x: np.ndarray, m: np.ndarray) -> np.ndarray:
        u = np.asarray(x, dtype=float) - m
        return -u - 2.0 * np.logaddexp(0.0, -u)

    return GeneralFamilySpec(
        name="logistic",
        log_density=log_density,
        sampler=lambda rng, m, size: rng.logistic(loc=m, scale=1.0, size=size),
    )


_BUILTIN_EXP = {
    "normal": normal_family,
    "poisson": poisson_family,
    "bernoulli": bernoulli_logit_family,
}


def family_by_name(name: str) -> ExpFamilySpec | GeneralFamilySpec:
    if name in _BUILTIN_EXP:
        return _BUILTIN_EXP[name]()
    if name == "logistic":
        return logistic_location_family()
    raise ValueError(f"unknown family {name!r}")


def _sigmoid(m: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(np.asarray(m, dtype=float) / 2.0))


# --------------------------------------------------------------------- #
# Sampling and likelihood ratios
# --------------------------------------------------------------------- #


def sample_model(
    family: ExpFamilySpec | GeneralFamilySpec,
    m: MeanVector,
    rng: np.random.Generator,
    reps: int,
) -> np.ndarray:
    """``(reps, n)`` independent coordinates from ``rng``, coordinate ``i`` under parameter ``m_i``.

    A constant ``m`` (every null point) is passed to the sampler as one
    scalar parameter, which draws the same numbers as the vector.
    """
    entries = m.entries
    param = entries[0] if np.all(entries == entries[0]) else entries
    return family.sampler(rng, param, (reps, m.n))


def loglik_ratio(
    family: ExpFamilySpec | GeneralFamilySpec,
    m: MeanVector,
    mbar: float,
    x: np.ndarray,
) -> np.ndarray:
    """Exact log of ``prod f(x_i; m_i) / prod f(x_i; mbar)`` for each replicate of ``x``."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != m.n:
        raise ValueError("dimension mismatch between m and x")
    if isinstance(family, ExpFamilySpec):
        bm = family.beta(m.entries)
        bbar = family.beta(np.float64(mbar))
        if not (np.all(np.isfinite(bm)) and np.isfinite(bbar)):
            raise ValueError("non-finite cumulant values")
        out = x @ (m.entries - mbar) - float(np.sum(bm - bbar))
    else:
        out = np.sum(
            family.log_density(x, m.entries) - family.log_density(x, mbar), axis=-1
        )
    return out


def sample_neyman_scott(
    layout: NeymanScottLayout,
    m: MeanVector,
    rng: np.random.Generator,
    reps: int,
) -> np.ndarray:
    """``reps`` draws from ``rng`` of the ``n x nu`` replicate table, row ``i`` centered at ``m_i``."""
    if m.n != layout.n:
        raise ValueError("mean vector length must match the number of groups")
    return layout.sigma * rng.standard_normal((reps, layout.n, layout.nu)) + m.entries[:, None]


# --------------------------------------------------------------------- #
# Sufficient blocks: the few numbers per replicate an invariant test reads
# --------------------------------------------------------------------- #


def sample_normal_radial(norm_m: float, n: int, rng: np.random.Generator, reps: int) -> np.ndarray:
    """``(reps, 2)`` draws of ``(u'x, ||x||^2 - (u'x)^2)`` for ``x ~ N(m, I_n)``.

    ``u = m / ||m||`` (any unit vector when ``m = 0``).  The columns are
    independent, ``N(||m||, 1)`` and a central ``chi^2(n - 1)`` whatever the
    mean; at ``n = 1`` the residual is identically 0.
    """
    out = np.empty((reps, 2))
    out[:, 0] = norm_m + rng.standard_normal(reps)
    out[:, 1] = rng.chisquare(n - 1, reps) if n > 1 else 0.0
    return out


def sample_neyman_scott_mean_squares(
    layout: NeymanScottLayout, m: MeanVector, rng: np.random.Generator, reps: int
) -> np.ndarray:
    """``(reps, 2)`` draws of the ANOVA mean squares ``(nu B / (n - 1), W / (n (nu - 1)))``.

    ``B = sum (ybar_i - ybar)^2`` is ``sigma^2 / nu`` times a noncentral
    ``chi^2(n - 1, nu ||m - mbar||^2 / sigma^2)`` and the within sum of
    squares ``W`` is ``sigma^2`` times an independent ``chi^2(n (nu - 1))``.
    """
    n, nu, var = layout.n, layout.nu, layout.sigma**2
    if m.n != n:
        raise ValueError("mean vector length must match the number of groups")
    out = np.empty((reps, 2))
    out[:, 0] = var / (n - 1) * rng.noncentral_chisquare(n - 1, nu * m.centered_norm**2 / var, reps)
    out[:, 1] = var / (n * (nu - 1)) * rng.chisquare(n * (nu - 1), reps)
    return out


# --------------------------------------------------------------------- #
# Spacings
# --------------------------------------------------------------------- #


def sample_spacings_null_batch(n: int, reps: int, rng: np.random.Generator) -> np.ndarray:
    """Null spacings, shape ``(reps, n + 1)``: iid standard exponentials from ``rng`` over their row sum."""
    if n < 1:
        raise ValueError("n must be >= 1")
    e = rng.standard_exponential(size=(reps, n + 1))
    e /= e.sum(axis=1, keepdims=True)
    return e


@dataclass(frozen=True)
class Profile:
    """A bounded mean-zero profile on [0, 1] used as a spacings alternative.

    Built from a finite cosine combination ``sum_k c_k * sqrt(2) cos(2 pi k x)``
    via :func:`cosine_profile`, or from any callable with its sup given.
    ``sup_certified`` says that ``sup`` is a proven bound on ``|h|`` (a
    cosine combination's ``sum |c_k| sqrt(2)``), not an estimate.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    sup: float
    sup_certified: bool = False

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fn(x)


def cosine_profile(coeffs: dict[int, float]) -> Profile:
    """Mean-zero profile ``sum_k c_k * sqrt(2) cos(2 pi k x)`` (orthonormal terms)."""
    if not coeffs or any(k < 1 for k in coeffs):
        raise ValueError("coeffs must map frequencies >= 1 to weights")
    items = sorted(coeffs.items())

    def fn(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        (k, c), *rest = items
        out = c * np.sqrt(2.0) * np.cos(2.0 * np.pi * k * x)
        for k, c in rest:
            out = out + c * np.sqrt(2.0) * np.cos(2.0 * np.pi * k * x)
        return out

    return Profile(fn=fn, sup=float(sum(abs(c) for _, c in items) * np.sqrt(2.0)), sup_certified=True)


def check_spacings_profile(n: int, prof: Profile) -> None:
    """Raise ``ValueError`` unless ``1 + h / sqrt(n)`` is a positive density."""
    if prof.sup > 0.99 * np.sqrt(n):
        raise ValueError(
            f"sup|h| = {prof.sup:g} must be <= 0.99 * sqrt(n) = {0.99 * np.sqrt(n):g} "
            f"at n = {n} to keep the density positive"
        )


def sample_spacings_alternative_batch(
    n: int, h: Profile, reps: int, rng: np.random.Generator
) -> np.ndarray:
    """Spacings of ``n`` ordered draws from the density ``1 + h(x) / sqrt(n)``.

    Returns shape ``(reps, n + 1)``.  Rejection sampling with the constant
    envelope ``1 + sup|h| / sqrt(n)``, in rounds: a round of ``k`` proposals
    reads ``k`` points ``u`` and then ``k`` acceptance uniforms ``v`` from the
    generator, ``k = max(1.2 (points still needed) envelope, 1024)``, and
    leaves it ``2k`` draws on.  The round is read in chunks of
    :data:`~invlab.rng.CHUNK_ELEMENTS` proposals, ``v`` from a copy
    :func:`~invlab.rng.jumped` ``k`` draws ahead, and stops once enough points
    are accepted.  Where ``sup`` is certified, ``v`` below the squeeze
    (:func:`_acceptance_floor`) accepts without evaluating ``h``.  ``rng``
    must run on Philox.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_spacings_profile(n, h)
    root_n = np.sqrt(n)
    xs = np.linspace(0.0, 1.0, _PROFILE_GRID)
    if abs(simpson(np.asarray(h(xs), float), x=xs)) > 1e-6:
        raise ValueError("h must integrate to 0 within 1e-6")
    envelope = 1.0 + h.sup / root_n
    floor = _acceptance_floor(h, root_n)
    need = reps * n
    out = np.empty((reps, n + 1))
    # Accepted points fill the head of ``out`` in order, row i at [i n, (i + 1) n).
    points = out.reshape(-1)[:need]
    got = 0
    while got < need:
        k = max(int(1.2 * (need - got) * envelope), 1024)
        v_rng, after = jumped(rng, k), jumped(rng, 2 * k)
        for start in range(0, k, CHUNK_ELEMENTS):
            u = rng.random(min(CHUNK_ELEMENTS, k - start))
            w = v_rng.random(u.size) * envelope
            keep = w <= floor
            test = np.flatnonzero(~keep)
            if test.size:
                keep[test] = w[test] <= 1.0 + h(u[test]) / root_n
            take = u[keep][: need - got]
            points[got : got + take.size] = take
            got += take.size
            if got == need:
                break
        rng.bit_generator.state = after.bit_generator.state
    # Row i's spacings fill out[i], which starts at i (n + 1) >= i n, so rows
    # are sorted and differenced from the last chunk back.
    edges = np.cumsum([0, *row_chunks(reps, n)])
    for lo, hi in reversed(list(zip(edges[:-1], edges[1:]))):
        pts = np.sort(points[lo * n : hi * n].reshape(hi - lo, n), axis=1)
        out[lo:hi, 0] = pts[:, 0]
        np.subtract(pts[:, 1:], pts[:, :-1], out=out[lo:hi, 1:n])
        out[lo:hi, n] = 1.0 - pts[:, -1]
    return out


def _acceptance_floor(prof: Profile, root_n: float) -> float:
    """The largest ``v * envelope`` the rejection test accepts at every ``u``.

    ``1 + h(u) / sqrt(n) >= 1 - sup / sqrt(n)``, and rounding keeps the
    computed test at or above the computed floor: evaluating ``h`` rounds its
    value at most ``terms + 4`` ulps of ``sup`` past ``sup``, which the
    relative margin 1e-9 covers for any profile of fewer than 10**6 terms,
    and the division and the addition round monotonically.  ``-inf`` (no
    squeeze) where ``sup`` is only a grid estimate.
    """
    if not prof.sup_certified:
        return -np.inf
    return float(1.0 - prof.sup * (1.0 + 1e-9) / root_n)


@lru_cache(maxsize=16)
def _linear_llr_terms(prof: Profile, n: int) -> tuple[np.ndarray, float, float]:
    """``h_i = h(i / (n + 1))``, ``i = 1 .. n + 1`` (read-only), their mean and ``integral(h^2) / 2``.

    The integral is a 1024-interval composite Simpson sum.  Cached per
    ``(profile, n)``: row-chunked evaluation asks for them once per chunk.
    """
    i = np.arange(1, n + 2, dtype=float)
    grid = np.asarray(prof(i / (n + 1)), dtype=float)
    grid.flags.writeable = False
    xs = np.linspace(0.0, 1.0, _HSQ_INTERVALS + 1)
    half_l2 = 0.5 * float(simpson(np.asarray(prof(xs), float) ** 2, x=xs))
    return grid, float(grid.sum()) / (n + 1), half_l2


def spacings_loglik_approx(h: Profile, d: np.ndarray) -> np.ndarray:
    """Linear spacings approximation to the log-likelihood ratio.

    ``-(n+1)/sqrt(n) * sum_i h(i/(n+1)) (d_i - 1/(n+1)) - integral(h^2)/2``,
    with the profile evaluated at the expected order-statistic positions.
    The sum is taken as the row dot product ``d . h`` minus the cached
    ``sum h_i / (n+1)``.
    """
    dv = np.asarray(d, dtype=float)
    n = dv.shape[-1] - 1
    hi, mean_h, half_l2 = _linear_llr_terms(h, n)
    residual = np.einsum("...i,i->...", dv, hi) - mean_h
    return -(n + 1) / np.sqrt(n) * residual - half_l2


def spacings_loglik_exact(h: Profile, d: np.ndarray) -> np.ndarray:
    """Exact log-likelihood ratio of the density ``1 + h/sqrt(n)`` to uniform."""
    dv = np.asarray(d, dtype=float)
    n = dv.shape[-1] - 1
    points = np.cumsum(dv, axis=-1)[..., :-1]
    return np.sum(np.log1p(h(points) / np.sqrt(n)), axis=-1)
