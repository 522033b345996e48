"""Orbit-averaged likelihood ratios.

For the full orthogonal group the average has a closed radial form
through the kernel ``H(t) = integral_0^pi exp(t cos u) sin^(n-2) u du``,
which is ``H(0)`` times the power series ``0F1(; n/2; t^2/4)``.  Its terms
are all positive, so ``log H`` is the series summed in log space, with no
quadrature, fit or asymptotic regime switching.  For the permutation group
the average is taken exhaustively (n <= 8), in closed form for a spike
``m = b 1 + c e_j`` (its orbit has only n points, so the average is the
O(n) sum ``(1/n) sum_k exp(c (x_k - xbar))``), or for any other ``m`` by
Monte Carlo with streaming log-sum-exp.  For the subgroup fixing a design
matrix the orthogonal computation is carried out in the residual space.  Both
orthogonal averages depend on the data only through a norm that is
chi-distributed under the null, so their null samples are drawn radially,
one chi-square variate per replicate.

The averaged ratio pins down every invariant test at once: the mean
absolute deviation of the average from 1 under the null bounds
|power - level| uniformly over invariant tests.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from ._num import logsumexp
from .models import ExpFamilySpec, MeanVector, sample_model, spike_levels
from .rng import TAG_LBAR, TAG_MODEL, TAG_ORBIT, as_generator, map_blocks, uniform_permutations
from .stats import verify_invariance

#: Largest dimension for exhaustive permutation averaging (8! = 40320).
EXHAUSTIVE_LIMIT = 8

#: Smallest dimension of the radial kernel ``H`` (the ``sin^(n-2)`` weight).
MIN_RADIAL_DIM = 3

#: Stream tag local to this module (alternative-draw side of the identity).
TAG_POWER_LHS = 14

#: Bernoulli numbers ``B_2k``, ``k = 1..7``, of the Stirling series of ``log Gamma``.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


class Group(str, enum.Enum):
    FULL_ORTHOGONAL = "full_orthogonal"
    PERMUTATION = "permutation"
    PERMUTATION_EXHAUSTIVE = "permutation_exhaustive"
    ORTHOGONAL_FIXING_DESIGN = "orthogonal_fixing_design"


@dataclass(frozen=True)
class OrbitSpec:
    """Group choice plus averaging strategy for the orbit average."""

    group: Group
    design: np.ndarray | None = None
    mc_reps: int = 10_000

    def __post_init__(self) -> None:
        object.__setattr__(self, "group", Group(self.group))
        if self.design is not None:
            design = np.atleast_2d(np.asarray(self.design, dtype=float))
            n, p = design.shape
            if p >= n:
                raise ValueError("design must have fewer columns than rows")
            if np.linalg.matrix_rank(design) < p:
                raise ValueError("design must have full column rank")
            object.__setattr__(self, "design", design)
        if self.group is Group.ORTHOGONAL_FIXING_DESIGN and self.design is None:
            raise ValueError("orthogonal_fixing_design requires a design matrix")
        if self.mc_reps < 1:
            raise ValueError("mc_reps must be positive")

    def null_orbit(self, family: ExpFamilySpec, m: MeanVector, seed: int) -> NullOrbit:
        """The group's null point and orbit average for the alternative ``m``.

        The null point is the group's own: ``mean(m) * 1`` for the permutation
        groups, the projection of ``m`` on the design's column space for the
        group fixing a design, and the origin for the full orthogonal group,
        which is the case of a design with no columns.  Raises ``ValueError``
        where the average is undefined: exhaustive averaging above
        ``n = 8``, an orthogonal group outside the normal model (its average
        is the closed form of the normal model's ratio), ``n - p < 3`` or
        ``X'm != 0``.
        """
        if self.group in (Group.PERMUTATION, Group.PERMUTATION_EXHAUSTIVE):
            if self.group is Group.PERMUTATION_EXHAUSTIVE and m.n > EXHAUSTIVE_LIMIT:
                raise ValueError(f"exhaustive averaging requires n <= {EXHAUSTIVE_LIMIT}, got {m.n}")
            null, radial = np.full(m.n, m.mean), None
            average = lambda x, b: lbar_permutation(family, m, x, self, as_generator(seed, TAG_LBAR, b))
        else:
            if family.name != "normal":
                group = self.group.value
                raise ValueError(f"the {group} average needs the normal model, got {family.name}")
            design = self.design if self.design is not None else np.empty((m.n, 0))
            q, norm_m, dof = _design_reduction(m, design)
            null, radial = q @ (q.T @ m.entries), (norm_m, dof)
            average = lambda x, b: lbar_design_orthogonal(m, design, x)
        null_m = MeanVector(null, compact_lo=m.compact_lo, compact_hi=m.compact_hi)
        return NullOrbit(family, null_m, average, seed, radial)


@dataclass(frozen=True)
class NullOrbit:
    """A group's null point and orbit average, from :meth:`OrbitSpec.null_orbit`.

    ``average(x, block)`` is ``Lbar`` on a batch ``x`` of null data drawn for
    block ``block``.  ``radial`` is ``(||m_r||, dof)`` for the orthogonal
    groups, whose average depends on null data only through the norm of its
    part off the group's fixed subspace, the square root of a chi-square with
    ``dof`` degrees of freedom; it is ``None`` for the permutation groups.
    """

    family: ExpFamilySpec
    null: MeanVector
    average: Callable[[np.ndarray, int], np.ndarray]
    seed: int
    radial: tuple[float, int] | None = None

    def draw(self, b: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Block ``b`` of null data ``x`` (stream ``(seed, TAG_MODEL, b)``) and ``Lbar(x)``."""
        x = sample_model(self.family, self.null, as_generator(self.seed, TAG_MODEL, b), reps=count)
        return x, np.asarray(self.average(x, b))

    def lbar(self, b: int, count: int) -> np.ndarray:
        """Block ``b`` of null samples of ``Lbar``, one chi-square radius per replicate where radial."""
        if self.radial is None:
            return self.draw(b, count)[1]
        norm_m, dof = self.radial
        radii = np.sqrt(as_generator(self.seed, TAG_ORBIT, b).chisquare(dof, count))
        return lbar_orthogonal_from_norms(norm_m, radii, dof)


# --------------------------------------------------------------------- #
# The radial kernel H
# --------------------------------------------------------------------- #


def _series_length(x: float, nu: float) -> int:
    """Last index ``K`` of the series for ``H(2 sqrt(x))`` at ``nu = n/2 - 1``.

    The terms ``a_k = x^k / (k! (n/2)_k)`` have ratio
    ``r_k = x / (k (k + nu))``, which falls with ``k``, so past the peak the
    tail after ``a_K`` is at most ``a_K r / (1 - r)`` with ``r = r_(K+1)``;
    ``K`` is the first index at which that bound is below ``2^-60`` of the
    partial sum.  ``a_k / S`` is an exponential family in ``log x`` with
    statistic ``k``, so the tail's share of the sum grows with ``x``: the
    length for the largest argument leaves every smaller argument a tail
    below ``2^-60`` of its sum too, far under half an ulp.
    """
    if x == 0.0:
        return 0
    log_x = math.log(x)
    k, log_a, log_s = 0, 0.0, 0.0
    while True:
        k += 1
        log_a += log_x - math.log(k * (k + nu))
        log_s = max(log_s, log_a) + math.log1p(math.exp(-abs(log_s - log_a)))
        log_r = log_x - math.log((k + 1) * (k + 1 + nu))
        if log_r < 0.0:
            log_tail = log_a + log_r - math.log1p(-math.exp(log_r))  # a_K r / (1 - r)
            if log_tail - log_s < -60.0 * math.log(2.0):
                break
    return k


def _log_h0(n: int) -> float:
    """``log H(0) = log(sqrt(pi) Gamma(a - 1/2) / Gamma(a))`` with ``a = n / 2``.

    From ``a = 30`` on, the two log-gammas (each about ``a log a``) are not
    subtracted: their difference is taken from the Stirling series,
    ``-log(a) / 2 + (a - 1) log1p(-1 / (2a)) + 1/2 +
    sum_k B_2k / (2k (2k - 1)) ((a - 1/2)^(1 - 2k) - a^(1 - 2k))``, whose
    seven terms leave a remainder far below an ulp.
    """
    a = n / 2
    if a < 30:
        return 0.5 * math.log(math.pi) + math.lgamma(a - 0.5) - math.lgamma(a)
    series = sum(
        b / (2 * k * (2 * k - 1)) * ((a - 0.5) ** (1 - 2 * k) - a ** (1 - 2 * k))
        for k, b in enumerate(_BERNOULLI, start=1)
    )
    return 0.5 * math.log(math.pi) - 0.5 * math.log(a) + (a - 1) * math.log1p(-0.5 / a) + 0.5 + series


def h_integral_log_many(ts: np.ndarray, n: int) -> np.ndarray:
    """``log H(t)`` for an array of arguments ``t >= 0`` at dimension ``n >= 3``.

    ``H(t) = H(0) sum_k (t^2/4)^k / (k! (n/2)_k)`` with
    ``H(0) = sqrt(pi) Gamma((n - 1) / 2) / Gamma(n / 2)``; the terms are
    positive, so the sum is taken as it stands, in log space, each argument
    scaled by its own largest term and summed sequentially over ``k``.  The
    terms the batch carries past an argument's own tail are below half an
    ulp of its sum, so a value does not depend on the other arguments.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if n < MIN_RADIAL_DIM:
        raise ValueError(f"n must be >= {MIN_RADIAL_DIM}")
    if np.any(ts < 0) or not np.all(np.isfinite(ts)):
        raise ValueError("t must be finite and >= 0")
    nu = n / 2 - 1
    length = _series_length(0.25 * float(ts.max(initial=0.0)) ** 2, nu)
    # log (k! (n/2)_k) for k = 1..K, a cumulative sum with each step's
    # rounding error carried along (TwoSum): it reaches ~3e4 at n = 5 and
    # t = 4096, where plain rounding costs up to 6e-11 in log H.
    ks = np.arange(1.0, length + 1.0)
    steps = np.log(ks * (ks + nu))
    log_den = np.cumsum(steps)
    prev = np.concatenate([[0.0], log_den])[:-1]
    step_part = log_den - prev
    log_den += np.cumsum((prev - (log_den - step_part)) + (steps - step_part))
    log_h0 = _log_h0(n)
    out = np.empty(ts.size)
    chunk = max(1, 2**22 // (length + 1))
    for lo in range(0, ts.size, chunk):
        with np.errstate(divide="ignore"):
            log_x = 2.0 * np.log(0.5 * ts[lo : lo + chunk])
        log_terms = np.zeros((log_x.size, length + 1))
        log_terms[:, 1:] = np.multiply.outer(log_x, ks) - log_den
        peak = log_terms.max(axis=1)
        scaled = np.cumsum(np.exp(log_terms - peak[:, None]), axis=1)[:, -1]
        out[lo : lo + chunk] = log_h0 + peak + np.log(scaled)
    return out


def h_integral_log(t: float, n: int) -> float:
    """``log H(t)`` with ``H(t) = integral_0^pi exp(t cos u) sin^(n-2) u du``."""
    return float(h_integral_log_many(np.array([t]), n)[0])


# --------------------------------------------------------------------- #
# Orbit averages
# --------------------------------------------------------------------- #


def _entries(m: MeanVector | np.ndarray) -> np.ndarray:
    return m.entries if isinstance(m, MeanVector) else np.asarray(m, dtype=float)


def lbar_orthogonal(m: MeanVector | np.ndarray, x: np.ndarray) -> np.ndarray:
    """Likelihood ratio of mean ``m`` to 0 averaged over the orthogonal group.

    Depends on the data only through its norm:
    ``exp(-||m||^2 / 2) H(||m|| ||x||) / H(0)``: the average of
    :func:`lbar_design_orthogonal` over a design with no columns.
    """
    return lbar_design_orthogonal(m, np.empty((np.shape(x)[-1], 0)), x)


def lbar_orthogonal_from_norms(
    norm_m: float, x_norms: np.ndarray, n: int
) -> np.ndarray:
    """Radial form of :func:`lbar_orthogonal` on precomputed norms."""
    x_norms = np.atleast_1d(np.asarray(x_norms, dtype=float))
    # One call for H(||m|| ||x||) and, last, H(0).
    log_h = h_integral_log_many(np.append(norm_m * x_norms, 0.0), n)
    return np.exp(log_h[:-1] - log_h[-1] - 0.5 * norm_m**2)


@lru_cache(maxsize=8)
def _all_permutations(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp)


def _perm_log_avg_exhaustive(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``log avg_P exp(w' P x)`` over all permutations, per replicate of ``x``."""
    n = w.size
    perms = _all_permutations(n)
    rows = x.reshape(-1, n)
    chunk = max(1, 2**24 // (perms.shape[0] * n))
    parts = [
        logsumexp(rows[lo : lo + chunk][:, perms] @ w, axis=-1)
        for lo in range(0, rows.shape[0], chunk)
    ]
    return (np.concatenate(parts) - math.lgamma(n + 1)).reshape(x.shape[:-1])


def _perm_log_avg_mc(
    w: np.ndarray, x: np.ndarray, mc_reps: int, rng: np.random.Generator
) -> np.ndarray:
    """Streaming Monte Carlo version of the permutation log average.

    Each block of permutations ``P`` becomes a matrix whose rows are the
    permuted weights (``w' P x = (P' w)' x``), so the block's exponents are
    one matrix product with ``x`` instead of a gather of ``x`` per permutation.
    """
    n = w.size
    x = np.atleast_2d(x)
    parts = []
    block = max(1, 2**22 // max(n * x.shape[0], 1))
    done = 0
    while done < mc_reps:
        b = min(block, mc_reps - done)
        wp = np.empty((b, n))
        np.put_along_axis(wp, uniform_permutations(rng, b, n), w, axis=1)
        dots = x @ wp.T  # (reps, b)
        parts.append(logsumexp(dots, axis=-1))
        done += b
    return logsumexp(np.stack(parts, axis=-1), axis=-1) - math.log(mc_reps)


def _spike_log_avg(c: float, x: np.ndarray) -> np.ndarray:
    """Exact ``log avg_P exp(w' P x)`` for a spike's centered weights ``w = c (e_j - 1/n)``.

    ``w' P x = c (x_k - xbar)`` with ``k`` the position ``P`` sends ``j`` to,
    uniform over the ``n`` coordinates.
    """
    return logsumexp(c * (x - x.mean(axis=-1, keepdims=True)), axis=-1) - math.log(x.shape[-1])


def _perm_log_avg(
    m: np.ndarray, x: np.ndarray, exhaustive: bool, mc_reps: int, seed: int | np.random.Generator
) -> np.ndarray:
    """``log avg_P exp((m - mbar)' P x)`` per replicate of ``x``.

    Over all permutations when ``exhaustive``; else exact over the ``n``
    orbit points of a spike ``m = b 1 + c e_j`` (found on the uncentred
    ``m``), and otherwise over ``mc_reps`` uniform permutations from the
    stream ``(seed, TAG_LBAR)``.
    """
    w = m - m.mean()
    if exhaustive:
        return _perm_log_avg_exhaustive(w, x)
    if (spike := spike_levels(m)) is not None:
        return _spike_log_avg(spike[0] - spike[1], x)
    return _perm_log_avg_mc(w, x, mc_reps, as_generator(seed, TAG_LBAR))


def lbar_permutation(
    family: ExpFamilySpec,
    m: MeanVector | np.ndarray,
    x: np.ndarray,
    spec: OrbitSpec,
    seed: int | np.random.Generator = 0,
) -> np.ndarray:
    """Likelihood ratio averaged over permutations of the alternative vector.

    ``exp(-sum(beta(m_i) - beta(mbar))) * avg_P exp((m - mbar)' P x)``,
    exhaustively for ``group=permutation_exhaustive`` (``n <= 8``).  For
    ``group=permutation`` a spike ``m = b 1 + c e_j`` takes the exact
    average over its ``n`` orbit points and draws nothing; any other ``m``
    averages over ``spec.mc_reps`` uniform permutations from the stream
    ``(seed, TAG_LBAR)``, the same ones for every replicate of ``x``.
    Accumulation is in log space.
    """
    mv = _entries(m)
    x = np.asarray(x, dtype=float)
    n = mv.size
    if x.shape[-1] != n:
        raise ValueError("dimension mismatch between m and x")
    if spec.group not in (Group.PERMUTATION, Group.PERMUTATION_EXHAUSTIVE):
        raise ValueError("spec.group must be a permutation group")
    exhaustive = spec.group is Group.PERMUTATION_EXHAUSTIVE
    if exhaustive and n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive averaging requires n <= {EXHAUSTIVE_LIMIT}")
    prefactor = -float(np.sum(family.beta(mv) - family.beta(mv.mean())))
    log_avg = _perm_log_avg(mv, x, exhaustive, spec.mc_reps, seed)
    return np.exp(prefactor + log_avg).reshape(x.shape[:-1])[()]


def _design_reduction(m: MeanVector | np.ndarray, design: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Orthonormal basis ``q`` of the design columns, ``||m_r||`` and the residual dimension ``n - p``.

    ``m_r`` is the part of ``m`` off the design columns; a design with no
    columns leaves ``m_r = m`` in dimension ``n``.  Raises unless
    ``n - p >= 3``, the design has full column rank and ``X'm = 0`` (the
    testing problem is identifiable only for such ``m``).
    """
    mv = _entries(m)
    design = np.atleast_2d(np.asarray(design, dtype=float))
    n, p = design.shape
    if n - p < MIN_RADIAL_DIM:
        if p == 0:
            raise ValueError(f"the orthogonal average requires n >= {MIN_RADIAL_DIM}, got {n}")
        raise ValueError(f"need n - p >= {MIN_RADIAL_DIM} for the residual-space average")
    q = design  # with no columns, the empty basis
    if p:
        q, r = np.linalg.qr(design)
        if np.min(np.abs(np.diag(r))) <= 1e-12 * max(n, p) * np.max(np.abs(r)):
            raise ValueError("design must have full column rank")
    scale = float(np.linalg.norm(mv))
    if float(np.linalg.norm(q.T @ mv)) > 1e-8 * max(1.0, scale):
        raise ValueError("m violates identifiability (X'm != 0)")
    return q, float(np.linalg.norm(mv - q @ (q.T @ mv))), n - p


def lbar_design_orthogonal(
    m: MeanVector | np.ndarray, x_design: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Orbit average over the orthogonal subgroup fixing the design columns.

    The computation reduces to the radial form in the ``(n - p)``-dimensional
    residual space: with ``r`` the projection of ``y`` off the design columns,
    returns ``exp(-||m_r||^2/2) H_{n-p}(||m_r|| ||r||) / H_{n-p}(0)`` where
    ``m_r`` is the residual part of ``m``.  Requires ``X'm = 0``.
    """
    q, norm_m_res, dim = _design_reduction(m, x_design)
    y = np.asarray(y, dtype=float)
    r = y - (y @ q) @ q.T
    r_norms = np.sqrt(np.sum(r * r, axis=-1))
    return lbar_orthogonal_from_norms(norm_m_res, r_norms, dim).reshape(y.shape[:-1])[()]


def perm_variance_diagnostic(
    m: MeanVector | np.ndarray, mc_reps: int = 10_000, seed: int | np.random.Generator = 0
) -> float:
    """Variance heuristic ``avg_P exp((m - mbar)' P (m - mbar)) - 1``.

    Exhaustive for ``n <= 8``; above that, exact for a spike ``m = b 1 + c e_j``
    (``e^{c^2 (1 - 1/n)} / n + (1 - 1/n) e^{-c^2/n} - 1``) and a Monte Carlo
    average over ``mc_reps`` permutations otherwise.  Reported as a
    diagnostic only; the underlying approximation cannot be made rigorous
    without extra control of the largest entries.
    """
    mv = _entries(m)
    w = mv - mv.mean()
    (log_avg,) = _perm_log_avg(mv, w[None, :], mv.size <= EXHAUSTIVE_LIMIT, mc_reps, seed)
    # An overflow is returned as inf, for the caller to refuse.
    with np.errstate(over="ignore"):
        return float(np.expm1(log_avg))


# --------------------------------------------------------------------- #
# Bounds and identities
# --------------------------------------------------------------------- #


def power_level_bound(lbar_samples: np.ndarray) -> tuple[float, float]:
    """Monte Carlo estimate (and standard error) of ``E_0 |Lbar - 1|``.

    Computed from null draws of the orbit average; bounds the power-minus-
    level gap of every test invariant under the averaging group.
    """
    samples = np.asarray(lbar_samples, dtype=float)
    if samples.size < 2:
        raise ValueError("need at least two samples for a standard error")
    dev = np.abs(samples - 1.0)
    return float(dev.mean()), float(dev.std(ddof=1) / np.sqrt(dev.size))


def null_lbar_samples(null_orbit: NullOrbit, reps: int, workers: int = 1) -> np.ndarray:
    """``reps`` null-draw samples of the orbit average ``null_orbit`` (:meth:`OrbitSpec.null_orbit`).

    The orthogonal averages (normal model only) depend on null data only
    through the norm of its part off the group's fixed subspace, the square
    root of a chi-square with ``n`` degrees of freedom for the full group and
    ``n - p`` for the group fixing a ``p``-column design.  Each replicate is
    one such chi-square draw from stream ``(seed, TAG_ORBIT, block)``.  The
    permutation averages need the whole null vector.
    """
    return np.concatenate(map_blocks(null_orbit.lbar, reps, workers=workers))


@dataclass(frozen=True)
class IdentityCheck:
    """Both sides of the covariance identity with their Monte Carlo errors."""

    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float

    @property
    def se(self) -> float:
        return float(np.hypot(self.lhs_se, self.rhs_se))

    @property
    def agrees(self) -> bool:
        return abs(self.lhs - self.rhs) <= 4.0 * self.se


def identity_check(
    family: ExpFamilySpec,
    m: MeanVector,
    statistic,
    spec: OrbitSpec,
    reps: int,
    seed: int,
    workers: int = 1,
    invariance_sampler=None,
) -> IdentityCheck:
    """Monte Carlo check of ``E_m T(X) = E_0 T(X) Lbar(X)``.

    ``statistic`` must accept a batch ``(reps, n)``.  When an
    ``invariance_sampler`` is supplied the statistic is first checked to be
    invariant under the group (the identity need not hold otherwise).  The
    null side draws whole vectors for every group, since ``T`` reads all of ``x``.
    """
    null_orbit = spec.null_orbit(family, m, seed)
    if invariance_sampler is not None:
        probe = sample_model(family, m, as_generator(seed, TAG_MODEL, 1_000_003), reps=1)[0]
        if not verify_invariance(statistic, invariance_sampler, probe, seed=seed):
            raise ValueError("statistic is not invariant under the requested group")

    def lhs_block(b: int, count: int) -> np.ndarray:
        rng = as_generator(seed, TAG_POWER_LHS, b)
        x = sample_model(family, m, rng, reps=count)
        return np.asarray(statistic(x), dtype=float)

    def rhs_block(b: int, count: int) -> np.ndarray:
        x, lbar = null_orbit.draw(b, count)
        return np.asarray(statistic(x), dtype=float) * lbar

    lhs = np.concatenate(map_blocks(lhs_block, reps, workers=workers))
    rhs = np.concatenate(map_blocks(rhs_block, reps, workers=workers))
    return IdentityCheck(
        lhs=float(lhs.mean()),
        lhs_se=float(lhs.std(ddof=1) / np.sqrt(lhs.size)),
        rhs=float(rhs.mean()),
        rhs_se=float(rhs.std(ddof=1) / np.sqrt(rhs.size)),
    )
