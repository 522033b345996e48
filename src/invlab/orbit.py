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
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Hashable

import numpy as np

from ._num import logsumexp, mean_se, norm
from .models import ExpFamilySpec, MeanVector, sample_model, spike_levels
from .rng import TAG_LBAR, TAG_MODEL, TAG_ORBIT, Pass, draw_passes, spawn_generator, uniform_permutations

#: Largest dimension for exhaustive permutation averaging (8! = 40320).
EXHAUSTIVE_LIMIT = 8

#: Smallest dimension of the radial kernel ``H`` (the ``sin^(n-2)`` weight).
MIN_RADIAL_DIM = 3

#: Elements of one chunk of the ``log H`` kernel.
LOG_H_CHUNK = 2**22

#: A null radius, the norm of a standard normal vector in ``d`` dimensions, is
#: 1-Lipschitz with mean below ``sqrt(d)``, so it exceeds ``sqrt(d) + s`` with
#: probability below ``exp(-s^2 / 2)``; this ``s`` makes that ``2^-60``, the
#: share of a sum the ``log H`` series leaves in its tail.
RADIUS_SLACK = math.sqrt(120.0 * math.log(2.0))

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
    """Group choice plus averaging strategy for the orbit average.

    ``design`` is the matrix whose columns ``orthogonal_fixing_design``
    fixes; that group needs one and no other group takes one.  Its shape
    and rank are checked by :meth:`null_orbit`.
    """

    group: Group
    design: np.ndarray | None = None
    mc_reps: int = 10_000

    def __post_init__(self) -> None:
        object.__setattr__(self, "group", Group(self.group))
        if (self.group is Group.ORTHOGONAL_FIXING_DESIGN) != (self.design is not None):
            raise ValueError("a design matrix goes with orthogonal_fixing_design and no other group")
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
        is the closed form of the normal model's ratio), ``n - p < 3``, a
        design short of full column rank, ``X'm != 0`` or an ``||m||`` past
        the ``log H`` limit (:func:`max_log_h_argument`) at the null radius
        bound.
        """
        if self.group in (Group.PERMUTATION, Group.PERMUTATION_EXHAUSTIVE):
            if self.group is Group.PERMUTATION_EXHAUSTIVE and m.n > EXHAUSTIVE_LIMIT:
                raise ValueError(f"exhaustive averaging requires n <= {EXHAUSTIVE_LIMIT}, got {m.n}")
            null, radial = np.full(m.n, m.mean), None
            average = lambda x, b: lbar_permutation(family, m, x, self, spawn_generator(seed, TAG_LBAR, b))
        else:
            if family.name != "normal":
                group = self.group.value
                raise ValueError(f"the {group} average needs the normal model, got {family.name}")
            design = self.design if self.design is not None else np.empty((m.n, 0))
            q, norm_m, dof = _design_reduction(m, design)
            _check_radial_size(norm_m, dof)
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

    def lbar_pass(self, reps: int, reads: dict[Hashable, Callable]) -> Pass:
        """``reads`` of ``reps`` null replicates, each a row that ends in its ``Lbar``.

        A radial row is ``Lbar`` alone: block ``b`` is one ``chisquare(dof,
        count)`` draw of radii on ``(seed, TAG_ORBIT, b)``.  Any other row is
        a null vector ``x`` and ``Lbar(x)``: block ``b`` is one chunk, drawn
        on ``(seed, TAG_MODEL, b)`` and averaged whole.
        """
        if self.radial is not None:
            norm_m, dof = self.radial
            radii = lambda rng, count: np.sqrt(rng.chisquare(dof, count))
            chunks = lambda count, rng, _: [lbar_orthogonal_from_norms(norm_m, radii(rng, count), dof)[:, None]]
            return Pass(chunks, reads, reps, self.seed, (TAG_ORBIT,))

        def chunks(count: int, rng: np.random.Generator, b: int) -> list[np.ndarray]:
            x = sample_model(self.family, self.null, rng, reps=count)
            return [np.column_stack([x, self.average(x, b)])]

        return Pass(chunks, reads, reps, self.seed, (TAG_MODEL,), self.null.n)


#: The read of :meth:`NullOrbit.lbar_pass` that names ``Lbar``, its rows' last entry.
LBAR = itemgetter((slice(None), -1))


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


def max_log_h_argument(n: int) -> float:
    """Largest ``t`` at which the ``log H`` series peaks within the ``LOG_H_CHUNK - 1`` terms a chunk holds.

    The term ratio ``r_k`` falls through 1 at ``k (k + nu) = t^2 / 4``, so
    past ``t = 2 sqrt(K (K + nu))`` with ``K = LOG_H_CHUNK - 1`` the terms
    still grow at index ``K``: one argument's series outgrows a chunk, and
    :func:`_series_length` takes about ``t / 2`` steps to find its length.
    """
    k = LOG_H_CHUNK - 1
    return 2.0 * math.sqrt(k * (k + n / 2 - 1))


def _check_radial_size(norm_m: float, dof: int) -> None:
    """Refuse an ``||m||`` whose ``log H`` arguments at the null radius bound pass :func:`max_log_h_argument`."""
    limit = max_log_h_argument(dof) / (math.sqrt(dof) + RADIUS_SLACK)
    if not norm_m <= limit:
        raise ValueError(
            f"||m|| = {norm_m:.6g} is past the log H limit {limit:.6g} in dimension {dof} "
            f"(at a null radius of sqrt({dof}) + {RADIUS_SLACK:.3g}, the series would outgrow "
            f"one {LOG_H_CHUNK}-element chunk)"
        )


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
    t_top = float(ts.max(initial=0.0))
    if t_top > max_log_h_argument(n):
        raise ValueError(f"t must be <= {max_log_h_argument(n):.6g} at n = {n}")
    nu = n / 2 - 1
    length = _series_length(0.25 * t_top**2, nu)
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
    chunk = max(1, LOG_H_CHUNK // (length + 1))
    # One buffer for every chunk, its head reshaped to (K + 1, arguments):
    # log term k of each argument in row k, then its exponential scaled by
    # the argument's peak, then the running sum over k.
    buf = np.empty((length + 1) * min(chunk, ts.size))
    for lo in range(0, ts.size, chunk):
        with np.errstate(divide="ignore"):
            log_x = 2.0 * np.log(0.5 * ts[lo : lo + chunk])
        terms = buf[: (length + 1) * log_x.size].reshape(length + 1, log_x.size)
        terms[0] = 0.0
        np.multiply.outer(ks, log_x, out=terms[1:])
        np.subtract(terms[1:], log_den[:, None], out=terms[1:])
        peak = terms.max(axis=0)
        np.subtract(terms, peak, out=terms)
        np.exp(terms, out=terms)
        np.cumsum(terms, axis=0, out=terms)
        out[lo : lo + chunk] = log_h0 + peak + np.log(terms[-1])
    return out


def h_integral_log(t: float, n: int) -> float:
    """``log H(t)`` with ``H(t) = integral_0^pi exp(t cos u) sin^(n-2) u du``."""
    return float(h_integral_log_many(np.array([t]), n)[0])


# --------------------------------------------------------------------- #
# Orbit averages
# --------------------------------------------------------------------- #


def lbar_orthogonal(m: MeanVector, x: np.ndarray) -> np.ndarray:
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
    m: np.ndarray, x: np.ndarray, exhaustive: bool, mc_reps: int, rng: np.random.Generator
) -> np.ndarray:
    """``log avg_P exp((m - mbar)' P x)`` per replicate of ``x``.

    Over all permutations when ``exhaustive``; else exact over the ``n``
    orbit points of a spike ``m = b 1 + c e_j`` (found on the uncentred
    ``m``), and otherwise over ``mc_reps`` uniform permutations from ``rng``.
    """
    w = m - m.mean()
    if exhaustive:
        return _perm_log_avg_exhaustive(w, x)
    if (spike := spike_levels(m)) is not None:
        return _spike_log_avg(spike[0] - spike[1], x)
    return _perm_log_avg_mc(w, x, mc_reps, rng)


def lbar_permutation(
    family: ExpFamilySpec,
    m: MeanVector,
    x: np.ndarray,
    spec: OrbitSpec,
    rng: np.random.Generator,
) -> np.ndarray:
    """Likelihood ratio averaged over permutations of the alternative vector.

    ``exp(-sum(beta(m_i) - beta(mbar))) * avg_P exp((m - mbar)' P x)``,
    exhaustively for ``group=permutation_exhaustive`` (``n <= 8``).  For
    ``group=permutation`` a spike ``m = b 1 + c e_j`` takes the exact
    average over its ``n`` orbit points and draws nothing; any other ``m``
    averages over ``spec.mc_reps`` uniform permutations from ``rng``, the
    same ones for every replicate of ``x``.  Accumulation is in log space.
    """
    mv = m.entries
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
    log_avg = _perm_log_avg(mv, x, exhaustive, spec.mc_reps, rng)
    return np.exp(prefactor + log_avg).reshape(x.shape[:-1])[()]


def _design_reduction(m: MeanVector, design: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Orthonormal basis ``q`` of the design columns, ``||m_r||`` and the residual dimension ``n - p``.

    ``m_r`` is the part of ``m`` off the design columns; a design with no
    columns leaves ``m_r = m`` in dimension ``n``.  Raises unless
    ``n - p >= 3``, the design has full column rank and ``X'm = 0`` (the
    testing problem is identifiable only for such ``m``).
    """
    mv = m.entries
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
    scale = norm(mv)
    if norm(q.T @ mv) > 1e-8 * max(1.0, scale):
        raise ValueError("m violates identifiability (X'm != 0)")
    return q, norm(mv - q @ (q.T @ mv)), n - p


def lbar_design_orthogonal(
    m: MeanVector, x_design: np.ndarray, y: np.ndarray
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


def perm_variance_diagnostic(m: MeanVector, mc_reps: int, rng: np.random.Generator) -> float:
    """Variance heuristic ``avg_P exp((m - mbar)' P (m - mbar)) - 1``.

    Exhaustive for ``n <= 8``; above that, exact for a spike ``m = b 1 + c e_j``
    (``e^{c^2 (1 - 1/n)} / n + (1 - 1/n) e^{-c^2/n} - 1``) and a Monte Carlo
    average over ``mc_reps`` permutations from ``rng`` otherwise.  Reported as a
    diagnostic only; the underlying approximation cannot be made rigorous
    without extra control of the largest entries.
    """
    mv = m.entries
    w = mv - mv.mean()
    (log_avg,) = _perm_log_avg(mv, w[None, :], mv.size <= EXHAUSTIVE_LIMIT, mc_reps, rng)
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
    return mean_se(np.abs(samples - 1.0))


def null_lbar_samples(null_orbit: NullOrbit, reps: int, workers: int = 1) -> np.ndarray:
    """``reps`` null samples of the orbit average of ``null_orbit`` (:meth:`NullOrbit.lbar_pass`)."""
    return draw_passes([null_orbit.lbar_pass(reps, {"lbar": LBAR})], workers)["lbar"]


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
) -> IdentityCheck:
    """Monte Carlo check of ``E_m T(X) = E_0 T(X) Lbar(X)``.

    ``statistic`` must accept a batch ``(reps, n)`` and be invariant under
    the group (the identity need not hold otherwise).  The null side draws
    whole vectors for every group, radial or not, since ``T`` reads all of
    ``x``.
    """
    null_orbit = spec.null_orbit(family, m, seed)
    # Both sides read whole blocks: the lhs at ``m`` on ``(seed, TAG_POWER_LHS, b)``.
    lhs_chunks = lambda count, rng, _: [sample_model(family, m, rng, reps=count)]
    rhs = lambda c: np.asarray(statistic(c[:, :-1]), dtype=float) * c[:, -1]
    lhs = Pass(lhs_chunks, {"lhs": statistic}, reps, seed, (TAG_POWER_LHS,), m.n)
    values = draw_passes([lhs, replace(null_orbit, radial=None).lbar_pass(reps, {"rhs": rhs})], workers)
    return IdentityCheck(*mean_se(values["lhs"]), *mean_se(values["rhs"]))
