"""Permutation and bootstrap law machinery.

Empirical laws of the contrast ``m' P x`` under random permutations, of
its with-replacement (bootstrap) analogue, and of the fresh-draw target,
with the Wasserstein-type metric ``rho2`` and the Kolmogorov metric
``rho0``, characteristic functions, a with/without-replacement coupling
with the second-moment bound check, and the convergence sweeps tying
them together.

Coupling construction: both index samples are driven by one array of
iid uniforms U_i on the values of ``x`` sorted in increasing order.  The
without-replacement sample reads the value at the rank of U_i; the
with-replacement sample reads the value at position ``ceil(n U_i)``.
Ranks track ``n U_i`` within an empirical-process fluctuation, which is
what makes the weighted sums close for centered weights.

Every law runs in bounded memory.  A 1024-replicate block is the stream
unit, and each block is drawn and reduced in row chunks of a fixed element
budget (:func:`invlab.rng.row_chunks`), one after another from the
block's generator, which changes no stream.  The coupling draws its
chunks into buffers it allocates once per block and writes each chunk's
contrasts into the block's result arrays.  It orders each row of
uniforms by one sort of ``int64`` keys (value bits above the column index)
instead of an argsort, which gives the same order, and inverts the order
into ranks by one 1-D scatter per row.

A spike contrast ``m = b 1 + (a - b) e_j`` (two distinct values, one of
them on the single coordinate ``j``) takes a reduced route for the
permutation and fresh-draw laws: each replicate draws one index or one
pair of sums, not a length-``n`` vector, on the stream
``(seed, TAG_SUFFICIENT, tag, *stream, block)``.  The route follows from
``m`` alone (:func:`invlab.models.spike_levels`, which the exact spike
orbit average of :mod:`invlab.orbit` shares).  Its bootstrap law takes the
same kind of route where ``x`` has ``k`` distinct values with
``k^2 <= n`` (lattice data): one index and one multinomial count vector
over the values per replicate, on ``(seed, TAG_SUFFICIENT, TAG_BOOT_LAW,
*stream, block)``.  Every other contrast, and the bootstrap on data with
more distinct values, reads whole vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .experiments import NULL, FamilyModel, _draw_passes, _Pass
from .models import ExpFamilySpec, spike_levels
from .rng import (
    TAG_BOOT_LAW,
    TAG_COUPLING,
    TAG_IID_LAW,
    TAG_MODEL,
    TAG_PERM_LAW,
    TAG_SUFFICIENT,
    as_generator,
    map_blocks,
    row_chunks,
    uniform_permutations,
)

#: Quantile-grid size for rho2 between unequal-size samples.
RHO2_QUANTILES = 2048

#: Batches used for replicate-level standard errors in sweeps.
SWEEP_BATCHES = 20


# --------------------------------------------------------------------- #
# Empirical laws and metrics
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class EmpiricalLaw:
    """A sorted sample standing in for the law of a real statistic."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.sort(np.asarray(self.values, dtype=float).ravel())
        if values.size == 0:
            raise ValueError("law must contain at least one value")
        if not np.all(np.isfinite(values)):
            raise ValueError("law values must be finite")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size

    @property
    def mean(self) -> float:
        return float(self.values.mean())


def _law_values(a: EmpiricalLaw | np.ndarray) -> np.ndarray:
    if isinstance(a, EmpiricalLaw):
        return a.values
    v = np.sort(np.asarray(a, dtype=float).ravel())
    if v.size == 0:
        raise ValueError("law must contain at least one value")
    return v


def rho2(a: EmpiricalLaw | np.ndarray, b: EmpiricalLaw | np.ndarray) -> float:
    """Order-2 Wasserstein distance between two one-dimensional samples.

    Equal sizes use the exact sorted pairing; otherwise both laws are read
    at a common grid of ``RHO2_QUANTILES`` midpoint quantile levels.
    """
    av, bv = _law_values(a), _law_values(b)
    if av.size == bv.size:
        return float(np.sqrt(np.mean((av - bv) ** 2)))
    q = (np.arange(RHO2_QUANTILES) + 0.5) / RHO2_QUANTILES
    aq = np.quantile(av, q)
    bq = np.quantile(bv, q)
    return float(np.sqrt(np.mean((aq - bq) ** 2)))


def rho0(a: EmpiricalLaw | np.ndarray, b: EmpiricalLaw | np.ndarray) -> float:
    """Kolmogorov (sup-CDF) distance between two empirical laws."""
    av, bv = _law_values(a), _law_values(b)
    grid = np.concatenate([av, bv])
    fa = np.searchsorted(av, grid, side="right") / av.size
    fb = np.searchsorted(bv, grid, side="right") / bv.size
    return float(np.max(np.abs(fa - fb)))


def cf_inequality_check(
    w: np.ndarray, wprime: np.ndarray, t: float
) -> bool:
    """Check ``|cf(W,t) - cf(W',t)| <= t^2 E (W-W')^2 + |t| sqrt(E (W-W')^2)``.

    ``w`` and ``wprime`` must be paired (same replicate order); all three
    terms are empirical means over the pairs.  The inequality is a theorem,
    so a ``False`` here indicates a bug upstream.
    """
    w = np.asarray(w, dtype=float)
    wprime = np.asarray(wprime, dtype=float)
    if w.shape != wprime.shape:
        raise ValueError("paired samples must have identical shape")
    lhs = abs(np.mean(np.exp(1j * t * w)) - np.mean(np.exp(1j * t * wprime)))
    m2 = float(np.mean((w - wprime) ** 2))
    rhs = t * t * m2 + abs(t) * np.sqrt(m2)
    return bool(lhs <= rhs + 1e-12)


# --------------------------------------------------------------------- #
# Permutation and bootstrap laws
# --------------------------------------------------------------------- #


def perm_law_moments(m: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """Exact mean and variance of ``m' P x`` under a uniform permutation."""
    m = np.asarray(m, dtype=float)
    x = np.asarray(x, dtype=float)
    n = m.size
    if n < 2 or x.size != n:
        raise ValueError("need matching vectors of length >= 2")
    mean = n * m.mean() * x.mean()
    var = float(np.sum((m - m.mean()) ** 2) * np.sum((x - x.mean()) ** 2) / (n - 1))
    return float(mean), var


def sample_perm_law(
    m: np.ndarray,
    x: np.ndarray,
    reps: int,
    seed: int,
    workers: int = 1,
    stream: tuple[int, ...] = (),
) -> EmpiricalLaw:
    """``reps`` draws of ``m' P x`` over uniform random permutations.

    For a spike ``m = b 1 + (a - b) e_j`` the contrast is
    ``(a - b) x_J + b sum(x)`` with ``J`` uniform on ``{0..n-1}``: one index
    per replicate, on the stream ``(seed, TAG_SUFFICIENT, TAG_PERM_LAW,
    *stream, block)``.
    """
    m = np.asarray(m, dtype=float)
    x = np.asarray(x, dtype=float)
    if m.size != x.size:
        raise ValueError("m and x must have the same length")

    spike = spike_levels(m)
    if spike is not None:
        a, b = spike
        total = b * x.sum()
        return EmpiricalLaw(
            _chunked_law(
                (TAG_SUFFICIENT, TAG_PERM_LAW, *stream), reps, seed, workers, 1,
                lambda rng, c: (a - b) * x[rng.integers(0, m.size, size=c)] + total,
            )
        )
    return EmpiricalLaw(
        _chunked_law(
            (TAG_PERM_LAW, *stream), reps, seed, workers, m.size,
            lambda rng, c: x[uniform_permutations(rng, c, m.size)] @ m,
        )
    )


def sample_boot_law(
    m: np.ndarray,
    x: np.ndarray,
    reps: int,
    seed: int,
    workers: int = 1,
    stream: tuple[int, ...] = (),
) -> EmpiricalLaw:
    """``reps`` draws of ``sum_i m_i x(J*_i)`` with iid uniform indices.

    For a spike ``m = b 1 + (a - b) e_j`` on data with ``k`` distinct values
    ``v``, ``k^2 <= n`` (:func:`_value_counts`), the contrast is
    ``a x_J + b N'v`` with ``J`` uniform on ``{0..n-1}`` and ``N`` the
    multinomial ``(n - 1, c / n)`` counts of the values, ``c`` their counts
    in ``x``: one index and one count vector per replicate (a row chunk
    draws its indices, then its count vectors), on the stream
    ``(seed, TAG_SUFFICIENT, TAG_BOOT_LAW, *stream, block)``.  Any other
    contrast or data draws ``n`` indices per replicate.
    """
    m = np.asarray(m, dtype=float)
    x = np.asarray(x, dtype=float)
    if m.size != x.size:
        raise ValueError("m and x must have the same length")

    spike = spike_levels(m)
    lattice = _value_counts(x) if spike is not None else None
    if lattice is not None:
        (a, b), (values, freqs) = spike, lattice

        def spike_values(rng: np.random.Generator, c: int) -> np.ndarray:
            own = x[rng.integers(0, x.size, size=c)]
            rest = rng.multinomial(x.size - 1, freqs, size=c) @ values
            return a * own + b * rest

        return EmpiricalLaw(
            _chunked_law(
                (TAG_SUFFICIENT, TAG_BOOT_LAW, *stream), reps, seed, workers, values.size,
                spike_values,
            )
        )
    return EmpiricalLaw(
        _chunked_law(
            (TAG_BOOT_LAW, *stream), reps, seed, workers, m.size,
            lambda rng, c: x[rng.integers(0, m.size, size=(c, m.size))] @ m,
        )
    )


def _value_counts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The distinct values of ``x`` and their frequencies, or ``None`` above ``sqrt(n)`` values.

    A bootstrap replicate draws ``k - 1`` binomial counts over ``k`` values,
    against ``n`` indices for the whole vector.  Lattice data keep ``k``
    small (Poisson at the null about 5 to 9, Bernoulli 2); continuous data
    have ``k = n``.
    """
    values, counts = np.unique(x, return_counts=True)
    if values.size**2 > x.size:
        return None
    return values, counts / x.size


def _iid_law(
    null_sampler: Callable[[int, int, np.random.Generator], np.ndarray],
    m: np.ndarray,
    reps: int,
    seed: int,
    workers: int = 1,
    stream: tuple[int, ...] = (),
) -> np.ndarray:
    """``reps`` fresh-draw values of ``m' x``, in replicate order.

    ``null_sampler(n, count, rng)`` draws the ``(count, n)`` rows ``x``.
    """
    return _chunked_law(
        (TAG_IID_LAW, *stream), reps, seed, workers, m.size,
        lambda rng, c: null_sampler(m.size, c, rng) @ m,
    )


def _iid_spike_law(
    family: ExpFamilySpec,
    spike: tuple[float, float],
    n: int,
    reps: int,
    seed: int,
    workers: int = 1,
    stream: tuple[int, ...] = (),
) -> np.ndarray:
    """``reps`` fresh-draw values of ``m' x`` for the spike ``(a, b)`` of :func:`~invlab.models.spike_levels`.

    ``m' x = a x_j + b S`` with ``S`` the sum of the other ``n - 1`` null
    coordinates; the pair ``(x_j, S)`` is drawn from the family's
    convolution law at the null parameter 0, on the stream
    ``(seed, TAG_SUFFICIENT, TAG_IID_LAW, *stream, block)``.
    """
    sizes = np.array([1, n - 1])
    return _chunked_law(
        (TAG_SUFFICIENT, TAG_IID_LAW, *stream), reps, seed, workers, 2,
        lambda rng, c: family.convolution(rng, 0.0, sizes, (c, 2)) @ np.array(spike),
    )


def _chunked_law(
    tags: tuple[int, ...],
    reps: int,
    seed: int,
    workers: int,
    row_size: int,
    values: Callable[[np.random.Generator, int], np.ndarray],
) -> np.ndarray:
    """``values(rng, c)`` over the row chunks of every block, in replicate order.

    Block ``b`` reads the stream ``(seed, *tags, b)``; ``values`` draws ``c``
    replicates of ``row_size`` elements each from ``rng`` and reduces them.
    """
    chunks = lambda count, rng: (values(rng, c) for c in row_chunks(count, row_size))
    return _draw_passes([_Pass(chunks, {"law": np.asarray}, reps, seed, tags)], workers)["law"]


# --------------------------------------------------------------------- #
# Coupling
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class CouplingResult:
    """Coupled draws plus the empirical second-moment bound check."""

    without_repl: np.ndarray
    with_repl: np.ndarray
    matched: np.ndarray
    s: float
    bound: float
    gap_sq_mean: float
    gap_sq_se: float

    @property
    def bound_holds(self) -> bool:
        return self.gap_sq_mean <= self.bound + 4.0 * self.gap_sq_se


#: Value bits of a uniform from ``Generator.random``: ``u = k 2^-53``, ``k < 2^53``.
_UNIFORM_BITS = 53
#: Bits a key has room for above the 53 value bits of ``k`` in an ``int64``.
_KEY_SPARE_BITS = 63 - _UNIFORM_BITS


def _uniform_order(u: np.ndarray, keys: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``np.argsort(u, axis=1)`` for uniforms of ``Generator.random``, from one integer sort.

    Each ``int64`` key packs the top bits of ``k = u 2^53`` above the ``b``
    bits of its column index, ``b = bit_length(n - 1)``: one cast of
    ``u 2^(53 + min(b, 10))``, whose low ``b`` bits are cleared and take the
    column.  A key keeps all 53 value bits up to ``n = 1024`` and ``63 - b``
    above, so sorting a row of keys sorts it by value and the low bits read
    off the order.  That is the argsort order unless two uniforms of a row
    share their kept bits (equal, or equal but for the dropped bits: about
    9e-8 per row at ``n = 10^4``); such a chunk is sorted by ``np.argsort``
    instead.  ``keys`` (``int64``) holds the result, and ``scratch``
    (``int64``, the shape of ``u``) is overwritten.
    """
    n = u.shape[1]
    bits = (n - 1).bit_length()
    column = (1 << bits) - 1
    np.multiply(u, 2.0 ** (_UNIFORM_BITS + min(bits, _KEY_SPARE_BITS)), out=keys, casting="unsafe")
    keys &= ~column
    keys |= np.arange(n)
    keys.sort(axis=1)
    # Adjacent keys share their value bits where their XOR fits in the column bits.
    np.bitwise_xor(keys[:, 1:], keys[:, :-1], out=scratch[:, 1:])
    if scratch[:, 1:].min() <= column:
        return np.argsort(u, axis=1)
    keys &= column
    return keys


def _coupled_block(
    sorted_x: np.ndarray, m: np.ndarray, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` coupled replicates: without- and with-replacement contrasts and matched positions.

    Drawn in the row chunks of :func:`invlab.rng.row_chunks` into buffers
    allocated once per block: the uniforms ``u``, the sort keys, the ranks
    and the matches.  ``u`` is read by the sort and the quantile positions
    and then holds the gathered values; the keys hold the sort order and,
    once it is inverted into the ranks, the quantile positions ``star``.
    """
    n = m.size
    sizes = row_chunks(count, n)
    u = np.empty((sizes[0], n))
    keys = np.empty((sizes[0], n), dtype=np.int64)
    ranks = np.empty((sizes[0], n), dtype=np.intp)
    hits = np.empty((sizes[0], n), dtype=bool)
    positions = np.arange(n)
    without, with_r = np.empty(count), np.empty(count)
    matched = np.empty(count, dtype=np.int_)
    lo = 0
    for c in sizes:
        rows, uc, kc, rc = slice(lo, lo + c), u[:c], keys[:c], ranks[:c]
        rng.random(out=uc)
        # Ranks invert the sorting order, one row at a time.
        for rank_row, order_row in zip(rc, _uniform_order(uc, kc, rc.view(np.int64))):
            rank_row[order_row] = positions
        star = kc.view(np.intp)
        np.multiply(uc, n, out=uc)
        np.copyto(star, uc, casting="unsafe")  # truncation: floor(n u)
        np.minimum(star, n - 1, out=star)
        np.sum(np.equal(rc, star, out=hits[:c]), axis=1, out=matched[rows])
        np.matmul(np.take(sorted_x, rc, out=uc, mode="clip"), m, out=without[rows])
        np.matmul(np.take(sorted_x, star, out=uc, mode="clip"), m, out=with_r[rows])
        lo += c
    return without, with_r, matched


def hajek_coupling(
    m: np.ndarray,
    x: np.ndarray,
    reps: int,
    seed: int,
    workers: int = 1,
) -> CouplingResult:
    """Coupled draws of the contrast under sampling without and with replacement.

    Requires centered weights (``mean(m) = 0``).  The result records whether
    the empirical ``E (W - W')^2`` satisfies the theoretical bound
    ``3 s max|x_i - xbar| / sqrt(n - 1)`` up to 4 Monte Carlo standard errors.
    Both samples are driven by shared uniforms as described in the module
    docstring.
    """
    m = np.asarray(m, dtype=float)
    x = np.asarray(x, dtype=float)
    n = m.size
    if x.size != n or n < 2:
        raise ValueError("need matching vectors of length >= 2")
    if abs(m.mean()) > 1e-10:
        raise ValueError("weights must be centered (mean zero)")
    if reps < 2:
        raise ValueError("need reps >= 2 for the standard error of the squared gap")
    sorted_x = np.sort(x)

    def block(b: int, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _coupled_block(sorted_x, m, count, as_generator(seed, TAG_COUPLING, b))

    parts = map_blocks(block, reps, workers=workers)
    without, with_r, matched = (np.concatenate(arrays) for arrays in zip(*parts))
    _, s_sq = perm_law_moments(m, x)
    s = float(np.sqrt(s_sq))
    bound = float(3.0 * s * np.max(np.abs(x - x.mean())) / np.sqrt(n - 1))
    gap_sq = (without - with_r) ** 2
    return CouplingResult(
        without_repl=without,
        with_repl=with_r,
        matched=matched,
        s=s,
        bound=bound,
        gap_sq_mean=float(gap_sq.mean()),
        gap_sq_se=float(gap_sq.std(ddof=1) / np.sqrt(reps)),
    )


# --------------------------------------------------------------------- #
# Convergence sweeps
# --------------------------------------------------------------------- #


def _batched(values: np.ndarray, batches: int = SWEEP_BATCHES) -> list[np.ndarray]:
    """Contiguous slices of the rows of ``values``: ``batches`` of them, fewer below ``2 batches`` rows."""
    batches = max(2, min(batches, len(values) // 2))
    size = len(values) // batches
    return [values[i * size : (i + 1) * size] for i in range(batches)]


def _distance_with_se(
    a: np.ndarray, b: np.ndarray, dist: Callable[[np.ndarray, np.ndarray], float]
) -> tuple[float, float]:
    """``dist(a, b)`` and the standard error of ``dist`` over the batches of :func:`_batched`."""
    if len(a) < 4:
        raise ValueError("need at least 4 replicates for two batches of two")
    batch_vals = [dist(ab, bb) for ab, bb in zip(_batched(a), _batched(b))]
    se = float(np.std(batch_vals, ddof=1) / np.sqrt(len(batch_vals)))
    return float(dist(a, b)), se


def _law_distances(
    perm: np.ndarray, boot: np.ndarray, iid: np.ndarray, dist: Callable[[np.ndarray, np.ndarray], float]
) -> dict[str, float]:
    """``rho2_<pair>`` and ``se_rho2_<pair>``: ``dist`` and its standard error per pair of laws.

    The pairs are perm-boot, boot-iid and perm-iid, in that order.
    """
    pairs = {"perm_boot": (perm, boot), "boot_iid": (boot, iid), "perm_iid": (perm, iid)}
    columns = {}
    for pair, (a, b) in pairs.items():
        columns[f"rho2_{pair}"], columns[f"se_rho2_{pair}"] = _distance_with_se(a, b, dist)
    return columns


def theorem_convergence_sweep(
    model: FamilyModel,
    m_builder: Callable[[int], np.ndarray],
    n_grid: Sequence[int],
    reps: int,
    seed: int,
    workers: int = 1,
) -> list[dict]:
    """Distances between the permutation, bootstrap, and fresh-draw laws.

    The data are ``model``'s null draws (the conditioning vector ``x`` is the
    one row of a ``reps = 1`` draw); ``m_builder(n)`` yields the centered
    contrast weights.  Per grid point: rho2 between each pair of laws, with
    batched standard errors, plus the diagnostic ``|n mbar xbar|``.  A spike
    contrast on an exponential family draws its fresh-draw law from
    :func:`_iid_spike_law`, any other from whole null vectors.  A spike's
    permutation law draws one index per replicate, and its bootstrap law one
    index and one count vector where ``x`` has ``k^2 <= n`` distinct values
    (:func:`sample_boot_law`); that route moves only the four bootstrap
    columns ``rho2_perm_boot``, ``se_rho2_perm_boot``, ``rho2_boot_iid`` and
    ``se_rho2_boot_iid`` off the vector bootstrap stream.
    """
    rows = []
    for gi, n in enumerate(n_grid):
        null = model.at(int(n), NULL, seed)
        m = np.asarray(m_builder(int(n)), dtype=float)
        x = null.sample(1, as_generator(seed, TAG_MODEL, gi))[0]
        perm = sample_perm_law(m, x, reps, seed, workers=workers, stream=(gi,)).values
        boot = sample_boot_law(m, x, reps, seed, workers=workers, stream=(gi,)).values
        spike = spike_levels(m)
        if spike is not None and isinstance(model.family, ExpFamilySpec):
            iid = _iid_spike_law(model.family, spike, m.size, reps, seed, workers=workers, stream=(gi,))
        else:
            null_sampler = lambda _, count, rng: null.sample(count, rng)
            iid = _iid_law(null_sampler, m, reps, seed, workers=workers, stream=(gi,))
        # EmpiricalLaw sorts its values, so each of the SE batches of perm
        # and boot is a quantile slice, not a random subset of replicates:
        # the se_* columns are the spread of rho2 over those slices.
        distances = _law_distances(perm, boot, iid, rho2)
        rows.append({"n": int(n), **distances, "diag_nmx": float(abs(n * m.mean() * x.mean()))})
    return rows


def rho2_multivariate(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean combination of coordinatewise quantile distances.

    Practical surrogate for the multivariate Wasserstein metric; exact
    optimal transport is out of scope.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ValueError("coordinate counts must match")
    return float(np.sqrt(sum(rho2(a[:, j], b[:, j]) ** 2 for j in range(a.shape[1]))))


def theorem_convergence_sweep_matrix(
    row_sampler: Callable[[int, int, np.random.Generator], np.ndarray],
    m_builder: Callable[[int], np.ndarray],
    n_grid: Sequence[int],
    reps: int,
    seed: int,
    workers: int = 1,
) -> list[dict]:
    """Multivariate (column-wise contrast) version of the convergence sweep.

    ``row_sampler(n, reps, rng)`` draws ``(reps, n, pi)`` arrays of iid rows;
    ``m_builder(n)`` yields an ``n x pi`` weight matrix with centered columns.
    The permutation law applies one shared row permutation to every column.
    """
    rows = []
    for gi, n in enumerate(n_grid):
        n = int(n)
        mm = np.asarray(m_builder(n), dtype=float)
        x = row_sampler(n, 1, as_generator(seed, TAG_MODEL, gi))[0]

        def law(tag: int, draw: Callable[[np.random.Generator, int], np.ndarray]) -> np.ndarray:
            return _chunked_law(
                (tag, gi), reps, seed, workers, mm.size,
                lambda rng, c: np.einsum("rnj,nj->rj", draw(rng, c), mm),
            )

        perm = law(TAG_PERM_LAW, lambda rng, c: x[uniform_permutations(rng, c, n)])
        boot = law(TAG_BOOT_LAW, lambda rng, c: x[rng.integers(0, n, size=(c, n))])
        iid = law(TAG_IID_LAW, lambda rng, c: row_sampler(n, c, rng))
        rows.append({"n": n, **_law_distances(perm, boot, iid, rho2_multivariate)})
    return rows
