"""Samplers and reference forms that only the tests read.

:func:`verify_invariance` checks that a statistic is unchanged by group
elements drawn from a sampler, and :func:`permutation_sampler`,
:func:`haar_orthogonal` and :func:`haar_orthogonal_fixing_design` are the
samplers the tests pass it.  :func:`one_shot_laws` draws the
permutation-CLT laws one whole block at a time, the reference for the
row-chunked laws, and :func:`one_shot_boot` is its bootstrap law for any
contrast and data; :func:`one_shot_coupling` is the coupling with every
array of a row chunk allocated afresh, the reference for the buffered
coupling kernel; and :func:`one_shot_spacings_alternative` is the reference
for the chunked spacings rejection sampler, which
:func:`profile_from_callable` feeds profiles with no certified sup.
:func:`allocating_log_h` is the reference for the radial kernel's reused
buffer.  :func:`trend_slope` is the slope test of the sweeps' "no positive
growth" checks, and :func:`load_expectations` reads their pass thresholds.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from invlab import experiments, models, orbit
from invlab._num import simpson
from invlab.rng import (
    TAG_BOOT_LAW,
    TAG_COUPLING,
    TAG_IID_LAW,
    TAG_PERM_LAW,
    blocks,
    row_chunks,
    spawn_generator,
    uniform_permutations,
)

#: Stream tag of the spacings samplers in the tests (no package stream uses 11).
TAG_SPACINGS = 11


# --------------------------------------------------------------------- #
# Invariance checking
# --------------------------------------------------------------------- #


def apply_group_element(g, x: np.ndarray) -> np.ndarray:
    """Apply a permutation (1-D index array), matrix (2-D), or callable to ``x``."""
    if callable(g):
        return g(x)
    g = np.asarray(g)
    if g.ndim == 1:
        return np.asarray(x)[..., g]
    if g.ndim == 2:
        return np.asarray(x) @ g.T
    raise TypeError("group element must be a permutation, a matrix, or a callable")


def verify_invariance(
    statistic: Callable[[np.ndarray], float],
    group_element_sampler: Callable[[np.random.Generator], object],
    x: np.ndarray,
    rng: np.random.Generator,
    reps: int = 32,
) -> bool:
    """True iff ``|T(gx) - T(x)| <= 1e-9 (1 + |T(x)|)`` for ``reps`` elements ``g`` drawn from ``rng``."""
    x = np.asarray(x, dtype=float)
    base = float(statistic(x))
    tol = 1e-9 * (1.0 + abs(base))
    for _ in range(reps):
        g = group_element_sampler(rng)
        if abs(float(statistic(apply_group_element(g, x))) - base) > tol:
            return False
    return True


def permutation_sampler(n: int) -> Callable[[np.random.Generator], np.ndarray]:
    """Sampler of uniform permutations of ``{0..n-1}``."""
    return lambda rng: rng.permutation(n)


def haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform orthogonal matrix via sign-corrected QR of a Gaussian matrix.

    The sign correction (making the R diagonal positive) is mandatory: the
    raw QR of a Gaussian matrix is not Haar distributed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    z = rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.sign(np.diag(r))
    d[d == 0.0] = 1.0
    return q * d


def haar_orthogonal_fixing_design(design: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Haar element of the subgroup fixing every column of ``design``.

    Acts as the identity on the column space and as a Haar orthogonal
    transformation of the residual space.
    """
    design = np.atleast_2d(np.asarray(design, dtype=float))
    n, p = design.shape
    q_full, _ = np.linalg.qr(design, mode="complete")
    col = q_full[:, :p]
    res = q_full[:, p:]
    q = haar_orthogonal(n - p, rng)
    return col @ col.T + res @ q @ res.T


# --------------------------------------------------------------------- #
# Laws of m'Px drawn one whole block at a time
# --------------------------------------------------------------------- #


def law_inputs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Centered unit weights ``m`` and data ``x`` of length ``n`` for the law tests."""
    rng = spawn_generator(31, n)
    x = rng.normal(size=n)
    m = rng.normal(size=n)
    m -= m.mean()
    return m / np.linalg.norm(m), x


def poisson_null(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``clt-sweep --model poisson``'s null sampler."""
    return experiments.FamilyModel(models.poisson_family()).at(n, experiments.NULL, 0).sample(count, rng)


def coupled_block_rank(
    sorted_x: np.ndarray, m: np.ndarray, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` coupled replicates of :func:`invlab.permclt.hajek_coupling` from one ``(count, n)`` draw.

    Returns the without- and with-replacement contrasts and the number of
    matched positions per replicate; every intermediate is a new array.
    """
    n = m.size
    u = rng.random((count, n))
    star = np.minimum((n * u).astype(np.intp), n - 1)
    # Ranks invert the sorting order: one sort, then a scatter.
    ranks = np.empty((count, n), dtype=np.intp)
    np.put_along_axis(ranks, np.argsort(u, axis=1), np.arange(n), axis=1)
    without = sorted_x[ranks] @ m
    with_r = sorted_x[star] @ m
    matched = np.sum(ranks == star, axis=1)
    return without, with_r, matched


def one_shot_coupling(
    m: np.ndarray, x: np.ndarray, reps: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coupled draws of :func:`invlab.permclt.hajek_coupling`, in replicate order.

    Each row chunk of each block is one :func:`coupled_block_rank` call.
    """
    sorted_x = np.sort(x)
    parts = []
    for b, count in blocks(reps):
        rng = spawn_generator(seed, TAG_COUPLING, b)
        parts += [coupled_block_rank(sorted_x, m, c, rng) for c in row_chunks(count, m.size)]
    without, with_r, matched = (np.concatenate(arrays) for arrays in zip(*parts))
    return without, with_r, matched


def one_shot_boot(m: np.ndarray, x: np.ndarray, reps: int, seed: int) -> np.ndarray:
    """The vector-route bootstrap law of :func:`invlab.permclt.sample_boot_law`, in replicate order.

    Each block is one ``(count, n)`` index draw and one product.
    """
    n = m.size
    return np.concatenate(
        [x[spawn_generator(seed, TAG_BOOT_LAW, b).integers(0, n, size=(count, n))] @ m for b, count in blocks(reps)]
    )


def one_shot_laws(n: int, reps: int, seed: int) -> dict[str, np.ndarray]:
    """The permutation, bootstrap, coupling and iid laws of :func:`law_inputs`, in replicate order.

    Each block is one ``(count, n)`` draw and one product, the form the
    laws had before they were drawn in row chunks.
    """
    m, x = law_inputs(n)
    sorted_x = np.sort(x)
    keys = ("perm", "without", "with", "matched", "iid")
    out: dict[str, list[np.ndarray]] = {k: [] for k in keys}
    for b, count in blocks(reps):
        rng = spawn_generator(seed, TAG_PERM_LAW, b)
        out["perm"].append(x[uniform_permutations(rng, count, n)] @ m)
        coupled = coupled_block_rank(sorted_x, m, count, spawn_generator(seed, TAG_COUPLING, b))
        for key, part in zip(("without", "with", "matched"), coupled):
            out[key].append(part)
        out["iid"].append(poisson_null(n, count, spawn_generator(seed, TAG_IID_LAW, b)) @ m)
    return {k: np.concatenate(v) for k, v in out.items()} | {"boot": one_shot_boot(m, x, reps, seed)}


def one_shot_spacings_alternative(
    n: int, h: models.Profile, reps: int, rng: np.random.Generator
) -> np.ndarray:
    """:func:`invlab.models.sample_spacings_alternative_batch` drawn one whole round at a time.

    Each round draws all ``k`` proposals, then all ``k`` acceptance uniforms,
    and evaluates ``h`` at every proposal; the accepted points are
    concatenated, sorted and padded with 0 and 1 before differencing.
    """
    root_n = np.sqrt(n)
    envelope = 1.0 + h.sup / root_n
    need = reps * n
    accepted: list[np.ndarray] = []
    got = 0
    while got < need:
        k = max(int(1.2 * (need - got) * envelope), 1024)
        u = rng.random(k)
        keep = rng.random(k) * envelope <= 1.0 + h(u) / root_n
        take = u[keep]
        accepted.append(take)
        got += take.size
    pts = np.concatenate(accepted)[:need].reshape(reps, n)
    pts.sort(axis=1)
    padded = np.concatenate([np.zeros((reps, 1)), pts, np.ones((reps, 1))], axis=1)
    return np.diff(padded, axis=1)


def profile_from_callable(fn: Callable[[np.ndarray], np.ndarray]) -> models.Profile:
    """A :class:`invlab.models.Profile` of any callable; its sup estimated on a fine grid."""
    xs = np.linspace(0.0, 1.0, models._PROFILE_GRID)
    vals = np.asarray(fn(xs), dtype=float)
    if abs(simpson(vals, x=xs)) > 1e-6:
        raise ValueError("profile must integrate to 0 within 1e-6")
    return models.Profile(fn=fn, sup=float(np.abs(vals).max()))


def allocating_log_h(ts: np.ndarray, n: int) -> np.ndarray:
    """``orbit.h_integral_log_many`` with fresh arrays for every step of every chunk.

    The reference for the kernel's one reused buffer: the same operations in
    the same order, so the two agree to the bit.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    nu = n / 2 - 1
    length = orbit._series_length(0.25 * float(ts.max(initial=0.0)) ** 2, nu)
    ks = np.arange(1.0, length + 1.0)
    steps = np.log(ks * (ks + nu))
    log_den = np.cumsum(steps)
    prev = np.concatenate([[0.0], log_den])[:-1]
    step_part = log_den - prev
    log_den += np.cumsum((prev - (log_den - step_part)) + (steps - step_part))
    out = np.empty(ts.size)
    chunk = max(1, 2**22 // (length + 1))
    for lo in range(0, ts.size, chunk):
        with np.errstate(divide="ignore"):
            log_x = 2.0 * np.log(0.5 * ts[lo : lo + chunk])
        log_terms = np.zeros((log_x.size, length + 1))
        log_terms[:, 1:] = np.multiply.outer(log_x, ks) - log_den
        peak = log_terms.max(axis=1)
        scaled = np.cumsum(np.exp(log_terms - peak[:, None]), axis=1)[:, -1]
        out[lo : lo + chunk] = orbit._log_h0(n) + peak + np.log(scaled)
    return out


def load_expectations() -> dict:
    """The sweeps' pass thresholds, read from ``src/invlab/data/expectations.json``.

    The floors are empirical facts about the default configurations, kept in
    one versioned file that is edited by hand.
    """
    path = Path(__file__).resolve().parents[1] / "src" / "invlab" / "data" / "expectations.json"
    return json.loads(path.read_text())


def trend_slope(
    xs: Sequence[float], ys: Sequence[float], ses: Sequence[float] | None = None
) -> tuple[float, float]:
    """Weighted least-squares slope of ``ys`` against ``xs`` with its SE.

    Used for "no positive growth" checks: the slope must be below
    ``2 * se`` for the trend to count as non-increasing.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    w = np.ones_like(xs) if ses is None else 1.0 / np.maximum(np.asarray(ses, float), 1e-12) ** 2
    xbar = np.sum(w * xs) / np.sum(w)
    sxx = np.sum(w * (xs - xbar) ** 2)
    slope = float(np.sum(w * (xs - xbar) * ys) / sxx)
    se = float(np.sqrt(1.0 / sxx))
    return slope, se
