"""Samplers and reference forms that only the tests read.

The invariance checks (``stats.verify_invariance``, ``orbit.identity_check``)
take a sampler of group elements; the first three functions are the ones
the tests pass.  :func:`one_shot_laws` draws the permutation-CLT laws one
whole block at a time, the reference for the row-chunked laws, and
:func:`one_shot_boot` is its bootstrap law for any contrast and data;
:func:`one_shot_coupling` is the coupling with every array of a row chunk
allocated afresh, the reference for the buffered coupling kernel; and
:func:`one_shot_spacings_alternative` is the reference for the chunked
spacings rejection sampler.  :func:`trend_slope` is the slope test of the
sweeps' "no positive growth" checks, and :func:`load_expectations` reads
their pass thresholds.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from invlab import experiments, models
from invlab.rng import (
    TAG_BOOT_LAW,
    TAG_COUPLING,
    TAG_IID_LAW,
    TAG_PERM_LAW,
    TAG_SPACINGS,
    as_generator,
    blocks,
    row_chunks,
    spawn_generator,
    uniform_permutations,
)


def permutation_sampler(n: int) -> Callable[[np.random.Generator], np.ndarray]:
    """Sampler of uniform permutations of ``{0..n-1}``."""
    return lambda rng: rng.permutation(n)


def haar_orthogonal(n: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-uniform orthogonal matrix via sign-corrected QR of a Gaussian matrix.

    The sign correction (making the R diagonal positive) is mandatory: the
    raw QR of a Gaussian matrix is not Haar distributed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = as_generator(seed)
    z = rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.sign(np.diag(r))
    d[d == 0.0] = 1.0
    return q * d


def haar_orthogonal_fixing_design(
    design: np.ndarray, seed: int | np.random.Generator
) -> np.ndarray:
    """Haar element of the subgroup fixing every column of ``design``.

    Acts as the identity on the column space and as a Haar orthogonal
    transformation of the residual space.
    """
    design = np.atleast_2d(np.asarray(design, dtype=float))
    n, p = design.shape
    q_full, _ = np.linalg.qr(design, mode="complete")
    col = q_full[:, :p]
    res = q_full[:, p:]
    q = haar_orthogonal(n - p, seed)
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
        rng = as_generator(seed, TAG_COUPLING, b)
        parts += [coupled_block_rank(sorted_x, m, c, rng) for c in row_chunks(count, m.size)]
    without, with_r, matched = (np.concatenate(arrays) for arrays in zip(*parts))
    return without, with_r, matched


def one_shot_boot(m: np.ndarray, x: np.ndarray, reps: int, seed: int) -> np.ndarray:
    """The vector-route bootstrap law of :func:`invlab.permclt.sample_boot_law`, in replicate order.

    Each block is one ``(count, n)`` index draw and one product.
    """
    n = m.size
    return np.concatenate(
        [x[as_generator(seed, TAG_BOOT_LAW, b).integers(0, n, size=(count, n))] @ m for b, count in blocks(reps)]
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
        rng = as_generator(seed, TAG_PERM_LAW, b)
        out["perm"].append(x[uniform_permutations(rng, count, n)] @ m)
        coupled = coupled_block_rank(sorted_x, m, count, as_generator(seed, TAG_COUPLING, b))
        for key, part in zip(("without", "with", "matched"), coupled):
            out[key].append(part)
        out["iid"].append(poisson_null(n, count, as_generator(seed, TAG_IID_LAW, b)) @ m)
    return {k: np.concatenate(v) for k, v in out.items()} | {"boot": one_shot_boot(m, x, reps, seed)}


def one_shot_spacings_alternative(
    n: int, h: models.Profile, reps: int, seed: int | np.random.Generator
) -> np.ndarray:
    """:func:`invlab.models.sample_spacings_alternative_batch` drawn one whole round at a time.

    Each round draws all ``k`` proposals, then all ``k`` acceptance uniforms,
    and evaluates ``h`` at every proposal; the accepted points are
    concatenated, sorted and padded with 0 and 1 before differencing.
    """
    rng = as_generator(seed, TAG_SPACINGS)
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
