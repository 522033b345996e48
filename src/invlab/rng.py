"""Deterministic random-stream management for reproducible Monte Carlo.

Every stochastic routine in this package takes a generator, and the caller
that holds the integer seed names its stream: ``spawn_generator(seed,
*tags)``, most often ``(seed, stream tag, block index)``.  So a run is
bit-identical for a given seed no matter how replicate blocks are scheduled
across workers, and each number can be traced to its stream.

Pinned algorithm: numpy's Philox 4x64 counter-based bit generator,
keyed through ``numpy.random.SeedSequence`` with the tag tuple as the
spawn key.  Every Monte Carlo value is drawn by one executor: a
:class:`Pass` splits its replicates into fixed-size blocks, each on its own
substream, and :func:`draw_passes` draws the blocks of all its passes in
one :func:`map_blocks` plan and reduces each pass in block order.

A block is drawn and reduced in row chunks (:func:`row_chunks`) one after
another from its generator, which changes no stream.  A consumer that
interleaves two runs of one stream reads the later run from a copy
:func:`jumped` ahead.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Sequence
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

_MASK64 = (1 << 64) - 1

# Stream tags.  Each independent consumer of randomness has its own tag so
# that adding a consumer never perturbs existing streams.
TAG_MODEL = 1
TAG_CALIBRATE = 2
TAG_LEVEL = 3
TAG_POWER = 4
TAG_ORBIT = 5
TAG_PERM_LAW = 6
TAG_BOOT_LAW = 7
TAG_COUPLING = 8
TAG_IID_LAW = 9
# 11 is the spacings samplers' stream in the tests (``tests/oracles.py``).
TAG_ALTERNATIVE = 12
TAG_LBAR = 13
#: Prefix of the sufficient-block streams: ``(seed, TAG_SUFFICIENT, tag, block)``
#: mirrors the data-vector stream ``(seed, tag, block)`` of the same pass.
#: (14 is ``orbit.TAG_POWER_LHS``.)
TAG_SUFFICIENT = 15

#: Replicates per block.  Fixed (never derived from the worker count) so that
#: substream assignment is a pure function of the seed and replicate index.
BLOCK_REPS = 1024

#: Elements a block function materialises per row chunk: 2**16, 512 kB of float64.
CHUNK_ELEMENTS = 1 << 16

T = TypeVar("T")


def spawn_generator(seed: int, *tags: int) -> np.random.Generator:
    """Return the generator for the stream identified by ``(seed, *tags)``."""
    key = tuple(int(t) & _MASK64 for t in tags)
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK64, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def uniform_permutations(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` uniform permutations of ``range(n)``, one per row.

    Row ``i`` is the argsort of row ``i`` of one ``rng.random((count, n))``
    draw.  The permutation laws of whole vectors and the Monte Carlo orbit
    averages read their permutations from here; the coupling orders its
    uniforms itself (``permclt._uniform_order``, the same order), and a
    spike contrast's permutation law draws one index, not a permutation.
    """
    return np.argsort(rng.random((count, n)), axis=1)


def jumped(rng: np.random.Generator, draws: int) -> np.random.Generator:
    """A new generator where ``rng`` would be after ``draws`` 64-bit draws; ``rng`` does not move.

    ``rng`` must run on Philox.  Its next draw is word ``buffer_pos`` of the
    four-word block at its counter (``buffer_pos`` 4: an empty buffer), so the
    copy moves the counter on by whole blocks with ``Philox.advance`` and
    reads and drops the words left over.  A pending 32-bit half-word is
    carried over untouched, as 64-bit draws leave it.
    """
    state = rng.bit_generator.state
    if state["bit_generator"] != "Philox":
        raise TypeError("jumped needs a Philox generator")
    blocks_ahead, words = divmod(state["buffer_pos"] + draws, 4)
    bits = np.random.Philox(counter=state["state"]["counter"], key=state["state"]["key"])
    bits.advance(blocks_ahead - 1)
    bits.random_raw(words)
    moved = bits.state
    moved["has_uint32"], moved["uinteger"] = state["has_uint32"], state["uinteger"]
    bits.state = moved
    return np.random.Generator(bits)


def blocks(total: int) -> list[tuple[int, int]]:
    """Split ``total`` replicates into ``(block_index, block_count)`` pairs."""
    if total < 0:
        raise ValueError("total must be nonnegative")
    return [(b, min(BLOCK_REPS, total - start)) for b, start in enumerate(range(0, total, BLOCK_REPS))]


def row_chunks(count: int, n: int) -> list[int]:
    """Row counts of the chunks a ``(count, n)`` block is drawn and reduced in.

    Each chunk but the last holds the largest multiple of 8 rows that fits
    in :data:`CHUNK_ELEMENTS` elements, and at least 8 rows.  Drawing the
    chunks one after another from the block's generator gives the same
    numbers as one ``(count, n)`` draw.  The multiple of 8 keeps a row's
    matrix-vector product independent of the chunking as well: OpenBLAS
    reduces rows in groups of four, and a two-thread split halves a chunk.
    """
    rows = max(8, CHUNK_ELEMENTS // max(n, 1) // 8 * 8)
    return [min(rows, count - start) for start in range(0, count, rows)]


def row_slices(data: np.ndarray) -> list[np.ndarray]:
    """Views of a ``(count, ...)`` block, one per :func:`row_chunks` chunk of its rows."""
    edges = np.cumsum([0, *row_chunks(len(data), data[0].size)])
    return [data[lo:hi] for lo, hi in zip(edges[:-1], edges[1:])]


def map_blocks(
    fn: Callable[[Hashable, int], T],
    plan: Sequence[tuple[Hashable, int]],
    workers: int = 1,
) -> list[T]:
    """Evaluate ``fn(block, count)`` for every ``(block, count)`` pair of ``plan``, in plan order.

    ``block`` is any key ``fn`` understands; :func:`draw_passes`, the one
    caller, keys each block by its pass and block index.  With
    ``workers > 1`` the blocks run on a thread pool and start in plan order;
    results are still returned in plan order, so any order-sensitive
    reduction by the caller is independent of the worker count.  A block's
    exception is raised here.
    """
    if workers <= 1 or len(plan) <= 1:
        return [fn(b, c) for b, c in plan]
    # Imported here: concurrent.futures pulls in logging, which single-worker
    # runs need not pay for at start-up.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda bc: fn(bc[0], bc[1]), plan))


@dataclass(frozen=True, eq=False)
class Pass:
    """Functions ``reads`` of ``reps`` replicates, drawn block by block.

    Block ``b`` is ``chunks(count, rng, b)`` with ``rng`` the stream
    ``(seed, *tags, b)``: its rows in consecutive row chunks
    (:func:`row_chunks`), or one chunk where a value reads the block whole;
    ``b`` names its other streams, as the Monte Carlo permutation orbit's
    ``(seed, TAG_LBAR, b)``.  ``row_size`` is the sample size ``n`` of a data
    block and 0 for a block of a few numbers per replicate; it orders the
    blocks of a plan (:func:`draw_passes`).
    """

    chunks: Callable[[int, np.random.Generator, int], Iterable[np.ndarray]]
    reads: dict[Hashable, Callable[[np.ndarray], np.ndarray]]
    reps: int
    seed: int
    tags: tuple[int, ...]
    row_size: int = 0

    def block(self, b: int, count: int) -> list[np.ndarray]:
        """Every function on block ``b``, in the order of ``reads``.

        Each chunk is made read-only and read by every function before the
        next one is taken, so temporaries stay cache-sized; every function is
        computed row by row, so the values are those of one whole-block call.
        """
        fns = list(self.reads.values())
        values: list[list[np.ndarray]] = [[] for _ in fns]
        for chunk in self.chunks(count, spawn_generator(self.seed, *self.tags, b), b):
            chunk.flags.writeable = False
            for out, fn in zip(values, fns):
                out.append(np.asarray(fn(chunk), dtype=float))
        return [np.concatenate(v) for v in values]


#: Start rank of a pass's blocks at equal row size, by its last stream tag
#: (others last): power blocks, rejection-sampled on spacings, are the slowest.
_STAGE_RANK = {TAG_POWER: 0, TAG_LEVEL: 1, TAG_CALIBRATE: 2}


def draw_passes(passes: Sequence[Pass], workers: int) -> dict[Hashable, np.ndarray]:
    """Each key's values in replicate order, every pass drawn in one :func:`map_blocks` call.

    The plan holds every block of every pass and starts the largest row size
    first; at equal size, power blocks go before level blocks and level
    blocks before calibration blocks, so the slowest blocks do not trail at
    the end of the call.  A block's values come from its own stream, so the
    order changes no value.
    """
    ranks = [(-p.row_size, _STAGE_RANK.get(p.tags[-1], len(_STAGE_RANK))) for p in passes]
    plan = sorted(
        (((i, b), count) for i, p in enumerate(passes) for b, count in blocks(p.reps)),
        key=lambda item: ranks[item[0][0]],
    )
    results = map_blocks(lambda key, count: passes[key[0]].block(key[1], count), plan, workers)
    parts: list[list[list[np.ndarray]]] = [[] for _ in passes]
    # The sort is stable, so each pass's blocks arrive in block order.
    for ((i, _), _), values in zip(plan, results):
        parts[i].append(values)
    return {
        key: np.concatenate(v)
        for p, block_values in zip(passes, parts)
        for key, v in zip(p.reads, zip(*block_values))
    }
