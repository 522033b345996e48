"""Tests for the row chunks a replicate block is drawn in."""

import numpy as np
import pytest

from invlab.rng import BLOCK_REPS, CHUNK_ELEMENTS, row_chunks, spawn_generator

#: Every generator method a block function draws in row chunks.
DRAWS = {
    "random": lambda rng, shape: rng.random(shape),
    "integers": lambda rng, shape: rng.integers(0, shape[1], size=shape),
    "poisson": lambda rng, shape: rng.poisson(np.linspace(0.5, 30.0, shape[1]), size=shape),
    "standard_normal": lambda rng, shape: rng.standard_normal(shape),
    "exponential": lambda rng, shape: rng.exponential(1.0, size=shape),
}


@pytest.mark.parametrize("n", [1, 7, 333, 5001, 10_000, 1_000_000])
@pytest.mark.parametrize("count", [1, 476, BLOCK_REPS])
def test_row_chunks_tile_the_block(n, count):
    chunks = row_chunks(count, n)
    assert sum(chunks) == count
    rows = chunks[0]
    assert all(c == rows for c in chunks[:-1]) and 0 < chunks[-1] <= rows
    if len(chunks) > 1:
        assert rows % 8 == 0 and (rows == 8 or rows * n <= CHUNK_ELEMENTS < (rows + 8) * n)


@pytest.mark.parametrize("kind", DRAWS)
@pytest.mark.parametrize("n", [7, 333, 5001])
def test_chunked_draws_equal_one_draw(kind, n):
    count = 1021
    for chunks in (row_chunks(count, n), [1, 2, 5, count - 8]):
        rng = spawn_generator(46, n)
        got = np.concatenate([DRAWS[kind](rng, (c, n)) for c in chunks])
        want = DRAWS[kind](spawn_generator(46, n), (count, n))
        assert np.array_equal(got, want)
