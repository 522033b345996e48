"""Tests for block plans, the row chunks a replicate block is drawn in, and jumping a stream ahead."""

import threading
import time

import numpy as np
import pytest

from invlab import cli, rng
from invlab.models import MeanVector, normal_family
from invlab.orbit import OrbitSpec, identity_check
from invlab.rng import BLOCK_REPS, CHUNK_ELEMENTS, jumped, map_blocks, row_chunks, spawn_generator
from invlab.stats import chisq_statistic

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


@pytest.mark.parametrize("position", [0, 1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 1023, 65_537])
def test_jump_equals_drawing_k_doubles(position, k):
    rng = spawn_generator(47, position)
    rng.random(position)  # leaves the four-word buffer at this position
    ahead = jumped(rng, k)
    want = spawn_generator(47, position)
    want.random(position + k)
    assert np.array_equal(ahead.random(9), want.random(9))
    # The source generator did not move.
    again = spawn_generator(47, position)
    again.random(position)
    assert np.array_equal(rng.random(9), again.random(9))


def test_jump_keeps_a_pending_32_bit_half():
    rng = spawn_generator(48)
    rng.integers(0, 2**32, dtype=np.uint32)  # buffers the other half of a 64-bit word
    ahead = jumped(rng, 6)
    rng.random(6)
    assert ahead.integers(0, 2**32, size=3, dtype=np.uint32).tolist() == (
        rng.integers(0, 2**32, size=3, dtype=np.uint32).tolist()
    )


def test_jump_refuses_other_bit_generators():
    with pytest.raises(TypeError, match="Philox"):
        jumped(np.random.Generator(np.random.PCG64(0)), 3)


@pytest.mark.parametrize("workers", [1, 2])
def test_plan_results_come_in_plan_order(workers):
    # Uneven tasks: the slow first block finishes after the ones behind it.
    plan = [("slow", 3), (7, 1), (("cell", 2), 5), (0, 2)]
    started = []
    lock = threading.Lock()

    def fn(block, count):
        with lock:
            started.append(block)
        time.sleep(0.05 if block == "slow" else 0.001)
        return block, count

    assert map_blocks(fn, plan, workers) == plan
    assert sorted(map(str, started)) == sorted(str(b) for b, _ in plan)
    if workers == 1:
        assert started == [b for b, _ in plan]


@pytest.mark.parametrize("workers", [1, 2])
def test_plan_reraises_a_task_exception(workers):
    def fn(block, count):
        if block == "bad":
            raise ZeroDivisionError(f"block {block}")
        time.sleep(0.01)
        return count

    with pytest.raises(ZeroDivisionError, match="block bad"):
        map_blocks(fn, [("a", 1), ("bad", 2), ("c", 3)], workers)


class TestOnePlan:
    """Each run below draws all of its blocks in one ``map_blocks`` call, through ``draw_passes``."""

    @pytest.fixture
    def plans(self, monkeypatch):
        """The block count of every ``map_blocks`` call."""
        sizes, original = [], rng.map_blocks

        def counted(fn, plan, workers=1):
            sizes.append(len(plan))
            return original(fn, plan, workers)

        monkeypatch.setattr(rng, "map_blocks", counted)
        return sizes

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-theorem1", "--n-grid", "20,50", "--reps", "64", "--lbar-reps", "64"],
            ["lbar", "--group", "full_orthogonal", "--n", "20,50", "--reps", "64"],
            ["lbar", "--group", "permutation", "--alt", "smooth:1", "--mc-reps", "50", "--n", "20,50",
             "--reps", "64"],
        ],
    )
    def test_cli_run(self, tmp_path, plans, argv):
        assert cli.main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
        assert len(plans) == 1

    def test_identity_check(self, plans):
        m = MeanVector(np.array([1.0, -0.5, 0.0, 0.5, -1.0]))
        identity_check(normal_family(), m, chisq_statistic, OrbitSpec("full_orthogonal"), reps=2000, seed=3)
        assert plans == [4]  # two blocks a side
