"""Golden tables: small CLI runs whose CSV bytes are committed under ``tests/golden``.

Each invocation covers a subcommand and a drawing route (the radial and
mean-squares sufficient blocks, data vectors, the chunked spacings null,
the spike and vector fresh-draw laws, the spike bootstrap on lattice
(Bernoulli) data, the exact, Monte Carlo and design orbits, and a sign
pattern drawn from the seed).  A table must match its
file byte for byte at one and two workers, so a refactor that moves any
value, column or stream shows here.

To rewrite the files after an intended change of numbers, run
``PYTHONPATH=src python tests/test_golden.py [NAME ...]``: it records the
named tables, or every table when no name is given.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from invlab.cli import main

GOLDEN = Path(__file__).with_name("golden")

#: Table name -> CLI arguments (output and workers excluded).
INVOCATIONS = {
    "power_normal_chisq_radial": "power --model normal --stat chisq --alt spike:3 --n 20,40 --seed 1",
    "power_normal_np_signs": "power --model normal --stat np --alt signs:2 --n 30 --seed 2",
    "power_normal_variance_vectors": "power --model normal --stat variance --alt spike:3 --n 25 --seed 3",
    "power_poisson_quadratic": "power --model poisson --stat quadratic --alt smooth:1 --n 30 --seed 4",
    "power_neyman_scott_mean_squares": "power --model neyman_scott --stat anova_f --alt spike:2 --n 10 --nu 3 --seed 5",
    "power_spacings_chunked_null": "power --model spacings --stat greenwood --alt h:cos1:2 --n 50 --seed 6",
    "sweep_theorem1": "sweep-theorem1 --delta 3 --n-grid 20,50 --lbar-reps 256 --seed 7",
    "sweep_theorem2_logistic": "sweep-theorem2 --model logistic --n-grid 30,60 --seed 8",
    "sweep_neyman_scott_signs": "sweep-neyman-scott --n-grid 10,20 --nu 3 --profile random_signs --seed 9",
    "sweep_neyman_scott_matrix": "sweep-neyman-scott --matrix --n-grid 10,20 --seed 10",
    "sweep_spacings": "sweep-spacings --alt h:cos1:2 --n-grid 50,100 --seed 11",
    "lbar_exhaustive": "lbar --group permutation_exhaustive --model poisson --alt spike:1 --n 6 --seed 12",
    "lbar_monte_carlo": "lbar --group permutation --model poisson --alt smooth:1 --n 20 --mc-reps 200 --seed 13",
    "lbar_design": "lbar --group orthogonal_fixing_design --model normal --alt signs:1 --n 10 --seed 14",
    "lbar_orthogonal": "lbar --group full_orthogonal --model normal --alt spike:3 --n 50 --seed 15",
    "clt_spike_law": "clt-sweep --model poisson --alt spike:1 --n-grid 20,50 --seed 16",
    "clt_vector_law": "clt-sweep --model normal --alt smooth:1 --n-grid 20 --seed 17",
    "coupling": "coupling --n-grid 20,50 --seed 18",
    "power_normal_np_null": "power --model normal --stat np --alt spike:0 --n 20,40 --seed 19",
    "clt_spike_outside_box": "clt-sweep --model poisson --alt spike:3 --n-grid 20,50 --seed 20",
    "sweep_theorem2_bernoulli": "sweep-theorem2 --model bernoulli --n-grid 30,60 --seed 21",
    "clt_bernoulli_lattice": "clt-sweep --model bernoulli --alt spike:1 --n-grid 20,50 --seed 22",
    "sweep_theorem2_normal": "sweep-theorem2 --model normal --n-grid 30,60 --seed 23",
    "sweep_neyman_scott_sigma": "sweep-neyman-scott --n-grid 10,20 --nu 3 --sigma 2 --seed 24",
}

REPS = "256"


def _table(name: str, workers: int, out: Path) -> bytes:
    argv = [*INVOCATIONS[name].split(), "--reps", REPS, "--workers", str(workers), "--out", str(out)]
    assert main(argv) == 0
    return out.read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", INVOCATIONS)
def test_table_matches_golden(tmp_path, name, workers):
    assert _table(name, workers, tmp_path / "out.csv") == (GOLDEN / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    names = sys.argv[1:] or list(INVOCATIONS)
    unknown = [name for name in names if name not in INVOCATIONS]
    if unknown:
        sys.exit(f"unknown table(s): {', '.join(unknown)}")
    for table in names:
        path = GOLDEN / f"{table}.csv"
        _table(table, 1, path)
        Path(str(path) + ".meta.json").unlink()
    sys.exit(0)
