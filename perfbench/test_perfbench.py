"""Tests of the benchmark itself: tracing, output checks and the metric lists."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import types
from pathlib import Path

import pytest

import invlab
from invlab import cli
from checks import check_workload
from run import END_TO_END, PER_LAYER
from tracer import Tracer
from workloads import WORKLOADS, table_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Small invocations that still reach the pool path (two workers, several blocks).
SMALL = (
    ["sweep-theorem1", "--delta", "3", "--n-grid", "30,60", "--reps", "128", "--lbar-reps", "2048",
     "--workers", "2", "--seed", "3"],
    ["sweep-spacings", "--n-grid", "50,100", "--reps", "1100", "--workers", "2", "--seed", "3"],
)


def _run_small(tmp_path: Path, tag: str, tracer: Tracer | None = None) -> list[bytes]:
    tables = []
    with tracer or contextlib.nullcontext():
        for i, argv in enumerate(SMALL):
            out = tmp_path / f"{tag}-{i}.csv"
            assert cli.main([*argv, "--out", str(out)]) == 0
            tables.append(out.read_bytes())
    return tables


def test_traced_tables_identical_and_counts_repeat(tmp_path):
    tr1, tr2 = Tracer(), Tracer()
    plain = _run_small(tmp_path, "plain")
    assert _run_small(tmp_path, "traced1", tr1) == plain
    assert _run_small(tmp_path, "traced2", tr2) == plain
    s1, s2 = tr1.summary(1.0), tr2.summary(1.0)
    for name in ("models.draws", "rng.blocks", "orbit.log_h_evals", "experiments.calib_reps"):
        assert s1[name] > 0
        assert s1[name] == s2[name], name
    assert tr1.counts == tr2.counts
    assert s1["rng.pool_efficiency"] > 0


def _snapshot():
    return {
        (mod.__name__, attr): value
        for mod in vars(invlab).values()
        if isinstance(mod, types.ModuleType) and mod.__name__.startswith("invlab.")
        for attr, value in vars(mod).items()
    }


def test_wrappers_leave_invlab_unpatched():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with Tracer():
            from invlab import experiments, orbit

            assert orbit.sample_model is not before[("invlab.orbit", "sample_model")]
            assert experiments.map_blocks is not before[("invlab.experiments", "map_blocks")]
            assert cli.main is not before[("invlab.cli", "main")]
            raise RuntimeError("leave the block early")
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _tables(workload: str) -> dict[int, str]:
    w = WORKLOADS[workload]
    return {i: (HERE / "testdata" / workload / table_name(i, inv)).read_text()
            for i, inv in enumerate(w.invocations)}


def _alter(text: str, n: int | None, column: str | None, value: str | None) -> str:
    """Set ``column`` of the row with this ``n`` (or drop the row when ``column`` is None)."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if column is None:
        rows = [r for r in rows if int(r["n"]) != n]
    else:
        for r in rows:
            if int(r["n"]) == n:
                r[column] = value
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(csv.DictReader(io.StringIO(text)).fieldnames))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_recorded_tables_pass(workload):
    failed = [c for c in check_workload(WORKLOADS[workload], _tables(workload), ROOT) if not c.ok]
    assert failed == []


@pytest.mark.parametrize(
    "workload, index, n, column, value, expect",
    [
        ("orthogonal", 0, 100, "chisq_gap", "0.3", "noncentral chi-square oracle"),
        ("orthogonal", 0, 10000, "np_power", "0.8", "normal-shift oracle"),
        ("orthogonal", 0, 100, "np_power_se", "0.03", "np_power_se ceiling"),
        ("orthogonal", 1, 1000, "e0_lbar", "1.05", "e0_lbar is 1"),
        ("orthogonal", 1, 10000, None, None, "rows"),
        ("spacings", 0, 1600, "greenwood_gap", "0.2", "greenwood_gap does not increase"),
        ("spacings", 0, 400, "quadratic_gap", "0.05", "packaged floor"),
        ("spacings", 0, 100, "moran_gap_se", "0.02", "moran_gap_se ceiling"),
        ("permutation", 0, 5000, "rho2_perm_iid", "1.0", "rho2_perm_iid does not increase"),
        ("permutation", 1, 1000, "bound_holds", "false", "bound_holds"),
        ("permutation", 1, 100, "cf_ok_t1", "false", "cf_ok"),
        ("permutation", 1, 10000, "gap_sq_se", "4e-05", "gap_sq_se ceiling"),
        ("permutation", 2, 50, "se_e0_lbar", "0.03", "se_e0_lbar ceiling"),
    ],
)
def test_altered_row_trips_checks(workload, index, n, column, value, expect):
    tables = _tables(workload)
    tables[index] = _alter(tables[index], n, column, value)
    failed = [c.name for c in check_workload(WORKLOADS[workload], tables, ROOT) if not c.ok]
    assert any(expect in name for name in failed), failed


def test_missing_table_fails():
    tables = _tables("permutation")
    tables[1] = None
    failed = [c.name for c in check_workload(WORKLOADS["permutation"], tables, ROOT) if not c.ok]
    assert failed == ["coupling: table written"]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
