"""Run one workload of the invlab benchmark and print its metrics.

    python3 perfbench/run.py --workload orthogonal --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Each pass of the workload runs in a fresh
Python process (``child.py``), one at a time, so the lazy set-up a CLI user
pays on every call is inside the measured time.  Passes repeat until
``--seconds`` is used up (at least three).  The tables of every pass are
checked (``checks.py``), and every pass must write the same bytes as the
first, since a given seed fixes every Monte Carlo stream.

With ``--trace 0`` the passes are untraced and give the end-to-end metrics.
With ``--trace 1`` untraced and traced passes alternate: the traced ones give
the per-layer metrics (``tracer.py``), the untraced ones the per-subcommand
wall times and the reference for ``trace.overhead_frac``; traced counts must
repeat exactly.

Standard output is a report with every metric by name, unit, workload and
sample count, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is one
CLI invocation or one output check; ``failed_frac`` is failed / attempted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from checks import check_workload
from tracer import COUNT_METRICS, UNITS
from workloads import WORKLOADS, table_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

MIN_PASSES = 3
CHILD_TIMEOUT_S = 90

#: End-to-end metrics (untraced passes).
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SUBCOMMANDS = ("sweep-theorem1", "lbar", "sweep-spacings", "clt-sweep", "coupling")
#: Per-layer metrics (``--trace 1``): the traced layers, the untraced wall
#: time of each subcommand (0 where the workload does not run it), and the
#: cost of tracing.
PER_LAYER = {
    **UNITS,
    **{f"{sub}.wall_s": "s" for sub in SUBCOMMANDS},
    "trace.overhead_frac": "ratio",
}


class Tally:
    """Operations attempted and failed, with the names of the failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


def run_pass(workload, seed: int, outdir: Path, *flags: str) -> dict:
    """Run ``child.py`` once with ``flags``; return its result (``None`` on failure) and tables."""
    outdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload.name,
           "--seed", str(seed), "--outdir", str(outdir), *flags]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        error = proc.stderr.strip() if proc.returncode else ""
    except subprocess.TimeoutExpired:
        error = f"timed out after {CHILD_TIMEOUT_S} s"
    result_file = outdir / "result.json"
    result = json.loads(result_file.read_text()) if result_file.exists() and not error else None
    if result is not None:
        result["setup_s"] = result["imported_at"] - spawned
    tables = {}
    for index, inv in enumerate(workload.invocations):
        path = outdir / table_name(index, inv)
        tables[index] = path.read_text() if path.exists() else None
    return {"result": result, "tables": tables, "error": error, "trace": "--trace" in flags,
            "dir": outdir}


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return None
    return math.floor(100 * (n - 10) / n), sorted(values)[n - 11]


def machine() -> str:
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={np.__version__} scipy={scipy.__version__}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    if not (ROOT / "src" / "invlab" / "cli.py").is_file():
        print(f"perfbench: no invlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = OUT / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        return measure(workload, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(workload, args, scratch: Path) -> int:
    # An untimed import fills the bytecode and file caches once per run.
    warm = run_pass(workload, args.seed, scratch / "warm", "--import-only")
    if warm["error"]:
        print(f"perfbench: cannot start invlab:\n{warm['error']}", file=sys.stderr)
        return 1

    passes = []
    started = time.monotonic()
    kinds = ((), ("--trace",)) if args.trace else ((),)
    while True:
        t0 = time.monotonic()
        for flags in kinds:
            passes.append(run_pass(workload, args.seed, scratch / f"pass-{len(passes)}", *flags))
        elapsed = time.monotonic() - started
        rounds = len(passes) // len(kinds)
        if rounds >= MIN_PASSES and elapsed + (time.monotonic() - t0) > args.seconds:
            break

    tally = Tally()
    reference = passes[0]["tables"]
    first_counts = None
    for i, p in enumerate(passes):
        label = f"pass {i}{' (traced)' if p['trace'] else ''}"
        if p["result"] is None:
            for inv in workload.invocations:
                tally.op(f"{label}: {inv.subcommand} ran", False, (p["error"].splitlines() or ["no result"])[-1])
        else:
            for call in p["result"]["calls"]:
                tally.op(f"{label}: {call['subcommand']} exit code", call["rc"] == 0, f"exit {call['rc']}")
        for check in check_workload(workload, p["tables"], ROOT):
            tally.op(f"{label}: {check.name}", check.ok, check.detail)
        if i:
            tally.op(f"{label}: tables identical to pass 0", p["tables"] == reference)
        if p["trace"] and p["result"] is not None:
            counts = {k: p["result"]["layers"][k] for k in COUNT_METRICS}
            if first_counts is None:
                first_counts = counts
            else:
                tally.op(f"{label}: counts repeat", counts == first_counts, f"{counts} vs {first_counts}")

    plain = [p["result"] for p in passes if p["result"] is not None and not p["trace"]]
    traced = [p["result"] for p in passes if p["result"] is not None and p["trace"]]
    if not plain or (args.trace and not traced):
        print("perfbench: no pass completed", file=sys.stderr)
        for line in tally.failures:
            print(f"  {line}", file=sys.stderr)
        return 1

    samples = {
        "wall_s": [r["wall_s"] for r in plain],
        "setup_s": [r["setup_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    for sub in workload.subcommands:
        samples[f"{sub}.wall_s"] = [
            sum(c["wall_s"] for c in r["calls"] if c["subcommand"] == sub) for r in plain
        ]
    units = {**END_TO_END, **PER_LAYER}
    if args.trace:
        for name in UNITS:
            samples[name] = [r["layers"][name] for r in traced]
        samples["trace.overhead_frac"] = [
            statistics.median(r["wall_s"] for r in traced) / statistics.median(samples["wall_s"]) - 1.0
        ]

    print(f"# invlab benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine: {machine()}")
    print("# table bytes compare only within one numpy major version")
    for index, inv in enumerate(workload.invocations):
        text = reference.get(index)
        digest = hashlib.sha256(text.encode()).hexdigest() if text is not None else "missing"
        print(f"# table {table_name(index, inv)} sha256={digest}")
    print(f"{'metric':32} {'workload':12} {'n':>3} {'median':>14} {'tail':>20}  unit")
    for name, values in samples.items():
        tail = tail_percentile(values)
        tail_text = f"p{tail[0]}={tail[1]:.6g}" if tail else "n/a (n<11)"
        print(f"{name:32} {workload.name:12} {len(values):3d} {statistics.median(values):14.6g} "
              f"{tail_text:>20}  {units[name]}")
    failed = len(tally.failures)
    print(f"{'failed_frac':32} {workload.name:12} {tally.attempted:3d} "
          f"{failed / tally.attempted:14.6g} {'':>20}  ratio")
    for line in tally.failures:
        print(f"# FAILED {line}")
    if args.trace:
        OUT.mkdir(exist_ok=True)
        last = [p for p in passes if p["trace"] and p["result"] is not None][-1]
        spans = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        shutil.copyfile(last["dir"] / "spans.json", spans)
        print(f"# spans of the last traced pass: {spans.relative_to(ROOT)}")

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": statistics.median(samples[name]) if name in samples else 0.0, "unit": unit}
        for name, unit in wanted.items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
