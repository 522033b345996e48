"""One benchmark pass, run in a fresh Python process by ``run.py``.

Imports ``invlab.cli`` from the checkout's ``src`` (the moment it finishes
marks the end of set-up), runs the workload's invocations through
``invlab.cli.main`` in order, and writes ``result.json`` into ``--outdir``:
per-invocation wall times and exit codes, the import timestamp, the peak
resident memory and, with ``--trace``, the per-layer summary (spans go to
``spans.json``).  With ``--import-only`` it stops after the import.

    python3 perfbench/child.py --workload orthogonal --seed 0 --outdir DIR [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    from invlab import cli

    imported_at = time.monotonic()
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"invlab imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    outdir = Path(args.outdir)
    result = {"imported_at": imported_at}
    if not args.import_only:
        from tracer import Tracer
        from workloads import WORKLOADS, table_name

        workload = WORKLOADS[args.workload]
        tracer = Tracer() if args.trace else None
        calls = []
        with tracer or contextlib.nullcontext():
            started = time.perf_counter()
            for index, inv in enumerate(workload.invocations):
                t0 = time.perf_counter()
                rc = cli.main(inv.argv(args.seed, str(outdir / table_name(index, inv))))
                calls.append({"subcommand": inv.subcommand, "rc": rc, "wall_s": time.perf_counter() - t0})
            wall_s = time.perf_counter() - started
        result.update(calls=calls, wall_s=wall_s)
        if tracer is not None:
            result["layers"] = tracer.summary(wall_s)
            (outdir / "spans.json").write_text(json.dumps(tracer.span_records()))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (outdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
