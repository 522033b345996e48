"""Per-layer tracing of ``invlab``, installed from outside the package.

:class:`Tracer` replaces public functions of the ``invlab`` modules by
wrappers that record a span (name, start, end, parent) per call and counts
computed from the call's arguments and return value.  Names that other
modules imported by value (``orbit.sample_model``, ``map_blocks`` in
``experiments``, ``orbit`` and ``permclt``) are rebound too, and every
original is restored on exit.  The wrappers pass arguments and results
through untouched, so traced tables are byte-identical to untraced ones.

Span stacks are kept per thread because ``rng.map_blocks`` runs blocks on a
thread pool; a block span names its ``map_blocks`` span as parent and counts
toward the layer that called ``map_blocks`` (the block body is that layer's
closure).  A span's self time is its duration minus the union of its
children's intervals.  With the pool, self times are summed over threads and
can add up to more than the wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import Counter, defaultdict

import numpy as np

#: Span categories of the wrapped functions, per module.  Self time of a
#: category accrues to a per-layer metric (see SELF_METRICS).
CATEGORIES = {
    "cli": {"main": "cli.main", "write_output": "cli.render"},
    "rng": {"map_blocks": "rng"},
    "models": {
        "sample_model": "models.sample",
        "sample_spacings_null_batch": "models.sample",
        "sample_neyman_scott": "models.sample",
        "sample_spacings_alternative_batch": "models.spacings_alt",
        "loglik_ratio": "models.loglik",
        "spacings_loglik_approx": "models.loglik",
        "spacings_loglik_exact": "models.loglik",
    },
    "stats": {
        name: "stats.eval"
        for name in (
            "np_statistic",
            "chisq_statistic",
            "sample_variance_statistic",
            "anova_f",
            "moran",
            "greenwood",
            "two_spacings_statistic",
            "points_from_spacings",
            "quadratic_statistic",
        )
    },
    "experiments": {
        name: "experiments"
        for name in (
            "make_statistic",
            "calibrate_critical",
            "estimate_power",
            "theorem1_sweep",
            "theorem2_sweep",
            "neyman_scott_sweep",
            "matrix_variate_sweep",
            "spacings_sweep",
        )
    },
    "orbit": {
        "h_integral_log_many": "orbit.log_h",
        "h_integral_log": "orbit.log_h",
        "lbar_permutation": "orbit.lbar_perm",
        "lbar_orthogonal": "orbit",
        "lbar_orthogonal_from_norms": "orbit",
        "lbar_design_orthogonal": "orbit",
        "null_lbar_samples": "orbit",
        "power_level_bound": "orbit",
        "perm_variance_diagnostic": "orbit",
        "identity_check": "orbit",
    },
    "permclt": {
        "sample_perm_law": "permclt.perm_law",
        "sample_boot_law": "permclt.boot_law",
        "hajek_coupling": "permclt.coupling",
        "rho2": "permclt.distance",
        "rho0": "permclt.distance",
        "rho2_multivariate": "permclt.distance",
        "cf_inequality_check": "permclt.distance",
        "perm_law_moments": "permclt",
        "theorem_convergence_sweep": "permclt",
        "theorem_convergence_sweep_matrix": "permclt",
    },
}

#: Self-time metrics: metric name -> categories whose self time it sums.
#: Together they cover every wrapped span except the ``cli.main`` roots,
#: whose self time is reported as ``trace.unattributed_s``.
SELF_METRICS = {
    "models.sample_s": ("models.sample", "models.spacings_alt"),
    "models.spacings_alt_s": ("models.spacings_alt",),
    "models.loglik_s": ("models.loglik",),
    "stats.eval_s": ("stats.eval",),
    "experiments.self_s": ("experiments",),
    "orbit.log_h_s": ("orbit.log_h",),
    "orbit.lbar_perm_s": ("orbit.lbar_perm",),
    "orbit.other_s": ("orbit",),
    "permclt.perm_law_s": ("permclt.perm_law",),
    "permclt.boot_law_s": ("permclt.boot_law",),
    "permclt.coupling_s": ("permclt.coupling",),
    "permclt.distance_s": ("permclt.distance",),
    "permclt.other_s": ("permclt",),
    "rng.self_s": ("rng",),
    "cli.render_s": ("cli.render",),
}


def _size(args, out) -> int:
    return int(np.size(out))


#: Exact counts, computed from each call's bound arguments and result:
#: (module, function) -> (metric, count).
COUNTS = {
    **{
        ("models", name): ("models.draws", _size)
        for name in ("sample_model", "sample_spacings_null_batch", "sample_neyman_scott",
                     "sample_spacings_alternative_batch")
    },
    **{
        ("stats", name): ("stats.evals", _size)
        for name in CATEGORIES["stats"]
        if name != "points_from_spacings"
    },
    ("experiments", "calibrate_critical"): ("experiments.calib_reps", lambda a, out: int(a["reps"])),
    ("experiments", "estimate_power"): ("experiments.power_calls", lambda a, out: 1),
    ("orbit", "h_integral_log_many"): ("orbit.log_h_evals", _size),
    ("orbit", "lbar_permutation"): ("orbit.lbar_samples", _size),
    ("permclt", "sample_perm_law"): ("permclt.law_draws", lambda a, out: len(out)),
    ("permclt", "sample_boot_law"): ("permclt.law_draws", lambda a, out: len(out)),
    ("permclt", "hajek_coupling"): ("permclt.law_draws", lambda a, out: int(np.size(out.without_repl))),
}

#: Count metrics; they repeat exactly between traced runs of one seed.
COUNT_METRICS = (*dict.fromkeys(metric for metric, _ in COUNTS.values()), "rng.blocks")

#: Units of every per-layer metric :meth:`Tracer.summary` returns.
UNITS = {
    **{name: "s" for name in SELF_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    "models.draws_per_s": "1/s",
    "stats.evals_per_s": "1/s",
    "orbit.log_h_evals_per_s": "1/s",
    "experiments.calibrate_s": "s",
    "rng.block_busy_s": "s",
    "rng.pool_efficiency": "ratio",
    "trace.unattributed_s": "s",
    "trace.coverage": "ratio",
    "trace.spans": "count",
}


class Tracer:
    """Spans and counts for one traced run; use as a context manager.

    ``with Tracer() as tr: cli.main(argv)`` wraps the functions in
    :data:`CATEGORIES` on entry and restores the originals on exit.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        # Finished spans: (id, name, category, start, end, parent).
        self.spans: list[tuple[int, str, str, float, float, int | None]] = []
        self.counts: Counter[str] = Counter()
        # Per map_blocks call: (span id, effective workers).
        self.map_calls: list[tuple[int, int]] = []
        self._saved: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------------- #
    # Installing and removing the wrappers
    # ----------------------------------------------------------------- #

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(f"invlab.{name}") for name in CATEGORIES}
        replacements = {}
        for mod_name, funcs in CATEGORIES.items():
            for fn_name, category in funcs.items():
                original = getattr(modules[mod_name], fn_name)
                if fn_name == "map_blocks":
                    wrapper = self._wrap_map_blocks(original)
                else:
                    wrapper = self._wrap(
                        original, f"{mod_name}.{fn_name}", category,
                        COUNTS.get((mod_name, fn_name)),
                    )
                replacements[id(original)] = (original, wrapper)
        # Rebind the wrapped functions wherever a module holds them, which
        # covers names imported by value (e.g. orbit.sample_model).
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # ----------------------------------------------------------------- #
    # Spans
    # ----------------------------------------------------------------- #

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run(self, name: str, category: str, fn, args, kwargs, parent=None, sid=None):
        """Call ``fn`` inside a span; ``parent`` applies when this thread has no open span."""
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        if sid is None:
            sid = next(self._ids)
        stack.append((sid, category))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((sid, name, category, start, end, parent))

    def _count(self, metric: str, value: int) -> None:
        with self._lock:
            self.counts[metric] += value

    def _wrap(self, fn, name: str, category: str, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self._run(name, category, fn, args, kwargs)
            if counter is not None:
                metric, count = counter
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._count(metric, count(bound.arguments, out))
            return out

        return wrapper

    def _wrap_map_blocks(self, original):
        signature = inspect.signature(original)

        @functools.wraps(original)
        def map_blocks(fn, *args, **kwargs):
            stack = self._stack()
            # Block bodies are closures of the caller, so their self time is
            # the caller's.
            caller = stack[-1][1] if stack else "cli.main"
            sid = next(self._ids)

            def block(b, count):
                return self._run("rng.block", caller, fn, (b, count), {}, parent=sid)

            out = self._run("rng.map_blocks", "rng", original, (block, *args), kwargs, sid=sid)
            bound = signature.bind(fn, *args, **kwargs)
            bound.apply_defaults()
            pooled = bound.arguments["workers"] > 1 and len(out) > 1
            with self._lock:
                self.counts["rng.blocks"] += len(out)
                self.map_calls.append((sid, int(bound.arguments["workers"]) if pooled else 1))
            return out

        return map_blocks

    # ----------------------------------------------------------------- #
    # Summaries
    # ----------------------------------------------------------------- #

    def span_records(self) -> list[dict]:
        """Spans as ``{id, name, start, end, parent}`` records, in finishing order."""
        return [
            {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
            for sid, name, _, start, end, parent in self.spans
        ]

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of everything traced, given the traced pass wall time."""
        children: dict[int | None, list[tuple[float, float]]] = defaultdict(list)
        for _, _, _, start, end, parent in self.spans:
            children[parent].append((start, end))
        self_by_cat: Counter[str] = Counter()
        inclusive: Counter[str] = Counter()
        duration = {}
        for sid, name, category, start, end, _ in self.spans:
            covered = _union_length(children.get(sid, ()), start, end)
            self_by_cat[category] += (end - start) - covered
            inclusive[name] += end - start
            duration[sid] = end - start
        out: dict[str, float] = {
            metric: sum(self_by_cat[c] for c in cats) for metric, cats in SELF_METRICS.items()
        }
        for metric in COUNT_METRICS:
            out[metric] = int(self.counts[metric])
        out["models.draws_per_s"] = _rate(out["models.draws"], out["models.sample_s"])
        out["stats.evals_per_s"] = _rate(out["stats.evals"], out["stats.eval_s"])
        out["orbit.log_h_evals_per_s"] = _rate(out["orbit.log_h_evals"], out["orbit.log_h_s"])
        out["experiments.calibrate_s"] = inclusive["experiments.calibrate_critical"]
        out["rng.block_busy_s"] = inclusive["rng.block"]
        capacity = sum(workers * duration[sid] for sid, workers in self.map_calls)
        out["rng.pool_efficiency"] = out["rng.block_busy_s"] / capacity if capacity else 0.0
        # Root self time plus the pass time outside any root span.
        roots = [(s, e) for _, _, _, s, e, parent in self.spans if parent is None]
        outside = wall_s - sum(e - s for s, e in roots)
        out["trace.unattributed_s"] = self_by_cat["cli.main"] + max(outside, 0.0)
        out["trace.coverage"] = 1.0 - out["trace.unattributed_s"] / wall_s if wall_s > 0 else 0.0
        out["trace.spans"] = len(self.spans)
        return out


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
