"""The benchmark's workloads: fixed sets of ``invlab`` CLI invocations.

Each workload is a list of subcommand invocations that one pass runs in a
fresh Python process, in order, with the benchmark's ``--seed``.  Replicate
counts are fixed here, so every pass computes its tables at the same Monte
Carlo accuracy; a program that got faster by drawing fewer replicates is
caught by the standard-error ceilings in ``checks.py``.

Why these three workloads
-------------------------
The layers are the ``invlab`` modules (``rng``, ``models``, ``stats``,
``orbit``, ``permclt``, ``experiments``, ``cli``).  Each workload stresses a
different subset, so that an optimisation of one layer shows on the workload
that exercises it and leaves the others unchanged:

``orthogonal`` (single-threaded)
    Theorem 1 and the orthogonal-group orbit bound.  Normal draws dominate
    ``sweep-theorem1`` (the chisq and Neyman-Pearson statistics redraw the
    same null and alternative batches), and the radial kernel ``log H``
    dominates ``lbar``.  It is where a shared-draw power engine, a cheaper
    normal sampler or a faster ``log H`` shows, and it is the plain
    single-threaded baseline.

``spacings`` (``--workers 2``)
    The spacings sweep: the rejection sampler for the alternative, the
    exponential null sampler and four statistics evaluated on redrawn data.
    It is the only workload on the ``rng.map_blocks`` thread pool, and it
    never touches ``orbit`` or ``permclt``, so changes there should leave it
    unchanged.

``permutation`` (single-threaded)
    Permutation, bootstrap and coupling laws (``clt-sweep``, ``coupling``)
    and the Monte Carlo permutation average of ``lbar``; the three take
    comparable shares of a pass.  It uses the Poisson sampler rather than the
    normal one and makes no ``estimate_power`` or ``log H`` call, so it shows
    changes to permutation sampling and should not move with the power
    engine or the kernel.

Not measured yet
----------------
Spans inside the program, a ``--profile`` flag and sidecar timings are a
later change to ``invlab`` itself; this benchmark traces only from outside
the package.  Two counters need the program's internals and wait for that
change: the rejection sampler's acceptance rate and the converged quadrature
grid size of ``log H``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    """One ``invlab`` subcommand with its fixed arguments (seed and output excluded)."""

    subcommand: str
    args: tuple[str, ...]

    def argv(self, seed: int, out: str) -> list[str]:
        return [self.subcommand, *self.args, "--seed", str(seed), "--out", out]


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]

    @property
    def subcommands(self) -> tuple[str, ...]:
        return tuple(inv.subcommand for inv in self.invocations)


def _inv(line: str) -> Invocation:
    sub, *args = line.split()
    return Invocation(sub, tuple(args))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "orthogonal",
            (
                _inv("sweep-theorem1 --delta 3 --n-grid 100,10000 --reps 512 --lbar-reps 1024 --workers 1"),
                _inv("lbar --group full_orthogonal --model normal --alt spike:3 --n 1000,10000 --reps 1024 --workers 1"),
            ),
        ),
        Workload(
            "spacings",
            (_inv("sweep-spacings --alt h:cos1:2 --n-grid 100,400,1600 --reps 2048 --workers 2"),),
        ),
        Workload(
            "permutation",
            (
                _inv("clt-sweep --model poisson --n-grid 50,500,5000 --reps 2048 --workers 1"),
                _inv("coupling --n-grid 100,1000,10000 --reps 1024 --workers 1"),
                _inv("lbar --group permutation --model poisson --alt spike:1 --n 50 --reps 1024 --mc-reps 2000 --workers 1"),
            ),
        ),
    )
}


def table_name(index: int, inv: Invocation) -> str:
    """File name of the table an invocation writes within a pass directory."""
    return f"{index}-{inv.subcommand}.csv"
