"""Power-estimation harness and theorem-by-theorem sweeps.

Critical values are always calibrated by null Monte Carlo (never by
asymptotic formulas), so the estimated level is correct by construction
up to Monte Carlo error.  Every sweep reports the exact centered norm
and the largest centered entry of its alternative so contiguity
conditions are auditable from the output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from . import _num, models, orbit, stats
from .models import (
    ExpFamilySpec,
    GeneralFamilySpec,
    MeanVector,
    NeymanScottLayout,
    Profile,
)
from .rng import (
    TAG_ALTERNATIVE,
    TAG_CALIBRATE,
    TAG_LEVEL,
    TAG_POWER,
    TAG_SUFFICIENT,
    Pass,
    draw_passes,
    map_blocks,  # not called here: perfbench/test_perfbench.py::test_wrappers_leave_invlab_unpatched reads it
    row_chunks,
    row_slices,
    spawn_generator,
)

DEFAULT_LEVEL = 0.05
DEFAULT_REPS = 10_000
#: Fewest null replicates calibration needs beyond the critical value (``reps * level``).
MIN_TAIL_REPS = 20

T = TypeVar("T")


class IncompatibleConfiguration(ValueError):
    """A test, alternative or sample size the harness refuses, found before any sampling."""


# --------------------------------------------------------------------- #
# Alternatives
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class AlternativeSpec:
    """A named family of alternatives at a given scale.

    ``kind`` is one of ``single_spike``, ``smooth_profile``, ``random_signs``
    and ``spacings_h``; ``scale`` is the centered norm, and
    1 for ``spacings_h``, whose profile carries its own size.  ``profile`` is
    a :class:`~invlab.models.Profile`: the smooth shape, or the spacings
    density perturbation ``h``.
    """

    kind: str
    scale: float
    profile: Profile | None = None
    centered: bool = True

    _KINDS = ("single_spike", "smooth_profile", "random_signs", "spacings_h")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown alternative kind {self.kind!r}")
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")
        if self.kind in ("smooth_profile", "spacings_h") and not isinstance(self.profile, Profile):
            raise ValueError(f"{self.kind} requires a Profile")
        if self.kind == "spacings_h" and self.scale != 1.0:
            raise ValueError("spacings_h takes scale 1: its profile carries the size of h")

    def mean_entries(self, n: int, seed: int) -> np.ndarray:
        """The alternative parameter vector of length ``n``, a deviation from the null parameter 0.

        The deviation is scaled to have centered norm exactly ``scale`` (and
        exactly zero mean when ``centered``); ``random_signs`` derives its
        sign pattern deterministically from the seed.
        """
        if self.scale == 0.0:
            return np.zeros(n)
        if self.kind == "single_spike":
            dev = np.zeros(n)
            dev[0] = 1.0
        elif self.kind == "smooth_profile":
            grid = np.arange(1, n + 1, dtype=float) / n
            dev = np.asarray(self.profile(grid), dtype=float)
        elif self.kind == "random_signs":
            rng = spawn_generator(seed, TAG_ALTERNATIVE)
            dev = rng.choice([-1.0, 1.0], size=n)
        else:
            raise ValueError(f"{self.kind} does not define a mean vector")
        if self.centered:
            dev = dev - dev.mean()
        norm = np.linalg.norm(dev)
        if norm == 0.0:
            raise ValueError("degenerate alternative profile")
        return dev * (self.scale / norm)


#: The null hypothesis as an alternative: every model's draw at scale 0 is its null draw.
NULL = AlternativeSpec("single_spike", 0.0)

#: Sufficient blocks (see :class:`Reduced`): the normal model's
#: ``(u'x, ||x||^2 - (u'x)^2)`` and the Neyman-Scott ANOVA mean squares.
NORMAL_RADIAL = "normal_radial"
ANOVA_MEAN_SQUARES = "anova_mean_squares"


# --------------------------------------------------------------------- #
# Models (batch samplers)
# --------------------------------------------------------------------- #


@dataclass(frozen=True, eq=False)
class Point:
    """A model at one grid point ``(n, alternative)``, checked: what every draw reads.

    ``sample(reps, rng)`` draws ``reps`` replicates, replicates on the
    leading axis, and ``chunks(reps, rng)`` gives the same rows in
    :func:`~invlab.rng.row_chunks` (by default the block drawn whole and
    sliced).  ``block`` names a sufficient block, a few numbers per
    replicate whose exact law ``sufficient(reps, rng)`` draws, for the
    statistics that read only those.  ``mean`` is the checked parameter
    vector of a mean model.
    """

    n: int
    sample: Callable[[int, np.random.Generator], np.ndarray]
    chunks: Callable[[int, np.random.Generator], Iterable[np.ndarray]] | None = None
    block: str | None = None
    sufficient: Callable[[int, np.random.Generator], np.ndarray] | None = None
    mean: MeanVector | None = None

    def __post_init__(self) -> None:
        if self.chunks is None:
            object.__setattr__(self, "chunks", lambda reps, rng: row_slices(self.sample(reps, rng)))

    def reduces(self, statistic: NamedStatistic) -> bool:
        """Whether ``statistic`` here is read exactly from the sufficient block."""
        return statistic.reduced is not None and statistic.reduced.block == self.block


class Model:
    """A named batch sampler of data of size ``n``.

    ``at(n, alt, seed)`` turns the alternative ``alt`` (its parameters
    derived from ``seed``) into a checked :class:`Point`, raising
    ``ValueError`` where it does not apply; ``alt=NULL`` is the null.
    """

    name: str = "model"
    #: The parameter box ``(lo, hi)`` the alternative's entries must lie in, or None for no box.
    compact: tuple[float, float] | None = None

    def mean_vector(self, entries: np.ndarray) -> MeanVector:
        """``entries`` as a :class:`MeanVector` checked against the model's ``compact`` box."""
        lo, hi = self.compact or (None, None)
        return MeanVector(entries, compact_lo=lo, compact_hi=hi)

    def at(self, n: int, alt: AlternativeSpec, seed: int) -> Point:
        raise NotImplementedError


@dataclass(frozen=True)
class FamilyModel(Model):
    """Coordinates independently drawn from a one-parameter family, null parameter 0.

    In the normal family the sufficient block is ``(u'x, ||x||^2 - (u'x)^2)``
    with ``u`` the alternative's unit direction.
    """

    family: ExpFamilySpec | GeneralFamilySpec
    compact: tuple[float, float] | None = models.DEFAULT_COMPACT

    @property
    def name(self) -> str:
        return self.family.name

    def at(self, n, alt, seed):
        m = self.mean_vector(alt.mean_entries(n, seed))
        sample = lambda reps, rng: models.sample_model(self.family, m, rng, reps=reps)
        if self.family.name != "normal":
            return Point(n, sample, mean=m)
        norm = _num.norm(m.entries)
        radial = lambda reps, rng: models.sample_normal_radial(norm, n, rng, reps)
        return Point(n, sample, block=NORMAL_RADIAL, sufficient=radial, mean=m)


def normal_means_model() -> FamilyModel:
    """The unconstrained normal many-means model (no compact box)."""
    return FamilyModel(models.normal_family(), compact=None)


@dataclass(frozen=True)
class NeymanScottModel(Model):
    """Replicated normal groups, null mean 0; data are ``(reps, n, nu)`` tables.

    Its sufficient block is the pair of ANOVA mean squares, between and within.
    """

    nu: int
    sigma: float = 1.0

    name = "neyman_scott"

    def at(self, n, alt, seed):
        layout = NeymanScottLayout(n=n, nu=self.nu, sigma=self.sigma)
        m = self.mean_vector(alt.mean_entries(n, seed))
        return Point(
            n,
            lambda reps, rng: models.sample_neyman_scott(layout, m, rng, reps=reps),
            block=ANOVA_MEAN_SQUARES,
            sufficient=lambda reps, rng: models.sample_neyman_scott_mean_squares(layout, m, rng, reps),
            mean=m,
        )


@dataclass(frozen=True)
class SpacingsModel(Model):
    """Uniform spacings under the null, density ``1 + h/sqrt(n)`` otherwise."""

    name = "spacings"

    def at(self, n, alt, seed):
        if alt.scale == 0.0:
            # The null fills its rows in stream order, so each chunk is one
            # draw from rng, made when the chunk is read.
            return Point(
                n,
                lambda reps, rng: models.sample_spacings_null_batch(n, reps, rng),
                chunks=lambda reps, rng: (
                    models.sample_spacings_null_batch(n, rows, rng) for rows in row_chunks(reps, n + 1)
                ),
            )
        if alt.kind != "spacings_h":
            raise ValueError(f"the spacings model takes a density perturbation h, not {alt.kind}")
        models.check_spacings_profile(n, alt.profile)
        # The alternative's rejection rounds size themselves from reps * n, so
        # it is drawn whole.
        return Point(n, lambda reps, rng: models.sample_spacings_alternative_batch(n, alt.profile, reps, rng))


# --------------------------------------------------------------------- #
# Statistics registry
# --------------------------------------------------------------------- #


@dataclass(frozen=True, eq=False)
class Reduced:
    """A statistic as a function ``fn`` of a model's sufficient block ``block``.

    The normal model's radial block projects on its point's own direction,
    so ``np``'s reduced form holds at the point it was built from
    (:func:`make_statistic`), and at the null, where every direction's
    projection has one law.
    """

    block: str
    fn: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class NamedStatistic:
    """A batch-aware statistic with a stable name for reports.

    ``reduced`` is the same statistic on a sufficient block, where it has one.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    reduced: Reduced | None = None

    def __call__(self, data: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(data), dtype=float)


def make_statistic(name: str, point: Point) -> NamedStatistic:
    """The statistic ``name`` for the data of ``point``, of size ``point.n``.

    ``np`` projects on the point's own mean ``point.mean``, so it needs a
    mean model's point off the null (:meth:`Cell.resolve` builds it at the
    null from the unit-scale point); ``quadratic`` and ``quadratic_spacings``
    use the cosine-basis quadratic statistic, the latter on centered spacings
    residuals ``(n+1) d_i - 1``.  ``cellmean_chisq`` is ``nu ||ybar -
    mean(ybar)||^2`` on the cell means ``ybar`` of an ``n x nu`` table, the
    known-sigma test without its ``1/sigma^2``: a critical value calibrated
    at the model's sigma makes a known positive factor irrelevant.
    ``chisq`` and ``np`` also read the normal model's radial block, and
    ``anova_f`` and ``cellmean_chisq`` the Neyman-Scott mean squares.
    """
    n = point.n
    if name == "chisq":
        radial = Reduced(NORMAL_RADIAL, lambda s: s[:, 0] ** 2 + s[:, 1])
        return NamedStatistic("chisq", stats.chisq_statistic, radial)
    if name in ("variance", "two_spacings_sq") and n < 2:
        raise ValueError(f"{name} is constant below n = 2, got n = {n}")
    if name == "variance":
        return NamedStatistic("variance", stats.sample_variance_statistic)
    if name == "np":
        if point.mean is None or not point.mean.entries.any():
            raise ValueError("np needs a mean model's point off the null to project on")
        direction = point.mean.entries
        projection = Reduced(NORMAL_RADIAL, lambda s: s[:, 0])
        return NamedStatistic("np", lambda x: stats.np_statistic(direction, x), projection)
    if name == "anova_f":
        ratio = Reduced(ANOVA_MEAN_SQUARES, lambda s: s[:, 0] / s[:, 1])
        return NamedStatistic("anova_f", stats.anova_f, ratio)
    if name == "cellmean_chisq":
        # The between mean square is nu ||ybar - mean(ybar)||^2 / (n - 1).
        between = Reduced(ANOVA_MEAN_SQUARES, lambda s: (n - 1) * s[:, 0])
        return NamedStatistic("cellmean_chisq", _cellmean_chisq, between)
    if name == "greenwood":
        return NamedStatistic("greenwood", stats.greenwood)
    if name == "moran":
        return NamedStatistic("moran", lambda d: -np.asarray(stats.moran(d)))
    if name == "two_spacings_sq":
        return NamedStatistic("two_spacings_sq", stats.two_spacings_statistic)
    if name in ("quadratic", "quadratic_spacings"):
        size = n if name == "quadratic" else n + 1
        if size < stats.QUADRATIC_WEIGHTS.size:
            raise ValueError(f"{name} needs at least {stats.QUADRATIC_WEIGHTS.size} observations, got {size}")
    if name == "quadratic":
        return NamedStatistic("quadratic", stats.quadratic_statistic)
    if name == "quadratic_spacings":
        return NamedStatistic(
            "quadratic_spacings", lambda d: stats.quadratic_statistic(d, scale=np.shape(d)[-1], shift=1.0)
        )
    if name == "wilks":
        if n < 3:
            raise ValueError(f"wilks needs n >= 3 bivariate rows, got {n}")
        return NamedStatistic("wilks", _wilks_generalized_variance)
    raise ValueError(f"unknown statistic {name!r}")


def _cellmean_chisq(x: np.ndarray) -> np.ndarray:
    """``nu ||ybar - mean(ybar)||^2`` of each ``n x nu`` table, ``ybar`` its cell means (batched)."""
    x = np.asarray(x, dtype=float)
    means = x.mean(axis=-1)
    centered = means - means.mean(axis=-1, keepdims=True)
    return np.sum(centered**2, axis=-1) * x.shape[-1]


def _wilks_generalized_variance(x: np.ndarray) -> np.ndarray:
    """Log-determinant of the sample covariance of the rows (batched)."""
    x = np.asarray(x, dtype=float)
    centered = x - x.mean(axis=-2, keepdims=True)
    n = x.shape[-2]
    cov = np.swapaxes(centered, -1, -2) @ centered / (n - 1)
    sign, logdet = np.linalg.slogdet(cov)
    if np.any(sign <= 0):
        raise ValueError("degenerate sample covariance")
    return logdet


# --------------------------------------------------------------------- #
# Calibration and power
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class PowerReport:
    """Calibrated critical value with estimated level and power."""

    statistic_name: str
    n: int
    critical_value: float
    level_hat: float
    level_se: float
    power_hat: float
    power_se: float
    reps: int
    seed: int

    @property
    def gap(self) -> float:
        return self.power_hat - self.level_hat

    @property
    def gap_se(self) -> float:
        return float(np.hypot(self.level_se, self.power_se))


def _route_passes(
    point: Point,
    reads: dict[Hashable, Callable[[np.ndarray], np.ndarray] | Reduced],
    reps: int,
    seed: int,
    tag: int,
) -> list[Pass]:
    """The passes that read ``reps`` draws at ``point``.

    A :class:`Reduced` read is its ``fn`` on the point's sufficient block,
    drawn on the stream ``(seed, TAG_SUFFICIENT, tag)``; any other read is a
    function of data drawn on ``(seed, tag)``.  Each kind of block is drawn
    once when any function reads it and evaluated by its readers in turn, so
    the values of one function do not depend on which others share the pass.
    """
    data = {key: fn for key, fn in reads.items() if not isinstance(fn, Reduced)}
    sufficient = {key: fn.fn for key, fn in reads.items() if isinstance(fn, Reduced)}
    out = []
    if data:
        chunks = lambda count, rng, _: point.chunks(count, rng)
        out.append(Pass(chunks, data, reps, seed, (tag,), point.n))
    if sufficient:
        chunks = lambda count, rng, _: row_slices(point.sufficient(count, rng))
        out.append(Pass(chunks, sufficient, reps, seed, (TAG_SUFFICIENT, tag)))
    return out


def calibration_reps(reps: int, calib_reps: int | None = None) -> int:
    """Null replicates used for calibration: ``calib_reps``, else ``max(2 reps, 1000)``."""
    return calib_reps if calib_reps is not None else max(2 * reps, 1000)


def _check_calibration(level: float, reps: int) -> None:
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if reps * level < MIN_TAIL_REPS:
        raise ValueError(
            f"too few replicates for the requested quantile (need reps*level >= {MIN_TAIL_REPS})"
        )


def calibrate_critical(values: Sequence[np.ndarray], level: float, reps: int) -> list[float]:
    """Empirical upper-``level`` critical values, one per array of ``reps`` null values.

    ``values`` are the calibration values a plan drew, one array per test
    (:func:`_sweep_cells`).  The rejection rule is ``statistic > critical``;
    two-sided statistics must be pre-transformed to one-sided form by the
    caller.
    """
    _check_calibration(level, reps)
    return [float(np.quantile(vals, 1.0 - level, method="higher")) for vals in values]


def _rejection_rate(values: np.ndarray, critical: float) -> tuple[float, float]:
    k = int(np.sum(values > critical))
    reps = values.size
    p = k / reps
    # Continuity-corrected SE keeps the error bar positive at p in {0, 1}.
    p_tilde = (k + 0.5) / (reps + 1.0)
    se = float(np.sqrt(p_tilde * (1.0 - p_tilde) / reps))
    return float(p), se


def estimate_power(
    cell: Cell, level: float, reps: int, calib_reps: int | None = None, workers: int = 1
) -> PowerReport:
    """Calibrate ``cell``'s one test under the null, then estimate level and power by fresh runs.

    The cell comes from :meth:`Cell.resolve`, which builds its statistic
    from the point it tests; this is a sweep of that one cell
    (:func:`_sweep_cells`).
    """
    ((_, (report,), _),) = _sweep_cells([cell], reps, level, calib_reps, workers)
    return report


# --------------------------------------------------------------------- #
# Theorem sweeps
#
# A sweep returns one dict per grid point whose keys are its table's
# columns, in order; a grid point is one Cell of its tests, and
# _sweep_cells draws every cell's blocks in one plan.
# --------------------------------------------------------------------- #


#: A grid point's tests: ``(statistic name, alternative)`` pairs.
Tests = Sequence[tuple[str, AlternativeSpec]]


@dataclass(frozen=True)
class Cell:
    """A grid point's tests: its null point, run seed and ``(statistic, point)`` pairs."""

    null: Point
    seed: int
    tests: list[tuple[NamedStatistic, Point]]

    @property
    def n(self) -> int:
        return self.null.n

    @classmethod
    def resolve(cls, model: Model, n: int, seed: int, tests: Tests) -> Cell:
        """``tests`` at size ``n`` and run seed ``seed``, each statistic built from its point.

        Each distinct alternative is resolved once (:meth:`Model.at`).  At
        scale 0 ``np``'s projection direction is degenerate, so it is built
        from the unit-scale point (power equals level either way); where that
        point is refused, the refusal names ``np``.
        """
        points = {alt: model.at(n, alt, seed) for alt in dict.fromkeys(a for _, a in tests)}

        def statistic(test: str, alt: AlternativeSpec) -> NamedStatistic:
            if test == "np" and alt.scale == 0.0:
                try:
                    unit = model.at(n, replace(alt, scale=1.0), seed)
                except ValueError as exc:
                    raise ValueError(
                        "np at the null projects on the unit-scale direction, which is degenerate at this n"
                    ) from exc
                return make_statistic(test, unit)
            return make_statistic(test, points[alt])

        return cls(model.at(n, NULL, seed), seed, [(statistic(t, a), points[a]) for t, a in tests])


def per_n(label: str, n_grid: Sequence[int], setup: Callable[[int, int], T]) -> list[T]:
    """``setup(n, grid_index)`` for every grid point, all before anything is sampled.

    A ``ValueError`` from any of them (a statistic, alternative or orbit group
    undefined at ``n``) is re-raised as :class:`IncompatibleConfiguration`
    with the message ``<label> at n = N: ...``, so a run that cannot finish
    is refused up front.
    """
    out = []
    for gi, n in enumerate(n_grid):
        try:
            out.append(setup(int(n), gi))
        except ValueError as exc:
            raise IncompatibleConfiguration(f"{label} at n = {n}: {exc}") from exc
    return out


def _grid_cells(model: Model, tests: Tests, n_grid: Sequence[int], seed: int) -> list[Cell]:
    """Per grid point the :class:`Cell` of ``tests`` at that point's run seed."""
    return per_n(
        f"the {model.name} model", n_grid,
        lambda n, gi: Cell.resolve(model, n, _grid_seed(seed, gi), tests),
    )


def _sweep_cells(
    cells: Sequence[Cell],
    reps: int,
    level: float,
    calib_reps: int | None,
    workers: int,
    level_reads: Sequence[Callable[[np.ndarray], np.ndarray]] = (),
    own: Sequence[Pass] = (),
) -> Iterator[tuple[Cell, list[PowerReport], list[np.ndarray]]]:
    """Per cell, ``(cell, reports, reads)``: its tests on shared draws.

    Value ``(c, "calibrate", i)`` is test ``i`` of cell ``c`` on ``calib_reps``
    draws at the null point, ``(c, "level", i)`` on ``reps`` more, and
    ``(c, "power", i)`` on ``reps`` draws at its own point; ``(c, "read", j)``
    is function ``j`` of ``level_reads`` on the level's null data.  ``own``,
    when given, holds one more pass per cell, its keys unlike these; a cell's
    ``reads`` are its level reads, then the values of its own pass.  A test
    takes the route its own point takes for its statistic
    (:meth:`Point.reduces`), for calibration, level and power alike.  Per
    cell and route the null is drawn once for calibration and once for the
    level, and each distinct point once for power.  Every pass is drawn in
    one plan (:func:`~invlab.rng.draw_passes`) before any cell is reduced,
    and a cell's critical values are the quantiles :func:`calibrate_critical`
    takes of its calibration values.  Too few calibration replicates are
    refused before anything is drawn.
    """
    calib = calibration_reps(reps, calib_reps)
    _check_calibration(level, calib)
    passes = []
    for c, cell in enumerate(cells):
        routes = [s.reduced if point.reduces(s) else s for s, point in cell.tests]
        stage = lambda name, indices: {(c, name, i): routes[i] for i in indices}
        every = range(len(cell.tests))
        reads = {(c, "read", j): fn for j, fn in enumerate(level_reads)}
        passes += _route_passes(cell.null, stage("calibrate", every), calib, cell.seed, TAG_CALIBRATE)
        passes += _route_passes(cell.null, stage("level", every) | reads, reps, cell.seed, TAG_LEVEL)
        for point in dict.fromkeys(p for _, p in cell.tests):
            sharing = [i for i, (_, p) in enumerate(cell.tests) if p is point]
            passes += _route_passes(point, stage("power", sharing), reps, cell.seed, TAG_POWER)
    values = draw_passes([*passes, *own], workers)
    for c, cell in enumerate(cells):
        every = range(len(cell.tests))
        criticals = calibrate_critical([values[c, "calibrate", i] for i in every], level, calib)
        reports = [
            PowerReport(
                statistic.name, cell.n, critical,
                *_rejection_rate(values[c, "level", i], critical),
                *_rejection_rate(values[c, "power", i], critical),
                reps, cell.seed,
            )
            for i, ((statistic, _), critical) in enumerate(zip(cell.tests, criticals))
        ]
        reads = [values[c, "read", j] for j in range(len(level_reads))]
        yield cell, reports, reads + [values[key] for key in (own[c].reads if own else ())]


def _gap_columns(labels: Sequence[str], reports: Sequence[PowerReport]) -> dict[str, float]:
    """``<label>_gap`` and ``<label>_gap_se`` of each labelled report, in test order."""
    columns = {}
    for label, rep in zip(labels, reports, strict=True):
        columns[f"{label}_gap"], columns[f"{label}_gap_se"] = rep.gap, rep.gap_se
    return columns


def _audit_columns(point: Point) -> dict[str, float]:
    """Exact centered norm and largest centered entry of a mean model's point."""
    return {"centered_norm": point.mean.centered_norm, "max_dev": point.mean.max_centered_dev}


def theorem1_sweep(
    delta: float,
    n_grid: Sequence[int],
    reps: int,
    seed: int,
    level: float = DEFAULT_LEVEL,
    lbar_reps: int | None = None,
    calib_reps: int | None = None,
    workers: int = 1,
) -> list[dict]:
    """Normal model, orthogonal group: invariant-test collapse against the bound.

    Per grid point: power-minus-level of the squared-norm test at a spike of
    norm ``delta``, the Neyman-Pearson power at the same alternative, and the
    Monte Carlo bound ``E_0 |Lbar - 1|``.
    """
    model = normal_means_model()
    lbar_reps = lbar_reps if lbar_reps is not None else reps
    alt = AlternativeSpec(kind="single_spike", scale=delta, centered=False)
    orthogonal = orbit.OrbitSpec(orbit.Group.FULL_ORTHOGONAL)
    cells = _grid_cells(model, [("chisq", alt), ("np", alt)], n_grid, seed)
    spike = lambda cell: cell.tests[0][1].mean
    # The bound's orbit average at each cell's spike, drawn in the cells' plan.
    orbits = per_n(
        f"the {model.name} model", n_grid,
        lambda _, gi: orthogonal.null_orbit(model.family, spike(cells[gi]), cells[gi].seed)
        .lbar_pass(lbar_reps, {("lbar", gi): orbit.LBAR}),
    )
    rows = []
    for cell, (chisq, np_rep), (lbar,) in _sweep_cells(cells, reps, level, calib_reps, workers, own=orbits):
        bound, bound_se = orbit.power_level_bound(lbar)
        rows.append({
            "n": cell.n,
            **_gap_columns(("chisq",), (chisq,)),
            "np_power": np_rep.power_hat,
            "np_power_se": np_rep.power_se,
            "lbar_bound": bound,
            "lbar_bound_se": bound_se,
            "m_norm": float(np.linalg.norm(spike(cell).entries)),
        })
    return rows


def theorem2_sweep(
    family: ExpFamilySpec | GeneralFamilySpec,
    delta: float,
    n_grid: Sequence[int],
    reps: int,
    seed: int,
    level: float = DEFAULT_LEVEL,
    calib_reps: int | None = None,
    workers: int = 1,
) -> list[dict]:
    """Exponential-family collapse of a permutation-invariant statistic.

    The invariant statistic (sample variance) is run at a centered spike of
    norm ``delta``; the quadratic statistic is run at the centered cosine
    profile ``sqrt(2) cos(2 pi x)`` of the same norm.
    """
    model = FamilyModel(family)
    spike = AlternativeSpec(kind="single_spike", scale=delta)
    smooth = AlternativeSpec(kind="smooth_profile", scale=delta, profile=models.cosine_profile({1: 1.0}))
    labels = ("invariant", "quadratic")
    cells = _grid_cells(model, [("variance", spike), ("quadratic", smooth)], n_grid, seed)
    # The audit columns are the spike's, the invariant test's point.
    return [
        {"n": cell.n, **_gap_columns(labels, reports), **_audit_columns(cell.tests[0][1])}
        for cell, reports, _ in _sweep_cells(cells, reps, level, calib_reps, workers)
    ]


def neyman_scott_sweep(
    alt: AlternativeSpec,
    n_grid: Sequence[int],
    nu: int,
    reps: int,
    seed: int,
    sigma: float = 1.0,
    level: float = DEFAULT_LEVEL,
    calib_reps: int | None = None,
    workers: int = 1,
) -> list[dict]:
    """ANOVA-F collapse in the replicated many-means problem, at the cell means ``alt``.

    ``sigma`` is unknown to the F test; the same table reports the known-
    sigma squared-norm test on centered cell means, calibrated at ``sigma``.
    """
    model = NeymanScottModel(nu=nu, sigma=sigma)
    labels = ("f", "cellmean_chisq")
    cells = _grid_cells(model, [("anova_f", alt), ("cellmean_chisq", alt)], n_grid, seed)
    return [
        {"n": cell.n, "nu": nu, **_gap_columns(labels, reports), **_audit_columns(cell.tests[0][1])}
        for cell, reports, _ in _sweep_cells(cells, reps, level, calib_reps, workers)
    ]


def matrix_variate_sweep(
    n_grid: Sequence[int],
    delta: float,
    reps: int,
    seed: int,
    level: float = DEFAULT_LEVEL,
    calib_reps: int | None = None,
    workers: int = 1,
) -> list[dict]:
    """Bivariate-normal rows, equality of the first coordinate of the mean.

    A permutation-invariant generalized-variance statistic is run at a
    centered spike (first column) with ``||M - Mbar|| = delta``.
    """

    class _MatrixModel(Model):
        name = "matrix_normal"

        def at(self, n, alt_, seed_):
            dev = np.zeros((n, 2))
            dev[:, 0] = alt_.mean_entries(n, seed_)
            return Point(n, lambda reps_, rng: rng.normal(size=(reps_, n, 2)) + dev)

    cells = _grid_cells(_MatrixModel(), [("wilks", AlternativeSpec("single_spike", delta))], n_grid, seed)
    return [
        {"n": cell.n, **_gap_columns(("wilks",), reports)}
        for cell, reports, _ in _sweep_cells(cells, reps, level, calib_reps, workers)
    ]


def spacings_sweep(
    alt: AlternativeSpec,
    n_grid: Sequence[int],
    reps: int,
    seed: int,
    level: float = DEFAULT_LEVEL,
    calib_reps: int | None = None,
    workers: int = 1,
) -> list[dict]:
    """Spacings tests under the contiguous density ``1 + h/sqrt(n)``, ``h`` the profile of ``alt``.

    Gaps for Greenwood, Moran, the overlapping 2-spacings statistic, and the
    quadratic statistic on centered spacings residuals, plus the 95th
    percentile of |linear approximation - exact log-likelihood ratio| on the
    level pass's null replicates (its trend across n is the boundedness
    diagnostic).  An ``alt`` of any kind but ``spacings_h`` is refused
    before anything is resolved or drawn.
    """
    if alt.kind != "spacings_h":
        raise IncompatibleConfiguration(f"the spacings sweep takes a density perturbation h, not {alt.kind}")
    model, h = SpacingsModel(), alt.profile
    # Each test's column label and the statistic it runs.
    names = {"greenwood": "greenwood", "moran": "moran", "two_spacings": "two_spacings_sq",
             "quadratic": "quadratic_spacings"}
    cells = _grid_cells(model, [(name, alt) for name in names.values()], n_grid, seed)

    def llr_gap(d: np.ndarray) -> np.ndarray:
        return np.abs(models.spacings_loglik_approx(h, d) - models.spacings_loglik_exact(h, d))

    return [
        {"n": cell.n, **_gap_columns(names, reports), **_llr_gap_p95(gaps)}
        for cell, reports, (gaps,) in _sweep_cells(cells, reps, level, calib_reps, workers, [llr_gap])
    ]


def _llr_gap_p95(gaps: np.ndarray) -> dict[str, float]:
    """``llr_gap_p95``, the 95th percentile of ``gaps``, and its error bar from ten batches of replicates."""
    p95 = float(np.quantile(gaps, 0.95))
    batches = np.array_split(gaps, 10)
    vals = [np.quantile(bb, 0.95) for bb in batches if bb.size]
    se = float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
    return {"llr_gap_p95": p95, "llr_gap_p95_se": se}


def _grid_seed(seed: int, grid_index: int) -> int:
    """Distinct 64-bit seed per grid point, derived from the run seed."""
    return int(spawn_generator(seed, 999, grid_index).integers(0, 2**63 - 1))
