"""Tests for the power harness and theorem sweeps."""

import functools
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

import invlab
from invlab import experiments, models
from invlab.experiments import (
    NULL,
    AlternativeSpec,
    NamedStatistic,
    NeymanScottModel,
    SpacingsModel,
    calibrate_critical,
    cellmean_chisq_statistic,
    estimate_power,
    make_statistic,
    matrix_variate_sweep,
    neyman_scott_sweep,
    normal_means_model,
    spacings_sweep,
    theorem1_sweep,
    theorem2_sweep,
)
from invlab.rng import BLOCK_REPS, TAG_CALIBRATE, row_chunks, row_slices, spawn_generator

from oracles import load_expectations, trend_slope


class TestAlternatives:
    def test_spike_centered_norm(self):
        alt = AlternativeSpec(kind="single_spike", scale=2.0)
        m = alt.mean_entries(50, seed=0)
        assert np.linalg.norm(m - m.mean()) == pytest.approx(2.0)
        assert m.mean() == pytest.approx(0.0, abs=1e-12)

    def test_spike_uncentered(self):
        alt = AlternativeSpec(kind="single_spike", scale=3.0, centered=False)
        m = alt.mean_entries(10, seed=0)
        assert m[0] == pytest.approx(3.0)
        assert np.all(m[1:] == 0.0)

    def test_smooth_profile_norm(self):
        alt = AlternativeSpec(
            kind="smooth_profile",
            scale=1.5,
            profile=lambda x: np.sqrt(2) * np.cos(2 * np.pi * x),
        )
        m = alt.mean_entries(200, seed=0)
        assert np.linalg.norm(m - m.mean()) == pytest.approx(1.5)

    def test_random_signs_deterministic_in_seed(self):
        alt = AlternativeSpec(kind="random_signs", scale=1.0)
        a = alt.mean_entries(20, seed=5)
        b = alt.mean_entries(20, seed=5)
        c = alt.mean_entries(20, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            AlternativeSpec(kind="bogus", scale=1.0)


class TestCalibration:
    def test_critical_is_the_higher_quantile_of_each_array(self):
        # Upper 0.25 of 0..79 sits between 59 and 60; "higher" takes 60.
        values = [np.arange(80.0), 2.0 * np.arange(80.0)[::-1], np.full(80, 3.5)]
        assert calibrate_critical(values, 0.25, 80) == [60.0, 120.0, 3.5]
        assert calibrate_critical([np.arange(40.0)], 0.5, 40) == [20.0]

    def test_too_few_tail_reps_refused(self):
        assert 100 * 0.1 < experiments.MIN_TAIL_REPS
        with pytest.raises(ValueError, match="too few replicates"):
            calibrate_critical([np.arange(100.0)], 0.1, 100)

    def test_chisq_critical_matches_quantile_oracle(self):
        model = normal_means_model()
        crit = estimate_power(
            model, make_statistic("chisq", 20), NULL, 0.05, n=20, reps=1000, seed=0, calib_reps=20_000
        ).critical_value
        oracle = sps.chi2.ppf(0.95, 20)
        # MC quantile error at 2e4 reps
        se = np.sqrt(0.05 * 0.95 / 20_000) / sps.chi2.pdf(oracle, 20)
        assert abs(crit - oracle) < 4 * se

    def test_median_at_half_level(self):
        model = normal_means_model()
        alt = AlternativeSpec("single_spike", 1.0)
        stat = make_statistic("np", 30, alt=alt)
        crit = estimate_power(
            model, stat, alt, 0.5, n=30, reps=1000, seed=1, calib_reps=20_000
        ).critical_value
        assert abs(crit) < 4 * np.sqrt(np.pi / 2 / 20_000) + 0.02

    def test_f_critical_matches_oracle(self):
        model = NeymanScottModel(nu=5)
        crit = estimate_power(
            model, make_statistic("anova_f", 10), NULL, 0.05, n=10, reps=1000, seed=2, calib_reps=20_000
        ).critical_value
        oracle = sps.f.ppf(0.95, 9, 40)
        se = np.sqrt(0.05 * 0.95 / 20_000) / sps.f.pdf(oracle, 9, 40)
        assert abs(crit - oracle) < 4 * se

    def test_too_few_reps_rejected(self):
        model = normal_means_model()
        with pytest.raises(ValueError, match="reps"):
            estimate_power(
                model, make_statistic("chisq", 5), NULL, 0.01, n=5, reps=100, seed=0, calib_reps=100
            )


class TestEstimatePower:
    def test_null_alternative_power_equals_level(self):
        model = normal_means_model()
        rep = estimate_power(
            model,
            make_statistic("chisq", 40),
            AlternativeSpec("single_spike", 0.0),
            0.05,
            n=40,
            reps=4000,
            seed=3,
        )
        assert abs(rep.power_hat - rep.level_hat) <= 4 * rep.gap_se
        assert abs(rep.level_hat - 0.05) <= 4 * rep.level_se

    def test_np_power_matches_normal_oracle(self):
        model = normal_means_model()
        alt = AlternativeSpec("single_spike", 3.0, centered=False)
        rep = estimate_power(
            model, make_statistic("np", 100, alt=alt), alt, 0.05, 100, 10_000, seed=4
        )
        oracle = sps.norm.sf(sps.norm.ppf(0.95) - 3.0)
        assert oracle == pytest.approx(0.912, abs=5e-4)
        # allow for calibration-induced critical-value error
        se_crit = np.sqrt(0.05 * 0.95 / 20_000) / sps.norm.pdf(sps.norm.ppf(0.95))
        se = np.hypot(rep.power_se, sps.norm.pdf(sps.norm.ppf(0.95) - 3.0) * se_crit)
        assert abs(rep.power_hat - oracle) < 4 * se

    def test_chisq_power_shrinks_with_n(self):
        model = normal_means_model()
        alt = AlternativeSpec("single_spike", 3.0, centered=False)
        gaps = {}
        for n in (100, 10_000):
            rep = estimate_power(
                model, make_statistic("chisq", n), alt, 0.05, n, 6000, seed=5
            )
            crit = sps.chi2.ppf(0.95, n)
            oracle_gap = sps.ncx2.sf(crit, n, 9.0) - 0.05
            assert abs(rep.gap - oracle_gap) < 4 * rep.gap_se + 0.01
            gaps[n] = rep.gap
        assert gaps[10_000] < gaps[100]

    def test_report_metadata(self):
        model = normal_means_model()
        rep = estimate_power(
            model,
            make_statistic("chisq", 10),
            AlternativeSpec("single_spike", 1.0),
            0.1,
            n=10,
            reps=1000,
            seed=6,
        )
        assert rep.reps == 1000 and rep.seed == 6
        assert 0.0 <= rep.level_hat <= 1.0 and 0.0 <= rep.power_hat <= 1.0
        assert rep.level_se > 0 and rep.power_se > 0

    def test_reproducible(self):
        model = normal_means_model()
        args = (
            model,
            make_statistic("chisq", 25),
            AlternativeSpec("single_spike", 2.0),
            0.05,
            25,
            2000,
            7,
        )
        assert estimate_power(*args) == estimate_power(*args)

    def test_workers_do_not_change_results(self):
        model = normal_means_model()
        alt = AlternativeSpec("single_spike", 2.0)
        a = estimate_power(
            model, make_statistic("chisq", 25), alt, 0.05, 25, 3000, 8, workers=1
        )
        b = estimate_power(
            model, make_statistic("chisq", 25), alt, 0.05, 25, 3000, 8, workers=8
        )
        assert a == b


_N, _REPS, _SEED = 30, 300, 40
_H = AlternativeSpec("spacings_h", 1.0, profile=models.cosine_profile({1: 2.0}))
_SPIKE = AlternativeSpec("single_spike", 2.0)
_SMOOTH = AlternativeSpec("smooth_profile", 2.0, profile=models.cosine_profile({1: 1.0}))
#: Four tests per model; the normal case has two alternatives, each shared
#: by two statistics.
_ENGINE_CASES = {
    "spacings": (
        SpacingsModel(),
        [(name, _H) for name in ("greenwood", "moran", "two_spacings_sq", "quadratic_spacings")],
    ),
    "normal": (
        normal_means_model(),
        [("chisq", _SPIKE), ("np", _SPIKE), ("variance", _SMOOTH), ("quadratic", _SMOOTH)],
    ),
}


def _engine_tests(case):
    model, specs = _ENGINE_CASES[case]
    return model, [(make_statistic(name, _N, alt=alt, seed=_SEED), alt) for name, alt in specs]


def _one_cell(model, tests, workers=1):
    """The reports of ``tests`` swept as one cell at ``_N`` and ``_SEED``."""
    cell = experiments.Cell.resolve(model, _N, _SEED, tests)
    ((_, reports, _),) = experiments._sweep_cells([cell], _REPS, 0.1, None, workers)
    return reports


@functools.cache
def _alone(case):
    model, tests = _engine_tests(case)
    return [estimate_power(model, stat, alt, 0.1, _N, _REPS, _SEED) for stat, alt in tests]


class TestSharedDrawEngine:
    """A test's report does not depend on the tests that share its draws."""

    @settings(max_examples=12, deadline=None)
    @given(
        case=st.sampled_from(sorted(_ENGINE_CASES)),
        order=st.permutations(range(4)),
        size=st.integers(1, 4),
        workers=st.sampled_from([1, 2]),
    )
    def test_report_independent_of_company_order_and_workers(self, case, order, size, workers):
        model, tests = _engine_tests(case)
        chosen = list(order[:size])
        reports = _one_cell(model, [tests[i] for i in chosen], workers)
        assert reports == [_alone(case)[i] for i in chosen]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_cells_match_each_cell_alone(self, workers):
        model = normal_means_model()
        chisq = make_statistic("chisq", 30)
        assert model.at(30, _SPIKE, 11).reduces(chisq)
        cells = [
            experiments.Cell.resolve(model, 30, 11, [(chisq, _SPIKE), (make_statistic("variance", 30), _SPIKE)]),
            experiments.Cell.resolve(model, 50, 12, [(make_statistic("variance", 50), _SMOOTH)]),
        ]
        swept = list(experiments._sweep_cells(cells, _REPS, 0.1, None, workers))
        assert [(cell.n, cell.seed) for cell, _, _ in swept] == [(30, 11), (50, 12)]
        for cell, (_, reports, reads) in zip(cells, swept):
            assert reads == []
            (alone,) = experiments._sweep_cells([cell], _REPS, 0.1, None, workers)
            assert reports == alone[1]

    def test_statistic_cannot_mutate_shared_block(self):
        model, tests = _engine_tests("normal")

        def doubling(x):
            x *= 2.0
            return x.sum(axis=-1)

        with pytest.raises(ValueError, match="read-only"):
            _one_cell(model, [(NamedStatistic("doubling", doubling), _SPIKE), tests[0]])

    def test_spacings_model_rejects_mean_alternative(self):
        with pytest.raises(ValueError, match="spacings model"):
            SpacingsModel().at(10, _SPIKE, 0)


_PARTIAL_BLOCK = 476


def _chunk_digests(n: int) -> dict[str, list[str]]:
    """Digests of each statistic on a 476-row block: whole, by ``_draw_passes``, and ragged.

    Covers every ``make_statistic`` name, ``cellmean_chisq`` and the two
    spacings log-likelihoods.  The ragged split has chunks of 1, 2 and 5 rows.
    """
    rng = spawn_generator(52, n)
    count = _PARTIAL_BLOCK
    vectors = rng.standard_normal((count, n))
    spacings = models.sample_spacings_null_batch(n, count, rng)
    tables = rng.standard_normal((count, n, 2))
    h = models.cosine_profile({1: 2.0, 3: -0.5})
    cases = {
        **{
            name: (make_statistic(name, n, _SMOOTH), vectors)
            for name in ("chisq", "variance", "np", "quadratic")
        },
        **{
            name: (make_statistic(name, n), spacings)
            for name in ("greenwood", "moran", "two_spacings_sq", "quadratic_spacings")
        },
        **{name: (make_statistic(name, n), tables) for name in ("anova_f", "wilks")},
        "cellmean_chisq": (cellmean_chisq_statistic(n, 1.0), tables),
        "spacings_loglik_approx": (functools.partial(models.spacings_loglik_approx, h), spacings),
        "spacings_loglik_exact": (functools.partial(models.spacings_loglik_exact, h), spacings),
    }
    edges = np.cumsum([0, 1, 2, 5, count - 8])
    out = {}
    for name, (fn, data) in cases.items():
        whole = np.asarray(fn(data), dtype=float)
        passes = [experiments._Pass(lambda c, rng: row_slices(data), {name: fn}, count, 0, (0,))]
        chunked = experiments._draw_passes(passes, 1)[name]
        ragged = np.concatenate([fn(data[lo:hi]) for lo, hi in zip(edges[:-1], edges[1:])])
        out[name] = [hashlib.sha256(v.tobytes()).hexdigest() for v in (whole, chunked, ragged)]
    return out


class TestChunkInvariance:
    """A replicate's statistic depends on its own row only.

    Whole-block, row-chunked and ragged evaluation of a 476-row partial block
    must give the same bits, under one and two BLAS threads (child processes,
    since OpenBLAS reads its thread count at import).  A two-thread BLAS
    product of the block splits it after row 238, not a multiple of four.
    """

    @pytest.fixture(scope="class")
    def digests(self):
        src = Path(invlab.__file__).resolve().parents[1]
        found = {}
        for threads in (1, 2):
            env = {
                **os.environ,
                "OPENBLAS_NUM_THREADS": str(threads),
                "PYTHONPATH": os.pathsep.join([str(src), str(Path(__file__).parent)]),
            }
            code = (
                "import json, test_experiments as t; "
                "print(json.dumps({n: t._chunk_digests(n) for n in (100, 1600, 5001)}))"
            )
            run = subprocess.run(
                [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
            )
            found[threads] = json.loads(run.stdout)
        return found

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", ["100", "1600", "5001"])
    def test_chunked_equals_whole_block(self, digests, threads, n):
        for name, (whole, chunked, ragged) in digests[threads][n].items():
            assert whole == chunked == ragged, name

    def test_thread_count_changes_no_value(self, digests):
        assert digests[1] == digests[2]


def _whole_null_block(n: int, count: int, rng) -> np.ndarray:
    """One whole-block null draw: ``exponential(1.0)`` rows divided by their sums."""
    e = rng.exponential(1.0, size=(count, n + 1))
    return e / e.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("n", [1, 100, 1600, 5001])
class TestChunkedNullDraws:
    """Null spacings drawn one row chunk at a time are one whole-block draw, bit for bit."""

    @pytest.mark.parametrize("count", [BLOCK_REPS, _PARTIAL_BLOCK])
    def test_model_chunks(self, n, count):
        chunks = list(SpacingsModel().at(n, NULL, 0).chunks(count, spawn_generator(53, n)))
        assert [len(c) for c in chunks] == row_chunks(count, n + 1)
        assert np.array_equal(np.concatenate(chunks), _whole_null_block(n, count, spawn_generator(53, n)))

    def test_ragged_splits(self, n):
        rng = spawn_generator(54, n)
        rows = [1, 2, 5, 7, 461]
        got = np.concatenate([models.sample_spacings_null_batch(n, r, rng) for r in rows])
        assert np.array_equal(got, _whole_null_block(n, sum(rows), spawn_generator(54, n)))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_block_values_read_the_blocks_streams(self, n, workers):
        # 1500 replicates: a full block and a 476-row partial one, each on its own stream.
        reps, seed, tags = BLOCK_REPS + _PARTIAL_BLOCK, 55, (TAG_CALIBRATE,)
        chunks = SpacingsModel().at(n, NULL, seed).chunks
        passes = [experiments._Pass(chunks, {"null": lambda d: d}, reps, seed, tags)]
        got = experiments._draw_passes(passes, workers)["null"]
        want = [
            _whole_null_block(n, count, spawn_generator(seed, *tags, b))
            for b, count in enumerate((BLOCK_REPS, _PARTIAL_BLOCK))
        ]
        assert np.array_equal(got, np.concatenate(want))


class TestReducedRoute:
    """Statistics read from a model's sufficient block.

    The reference is the vector path: the same statistic on whole data
    vectors (or tables) drawn by the model's point (``Model.at``).
    """

    N, NU, REPS = 40, 3, 20_000
    ALTS = {
        "null": NULL,
        "spike": AlternativeSpec("single_spike", 3.0),
        "smooth": AlternativeSpec("smooth_profile", 2.0, profile=models.cosine_profile({1: 1.0})),
    }

    @classmethod
    def _case(cls, stat, alt):
        if stat in ("chisq", "np"):
            return normal_means_model(), make_statistic(stat, cls.N, alt=alt, seed=1)
        model = NeymanScottModel(nu=cls.NU, sigma=1.5)
        if stat == "anova_f":
            return model, make_statistic(stat, cls.N)
        return model, cellmean_chisq_statistic(cls.N, 1.5)

    @pytest.mark.parametrize("alt_name", sorted(ALTS))
    @pytest.mark.parametrize("stat", ["chisq", "np", "anova_f", "cellmean_chisq"])
    def test_matches_vector_path_in_distribution(self, stat, alt_name):
        alt = self.ALTS[alt_name]
        model, statistic = self._case(stat, alt)
        point = model.at(self.N, alt, 1)
        assert point.reduces(statistic)
        block = point.sufficient(self.REPS, spawn_generator(41, 1))
        reduced = statistic.reduced.fn(block)
        vector = statistic(point.sample(self.REPS, spawn_generator(42, 1)))
        assert sps.ks_2samp(reduced, vector).pvalue > 1e-3
        se = np.hypot(reduced.std(ddof=1), vector.std(ddof=1)) / np.sqrt(self.REPS)
        assert abs(reduced.mean() - vector.mean()) < 4 * se

    def test_np_reads_only_its_own_direction(self):
        model = normal_means_model()
        spike, smooth = self.ALTS["spike"], self.ALTS["smooth"]
        np_spike = make_statistic("np", self.N, alt=spike, seed=1)
        assert model.at(self.N, spike, 1).reduces(np_spike)
        assert model.at(self.N, replace(spike, scale=0.5), 1).reduces(np_spike)
        assert model.at(self.N, NULL, 1).reduces(np_spike)
        assert not model.at(self.N, smooth, 1).reduces(np_spike)
        # Paired with another direction, np reads data vectors, as a
        # statistic without a reduced form does.
        vector_only = NamedStatistic("np", np_spike.fn)
        report = estimate_power(model, np_spike, smooth, 0.05, self.N, 2000, 1)
        assert report == estimate_power(model, vector_only, smooth, 0.05, self.N, 2000, 1)

    def test_vector_statistics_keep_their_stream(self):
        # A statistic with no reduced form reads the blocks of (seed, tag, b).
        model = normal_means_model()
        variance = make_statistic("variance", self.N)
        assert variance.reduced is None
        crit = estimate_power(model, variance, NULL, 0.1, self.N, 1000, 5, calib_reps=1024).critical_value
        data = model.at(self.N, NULL, 5).sample(1024, spawn_generator(5, TAG_CALIBRATE, 0))
        assert crit == np.quantile(variance(data), 0.9, method="higher")

    def test_single_observation_has_no_residual(self):
        model = normal_means_model()
        uncentered = AlternativeSpec("single_spike", 3.0, centered=False)
        block = model.at(1, uncentered, 1).sufficient(50, spawn_generator(3, 1))
        assert np.all(block[:, 1] == 0.0)
        report = estimate_power(model, make_statistic("chisq", 1), NULL, 0.05, 1, 2000, 2)
        assert abs(report.level_hat - 0.05) <= 4 * report.level_se


class TestTheorem1Sweep:
    def test_zero_delta_gaps_vanish(self):
        rows = theorem1_sweep(0.0, (50,), reps=2000, seed=9, lbar_reps=500)
        assert abs(rows[0]["chisq_gap"]) <= 4 * rows[0]["chisq_gap_se"]

    def test_desk_scale_reproduction(self):
        rows = theorem1_sweep(3.0, (100, 1000), reps=4000, seed=10, lbar_reps=2000)
        for row in rows:
            crit = sps.chi2.ppf(0.95, row["n"])
            oracle = sps.ncx2.sf(crit, row["n"], 9.0) - 0.05
            assert abs(row["chisq_gap"] - oracle) < 4 * row["chisq_gap_se"] + 0.01
            assert row["chisq_gap"] <= row["lbar_bound"] + 4 * (row["chisq_gap_se"] + row["lbar_bound_se"])
        assert rows[1]["chisq_gap"] < rows[0]["chisq_gap"] + 2 * (
            rows[0]["chisq_gap_se"] + rows[1]["chisq_gap_se"]
        )
        assert rows[1]["lbar_bound"] < rows[0]["lbar_bound"]

    def test_quarter_power_rate_probe_stays_in_band(self):
        # delta_n = 0.5 n^{1/4}: the gap neither collapses nor saturates.  Its
        # exact value is about 0.022 at both n; 20000 replicates put the
        # standard error near 0.0024, so the 4-SE oracle band excludes 0.
        for n in (100, 1000):
            delta = 0.5 * n**0.25
            (row,) = theorem1_sweep(delta, (n,), reps=20_000, seed=11, lbar_reps=100)
            oracle = sps.ncx2.sf(sps.chi2.ppf(0.95, n), n, delta**2) - 0.05
            assert 0.02 < oracle < 0.03
            assert abs(row["chisq_gap"] - oracle) < 4 * row["chisq_gap_se"]
            assert row["chisq_gap"] > 2 * row["chisq_gap_se"]


class TestTheorem2Sweep:
    def test_poisson_invariant_gap_decreases(self):
        rows = theorem2_sweep(
            models.poisson_family(), 1.5, (100, 1000), reps=3000, seed=12
        )
        assert rows[1]["invariant_gap"] < rows[0]["invariant_gap"]
        assert rows[0]["invariant_gap"] > 0.08  # visible signal at n=100

    def test_quadratic_gap_above_floor(self):
        floor = load_expectations()["theorem2_quadratic_gap_floor"]
        rows = theorem2_sweep(
            models.normal_family(), 1.5, (100, 1000), reps=3000, seed=13
        )
        for row in rows:
            assert row["quadratic_gap"] > floor

    def test_zero_delta(self):
        rows = theorem2_sweep(models.normal_family(), 0.0, (100,), reps=2000, seed=14)
        assert abs(rows[0]["invariant_gap"]) <= 4 * rows[0]["invariant_gap_se"]
        assert abs(rows[0]["quadratic_gap"]) <= 4 * rows[0]["quadratic_gap_se"]

    def test_alternatives_resolve_once_whatever_the_reps(self, monkeypatch):
        # Each grid point turns its null and its two alternatives into
        # parameters once, not once per block drawn.
        calls = []
        mean_entries = AlternativeSpec.mean_entries

        def counted(alt, n, seed):
            calls.append(n)
            return mean_entries(alt, n, seed)

        monkeypatch.setattr(AlternativeSpec, "mean_entries", counted)
        counts = []
        for reps in (1000, 3000):
            calls.clear()
            theorem2_sweep(models.normal_family(), 1.0, (50, 100), reps=reps, seed=3)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_alternative_audit_columns(self):
        rows = theorem2_sweep(models.normal_family(), 1.0, (100,), reps=1000, seed=15)
        assert rows[0]["centered_norm"] == pytest.approx(1.0)
        assert 0 < rows[0]["max_dev"] <= 1.0

    def test_logistic_location_family_sweep(self):
        rows = theorem2_sweep(
            models.logistic_location_family(), 1.5, (100, 1000), reps=3000, seed=16
        )
        tol = 2 * (rows[0]["invariant_gap_se"] + rows[1]["invariant_gap_se"])
        assert rows[1]["invariant_gap"] <= rows[0]["invariant_gap"] + tol


class TestNeymanScott:
    def test_f_gap_matches_noncentral_oracle(self):
        rows = neyman_scott_sweep((100, 1000), nu=5, delta=3.0, reps=4000, seed=17)
        for row in rows:
            ncp = 5 * 3.0**2  # nu * delta^2 / sigma^2
            crit = sps.f.ppf(0.95, row["n"] - 1, row["n"] * 4)
            oracle = sps.ncf.sf(crit, row["n"] - 1, row["n"] * 4, ncp) - 0.05
            assert abs(row["f_gap"] - oracle) < 4 * row["f_gap_se"] + 0.01
        assert rows[1]["f_gap"] < rows[0]["f_gap"]

    def test_zero_delta(self):
        rows = neyman_scott_sweep((50,), nu=3, delta=0.0, reps=2000, seed=18)
        assert abs(rows[0]["f_gap"]) <= 4 * rows[0]["f_gap_se"]

    def test_matrix_variate_gap_decreases(self):
        rows = matrix_variate_sweep((50, 500), delta=2.0, reps=3000, seed=19)
        tol = 2 * (rows[0]["wilks_gap_se"] + rows[1]["wilks_gap_se"])
        assert rows[1]["wilks_gap"] <= rows[0]["wilks_gap"] + tol


class TestSpacingsSweep:
    def test_contiguous_cosine_alternative(self):
        h = models.cosine_profile({1: 2.0})
        rows = spacings_sweep(h, (100, 400), reps=3000, seed=20)
        tol01 = 2 * (rows[0]["greenwood_gap_se"] + rows[1]["greenwood_gap_se"])
        assert rows[1]["greenwood_gap"] <= rows[0]["greenwood_gap"] + tol01
        floor = load_expectations()["spacings_quadratic_gap_floor"]
        for row in rows:
            assert row["quadratic_gap"] > floor

    def test_zero_profile(self):
        zero = models.profile_from_callable(lambda x: np.zeros_like(x), label="0")
        rows = spacings_sweep(zero, (100,), reps=2000, seed=21)
        assert abs(rows[0]["greenwood_gap"]) <= 4 * rows[0]["greenwood_gap_se"]
        assert abs(rows[0]["moran_gap"]) <= 4 * rows[0]["moran_gap_se"]

    def test_llr_gap_bounded(self):
        h = models.cosine_profile({1: 2.0})
        rows = spacings_sweep(h, (100, 400, 1600), reps=1500, seed=22)
        slope, se = trend_slope(
            [np.log(r["n"]) for r in rows],
            [r["llr_gap_p95"] for r in rows],
            [r["llr_gap_p95_se"] for r in rows],
        )
        assert slope <= 2 * se


class TestTrendSlope:
    def test_exact_line(self):
        slope, _ = trend_slope([0, 1, 2], [1.0, 3.0, 5.0])
        assert slope == pytest.approx(2.0)

    def test_weights_prefer_precise_points(self):
        slope, _ = trend_slope([0, 1, 2], [0.0, 0.0, 10.0], ses=[0.1, 0.1, 100.0])
        assert abs(slope) < 0.5
