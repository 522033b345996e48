"""Tests for permutation/bootstrap laws, metrics, and the coupling."""

import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

import invlab
from invlab import models, permclt
from invlab.experiments import NULL, FamilyModel, normal_means_model
from invlab.permclt import (
    cf_inequality_check,
    hajek_coupling,
    perm_law_moments,
    rho0,
    rho2,
    rho2_multivariate,
    sample_boot_law,
    sample_perm_law,
    theorem_convergence_sweep,
    theorem_convergence_sweep_matrix,
)
from invlab.rng import (
    TAG_BOOT_LAW,
    TAG_PERM_LAW,
    TAG_SUFFICIENT,
    blocks,
    row_chunks,
    spawn_generator,
    uniform_permutations,
)

from oracles import law_inputs, one_shot_boot, one_shot_coupling, poisson_null


class TestPermLawMoments:
    def test_hand_example(self):
        mean, var = perm_law_moments(np.array([-1.0, 0.0, 1.0]), np.array([1.0, 2.0, 4.0]))
        assert mean == pytest.approx(0.0)
        assert var == pytest.approx(14.0 / 3.0)

    def test_constant_x(self):
        _, var = perm_law_moments(np.array([1.0, 2.0, 3.0]), np.full(3, 5.0))
        assert var == pytest.approx(0.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_formula_equals_enumeration(self, n):
        rng = spawn_generator(n, 1)
        m = rng.normal(size=n)
        x = rng.normal(size=n)
        vals = np.array([m @ x[list(p)] for p in itertools.permutations(range(n))])
        mean, var = perm_law_moments(m, x)
        assert mean == pytest.approx(vals.mean(), abs=1e-10)
        assert var == pytest.approx(vals.var(), abs=1e-10)


class TestSampledLaws:
    def test_two_point_perm_law(self):
        law = sample_perm_law(np.array([1.0, -1.0]), np.array([0.0, 1.0]), 10_000, seed=0)
        plus = (law > 0).mean()
        assert abs(plus - 0.5) < 0.02
        assert set(np.unique(law)) == {-1.0, 1.0}

    def test_zero_weights_are_point_mass(self):
        m = np.zeros(5)
        x = np.arange(5.0)
        perm = sample_perm_law(m, x, 100, seed=1)
        boot = sample_boot_law(m, x, 100, seed=1)
        assert np.all(perm == 0.0)
        assert np.all(boot == 0.0)

    def test_perm_law_matches_moment_formula(self):
        rng = spawn_generator(2, 1)
        m = rng.normal(size=40)
        x = rng.normal(size=40)
        law = sample_perm_law(m, x, 20_000, seed=3)
        mean, var = perm_law_moments(m, x)
        se_mean = np.sqrt(var / 20_000)
        assert abs(law.mean() - mean) < 4 * se_mean
        v = law.var()
        se_var = np.sqrt(np.mean((law - law.mean()) ** 4) / 20_000)
        assert abs(v - var) < 4 * se_var


class TestMetrics:
    def test_identical_laws(self):
        v = np.array([1.0, 2.0, 3.0])
        assert rho2(v, v) == 0.0
        assert rho0(v, v) == 0.0

    def test_point_mass_translation(self):
        a = np.zeros(100)
        b = np.full(100, 2.5)
        assert rho2(a, b) == pytest.approx(2.5)
        assert rho0(a, b) == pytest.approx(1.0)

    def test_rho0_bounded_by_one(self):
        rng = spawn_generator(3, 1)
        assert rho0(rng.normal(size=100), rng.normal(10.0, size=17)) <= 1.0

    def test_two_normal_samples_are_close(self):
        rng = spawn_generator(4, 1)
        hits = sum(
            rho2(rng.normal(size=10_000), rng.normal(size=10_000)) < 0.05
            for _ in range(20)
        )
        assert hits >= 19

    def test_metric_axioms_on_random_triples(self):
        rng = spawn_generator(5, 1)
        for _ in range(10):
            a = rng.normal(size=64)
            b = rng.normal(size=64) * rng.uniform(0.5, 2.0)
            c = rng.normal(size=64) + rng.uniform(-1, 1)
            for dist in (rho2, rho0):
                assert dist(a, b) == pytest.approx(dist(b, a), abs=1e-12)
                assert dist(a, b) >= 0
                assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-9

    def test_rho2_unequal_sizes_quantile_grid(self):
        rng = spawn_generator(6, 1)
        a = rng.normal(size=5000)
        b = rng.normal(size=3000)
        assert rho2(a, b) < 0.1

    def test_multivariate_combination(self):
        a = np.zeros((100, 2))
        b = np.zeros((100, 2))
        b[:, 0] = 3.0
        b[:, 1] = 4.0
        assert rho2_multivariate(a, b) == pytest.approx(5.0)


class TestCfInequality:
    def test_identical(self):
        v = np.arange(10.0)
        assert cf_inequality_check(v, v, 1.0)

    def test_constant_shift(self):
        rng = spawn_generator(8, 1)
        w = rng.normal(size=1000)
        assert cf_inequality_check(w, w + 1.0, 1.0)

    def test_on_coupling_draws(self):
        rng = spawn_generator(9, 1)
        x = rng.normal(size=50)
        m = rng.normal(size=50)
        m -= m.mean()
        res = hajek_coupling(m, x, 2000, seed=10)
        for t in (0.5, 1.0, 2.0):
            assert cf_inequality_check(res.without_repl, res.with_repl, t)

    def test_rejects_unpaired(self):
        with pytest.raises(ValueError):
            cf_inequality_check(np.zeros(3), np.zeros(4), 1.0)


class TestCoupling:
    def test_constant_x_zero_gap(self):
        m = np.array([1.0, -1.0, 0.5, -0.5])
        x = np.full(4, 3.3)
        res = hajek_coupling(m, x, 500, seed=11)
        assert res.gap_sq_mean == pytest.approx(0.0, abs=1e-20)
        assert np.all(res.without_repl == res.with_repl)

    def test_n2_hand_enumeration(self):
        # For m=(1,-1), x=(0,1): E[(W - W')^2] = 1/2.
        m = np.array([1.0, -1.0])
        x = np.array([0.0, 1.0])
        res = hajek_coupling(m, x, 40_000, seed=12)
        se = res.gap_sq_se
        assert abs(res.gap_sq_mean - 0.5) < 4 * se

    def test_rank_gap_decays_and_bound_holds(self):
        prev = None
        for n in (100, 1000, 10_000):
            rng = spawn_generator(13, n)
            x = rng.normal(size=n)
            m = rng.normal(size=n)
            m -= m.mean()
            m /= np.linalg.norm(m)
            res = hajek_coupling(m, x, 1000, seed=14)
            assert res.bound_holds
            if prev is not None:
                assert res.gap_sq_mean < prev
            prev = res.gap_sq_mean

    def test_marginals_match_direct_laws(self):
        rng = spawn_generator(15, 1)
        n = 60
        x = rng.normal(size=n)
        m = rng.normal(size=n)
        m -= m.mean()
        res = hajek_coupling(m, x, 10_000, seed=16)
        perm = sample_perm_law(m, x, 10_000, seed=17)
        boot = sample_boot_law(m, x, 10_000, seed=18)
        assert rho0(res.without_repl, perm) < 0.02
        assert rho0(res.with_repl, boot) < 0.02

    def test_uncentered_weights_rejected(self):
        with pytest.raises(ValueError, match="centered"):
            hajek_coupling(np.array([1.0, 1.0]), np.array([0.0, 1.0]), 10, seed=0)

    def test_one_replicate_has_no_standard_error(self):
        m = np.array([1.0, -1.0, 0.5, -0.5])
        with pytest.raises(ValueError, match="reps >= 2"):
            hajek_coupling(m, np.arange(4.0), 1, seed=0)


class TestCoupledRankKernel:
    @pytest.mark.parametrize("n", [2, 100, 1000])
    def test_matches_double_argsort_reference(self, n):
        gen = spawn_generator(41, n)
        sorted_x = np.sort(gen.normal(size=n))
        m = gen.normal(size=n)
        m -= m.mean()
        count = 257
        # Rows: the without- and with-replacement contrasts and the matches.
        got = np.concatenate(list(permclt._coupled_chunks(sorted_x, m, count, spawn_generator(42, n))), axis=1)
        # The direct formulation: ranks as the argsort of the argsort.  The
        # kernel multiplies row chunk by row chunk, and so does the reference:
        # a product's rows are summed in BLAS groups that follow its shape.
        u = spawn_generator(42, n).random((count, n))
        star = np.minimum((n * u).astype(np.intp), n - 1)
        ranks = np.argsort(np.argsort(u, axis=1), axis=1)
        bounds = np.cumsum([0, *row_chunks(count, n)])
        chunks = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        want = (
            np.concatenate([sorted_x[ranks[c]] @ m for c in chunks]),
            np.concatenate([sorted_x[star[c]] @ m for c in chunks]),
            np.sum(ranks == star, axis=1),
        )
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class TestBufferedCoupling:
    """The coupling kernel reuses its chunk buffers and draws what fresh arrays per chunk drew."""

    @pytest.mark.parametrize("reps", [2, 5, 1024, 1500])
    @pytest.mark.parametrize("n", [2, 3, 100, 1000, 10_000])
    def test_equals_one_shot_chunks(self, n, reps):
        m, x = law_inputs(n)
        res = hajek_coupling(m, x, reps, seed=46)
        want = one_shot_coupling(m, x, reps, seed=46)
        for got, ref in zip((res.without_repl, res.with_repl, res.matched), want):
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("case", ["distinct", "tie", "near_tie"])
    @pytest.mark.parametrize("n", [2, 3, 1024, 1025, 2048, 2049, 10_000])
    def test_uniform_order_is_the_argsort(self, n, case):
        # Keys keep 53 value bits up to n = 1024 and drop bit_length(n - 1) - 10 above.
        u = spawn_generator(47, n).random((8, n))
        if case == "tie":
            u[3, -1] = u[3, 0]
        elif case == "near_tie":
            # Equal but for the lowest bit, in the other order than the columns.
            k = int(u[5, -1] * 2.0**53) >> 8 << 8
            u[5, -1], u[5, 0] = k * 2.0**-53, (k + 1) * 2.0**-53
        keys = np.empty(u.shape, dtype=np.int64)
        scratch = np.empty(u.shape, dtype=np.int64)
        order = permclt._uniform_order(u, keys, scratch)
        assert np.array_equal(order, np.argsort(u, axis=1))

    def test_traced_peak_below_four_chunk_arrays(self):
        # A chunk at n = 1e4 is 8 rows, 625 KiB of float64.  The kernel holds
        # the uniforms, the sort keys, the ranks and a boolean chunk (about
        # 2.2 MiB in all); fresh arrays for every step of a chunk peaked at
        # 2.67 MiB.
        m, x = law_inputs(10_000)
        tracemalloc.start()
        try:
            hajek_coupling(m, x, 1024, seed=45)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.4 * 2**20


class TestRowChunkedLaws:
    """The laws, drawn in row chunks, equal the one-shot block form bit for bit.

    ``reps = 1500`` leaves a partial block of 476 rows, and both sizes leave a
    ragged last chunk.  The one-shot reference runs in a child process with
    single-threaded BLAS.  With two BLAS threads, numpy's product of the
    476-row block at n = 5001 is split between the threads after row 238, not
    a multiple of four, and the rows next to that split differ in the last bit
    from the single-threaded product (OpenBLAS reduces rows in groups of
    four).  The chunked laws are the same on either thread count.
    """

    REPS = 1500
    SEED = 44

    @pytest.fixture(scope="class", params=[333, 5001])
    def reference(self, request, tmp_path_factory):
        n = request.param
        out = tmp_path_factory.mktemp("one_shot") / f"{n}.npz"
        src = Path(invlab.__file__).resolve().parents[1]
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": "1",
            "PYTHONPATH": os.pathsep.join([str(src), str(Path(__file__).parent)]),
        }
        code = (
            "import sys, numpy as np, oracles; "
            "np.savez(sys.argv[1], **oracles.one_shot_laws(*map(int, sys.argv[2:])))"
        )
        subprocess.run(
            [sys.executable, "-c", code, str(out), str(n), str(self.REPS), str(self.SEED)],
            env=env, check=True,
        )
        with np.load(out) as laws:
            return n, dict(laws)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_laws_equal_one_shot_blocks(self, reference, workers):
        n, want = reference
        m, x = law_inputs(n)
        perm = sample_perm_law(m, x, self.REPS, self.SEED, workers=workers)
        boot = sample_boot_law(m, x, self.REPS, self.SEED, workers=workers)
        coupled = hajek_coupling(m, x, self.REPS, self.SEED, workers=workers)
        iid = permclt._iid_law(poisson_null, m, self.REPS, self.SEED, workers=workers)
        assert np.array_equal(perm, want["perm"])
        assert np.array_equal(boot, want["boot"])
        assert np.array_equal(coupled.without_repl, want["without"])
        assert np.array_equal(coupled.with_repl, want["with"])
        assert np.array_equal(coupled.matched, want["matched"])
        assert np.array_equal(iid, want["iid"])


class TestBoundedMemory:
    """Each law holds one row chunk at a time, not a ``(1024, n)`` block."""

    @pytest.mark.parametrize("law", [hajek_coupling, sample_perm_law, sample_boot_law])
    def test_traced_peak_below_16_mib(self, law):
        m, x = law_inputs(10_000)
        tracemalloc.start()
        try:
            law(m, x, 1024, seed=45)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestSpikeRoute:
    """Spike contrasts draw a few numbers per replicate, not a length-``n`` vector.

    The permutation law draws one index, the iid law one pair of sums, and
    the bootstrap law on lattice data one index and one count vector over the
    values of ``x``.  The reference is the vector form: ``m' P x`` over whole
    permutations, ``sum_i m_i x(J*_i)`` over whole index vectors and ``m' x``
    over whole null vectors.  The laws are discrete wherever ``x`` or the
    family is, and the two forms sum in another order, so values are
    compared after rounding to 1e-9.
    """

    REPS = 20_000
    FAMILIES = {
        "normal": normal_means_model(),
        "poisson": FamilyModel(models.poisson_family()),
        "bernoulli": FamilyModel(models.bernoulli_logit_family()),
    }
    # (n, centered).  At n = 2 both levels are singletons; uncentered, m = e_0 and b = 0.
    SHAPES = {"n40": (40, True), "n2": (2, True), "uncentered": (10, False)}

    @staticmethod
    def _spike(n, centered=True):
        m = np.zeros(n)
        m[0] = 1.0
        if centered:
            m -= m.mean()
        return m / np.linalg.norm(m)

    @staticmethod
    def _null(model, n, count, seed):
        return model.at(n, NULL, 0).sample(count, spawn_generator(seed, n))

    @staticmethod
    def _assert_same_law(reduced, vector):
        reduced, vector = np.round(reduced, 9), np.round(vector, 9)
        assert sps.ks_2samp(reduced, vector).pvalue > 1e-3
        se = np.hypot(reduced.std(ddof=1), vector.std(ddof=1)) / np.sqrt(reduced.size)
        assert abs(reduced.mean() - vector.mean()) <= 4 * se

    def test_route_follows_from_the_contrast(self):
        m = self._spike(6)
        assert models.spike_levels(m) == (m[0], m[1])
        assert models.spike_levels(np.roll(m, 3)) == (m[0], m[1])
        assert models.spike_levels(self._spike(6, centered=False)) == (1.0, 0.0)
        assert models.spike_levels(np.array([0.5, -2.0])) == (0.5, -2.0)
        law_m, _ = law_inputs(6)
        for vector in (np.zeros(6), np.zeros(2), law_m, np.array([1.0, 1.0, -1.0, -1.0]), np.array([1.0, 0.0, 2.0])):
            assert models.spike_levels(vector) is None

    def test_perm_law_puts_mass_one_over_n_on_each_atom(self):
        n, reps = 5, 20_000
        m = self._spike(n)
        x = spawn_generator(50, 1).normal(size=n)
        values = sample_perm_law(m, x, reps, seed=51)
        a, b = m[0], m[1]
        atoms = (a - b) * x + b * x.sum()
        # Each atom is the vector contrast with x_j on the spike's coordinate.
        assert np.allclose(atoms, [a * x[j] + b * (x.sum() - x[j]) for j in range(n)], atol=1e-12)
        freq = np.array([np.count_nonzero(values == atom) for atom in atoms]) / reps
        assert freq.sum() == 1.0
        assert np.all(np.abs(freq - 1 / n) <= 4 * np.sqrt((1 / n) * (1 - 1 / n) / reps))

    def test_perm_law_stream(self):
        n, reps, seed, gi = 7, 2500, 52, 3
        m = self._spike(n)
        x = spawn_generator(53, 1).normal(size=n)
        want = []
        for b, count in blocks(reps):
            rng = spawn_generator(seed, TAG_SUFFICIENT, TAG_PERM_LAW, gi, b)
            want.append((m[0] - m[1]) * x[rng.integers(0, n, size=count)] + m[1] * x.sum())
        for workers in (1, 2):
            law = sample_perm_law(m, x, reps, seed, workers=workers, stream=(gi,))
            assert np.array_equal(law, np.concatenate(want))

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_perm_law_matches_vector_form(self, family, shape):
        n, centered = self.SHAPES[shape]
        m = self._spike(n, centered)
        x = self._null(self.FAMILIES[family], n, 1, 54)[0]
        reduced = sample_perm_law(m, x, self.REPS, seed=55)
        vector = x[uniform_permutations(spawn_generator(56, 1), self.REPS, n)] @ m
        self._assert_same_law(reduced, vector)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_iid_law_matches_vector_form(self, family, shape):
        n, centered = self.SHAPES[shape]
        model = self.FAMILIES[family]
        m = self._spike(n, centered)
        reduced = permclt._iid_spike_law(model.family, models.spike_levels(m), n, self.REPS, seed=57)
        vector = self._null(model, n, self.REPS, 58) @ m
        self._assert_same_law(reduced, vector)

    # The bootstrap's count route needs k^2 <= n distinct values of x: lattice data only.
    BOOT_SHAPES = {"n40": (40, True), "n400": (400, True), "uncentered": (100, False)}

    def _lattice_input(self, family, shape, seed):
        n, centered = self.BOOT_SHAPES[shape]
        x = self._null(self.FAMILIES[family], n, 1, seed)[0]
        assert permclt._value_counts(x) is not None
        return self._spike(n, centered), x

    @pytest.mark.parametrize("shape", sorted(BOOT_SHAPES))
    @pytest.mark.parametrize("family", ["bernoulli", "poisson"])
    def test_boot_law_matches_vector_form(self, family, shape):
        m, x = self._lattice_input(family, shape, 59)
        reduced = sample_boot_law(m, x, self.REPS, seed=60)
        vector = x[spawn_generator(61, 1).integers(0, x.size, size=(self.REPS, x.size))] @ m
        self._assert_same_law(reduced, vector)

    @pytest.mark.parametrize("shape", sorted(BOOT_SHAPES))
    @pytest.mark.parametrize("family", ["bernoulli", "poisson"])
    def test_boot_law_exact_moments(self, family, shape):
        # E = sum(m) xbar and Var = sum(m^2) (1/n) sum (x - xbar)^2, each within 4 SE.
        m, x = self._lattice_input(family, shape, 62)
        values = sample_boot_law(m, x, self.REPS, seed=63)
        mean, var = m.sum() * x.mean(), np.sum(m**2) * x.var()
        dev = values - values.mean()
        assert abs(values.mean() - mean) <= 4 * np.sqrt(var / self.REPS)
        var_se = np.sqrt(np.mean(dev**4) - np.mean(dev**2) ** 2) / np.sqrt(self.REPS)
        assert abs(values.var() - var) <= 4 * var_se

    def test_boot_law_stream(self):
        n, reps, seed, gi = 60, 2500, 64, 3
        m = self._spike(n)
        x = self._null(self.FAMILIES["poisson"], n, 1, 65)[0]
        values, counts = np.unique(x, return_counts=True)
        assert values.size**2 <= n
        want = []
        for b, count in blocks(reps):
            rng = spawn_generator(seed, TAG_SUFFICIENT, TAG_BOOT_LAW, gi, b)
            own = x[rng.integers(0, n, size=count)]
            rest = rng.multinomial(n - 1, counts / n, size=count) @ values
            want.append(m[0] * own + m[1] * rest)
        for workers in (1, 2):
            law = sample_boot_law(m, x, reps, seed, workers=workers, stream=(gi,))
            assert np.array_equal(law, np.concatenate(want))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_boot_law_keeps_the_vector_route_elsewhere(self, workers):
        # A spike on continuous data (k = n) and a non-spike contrast on
        # lattice data both read whole index vectors, on the unchanged stream.
        n, reps, seed = 40, 1500, 66
        law_m, normal_x = law_inputs(n)
        lattice_x = self._null(self.FAMILIES["poisson"], n, 1, 67)[0]
        assert permclt._value_counts(lattice_x) is not None
        for m, x in ((self._spike(n), normal_x), (law_m, lattice_x), (law_m, normal_x)):
            got = sample_boot_law(m, x, reps, seed, workers=workers)
            assert np.array_equal(got, one_shot_boot(m, x, reps, seed))


class TestMetricInputs:
    @pytest.mark.parametrize("dist", [rho2, rho0])
    def test_samples_in_any_order(self, dist):
        rng = spawn_generator(68, 1)
        a, b = rng.normal(size=50), rng.normal(size=70)
        assert dist(a, b) == dist(np.sort(a), np.sort(b)) == dist(a[::-1], b)

    @pytest.mark.parametrize("dist", [rho2, rho0])
    def test_empty_sample_refused(self, dist):
        with pytest.raises(ValueError, match="at least one value"):
            dist(np.array([]), np.array([1.0]))


class TestConvergenceSweep:
    _normal = normal_means_model()

    @staticmethod
    def _spike_builder(n):
        m = np.zeros(n)
        m[0] = 1.0
        m -= m.mean()
        return m * (1.0 / np.linalg.norm(m))

    def test_distances_decrease(self):
        contrasts = [self._spike_builder(n) for n in (50, 500, 5000)]
        rows = theorem_convergence_sweep(self._normal, contrasts, 4000, seed=20)
        for prev, cur in zip(rows, rows[1:]):
            for col, se_col in (
                ("rho2_perm_boot", "se_rho2_perm_boot"),
                ("rho2_boot_iid", "se_rho2_boot_iid"),
                ("rho2_perm_iid", "se_rho2_perm_iid"),
            ):
                drop = prev[col] - cur[col]
                tol = 2 * (prev[se_col] + cur[se_col])
                assert drop >= -tol

    def test_batched_se_needs_two_batches_of_two(self):
        a = np.arange(3.0)
        with pytest.raises(ValueError, match="at least 4"):
            permclt._distance_with_se(a, a + 1.0, rho2)
        b = np.array([1.0, 2.0, 4.0, 5.0])
        dist, se = permclt._distance_with_se(np.arange(4.0), b, rho2)
        assert dist == pytest.approx(np.sqrt(2.5)) and se == pytest.approx(0.5)

    def test_batched_se_of_rows_is_over_contiguous_row_slices(self):
        rng = spawn_generator(27, 1)
        a, b = rng.normal(size=(2, 45, 2))
        dist, se = permclt._distance_with_se(a, b, rho2_multivariate)
        vals = [rho2_multivariate(a[i * 2 : i * 2 + 2], b[i * 2 : i * 2 + 2]) for i in range(20)]
        assert dist == rho2_multivariate(a, b)
        assert se == np.std(vals, ddof=1) / np.sqrt(20)

    def test_zero_weights_give_zero_distances(self):
        rows = theorem_convergence_sweep(self._normal, [np.zeros(50)], 500, seed=21)
        assert rows[0]["rho2_perm_boot"] == pytest.approx(0.0)
        assert rows[0]["rho2_perm_iid"] == pytest.approx(0.0)

    def test_second_moment_convergence_accompanies_rho2(self):
        # At the final grid point the second moments of the laws agree within noise.
        n, reps = 5000, 4000
        rng = spawn_generator(22, 1)
        x = rng.normal(size=n)
        m = self._spike_builder(n)
        perm = sample_perm_law(m, x, reps, seed=23)
        boot = sample_boot_law(m, x, reps, seed=24)
        gap = abs(np.mean(perm**2) - np.mean(boot**2))
        se = np.sqrt(
            perm.var() * 2 / reps + boot.var() * 2 / reps
        ) * np.sqrt(2.0)
        assert gap < 3 * max(se, 0.05)

    def test_matrix_variant_decreases(self):
        def row_sampler(n, reps, rng):
            return rng.normal(size=(max(reps, 1), n, 2))

        def m_builder(n):
            mm = np.zeros((n, 2))
            mm[0, 0] = 1.0
            mm[1, 1] = 1.0
            mm -= mm.mean(axis=0, keepdims=True)
            mm /= np.linalg.norm(mm, axis=0, keepdims=True)
            return mm

        rows = theorem_convergence_sweep_matrix(
            row_sampler, m_builder, (50, 500), 2000, seed=25
        )
        tol = 2 * (rows[0]["se_rho2_perm_iid"] + rows[1]["se_rho2_perm_iid"])
        assert rows[1]["rho2_perm_iid"] <= rows[0]["rho2_perm_iid"] + tol

    def test_diag_column_reports_mean_product(self):
        rows = theorem_convergence_sweep(self._normal, [self._spike_builder(50)], 200, seed=26)
        assert rows[0]["diag_nmx"] == pytest.approx(0.0, abs=1e-12)
