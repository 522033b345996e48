"""Tests for orbit-averaged likelihood ratios and the radial kernel."""

import decimal
import math

import numpy as np
import pytest
from scipy import stats as sps
from scipy.special import gammaln, ive, logsumexp

from invlab import orbit
from invlab.experiments import AlternativeSpec
from invlab.models import (
    MeanVector,
    bernoulli_logit_family,
    normal_family,
    poisson_family,
    sample_model,
    spike_levels,
)
from invlab.orbit import (
    OrbitSpec,
    h_integral_log,
    h_integral_log_many,
    identity_check,
    lbar_design_orthogonal,
    lbar_orthogonal,
    lbar_permutation,
    null_lbar_samples,
    perm_variance_diagnostic,
    power_level_bound,
)
from invlab.rng import BLOCK_REPS, TAG_ORBIT, spawn_generator
from invlab.stats import chisq_statistic

from oracles import haar_orthogonal, haar_orthogonal_fixing_design, permutation_sampler


def log_h_bessel(t: float, n: int) -> float:
    """Closed-form oracle via modified Bessel functions (moderate t, n only)."""
    nu = (n - 2) / 2.0
    if t == 0.0:
        return 0.5 * np.log(np.pi) + gammaln((n - 1) / 2.0) - gammaln(n / 2.0)
    return (
        0.5 * np.log(np.pi)
        + gammaln(nu + 0.5)
        + nu * (np.log(2.0) - np.log(t))
        + np.log(ive(nu, t))
        + t
    )


def _decimal_pi() -> decimal.Decimal:
    """pi to the current decimal precision (the series recipe of the ``decimal`` docs)."""
    decimal.getcontext().prec += 2
    three = decimal.Decimal(3)
    lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    decimal.getcontext().prec -= 2
    return +s


def log_h_quadrature(ts: np.ndarray, n: int, num: int) -> np.ndarray:
    """``log H`` by composite Simpson on ``num`` intervals of the log integrand, log-sum-exp summed."""
    theta = np.linspace(0.0, np.pi, num + 1)
    weights = np.full(num + 1, 2.0)
    weights[1::2] = 4.0
    with np.errstate(divide="ignore"):
        base = (n - 2) * np.log(np.sin(theta)) + np.log(weights * np.pi / (3 * num))
    base[[0, -1]] = -np.inf
    return logsumexp(np.outer(ts, np.cos(theta)) + base, axis=1)


def log_h_oracle(ts: np.ndarray, n: int) -> np.ndarray:
    """:func:`log_h_quadrature` on a grid doubled from 4096 intervals until it moves by < 1e-11."""
    num, prev = 4096, log_h_quadrature(ts, n, 4096)
    while num < 2**18:
        num *= 2
        cur = log_h_quadrature(ts, n, num)
        if np.max(np.abs(cur - prev)) < 1e-11:
            return cur
        prev = cur
    raise AssertionError(f"quadrature oracle did not converge by {num} intervals")


class TestHaar:
    def test_orthogonality(self):
        q = haar_orthogonal(25, spawn_generator(0, 1))
        assert np.abs(q.T @ q - np.eye(25)).max() < 1e-10

    def test_o1_sign_balance(self):
        rng = spawn_generator(1, 1)
        signs = np.array([haar_orthogonal(1, rng)[0, 0] for _ in range(10_000)])
        assert set(np.unique(signs)) <= {-1.0, 1.0}
        assert abs((signs > 0).mean() - 0.5) < 0.02

    def test_first_column_uniform_on_sphere(self):
        rng = spawn_generator(2, 1)
        vals = np.array([haar_orthogonal(3, rng)[0, 0] ** 2 for _ in range(10_000)])
        # E Q11^2 = 1/3 by symmetry of the sphere coordinates.
        assert abs(vals.mean() - 1.0 / 3.0) < 4 * vals.std() / np.sqrt(10_000)

    def test_fixing_design(self):
        rng = spawn_generator(3, 1)
        design = rng.normal(size=(12, 3))
        p = haar_orthogonal_fixing_design(design, rng)
        assert np.abs(p.T @ p - np.eye(12)).max() < 1e-9
        assert np.abs(p @ design - design).max() < 1e-9


class TestHIntegral:
    def test_analytic_values(self):
        assert h_integral_log(0.0, 3) == pytest.approx(np.log(2.0), abs=1e-10)
        assert np.exp(h_integral_log(1.0, 3)) == pytest.approx(2.0 * np.sinh(1.0), rel=1e-9)
        assert np.exp(h_integral_log(0.0, 5)) == pytest.approx(4.0 / 3.0, rel=1e-9)

    def test_sinh_closed_form_at_n3(self):
        for t in (0.5, 2.0, 7.5):
            assert np.exp(h_integral_log(t, 3)) == pytest.approx(
                2.0 * np.sinh(t) / t, rel=1e-8
            )

    @pytest.mark.parametrize(
        "t,n",
        # scipy's ive underflows for order >> argument, so the oracle stops
        # at moderate n; the H(0) gamma identity covers the large-n regime.
        [(0.0, 4), (0.5, 10), (10.0, 50), (100.0, 200), (500.0, 1001), (800.0, 1600)],
    )
    def test_against_bessel_oracle(self, t, n):
        assert h_integral_log(t, n) == pytest.approx(log_h_bessel(t, n), abs=1e-8)

    def test_h0_gamma_identity(self):
        # H(0) = sqrt(pi) Gamma((n-1)/2) / Gamma(n/2)
        for n in (3, 17, 404, 100_001):
            oracle = 0.5 * np.log(np.pi) + gammaln((n - 1) / 2.0) - gammaln(n / 2.0)
            assert h_integral_log(0.0, n) == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize(
        "n", [3, 4, 5, 58, 59, 60, 61, 62, 101, 1000, 10_000, 10_001, 100_000, 100_001, 1_000_000]
    )
    def test_h0_against_exact_rational(self, n):
        # With r_m = prod_{k <= m} (2k - 1) / (2k), H(0) is pi r_(m-1) at n = 2m
        # and 1 / (m r_m) at n = 2m + 1; both logs taken in 60-digit decimal.
        m = n // 2
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            r = decimal.Decimal(1)
            for k in range(1, m if n % 2 == 0 else m + 1):
                r = r * (2 * k - 1) / (2 * k)
            oracle = _decimal_pi().ln() + r.ln() if n % 2 == 0 else -(decimal.Decimal(m) * r).ln()
            err = abs(decimal.Decimal(h_integral_log(0.0, n)) - oracle)
        # lgamma differences below n = 60, the Stirling difference from there on.
        assert err <= (1e-14 if n < 60 else 2e-15)

    def test_series_matches_quadrature_oracle(self):
        # Small n with large t needs thousands of terms; large n few.
        for n in (3, 5, 20, 100, 1000, 10_000, 100_000):
            for t_cap in (1.0, 8.0, 64.0, 512.0, 4096.0):
                ts = np.concatenate([
                    np.linspace(0.0, t_cap, 17),
                    spawn_generator(n, int(t_cap)).uniform(0.0, t_cap, 16),
                ])
                assert np.max(np.abs(h_integral_log_many(ts, n) - log_h_oracle(ts, n))) <= 1e-10

    def test_lbar_accurate_at_large_n(self):
        # Against exp(log H(t) - log H(0) - ||m||^2 / 2) from a 2^17-interval
        # quadrature, within 2e-13 of a 40-digit reference here, at ||m|| = 3
        # and ||x|| near sqrt(n).  A closed-form log H(0) taken off a
        # quadrature log H(t) is off by 8e-12 (n = 1e4) and 5e-11 (n = 1e5).
        for n in (10_000, 100_000):
            x_norms = np.sqrt(n) * np.array([0.8, 0.9, 1.0, 1.1, 1.3])
            log_h = log_h_quadrature(np.append(3.0 * x_norms, 0.0), n, 2**17)
            oracle = np.exp(log_h[:-1] - log_h[-1] - 4.5)
            lbar = orbit.lbar_orthogonal_from_norms(3.0, x_norms, n)
            np.testing.assert_allclose(lbar, oracle, rtol=1e-12, atol=0)

    def test_value_independent_of_other_arguments(self):
        # Terms a batch carries past an argument's own tail add nothing to its sum.
        ts = np.array([0.0, 0.7, 1.0, 3.0, 4.0, 40.0, 900.0])
        for n in (5, 50, 10_000):
            alone = [h_integral_log_many(ts[i : i + 1], n) for i in range(ts.size)]
            assert np.concatenate(alone).tobytes() == h_integral_log_many(ts, n).tobytes()

    def test_monotone_in_t(self):
        ts = np.linspace(0.0, 50.0, 101)
        vals = h_integral_log_many(ts, 40)
        assert np.all(np.diff(vals) > 0)

    def test_large_arguments_finite(self):
        assert np.isfinite(h_integral_log(1000.0, 100_000))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            h_integral_log(-1.0, 5)
        with pytest.raises(ValueError):
            h_integral_log(1.0, 2)


class TestLbarOrthogonal:
    def test_null_m_gives_one(self):
        x = spawn_generator(4, 1).normal(size=10)
        assert lbar_orthogonal(np.zeros(10), x) == pytest.approx(1.0)

    def test_depends_on_x_only_through_norm(self):
        rng = spawn_generator(5, 1)
        m = rng.normal(size=8)
        x = rng.normal(size=8)
        q = haar_orthogonal(8, rng)
        assert lbar_orthogonal(m, x) == pytest.approx(lbar_orthogonal(m, q @ x), rel=1e-12)

    def test_radial_value_at_n3(self):
        # With the likelihood-ratio normalizer, the radial part is sinh(t)/t.
        m = np.array([0.5, 0.0, 0.0])
        x = np.array([2.0, 0.0, 0.0])  # t = |m||x| = 1
        expect = np.exp(-0.125) * np.sinh(1.0)
        assert lbar_orthogonal(m, x) == pytest.approx(expect, rel=1e-8)

    def test_null_expectation_is_one(self):
        rng = spawn_generator(6, 1)
        n = 200
        m = np.zeros(n)
        m[0] = 3.0
        x = rng.normal(size=(10_000, n))
        vals = lbar_orthogonal(m, x)
        se = vals.std() / np.sqrt(vals.size)
        assert abs(vals.mean() - 1.0) < 4 * se


class TestLbarPermutation:
    def test_null_m_exact_one(self):
        fam = normal_family()
        spec = OrbitSpec(group="permutation_exhaustive")
        m = MeanVector(np.full(5, 0.4))
        x = spawn_generator(7, 1).normal(size=5)
        assert lbar_permutation(fam, m, x, spec) == pytest.approx(1.0)

    def test_hand_enumeration_n3(self):
        fam = normal_family()
        spec = OrbitSpec(group="permutation_exhaustive")
        val = lbar_permutation(fam, np.array([-1.0, 0.0, 1.0]), np.array([1.0, 2.0, 4.0]), spec)
        terms = [np.exp(b - a) for a in (1.0, 2.0, 4.0) for b in (1.0, 2.0, 4.0) if a != b]
        expect = np.exp(-1.0) * sum(terms) / 6.0
        assert val == pytest.approx(expect, rel=1e-12)

    def test_invariant_under_permuting_x(self):
        fam = poisson_family()
        spec = OrbitSpec(group="permutation_exhaustive")
        rng = spawn_generator(8, 1)
        m = MeanVector(rng.uniform(-0.5, 0.5, 6))
        x = rng.poisson(1.0, 6).astype(float)
        base = lbar_permutation(fam, m, x, spec)
        for _ in range(5):
            perm = rng.permutation(6)
            assert lbar_permutation(fam, m, x[perm], spec) == pytest.approx(base, rel=1e-12)

    def test_mc_matches_exhaustive(self):
        fam = normal_family()
        rng = spawn_generator(9, 1)
        n = 6
        m = MeanVector(rng.uniform(-0.8, 0.8, n))
        x = rng.normal(size=n)
        exact = lbar_permutation(fam, m, x, OrbitSpec(group="permutation_exhaustive"))
        mc_reps = 1_000_000
        mc = lbar_permutation(fam, m, x, OrbitSpec(group="permutation", mc_reps=mc_reps), seed=5)
        # SE of the exponential-average estimator, computed in linear space
        # over the (small) exhaustive set of permutation values.
        import itertools as it

        w = m.centered
        vals = np.exp(np.array([x[list(p)] @ w for p in it.permutations(range(n))]))
        prefactor = np.exp(-np.sum(fam.beta(m.entries) - fam.beta(np.float64(m.mean))))
        se = float(prefactor * vals.std() / np.sqrt(mc_reps))
        assert abs(mc - exact) < 3 * se

    def test_exhaustive_limit_enforced(self):
        fam = normal_family()
        spec = OrbitSpec(group="permutation_exhaustive")
        with pytest.raises(ValueError, match="n <= 8"):
            lbar_permutation(fam, MeanVector(np.zeros(9)), np.zeros(9), spec)

    def test_null_expectation_exhaustive_poisson(self):
        fam = poisson_family()
        m = MeanVector(np.array([0.4, -0.4, 0.2, -0.2, 0.0, 0.0]))
        spec = OrbitSpec(group="permutation_exhaustive")
        vals = null_lbar_samples(spec.null_orbit(fam, m, 11), reps=10_000)
        se = vals.std() / np.sqrt(vals.size)
        assert abs(vals.mean() - 1.0) < 4 * se


class TestPermLogAvgMcKernel:
    """The blockwise GEMM against scattered weights equals the gather it replaces."""

    @staticmethod
    def gather_reference(w, x, mc_reps, rng):
        # The direct formulation: gather x at every permutation, then dot with w.
        n = w.size
        x = np.atleast_2d(x)
        block = max(1, 2**22 // max(n * x.shape[0], 1))
        parts, done = [], 0
        while done < mc_reps:
            b = min(block, mc_reps - done)
            perm = np.argsort(rng.random((b, n)), axis=1)
            parts.append(logsumexp(x[:, perm] @ w, axis=-1))
            done += b
        return logsumexp(np.stack(parts, axis=-1), axis=-1) - math.log(mc_reps)

    @pytest.mark.parametrize("n", [9, 50])
    @pytest.mark.parametrize("reps", [1, 300])
    def test_matches_gather_reference(self, n, reps):
        gen = spawn_generator(31, n, reps)
        w = gen.normal(size=n)
        w -= w.mean()
        x = w[None, :] if reps == 1 else gen.poisson(1.0, (reps, n)).astype(float)
        block = max(1, 2**22 // (n * reps))
        mc_reps = 2 * block + 7  # a partial final block
        got = orbit._perm_log_avg_mc(w, x, mc_reps, spawn_generator(32, n))
        want = self.gather_reference(w, x, mc_reps, spawn_generator(32, n))
        assert got.shape == (reps,)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_consumes_the_same_stream(self):
        w = np.linspace(-1.0, 1.0, 9)
        a, b = spawn_generator(33, 1), spawn_generator(33, 1)
        orbit._perm_log_avg_mc(w, w[None, :], 1000, a)
        self.gather_reference(w, w[None, :], 1000, b)
        assert a.random() == b.random()


class TestSpikeOrbitAverage:
    """A spike ``m = b 1 + c e_j`` has ``n`` orbit points; its permutation average is their mean."""

    FAMILIES = {"poisson": poisson_family, "normal": normal_family, "bernoulli": bernoulli_logit_family}
    ALTS = {
        "spike:1": AlternativeSpec("single_spike", 1.0),
        "spike:3": AlternativeSpec("single_spike", 3.0),
        "spike_uncentered:1.5": AlternativeSpec("single_spike", 1.5, centered=False),
    }

    @classmethod
    def _case(cls, family, alt, n, reps, seed):
        fam = cls.FAMILIES[family]()
        entries = cls.ALTS[alt].mean_entries(n, seed)
        m = MeanVector(entries, compact_lo=None, compact_hi=None)
        x = sample_model(fam, MeanVector(np.zeros(n)), spawn_generator(seed, n), reps)
        return fam, m, x

    @pytest.mark.parametrize("n", [2, 5, 8])
    @pytest.mark.parametrize("alt", sorted(ALTS))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_exhaustive(self, family, alt, n):
        fam, m, x = self._case(family, alt, n, 100, 60)
        exact = lbar_permutation(fam, m, x, OrbitSpec(group="permutation"))
        oracle = lbar_permutation(fam, m, x, OrbitSpec(group="permutation_exhaustive"))
        np.testing.assert_allclose(exact, oracle, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("alt", ["spike:1", "spike:3"])
    def test_monte_carlo_average_within_four_se(self, alt):
        n, mc_reps = 50, 20_000
        fam, m, x = self._case("poisson", alt, n, 20, 61)
        exact = lbar_permutation(fam, m, x, OrbitSpec(group="permutation"))
        prefactor = np.exp(-np.sum(fam.beta(m.entries) - fam.beta(np.float64(m.mean))))
        mc = prefactor * np.exp(orbit._perm_log_avg_mc(m.centered, x, mc_reps, spawn_generator(62, 1)))
        # w'Px is c (x_k - xbar) with k uniform on the n coordinates.
        a, b = spike_levels(m.entries)
        atoms = prefactor * np.exp((a - b) * (x - x.mean(axis=1, keepdims=True)))
        se = atoms.std(axis=1) / np.sqrt(mc_reps)
        assert np.all(se > 0)
        assert np.all(np.abs(mc - exact) <= 4 * se), (mc - exact) / se

    def test_draws_nothing(self):
        fam, m, x = self._case("poisson", "spike:1", 50, 10, 63)
        spec = OrbitSpec(group="permutation", mc_reps=7)
        gen = spawn_generator(64, 1)
        by_gen = lbar_permutation(fam, m, x, spec, seed=gen)
        assert gen.random() == spawn_generator(64, 1).random()
        by_int = [lbar_permutation(fam, m, x, spec, seed=s) for s in (0, 1)]
        assert by_gen.tobytes() == by_int[0].tobytes() == by_int[1].tobytes()

    @pytest.mark.parametrize("n", [2, 5, 8, 9, 50, 1000])
    def test_variance_diagnostic_closed_form(self, n):
        # Exhaustive up to n = 8, the spike's orbit mean above.
        for alt in self.ALTS.values():
            entries = alt.mean_entries(n, 0)
            a, b = spike_levels(entries)
            c2 = (a - b) ** 2
            want = np.exp(c2 * (1 - 1 / n)) / n + (1 - 1 / n) * np.exp(-c2 / n) - 1
            got = perm_variance_diagnostic(entries, mc_reps=1, seed=0)
            assert got == pytest.approx(want, rel=1e-10)


class TestLbarDesign:
    def test_zero_m_gives_one(self):
        rng = spawn_generator(12, 1)
        design = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        assert lbar_design_orthogonal(np.zeros(20), design, y) == pytest.approx(1.0)

    def test_reduces_to_centered_orthogonal_for_ones_design(self):
        rng = spawn_generator(13, 1)
        n = 30
        m = rng.normal(size=n)
        m -= m.mean()
        y = rng.normal(size=n)
        v1 = lbar_design_orthogonal(m, np.ones((n, 1)), y)
        v2 = orbit.lbar_orthogonal_from_norms(np.linalg.norm(m), np.linalg.norm(y - y.mean()), n - 1)[0]
        assert v1 == pytest.approx(v2, rel=1e-9)

    def test_null_expectation_is_one(self):
        rng = spawn_generator(14, 1)
        n, p = 100, 3
        design = rng.normal(size=(n, p))
        q, _ = np.linalg.qr(design)
        m = rng.normal(size=n)
        m -= q @ (q.T @ m)  # X'm = 0
        m *= 2.0 / np.linalg.norm(m)
        y = rng.normal(size=(10_000, n))
        vals = lbar_design_orthogonal(m, design, y)
        se = vals.std() / np.sqrt(vals.size)
        assert abs(vals.mean() - 1.0) < 4 * se

    def test_identifiability_enforced(self):
        rng = spawn_generator(15, 1)
        design = rng.normal(size=(15, 2))
        m = design[:, 0].copy()  # in the column space
        with pytest.raises(ValueError, match="identifiab"):
            lbar_design_orthogonal(m, design, rng.normal(size=15))

    def test_rank_deficient_design_rejected(self):
        design = np.ones((10, 2))
        with pytest.raises(ValueError, match="rank"):
            lbar_design_orthogonal(np.zeros(10), design, np.zeros(10))


class TestPowerLevelBound:
    def test_constant_one(self):
        bound, se = power_level_bound(np.ones(50))
        assert bound == 0.0 and se == 0.0

    def test_hand_pair(self):
        bound, _ = power_level_bound(np.array([0.5, 1.5]))
        assert bound == pytest.approx(0.5)

    def test_one_sample_has_no_standard_error(self):
        with pytest.raises(ValueError, match="two samples"):
            power_level_bound(np.array([0.3]))

    def test_monotone_decrease_in_n(self):
        fam = normal_family()
        out = {}
        for n in (100, 10_000):
            m = np.zeros(n)
            m[0] = 1.0
            mv = MeanVector(m, compact_lo=None, compact_hi=None)
            vals = null_lbar_samples(OrbitSpec(group="full_orthogonal").null_orbit(fam, mv, 16), 4000)
            out[n] = power_level_bound(vals)
        assert out[10_000][0] < out[100][0]


class TestNullPointPerGroup:
    """E_0 Lbar = 1 at an uncentered m, with each group's own null point."""

    @staticmethod
    def _case(group):
        if group == "full_orthogonal":
            m = MeanVector(np.full(20, 0.5), compact_lo=None, compact_hi=None)
            return normal_family(), m, OrbitSpec(group=group)
        if group == "orthogonal_fixing_design":
            rng = spawn_generator(30, 1)
            design = rng.normal(size=(20, 2))
            q, _ = np.linalg.qr(design)
            entries = 0.5 + 0.2 * rng.normal(size=20)
            entries -= q @ (q.T @ entries)
            assert abs(entries.mean()) > 0.3  # mean(m) * 1 is not a null point
            m = MeanVector(entries, compact_lo=None, compact_hi=None)
            return normal_family(), m, OrbitSpec(group=group, design=design)
        if group == "permutation_exhaustive":
            entries = np.array([0.9, 0.1, 0.5, 0.3, 0.6, 0.2])
        else:
            entries = np.linspace(0.0, 1.0, 12)
        return poisson_family(), MeanVector(entries), OrbitSpec(group=group, mc_reps=500)

    @pytest.mark.parametrize(
        "group", ["full_orthogonal", "orthogonal_fixing_design", "permutation_exhaustive", "permutation"]
    )
    def test_null_mean_one(self, group):
        family, m, spec = self._case(group)
        vals = null_lbar_samples(spec.null_orbit(family, m, 31), reps=4000)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - 1.0) < 4 * se, (vals.mean(), se)

    def test_identity_at_uncentered_m(self):
        family, m, spec = self._case("full_orthogonal")
        crit = sps.chi2.ppf(0.95, df=20)
        stat = lambda x: (chisq_statistic(x) > crit).astype(float)
        res = identity_check(family, m, stat, spec, reps=20_000, seed=32)
        assert res.agrees, res


ORTHOGONAL_GROUPS = ["full_orthogonal", "orthogonal_fixing_design"]


class TestRadialNullDraw:
    """Orthogonal-group null samples from one chi-square radius per replicate.

    The reference is the vector path: whole null vectors through
    ``lbar_orthogonal`` and ``lbar_design_orthogonal``.
    """

    N, P, NORM_M = 50, 3, 3.0

    @classmethod
    def _case(cls, group):
        entries = np.zeros(cls.N)
        entries[0] = cls.NORM_M
        if group == "full_orthogonal":
            spec = OrbitSpec(group=group)
            vector = lambda x: lbar_orthogonal(entries, x)
        else:
            design = spawn_generator(40, 1).normal(size=(cls.N, cls.P))
            q, _ = np.linalg.qr(design)
            entries -= q @ (q.T @ entries)
            entries *= cls.NORM_M / np.linalg.norm(entries)
            spec = OrbitSpec(group=group, design=design)
            vector = lambda x: lbar_design_orthogonal(entries, design, x)
        return MeanVector(entries, compact_lo=None, compact_hi=None), spec, vector

    @pytest.mark.parametrize("group", ORTHOGONAL_GROUPS)
    def test_matches_vector_path_in_distribution(self, group):
        m, spec, vector = self._case(group)
        reps = 20_000
        radial = null_lbar_samples(spec.null_orbit(normal_family(), m, 41), reps)
        reference = vector(spawn_generator(42, 1).standard_normal((reps, self.N)))
        assert sps.ks_2samp(radial, reference).pvalue > 1e-3
        se = radial.std(ddof=1) / np.sqrt(reps)
        assert abs(radial.mean() - 1.0) < 4 * se, (radial.mean(), se)

    @pytest.mark.parametrize("group", ORTHOGONAL_GROUPS)
    def test_one_chi_square_stream_per_block(self, group):
        m, spec, _ = self._case(group)
        one = null_lbar_samples(spec.null_orbit(normal_family(), m, 43), reps=3000, workers=1)
        two = null_lbar_samples(spec.null_orbit(normal_family(), m, 43), reps=3000, workers=2)
        np.testing.assert_array_equal(one, two)
        dof = self.N if group == "full_orthogonal" else self.N - self.P
        radii = np.sqrt(spawn_generator(43, TAG_ORBIT, 1).chisquare(dof, BLOCK_REPS))
        np.testing.assert_allclose(
            one[BLOCK_REPS : 2 * BLOCK_REPS],
            orbit.lbar_orthogonal_from_norms(self.NORM_M, radii, dof),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("group", ORTHOGONAL_GROUPS)
    def test_refuses_other_models(self, group):
        m, spec, _ = self._case(group)
        with pytest.raises(ValueError, match="normal model"):
            null_lbar_samples(spec.null_orbit(poisson_family(), m, 0), reps=10)
        with pytest.raises(ValueError, match="normal model"):
            identity_check(poisson_family(), m, chisq_statistic, spec, reps=10, seed=0)


class TestIdentityCheck:
    def test_constant_statistic(self):
        fam = normal_family()
        m = MeanVector(np.array([0.5, -0.5, 0.25, -0.25]))
        res = identity_check(
            fam,
            m,
            lambda x: np.ones(np.asarray(x).shape[0]),
            OrbitSpec(group="permutation_exhaustive"),
            reps=4000,
            seed=17,
        )
        assert res.lhs == pytest.approx(1.0)
        assert abs(res.rhs - 1.0) < 4 * res.rhs_se

    def test_chisq_threshold_matches_noncentral_oracle(self):
        n = 20
        fam = normal_family()
        entries = np.zeros(n)
        entries[0] = 2.0
        m = MeanVector(entries, compact_lo=None, compact_hi=None)
        crit = sps.chi2.ppf(0.95, df=n)
        stat = lambda x: (chisq_statistic(x) > crit).astype(float)
        res = identity_check(
            fam, m, stat, OrbitSpec(group="full_orthogonal"), reps=20_000, seed=18
        )
        oracle = sps.ncx2.sf(crit, df=n, nc=4.0)
        assert abs(res.lhs - oracle) <= 4 * res.lhs_se
        assert res.agrees

    def test_residual_norm_threshold_matches_noncentral_oracle(self):
        # ||(I - QQ')x||^2 is noncentral chi-square(n - p, ||m_r||^2) under m.
        n, p = 20, 3
        design = spawn_generator(44, 1).normal(size=(n, p))
        q, _ = np.linalg.qr(design)
        entries = np.zeros(n)
        entries[0] = 1.0
        entries -= q @ (q.T @ entries)
        entries *= 2.0 / np.linalg.norm(entries)
        m = MeanVector(entries, compact_lo=None, compact_hi=None)
        crit = sps.chi2.ppf(0.95, df=n - p)

        def stat(x):
            r = x - (x @ q) @ q.T
            return (np.sum(r * r, axis=-1) > crit).astype(float)

        spec = OrbitSpec(group="orthogonal_fixing_design", design=design)
        res = identity_check(normal_family(), m, stat, spec, reps=20_000, seed=45)
        oracle = sps.ncx2.sf(crit, df=n - p, nc=4.0)
        assert abs(res.lhs - oracle) <= 4 * res.lhs_se
        assert res.agrees, res

    def test_monte_carlo_permutation_average(self):
        # Above n = 8 the permutation average is a Monte Carlo one; it is
        # unbiased for the exact average, so the identity holds in mean.
        fam = poisson_family()
        m = MeanVector(np.linspace(0.2, 1.0, 12))
        stat = lambda x: (np.asarray(x).var(axis=-1) > 0.8).astype(float)
        spec = OrbitSpec(group="permutation", mc_reps=500)
        res = identity_check(fam, m, stat, spec, reps=20_000, seed=46)
        assert res.agrees, res
        x, _ = spec.null_orbit(fam, m, seed=46).draw(0, 20_000)
        assert abs(res.lhs - stat(x).mean()) > 4 * res.se  # Lbar carries the whole gap

    def test_poisson_variance_threshold_exhaustive(self):
        fam = poisson_family()
        m = MeanVector(np.array([0.5, -0.5, 0.3, -0.3, 0.2, -0.2]))
        stat = lambda x: (np.asarray(x).var(axis=-1) > 1.2).astype(float)
        res = identity_check(
            fam, m, stat, OrbitSpec(group="permutation_exhaustive"), reps=20_000, seed=19
        )
        assert res.agrees

    def test_rejects_noninvariant_statistic(self):
        fam = normal_family()
        m = MeanVector(np.array([0.5, -0.5, 0.0]))
        direction = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="invariant"):
            identity_check(
                fam,
                m,
                lambda x: np.asarray(x) @ direction,
                OrbitSpec(group="permutation_exhaustive"),
                reps=100,
                seed=20,
                invariance_sampler=permutation_sampler(3),
            )


class TestHeuristic:
    """The permutation-variance heuristic ``perm_variance_diagnostic``."""

    def test_variance_diagnostic_small_for_spread_m(self):
        rng = spawn_generator(24, 1)
        dev = rng.normal(size=300)
        dev -= dev.mean()
        dev /= np.linalg.norm(dev)
        val = perm_variance_diagnostic(dev, mc_reps=5000, seed=25)
        assert val == pytest.approx(0.0, abs=0.1)


class TestBoundChain:
    def test_anova_f_gap_dominated_by_permutation_bound(self):
        # Known-sigma reduction: the averaged ratio of the full replicate
        # table equals the permutation average on rescaled cell means.
        fam = normal_family()
        n, nu, sigma = 6, 5, 1.0
        rng = spawn_generator(25, 1)
        dev = rng.normal(size=n)
        dev -= dev.mean()
        dev *= 1.0 / np.linalg.norm(dev)
        reps = 20_000
        from invlab.stats import anova_f

        crit = sps.f.ppf(0.95, n - 1, n * (nu - 1))
        alt_tables = rng.normal(size=(reps, n, nu)) + dev[:, None]
        null_tables = rng.normal(size=(reps, n, nu))
        gap = abs(
            (anova_f(alt_tables) > crit).mean() - (anova_f(null_tables) > crit).mean()
        )
        cell_means = null_tables.mean(axis=-1)
        scaled = cell_means * np.sqrt(nu) / sigma
        m_scaled = MeanVector(dev * np.sqrt(nu) / sigma, compact_lo=None, compact_hi=None)
        lbars = lbar_permutation(
            fam, m_scaled, scaled, OrbitSpec(group="permutation_exhaustive")
        )
        bound, bound_se = power_level_bound(lbars)
        mc_se = np.sqrt(2 * 0.25 / reps)
        assert gap <= bound + 4 * (bound_se + mc_se)

    def test_chisq_gap_dominated_by_bound(self):
        # |E_m T - E_0 T| <= E_0 |Lbar - 1| + 4 SE for the invariant chisq test.
        fam = normal_family()
        n = 50
        rng = spawn_generator(26, 1)
        entries = np.zeros(n)
        entries[0] = 1.5
        m = MeanVector(entries, compact_lo=None, compact_hi=None)
        crit = sps.chi2.ppf(0.95, df=n)
        reps = 20_000
        x_alt = rng.normal(size=(reps, n)) + entries
        x_null = rng.normal(size=(reps, n))
        t_alt = (chisq_statistic(x_alt) > crit).mean()
        t_null = (chisq_statistic(x_null) > crit).mean()
        vals = null_lbar_samples(OrbitSpec(group="full_orthogonal").null_orbit(fam, m, 27), reps)
        bound, bound_se = power_level_bound(vals)
        mc_se = np.sqrt(2 * 0.25 / reps)
        assert abs(t_alt - t_null) <= bound + 4 * (bound_se + mc_se)
