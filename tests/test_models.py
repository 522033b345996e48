"""Tests for sampling models, likelihood ratios, and spacings."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.integrate import simpson

from invlab import models
from invlab.models import (
    MeanVector,
    bernoulli_logit_family,
    cosine_profile,
    logistic_location_family,
    loglik_ratio,
    normal_family,
    poisson_family,
    sample_model,
    sample_spacings_alternative_batch,
    sample_spacings_null_batch,
    spacings_loglik_approx,
    spacings_loglik_exact,
)
from invlab.rng import TAG_MODEL, jumped, spawn_generator
from oracles import TAG_SPACINGS, one_shot_spacings_alternative, profile_from_callable


def mv(*entries, lo=-2.0, hi=2.0):
    return MeanVector(np.array(entries, dtype=float), compact_lo=lo, compact_hi=hi)


class TestMeanVector:
    def test_basic_properties(self):
        m = mv(1.0, -1.0, 0.0)
        assert m.mean == 0.0
        assert m.centered_norm == pytest.approx(np.sqrt(2.0))
        assert m.n == 3

    def test_rejects_out_of_box(self):
        with pytest.raises(ValueError, match="compact"):
            mv(3.0, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            MeanVector(np.array([np.nan, 0.0]))

    def test_unbounded_when_box_disabled(self):
        m = MeanVector(np.array([5.0, -5.0]), compact_lo=None, compact_hi=None)
        assert m.centered_norm == pytest.approx(np.sqrt(50.0))


def _cumulant_derivatives(family, theta, step=1e-4):
    """``beta'`` and ``beta''`` of the family's cumulant, from central differences."""
    lo, mid, hi = (float(family.beta(theta + k * step)) for k in (-1, 0, 1))
    return (hi - lo) / (2 * step), (hi - 2 * mid + lo) / step**2


class TestFamilies:
    @pytest.mark.parametrize("factory", [normal_family, poisson_family, bernoulli_logit_family])
    def test_carrier_matches_cumulant_derivatives(self, factory):
        # MC mean/variance of the sampler must match beta'(m), beta''(m) of the
        # cumulant beta that the likelihood ratios read.
        family = factory()
        reps = 200_000
        for theta in (-0.5, 0.3):
            mean, variance = _cumulant_derivatives(family, theta)
            m = MeanVector(np.array([theta]))
            draws = sample_model(family, m, spawn_generator(5, 1), reps=reps).ravel()
            mean_se = draws.std() / np.sqrt(reps)
            assert abs(draws.mean() - mean) < 4 * mean_se
            var = draws.var()
            var_se = np.sqrt(max(np.mean((draws - draws.mean()) ** 4) - var**2, 0) / reps)
            assert abs(var - variance) < 4 * var_se

    def test_beta2_positive_on_box(self):
        # The cumulant is strictly convex: positive second differences across the box.
        for factory in (normal_family, poisson_family, bernoulli_logit_family):
            family = factory()
            ts = np.linspace(-2, 2, 101)
            assert all(_cumulant_derivatives(family, t)[1] > 0 for t in ts)

    def test_logistic_score_identities(self):
        # E phi1 = 0 and E phi2 = -iota = -1/3 under the true parameter, with the
        # logistic score phi1 = tanh(u / 2) and phi2 = -1 / (2 cosh^2(u / 2)), u = x - theta.
        family = logistic_location_family()
        reps = 200_000
        theta = 0.4
        m = MeanVector(np.array([theta]))
        draws = sample_model(family, m, spawn_generator(6, 1), reps=reps).ravel()
        s = np.tanh((draws - theta) / 2.0)
        assert abs(s.mean()) < 4 * s.std() / np.sqrt(reps)
        s2 = -0.5 / np.square(np.cosh((draws - theta) / 2.0))
        assert abs(s2.mean() + 1.0 / 3.0) < 4 * s2.std() / np.sqrt(reps)


class TestSampleModel:
    def test_normal_null_mean(self):
        family = normal_family()
        m = MeanVector(np.zeros(100_000))
        draws = sample_model(family, m, spawn_generator(0, TAG_MODEL), reps=1)
        assert abs(draws.mean()) < 4 / np.sqrt(100_000)

    def test_poisson_mean_two(self):
        family = poisson_family()
        m = MeanVector(np.full(100_000, np.log(2.0)))
        draws = sample_model(family, m, spawn_generator(1, TAG_MODEL), reps=1)
        assert abs(draws.mean() - 2.0) < 4 * np.sqrt(2.0 / 100_000)

    def test_spike_coordinate_mean(self):
        family = normal_family()
        entries = np.zeros(50)
        entries[0] = 3.0
        m = MeanVector(entries, compact_lo=None, compact_hi=None)
        draws = sample_model(family, m, spawn_generator(2, TAG_MODEL), reps=20_000)
        assert abs(draws[:, 0].mean() - 3.0) < 4 / np.sqrt(20_000)
        assert abs(draws[:, 1:].mean()) < 4 / np.sqrt(49 * 20_000)

    def test_rejects_outside_box(self):
        with pytest.raises(ValueError):
            sample_model(normal_family(), mv(2.5), spawn_generator(0, TAG_MODEL), reps=1)

    def test_normal_draws_bit_identical_to_location_sampler(self):
        # standard_normal() + m must reproduce Generator.normal(loc=m) bit for bit.
        m = MeanVector(np.linspace(-3.0, 3.0, 37), compact_lo=None, compact_hi=None)
        draws = sample_model(normal_family(), m, spawn_generator(8, 1), reps=500)
        ref = spawn_generator(8, 1).normal(loc=m.entries, scale=1.0, size=(500, 37))
        assert draws.tobytes() == ref.tobytes()

    def test_poisson_draws_bit_identical_to_broadcast_rates(self):
        # A spike of rate e^3 (the rejection regime) among rates 1 (the inversion regime):
        # the (n,) rate vector must draw what the stride-0 broadcast of it to (reps, n) drew.
        entries = np.zeros(333)
        entries[0] = 3.0
        m = MeanVector(entries, compact_lo=None, compact_hi=None)
        draws = sample_model(poisson_family(), m, spawn_generator(10, 1), reps=1500)
        size = (1500, 333)
        ref = spawn_generator(10, 1).poisson(lam=np.broadcast_to(np.exp(entries), size), size=size)
        assert np.array_equal(draws, ref.astype(float))

    @pytest.mark.parametrize("level", [0.0, 0.7, -1.3])
    @pytest.mark.parametrize("shape", [(1024, 50), (7, 5000)])
    @pytest.mark.parametrize(
        "factory", [normal_family, poisson_family, bernoulli_logit_family, logistic_location_family]
    )
    def test_constant_mean_draws_bit_identical_to_vector_form(self, factory, shape, level):
        # A constant m goes to the sampler as one scalar; the parameter vector drew the same bits.
        family = factory()
        reps, n = shape
        m = MeanVector(np.full(n, level))
        draws = sample_model(family, m, spawn_generator(11, n), reps=reps)
        ref = family.sampler(spawn_generator(11, n), m.entries, shape)
        assert np.array_equal(draws, ref)

    def test_neyman_scott_draws_bit_identical_to_location_scale_sampler(self):
        layout = models.NeymanScottLayout(n=23, nu=4, sigma=1.7)
        m = MeanVector(np.linspace(-1.0, 2.0, 23), compact_lo=None, compact_hi=None)
        draws = models.sample_neyman_scott(layout, m, spawn_generator(9, 1), reps=300)
        ref = spawn_generator(9, 1).normal(
            loc=m.entries[:, None], scale=1.7, size=(300, 23, 4)
        )
        assert draws.tobytes() == ref.tobytes()


class TestLoglikRatio:
    def test_zero_at_null(self):
        family = poisson_family()
        m = MeanVector(np.full(4, 0.7))
        x = np.array([1.0, 0.0, 3.0, 2.0])
        assert loglik_ratio(family, m, 0.7, x) == pytest.approx(0.0)

    def test_hand_normal_example(self):
        family = normal_family()
        val = loglik_ratio(family, mv(1.0, -1.0), 0.0, np.array([2.0, 1.0]))
        assert val == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("name", ["normal", "poisson", "bernoulli"])
    def test_against_density_product_oracle(self, name):
        # exp(loglik_ratio) must equal the ratio of pointwise density products.
        family = models.family_by_name(name)
        rng = spawn_generator(7, 2)
        for trial in range(10):
            n = int(rng.integers(2, 11))
            entries = rng.uniform(-1.0, 1.0, n)
            m = MeanVector(entries)
            mbar = float(rng.uniform(-1.0, 1.0))
            x = sample_model(family, m, spawn_generator(8, trial), reps=1)[0]
            if name == "normal":
                num = sps.norm.logpdf(x, loc=entries).sum()
                den = sps.norm.logpdf(x, loc=mbar).sum()
            elif name == "poisson":
                num = sps.poisson.logpmf(x, mu=np.exp(entries)).sum()
                den = sps.poisson.logpmf(x, mu=np.exp(mbar)).sum()
            else:
                p = 1 / (1 + np.exp(-entries))
                pbar = 1 / (1 + np.exp(-mbar))
                num = sps.bernoulli.logpmf(x, p).sum()
                den = sps.bernoulli.logpmf(x, np.full(n, pbar)).sum()
            mine = loglik_ratio(family, m, mbar, x)
            assert mine == pytest.approx(num - den, rel=1e-10, abs=1e-10)

    def test_logistic_family_ratio(self):
        family = logistic_location_family()
        m = mv(0.5, -0.5)
        x = np.array([0.2, -1.0])
        oracle = (
            sps.logistic.logpdf(x, loc=m.entries).sum()
            - sps.logistic.logpdf(x, loc=0.1).sum()
        )
        assert loglik_ratio(family, m, 0.1, x) == pytest.approx(oracle, rel=1e-12)

    def test_null_mean_of_exp_ratio_is_one(self):
        # Likelihood ratios integrate to one under the null.
        family = normal_family()
        m = mv(0.4, -0.4, 0.2, -0.2)
        null = MeanVector(np.zeros(4))
        reps = 100_000
        x = sample_model(family, null, spawn_generator(11, 0), reps=reps)
        lr = np.exp(loglik_ratio(family, m, 0.0, x))
        assert abs(lr.mean() - 1.0) < 4 * lr.std() / np.sqrt(reps)


class TestSpacings:
    def test_null_sums_to_one(self):
        d = sample_spacings_null_batch(64, 1, spawn_generator(0, TAG_SPACINGS))[0]
        assert abs(d.sum() - 1.0) <= 1e-12

    def test_scaled_first_spacing_mean(self):
        n = 100_000
        d = sample_spacings_null_batch(n, 1, spawn_generator(1, TAG_SPACINGS))[0]
        # each spacing has mean 1/(n+1); average over all for a tight check
        scaled = (n + 1) * d
        assert abs(scaled.mean() - 1.0) < 1e-12  # exact by normalization
        # and the first spacing over replicates
        batch = sample_spacings_null_batch(1000, 2000, spawn_generator(2, TAG_SPACINGS))
        first = 1001 * batch[:, 0]
        assert abs(first.mean() - 1.0) < 4 * first.std() / np.sqrt(2000)

    def test_greenwood_null_mean_matches_dirichlet_moment(self):
        # E sum D_i^2 = 2 / (n + 2) by Dirichlet(1,...,1) second moments.
        n = 50
        batch = sample_spacings_null_batch(n, 10_000, spawn_generator(3, TAG_SPACINGS))
        g = np.sum(batch**2, axis=1)
        expect = 2.0 / (n + 2)
        assert abs(g.mean() - expect) < 4 * g.std() / np.sqrt(10_000)

    def test_exchangeability_of_null_spacings(self):
        # Swapped-coordinate empirical law agrees with the original.
        batch = sample_spacings_null_batch(5, 100_000, spawn_generator(4, TAG_SPACINGS))
        a = np.sort(batch[:, 0])
        b = np.sort(batch[:, 1])
        grid = np.concatenate([a, b])
        fa = np.searchsorted(a, grid, side="right") / a.size
        fb = np.searchsorted(b, grid, side="right") / b.size
        assert np.max(np.abs(fa - fb)) < 0.01

    def test_block_memory_bounded(self):
        # The output, 12.5 MiB here, is divided in place: no second whole-block array.
        tracemalloc.start()
        try:
            got = sample_spacings_null_batch(1600, 1024, spawn_generator(52))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        e = spawn_generator(52).exponential(1.0, size=(1024, 1601))
        assert np.array_equal(got, e / e.sum(axis=1, keepdims=True))


class TestSpacingsAlternative:
    def test_zero_profile_matches_null(self):
        zero = profile_from_callable(lambda x: np.zeros_like(x))
        alt = sample_spacings_alternative_batch(20, zero, 4000, spawn_generator(5, TAG_SPACINGS))
        null = sample_spacings_null_batch(20, 4000, spawn_generator(6, TAG_SPACINGS))
        a = np.sort(alt[:, 0])
        b = np.sort(null[:, 0])
        grid = np.concatenate([a, b])
        fa = np.searchsorted(a, grid, side="right") / a.size
        fb = np.searchsorted(b, grid, side="right") / b.size
        assert np.max(np.abs(fa - fb)) < 0.04

    def test_cdf_at_half_for_cosine(self):
        # CDF(1/2) = 1/2 + sin(pi)/(2 pi sqrt(n)) = 1/2 exactly for h = cos(2 pi x).
        prof = profile_from_callable(lambda x: np.cos(2 * np.pi * x))
        n = 400
        batch = sample_spacings_alternative_batch(n, prof, 200, spawn_generator(7, TAG_SPACINGS))
        pts = np.cumsum(batch, axis=1)[:, :-1]
        frac = (pts <= 0.5).mean()
        se = np.sqrt(0.25 / (200 * n))  # crude; draws within a row are dependent
        assert abs(frac - 0.5) < 8 * se

    def test_rejects_unnormalized_profile(self):
        half = models.Profile(lambda x: np.ones_like(x) * 0.5, sup=0.5)
        with pytest.raises(ValueError, match="integrate"):
            sample_spacings_alternative_batch(100, half, 10, spawn_generator(0, TAG_SPACINGS))

    def test_rejects_oversized_profile(self):
        big = cosine_profile({1: 10.0})
        with pytest.raises(ValueError, match="sup"):
            sample_spacings_alternative_batch(4, big, 10, spawn_generator(0, TAG_SPACINGS))

    def test_acceptance_rate_matches_envelope_ratio(self):
        # Proposals are accepted at rate 1 / (1 + sup|h| / sqrt(n)).
        prof = cosine_profile({1: 1.0})
        n = 100
        envelope = 1.0 + prof.sup / np.sqrt(n)
        rng = spawn_generator(31, 1)
        k = 200_000
        u = rng.random(k)
        accepted = (rng.random(k) * envelope <= 1.0 + prof(u) / np.sqrt(n)).mean()
        expect = 1.0 / envelope
        assert abs(accepted - expect) < 4 * np.sqrt(expect * (1 - expect) / k)


def _grid_blind_profile(n: int, certified: bool) -> models.Profile:
    """``h = -sqrt(n) / 2`` off the 4097-point grid and 0 on it.

    The grid check reads its integral as 0, so the sampler takes it, but
    only a third of the proposals pass the test: a round accepts about 0.6
    of the points it still needs, and the sampler runs further rounds.
    """
    depth = 0.5 * np.sqrt(n)
    return models.Profile(
        fn=lambda x: np.where((4096.0 * x) % 1.0 == 0.0, 0.0, -depth),
        sup=depth,
        sup_certified=certified,
    )


class TestChunkedSpacingsSampler:
    """The chunked, squeezed sampler equals the one-shot rounds of :mod:`oracles` bit for bit.

    ``reps`` 1500 leaves a 476-row partial block; the generator must be left
    where the one-shot rounds leave it.  The callable profile has no certified
    sup, so it evaluates ``h`` at every proposal.
    """

    PROFILES = {
        "cos1": lambda n: cosine_profile({1: 1.0}),
        "cos3": lambda n: cosine_profile({1: 0.5, 2: -0.7, 5: 0.3}),
        "callable": lambda n: profile_from_callable(
            lambda x: np.sqrt(2.0) * (0.5 * np.cos(2 * np.pi * x) - 0.7 * np.cos(4 * np.pi * x))
        ),
        "second_round_certified": lambda n: _grid_blind_profile(n, True),
        "second_round_grid": lambda n: _grid_blind_profile(n, False),
    }

    @pytest.mark.parametrize("reps", [1, 5, 1024, 1500])
    @pytest.mark.parametrize("n", [7, 100, 1600])
    @pytest.mark.parametrize("profile", PROFILES)
    def test_equals_one_shot_rounds(self, profile, n, reps):
        prof = self.PROFILES[profile](n)
        rng, ref = spawn_generator(49, n, reps), spawn_generator(49, n, reps)
        got = sample_spacings_alternative_batch(n, prof, reps, rng)
        want = one_shot_spacings_alternative(n, prof, reps, ref)
        assert got.shape == (reps, n + 1)
        assert np.array_equal(got, want)
        assert np.array_equal(rng.random(5), ref.random(5))

    @pytest.mark.parametrize("certified", [True, False])
    def test_grid_blind_profile_needs_a_second_round(self, certified):
        n, reps = 100, 5
        prof = _grid_blind_profile(n, certified)
        rng = spawn_generator(50)
        sample_spacings_alternative_batch(n, prof, reps, rng)
        envelope = 1.0 + prof.sup / np.sqrt(n)
        first_round = max(int(1.2 * reps * n * envelope), 1024)
        one_round = jumped(spawn_generator(50), 2 * first_round)
        assert not np.array_equal(rng.random(5), one_round.random(5))

    def test_block_memory_bounded(self):
        # The one-shot rounds peak at 80 MiB here; the output alone is 12.5 MiB.
        prof = cosine_profile({1: 2.0})
        tracemalloc.start()
        try:
            sample_spacings_alternative_batch(1600, prof, 1024, spawn_generator(51))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


@st.composite
def _certified_profiles(draw):
    """A cosine profile, its weights maybe scaled by a common factor, and an ``n`` it is valid at."""
    freqs = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True))
    weights = draw(
        st.lists(
            st.floats(-3.0, 3.0, allow_nan=False).filter(lambda c: abs(c) > 1e-3),
            min_size=len(freqs),
            max_size=len(freqs),
        )
    )
    scale = draw(st.sampled_from([1.0, 0.37, 2.5]))
    prof = cosine_profile({k: scale * w for k, w in zip(freqs, weights)})
    # The smallest n the sampler takes, up to rounding, plus an offset.
    n = int(np.ceil((prof.sup / 0.99) ** 2)) + 1 + draw(st.sampled_from([0, 1, 50, 10_000]))
    return prof, n


def _near_argmin(prof: models.Profile) -> np.ndarray:
    """Proposals at and next to the minima of ``h``: a fine-grid argmin refined, 0 and 1/2."""
    grid = np.linspace(0.0, 1.0, 1 << 16, endpoint=False)
    best = grid[np.argsort(prof(grid))[:4]]
    fine = ((best[:, None] + np.linspace(-2.0, 2.0, 4001) / (1 << 16)) % 1.0).ravel()
    centres = np.array([fine[np.argmin(prof(fine))], 0.0, 0.5])
    near = [fine, centres]
    for direction in (0.0, 1.0):
        step = centres
        for _ in range(8):
            step = np.nextafter(step, direction)
            near.append(step)
    return np.clip(np.concatenate(near), 0.0, np.nextafter(1.0, 0.0))


class TestSqueeze:
    """A squeeze accept (``v * envelope <= floor``) is always an accept of the full test."""

    @settings(max_examples=150, deadline=None)
    @given(_certified_profiles())
    @example((cosine_profile({1: -1.0, 2: -0.5, 3: -0.25}), 10))  # h(0) = -sup
    @example((cosine_profile({1: 2.0}), 9))  # envelope 1.94, h(1/2) = -sup
    def test_squeeze_accept_is_full_accept(self, case):
        prof, n = case
        models.check_spacings_profile(n, prof)
        root_n = np.sqrt(n)
        floor = models._acceptance_floor(prof, root_n)
        # The full test the sampler runs, at the largest product the squeeze accepts.
        u = _near_argmin(prof)
        assert np.all(floor <= 1.0 + prof(u) / root_n)
        # The squeeze is not vacuous: it sits a margin below the true minimum.
        assert 1.0 - prof.sup / root_n - floor < 1e-8

    def test_grid_estimated_sup_has_no_squeeze(self):
        prof = profile_from_callable(lambda x: np.cos(2 * np.pi * x))
        assert models._acceptance_floor(prof, 10.0) == -np.inf


class TestSpacingsLoglik:
    def test_zero_profile(self):
        d = sample_spacings_null_batch(30, 1, spawn_generator(8, TAG_SPACINGS))[0]
        zero = profile_from_callable(lambda x: np.zeros_like(x))
        assert spacings_loglik_approx(zero, d) == pytest.approx(0.0)

    def test_equal_spacings_cosine(self):
        n = 63
        d = np.full(n + 1, 1.0 / (n + 1))
        prof = profile_from_callable(lambda x: np.cos(2 * np.pi * x))
        assert spacings_loglik_approx(prof, d) == pytest.approx(-0.25, abs=1e-6)

    def test_constant_one_profile(self):
        # sum(d_i) - 1 = 0 exactly, so only the -1/2 integral survives.
        n = 20
        d = sample_spacings_null_batch(n, 1, spawn_generator(9, TAG_SPACINGS))[0]
        val = (d - 1.0 / (n + 1)) @ np.ones(n + 1) - 0.5
        assert val == pytest.approx(-0.5, abs=1e-12)

    def test_approx_tracks_exact_and_gap_shrinks(self):
        # The gap to the exact log-likelihood ratio is O_p(n^(-1/2)).
        h = cosine_profile({1: 2.0})
        grid = (100, 400, 1600)
        gaps = []
        for n in grid:
            d = models.sample_spacings_null_batch(n, 2000, spawn_generator(33, n))
            approx = spacings_loglik_approx(h, d)
            exact = spacings_loglik_exact(h, d)
            assert np.corrcoef(approx, exact)[0, 1] > 0.9
            gaps.append(np.quantile(np.abs(approx - exact), 0.95))
        slope = np.polyfit(np.log(grid), np.log(gaps), 1)[0]
        assert -0.75 < slope < -0.35, gaps

    def test_approx_evaluates_the_profile_once_per_n(self):
        # Row-chunked callers ask for the grid values and integral(h^2) once per chunk.
        calls = []
        base = cosine_profile({1: 2.0, 2: -0.5})
        prof = replace(base, fn=lambda x: calls.append(np.size(x)) or base.fn(x))
        d = sample_spacings_null_batch(50, 40, spawn_generator(11, TAG_SPACINGS))
        whole = spacings_loglik_approx(prof, d)
        evaluated = len(calls)
        chunks = [spacings_loglik_approx(prof, d[lo : lo + 8]) for lo in range(0, 40, 8)]
        assert evaluated == 2 and len(calls) == evaluated
        assert np.array_equal(np.concatenate(chunks), whole)
        spacings_loglik_approx(prof, d[:, 1:])  # another n evaluates again
        assert len(calls) == evaluated + 2

    def test_exact_loglik_matches_direct_sum(self):
        prof = cosine_profile({1: 1.0})
        d = sample_spacings_null_batch(50, 1, spawn_generator(10, TAG_SPACINGS))[0]
        pts = np.cumsum(d)[:-1]
        oracle = np.sum(np.log1p(prof(pts) / np.sqrt(50)))
        assert spacings_loglik_exact(prof, d) == pytest.approx(oracle, rel=1e-12)


class TestProfiles:
    def test_cosine_profile_mean_zero_and_norm(self):
        prof = cosine_profile({1: 2.0})
        xs = np.linspace(0, 1, 4097)
        assert abs(simpson(prof(xs), x=xs)) < 1e-9
        assert simpson(prof(xs) ** 2, x=xs) == pytest.approx(4.0)
        assert prof.sup == pytest.approx(2.0 * np.sqrt(2.0))

    def test_combination_profile(self):
        prof = cosine_profile({1: 1.0, 3: -0.5})
        xs = np.linspace(0, 1, 4097)
        assert simpson(prof(xs) ** 2, x=xs) == pytest.approx(1.25)
