"""Tests for the test statistics and the invariance checker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from invlab import stats
from invlab.experiments import NULL, SpacingsModel, make_statistic
from invlab.models import (
    cosine_profile,
    sample_spacings_alternative_batch,
    sample_spacings_null_batch,
)
from invlab.rng import spawn_generator
from invlab.stats import (
    QUADRATIC_WEIGHTS,
    _quadratic_grid,
    anova_f,
    chisq_statistic,
    greenwood,
    moran,
    np_statistic,
    points_from_spacings,
    quadratic_statistic,
    two_spacings_statistic,
)

from oracles import (
    TAG_SPACINGS,
    haar_orthogonal,
    haar_orthogonal_fixing_design,
    permutation_sampler,
    verify_invariance,
)


class TestNpStatistic:
    def test_coordinate_projection(self):
        m = np.array([1.0, 0.0, 0.0])
        x = np.array([2.5, -1.0, 7.0])
        assert np_statistic(m, x) == pytest.approx(2.5)

    def test_hand_value(self):
        v = np_statistic(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        assert v == pytest.approx(np.sqrt(2.0))

    def test_null_distribution_standard_normal(self):
        rng = spawn_generator(0, 1)
        m = rng.normal(size=100)
        x = rng.normal(size=(10_000, 100))
        vals = np_statistic(m, x)
        assert abs(vals.mean()) < 4 / np.sqrt(10_000)
        assert abs(vals.var() - 1.0) < 4 * np.sqrt(2.0 / 10_000)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            np_statistic(np.zeros(3), np.ones(3))


class TestChisq:
    def test_zero(self):
        assert chisq_statistic(np.zeros(4)) == 0.0

    def test_pythagorean(self):
        assert chisq_statistic(np.array([3.0, 4.0])) == pytest.approx(25.0)

    def test_null_moments(self):
        rng = spawn_generator(1, 1)
        vals = chisq_statistic(rng.normal(size=(10_000, 50)))
        assert abs(vals.mean() - 50) < 4 * vals.std() / np.sqrt(10_000)
        assert abs(vals.var() - 100) < 4 * 100 * np.sqrt(8.0 / 10_000)


class TestAnovaF:
    def test_zero_between(self):
        x = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])  # equal group means
        assert anova_f(x) == pytest.approx(0.0)

    def test_degenerate_within(self):
        x = np.array([[0.0, 0.0], [2.0, 2.0]])
        with pytest.raises(ZeroDivisionError):
            anova_f(x)

    def test_null_level_against_f_oracle(self):
        n, nu, reps = 10, 5, 10_000
        rng = spawn_generator(2, 1)
        x = rng.normal(size=(reps, n, nu))
        vals = anova_f(x)
        crit = sps.f.ppf(0.95, n - 1, n * (nu - 1))
        rate = (vals > crit).mean()
        assert abs(rate - 0.05) < 0.01

    def test_shift_scale_and_permutation_invariance(self):
        rng = spawn_generator(3, 1)
        x = rng.normal(size=(6, 4))
        base = anova_f(x)
        assert anova_f(x + 11.0) == pytest.approx(base, rel=1e-9)
        assert anova_f(x * 3.0) == pytest.approx(base, rel=1e-9)
        perm = rng.permutation(6)
        assert anova_f(x[perm]) == pytest.approx(base, rel=1e-9)


class TestSpacingsStatistics:
    def test_equal_spacings(self):
        d = np.full(5, 0.2)
        assert greenwood(d) == pytest.approx(0.2)
        assert moran(d) == pytest.approx(5 * np.log(0.2))

    def test_extreme_greenwood(self):
        d = np.zeros(6)
        d[0] = 1.0
        assert greenwood(d) == pytest.approx(1.0)

    def test_moran_rejects_zero_spacing(self):
        d = np.zeros(6)
        d[0] = 1.0
        with pytest.raises(ValueError):
            moran(d)

    def test_greenwood_null_mean(self):
        batch = sample_spacings_null_batch(50, 10_000, spawn_generator(4, TAG_SPACINGS))
        g = greenwood(batch)
        assert abs(g.mean() - 2.0 / 52.0) < 4 * g.std() / np.sqrt(10_000)


def _spacings_of(u):
    """Spacings of the ordered points ``u`` on [0, 1], endpoints 0 and 1 included."""
    return np.diff(np.concatenate([[0.0], u, [1.0]]))


def _two_spacings_from_points(d):
    """``sum (U_{i+2} - U_i)^2`` from the points: cumulative sums, padded with 0 and 1."""
    u = points_from_spacings(d)
    padded = np.pad(u, [(0, 0)] * (u.ndim - 1) + [(1, 1)], constant_values=(0.0, 1.0))
    return np.sum(np.square(padded[..., 2:] - padded[..., :-2]), axis=-1)


class TestTwoSpacings:
    def test_even_grid(self):
        n = 9
        u = np.arange(1, n + 1) / (n + 1)
        every = 2.0 / (n + 1)
        assert two_spacings_statistic(_spacings_of(u)) == pytest.approx(n * every**2)

    def test_hand_example(self):
        d = _spacings_of(np.array([0.1, 0.5, 0.9]))
        assert two_spacings_statistic(d) == pytest.approx(1.14)

    @pytest.mark.parametrize("n", [1, 2, 100, 1600])
    def test_matches_points_route(self, n):
        d = sample_spacings_null_batch(n, 300, spawn_generator(61, n))
        got = two_spacings_statistic(d)
        assert got.shape == (300,)
        np.testing.assert_allclose(got, _two_spacings_from_points(d), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [1, 2, 100, 1600])
    def test_reversed_spacings_give_the_same_value(self, n):
        d = sample_spacings_null_batch(n, 300, spawn_generator(62, n))
        got = two_spacings_statistic(d[:, ::-1])
        np.testing.assert_allclose(got, two_spacings_statistic(d), rtol=1e-12, atol=0.0)

    def test_not_invariant_under_spacings_permutation(self):
        d = sample_spacings_null_batch(12, 1, spawn_generator(5, TAG_SPACINGS))[0]
        assert not verify_invariance(
            two_spacings_statistic, permutation_sampler(13), d, spawn_generator(1), reps=64
        )


def _spacings_rows(n: int, kind: str) -> np.ndarray:
    rng = spawn_generator(61, n)
    if kind == "null":
        return sample_spacings_null_batch(n, 300, rng)
    return sample_spacings_alternative_batch(n, cosine_profile({1: 0.5, 2: 0.1}), 300, rng)


def _direct_quadratic(residual: np.ndarray) -> np.ndarray:
    g, _, _ = _quadratic_grid(residual.shape[-1])
    z = np.sum(residual[:, None, :] * g, axis=-1) / np.sqrt(np.sum(g * g, axis=-1))
    return np.sum(QUADRATIC_WEIGHTS * z * z, axis=-1)


@pytest.mark.parametrize("kind", ["null", "alternative"])
@pytest.mark.parametrize("n", [1, 2, 100, 1601])
class TestOnePassSpacingsForms:
    """The row-dot-product forms of the spacings statistics against their direct forms."""

    def test_greenwood(self, n, kind):
        d = _spacings_rows(n, kind)
        np.testing.assert_allclose(greenwood(d), np.sum(d * d, axis=-1), rtol=1e-12, atol=0)

    def test_two_spacings(self, n, kind):
        d = _spacings_rows(n, kind)
        direct = np.sum((d[:, :-1] + d[:, 1:]) ** 2, axis=-1)
        np.testing.assert_allclose(two_spacings_statistic(d), direct, rtol=1e-12, atol=0)

    def test_quadratic_spacings(self, n, kind):
        point = SpacingsModel().at(n, NULL, 0)
        if n + 1 < QUADRATIC_WEIGHTS.size:
            with pytest.raises(ValueError, match="at least 8 observations"):
                make_statistic("quadratic_spacings", point)
            return
        d = _spacings_rows(n, kind)
        got = make_statistic("quadratic_spacings", point)(d)
        np.testing.assert_allclose(got, _direct_quadratic((n + 1) * d - 1.0), rtol=1e-12, atol=0)


class TestQuadraticStatistic:
    def test_zero_input(self):
        assert quadratic_statistic(np.zeros(64)) == pytest.approx(0.0)

    def test_cosine_basis_is_standardized(self):
        # x_j = sqrt(2) cos(2 pi k j / n) has squared norm n and is orthogonal to
        # the other basis vectors on the grid, so only Z_k = sqrt(n) is nonzero.
        n = 64
        for k in range(1, QUADRATIC_WEIGHTS.size + 1):
            x = np.sqrt(2.0) * np.cos(2.0 * np.pi * k * np.arange(1, n + 1) / n)
            assert quadratic_statistic(x) == pytest.approx(QUADRATIC_WEIGHTS[k - 1] * n)

    def test_null_mean_is_sum_of_weights(self):
        rng = spawn_generator(4, 1)
        x = rng.normal(size=(10_000, 200))
        vals = quadratic_statistic(x)
        target = QUADRATIC_WEIGHTS.sum()
        assert target == pytest.approx(0.99609375)
        assert abs(vals.mean() - target) < 4 * vals.std() / np.sqrt(10_000)

    def test_nonnegative_when_squared(self):
        rng = spawn_generator(5, 1)
        vals = quadratic_statistic(rng.normal(size=(100, 40)))
        assert np.all(vals >= 0)

    def test_needs_enough_observations(self):
        with pytest.raises(ValueError):
            quadratic_statistic(np.zeros(4))

    def test_cosine_basis_values(self):
        # Every cosine is sqrt(2) at the last grid point j = n.
        values, norms, sums = _quadratic_grid(16)
        assert values.shape == (QUADRATIC_WEIGHTS.size, 16)
        np.testing.assert_allclose(values[:, -1], np.sqrt(2.0), rtol=1e-15)
        assert not (values.flags.writeable or norms.flags.writeable or sums.flags.writeable)


class TestVerifyInvariance:
    def test_chisq_under_orthogonal(self):
        rng = spawn_generator(6, 1)
        x = rng.normal(size=12)
        ok = verify_invariance(
            chisq_statistic, lambda r: haar_orthogonal(12, r), x, spawn_generator(2), reps=32
        )
        assert ok

    def test_greenwood_under_spacings_permutation(self):
        d = sample_spacings_null_batch(10, 1, spawn_generator(7, TAG_SPACINGS))[0]
        assert verify_invariance(greenwood, permutation_sampler(11), d, spawn_generator(3), reps=64)
        assert verify_invariance(moran, permutation_sampler(11), d, spawn_generator(3), reps=64)

    def test_np_statistic_not_permutation_invariant(self):
        rng = spawn_generator(7, 1)
        m = rng.normal(size=10)
        x = rng.normal(size=10)
        ok = verify_invariance(
            lambda v: np_statistic(m, v), permutation_sampler(10), x, spawn_generator(4), reps=64
        )
        assert not ok

    def test_callable_group_elements(self):
        # The sample variance is invariant under the shift "group".
        x = np.arange(5.0)
        ok = verify_invariance(
            lambda v: float(np.var(v)),
            lambda rng: (lambda vec: vec + rng.normal()),
            x,
            spawn_generator(5),
            reps=16,
        )
        assert ok


def _shift(rng):
    c = rng.normal()
    return lambda v: v + c


def _affine(rng):
    a, b = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0), rng.normal()
    return lambda v: a * v + b


def _permute_within_table(rng):
    def act(v):
        rows = v[rng.permutation(v.shape[0])]
        return np.take_along_axis(rows, rng.permuted(np.indices(rows.shape)[1], axis=1), axis=1)

    return act


def _permute_whole_table(rng):
    return lambda v: v.ravel()[rng.permutation(v.size)].reshape(v.shape)


def _tilt(rng):
    # d -> d exp(v) / sum(d exp(v)): the additive group acting on the open simplex.
    def act(d):
        e = d * np.exp(rng.normal(size=d.shape))
        return e / e.sum()

    return act


def _np_case(n, gen):
    m = gen.normal(size=n)
    return (
        lambda v: np_statistic(m, v),
        gen.normal(size=n),
        lambda r: haar_orthogonal_fixing_design(m[:, None], r),
        permutation_sampler(n),
    )


def _quadratic_case(n, gen):
    return (
        quadratic_statistic,
        gen.normal(size=n),
        lambda r: haar_orthogonal_fixing_design(_quadratic_grid(n)[0].T, r),
        permutation_sampler(n),
    )


def _spacings_case(statistic, group, other):
    return lambda n, gen: (statistic, sample_spacings_null_batch(n, 1, gen)[0], group(n), other(n))


#: name -> case(n, gen) giving (statistic, data, its documented group, a group
#: it is not invariant under); a group is a sampler ``rng -> element``.
_INVARIANCE_CASES = {
    "np": _np_case,
    "chisq": lambda n, gen: (
        chisq_statistic, gen.normal(size=n), lambda r: haar_orthogonal(n, r), _shift,
    ),
    "variance": lambda n, gen: (
        stats.sample_variance_statistic,
        gen.normal(size=n),
        lambda r: (lambda v, p=r.permutation(n), c=r.normal(): v[p] + c),
        lambda r: haar_orthogonal(n, r),
    ),
    "anova_f": lambda n, gen: (
        anova_f,
        gen.normal(size=(n, 3)),
        lambda r: (lambda v, p=_permute_within_table(r), a=_affine(r): a(p(v))),
        _permute_whole_table,
    ),
    "greenwood": _spacings_case(greenwood, lambda n: permutation_sampler(n + 1), lambda n: _tilt),
    "moran": _spacings_case(moran, lambda n: permutation_sampler(n + 1), lambda n: _tilt),
    "two_spacings_sq": _spacings_case(
        two_spacings_statistic, lambda n: (lambda r: np.arange(n + 1)[::-1]),
        lambda n: permutation_sampler(n + 1),
    ),
    "quadratic": _quadratic_case,
}


@pytest.mark.parametrize("name", sorted(_INVARIANCE_CASES))
class TestInvarianceProperties:
    """``verify_invariance`` agrees with each statistic's documented group."""

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(20, 40), seed=st.integers(0, 2**32 - 1))
    def test_documented_group_passes(self, name, n, seed):
        t, x, group, _ = _INVARIANCE_CASES[name](n, np.random.default_rng(seed))
        assert verify_invariance(t, group, x, spawn_generator(seed), reps=16)

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(20, 40), seed=st.integers(0, 2**32 - 1))
    def test_other_group_fails(self, name, n, seed):
        t, x, _, other = _INVARIANCE_CASES[name](n, np.random.default_rng(seed))
        assert not verify_invariance(t, other, x, spawn_generator(seed), reps=16)
