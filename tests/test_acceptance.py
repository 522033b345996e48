"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test registers a PASS/FAIL line that is printed in the terminal
summary.  Tolerances are fixed here (4 Monte Carlo standard errors for
estimates, 2 standard errors for trend comparisons, the stated runtime
caps); nothing is deferred to later calibration.
"""

import itertools
import time

import numpy as np
import pytest
from scipy import stats as sps

from invlab import experiments, models, orbit, permclt, stats
from invlab.cli import main as cli_main
from invlab.models import MeanVector
from invlab.rng import spawn_generator

from conftest import record_acceptance
from oracles import haar_orthogonal, load_expectations, permutation_sampler, trend_slope

SEED = 20240801


def check(criterion, condition, detail=""):
    record_acceptance(criterion, bool(condition), detail)
    assert condition, f"{criterion} failed: {detail}"


class TestCriterion1ExhaustiveMoments:
    def test_enumeration_matches_formula(self):
        started = time.time()
        rng = spawn_generator(SEED, 1)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 8))
            m = rng.normal(size=n)
            x = rng.normal(size=n)
            vals = np.array([m @ x[list(p)] for p in itertools.permutations(range(n))])
            mean, var = permclt.perm_law_moments(m, x)
            worst = max(worst, abs(vals.mean() - mean), abs(vals.var() - var))
        elapsed = time.time() - started
        check(
            "criterion 01 (exhaustive permutation moments)",
            worst <= 1e-10 and elapsed < 5.0,
            f"max deviation {worst:.2e}, {elapsed:.2f}s",
        )


class TestCriterion2LbarNormalization:
    def test_null_mean_one_for_all_groups(self):
        started = time.time()
        details = []
        ok = True

        # (a) full orthogonal group, normal model, n=200, ||m||=3
        n = 200
        entries = np.zeros(n)
        entries[0] = 3.0
        m = MeanVector(entries, compact_lo=None, compact_hi=None)
        spec = orbit.OrbitSpec(group="full_orthogonal")
        vals = orbit.null_lbar_samples(spec.null_orbit(models.normal_family(), m, SEED + 2), 10_000)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        ok &= abs(vals.mean() - 1.0) <= 4 * se
        details.append(f"orthogonal {vals.mean():.4f}±{se:.4f}")

        # (b) exhaustive permutation group, Poisson family, n=6
        m6 = MeanVector(np.array([0.5, -0.5, 0.3, -0.3, 0.2, -0.2]))
        spec = orbit.OrbitSpec(group="permutation_exhaustive")
        vals = orbit.null_lbar_samples(spec.null_orbit(models.poisson_family(), m6, SEED + 3), 10_000)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        ok &= abs(vals.mean() - 1.0) <= 4 * se
        details.append(f"perm-exhaustive {vals.mean():.4f}±{se:.4f}")

        # (c) group fixing a design, n=100, p=3
        rng = spawn_generator(SEED, 4)
        design = rng.normal(size=(100, 3))
        q, _ = np.linalg.qr(design)
        dev = rng.normal(size=100)
        dev -= q @ (q.T @ dev)
        dev *= 2.0 / np.linalg.norm(dev)
        y = rng.normal(size=(10_000, 100))
        vals = orbit.lbar_design_orthogonal(dev, design, y)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        ok &= abs(vals.mean() - 1.0) <= 4 * se
        details.append(f"design-fixing {vals.mean():.4f}±{se:.4f}")

        elapsed = time.time() - started
        ok &= elapsed < 120.0
        check(
            "criterion 02 (orbit-average normalization)",
            ok,
            "; ".join(details) + f"; {elapsed:.1f}s",
        )


class TestCriterion3IdentityCheck:
    def test_covariance_identity_and_oracle(self):
        n = 20
        entries = np.zeros(n)
        entries[0] = 2.0
        m = MeanVector(entries, compact_lo=None, compact_hi=None)
        crit = sps.chi2.ppf(0.95, df=n)
        threshold_test = lambda x: (stats.chisq_statistic(x) > crit).astype(float)
        res = orbit.identity_check(
            models.normal_family(), m, threshold_test,
            orbit.OrbitSpec(group="full_orthogonal"), reps=20_000, seed=SEED + 5,
        )
        oracle = sps.ncx2.sf(crit, df=n, nc=4.0)
        ok = res.agrees and abs(res.lhs - oracle) <= 4 * res.lhs_se
        check(
            "criterion 03 (Eq. 2 identity)",
            ok,
            f"lhs {res.lhs:.4f} rhs {res.rhs:.4f} (se {res.se:.4f}), "
            f"noncentral oracle {oracle:.4f}",
        )


class TestCriterion4Theorem1:
    def test_desk_scale_reproduction(self):
        level = 0.05
        rows = experiments.theorem1_sweep(
            3.0, (100, 10_000), reps=10_000, seed=SEED + 6, level=level, lbar_reps=10_000
        )
        ok = True
        details = []
        for row in rows:
            crit = sps.chi2.ppf(1 - level, row["n"])
            oracle_gap = sps.ncx2.sf(crit, row["n"], 9.0) - level
            ok &= abs(row["chisq_gap"] - oracle_gap) <= 4 * row["chisq_gap_se"]
            ok &= row["chisq_gap"] <= row["lbar_bound"] + 4 * (row["chisq_gap_se"] + row["lbar_bound_se"])
            details.append(f"n={row['n']} gap {row['chisq_gap']:.4f} (oracle {oracle_gap:.4f})")
        ok &= rows[1]["chisq_gap"] < rows[0]["chisq_gap"]

        # NP power: n-free and equal to the normal-shift oracle.
        np_oracle = sps.norm.sf(sps.norm.ppf(1 - level) - 3.0)
        z = sps.norm.ppf(1 - level)
        crit_se = np.sqrt(level * (1 - level) / 20_000) / sps.norm.pdf(z)
        shift_se = sps.norm.pdf(z - 3.0) * crit_se  # calibration error carried into power
        for row in rows:
            se = np.hypot(row["np_power_se"], shift_se)
            ok &= abs(row["np_power"] - np_oracle) <= 4 * se
        ok &= abs(rows[0]["np_power"] - rows[1]["np_power"]) <= 4 * np.hypot(
            rows[0]["np_power_se"], rows[1]["np_power_se"]
        )
        details.append(f"np {rows[0]['np_power']:.4f}/{rows[1]['np_power']:.4f} (oracle {np_oracle:.4f})")
        check("criterion 04 (Theorem 1 desk scale)", ok, "; ".join(details))


class TestCriterion5ConvergenceSweeps:
    def test_rho2_columns_decrease(self):
        started = time.time()
        n_grid = (50, 500, 5000)
        reps = 10_000

        def spike(n):
            m = np.zeros(n)
            m[0] = 1.0
            m -= m.mean()
            return m / np.linalg.norm(m)

        def smooth(n):
            grid = np.arange(1, n + 1) / n
            m = np.sqrt(2.0) * np.cos(2.0 * np.pi * grid)
            m -= m.mean()
            return m / np.linalg.norm(m)

        ok = True
        details = []
        for (mname, model), (pname, builder) in itertools.product(
            (
                ("normal", experiments.normal_means_model()),
                ("poisson", experiments.FamilyModel(models.poisson_family())),
            ),
            (("spike", spike), ("smooth", smooth)),
        ):
            rows = permclt.theorem_convergence_sweep(
                model, builder, n_grid, reps, seed=SEED + 7
            )
            for prev, cur in zip(rows, rows[1:]):
                for col, se_col in (
                    ("rho2_perm_boot", "se_rho2_perm_boot"),
                    ("rho2_boot_iid", "se_rho2_boot_iid"),
                    ("rho2_perm_iid", "se_rho2_perm_iid"),
                ):
                    decrease = prev[col] - cur[col]
                    ok &= decrease >= -2 * (prev[se_col] + cur[se_col])
            details.append(
                f"{mname}/{pname} perm-iid "
                + "->".join(f"{r['rho2_perm_iid']:.3f}" for r in rows)
            )
        elapsed = time.time() - started
        ok &= elapsed < 180.0
        check(
            "criterion 05 (Theorem 3/4 sweeps)",
            ok,
            "; ".join(details) + f"; {elapsed:.1f}s",
        )


class TestCriterion6Coupling:
    def test_bound_and_cf_inequality(self):
        ok = True
        details = []
        for gi, n in enumerate((100, 1000, 10_000)):
            rng = spawn_generator(SEED, 8, gi)
            x = rng.normal(size=n)
            m = rng.normal(size=n)
            m -= m.mean()
            m /= np.linalg.norm(m)
            res = permclt.hajek_coupling(m, x, 2000, seed=SEED + 9)
            ok &= res.bound_holds
            for t in (0.5, 1.0, 2.0):
                ok &= permclt.cf_inequality_check(res.without_repl, res.with_repl, t)
            details.append(f"n={n} gap2 {res.gap_sq_mean:.4f} <= bound {res.bound:.4f}")
        check("criterion 06 (coupling bound, Eq. 7/8)", ok, "; ".join(details))


class TestCriterion7NeymanScott:
    def test_f_gap_against_noncentral_oracle(self):
        nu, delta, sigma = 5, 3.0, 1.0
        rows = experiments.neyman_scott_sweep(
            (100, 1000), nu=nu, delta=delta, reps=10_000, seed=SEED + 10, sigma=sigma
        )
        ncp = nu * delta**2 / sigma**2  # oracle-computed noncentrality (45)
        ok = ncp == pytest.approx(45.0)
        details = [f"ncp={ncp:g}"]
        for row in rows:
            crit = sps.f.ppf(0.95, row["n"] - 1, row["n"] * (nu - 1))
            oracle = sps.ncf.sf(crit, row["n"] - 1, row["n"] * (nu - 1), ncp) - 0.05
            ok &= abs(row["f_gap"] - oracle) <= 4 * row["f_gap_se"]
            details.append(f"n={row['n']} gap {row['f_gap']:.4f} (oracle {oracle:.4f})")
        ok &= rows[1]["f_gap"] < rows[0]["f_gap"]
        check("criterion 07 (Neyman-Scott ANOVA collapse)", ok, "; ".join(details))


class TestCriterion8Spacings:
    def test_theorem9_sweep(self):
        h = models.cosine_profile({1: 2.0})  # 2 sqrt(2) cos(2 pi x)
        rows = experiments.spacings_sweep(
            h, (100, 400, 1600), reps=10_000, seed=SEED + 11
        )
        ok = True
        for prev, cur in zip(rows, rows[1:]):
            ok &= cur["greenwood_gap"] <= prev["greenwood_gap"] + 2 * (
                prev["greenwood_gap_se"] + cur["greenwood_gap_se"]
            )
            ok &= cur["moran_gap"] <= prev["moran_gap"] + 2 * (
                prev["moran_gap_se"] + cur["moran_gap_se"]
            )
        floor = load_expectations()["spacings_quadratic_gap_floor"]
        ok &= all(row["quadratic_gap"] > floor for row in rows)
        slope, slope_se = trend_slope(
            [np.log(r["n"]) for r in rows],
            [r["llr_gap_p95"] for r in rows],
            [r["llr_gap_p95_se"] for r in rows],
        )
        ok &= slope <= 2 * slope_se
        detail = (
            "greenwood " + "->".join(f"{r['greenwood_gap']:.3f}" for r in rows)
            + "; moran " + "->".join(f"{r['moran_gap']:.3f}" for r in rows)
            + f"; quad min {min(r['quadratic_gap'] for r in rows):.3f} > {floor}"
            + f"; llr-gap slope {slope:.3f}±{slope_se:.3f}"
        )
        check("criterion 08 (spacings, Theorem 9)", ok, detail)


class TestCriterion9InvarianceSuite:
    def test_pass_fail_pattern(self):
        rng = spawn_generator(SEED, 12)
        ok = True

        # chisq invariant under the orthogonal group
        x = rng.normal(size=15)
        ok &= stats.verify_invariance(
            stats.chisq_statistic, lambda r: haar_orthogonal(15, r), x, 32, seed=1
        )

        # ANOVA F invariant under row permutation, shift, and scale
        table = rng.normal(size=(8, 4))
        flat_stat = lambda v: stats.anova_f(v.reshape(8, 4))
        flat = table.ravel()
        ok &= stats.verify_invariance(
            flat_stat,
            lambda r: (lambda v: v.reshape(8, 4)[r.permutation(8)].ravel()),
            flat, 32, seed=2,
        )
        ok &= stats.verify_invariance(
            flat_stat, lambda r: (lambda v: v + r.normal()), flat, 32, seed=3
        )
        ok &= stats.verify_invariance(
            flat_stat,
            lambda r: (lambda v: v * float(np.exp(r.normal()))),
            flat, 32, seed=4,
        )

        # Greenwood and Moran invariant under permutations of the spacings
        d = models.sample_spacings_null_batch(10, 1, SEED + 13)[0]
        ok &= stats.verify_invariance(stats.greenwood, permutation_sampler(11), d, 64, seed=5)
        ok &= stats.verify_invariance(stats.moran, permutation_sampler(11), d, 64, seed=6)

        # NP statistic NOT permutation invariant
        m = rng.normal(size=12)
        xv = rng.normal(size=12)
        ok &= not stats.verify_invariance(
            lambda v: stats.np_statistic(m, v), permutation_sampler(12), xv, 64, seed=7
        )

        # 2-spacings statistic NOT invariant under spacings permutation
        ok &= not stats.verify_invariance(
            stats.two_spacings_statistic, permutation_sampler(11), d, 64, seed=8
        )

        check("criterion 09 (invariance pass/fail suite)", ok)


class TestCriterion10Determinism:
    def test_cli_byte_identical(self, tmp_path):
        ok = True
        power_args = [
            "power", "--model", "normal", "--stat", "chisq", "--alt", "spike:2",
            "--n", "60", "--reps", "1500", "--seed", "17",
        ]
        paths = [tmp_path / f"p{i}.csv" for i in range(3)]
        assert cli_main([*power_args, "--out", str(paths[0]), "--workers", "1"]) == 0
        assert cli_main([*power_args, "--out", str(paths[1]), "--workers", "1"]) == 0
        assert cli_main([*power_args, "--out", str(paths[2]), "--workers", "8"]) == 0
        ok &= paths[0].read_bytes() == paths[1].read_bytes()
        ok &= paths[0].read_bytes() == paths[2].read_bytes()

        lbar_args = [
            "lbar", "--group", "permutation_exhaustive", "--model", "poisson",
            "--n", "6", "--reps", "2000", "--seed", "5",
        ]
        la, lb = tmp_path / "la.csv", tmp_path / "lb.csv"
        assert cli_main([*lbar_args, "--out", str(la)]) == 0
        assert cli_main([*lbar_args, "--out", str(lb)]) == 0
        ok &= la.read_bytes() == lb.read_bytes()
        check("criterion 10 (determinism)", ok)
