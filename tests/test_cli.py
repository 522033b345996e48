"""Tests for the command-line front end."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invlab import models
from invlab.cli import (
    ConfigError,
    config_hash,
    main,
    parse_alternative,
    read_config_file,
    render_table,
)
from invlab.rng import row_chunks


def run(tmp_path, *argv):
    out = tmp_path / "out.dat"
    code = main([*argv, "--out", str(out)])
    return code, out


def _drop_columns(table: bytes, names: set[str]) -> bytes:
    """A CSV table without the named columns, written back with the same dialect."""
    rows = list(csv.reader(io.StringIO(table.decode(), newline="")))
    keep = [i for i, name in enumerate(rows[0]) if name not in names]
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([[row[i] for i in keep] for row in rows])
    return buf.getvalue().encode()


class TestPower:
    def test_schema_and_exit_code(self, tmp_path):
        code, out = run(
            tmp_path,
            "power", "--model", "normal", "--stat", "chisq", "--alt", "spike:3",
            "--n", "100", "--reps", "1000", "--seed", "7",
        )
        assert code == 0
        with out.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "n", "stat", "critical", "level_hat", "level_se",
            "power_hat", "power_se", "reps", "seed", "config_hash",
        ]
        assert rows[1][0] == "100" and rows[1][1] == "chisq" and rows[1][7:9] == ["1000", "7"]
        meta = json.loads((tmp_path / "out.dat.meta.json").read_text())
        assert rows[1][9] == meta["config_hash"]
        assert meta["config"]["reps"] == 1000
        assert meta["version"]

    def test_stdout_when_no_out(self, capsys):
        code = main(
            ["power", "--model", "normal", "--stat", "chisq", "--alt", "null",
             "--n", "20", "--reps", "500", "--seed", "1"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("n,stat,critical")

    def test_np_at_null_has_power_equal_to_level(self, tmp_path):
        code, out = run(
            tmp_path,
            "power", "--model", "normal", "--stat", "np", "--alt", "null",
            "--n", "50", "--reps", "4000", "--seed", "2",
        )
        assert code == 0
        with out.open(newline="") as fh:
            row = next(csv.DictReader(fh))
        gap = float(row["power_hat"]) - float(row["level_hat"])
        assert abs(gap) <= 4 * np.hypot(float(row["level_se"]), float(row["power_se"]))


class TestDeterminism:
    SPACINGS_ARGS = ["sweep-spacings", "--n-grid", "100,400", "--reps", "1024", "--seed", "3"]
    ARGS = [
        "power", "--model", "poisson", "--stat", "variance", "--alt", "spike:1",
        "--n", "40", "--reps", "1500", "--seed", "21",
    ]

    def test_same_seed_byte_identical(self, tmp_path):
        _, a = run(tmp_path / "a" if False else tmp_path, *self.ARGS)
        first = a.read_bytes()
        _, b = run(tmp_path, *self.ARGS)
        assert first == b.read_bytes()

    def test_worker_counts_byte_identical(self, tmp_path):
        _, a = run(tmp_path, *self.ARGS, "--workers", "1")
        first = a.read_bytes()
        _, b = run(tmp_path, *self.ARGS, "--workers", "8")
        assert first == b.read_bytes()

    @pytest.mark.parametrize("model", ["poisson", "bernoulli", "normal"])
    def test_spike_clt_sweep_worker_counts_byte_identical(self, tmp_path, model):
        # Spike contrasts take the reduced permutation and iid laws; n = 2 has two singleton levels.
        # The bootstrap takes the value-count route where k^2 <= n (poisson and bernoulli at
        # n >= 50) and the vector route elsewhere (n = 2, normal data).
        args = ["clt-sweep", "--model", model, "--alt", "spike:1", "--n-grid", "2,50,5000",
                "--reps", "2500", "--seed", "23"]
        _, a = run(tmp_path, *args, "--workers", "1")
        first = a.read_bytes()
        _, b = run(tmp_path, *args, "--workers", "2")
        assert first == b.read_bytes()

    def test_spacings_sweep_worker_counts_byte_identical(self, tmp_path):
        # 1100 replicates: a partial block; n = 1600 reads 26 row chunks per block.
        args = ["sweep-spacings", "--n-grid", "100,1600", "--reps", "1100", "--seed", "24"]
        _, a = run(tmp_path, *args, "--workers", "1")
        first = a.read_bytes()
        _, b = run(tmp_path, *args, "--workers", "2")
        assert first == b.read_bytes()

    @pytest.mark.parametrize(
        "args",
        [
            ["sweep-theorem1", "--delta", "3", "--n-grid", "30,200", "--lbar-reps", "300"],
            ["sweep-theorem2", "--delta", "1.5", "--n-grid", "20,300"],
            ["sweep-neyman-scott", "--nu", "3", "--delta", "2", "--n-grid", "30,200"],
            ["sweep-neyman-scott", "--matrix", "--delta", "2", "--n-grid", "30,200"],
        ],
        ids=["theorem1", "theorem2", "neyman-scott", "neyman-scott-matrix"],
    )
    def test_sweep_worker_counts_byte_identical(self, tmp_path, args):
        # 1100 replicates: a partial block in every pass of every cell's plan.
        args = [*args, "--reps", "1100", "--seed", "25"]
        code, a = run(tmp_path, *args, "--workers", "1")
        assert code == 0
        first = a.read_bytes()
        code, b = run(tmp_path, *args, "--workers", "2")
        assert code == 0
        assert first == b.read_bytes()

    @pytest.mark.skipif(np.__version__.split(".")[0] != "2", reason="table recorded on numpy 2.x")
    def test_spacings_sweep_table_pinned(self, tmp_path):
        # Without its llr columns, the table written before null blocks were
        # drawn in row chunks; the llr columns read the level replicates since
        # the one-plan sweep, and the full table is pinned from then.
        code, out = run(tmp_path, *self.SPACINGS_ARGS)
        assert code == 0
        table = out.read_bytes()
        without_llr = _drop_columns(table, {"llr_gap_p95", "llr_gap_p95_se"})
        assert hashlib.sha256(without_llr).hexdigest() == (
            "8769ef706916c9031ef563a4f7c5ec3c34c9c84f6dc7e861afb189975d2d61d2"
        )
        assert hashlib.sha256(table).hexdigest() == (
            "13011718a00d372634f31ed836d9f7affad4b22dc8dd899c74040f25886893ad"
        )

    def test_spacings_sweep_null_draws_are_chunks_that_add_up(self, tmp_path, monkeypatch):
        # Every null spacing the sweep reads passes through one sampler call of
        # at most one row chunk, so a wrapper on the sampler sees the full draw.
        calls = []
        original = models.sample_spacings_null_batch

        def counted(n, reps, seed):
            out = original(n, reps, seed)
            calls.append((n, *out.shape))
            return out

        monkeypatch.setattr(models, "sample_spacings_null_batch", counted)
        code, _ = run(tmp_path, *self.SPACINGS_ARGS)
        assert code == 0
        reps, grid = 1024, (100, 400)
        # Calibration (max(2 reps, 1000)) and level (reps); the LLR diagnostic reads the level draws.
        per_n = 2 * reps + reps
        assert sum(rows * width for _, rows, width in calls) == sum(per_n * (n + 1) for n in grid)
        assert all(width == n + 1 and rows <= row_chunks(reps, n + 1)[0] for n, rows, width in calls)
        assert {n for n, _, _ in calls} == set(grid)

    def test_different_seed_differs(self, tmp_path):
        _, a = run(tmp_path, *self.ARGS)
        first = a.read_bytes()
        _, b = run(tmp_path, *self.ARGS[:-1], "22")
        assert first != b.read_bytes()


class TestAlternativesResolveOnce:
    """Each n's alternative becomes parameters once, as does its null point.

    Counted the way ``TestTheorem2Sweep`` counts a sweep's calls of
    ``AlternativeSpec.mean_entries``.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        from invlab.experiments import AlternativeSpec

        found = []
        mean_entries = AlternativeSpec.mean_entries

        def counted(alt, n, seed):
            found.append(n)
            return mean_entries(alt, n, seed)

        monkeypatch.setattr(AlternativeSpec, "mean_entries", counted)
        return found

    def test_power_builds_np_from_the_point_it_tests(self, tmp_path, calls):
        code, _ = run(
            tmp_path, "power", "--model", "normal", "--stat", "np", "--alt", "spike:3",
            "--n", "20,40", "--reps", "256",
        )
        assert code == 0
        assert len(calls) == 4

    def test_clt_sweep_builds_each_contrast_once(self, tmp_path, calls):
        code, _ = run(tmp_path, "clt-sweep", "--model", "poisson", "--n-grid", "20,50", "--reps", "64")
        assert code == 0
        assert len(calls) == 4


class TestSubcommands:
    def test_lbar_exhaustive(self, tmp_path):
        code, out = run(
            tmp_path,
            "lbar", "--group", "permutation_exhaustive", "--model", "poisson",
            "--n", "6", "--reps", "2000", "--seed", "3",
        )
        assert code == 0
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        e0 = float(rows[0]["e0_lbar"])
        se = float(rows[0]["se_e0_lbar"])
        assert abs(e0 - 1.0) < 4 * se

    def test_lbar_spike_permutation_average_is_exact(self, tmp_path):
        # A spike's permutation average is the mean over its n orbit points,
        # so --mc-reps changes nothing in its table but the config hash.
        tables = []
        for mc_reps in ("1", "2000"):
            code, out = run(
                tmp_path, "lbar", "--group", "permutation", "--model", "poisson", "--alt", "spike:1",
                "--n", "6,50", "--reps", "500", "--mc-reps", mc_reps, "--seed", "4",
            )
            assert code == 0
            with out.open(newline="") as fh:
                tables.append(list(csv.DictReader(fh)))
        for one, many in zip(*tables):
            assert one.pop("config_hash") != many.pop("config_hash")
            assert one == many

    def test_lbar_orthogonal_bound_rate_at_large_n(self, tmp_path):
        # sqrt(n) E_0 |Lbar - 1| -> delta^2 / sqrt(pi) for ||m|| = delta, here
        # at n = 1e6, where log H sums series terms of arguments near 3000.
        code, out = run(
            tmp_path,
            "lbar", "--group", "full_orthogonal", "--model", "normal", "--alt", "spike:3",
            "--n", "1000000", "--reps", "20000", "--seed", "5",
        )
        assert code == 0
        with out.open(newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        scale = np.sqrt(float(row["n"]))
        rate, rate_se = scale * float(row["abs_dev_bound"]), scale * float(row["se_abs_dev_bound"])
        assert abs(rate - 9.0 / np.sqrt(np.pi)) < 4 * rate_se

    def test_clt_sweep_json_schema(self, tmp_path):
        code, out = run(
            tmp_path,
            "clt-sweep", "--n-grid", "50,500", "--reps", "1000", "--seed", "4",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert {"n", "rho2_perm_boot", "rho2_boot_iid", "rho2_perm_iid", "diag_nmx"} <= set(
            payload[0]
        )
        assert any(k.startswith("se_") for k in payload[0])

    def test_coupling_table(self, tmp_path):
        code, out = run(
            tmp_path, "coupling", "--n-grid", "100", "--reps", "400", "--seed", "5"
        )
        assert code == 0
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["bound_holds"] == "true"
        assert rows[0]["cf_ok_t1"] == "true"

    def test_neyman_scott_and_matrix(self, tmp_path):
        code, out = run(
            tmp_path,
            "sweep-neyman-scott", "--n-grid", "30", "--nu", "3", "--delta", "1.0",
            "--reps", "500", "--seed", "6",
        )
        assert code == 0
        assert "f_gap" in out.read_text()
        code, out = run(
            tmp_path,
            "sweep-neyman-scott", "--matrix", "--n-grid", "30", "--delta", "1.0",
            "--reps", "500", "--seed", "6",
        )
        assert code == 0
        assert "wilks_gap" in out.read_text()


#: Every table's columns, in order.
_HEADERS = {
    "power": [
        "n", "stat", "critical", "level_hat", "level_se", "power_hat", "power_se", "reps", "seed",
        "config_hash",
    ],
    "sweep-theorem1": [
        "n", "chisq_gap", "chisq_gap_se", "np_power", "np_power_se", "lbar_bound", "lbar_bound_se",
        "m_norm", "reps", "seed", "config_hash",
    ],
    "sweep-theorem2": [
        "n", "invariant_gap", "invariant_gap_se", "quadratic_gap", "quadratic_gap_se",
        "centered_norm", "max_dev", "reps", "seed", "config_hash",
    ],
    "sweep-neyman-scott": [
        "n", "nu", "f_gap", "f_gap_se", "cellmean_chisq_gap", "cellmean_chisq_gap_se",
        "centered_norm", "max_dev", "reps", "seed", "config_hash",
    ],
    "sweep-neyman-scott --matrix": ["n", "wilks_gap", "wilks_gap_se", "reps", "seed", "config_hash"],
    "sweep-spacings": [
        "n", "greenwood_gap", "greenwood_gap_se", "moran_gap", "moran_gap_se", "two_spacings_gap",
        "two_spacings_gap_se", "quadratic_gap", "quadratic_gap_se", "llr_gap_p95", "llr_gap_p95_se",
        "reps", "seed", "config_hash",
    ],
    "lbar": [
        "group", "model", "n", "e0_lbar", "se_e0_lbar", "abs_dev_bound", "se_abs_dev_bound",
        "var_lbar", "var_diag", "reps", "seed", "config_hash",
    ],
    "clt-sweep": [
        "n", "rho2_perm_boot", "se_rho2_perm_boot", "rho2_boot_iid", "se_rho2_boot_iid",
        "rho2_perm_iid", "se_rho2_perm_iid", "diag_nmx", "reps", "seed", "config_hash",
    ],
    "coupling": [
        "n", "gap_sq_mean", "gap_sq_se", "bound", "bound_holds", "matched_mean", "cf_ok_t0.5",
        "cf_ok_t1", "cf_ok_t2", "reps", "seed", "config_hash",
    ],
}

#: A small run of every subcommand and of each of its table kinds, keyed by its header in _HEADERS.
_SMALL_RUNS = [
    ("power", "power --model normal --stat chisq --alt spike:3 --n 30 --reps 200"),
    ("power", "power --model spacings --stat quadratic_spacings --alt h:cos1:2 --n 30 --reps 200"),
    ("power", "power --model neyman_scott --stat anova_f --alt spike:2 --n 20 --reps 200"),
    ("sweep-theorem1", "sweep-theorem1 --n-grid 20 --reps 200 --lbar-reps 100"),
    ("sweep-theorem2", "sweep-theorem2 --model normal --n-grid 20 --reps 200"),
    ("sweep-theorem2", "sweep-theorem2 --model poisson --n-grid 20 --reps 200"),
    ("sweep-neyman-scott", "sweep-neyman-scott --n-grid 20 --reps 200"),
    ("sweep-neyman-scott --matrix", "sweep-neyman-scott --matrix --n-grid 20 --reps 200"),
    ("sweep-spacings", "sweep-spacings --n-grid 30 --reps 200 --workers 2"),
    ("lbar", "lbar --group permutation_exhaustive --n 6 --reps 100"),
    ("lbar", "lbar --group permutation --model poisson --n 20 --reps 100 --mc-reps 200"),
    ("lbar", "lbar --group full_orthogonal --model normal --n 20 --reps 100"),
    ("lbar", "lbar --group orthogonal_fixing_design --model normal --n 20 --reps 100"),
    ("clt-sweep", "clt-sweep --model poisson --alt spike:1 --n-grid 20 --reps 100"),
    ("clt-sweep", "clt-sweep --model normal --alt smooth:1 --n-grid 20 --reps 100"),
    ("coupling", "coupling --n-grid 20 --reps 100"),
]


@pytest.mark.parametrize("table, argv", _SMALL_RUNS, ids=[argv for _, argv in _SMALL_RUNS])
class TestEveryTable:
    def test_header_is_pinned(self, tmp_path, table, argv):
        code, out = run(tmp_path, *argv.split())
        assert code == 0
        with out.open(newline="") as fh:
            assert next(csv.reader(fh)) == _HEADERS[table]
        meta = json.loads((tmp_path / "out.dat.meta.json").read_text())
        assert meta["columns"] == _HEADERS[table]

    def test_runs_with_warnings_as_errors(self, tmp_path, table, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run(tmp_path, *argv.split())
        assert code == 0


class TestConfigHandling:
    def test_config_file_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n[run]\nmodel = normal\nstat = chisq\nalt = null\nn_grid = 25\nreps = 400\nseed = 9\n")
        out = tmp_path / "o.csv"
        code = main(["power", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["n"] == "25" and rows[0]["seed"] == "9"
        # flag overrides the file
        out2 = tmp_path / "o2.csv"
        code = main(["power", "--config", str(cfg), "--seed", "10", "--out", str(out2)])
        assert code == 0
        with out2.open(newline="") as fh:
            rows2 = list(csv.DictReader(fh))
        assert rows2[0]["seed"] == "10"

    def test_unknown_config_key_is_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        assert main(["power", "--config", str(cfg)]) == 2

    def test_malformed_line_reports_position(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model normal\n")
        with pytest.raises(ConfigError, match="bad.cfg:1"):
            read_config_file(str(cfg))

    def test_env_seed_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("INVLAB_SEED", "123")
        code = main(
            ["power", "--model", "normal", "--stat", "chisq", "--alt", "null",
             "--n", "10", "--reps", "400"]
        )
        assert code == 0
        assert ",123" in capsys.readouterr().out

    def test_exit_code_2_on_bad_args(self):
        assert main(["power", "--model", "bogus"]) == 2
        assert main(["power", "--level", "2.0", "--model", "normal"]) == 2
        assert main(["nonexistent-subcommand"]) == 2

    def test_exit_code_3_on_an_infinite_cell(self, tmp_path, capsys):
        # var_diag = expm1(c^2 (1 - 1/n)) / n + ... overflows at a spike of norm 40.
        code, out = run(
            tmp_path, "lbar", "--group", "permutation", "--model", "normal", "--alt", "spike:40",
            "--n", "50", "--reps", "256",
        )
        assert code == 3
        assert "column var_diag is inf" in capsys.readouterr().err
        assert not out.exists()

    def test_exit_code_3_prints_only_its_message(self, tmp_path):
        # A fresh interpreter, so that stderr is exactly what a shell would show.
        argv = ["lbar", "--group", "permutation", "--model", "normal", "--alt", "spike:40",
                "--n", "50", "--reps", "256", "--out", str(tmp_path / "out.csv")]
        script = "import sys; from invlab.cli import main; sys.exit(main(sys.argv[1:]))"
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 3
        (line,) = proc.stderr.splitlines()
        assert line.startswith("invlab: error: column var_diag is inf")

    def test_exit_code_3_on_unwritable_output(self, tmp_path):
        code = main(
            ["power", "--model", "normal", "--stat", "chisq", "--alt", "null",
             "--n", "10", "--reps", "400", "--out", "/nonexistent-dir/x.csv"]
        )
        assert code == 3


class TestIncompatibleConfigurations:
    """Model, statistic and alternative mismatches exit 2 before any sampling."""

    @pytest.mark.parametrize(
        "args",
        [
            ["--model", "spacings", "--stat", "greenwood", "--alt", "spike:3"],
            ["--model", "normal", "--stat", "greenwood", "--alt", "spike:3"],
            ["--model", "poisson", "--stat", "variance", "--alt", "spike:3"],
            ["--model", "spacings", "--stat", "greenwood", "--alt", "h:cos1:10"],
            ["--model", "neyman_scott", "--stat", "anova_f", "--nu", "1"],
            ["--model", "normal", "--stat", "variance", "--alt", "null", "--n", "1"],
            ["--model", "spacings", "--stat", "two_spacings_sq", "--alt", "null", "--n", "1"],
        ],
        ids=["spacings-spike", "normal-greenwood", "poisson-outside-box",
             "spacings-sup-h", "neyman-scott-nu-1", "variance-n-1", "two-spacings-n-1"],
    )
    def test_exit_2_before_sampling(self, tmp_path, monkeypatch, args):
        from invlab import experiments

        def no_sampling(*_args, **_kwargs):
            raise RuntimeError("sampled an incompatible configuration")

        monkeypatch.setattr(experiments, "estimate_power", no_sampling)
        code, out = run(tmp_path, "power", "--n", "100", *args, "--reps", "500", "--seed", "1")
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("model", ["normal", "poisson"])
    def test_np_at_the_null_names_its_direction(self, tmp_path, monkeypatch, capsys, model):
        # At the null np projects on the unit-scale spike, which centering zeroes at n = 1.
        from invlab import experiments

        def no_sampling(*_args, **_kwargs):
            raise RuntimeError("sampled an incompatible configuration")

        monkeypatch.setattr(experiments, "estimate_power", no_sampling)
        code, out = run(tmp_path, "power", "--model", model, "--stat", "np", "--alt", "null", "--n", "1")
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"the {model} model at n = 1: np at the null projects on the unit-scale direction" in err
        assert "alternative" not in err

    @pytest.mark.parametrize(
        "args",
        [
            ["sweep-spacings", "--alt", "h:cos1:20", "--n-grid", "50"],
            ["sweep-spacings", "--alt", "h:cos1:2", "--n-grid", "400,2"],
            ["sweep-neyman-scott", "--nu", "1", "--n-grid", "30"],
            ["sweep-theorem2", "--delta", "3", "--n-grid", "50"],
            ["sweep-theorem2", "--delta", "2.05", "--n-grid", "2,50"],
        ],
        ids=["spacings-sup-h", "spacings-sup-h-late-n", "neyman-scott-nu-1",
             "theorem2-outside-box", "theorem2-outside-box-late-n"],
    )
    def test_sweeps_exit_2_before_sampling(self, tmp_path, monkeypatch, args):
        from invlab import experiments

        def no_sampling(*_args, **_kwargs):
            raise RuntimeError("sampled an incompatible configuration")

        monkeypatch.setattr(experiments, "_sweep_cells", no_sampling)
        code, out = run(tmp_path, *args, "--reps", "500", "--seed", "1")
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("alt", ["smooth:1.5", "spike:3", "signs:2", "null"])
    def test_sweep_spacings_takes_only_a_density_perturbation(self, tmp_path, monkeypatch, capsys, alt):
        from invlab import rng

        def no_sampling(*_args, **_kwargs):
            raise RuntimeError("sampled an incompatible configuration")

        monkeypatch.setattr(rng, "map_blocks", no_sampling)
        code, out = run(tmp_path, "sweep-spacings", "--alt", alt, "--n-grid", "50", "--reps", "500", "--seed", "3")
        assert code == 2
        assert not out.exists()
        assert "density perturbation h" in capsys.readouterr().err

    def test_lbar_design_with_as_many_columns_as_rows(self, tmp_path, monkeypatch, capsys):
        from invlab import rng

        def no_sampling(*_args, **_kwargs):
            raise RuntimeError("sampled an incompatible configuration")

        monkeypatch.setattr(rng, "map_blocks", no_sampling)
        code, out = run(tmp_path, "lbar", "--group", "orthogonal_fixing_design", "--n", "5", "--design-p", "5")
        assert code == 2
        assert not out.exists()
        assert "n - p >= 3" in capsys.readouterr().err

    @pytest.mark.parametrize("group", ["full_orthogonal", "orthogonal_fixing_design"])
    def test_lbar_orthogonal_groups_need_the_normal_model(self, tmp_path, monkeypatch, group):
        from invlab import rng

        def no_sampling(*_args, **_kwargs):
            raise RuntimeError("sampled an incompatible configuration")

        monkeypatch.setattr(rng, "map_blocks", no_sampling)
        code, out = run(
            tmp_path, "lbar", "--group", group, "--model", "poisson", "--n", "50", "--reps", "200", "--seed", "1"
        )
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            *(["sweep-theorem1", "--delta", d, "--n-grid", "100"] for d in ("1e150", "1e160", "1e300")),
            *(["lbar", "--group", g, "--model", "normal", "--alt", a, "--n", "100"]
              for g in ("full_orthogonal", "orthogonal_fixing_design") for a in ("spike:1e150", "spike:1e300")),
        ],
    )
    def test_radial_alternatives_past_the_log_h_limit(self, tmp_path, monkeypatch, capsys, argv):
        # Sizing the series takes ~t/2 Python steps (unending at 1e150), and ||m||^2 overflows past ~1e154.
        from invlab import rng

        def no_sampling(*_args, **_kwargs):
            raise RuntimeError("sampled an incompatible configuration")

        monkeypatch.setattr(rng, "map_blocks", no_sampling)
        code, out = run(tmp_path, *argv, "--reps", "64", "--seed", "1")
        assert code == 2
        assert not out.exists()
        assert "is past the log H limit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-theorem1", "--delta", "1e160", "--n-grid", "20", "--reps", "64"],
            ["lbar", "--group", "full_orthogonal", "--alt", "spike:1e160"],
        ],
    )
    def test_a_norm_whose_square_overflows_is_named(self, tmp_path, argv):
        # A fresh interpreter, so that stderr is exactly what a shell would show.
        script = "import sys; from invlab.cli import main; sys.exit(main(sys.argv[1:]))"
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", script, *argv, "--out", str(tmp_path / "out.csv")],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 2
        assert "RuntimeWarning" not in proc.stderr
        (line,) = proc.stderr.splitlines()
        assert "||m|| = 1e+160 is past the log H limit" in line

    @pytest.mark.parametrize("model", ["poisson", "bernoulli"])
    def test_lbar_keeps_the_family_in_its_compact_box(self, tmp_path, monkeypatch, model):
        from invlab import rng

        def no_sampling(*_args, **_kwargs):
            raise RuntimeError("sampled an incompatible configuration")

        monkeypatch.setattr(rng, "map_blocks", no_sampling)
        code, out = run(
            tmp_path, "lbar", "--group", "permutation", "--model", model, "--alt", "spike:10",
            "--n", "50", "--reps", "64", "--seed", "1",
        )
        assert code == 2
        assert not out.exists()

    def test_lbar_normal_model_has_no_box(self, tmp_path):
        code, _ = run(
            tmp_path, "lbar", "--group", "permutation", "--model", "normal", "--alt", "spike:10",
            "--n", "50", "--reps", "64", "--seed", "1",
        )
        assert code == 0

    def test_theorem2_runs_at_its_default_delta(self, tmp_path):
        from invlab import cli

        cfg = cli.build_config(cli._build_parser().parse_args(["sweep-theorem2"]))
        assert cfg["delta"] == 1.5
        code, out = run(tmp_path, "sweep-theorem2", "--n-grid", "50", "--reps", "100", "--seed", "1")
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert float(rows[0]["centered_norm"]) == pytest.approx(1.5)

    def test_sweeps_honour_calib_reps(self, tmp_path):
        def table(*config_lines):
            cfg = tmp_path / "sweep.cfg"
            cfg.write_text("".join(line + "\n" for line in config_lines))
            code, out = run(tmp_path, "sweep-theorem2", "--n-grid", "30", "--reps", "200",
                            "--seed", "3", "--config", str(cfg))
            assert code == 0
            return [{k: v for k, v in row.items() if k != "config_hash"}
                    for row in csv.DictReader(out.open())]

        unset = table()
        assert table("calib_reps = 1000") == unset  # max(2 reps, 1000), the default
        from_file = table("calib_reps = 400")
        assert from_file != unset
        code, out = run(tmp_path, "sweep-theorem2", "--n-grid", "30", "--reps", "200",
                        "--seed", "3", "--calib-reps", "400")
        assert code == 0
        assert [{k: v for k, v in row.items() if k != "config_hash"}
                for row in csv.DictReader(out.open())] == from_file
        (tmp_path / "sweep.cfg").write_text("calib_reps = 100\n")  # 100 * 0.05 < 20
        code, out = run(tmp_path, "sweep-theorem2", "--config", str(tmp_path / "sweep.cfg"))
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["power", "--reps", "0", "--n", "10"],
            ["power", "--model", "neyman_scott", "--stat", "anova_f", "--sigma", "-1"],
            ["lbar", "--group", "permutation", "--n", "20", "--reps", "100", "--mc-reps", "0"],
            ["power", "--workers", "0", "--n", "10", "--reps", "100"],
            ["power", "--calib-reps", "3", "--n", "10", "--reps", "100"],
            ["power", "--level", "0.001", "--n", "10", "--reps", "100"],
            ["sweep-theorem1", "--level", "0.001", "--n-grid", "10", "--reps", "100"],
            ["power", "--n", "0"],
            ["power", "--seed", "abc"],
            ["power", "--model", "neyman_scott", "--stat", "anova_f", "--sigma", "nan"],
            ["recalibrate", "--reps", "64"],
            ["lbar", "--level", "0.3"],
            ["lbar", "--group", "permutation", "--n", "10", "--reps", "1", "--mc-reps", "10"],
            ["coupling", "--n-grid", "10", "--reps", "1"],
            ["sweep-theorem1", "--n-grid", "10", "--reps", "100", "--lbar-reps", "1"],
            ["clt-sweep", "--n-grid", "20", "--reps", "3"],
            ["lbar", "--alt", "spike:3:junk"],
            ["lbar", "--alt", "null:5"],
            ["clt-sweep", "--alt", "spike:inf"],
            ["sweep-spacings", "--alt", "h:cos1:nan"],
            ["power", "--alt", "smooth:1:2"],
            ["sweep-neyman-scott", "--matrix", "--nu", "9"],
            ["sweep-neyman-scott", "--matrix", "--sigma", "4"],
            ["sweep-neyman-scott", "--matrix", "--profile", "random_signs"],
        ],
        ids=["reps-0", "sigma-negative", "mc-reps-0", "workers-0", "calib-reps-3",
             "default-calib-reps-tiny-level", "sweep-tiny-level", "n-0", "seed-not-int",
             "sigma-nan", "recalibrate-unknown-subcommand", "lbar-level", "lbar-reps-1", "coupling-reps-1",
             "theorem1-lbar-reps-1", "clt-sweep-reps-3", "alt-extra-field", "alt-null-with-scale",
             "alt-infinite-scale", "alt-nan-h-scale", "alt-smooth-extra-field",
             "matrix-nu", "matrix-sigma", "matrix-profile"],
    )
    def test_bad_flag_values_exit_2_before_running(self, tmp_path, monkeypatch, argv):
        from invlab import cli

        def not_reached(_cfg):
            raise RuntimeError("ran a subcommand on an invalid configuration")

        monkeypatch.setitem(cli._RUNNERS, argv[0], not_reached)
        code, out = run(tmp_path, *argv)
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["sweep-theorem1"], ["sweep-theorem2"], ["sweep-neyman-scott"], ["sweep-neyman-scott", "--matrix"]],
        ids=["theorem1", "theorem2", "neyman-scott", "neyman-scott-matrix"],
    )
    def test_negative_delta_is_refused_by_the_parser(self, tmp_path, capsys, argv):
        code, out = run(tmp_path, *argv, "--delta", "-1", "--n-grid", "10", "--reps", "100")
        assert code == 2
        assert "config error: delta must be nonnegative, got '-1'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line", ["reps = 0", "workers = 0", "sigma = -1", "calib_reps = 3", "seed = abc"]
    )
    def test_config_file_values_take_the_flag_path(self, tmp_path, monkeypatch, line):
        from invlab import cli

        def not_reached(_cfg):
            raise RuntimeError("ran a subcommand on an invalid configuration")

        monkeypatch.setitem(cli._RUNNERS, "power", not_reached)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        key, _, value = line.partition(" = ")
        flag = "--" + key.replace("_", "-")
        for argv in (["--config", str(cfg)], [flag, value]):
            with pytest.raises(ConfigError) as exc:
                cli.build_config(cli._build_parser().parse_args(["power", *argv]))
            assert key in str(exc.value)
            code, out = run(tmp_path, "power", *argv)
            assert code == 2
            assert not out.exists()

    @pytest.mark.parametrize(
        "lines, argv",
        [(["matrix = true", "nu = 9"], []), (["matrix = true"], ["--sigma", "4"]),
         (["profile = random_signs"], ["--matrix"])],
    )
    def test_matrix_refuses_group_keys_from_the_config_file(self, tmp_path, lines, argv):
        from invlab import cli

        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(line + "\n" for line in lines))
        args = cli._build_parser().parse_args(["sweep-neyman-scott", "--config", str(cfg), *argv])
        with pytest.raises(ConfigError, match="--matrix"):
            cli.build_config(args)


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    from invlab import cli

    parser = cli._build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


_SCALES = st.sampled_from(["-1", "0", "0.5", "1", "2", "3", "8"])
_GRIDS = st.lists(st.integers(1, 40), min_size=1, max_size=3).map(lambda v: ",".join(map(str, v)))
#: Values of the flags without ``choices``; ``--stat`` takes the names its help lists.
_FLAG_VALUES = {
    "seed": st.integers(-(2**32), 2**32).map(str),
    "workers": st.sampled_from(["1", "2"]),
    "reps": st.integers(1, 64).map(str),
    "level": st.sampled_from(["0.001", "0.01", "0.05", "0.2", "0.5", "0.9", "0.999"]),
    "n_grid": _GRIDS,
    "alt": st.one_of(
        st.just("null"),
        st.tuples(st.sampled_from(["spike", "spike_uncentered", "signs", "smooth"]), _SCALES).map(":".join),
        st.tuples(st.integers(1, 4), _SCALES).map(lambda t: f"h:cos{t[0]}:{t[1]}"),
    ),
    "calib_reps": st.integers(1, 2000).map(str),
    "nu": st.integers(1, 6).map(str),
    "sigma": st.sampled_from(["0.1", "1", "3"]),
    "delta": st.sampled_from(["-1", "0", "0.5", "1.5", "3", "10"]),
    "lbar_reps": st.integers(1, 64).map(str),
    "mc_reps": st.integers(1, 64).map(str),
    "design_p": st.integers(1, 6).map(str),
}


@st.composite
def _cli_argvs(draw):
    """A subcommand with a random subset of its flags, at ``reps <= 64`` and ``n <= 40``.

    Returns the argv and the config-file lines that set a random half of the
    drawn keys in place of their flags.
    """
    name = draw(st.sampled_from(sorted(_subparsers())))
    argv, lines = [name], []
    for action in _subparsers()[name]._actions:
        if not action.option_strings or action.dest in ("help", "config", "out"):
            continue
        if action.dest not in ("reps", "n_grid") and not draw(st.booleans()):
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            value = "true"
        elif action.choices is not None:
            value = draw(st.sampled_from(list(action.choices)))
        elif action.dest == "stat":
            value = draw(st.sampled_from(action.help.split(" | ")))
        else:
            value = draw(_FLAG_VALUES[action.dest])
        if draw(st.booleans()):
            lines.append(f"{action.dest} = {value}")
        else:
            argv += [flag] if action.nargs == 0 else [flag, value]
    return argv, lines


class TestExitCodes:
    """Every configuration the parser accepts runs (exit 0) or is refused up front (exit 2)."""

    @settings(max_examples=60, deadline=None)
    @given(drawn=_cli_argvs())
    # n = 1 leaves the radial block no residual degrees of freedom.
    @example(drawn=(["power", "--model", "normal", "--alt", "null", "--n", "1", "--reps", "2"], []))
    def test_never_a_numeric_failure(self, drawn):
        argv, lines = drawn
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            if lines:
                Path(tmp, "run.cfg").write_text("".join(line + "\n" for line in lines))
                argv = [*argv, "--config", f"{tmp}/run.cfg"]
            code = main([*argv, "--out", f"{tmp}/table.csv"])
        assert code in (0, 2), (argv, lines, err.getvalue())


#: Every key a run's config holds, each at a value its parser accepts.
_KEY_VALUES = {
    "seed": "1", "workers": "1", "out": "table.csv", "format": "json", "reps": "100",
    "level": "0.05", "calib_reps": "1000", "n_grid": "10", "model": "normal", "stat": "chisq",
    "alt": "spike:1", "nu": "3", "sigma": "1", "delta": "1", "profile": "single_spike",
    "matrix": "false", "lbar_reps": "100", "mc_reps": "100", "group": "permutation",
    "design_p": "2",
}


def _flag_dests(parser: argparse.ArgumentParser) -> set[str]:
    return {a.dest for a in parser._actions if a.option_strings and a.dest not in ("help", "config")}


def _refused_config_lines() -> list[tuple[str, str]]:
    """``(subcommand, line)``: a key the subcommand has no flag for, or a value off its flag's choices.

    Off-choice values are the ones another subcommand offers for the key, and ``bogus``.
    """
    subs = _subparsers()
    offered: dict[str, set] = {}
    for parser in subs.values():
        for a in parser._actions:
            if a.option_strings and a.choices is not None:
                offered.setdefault(a.dest, set()).update(a.choices)
    cases = []
    for name, parser in sorted(subs.items()):
        cases += [(name, f"{k} = {v}") for k, v in _KEY_VALUES.items() if k not in _flag_dests(parser)]
        for a in parser._actions:
            if a.option_strings and a.choices is not None:
                off = sorted(offered[a.dest] - set(a.choices)) + ["bogus"]
                cases += [(name, f"{a.dest} = {v}") for v in off]
    return cases


class TestConfigKeys:
    """A config file sets exactly the keys a subcommand has flags for, with the flags' choices."""

    @pytest.mark.parametrize("name", sorted(_subparsers()))
    def test_file_keys_are_the_flag_dests(self, tmp_path, name):
        from invlab import cli

        accepted = set()
        for key, value in _KEY_VALUES.items():
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"{key} = {value}\n")
            try:
                cli.build_config(cli._build_parser().parse_args([name, "--config", str(cfg)]))
            except ConfigError:
                continue
            accepted.add(key)
        assert accepted == _flag_dests(_subparsers()[name])

    @pytest.mark.parametrize("name", sorted(_subparsers()))
    def test_help_shows_every_default(self, name):
        for a in _subparsers()[name]._actions:
            if a.option_strings and a.dest not in ("help", "config"):
                assert "(default " in a.help, (name, a.dest, a.help)

    @pytest.mark.parametrize(
        "name,line", _refused_config_lines(), ids=[f"{n}:{l}" for n, l in _refused_config_lines()]
    )
    def test_refused_file_values_exit_2_before_running(self, tmp_path, monkeypatch, name, line):
        from invlab import cli

        def not_reached(_cfg):
            raise RuntimeError("ran a subcommand on a refused configuration")

        monkeypatch.setitem(cli._RUNNERS, name, not_reached)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, out = run(tmp_path, name, "--config", str(cfg))
        assert code == 2
        assert not out.exists()


def _outcome(call, argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``call(argv)``, which returns a code or exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return int(code or 0), out.getvalue(), err.getvalue()


def _full_parse(argv):
    from invlab import cli

    cli._build_parser().parse_args(argv)


def _parser_error_argvs() -> list[list[str]]:
    """Per subcommand: help, an unknown flag, each flag's value off its choices, each flag with no value."""
    argvs = [["--help"], ["-h"], ["--version"], [], ["no-such-command"], ["no-such-command", "--help"]]
    for name, parser in sorted(_subparsers().items()):
        argvs += [[name, "--help"], [name, "--no-such-flag", "1"]]
        for a in parser._actions:
            if a.option_strings and a.dest != "help":
                argvs += [[name, a.option_strings[0], "bogus"]] if a.choices is not None else []
                argvs += [[name, a.option_strings[0]]] if a.nargs is None else []
    return argvs


class TestParserContract:
    """A run builds the arguments of its own subcommand only, and reads as if it built them all."""

    @pytest.mark.parametrize("argv", _parser_error_argvs(), ids=" ".join)
    def test_same_bytes_and_code_as_the_full_parser(self, argv):
        from invlab import cli

        assert _outcome(cli.main, argv) == _outcome(_full_parse, argv)

    def test_argv_from_the_command_line(self, monkeypatch):
        from invlab import cli

        monkeypatch.setattr(sys, "argv", ["invlab", "coupling", "--help"])
        assert _outcome(lambda _: cli.main(), None) == _outcome(_full_parse, ["coupling", "--help"])

    @staticmethod
    def _arguments_added(monkeypatch, argv) -> dict[str, int]:
        """``add_argument`` calls per parser ``prog`` made by ``main(argv)``, help flags aside."""
        from invlab import cli

        counts: dict[str, int] = {}
        add = argparse.ArgumentParser.add_argument

        def counting(parser, *args, **kwargs):
            if "-h" not in args:
                counts[parser.prog] = counts.get(parser.prog, 0) + 1
            return add(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
        _outcome(cli.main, argv)
        return counts

    @pytest.mark.parametrize("name", sorted(_subparsers()))
    def test_one_subcommand_adds_its_arguments_only(self, monkeypatch, name):
        from invlab import cli

        counts = self._arguments_added(monkeypatch, [name, "--reps", "bogus"])
        # --version, and --config with the subcommand's keys.
        assert counts == {"invlab": 1, f"invlab {name}": 1 + len(cli._SUBCOMMANDS[name].keys)}

    def test_no_subcommand_adds_every_argument(self, monkeypatch):
        from invlab import cli

        counts = self._arguments_added(monkeypatch, ["--help"])
        assert counts == {"invlab": 1} | {f"invlab {n}": 1 + len(s.keys) for n, s in cli._SUBCOMMANDS.items()}


class TestAlternativeParsing:
    def test_kinds(self):
        assert parse_alternative("spike:3").scale == 3.0
        assert parse_alternative("null").scale == 0.0
        assert parse_alternative("smooth:1.5").kind == "smooth_profile"
        assert parse_alternative("signs:2").kind == "random_signs"
        h = parse_alternative("h:cos2:1.5")
        assert h.kind == "spacings_h" and h.scale == 1.0 and h.profile.sup == pytest.approx(1.5 * np.sqrt(2.0))

    def test_bad_alternatives(self):
        with pytest.raises(ConfigError):
            parse_alternative("spike")
        with pytest.raises(ConfigError):
            parse_alternative("wobble:1")
        # Extra fields and numbers that are not finite.
        for text in ("spike:3:junk", "null:5", "signs:1:2", "h:cos1:2:3", "spike:inf",
                     "smooth:nan", "spike_uncentered:-inf", "h:cos1:nan", "spike:1e400"):
            with pytest.raises(ConfigError, match="field|finite"):
                parse_alternative(text)


class TestRendering:
    def test_csv_uses_crlf_and_12_digits(self):
        text = render_table([{"a": 1 / 3, "b": 2}], "csv")
        assert "\r\n" in text
        assert "0.333333333333" in text

    def test_json_round_trips(self):
        text = render_table([{"a": np.float64(0.1), "flag": np.bool_(True)}], "json")
        payload = json.loads(text)
        assert payload[0]["flag"] is True

    def test_hash_ignores_workers(self):
        a = config_hash({"x": 1, "workers": 1, "out": "a"})
        b = config_hash({"x": 1, "workers": 8, "out": "b"})
        assert a == b
        assert a != config_hash({"x": 2, "workers": 1})
