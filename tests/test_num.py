"""The numpy replacements for scipy's quadrature and log-sum-exp.

scipy is the oracle here; the package itself must import and run without it.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson as scipy_simpson
from scipy.special import logsumexp as scipy_logsumexp

from invlab._num import logsumexp, simpson

SRC = Path(__file__).resolve().parents[1] / "src"


class TestLogsumexp:
    def test_rows_bit_identical(self):
        a = np.random.default_rng(1).normal(scale=30.0, size=(300, 2000))
        assert np.array_equal(logsumexp(a, axis=-1), scipy_logsumexp(a, axis=-1))

    @pytest.mark.parametrize("a", [np.linspace(-3.0, 5.0, 17), 2.5, np.array([7.0])],
                             ids=["1d", "scalar", "one-element"])
    def test_1d_and_scalar_bit_identical(self, a):
        ours, theirs = logsumexp(a), scipy_logsumexp(a)
        assert np.ndim(ours) == 0
        assert np.array_equal(ours, theirs)

    def test_ties_and_infinities_bit_identical(self):
        a = np.random.default_rng(2).normal(size=(5, 64))
        a[0, :4] = a[0].max() + 1.0  # four-way tie at the max
        a[1, ::3] = -np.inf
        a[2] = -np.inf  # all -inf: the result is -inf
        a[3, 5] = np.inf
        a[4] = 3.0  # every entry is a maximum
        ours = logsumexp(a, axis=-1)
        assert np.array_equal(ours, scipy_logsumexp(a, axis=-1))
        assert ours[2] == -np.inf and ours[3] == np.inf
        assert np.array_equal(logsumexp(a[0]), scipy_logsumexp(a[0]))


class TestSimpson:
    @pytest.mark.parametrize("points", [8193, 4097, 2049, 1025])
    def test_matches_scipy_on_every_grid_size(self, points):
        for lo, hi in ((0.0, 1.0), (0.3 - 45.0, 0.3 + 45.0)):
            xs = np.linspace(lo, hi, points)
            for y in (np.exp(-0.5 * xs**2) + 1.0, xs**2 + 1.0, 2.0 + np.cos(2 * np.pi * xs)):
                assert simpson(y, x=xs) == pytest.approx(scipy_simpson(y, x=xs), rel=1e-15)

    def test_even_point_count_raises(self):
        xs = np.linspace(0.0, 1.0, 1024)
        with pytest.raises(ValueError, match="even number of intervals"):
            simpson(xs, x=xs)


def test_cli_runs_with_scipy_blocked(tmp_path):
    """Every code path of the tiny runs below imports nothing from scipy."""
    script = textwrap.dedent(
        f"""
        import sys
        sys.modules["scipy"] = None
        sys.path.insert(0, {str(SRC)!r})
        from invlab.cli import main

        runs = [
            "sweep-theorem1 --n-grid 20 --reps 100 --lbar-reps 50",
            "lbar --group full_orthogonal --model normal --n 20 --reps 50",
            "lbar --group permutation --model poisson --n 20 --reps 50 --mc-reps 100",
            "sweep-spacings --n-grid 50 --reps 100",
            "clt-sweep --n-grid 20,40 --reps 100",
            "coupling --n-grid 20 --reps 100",
        ]
        for i, argv in enumerate(runs):
            code = main(argv.split() + ["--out", {str(tmp_path)!r} + f"/{{i}}.csv"])
            if code != 0:
                sys.exit(f"{{argv}} exited {{code}}")
        """
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("*.csv"))) == 6
