"""Output checks for the tables a workload pass writes.

The checks hold for any correct program whatever Monte Carlo stream it
draws: oracle values from closed-form distributions, monotone trends and
bounds that the theory fixes, each within a tolerance of several reported
standard errors.  Every table also gets a standard-error ceiling on its
headline columns, so that a speed-up bought by drawing fewer replicates
fails.  Where the standard error follows from the configured replicate
count (binomial rates, and means whose variance the table reports), the
ceiling is analytic and trips when the replicate count is halved; elsewhere
it is empirical (``EMPIRICAL_CEILINGS``) and trips only on larger cuts.

Not checked: the ``llr_gap_p95`` columns of ``sweep-spacings`` (their
linear approximation has a known scale and sign defect), and configurations
outside the workloads (the uncentered orthogonal null and configuration
compatibility are separate open defects).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

from scipy import stats as sps

from workloads import Invocation, Workload

LEVEL = 0.05

#: Tolerance, in reported standard errors, for oracle and normalisation checks.
ORACLE_SES = 5.0
#: Tolerance, in summed standard errors of two neighbours, for trend checks.
#: At these replicate counts the rho2 columns sit near their Monte Carlo
#: noise floor at large n, where 2 (the acceptance suite's value at 10000
#: replicates) fails on about one seed in a hundred.
TREND_SES = 3.0
#: Ceiling factor on a standard error that follows from the replicate count.
BINOMIAL_CEILING = 1.3
VARIANCE_CEILING = 1.05
#: Empirical ceilings where no closed form exists: (subcommand, se column) ->
#: (value column, limit) bounds ``se * sqrt(reps) / value`` by ``limit``; a
#: value column of ``None`` bounds ``se * sqrt(reps)`` instead (used where the
#: value itself is mostly Monte Carlo noise).  Each limit is 1.25 times the
#: largest value over 60 seeds of the workload.
EMPIRICAL_CEILINGS = {
    ("sweep-theorem1", "lbar_bound_se"): ("lbar_bound", 1.75),
    ("coupling", "gap_sq_se"): ("gap_sq_mean", 2.6),
    ("clt-sweep", "se_rho2_perm_boot"): ("rho2_perm_boot", 12.0),
    ("clt-sweep", "se_rho2_boot_iid"): (None, 7.6),
    ("clt-sweep", "se_rho2_perm_iid"): (None, 8.0),
}

EXPECTATIONS = Path("src/invlab/data/expectations.json")


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def parse_table(text: str) -> list[dict]:
    """CSV rows with numbers as floats and ``true``/``false`` as booleans."""
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        row = {}
        for key, value in raw.items():
            if value in ("true", "false"):
                row[key] = value == "true"
            else:
                try:
                    row[key] = float(value)
                except ValueError:
                    row[key] = value
        rows.append(row)
    return rows


def check_workload(workload: Workload, tables: dict[int, str | None], root: Path) -> list[Check]:
    """Check each invocation's table (``None`` when the table is missing)."""
    floor = json.loads((root / EXPECTATIONS).read_text())["spacings_quadratic_gap_floor"]
    out = []
    for index, inv in enumerate(workload.invocations):
        text = tables.get(index)
        if text is None:
            out.append(Check(f"{inv.subcommand}: table written", False, "missing"))
            continue
        try:
            rows = parse_table(text)
            grid = _grid(inv)
            found = [int(r["n"]) for r in rows]
            out.append(Check(f"{inv.subcommand}: rows", found == grid, f"n {found} vs {grid}"))
            if found == grid:
                out.extend(_CHECKERS[inv.subcommand](rows, inv, floor))
        except (KeyError, TypeError, ValueError, csv.Error) as exc:
            out.append(Check(f"{inv.subcommand}: table parses", False, repr(exc)))
    return out


# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #


def _option(inv: Invocation, flag: str, default: str | None = None) -> str:
    args = list(inv.args)
    return args[args.index(flag) + 1] if flag in args else default


def _grid(inv: Invocation) -> list[int]:
    text = _option(inv, "--n-grid") or _option(inv, "--n")
    return [int(v) for v in text.split(",")]


def _binomial_se(p: float, reps: int) -> float:
    """The CLI's continuity-corrected binomial standard error at rate ``p``."""
    k = min(max(p, 0.0), 1.0) * reps
    p_tilde = (k + 0.5) / (reps + 1.0)
    return math.sqrt(p_tilde * (1.0 - p_tilde) / reps)


def _gap_se(gap: float, reps: int) -> float:
    return math.hypot(_binomial_se(LEVEL, reps), _binomial_se(LEVEL + gap, reps))


def _within(name: str, value: float, target: float, tol: float) -> Check:
    return Check(name, bool(abs(value - target) <= tol), f"{value:.5g} vs {target:.5g} ± {tol:.3g}")


def _ceiling(name: str, se: float, limit: float) -> Check:
    return Check(name, bool(se <= limit), f"se {se:.4g} <= {limit:.4g}")


def _empirical_ceiling(sub: str, row: dict, se_col: str, reps: int) -> Check:
    value_col, limit = EMPIRICAL_CEILINGS[(sub, se_col)]
    scale = abs(row[value_col]) if value_col else 1.0
    return _ceiling(f"{sub} n={row['n']:g}: {se_col} ceiling", row[se_col],
                    limit * scale / math.sqrt(reps))


def _non_increasing(sub: str, rows: list[dict], col: str, se_col: str) -> list[Check]:
    out = []
    for prev, cur in zip(rows, rows[1:]):
        slack = TREND_SES * (prev[se_col] + cur[se_col])
        out.append(
            Check(
                f"{sub} n={prev['n']:g}->{cur['n']:g}: {col} does not increase",
                bool(cur[col] <= prev[col] + slack),
                f"{prev[col]:.4g} -> {cur[col]:.4g} (slack {slack:.3g})",
            )
        )
    return out


# --------------------------------------------------------------------- #
# Per-subcommand checks
# --------------------------------------------------------------------- #


def _theorem1(rows, inv, floor):
    reps = int(_option(inv, "--reps"))
    lbar_reps = int(_option(inv, "--lbar-reps", str(reps)))
    calib = max(2 * reps, 1000)
    delta = float(_option(inv, "--delta"))
    z = sps.norm.ppf(1 - LEVEL)
    # Monte Carlo error of the calibrated critical value, carried into the rates.
    crit_sd = math.sqrt(LEVEL * (1 - LEVEL) / calib)
    np_oracle = sps.norm.sf(z - delta)
    np_shift = sps.norm.pdf(z - delta) * crit_sd / sps.norm.pdf(z)
    out = []
    for row in rows:
        n = int(row["n"])
        tag = f"sweep-theorem1 n={n}"
        crit = sps.chi2.ppf(1 - LEVEL, n)
        oracle_gap = sps.ncx2.sf(crit, n, delta**2) - LEVEL
        f_null = sps.chi2.pdf(crit, n)
        gap_shift = abs(f_null - sps.ncx2.pdf(crit, n, delta**2)) * crit_sd / f_null
        out += [
            _within(f"{tag}: chisq_gap matches the noncentral chi-square oracle", row["chisq_gap"],
                    oracle_gap, ORACLE_SES * math.hypot(row["chisq_gap_se"], gap_shift)),
            _within(f"{tag}: np_power matches the normal-shift oracle", row["np_power"],
                    np_oracle, ORACLE_SES * math.hypot(row["np_power_se"], np_shift)),
            Check(
                f"{tag}: chisq_gap <= lbar_bound",
                bool(row["chisq_gap"] <= row["lbar_bound"] + 4 * (row["chisq_gap_se"] + row["lbar_bound_se"])),
                f"{row['chisq_gap']:.4g} vs {row['lbar_bound']:.4g}",
            ),
            _ceiling(f"{tag}: chisq_gap_se ceiling", row["chisq_gap_se"],
                     BINOMIAL_CEILING * _gap_se(row["chisq_gap"], reps)),
            _ceiling(f"{tag}: np_power_se ceiling", row["np_power_se"],
                     BINOMIAL_CEILING * _binomial_se(row["np_power"], reps)),
            _empirical_ceiling("sweep-theorem1", row, "lbar_bound_se", lbar_reps),
        ]
    return out


def _lbar(rows, inv, floor):
    reps = int(_option(inv, "--reps"))
    out = []
    for row in rows:
        tag = f"lbar {row['group']} n={row['n']:g}"
        var = row["var_lbar"]
        # Sample sd of |Lbar - 1| from the variance, mean and bound of Lbar.
        dev_var = var + reps / (reps - 1) * ((row["e0_lbar"] - 1) ** 2 - row["abs_dev_bound"] ** 2)
        out += [
            _within(f"{tag}: e0_lbar is 1", row["e0_lbar"], 1.0, ORACLE_SES * row["se_e0_lbar"]),
            _ceiling(f"{tag}: se_e0_lbar ceiling", row["se_e0_lbar"],
                     VARIANCE_CEILING * math.sqrt(var / reps)),
            _ceiling(f"{tag}: se_abs_dev_bound ceiling", row["se_abs_dev_bound"],
                     VARIANCE_CEILING * math.sqrt(max(dev_var, 0.0) / reps)),
        ]
    return out


def _spacings(rows, inv, floor):
    reps = int(_option(inv, "--reps"))
    out = _non_increasing("sweep-spacings", rows, "greenwood_gap", "greenwood_gap_se")
    out += _non_increasing("sweep-spacings", rows, "moran_gap", "moran_gap_se")
    for row in rows:
        tag = f"sweep-spacings n={row['n']:g}"
        out.append(
            Check(f"{tag}: quadratic_gap above the packaged floor", bool(row["quadratic_gap"] > floor),
                  f"{row['quadratic_gap']:.4g} > {floor}")
        )
        for stat in ("greenwood", "moran", "two_spacings", "quadratic"):
            out.append(
                _ceiling(f"{tag}: {stat}_gap_se ceiling", row[f"{stat}_gap_se"],
                         BINOMIAL_CEILING * _gap_se(row[f"{stat}_gap"], reps))
            )
    return out


_RHO2 = ("rho2_perm_boot", "rho2_boot_iid", "rho2_perm_iid")


def _clt(rows, inv, floor):
    reps = int(_option(inv, "--reps"))
    out = []
    for col in _RHO2:
        out += _non_increasing("clt-sweep", rows, col, f"se_{col}")
        out += [_empirical_ceiling("clt-sweep", row, f"se_{col}", reps) for row in rows]
    return out


def _coupling(rows, inv, floor):
    reps = int(_option(inv, "--reps"))
    out = []
    for row in rows:
        tag = f"coupling n={row['n']:g}"
        cf = [k for k in row if k.startswith("cf_ok_")]
        out += [
            Check(f"{tag}: bound_holds", row["bound_holds"] is True),
            Check(f"{tag}: cf_ok columns", bool(cf) and all(row[k] is True for k in cf),
                  ", ".join(f"{k}={row[k]}" for k in cf)),
            _empirical_ceiling("coupling", row, "gap_sq_se", reps),
        ]
    return out


_CHECKERS = {
    "sweep-theorem1": _theorem1,
    "lbar": _lbar,
    "sweep-spacings": _spacings,
    "clt-sweep": _clt,
    "coupling": _coupling,
}
