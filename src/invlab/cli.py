"""Command-line front end.

Subcommands run the power harness and the theorem sweeps, emitting one
machine-readable table per run (CSV or JSON) plus a sidecar metadata
record.  Identical ``(config, seed)`` pairs produce byte-identical
tables regardless of the worker count: numbers are printed with 12
significant digits and all Monte Carlo streams derive from
``(seed, stream tag, block index)``.

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import os
import sys
import time
from collections.abc import Callable
from pathlib import Path

import numpy as np

from . import __version__, _num, experiments, models, orbit, permclt
from .rng import TAG_LBAR, TAG_MODEL, draw_passes, spawn_generator

ENV_SEED = "INVLAB_SEED"


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 2."""


# --------------------------------------------------------------------- #
# Formatting and output
# --------------------------------------------------------------------- #


def _fmt_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)


def _json_value(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(f"{float(v):.12g}")
    return v


def render_table(rows: list[dict], fmt: str) -> str:
    """Render rows as RFC-4180-style CSV (with header) or a JSON array."""
    if not rows:
        raise ValueError("no rows to write")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(row[k]) for k in header])
        return buf.getvalue()
    if fmt == "json":
        payload = [{k: _json_value(v) for k, v in row.items()} for row in rows]
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    raise ConfigError(f"unknown format {fmt!r}")


#: Keys that affect execution but not the computed values.
_NON_SEMANTIC_KEYS = ("workers", "out")

#: Removed options, hashed at the one value every run now has, so that a
#: table keeps the hash it had when the option existed.
_RETIRED_KEYS = {"method": "rank"}


def config_hash(config: dict) -> str:
    semantic = _RETIRED_KEYS | {k: v for k, v in config.items() if k not in _NON_SEMANTIC_KEYS}
    canon = json.dumps(semantic, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def write_output(rows: list[dict], config: dict, started: float) -> None:
    for row in rows:
        for column, v in row.items():
            if isinstance(v, (float, np.floating)) and np.isinf(v):
                raise ValueError(f"column {column} is {float(v)} at n = {row.get('n')} (overflow)")
    text = render_table(rows, config["format"])
    out = config.get("out")
    if out:
        Path(out).write_text(text)
        meta = {
            "tool": "invlab",
            "version": __version__,
            "config": {k: _json_value(v) if not isinstance(v, str) else v for k, v in config.items()},
            "config_hash": config_hash(config),
            "wall_time_s": round(time.time() - started, 3),
            "columns": list(rows[0].keys()),
            "se_columns": [c for c in rows[0] if "se" in c.split("_")],
        }
        Path(str(out) + ".meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------- #
# Configuration plumbing
# --------------------------------------------------------------------- #


def read_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` lines; ``#`` comments and ``[section]`` headers allowed."""
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _parse_grid(text: str) -> tuple[int, ...]:
    try:
        grid = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from exc
    if not grid or any(v <= 0 for v in grid):
        raise ConfigError(f"grid entries must be positive: {text!r}")
    return grid


def _parse_bool(text: str) -> bool:
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"bad boolean {text!r}")


def _number(kind, name, valid=None, want=""):
    """Parser of a finite ``kind`` value (one that ``valid`` accepts) that raises :class:`ConfigError`."""

    def parse(text):
        try:
            v = kind(text)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad {name} {text!r}") from exc
        if not np.isfinite(v):
            raise ConfigError(f"{name} must be finite, got {text!r}")
        if valid is not None and not valid(v):
            raise ConfigError(f"{name} must be {want}, got {text!r}")
        return v

    return parse


def _count(name, least=1):
    return _number(int, name, lambda v: v >= least, f">= {least}")


#: The numbers of fields each alternative kind takes after the kind.
_ALT_FIELDS = {
    "null": (0,), "spike": (1,), "spike_uncentered": (1,), "signs": (1,), "smooth": (1,), "h": (1, 2),
}


def parse_alternative(text: str) -> experiments.AlternativeSpec:
    """``kind:scale`` alternatives, e.g. ``spike:3``, ``smooth:1.5``, ``h:cos1:2``.

    ``h:cosK:SCALE`` selects the spacings model's density perturbation
    ``SCALE sqrt(2) cos(2 pi K x)``.  A kind with too many or too few fields,
    or a number that is not finite, raises :class:`ConfigError`.
    """
    kind, *fields = text.split(":")
    if kind not in _ALT_FIELDS:
        raise ConfigError(f"unknown alternative kind {kind!r}")
    if len(fields) not in _ALT_FIELDS[kind]:
        counts = " or ".join(map(str, _ALT_FIELDS[kind]))
        raise ConfigError(f"bad alternative {text!r}: {kind} takes {counts} field(s) after the kind")
    number = _number(float, f"alternative {text!r} scale")
    try:
        if kind == "null":
            return experiments.NULL
        if kind == "h":
            freq = int(fields[0].removeprefix("cos"))
            prof = models.cosine_profile({freq: number(fields[1]) if len(fields) > 1 else 1.0})
            return experiments.AlternativeSpec("spacings_h", 1.0, profile=prof)
        scale = number(fields[0])
        if kind == "smooth":
            prof = models.cosine_profile({1: 1.0})
            return experiments.AlternativeSpec("smooth_profile", scale, profile=prof)
        alt_kind = "random_signs" if kind == "signs" else "single_spike"
        return experiments.AlternativeSpec(alt_kind, scale, centered=kind != "spike_uncentered")
    except ValueError as exc:
        raise ConfigError(f"bad alternative {text!r}: {exc}") from exc


def _alternative_text(text: str) -> str:
    """``text``, once :func:`parse_alternative` accepts it."""
    parse_alternative(text)
    return text


def resolve_model(name: str, nu: int, sigma: float) -> experiments.Model:
    if name == "normal":
        return experiments.normal_means_model()
    if name == "neyman_scott":
        return experiments.NeymanScottModel(nu=nu, sigma=sigma)
    if name == "spacings":
        return experiments.SpacingsModel()
    return experiments.FamilyModel(models.family_by_name(name))


# --------------------------------------------------------------------- #
# Subcommand runners
# --------------------------------------------------------------------- #


#: Statistics that apply to each model's data layout.
_MODEL_STATS = {
    **dict.fromkeys(("normal", "poisson", "bernoulli", "logistic"),
                    ("chisq", "variance", "np", "quadratic")),
    "neyman_scott": ("anova_f",),
    "spacings": ("greenwood", "moran", "two_spacings_sq", "quadratic_spacings"),
}


def run_power(cfg: dict) -> list[dict]:
    model = resolve_model(cfg["model"], cfg["nu"], cfg["sigma"])
    alt = parse_alternative(cfg["alt"])
    allowed = _MODEL_STATS[cfg["model"]]
    if cfg["stat"] not in allowed:
        raise ConfigError(f"--stat {cfg['stat']} does not apply to --model {cfg['model']}: use {', '.join(allowed)}")

    def setup(n, _):
        return experiments.Cell.resolve(model, n, cfg["seed"], [(cfg["stat"], alt)])

    rows = []
    for cell in experiments.per_n(f"the {model.name} model", cfg["n_grid"], setup):
        rep = experiments.estimate_power(
            cell, cfg["level"], cfg["reps"], calib_reps=cfg["calib_reps"], workers=cfg["workers"]
        )
        rows.append(
            {
                "n": rep.n,
                "stat": rep.statistic_name,
                "critical": rep.critical_value,
                "level_hat": rep.level_hat,
                "level_se": rep.level_se,
                "power_hat": rep.power_hat,
                "power_se": rep.power_se,
            }
        )
    return rows


def _run_sweep(sweep, cfg: dict, *args, **kwargs) -> list[dict]:
    """Table of ``sweep(*args, reps, seed, level=, calib_reps=, workers=, **kwargs)``."""
    return sweep(
        *args, cfg["reps"], cfg["seed"], level=cfg["level"], calib_reps=cfg["calib_reps"],
        workers=cfg["workers"], **kwargs,
    )


def run_theorem1(cfg: dict) -> list[dict]:
    return _run_sweep(
        experiments.theorem1_sweep, cfg, cfg["delta"], cfg["n_grid"], lbar_reps=cfg["lbar_reps"]
    )


def run_theorem2(cfg: dict) -> list[dict]:
    family = models.family_by_name(cfg["model"])
    return _run_sweep(experiments.theorem2_sweep, cfg, family, cfg["delta"], cfg["n_grid"])


def run_neyman_scott(cfg: dict) -> list[dict]:
    if cfg["matrix"]:
        return _run_sweep(experiments.matrix_variate_sweep, cfg, cfg["n_grid"], cfg["delta"])
    alt = experiments.AlternativeSpec(cfg["profile"], cfg["delta"])
    return _run_sweep(experiments.neyman_scott_sweep, cfg, alt, cfg["n_grid"], cfg["nu"], sigma=cfg["sigma"])


def run_spacings(cfg: dict) -> list[dict]:
    return _run_sweep(experiments.spacings_sweep, cfg, parse_alternative(cfg["alt"]), cfg["n_grid"])


def run_lbar(cfg: dict) -> list[dict]:
    group = orbit.Group(cfg["group"])
    alt = parse_alternative(cfg["alt"])
    model = resolve_model(cfg["model"], cfg["nu"], cfg["sigma"])

    def setup(n, _):
        m = model.at(n, alt, cfg["seed"]).mean
        design = None
        if group is orbit.Group.ORTHOGONAL_FIXING_DESIGN:
            design = spawn_generator(cfg["seed"], TAG_MODEL, 777).normal(size=(n, cfg["design_p"]))
            q, _ = np.linalg.qr(design)
            m = model.mean_vector(m.entries - q @ (q.T @ m.entries))
        spec = orbit.OrbitSpec(group=group, design=design, mc_reps=cfg["mc_reps"])
        return n, m, spec.null_orbit(model.family, m, cfg["seed"])

    grid = experiments.per_n(cfg["subcommand"], cfg["n_grid"], setup)
    # Every n's samples in one plan, keyed by grid index.
    passes = [null_orbit.lbar_pass(cfg["reps"], {gi: orbit.LBAR}) for gi, (_, _, null_orbit) in enumerate(grid)]
    samples = draw_passes(passes, cfg["workers"])
    rows = []
    for gi, (n, m, null_orbit) in enumerate(grid):
        vals = samples[gi]
        e0, e0_se = _num.mean_se(vals)
        bound, bound_se = orbit.power_level_bound(vals)
        var_diag = (
            orbit.perm_variance_diagnostic(m, cfg["mc_reps"], spawn_generator(cfg["seed"], TAG_LBAR))
            if null_orbit.radial is None else float("nan")
        )
        rows.append({
            "group": group.value,
            "model": cfg["model"],
            "n": n,
            "e0_lbar": e0,
            "se_e0_lbar": e0_se,
            "abs_dev_bound": bound,
            "se_abs_dev_bound": bound_se,
            "var_lbar": float(vals.var(ddof=1)),
            "var_diag": var_diag,
        })
    return rows


def run_clt_sweep(cfg: dict) -> list[dict]:
    """The convergence sweep of each n's contrast ``alt.mean_entries(n, seed)``, built once.

    A contrast is a weight vector, not a model parameter: it is not held to
    the model's compact box, so it is not resolved through ``model.at``.
    """
    model = resolve_model(cfg["model"], cfg["nu"], cfg["sigma"])
    alt = parse_alternative(cfg["alt"])
    contrasts = experiments.per_n(
        cfg["subcommand"], cfg["n_grid"], lambda n, _: alt.mean_entries(n, cfg["seed"])
    )
    return permclt.theorem_convergence_sweep(
        model, contrasts, cfg["reps"], cfg["seed"], workers=cfg["workers"]
    )


def run_coupling(cfg: dict) -> list[dict]:
    if min(cfg["n_grid"]) < 2:
        raise ConfigError("coupling needs n >= 2")
    rows = []
    t_grid = (0.5, 1.0, 2.0)
    for gi, n in enumerate(cfg["n_grid"]):
        rng = spawn_generator(cfg["seed"], TAG_MODEL, gi)
        x = rng.normal(size=n)
        m = rng.normal(size=n)
        m -= m.mean()
        m /= np.linalg.norm(m)
        res = permclt.hajek_coupling(m, x, cfg["reps"], cfg["seed"], workers=cfg["workers"])
        row = {
            "n": n,
            "gap_sq_mean": res.gap_sq_mean,
            "gap_sq_se": res.gap_sq_se,
            "bound": res.bound,
            "bound_holds": res.bound_holds,
            "matched_mean": float(res.matched.mean()),
        }
        for t in t_grid:
            row[f"cf_ok_t{t:g}"] = permclt.cf_inequality_check(
                res.without_repl, res.with_repl, t
            )
        rows.append(row)
    return rows


# --------------------------------------------------------------------- #
# Configuration: one declaration of every key and every subcommand
# --------------------------------------------------------------------- #


@dataclasses.dataclass(frozen=True)
class Key:
    """A config key: global default, value parser, help, choices, and what a ``None`` default becomes at run time."""

    default: object
    parse: Callable[[str], object]
    help: str
    choices: tuple[str, ...] | None = None
    unset: str | None = None


_EXP_FAMILIES = ("normal", "poisson", "bernoulli")
_STATS = tuple(dict.fromkeys(s for names in _MODEL_STATS.values() for s in names))

#: Every key a run's config holds, at its global default.  A key's flag is
#: ``--`` and its name with dashes for underscores, unless a subcommand respells it.
_KEYS = {
    "seed": Key(0, _number(int, "seed"), f"64-bit RNG seed, ${ENV_SEED} when set"),
    "workers": Key(1, _count("workers"), "worker threads (results are worker-count independent)"),
    "out": Key(None, str, "output file", unset="stdout"),
    "format": Key("csv", str, "output format", ("csv", "json")),
    "reps": Key(experiments.DEFAULT_REPS, _count("reps", 2), "Monte Carlo replicates per estimate"),
    "level": Key(
        experiments.DEFAULT_LEVEL,
        _number(float, "level", lambda v: 0.0 < v < 1.0, "strictly between 0 and 1"),
        "target test level",
    ),
    "calib_reps": Key(
        None, _count("calib_reps"), "null replicates for the critical value", unset="max(2 reps, 1000)"
    ),
    "n_grid": Key((100, 1000, 10_000), _parse_grid, "sample size(s), comma separated"),
    "model": Key("normal", str, "data model", tuple(_MODEL_STATS)),
    "stat": Key("chisq", str, " | ".join(_STATS), _STATS),
    "alt": Key("spike:3", _alternative_text, "alternative, e.g. spike:3, smooth:1.5, signs:2, h:cos1:2, null"),
    "nu": Key(5, _count("nu", 2), "replicates per group (neyman_scott)"),
    "sigma": Key(1.0, _number(float, "sigma", lambda v: v > 0, "positive"), "noise scale (neyman_scott)"),
    "delta": Key(3.0, _number(float, "delta", lambda v: v >= 0, "nonnegative"), "alternative norm"),
    "profile": Key("single_spike", str, "alternative profile", ("single_spike", "random_signs")),
    "matrix": Key(False, _parse_bool, "bivariate generalized-variance sweep"),
    "lbar_reps": Key(None, _count("lbar_reps", 2), "replicates of the averaged-ratio bound", unset="--reps"),
    "mc_reps": Key(10_000, _count("mc_reps"), "permutations per Monte Carlo average"),
    "group": Key("permutation_exhaustive", str, "orbit group", tuple(g.value for g in orbit.Group)),
    "design_p": Key(3, _count("design_p"), "design columns for the fixing group"),
}

#: Keys every subcommand takes.
_COMMON_KEYS = ("seed", "workers", "out", "format", "reps")
#: Keys of the subcommands that calibrate critical values.
_CALIBRATION_KEYS = ("level", "calib_reps")


@dataclasses.dataclass(frozen=True)
class Subcommand:
    """A runner, the keys it reads beyond the common ones, and its overrides of their declaration."""

    run: Callable[[dict], list[dict]]
    help: str
    own_keys: tuple[str, ...] = ()
    defaults: dict = dataclasses.field(default_factory=dict)
    choices: dict = dataclasses.field(default_factory=dict)
    flags: dict = dataclasses.field(default_factory=dict)

    @property
    def keys(self) -> tuple[str, ...]:
        return _COMMON_KEYS + self.own_keys


_SUBCOMMANDS = {
    "power": Subcommand(
        run_power, "calibrate a statistic and estimate level and power",
        ("model", "stat", "alt", "n_grid", "nu", "sigma", *_CALIBRATION_KEYS), flags={"n_grid": "--n"},
    ),
    "sweep-theorem1": Subcommand(
        run_theorem1, "normal-model invariant collapse vs the averaged-ratio bound",
        ("delta", "n_grid", "lbar_reps", *_CALIBRATION_KEYS),
    ),
    "sweep-theorem2": Subcommand(
        run_theorem2, "exponential-family permutation-invariant collapse",
        ("model", "delta", "n_grid", *_CALIBRATION_KEYS),
        defaults={"delta": 1.5}, choices={"model": (*_EXP_FAMILIES, "logistic")},
    ),
    "sweep-neyman-scott": Subcommand(
        run_neyman_scott, "ANOVA-F collapse in the replicated layout",
        ("n_grid", "nu", "sigma", "delta", "profile", "matrix", *_CALIBRATION_KEYS),
    ),
    "sweep-spacings": Subcommand(
        run_spacings, "spacings statistics under 1 + h/sqrt(n)", ("alt", "n_grid", *_CALIBRATION_KEYS),
        defaults={"n_grid": (100, 400, 1600), "alt": "h:cos1:2"},
    ),
    "lbar": Subcommand(
        run_lbar, "null Monte Carlo of the orbit-averaged ratio",
        ("group", "model", "alt", "n_grid", "mc_reps", "design_p"),
        defaults={"n_grid": (6,), "alt": "spike:1"},
        choices={"model": _EXP_FAMILIES}, flags={"n_grid": "--n"},
    ),
    "clt-sweep": Subcommand(
        run_clt_sweep, "rho2 distances between permutation, bootstrap, and iid laws", ("model", "alt", "n_grid"),
        defaults={"n_grid": (50, 500, 5000), "alt": "spike:1"}, choices={"model": _EXP_FAMILIES},
    ),
    "coupling": Subcommand(
        run_coupling, "with/without-replacement coupling and the second-moment bound", ("n_grid",),
        defaults={"reps": 2000},
    ),
}

#: Runner of each subcommand, looked up here by :func:`main`.
_RUNNERS = {name: spec.run for name, spec in _SUBCOMMANDS.items()}


def _shown(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else _fmt_cell(value)


def _build_parser(selected: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, with the arguments of ``selected`` only when one is named.

    Every subcommand is registered either way, so the top-level help, usage
    and errors do not depend on ``selected``.
    """
    parser = argparse.ArgumentParser(
        prog="invlab",
        description="Monte Carlo laboratory for the power of group-invariant tests.",
    )
    parser.add_argument("--version", action="version", version=f"invlab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, spec in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        if selected not in (None, name):
            continue
        p.add_argument("--config", help="flat key=value config file of the keys below; flags override it")
        for key in spec.keys:
            flag = spec.flags.get(key, "--" + key.replace("_", "-"))
            default = spec.defaults.get(key, _KEYS[key].default)
            text = f"{_KEYS[key].help} (default {_KEYS[key].unset if default is None else _shown(default)})"
            if _KEYS[key].parse is _parse_bool:
                p.add_argument(flag, dest=key, action="store_const", const="true", help=text)
            else:
                p.add_argument(flag, dest=key, choices=spec.choices.get(key, _KEYS[key].choices), help=text)
    return parser


def build_config(args: argparse.Namespace) -> dict:
    """Merge flags over the config file over ``$INVLAB_SEED`` over the subcommand's defaults.

    The result holds every key of :data:`_KEYS`; a key the subcommand does
    not take stays at its global default.  Flags and file values go through
    the same parser and choices.
    """
    name = args.subcommand
    spec = _SUBCOMMANDS[name]
    file_cfg = read_config_file(args.config) if getattr(args, "config", None) else {}
    for key in file_cfg:
        if key not in spec.keys:
            raise ConfigError(f"{name} takes no config key {key!r} (it takes {', '.join(spec.keys)})")
    flags = {k: v for k, v in vars(args).items() if k in spec.keys and v is not None}
    cfg = {key: decl.default for key, decl in _KEYS.items()} | spec.defaults
    env = {"seed": os.environ[ENV_SEED]} if os.environ.get(ENV_SEED) else {}
    for key, raw in (env | file_cfg | flags).items():
        cfg[key] = _KEYS[key].parse(raw)
        choices = spec.choices.get(key, _KEYS[key].choices)
        if choices is not None and cfg[key] not in choices:
            raise ConfigError(f"{name} takes {key} in {', '.join(choices)}, got {raw!r}")
    cfg["subcommand"] = name
    grouped = [key for key in ("nu", "sigma", "profile") if key in file_cfg | flags]
    if cfg["matrix"] and grouped:
        raise ConfigError(f"--matrix runs bivariate rows with no groups; it takes no {', '.join(grouped)}")
    if "calib_reps" in spec.keys:
        calib_reps = experiments.calibration_reps(cfg["reps"], cfg["calib_reps"])
        if calib_reps * cfg["level"] < experiments.MIN_TAIL_REPS:
            raise ConfigError(
                f"calibration needs calib_reps * level >= {experiments.MIN_TAIL_REPS}, "
                f"got {calib_reps} * {cfg['level']:g}"
            )
    if name == "clt-sweep" and cfg["reps"] < 4:  # two batches of two for the standard errors
        raise ConfigError("clt-sweep needs reps >= 4 for its standard errors")
    return cfg


def main(argv: list[str] | None = None) -> int:
    started = time.time()
    argv = sys.argv[1:] if argv is None else argv
    # A run parses one subcommand's arguments; help, version and a missing
    # or unknown name build them all.
    parser = _build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code) if exc.code else 0
    try:
        cfg = build_config(args)
        # Every table ends with the run's reps, seed and config hash.
        run = {"reps": cfg["reps"], "seed": cfg["seed"], "config_hash": config_hash(cfg)}
        write_output([row | run for row in _RUNNERS[cfg["subcommand"]](cfg)], cfg, started)
    except (ConfigError, experiments.IncompatibleConfiguration) as exc:
        print(f"invlab: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numeric or I/O failure
        print(f"invlab: error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
