"""Command-line front end.

One JSON config document plus command-line flags (flags win) drive six
commands, each taking only the options ``_COMMAND_TABLE`` lists for it; every
option is declared once, with its type and default, in ``_OPTION_TABLE``.
Every run but verify-all (whose checks are calibrated at ``verify.SEED``)
requires an explicit seed; every run uses one named random stream per logical
task, and writes a manifest sufficient to reproduce it last, with ``status``
"ok" or "failed" (none if the command raises); identical config and seed give
byte-identical outputs. Outputs are plot-ready CSV/JSON only, rendering is
left to external tools.

Exit codes: 0 on success, 1 on any failed verification in verify-all,
2 on configuration, input or domain errors, or an array too large to
allocate, reported as one line on stderr.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.metadata
import json
import os
import sys
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .dfeval import battery_to_csv, default_battery, queries_from_json, run_battery
from .errors import ParetoProcError
from .grid import Grid
from .lifting import (
    estimate_norming,
    field_sample_from_csv,
    field_sample_to_csv,
    lift,
    run_storm_scenario,
    write_lift_report,
)
from .maxstable import PenroseConfig, check_doa_arguments, construction_checks, doa_empirical_check
from .pareto import export_batch_csv, sample_simple_pareto_batch
from .rng import make_rng
from .spectral import SpectralProfileSpec
from .verify import SEED, format_line, run_all


# config key -> its type, default, help and flag (--key with "-" for "_"
# unless given); the default fills what neither the config file nor a flag sets
_Option = namedtuple("_Option", "type default help flag", defaults=("",))
_OPTION_TABLE = {
    "seed": _Option(int, None, "random seed (required here or in the config)"),
    "out": _Option(str, None, "output directory (default: env PARETOPROC_OUTDIR or ./paretoproc-out)"),
    "sites": _Option(int, 101, "sites per axis"),
    "lo": _Option(float, 0.0, "domain lower bound"),
    "hi": _Option(float, 1.0, "domain upper bound"),
    "dim": _Option(int, 1, "domain dimension (1-3)"),
    "kind": _Option(str, "constant", "spectral profile kind", "--spec"),
    "omega0": _Option(float, 1.0, "profile supremum"),
    "bandwidth": _Option(float, 0.1, "gaussian_moving_max bump width"),
    "corr_length": _Option(float, 0.3, "rescaled_positive_field covariance length scale"),
    "n": _Option(int, 1000, "number of samples or fields"),
    "queries": _Option(str, None, "JSON battery file (default: built-in five queries)"),
    "n_mc": _Option(int, 10_000, "profiles per built-in query"),
    "n_direct": _Option(int, 20_000, "direct-simulation samples per query"),
    "truncation": _Option(float, 1e-4, "smallest Poisson point kept"),
    "n_block": _Option(int, 50, "block size of the domain-of-attraction checks"),
    "n_rep": _Option(int, 20_000, "blocks of the domain-of-attraction checks"),
    "data": _Option(str, None, "FieldSample CSV (sample_id, site_index, value)"),
    "k": _Option(int, 5, "order-statistic level"),
    "t0": _Option(float, 10.0, "lifting factor"),
    "policy": _Option(str, "sup_anywhere", "selection policy: sup_anywhere or sites"),
    "sites_list": _Option(str, None, "comma-separated site indices for the sites policy"),
    "quick": _Option(bool, False, "run the checks at reduced sizes"),
}

_GRID = ("sites", "lo", "hi", "dim")
_SPEC = ("kind", "omega0", "bandwidth", "corr_length")


@dataclass
class RunConfig:
    """Merged command configuration (config file overridden by flags)."""

    command: str
    seed: int
    outdir: Path
    options: dict = field(default_factory=dict)

    def opt(self, key: str):
        return self.options.get(key, _OPTION_TABLE[key].default)


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process (about 2 ms a build); parsing leaves it unchanged
    parser = _Parser(
        prog="paretoproc",
        description="Simulation and verification of Pareto processes on grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, keys) in _COMMAND_TABLE.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        for key in ("out", *keys):
            o = _OPTION_TABLE[key]
            flag = o.flag or "--" + key.replace("_", "-")
            if o.type is bool:
                p.add_argument(flag, dest=key, action="store_true", default=None, help=o.help)
            else:
                text = o.help if o.default is None else f"{o.help} (default: {o.default})"
                p.add_argument(flag, dest=key, type=o.type, help=text)
    return parser


def _typed(key: str, value):
    """A config-file value typed like its flag: a number converts from its
    JSON text as the flag's text would (so 2.7, true and 1e300 are no int);
    strings and booleans must already be JSON strings and booleans."""
    kind = _OPTION_TABLE[key].type
    if kind in (str, bool):
        if isinstance(value, kind):
            return value
    else:
        try:
            return kind(value if isinstance(value, str) else json.dumps(value))
        except ValueError:
            pass
    raise ConfigError(f"config value {key}={value!r}: expected {kind.__name__}")


def _merge_config(args: argparse.Namespace) -> RunConfig:
    keys = ("out", *_COMMAND_TABLE[args.command][2])
    options: dict = {}
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
        for key, value in doc.items():
            if key not in keys:
                raise ConfigError(f"config {args.config}: {args.command} has no option {key!r}")
            options[key] = _typed(key, value)
    options.update((k, v) for k, v in vars(args).items() if k in keys and v is not None)
    # a command without a seed option runs at the seed its checks are calibrated at
    seed = options.pop("seed", None) if "seed" in keys else SEED
    if seed is None:
        raise ConfigError("a seed is required (pass --seed or put 'seed' in the config)")
    out = options.pop("out", None) or os.environ.get("PARETOPROC_OUTDIR") or "paretoproc-out"
    cfg = RunConfig(args.command, seed, Path(out), options)
    if cfg.opt("sites") < 2:
        raise ConfigError("site count must be >= 2")
    if not 1 <= cfg.opt("dim") <= 3:
        raise ConfigError("dim must be 1, 2 or 3")
    for key in ("lo", "hi"):
        if not np.isfinite(cfg.opt(key)):
            raise ConfigError(f"--{key} must be finite, not {cfg.opt(key)}")
    return cfg


def _build_grid(cfg: RunConfig) -> Grid:
    # lift takes no --lo/--hi: its grid's coordinates reach no output
    axes = [np.linspace(cfg.opt("lo"), cfg.opt("hi"), cfg.opt("sites"))] * cfg.opt("dim")
    mesh = np.meshgrid(*axes, indexing="ij")
    return Grid(np.column_stack([m.ravel() for m in mesh]))


def _build_spec(cfg: RunConfig) -> SpectralProfileSpec:
    return SpectralProfileSpec(**{key: cfg.opt(key) for key in _SPEC})


@functools.cache
def _scipy_version() -> str:
    # read from package metadata (about 6 ms), once per process: importing
    # scipy just for its version would cost about 0.2 s
    return importlib.metadata.version("scipy")


def _manifest(cfg: RunConfig) -> dict:
    """The run manifest: command, seed, options, versions and config hash."""
    doc = {
        "command": cfg.command,
        "seed": cfg.seed,
        "options": dict(sorted(cfg.options.items())),
        "versions": {
            "paretoproc": __version__,
            "numpy": np.__version__,
            "scipy": _scipy_version(),
            "python": sys.version.split()[0],
        },
    }
    doc["config_sha256"] = hashlib.sha256(
        json.dumps({k: doc[k] for k in ("command", "seed", "options")}, sort_keys=True).encode()
    ).hexdigest()
    return doc


def _cmd_simulate(cfg: RunConfig) -> int:
    grid = _build_grid(cfg)
    spec = _build_spec(cfg)
    rng = make_rng(cfg.seed, "simulate")
    y, v, w = sample_simple_pareto_batch(spec, grid, cfg.opt("n"), rng)
    export_batch_csv(y, v, w, cfg.outdir / "samples.csv", cfg.outdir / "radii.csv")
    return 0


def _cmd_df_battery(cfg: RunConfig) -> int:
    grid = _build_grid(cfg)
    spec = _build_spec(cfg)
    if cfg.opt("queries"):
        if "n_mc" in cfg.options:
            raise ConfigError("--n-mc does not apply with --queries: each query sets its own n_mc")
        queries = queries_from_json(cfg.opt("queries"), grid)
    else:
        queries = default_battery(grid, n_mc=cfg.opt("n_mc"), seed=cfg.seed, omega0=spec.omega0)
    rows = run_battery(spec, grid, queries, n_direct=cfg.opt("n_direct"), seed=cfg.seed)
    battery_to_csv(rows, cfg.outdir / "battery.csv")
    for row in rows:
        print(f"query {row.query_id} [{row.mode}]: formula {row.estimate:.5f} "
              f"vs direct {row.oracle_estimate:.5f} -> {'ok' if row.passed else 'MISMATCH'}")
    return 0


def _cmd_maxstable_check(cfg: RunConfig) -> int:
    pcfg = PenroseConfig(_build_spec(cfg), _build_grid(cfg), truncation=cfg.opt("truncation"))
    kinds, n_block, n_rep = ("pareto", "maxstable"), cfg.opt("n_block"), cfg.opt("n_rep")
    # each part draws on its own stream; an n_block either DOA arm rejects, or
    # an n the construction checks reject, fails before the DOA arms draw
    for kind in kinds:
        check_doa_arguments(pcfg, n_block, n_rep, kind)
    report = {"checks": construction_checks(pcfg, cfg.opt("n"), cfg.seed)}
    for kind in kinds:
        rng = make_rng(cfg.seed, f"doa_{kind}")
        report[f"doa_{kind}"] = doa_empirical_check(pcfg, n_block, n_rep, rng, kind)
    text = json.dumps(report, indent=2, sort_keys=True, default=asdict)
    (cfg.outdir / "maxstable_report.json").write_text(text)
    for c in report["checks"]:
        print(c)
    return 0


def _cmd_lift(cfg: RunConfig) -> int:
    grid = _build_grid(cfg)
    data_path = cfg.opt("data")
    if not data_path:
        raise ConfigError("lift requires --data pointing at a FieldSample CSV")
    if "sites_list" in cfg.options and cfg.opt("policy") != "sites":
        raise ConfigError("--sites-list applies only with --policy sites")
    data = field_sample_from_csv(data_path, grid)
    nf = estimate_norming(data, cfg.opt("k"))
    sites_list = cfg.opt("sites_list")
    sites = [int(s) for s in sites_list.split(",")] if sites_list else None
    report = lift(data, nf, cfg.opt("t0"), policy=cfg.opt("policy"), sites=sites)
    write_lift_report(report, cfg.outdir, extra_manifest={"policy": cfg.opt("policy")})
    print(f"selected {len(report.selected_ids)} of {data.n} fields")
    return 0


def _cmd_scenario43(cfg: RunConfig) -> int:
    rng = make_rng(cfg.seed, "scenario43")
    report = run_storm_scenario(
        cfg.opt("n"), cfg.opt("k"), cfg.opt("t0"), rng,
        n_sites=cfg.opt("sites"),
    )
    field_sample_to_csv(report.source, cfg.outdir / "source.csv")
    write_lift_report(report, cfg.outdir)
    print(f"selected {len(report.selected_ids)} of {report.source.n} fields; "
          f"figure data in {cfg.outdir}")
    return 0


def _cmd_verify_all(cfg: RunConfig) -> int:
    results = run_all(quick=cfg.opt("quick"))
    for r in results:
        print(format_line(r))
    (cfg.outdir / "verify_report.json").write_text(json.dumps([asdict(r) for r in results], indent=2))
    return 0 if all(r.passed for r in results) else 1


# command -> (runner, help, the options the runner reads); every command also
# takes --config and --out
_COMMAND_TABLE = {
    "simulate": (_cmd_simulate, "draw simple Pareto samples", ("seed", *_GRID, *_SPEC, "n")),
    "df-battery": (_cmd_df_battery, "formula vs direct-frequency battery",
                   ("seed", *_GRID, *_SPEC, "queries", "n_mc", "n_direct")),
    "maxstable-check": (_cmd_maxstable_check, "max-stable construction checks",
                        ("seed", *_GRID, *_SPEC, "n", "truncation", "n_block", "n_rep")),
    "lift": (_cmd_lift, "estimate norming, select and lift observed fields",
             ("seed", "sites", "dim", "data", "k", "t0", "policy", "sites_list")),
    "scenario43": (_cmd_scenario43,
                   "end-to-end powered moving-maximum lifting scenario on [0, 1]",
                   ("seed", "sites", "n", "k", "t0")),
    "verify-all": (_cmd_verify_all, "run the verification suite", ("quick",)),
}


def run(cfg: RunConfig) -> int:
    """Execute a merged configuration; artifacts land in cfg.outdir. The
    manifest is written last, keeping the keys a lift report put there."""
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    path = cfg.outdir / "manifest.json"
    path.unlink(missing_ok=True)
    code = _COMMAND_TABLE[cfg.command][0](cfg)
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.update(_manifest(cfg), status="ok" if code == 0 else "failed")
    tmp = path.with_name("manifest.json.tmp")
    tmp.write_text(json.dumps(doc, indent=2, sort_keys=True))
    os.replace(tmp, path)
    return code


def main(argv=None) -> int:
    try:
        return run(_merge_config(_build_parser().parse_args(argv)))
    except (ConfigError, ParetoProcError, ValueError, OSError, MemoryError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
