"""Command-line front end.

One JSON config document plus command-line flags (flags win) drive six
commands: simulate, df-battery, maxstable-check, lift, scenario43 and
verify-all. Every run requires an explicit seed, uses one named random
stream per logical task, and writes a manifest sufficient to reproduce it
last, with ``status`` "ok" or "failed" (none if the command raises);
identical config and seed give byte-identical outputs. Outputs are plot-ready
CSV/JSON only, rendering is left to external tools.

Exit codes: 0 on success, 1 on any failed verification in verify-all,
2 on configuration, input or domain errors, reported as one line on stderr.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

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
from .maxstable import PenroseConfig, construction_checks, doa_empirical_check
from .pareto import export_batch_csv, sample_simple_pareto_batch
from .rng import make_rng
from .spectral import SpectralProfileSpec
from .verify import format_line, run_all

COMMANDS = ("simulate", "df-battery", "maxstable-check", "lift", "scenario43", "verify-all")

_DEFAULTS = {
    "sites": 101,
    "lo": 0.0,
    "hi": 1.0,
    "dim": 1,
    "kind": "constant",
    "omega0": 1.0,
    "bandwidth": 0.1,
    "corr_length": 0.3,
    "n": 1000,
    "n_mc": 10_000,
    "n_direct": 20_000,
    "n_block": 50,
    "n_rep": 20_000,
    "truncation": 1e-4,
    "k": 5,
    "t0": 10.0,
    "policy": "sup_anywhere",
}


@dataclass
class RunConfig:
    """Merged command configuration (config file overridden by flags)."""

    command: str
    seed: int
    outdir: Path
    options: dict = field(default_factory=dict)

    def opt(self, key: str):
        return self.options.get(key, _DEFAULTS.get(key))


class ConfigError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paretoproc",
        description="Simulation and verification of Pareto processes on grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--seed", type=int, help="random seed (required here or in the config)")
    common.add_argument("--out", help="output directory (default: env PARETOPROC_OUTDIR or ./paretoproc-out)")
    common.add_argument("--sites", type=int, help="sites per axis")
    common.add_argument("--lo", type=float, help="domain lower bound")
    common.add_argument("--hi", type=float, help="domain upper bound")
    common.add_argument("--dim", type=int, help="domain dimension (1-3)")
    common.add_argument("--spec", dest="kind", help="spectral profile kind")
    common.add_argument("--omega0", type=float)
    common.add_argument("--bandwidth", type=float)
    common.add_argument("--corr-length", dest="corr_length", type=float)

    p = sub.add_parser("simulate", parents=[common], help="draw simple Pareto samples")
    p.add_argument("--n", type=int, help="number of samples")

    p = sub.add_parser("df-battery", parents=[common], help="formula vs direct-frequency battery")
    p.add_argument("--queries", help="JSON battery file (default: built-in five queries)")
    p.add_argument("--n-mc", dest="n_mc", type=int)
    p.add_argument("--n-direct", dest="n_direct", type=int)

    p = sub.add_parser("maxstable-check", parents=[common], help="max-stable construction checks")
    p.add_argument("--n", type=int, help="samples for the marginal/m-max checks")
    p.add_argument("--truncation", type=float)
    p.add_argument("--n-block", dest="n_block", type=int)
    p.add_argument("--n-rep", dest="n_rep", type=int)

    p = sub.add_parser("lift", parents=[common], help="estimate norming, select and lift observed fields")
    p.add_argument("--data", help="FieldSample CSV (sample_id, site_index, value)", required=False)
    p.add_argument("--k", type=int, help="order-statistic level")
    p.add_argument("--t0", type=float, help="lifting factor")
    p.add_argument("--policy", choices=["sup_anywhere", "sites"])
    p.add_argument("--sites-list", dest="sites_list", help="comma-separated site indices for the sites policy")

    p = sub.add_parser("scenario43", parents=[common], help="end-to-end powered moving-maximum lifting scenario")
    p.add_argument("--n", type=int, help="number of generated fields")
    p.add_argument("--k", type=int)
    p.add_argument("--t0", type=float)

    p = sub.add_parser("verify-all", parents=[common], help="run the verification suite")
    p.add_argument("--quick", action="store_true", default=None)
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    options: dict = {}
    if args.config:
        try:
            options.update(json.loads(Path(args.config).read_text()))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        options[key] = value
    seed = options.pop("seed", None)
    if seed is None:
        raise ConfigError("a seed is required (pass --seed or put 'seed' in the config)")
    out = options.pop("out", None) or os.environ.get("PARETOPROC_OUTDIR") or "paretoproc-out"
    cfg = RunConfig(args.command, int(seed), Path(out), options)
    if int(cfg.opt("sites")) < 2:
        raise ConfigError("site count must be >= 2")
    if not 1 <= int(cfg.opt("dim")) <= 3:
        raise ConfigError("dim must be 1, 2 or 3")
    return cfg


def _build_grid(cfg: RunConfig) -> Grid:
    n, lo, hi, dim = (int(cfg.opt("sites")), float(cfg.opt("lo")),
                      float(cfg.opt("hi")), int(cfg.opt("dim")))
    if dim == 1:
        return Grid.regular(n, lo, hi)
    axes = [np.linspace(lo, hi, n)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    return Grid(np.column_stack([m.ravel() for m in mesh]))


def _build_spec(cfg: RunConfig) -> SpectralProfileSpec:
    return SpectralProfileSpec.from_config(
        {key: cfg.opt(key) for key in ("kind", "omega0", "bandwidth", "corr_length")}
    )


def _manifest(cfg: RunConfig) -> dict:
    """The run manifest: command, seed, options, versions and config hash."""
    doc = {
        "command": cfg.command,
        "seed": cfg.seed,
        "options": {k: str(v) if isinstance(v, Path) else v for k, v in sorted(cfg.options.items())},
        "versions": {
            "paretoproc": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
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
    y, v, w = sample_simple_pareto_batch(spec, grid, int(cfg.opt("n")), rng)
    export_batch_csv(y, v, w, cfg.outdir / "samples.csv", cfg.outdir / "radii.csv")
    return 0


def _cmd_df_battery(cfg: RunConfig) -> int:
    grid = _build_grid(cfg)
    spec = _build_spec(cfg)
    if cfg.options.get("queries"):
        queries = queries_from_json(cfg.options["queries"], grid)
    else:
        queries = default_battery(grid, n_mc=int(cfg.opt("n_mc")), seed=cfg.seed)
    rows = run_battery(spec, grid, queries, n_direct=int(cfg.opt("n_direct")), seed=cfg.seed)
    battery_to_csv(rows, cfg.outdir / "battery.csv")
    for row in rows:
        print(f"query {row.query_id} [{row.mode}]: formula {row.estimate:.5f} "
              f"vs direct {row.oracle_estimate:.5f} -> {'ok' if row.passed else 'MISMATCH'}")
    return 0


def _cmd_maxstable_check(cfg: RunConfig) -> int:
    grid = _build_grid(cfg)
    spec = _build_spec(cfg)
    pcfg = PenroseConfig(spec, grid, truncation=float(cfg.opt("truncation")))
    checks = construction_checks(pcfg, int(cfg.opt("n")), cfg.seed)
    report = {
        "checks": checks,
        "doa_pareto": doa_empirical_check(
            pcfg, int(cfg.opt("n_block")), int(cfg.opt("n_rep")),
            make_rng(cfg.seed, "doa_pareto"), input_kind="pareto"),
        "doa_maxstable": doa_empirical_check(
            pcfg, int(cfg.opt("n_block")), int(cfg.opt("n_rep")),
            make_rng(cfg.seed, "doa_maxstable"), input_kind="maxstable"),
    }
    (cfg.outdir / "maxstable_report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    for c in checks:
        print(f"{c['name']}: statistic {c['statistic']:.5f} vs {c['threshold']:.5f} "
              f"-> {'ok' if c['passed'] else 'FAIL'}")
    return 0


def _cmd_lift(cfg: RunConfig) -> int:
    grid = _build_grid(cfg)
    data_path = cfg.options.get("data")
    if not data_path:
        raise ConfigError("lift requires --data pointing at a FieldSample CSV")
    data = field_sample_from_csv(data_path, grid)
    nf = estimate_norming(data, int(cfg.opt("k")))
    sites_list = cfg.options.get("sites_list")
    sites = [int(s) for s in str(sites_list).split(",")] if sites_list else None
    report = lift(data, nf, float(cfg.opt("t0")), policy=cfg.opt("policy"), sites=sites)
    write_lift_report(report, cfg.outdir, extra_manifest={"policy": cfg.opt("policy")})
    print(f"selected {len(report.selected_ids)} of {data.n} fields")
    return 0


def _cmd_scenario43(cfg: RunConfig) -> int:
    rng = make_rng(cfg.seed, "scenario43")
    report = run_storm_scenario(
        int(cfg.opt("n")), int(cfg.opt("k")), float(cfg.opt("t0")), rng,
        n_sites=int(cfg.opt("sites")),
    )
    field_sample_to_csv(report.source, cfg.outdir / "source.csv")
    write_lift_report(report, cfg.outdir)
    print(f"selected {len(report.selected_ids)} of {report.source.n} fields; "
          f"figure data in {cfg.outdir}")
    return 0


def _cmd_verify_all(cfg: RunConfig) -> int:
    quick = bool(cfg.options.get("quick"))
    results = run_all(quick=quick)
    lines = [format_line(r) for r in results]
    for line in lines:
        print(line)
    (cfg.outdir / "verify_report.json").write_text(json.dumps(
        [{"name": r.name, "passed": r.passed, "detail": r.detail, "seconds": r.seconds}
         for r in results], indent=2))
    return 0 if all(r.passed for r in results) else 1


_RUNNERS = {
    "simulate": _cmd_simulate,
    "df-battery": _cmd_df_battery,
    "maxstable-check": _cmd_maxstable_check,
    "lift": _cmd_lift,
    "scenario43": _cmd_scenario43,
    "verify-all": _cmd_verify_all,
}


def run(cfg: RunConfig) -> int:
    """Execute a merged configuration; artifacts land in cfg.outdir. The
    manifest is written last, keeping the keys a lift report put there."""
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    path = cfg.outdir / "manifest.json"
    path.unlink(missing_ok=True)
    code = _RUNNERS[cfg.command](cfg)
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.update(_manifest(cfg), status="ok" if code == 0 else "failed")
    tmp = path.with_name("manifest.json.tmp")
    tmp.write_text(json.dumps(doc, indent=2, sort_keys=True))
    os.replace(tmp, path)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return run(_merge_config(args))
    except (ConfigError, ParetoProcError, ValueError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
