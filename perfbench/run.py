"""paretoproc benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The harness makes the workload's
inputs from --seed, runs the package through ``paretoproc.cli.main`` in fresh
single-threaded worker processes (perfbench/worker.py), checks every output
file, and prints one metric per line followed by a JSON summary as the last
line. With --trace 0 the summary holds the end-to-end metrics of
BENCHMARK.json; with --trace 1 it holds the per-layer metrics, measured in a
run where perfbench/tracing.py wraps the package's functions. Each run also
writes .perfbench/results/<workload>-seed<N>-trace<T>.json with the machine
record, every pass, every check, the output digests and, when traced, the
spans.

Exit codes: 0 after a completed run (its correctness is in the summary),
2 when the checkout holds no paretoproc sources or a worker fails.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from worker import sha256_file  # noqa: E402

SETUP_REPEATS = 3  # fresh processes per untraced run; setup_s is their median
RUN_LIMIT_S = 170.0  # every run must end within 180 s
WORK = Path(".perfbench")
# one BLAS/OpenMP thread per worker keeps timings steady on a shared 2-core box
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# A workload is a sequence of parts, each one of the package's CLI jobs at a
# fixed configuration. write_read holds the jobs that write and read CSV,
# sample_check the jobs that draw profiles and max-stable fields; so a writer
# or reader change shows on the first and not the second, and a sampling
# kernel change the other way round. The flag says whether the whole pass is
# one client request (write_read: its jobs take 1.0-1.2 s each, so per-job
# latency percentiles would fall in the gap between two jobs).
WORKLOADS = {
    "write_read": (("simulate", "scenario_lift"), True),
    "sample_check": (("maxstable", "df_battery"), False),
}
# Fixed configurations; "tiny" exists for perfbench/selftest.py only. A pass
# takes about 2 s, so a run holds 20 or more: the speed of a shared 2-core VM
# drifts by +-10% over seconds and by up to 1.4x in episodes of 20 s or more,
# and only a median over many passes of a long run rides such an episode out.
SIZES = {
    "full": {
        "simulate": {"sites": 101, "n": 2_000},
        "maxstable": {"sites": 101, "n": 1_000, "n_block": 50, "n_rep": 4_000},
        "df_battery": {"sites": 51, "n_mc": 10_000, "n_direct": 20_000, "sets": 5},
        "scenario_lift": {"sites": 101, "n": 2_000, "k": 20, "t0": 10.0},
    },
    "tiny": {
        "simulate": {"sites": 11, "n": 300},
        "maxstable": {"sites": 11, "n": 300, "n_block": 50, "n_rep": 2_000},
        "df_battery": {"sites": 11, "n_mc": 2_000, "n_direct": 4_000, "sets": 1},
        "scenario_lift": {"sites": 21, "n": 1_000, "k": 40, "t0": 10.0},
    },
}
# (family, sites or None for the configured count, batteries per input set).
# gaussian_moving_max, the family the kernel work targets, gets twice the
# queries; that also puts the median query inside one family's latency
# cluster instead of in the gap between two.
BATTERY_SPECS = (("constant", None, 1), ("gaussian_moving_max", None, 2),
                 ("rescaled_positive_field", None, 1), ("bernoulli_pair", 2, 1))


# A plan holds one or more input "sets"; pass i runs set i % len(sets). A set
# lists its requests (one client request is one or more CLI calls made back
# to back; op_p50_s and op_p90_s are request latencies) and its output files.
def _plan_simulate(cfg: dict, seed: int, work: Path) -> dict:
    out = work / "out"
    argv = ["simulate", "--spec", "gaussian_moving_max", "--sites", str(cfg["sites"]),
            "--n", str(cfg["n"]), "--seed", str(seed), "--out", str(out)]
    outputs = [str(out / f) for f in ("samples.csv", "radii.csv", "manifest.json")]
    return {"sets": [{"requests": [[argv]], "outputs": outputs}], "out": str(out),
            "n": cfg["n"], "sites": cfg["sites"], "omega0": 1.0}


def _plan_maxstable(cfg: dict, seed: int, work: Path) -> dict:
    out = work / "out"
    argv = ["maxstable-check", "--spec", "gaussian_moving_max", "--sites", str(cfg["sites"]),
            "--n", str(cfg["n"]), "--n-block", str(cfg["n_block"]), "--n-rep", str(cfg["n_rep"]),
            "--seed", str(seed), "--out", str(out)]
    outputs = [str(out / f) for f in ("maxstable_report.json", "manifest.json")]
    return {"sets": [{"requests": [[argv]], "outputs": outputs}], "out": str(out),
            "n": cfg["n"], "n_rep": cfg["n_rep"],
            "prep": {"spec": "gaussian_moving_max", "sites": cfg["sites"], "truncation": 1e-4}}


def _default_battery(m: int) -> list[tuple[str, list[float]]]:
    """The CLI's built-in five queries, written out as query files."""
    coords = [i / (m - 1) for i in range(m)]
    return [("LEQ", [2.0] * m), ("LEQ", [5.0] * m), ("LEQ", [1.5 + c for c in coords]),
            ("GT", [1.2] * m), ("NOT_LEQ", [3.0] * m)]


def _plan_df_battery(cfg: dict, seed: int, work: Path) -> dict:
    """One CLI call per query, so that per-query latency is observable. Each
    input set holds, per family, its number of batteries x 5 queries; the
    sets differ in their battery seeds."""
    sets, battery_outputs, inputs = [], [], []
    (work / "queries").mkdir(parents=True, exist_ok=True)
    for s in range(cfg["sets"]):
        requests, outputs = [], []
        for kind, fixed_sites, weight in BATTERY_SPECS:
            m = fixed_sites or cfg["sites"]
            batteries = weight * cfg["sets"]
            for b in range(s * weight, (s + 1) * weight):
                for i, (mode, w) in enumerate(_default_battery(m)):
                    query_seed = 5 * (batteries * seed + b) + i
                    name = f"{kind}-{b}-{i}"
                    qfile = work / "queries" / f"{name}.json"
                    qfile.write_text(json.dumps(
                        [{"mode": mode, "w": w, "n_mc": cfg["n_mc"], "seed": query_seed}]))
                    inputs.append(qfile.read_text())
                    out = work / "out" / name
                    requests.append([["df-battery", "--spec", kind, "--sites", str(m),
                                      "--queries", str(qfile), "--n-direct", str(cfg["n_direct"]),
                                      "--seed", str(query_seed), "--out", str(out)]])
                    outputs += [str(out / "battery.csv"), str(out / "manifest.json")]
        sets.append({"requests": requests, "outputs": outputs})
        battery_outputs += outputs[::2]
    return {"sets": sets, "battery_outputs": battery_outputs, "inputs": inputs}


def _plan_scenario_lift(cfg: dict, seed: int, work: Path) -> dict:
    """One request: scenario43 writes source.csv, lift reads it back."""
    scen, lifted = work / "scenario", work / "lift"
    common = ["--sites", str(cfg["sites"]), "--k", str(cfg["k"]), "--t0", str(cfg["t0"]),
              "--seed", str(seed)]
    request = [["scenario43", "--n", str(cfg["n"]), *common, "--out", str(scen)],
               ["lift", "--data", str(scen / "source.csv"), *common, "--out", str(lifted)]]
    report = ("norming.json", "selected.csv", "lifted.csv", "normalized.csv", "manifest.json")
    outputs = [str(scen / "source.csv")] + [str(d / f) for d in (scen, lifted) for f in report]
    return {"sets": [{"requests": [request], "outputs": outputs}], "scenario_out": str(scen),
            "lift_out": str(lifted), "n": cfg["n"], "sites": cfg["sites"], "t0": cfg["t0"]}


PARTS = {
    "simulate": _plan_simulate,
    "maxstable": _plan_maxstable,
    "df_battery": _plan_df_battery,
    "scenario_lift": _plan_scenario_lift,
}


def _plan(workload: str, size: str, seed: int, work: Path) -> dict:
    """Input set i of the workload runs input set i of each part in turn (a
    part with fewer sets repeats them)."""
    names, one_request = WORKLOADS[workload]
    parts = {name: PARTS[name](SIZES[size][name], seed, work / name) for name in names}
    sets = []
    for i in range(max(len(part["sets"]) for part in parts.values())):
        requests, outputs = [], []
        for part in parts.values():
            chosen = part["sets"][i % len(part["sets"])]
            requests += chosen["requests"]
            outputs += chosen["outputs"]
        if one_request:
            requests = [[argv for request in requests for argv in request]]
        sets.append({"requests": requests, "outputs": outputs})
    prep = next((part["prep"] for part in parts.values() if "prep" in part), None)
    for part in parts.values():
        del part["sets"]
    return {"sets": sets, "parts": parts, "prep": prep}


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(Path("src/paretoproc").rglob("*.py")):
        digest.update(path.as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _machine(source_sha: str) -> dict:
    cpu_model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{index}/size")
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True).stdout.split()
        commit = top[1] if Path(top[0]).resolve() == Path.cwd().resolve() else None
    except (OSError, subprocess.SubprocessError, IndexError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": THREAD_ENV,
        "git_commit": commit,
        "source_sha256": source_sha,
    }


def _spawn(plan_path: Path, result_path: Path, deadline: float) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env.pop("PARETOPROC_OUTDIR", None)
    env["PERFBENCH_SPAWNED"] = repr(time.clock_gettime(time.CLOCK_MONOTONIC))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
                          env=env, timeout=max(1.0, deadline - time.monotonic()),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text())


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile, inclusive interpolation (the value itself for one sample)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _determinism(passes: list[dict], store: Path, key: str) -> list[tuple[str, bool, str]]:
    """Same seed, same code: every pass of an input set and every earlier
    run agree byte for byte."""
    first: dict[int, dict] = {}
    for p in passes:
        first.setdefault(p["set"], p["digests"])
    result = [("digests_equal_across_passes", all(p["digests"] == first[p["set"]] for p in passes),
               f"{len(passes)} passes over {len(first)} input sets")]
    merged = {path: digest for d in first.values() for path, digest in d.items()}
    final = {path: sha256_file(path) for path in merged}
    result.append(("digests_equal_on_disk", final == merged, "files re-read after the run"))
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known:
        result.append(("digests_equal_to_earlier_run", known[key] == merged, key))
    else:
        known[key] = merged
        store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return result


def run(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    work = WORK / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (WORK / "results").mkdir(parents=True, exist_ok=True)

    plan = _plan(args.workload, args.size, args.seed, work)
    plan.update(seconds=args.seconds, trace=bool(args.trace), passes=True)
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    setup_plan = work / "setup-plan.json"
    setup_plan.write_text(json.dumps(dict(plan, passes=False)))

    setups = []
    if not args.trace:
        for i in range(SETUP_REPEATS - 1):
            setups.append(_spawn(setup_plan, work / f"setup-{i}.json", deadline))
    main = _spawn(plan_path, work / "worker.json", deadline)
    setups.append(main)

    found = []
    for name, part in plan["parts"].items():
        if args.corrupt:
            checks.corrupt(name, part)
        found += [(f"{name}.{check}", passed, detail)
                  for check, passed, detail in checks.CHECKS[name](part)]
    source_sha = _source_digest()
    all_passes = [main["warmup"], *main["passes"], *main.get("traced_passes", [])]
    # outputs are pinned to the code and to the inputs, never across commits
    inputs_sha = hashlib.sha256(json.dumps([plan["sets"], plan.get("inputs")]).encode()).hexdigest()
    found += _determinism(all_passes, WORK / "digests.json",
                          f"{args.workload}/seed{args.seed}/{source_sha[:16]}/{inputs_sha[:16]}")
    failed = [c for c in found if not c[1]]

    untraced_wall = statistics.median(p["wall_s"] for p in main["passes"])
    if args.trace:
        traced = main["traced_passes"]
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        values["init.import_s"] = main["import_s"]
        values["maxstable.penrose_setup_s"] = main["prep_s"]
        values["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - untraced_wall
        wanted = spec["per_layer"]
    else:
        ops = [t for p in main["passes"] for t in p["op_s"]]
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": untraced_wall,
            "peak_rss_mb": main["peak_rss_mb"],
            "op_p50_s": _quantile(ops, 50),
            "op_p90_s": _quantile(ops, 90),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "corrupted": args.corrupt, "parts": list(plan["parts"]),
        "machine": _machine(source_sha),
        "metrics": metrics,
        "failed_frac": len(failed) / len(found),
        "checks": [{"name": n, "passed": bool(p), "detail": d} for n, p, d in found],
        "setups": [{k: s[k] for k in ("import_s", "prep_s", "setup_s")} for s in setups],
        "warmup": main["warmup"],
        "passes": main["passes"],
        "traced_passes": main.get("traced_passes", []),
        "peak_rss_mb": main["peak_rss_mb"],
        "spans": main.get("spans", []),
        "missing_targets": main.get("missing_targets", []),
    }
    results = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.write_text(json.dumps(record, indent=1))
    return {"correct": not failed, "attempted": len(found), "failed": len(failed),
            "metrics": metrics, "failed_checks": [c[0] for c in failed], "results": str(results)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=tuple(SIZES),
                        help="input size; tiny is for the self-test")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage one output before checking it (self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not Path("src/paretoproc/cli.py").is_file():
        print("run.py: no src/paretoproc here; run from the root of a paretoproc checkout",
              file=sys.stderr)
        return 2
    try:
        summary = run(args)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"run.py: {args.workload} failed: {exc}", file=sys.stderr)
        return 2
    for name in summary["failed_checks"]:
        print(f"FAILED CHECK {name}")
    for name, m in summary["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"checks {summary['attempted'] - summary['failed']}/{summary['attempted']} passed; "
          f"results in {summary['results']}")
    print(json.dumps({k: summary[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
