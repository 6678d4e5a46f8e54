"""Tiny-size self-test of the benchmark harness (about a minute).

    python3 perfbench/selftest.py

Run from the root of a paretoproc checkout. For every workload it runs
run.py at the tiny size, untraced and traced, and checks that the summary
line names every metric of BENCHMARK.json with its unit and that all output
checks pass. It then damages one output of each part of each workload and
checks that every damage is counted in failed_frac, that layers.json covers exactly the
per-layer metrics, and that run.py refuses a directory without sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = [sys.executable, str(HERE / "run.py"), "--seconds", "1", "--size", "tiny"]


def _run(*args: str, cwd: str | None = None) -> tuple[int, dict | None]:
    proc = subprocess.run(RUN + list(args), capture_output=True, text=True, cwd=cwd, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = []

    layers = json.loads((HERE / "layers.json").read_text())["metrics"]
    if set(layers) != {m["name"] for m in spec["per_layer"]}:
        problems.append("layers.json and BENCHMARK.json per_layer name different metrics")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            code, summary = _run("--workload", workload, "--seed", "0", "--trace", trace)
            where = f"{workload} --trace {trace}"
            if code != 0 or summary is None:
                problems.append(f"{where}: exit {code}, no summary")
                continue
            if set(summary) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: summary keys {sorted(summary)}")
            expected = {m["name"]: m["unit"] for m in wanted}
            printed = {k: v.get("unit") for k, v in summary["metrics"].items()}
            if printed != expected:
                problems.append(f"{where}: metrics/units differ: {sorted(set(printed.items()) ^ set(expected.items()))}")
            if any(not isinstance(v.get("value"), (int, float)) for v in summary["metrics"].values()):
                problems.append(f"{where}: a metric value is not a number")
            if not summary["correct"] or summary["failed"] or summary["attempted"] < 1:
                problems.append(f"{where}: checks failed on clean output: {summary['failed']}/{summary['attempted']}")

        code, summary = _run("--workload", workload, "--seed", "0", "--trace", "0", "--corrupt")
        results = Path(".perfbench/results") / f"{workload}-seed0-trace0.json"
        record = json.loads(results.read_text()) if results.exists() else {"failed_frac": 0.0, "parts": []}
        failed_frac = record["failed_frac"]
        if code != 0 or summary is None or summary["correct"] or not summary["failed"] or not failed_frac > 0:
            problems.append(f"{workload}: corrupted output not counted (failed_frac {failed_frac})")
        for part in record["parts"]:
            if not any(c["name"].startswith(f"{part}.") and not c["passed"] for c in record["checks"]):
                problems.append(f"{workload}: corrupted {part} output not counted")

    bare = Path(".perfbench/bare")
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "write_read", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run.py did not refuse a directory without sources")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
