"""One benchmark process: import the package, prepare, then run passes of a
workload plan through ``paretoproc.cli.main`` until the time budget is spent.

Usage: python3 perfbench/worker.py PLAN.json RESULT.json

The plan (written by run.py) lists one or more input sets, each with the
requests of one pass (a request is one or more CLI calls made back to back
for one client) and the output files to digest; passes take the sets in
turn. It also names the preparation step, the time budget and whether to
trace.
The parent passes its CLOCK_MONOTONIC reading at spawn time in
PERFBENCH_SPAWNED so that set-up time covers interpreter start-up as well.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

from tracing import Tracer, layer_metrics


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _prepare(prep: dict | None) -> float:
    """One-time preparation that users pay once per process; returns seconds."""
    if not prep:
        return 0.0
    import paretoproc

    start = time.perf_counter()
    paretoproc.PenroseConfig(
        paretoproc.SpectralProfileSpec(prep["spec"]),
        paretoproc.Grid.regular(prep["sites"]),
        truncation=prep["truncation"],
    )
    return time.perf_counter() - start


def _run_pass(cli, plan: dict, tracer, index: int) -> dict:
    """One pass over input set ``index % len(sets)``; index -1 is the warm-up."""
    set_index = max(index, 0) % len(plan["sets"])
    inputs = plan["sets"][set_index]
    op_s = []
    first_span = len(tracer.spans) if tracer is not None else 0
    start = time.perf_counter()
    for j, request in enumerate(inputs["requests"]):
        if tracer is not None:
            tracer.run_id = f"{index}.{j}"
        t = time.perf_counter()
        for argv in request:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"paretoproc {' '.join(argv)} exited with {code}")
        op_s.append(time.perf_counter() - t)
    wall_s = time.perf_counter() - start
    result = {"set": set_index, "wall_s": wall_s, "op_s": op_s,
              "digests": {path: sha256_file(path) for path in inputs["outputs"]}}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans[first_span:])
    return result


def _run_passes(cli, plan: dict, deadline: float, tracer=None, first: int = 0) -> list[dict]:
    """Passes until the next one would end after ``deadline`` (perf_counter
    time); at least one per input set, so that every set's outputs exist."""
    passes = []
    while True:
        passes.append(_run_pass(cli, plan, tracer, first + len(passes)))
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= len(plan["sets"]) and time.perf_counter() + typical > deadline:
            return passes


def main(plan_path: str, result_path: str) -> None:
    spawned = float(os.environ["PERFBENCH_SPAWNED"])
    with open(plan_path) as fh:
        plan = json.load(fh)

    start = time.perf_counter()
    import paretoproc.cli as cli

    import_s = time.perf_counter() - start
    prep_s = _prepare(plan.get("prep"))
    result = {"import_s": import_s, "prep_s": prep_s, "setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - spawned}

    # the run measures for plan["seconds"], warm-up included
    start = time.perf_counter()
    end = start + plan["seconds"]
    if plan["passes"]:
        # the first pass in a process faults in its working set; it is
        # recorded but kept out of the medians
        result["warmup"] = _run_pass(cli, plan, None, -1)
        if plan["trace"]:
            half = start + plan["seconds"] / 2
            result["passes"] = _run_passes(cli, plan, half)
            tracer = Tracer()
            tracer.install()
            result["traced_passes"] = _run_passes(cli, plan, end, tracer, first=len(result["passes"]))
            tracer.uninstall()
            result["spans"] = tracer.spans
            result["missing_targets"] = tracer.missing
        else:
            result["passes"] = _run_passes(cli, plan, end)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
