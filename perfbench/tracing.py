"""In-memory span tracer that wraps paretoproc's module-level functions from
outside the package, and the per-layer metrics computed from its spans.

A span is {id, name, start, end, parent, run}; spans of one CLI call share a
run id. Counters are taken by the wrappers from the call's arguments and
result, so the package itself carries no instrumentation.
"""
from __future__ import annotations

import os
import sys
import time
from pathlib import Path


def _profile_counts(args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    rows, cols = result.shape
    return {"kind": spec.kind, "profiles": rows, "cells": rows * cols}


def _path_arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


LIFT_REPORT_FILES = ("norming.json", "selected.csv", "lifted.csv", "normalized.csv", "manifest.json")


def _report_bytes(outdir) -> int:
    return sum(os.path.getsize(Path(outdir) / name) for name in LIFT_REPORT_FILES)


# (module, function, counter) for every call the layers are measured at.
# When a refactor removes or renames a target, its metrics read 0 and the
# results file lists it under "missing_targets".
TARGETS = [
    ("paretoproc.cli", "main", None),
    ("paretoproc.spectral", "sample_profiles", _profile_counts),
    ("paretoproc.pareto", "sample_simple_pareto_batch", None),
    ("paretoproc.pareto", "export_batch_csv",
     lambda a, k, r: {"bytes": os.path.getsize(_path_arg(a, k, 3, "samples_path"))
                      + os.path.getsize(_path_arg(a, k, 4, "radii_path"))}),
    ("paretoproc.maxstable", "sample_max_stable_batch",
     lambda a, k, r: {"fields": r.shape[0]}),
    ("paretoproc.maxstable", "doa_empirical_check", None),
    ("paretoproc.maxstable", "_sup_weighted_angle_sample",
     lambda a, k, r: {"accepted": r.shape[0]}),
    ("paretoproc.maxstable", "sample_moving_maximum_batch", None),
    ("paretoproc.gof", "ks_statistic", None),
    ("paretoproc.gof", "two_sample_ks_pvalue", None),
    ("paretoproc.dfeval", "evaluate", None),
    ("paretoproc.dfeval", "direct_frequency", None),
    ("paretoproc.dfeval", "run_battery",
     lambda a, k, r: {"rows": len(r), "passed": sum(row.passed for row in r)}),
    ("paretoproc.transforms", "apply_T_values", None),
    ("paretoproc.transforms", "invert_T_values", None),
    ("paretoproc.lifting", "field_sample_from_csv",
     lambda a, k, r: {"bytes": os.path.getsize(_path_arg(a, k, 0, "path"))}),
    ("paretoproc.lifting", "field_sample_to_csv",
     lambda a, k, r: {"bytes": os.path.getsize(_path_arg(a, k, 1, "path"))}),
    ("paretoproc.lifting", "write_lift_report",
     lambda a, k, r: {"bytes": _report_bytes(_path_arg(a, k, 1, "outdir"))}),
    ("paretoproc.lifting", "sample_scenario_fields", None),
    ("paretoproc.lifting", "estimate_norming", None),
    ("paretoproc.lifting", "lift",
     lambda a, k, r: {"selected": len(r.selected_ids), "fields": r.source.n}),
]


LAYERS = sorted({module.split(".")[-1] for module, _, _ in TARGETS})


class Tracer:
    """Records spans around the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run_id = ""
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, counter in TARGETS:
            module = sys.modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrapper(f"{module_name.split('.')[-1]}.{attr}", original, counter)
            # rebind every paretoproc name that refers to the function, so calls
            # through `from .x import f` aliases are traced too
            for name, mod in list(sys.modules.items()):
                if name != "paretoproc" and not name.startswith("paretoproc."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def _wrapper(self, name, original, counter):
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
            return result

        return traced


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans (0 where a layer is idle)."""
    dur: dict[str, float] = {}
    self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    counts: dict[str, float] = {}
    by_id = {s["id"]: s for s in spans}
    child_time = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    profiles_in: dict[int, int] = {}  # profiles drawn under each span
    rounds_in: dict[int, int] = {}
    for s in spans:
        d = s["end"] - s["start"]
        dur[s["name"]] = dur.get(s["name"], 0.0) + d
        layer = s["name"].split(".")[0]
        self_s[layer] += d - child_time[s["id"]]
        c = s.get("counts", {})
        for key, value in c.items():
            if key != "kind":
                counts[f"{s['name']}.{key}"] = counts.get(f"{s['name']}.{key}", 0) + value
        if "kind" in c:  # a sample_profiles call
            kind = c["kind"]
            counts[f"profiles.{kind}"] = counts.get(f"profiles.{kind}", 0) + c["profiles"]
            counts[f"cells.{kind}"] = counts.get(f"cells.{kind}", 0) + c["cells"]
            dur[f"profiles_time.{kind}"] = dur.get(f"profiles_time.{kind}", 0.0) + d
            if s["parent"] is not None:
                profiles_in[s["parent"]] = profiles_in.get(s["parent"], 0) + c["profiles"]
                rounds_in[s["parent"]] = rounds_in.get(s["parent"], 0) + 1

    def under(parent_name: str, table: dict[int, int]) -> int:
        return sum(v for pid, v in table.items() if by_id[pid]["name"] == parent_name)

    def mcells(kind: str) -> float:
        return _ratio(counts.get(f"cells.{kind}", 0) / 1e6, dur.get(f"profiles_time.{kind}", 0.0))

    g = dur.get
    c = counts.get
    write_s = g("lifting.field_sample_to_csv", 0.0) + g("lifting.write_lift_report", 0.0)
    write_bytes = c("lifting.field_sample_to_csv.bytes", 0) + c("lifting.write_lift_report.bytes", 0)
    kinds = ("constant", "gaussian_moving_max", "rescaled_positive_field", "bernoulli_pair")
    out = {
        "spectral.gaussian_moving_max.mcells_per_s": mcells("gaussian_moving_max"),
        "spectral.rescaled_positive_field.mcells_per_s": mcells("rescaled_positive_field"),
        "spectral.profiles_drawn": float(sum(c(f"profiles.{k}", 0) for k in kinds)),
        **{f"spectral.{k}.profiles_drawn": float(c(f"profiles.{k}", 0)) for k in kinds},
        "pareto.export_csv_s": g("pareto.export_batch_csv", 0.0),
        "pareto.export_mb_per_s": _ratio(c("pareto.export_batch_csv.bytes", 0) / 1e6,
                                         g("pareto.export_batch_csv", 0.0)),
        "pareto.export_bytes": float(c("pareto.export_batch_csv.bytes", 0)),
        "pareto.sample_batch_s": g("pareto.sample_simple_pareto_batch", 0.0),
        "maxstable.sample_batch_s": g("maxstable.sample_max_stable_batch", 0.0),
        "maxstable.poisson_rounds": float(under("maxstable.sample_max_stable_batch", rounds_in)),
        "maxstable.profiles_per_field": _ratio(
            under("maxstable.sample_max_stable_batch", profiles_in),
            c("maxstable.sample_max_stable_batch.fields", 0)),
        "maxstable.doa_s": g("maxstable.doa_empirical_check", 0.0),
        "maxstable.angle_accept_ratio": _ratio(
            c("maxstable._sup_weighted_angle_sample.accepted", 0),
            under("maxstable._sup_weighted_angle_sample", profiles_in)),
        "maxstable.moving_max_s": g("maxstable.sample_moving_maximum_batch", 0.0),
        "gof.ks_s": g("gof.ks_statistic", 0.0) + g("gof.two_sample_ks_pvalue", 0.0),
        "dfeval.formula_s": g("dfeval.evaluate", 0.0),
        "dfeval.direct_s": g("dfeval.direct_frequency", 0.0),
        "dfeval.rows_passed": float(c("dfeval.run_battery.passed", 0)),
        "dfeval.rows_passed_ratio": _ratio(c("dfeval.run_battery.passed", 0),
                                           c("dfeval.run_battery.rows", 0)),
        "transforms.apply_T_s": g("transforms.apply_T_values", 0.0),
        "transforms.invert_T_s": g("transforms.invert_T_values", 0.0),
        "lifting.read_csv_s": g("lifting.field_sample_from_csv", 0.0),
        "lifting.read_mb_per_s": _ratio(c("lifting.field_sample_from_csv.bytes", 0) / 1e6,
                                        g("lifting.field_sample_from_csv", 0.0)),
        "lifting.read_bytes": float(c("lifting.field_sample_from_csv.bytes", 0)),
        "lifting.write_csv_s": write_s,
        "lifting.write_mb_per_s": _ratio(write_bytes / 1e6, write_s),
        "lifting.write_bytes": float(write_bytes),
        "lifting.scenario_fields_s": g("lifting.sample_scenario_fields", 0.0),
        "lifting.estimate_norming_s": g("lifting.estimate_norming", 0.0),
        "lifting.lift_s": g("lifting.lift", 0.0),
        "lifting.exceedances_selected": float(c("lifting.lift.selected", 0)),
        "lifting.selected_ratio": _ratio(c("lifting.lift.selected", 0), c("lifting.lift.fields", 0)),
        **{f"{layer}.self_s": value for layer, value in self_s.items()},
    }
    return out
