"""Output checks for each part of a workload (one CLI job, see run.py),
made from the files the CLI wrote.

Each check function returns a list of (name, passed, detail). The checks read
only the output files and use numpy, never paretoproc, so a defect in the
package cannot hide itself. ``corrupt`` damages one output on purpose, which
the self-test uses to show that the checks count it.

Statistical checks are judged at GATE_ALPHA per check, not at the 1% or
3-standard-error level of the statistic's own report. A benchmark campaign
makes about a hundred runs on distinct seeds with several such checks each,
so a 1% gate would flag a correct program on most campaigns; at 1e-5 the
family-wise false-alarm rate stays near 1% while a broken sampler still
fails. The verdict at the report's own level is kept in each check's detail.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

KS_ALPHA = 0.01  # the level the simulate check is stated at
GATE_ALPHA = 1e-5
GATE_Z = 4.42  # two-sided standard normal quantile at GATE_ALPHA
BATTERY_MIN_PASS = 0.95  # acceptance check 4: at least 95% of battery rows agree
RENORM_RTOL = 1e-9  # T(T^-1(t0 y)) = t0 y up to rounding


def _ks_critical(n: int, alpha: float) -> float:
    """Asymptotic one-sample KS critical value c(alpha)/sqrt(n)."""
    return float(np.sqrt(-0.5 * np.log(alpha / 2.0)) / np.sqrt(n))


def _ks_pareto(x: np.ndarray) -> float:
    """One-sample KS statistic of x against standard Pareto."""
    x = np.sort(x)
    n = x.size
    cdf = np.where(x > 1.0, 1.0 - 1.0 / np.maximum(x, 1.0), 0.0)
    return float(max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max()))


def check_simulate(plan: dict) -> list[tuple[str, bool, str]]:
    n, m, omega0 = plan["n"], plan["sites"], plan["omega0"]
    out = Path(plan["out"])
    samples = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1, ndmin=2)
    radii = np.loadtxt(out / "radii.csv", delimiter=",", skiprows=1, ndmin=2)
    ids_ok = samples.shape == (n * m, 4) and np.array_equal(
        samples[:, :2], np.column_stack([np.repeat(np.arange(n), m), np.tile(np.arange(m), n)]))
    checks = [
        ("samples_rows", bool(ids_ok), f"{samples.shape[0]} rows for n={n}, sites={m}"),
        ("radii_rows", radii.shape[0] == n, f"{radii.shape[0]} rows for n={n}"),
    ]
    if not ids_ok:
        return checks
    v = samples[:, 3].reshape(n, m)
    w = samples[:, 2].reshape(n, m)
    v_max_exact = int(np.sum(v.max(axis=1) == omega0))
    stat = _ks_pareto(w.max(axis=1) / omega0)
    crit, crit_1pc = _ks_critical(n, GATE_ALPHA), _ks_critical(n, KS_ALPHA)
    checks += [
        ("v_row_max_is_omega0", v_max_exact == n, f"{v_max_exact}/{n} rows"),
        ("sup_w_pareto_ks", stat < crit,
         f"KS {stat:.5f} vs {crit:.5f}; at 1%: {crit_1pc:.5f} {'pass' if stat < crit_1pc else 'fail'}"),
    ]
    return checks


def check_maxstable(plan: dict) -> list[tuple[str, bool, str]]:
    report = json.loads((Path(plan["out"]) / "maxstable_report.json").read_text())
    checks = []
    for prefix, items in (("", report["checks"]),
                          ("doa_pareto.", report["doa_pareto"]["checks"]),
                          ("doa_maxstable.", report["doa_maxstable"]["checks"])):
        for c in items:
            stat, threshold, name = c["statistic"], c["threshold"], c["name"]
            if name == "marginal_frechet_ks":
                passed = stat < _ks_critical(plan["n"], GATE_ALPHA)
            elif name in ("mmax_self_similarity_p", "angle_two_sample_ks"):  # p-values
                passed = stat > GATE_ALPHA
            elif name.startswith("sup_ratio_x") and name != "sup_ratio_x1":
                # statistic estimates 1/x; the report's threshold is 3 standard errors
                x = float(name.removeprefix("sup_ratio_x"))
                passed = abs(stat - 1.0 / x) <= GATE_Z * threshold / 3.0
            else:
                passed = c["passed"] is True
            checks.append((prefix + name, bool(passed),
                           f"statistic {stat} vs {threshold}; report verdict {c['passed']}"))
    for key in ("doa_pareto", "doa_maxstable"):
        n_rep = report[key]["n_rep"]
        checks.append((f"{key}.n_rep", n_rep == plan["n_rep"], f"{n_rep}"))
    return checks


def check_df_battery(plan: dict) -> list[tuple[str, bool, str]]:
    checks = []
    passed = 0
    for out in plan["battery_outputs"]:
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        ok = len(rows) == 1
        if ok:
            row = rows[0]
            probs = [float(row["estimate"]), float(row["oracle_estimate"])]
            ses = [float(row["std_error"]), float(row["oracle_se"])]
            ok = all(0.0 <= p <= 1.0 for p in probs) and all(0.0 <= s < 1.0 for s in ses)
            passed += ok and row["pass"] == "1"
        checks.append((f"well_formed:{out}", ok, f"{len(rows)} rows"))
    total = len(plan["battery_outputs"])
    checks.append(("rows_agree", passed >= BATTERY_MIN_PASS * total,
                   f"{passed}/{total} rows within 3 pooled SE"))
    return checks


def _read_long(path: Path, m: int) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[::m, 0].astype(int), data[:, 2].reshape(-1, m)


def _renormalize(x: np.ndarray, norming: dict) -> np.ndarray:
    """T_t x = (1 + gamma (x - b) / a)_+^(1/gamma), exp((x - b) / a) at gamma 0."""
    gamma, a, b = (np.asarray(norming[k]) for k in ("gamma", "a_t", "b_t"))
    z = (x - b) / a
    zero = np.abs(gamma) < 1e-8
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        powed = np.maximum(1.0 + gamma * z, 0.0) ** (1.0 / np.where(zero, 1.0, gamma))
        return np.where(zero, np.exp(z), powed)


def check_scenario_lift(plan: dict) -> list[tuple[str, bool, str]]:
    n, m, t0 = plan["n"], plan["sites"], plan["t0"]
    scen, lifted_dir = Path(plan["scenario_out"]), Path(plan["lift_out"])
    with open(scen / "source.csv", "rb") as fh:
        source_rows = sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b"")) - 1
    checks = [("source_rows", source_rows == n * m, f"{source_rows} rows for n={n}, sites={m}")]
    # lift re-reads source.csv; identical outputs show the read-back is exact
    for name in ("norming.json", "selected.csv", "lifted.csv", "normalized.csv"):
        same = (scen / name).read_bytes() == (lifted_dir / name).read_bytes()
        checks.append((f"readback_identical:{name}", same, "lift output vs scenario43 output"))
    norming = json.loads((lifted_dir / "norming.json").read_text())
    ids, lifted = _read_long(lifted_dir / "lifted.csv", m)
    selected = np.loadtxt(lifted_dir / "selected.csv", skiprows=1, ndmin=1).astype(int)
    sup = _renormalize(lifted, norming).max(axis=1)
    above = int(np.sum(sup > t0 * (1.0 - RENORM_RTOL)))
    checks += [
        ("lifted_ids_match_selected", np.array_equal(ids, selected) and selected.size > 0,
         f"{ids.size} lifted fields, {selected.size} selected"),
        ("lifted_renormalize_above_t0", above == ids.size, f"{above}/{ids.size} fields"),
    ]
    return checks


CHECKS = {
    "simulate": check_simulate,
    "maxstable": check_maxstable,
    "df_battery": check_df_battery,
    "scenario_lift": check_scenario_lift,
}


def _replace_value(path: Path, row: int, column: int, value: bytes) -> None:
    lines = path.read_bytes().split(b"\n")
    line = lines[row]
    cells = line.rstrip(b"\r").split(b",")
    cells[column] = value
    lines[row] = b",".join(cells) + line[len(line.rstrip(b"\r")):]
    path.write_bytes(b"\n".join(lines))


def corrupt(part: str, plan: dict) -> None:
    """Damage one output value the way a defect in the writer would."""
    if part == "simulate":
        _replace_value(Path(plan["out"]) / "samples.csv", 1, 3, b"1.5")
    elif part == "maxstable":
        path = Path(plan["out"]) / "maxstable_report.json"
        report = json.loads(path.read_text())
        report["checks"][0]["statistic"] = 1.0  # a marginal law far from Frechet
        path.write_text(json.dumps(report))
    elif part == "df_battery":
        _replace_value(Path(plan["battery_outputs"][0]), 1, 1, b"1.5")
    else:
        _replace_value(Path(plan["lift_out"]) / "lifted.csv", 1, 2, b"0")
