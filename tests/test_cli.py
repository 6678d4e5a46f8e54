import json

import numpy as np
import pytest

from paretoproc import cli
from paretoproc.cli import main
from paretoproc.grid import Grid
from paretoproc.lifting import FieldSample, field_sample_to_csv, sample_scenario_fields
from paretoproc.rng import make_rng


def test_simulate_is_byte_identical_across_runs(tmp_path):
    args = ["simulate", "--spec", "constant", "--omega0", "1", "--n", "200",
            "--sites", "7", "--seed", "7"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("samples.csv", "radii.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_on_two_dimensional_grid(tmp_path):
    out = tmp_path / "sim2d"
    assert main(["simulate", "--spec", "gaussian_moving_max", "--dim", "2", "--sites", "5",
                 "--n", "3", "--seed", "2", "--out", str(out)]) == 0
    lines = (out / "samples.csv").read_text().splitlines()
    assert len(lines) == 1 + 3 * 25  # 5x5 product grid


def test_simulate_writes_expected_layout(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--spec", "bernoulli_pair", "--sites", "2", "--n", "10",
                 "--seed", "1", "--out", str(out)]) == 0
    lines = (out / "samples.csv").read_text().splitlines()
    assert lines[0] == "sample_id,site_index,w,v"
    assert len(lines) == 1 + 10 * 2
    radii = (out / "radii.csv").read_text().splitlines()
    assert radii[0] == "sample_id,y"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 1 and manifest["command"] == "simulate"
    assert "config_sha256" in manifest and "versions" in manifest


def test_missing_seed_is_config_error(tmp_path, capsys):
    assert main(["simulate", "--n", "5", "--out", str(tmp_path / "x")]) == 2
    assert "seed" in capsys.readouterr().err


def test_bad_site_count_is_config_error(tmp_path):
    assert main(["simulate", "--seed", "1", "--sites", "1", "--out", str(tmp_path / "x")]) == 2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "kind": "constant", "n": 5, "sites": 4}))
    out1 = tmp_path / "o1"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    # flag wins over the config file
    out2 = tmp_path / "o2"
    assert main(["simulate", "--config", str(cfg), "--n", "8", "--out", str(out2)]) == 0
    assert len((out2 / "samples.csv").read_text().splitlines()) == 1 + 8 * 4
    assert len((out1 / "samples.csv").read_text().splitlines()) == 1 + 5 * 4


def test_df_battery_command(tmp_path):
    out = tmp_path / "bat"
    code = main(["df-battery", "--spec", "gaussian_moving_max", "--sites", "21",
                 "--seed", "2", "--n-mc", "2000", "--n-direct", "4000", "--out", str(out)])
    assert code == 0
    lines = (out / "battery.csv").read_text().splitlines()
    assert lines[0] == "query_id,estimate,std_error,oracle_estimate,oracle_se,pass"
    assert len(lines) == 6


def test_df_battery_with_query_file(tmp_path):
    queries = tmp_path / "q.json"
    queries.write_text('[{"mode": "LEQ", "w": 2.0, "n_mc": 1000, "seed": 0}]')
    out = tmp_path / "bat2"
    code = main(["df-battery", "--spec", "constant", "--sites", "5", "--seed", "2",
                 "--queries", str(queries), "--n-direct", "2000", "--out", str(out)])
    assert code == 0
    assert len((out / "battery.csv").read_text().splitlines()) == 2


def test_maxstable_check_command(tmp_path):
    out = tmp_path / "ms"
    code = main(["maxstable-check", "--spec", "constant", "--sites", "5", "--seed", "3",
                 "--n", "2000", "--n-block", "50", "--n-rep", "5000", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "maxstable_report.json").read_text())
    names = {c["name"] for c in report["checks"]}
    assert {"marginal_frechet_ks", "mmax_self_similarity_p"} <= names
    assert report["doa_pareto"]["input"] == "pareto"
    assert report["doa_maxstable"]["input"] == "maxstable"


def test_lift_command(tmp_path):
    data = sample_scenario_fields(30, make_rng(4, "cli_lift"), n_sites=11)
    csv_path = tmp_path / "fields.csv"
    field_sample_to_csv(data, csv_path)
    out = tmp_path / "lift"
    code = main(["lift", "--data", str(csv_path), "--sites", "11", "--k", "5",
                 "--t0", "10", "--seed", "5", "--out", str(out)])
    assert code == 0
    assert (out / "norming.json").exists()
    assert (out / "lifted.csv").exists()


@pytest.mark.parametrize("argv, error", [
    pytest.param(["scenario43", "--n", "20", "--k", "50"], "InsufficientData",
                 id="insufficient_data"),
    pytest.param(["simulate", "--spec", "bernoulli_pair", "--n", "5"], "SpecGridMismatch",
                 id="spec_grid_mismatch"),
    pytest.param(["lift", "--data", "{tied}", "--sites", "3", "--k", "5"], "DegenerateTail",
                 id="degenerate_tail"),
])
def test_library_error_exits_two_with_one_line(tmp_path, capsys, argv, error):
    tied = tmp_path / "tied.csv"  # equal values: tied top order statistics at every site
    field_sample_to_csv(FieldSample(Grid.regular(3), np.ones((30, 3))), tied)
    argv = [a.format(tied=tied) for a in argv]
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text("{}")  # a stale manifest from an earlier run
    assert main(argv + ["--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{error}: ") and err.count("\n") == 1
    assert not (out / "manifest.json").exists()


HEADER = "sample_id,site_index,value\n"


def _long_rows(site_offset=0):
    """30 samples on 3 sites, site indices starting at ``site_offset``."""
    return "".join(f"{i},{j + site_offset},{1.0 + i + j / 10}\n"
                   for i in range(30) for j in range(3))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", [
    pytest.param("", id="empty"),
    pytest.param(HEADER, id="header_only"),
    pytest.param(HEADER + _long_rows(site_offset=1), id="sites_from_one"),
    pytest.param(HEADER + _long_rows() + "0,1,9.0\n", id="duplicate_row"),
])
def test_malformed_lift_data_exits_two_with_one_line(tmp_path, capsys, text):
    data = tmp_path / "fields.csv"
    data.write_text(text)
    argv = ["lift", "--data", str(data), "--sites", "3", "--k", "5", "--seed", "1"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ValueError: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["scenario43", "lift"])
def test_lift_report_manifest_keeps_run_keys(tmp_path, command):
    argv = ["--sites", "11", "--k", "5", "--t0", "10", "--seed", "5", "--out", str(tmp_path / "out")]
    if command == "scenario43":
        argv = ["scenario43", "--n", "30"] + argv
    else:
        data = sample_scenario_fields(30, make_rng(4, "cli_lift"), n_sites=11)
        field_sample_to_csv(data, tmp_path / "fields.csv")
        argv = ["lift", "--data", str(tmp_path / "fields.csv")] + argv
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["command"] == command and manifest["seed"] == 5
    assert {"options", "versions", "config_sha256", "t0", "k", "t", "n_selected"} <= set(manifest)
    assert manifest["status"] == "ok"


def test_manifest_status_failed_on_exit_one(tmp_path, monkeypatch):
    monkeypatch.setitem(cli._RUNNERS, "simulate", lambda cfg: 1)
    assert main(["simulate", "--seed", "1", "--out", str(tmp_path)]) == 1
    assert json.loads((tmp_path / "manifest.json").read_text())["status"] == "failed"


def test_lift_without_data_is_config_error(tmp_path):
    assert main(["lift", "--seed", "5", "--out", str(tmp_path / "x")]) == 2


def test_scenario43_command(tmp_path):
    out = tmp_path / "sc"
    code = main(["scenario43", "--n", "20", "--t0", "10", "--k", "5", "--sites", "41",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    for name in ("normalized.csv", "lifted.csv", "norming.json", "source.csv", "manifest.json"):
        assert (out / name).exists()


def test_scenario43_determinism(tmp_path):
    args = ["scenario43", "--n", "20", "--t0", "10", "--k", "5", "--sites", "21", "--seed", "9"]
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "lifted.csv").read_bytes() == (out2 / "lifted.csv").read_bytes()


def test_outdir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("PARETOPROC_OUTDIR", str(tmp_path / "envout"))
    assert main(["simulate", "--spec", "constant", "--sites", "3", "--n", "2", "--seed", "1"]) == 0
    assert (tmp_path / "envout" / "samples.csv").exists()


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_verify_all_quick(tmp_path):
    out = tmp_path / "verify"
    assert main(["verify-all", "--quick", "--seed", "0", "--out", str(out)]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert len(report) == 9
    assert all(entry["passed"] for entry in report)
