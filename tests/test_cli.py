import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy

import paretoproc
from paretoproc import cli, dfeval, grid, maxstable, pareto, spectral, verify
from paretoproc.cli import main
from paretoproc.gof import Check
from paretoproc.grid import Grid
from paretoproc.lifting import FieldSample, field_sample_to_csv, sample_scenario_fields
from paretoproc.rng import make_rng
from paretoproc.verify import SEED


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
    cfg.write_text(json.dumps({"seed": 3, "kind": "constant", "n": 5, "sites": "4", "omega0": 1}))
    out1 = tmp_path / "o1"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    # numbers are typed like their flags: "4" is the int 4 and 1 the float 1.0
    manifest = (out1 / "manifest.json").read_text()
    assert '"omega0": 1.0' in manifest and '"sites": 4' in manifest
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


def test_maxstable_report_without_exceedances_is_valid_json(tmp_path):
    out = tmp_path / "ms"
    assert main(["maxstable-check", "--spec", "constant", "--sites", "5", "--n", "50",
                 "--n-rep", "1", "--n-block", "50", "--seed", "2", "--out", str(out)]) == 0

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    report = json.loads((out / "maxstable_report.json").read_text(), parse_constant=reject)
    for key in ("doa_pareto", "doa_maxstable"):
        assert report[key]["n_exceedances"] == 0
        for gate in report[key]["checks"]:
            assert gate["statistic"] is None and gate["threshold"] is None
            assert gate["passed"] is False


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
    pytest.param(["simulate", "--omega0", "inf", "--sites", "3", "--n", "10"], "ValueError",
                 id="simulate_omega0_inf"),
    pytest.param(["df-battery", "--spec", "constant", "--omega0", "inf", "--sites", "3",
                  "--n-mc", "10", "--n-direct", "10"], "ValueError", id="df_battery_omega0_inf"),
    pytest.param(["maxstable-check", "--spec", "constant", "--omega0", "inf", "--sites", "3",
                  "--n", "10", "--n-rep", "10"], "ValueError", id="maxstable_check_omega0_inf"),
    # a radius can reach 2^53, so W = Y V would overflow at this omega0
    pytest.param(["simulate", "--spec", "gaussian_moving_max", "--omega0", "1e308", "--sites",
                  "5", "--n", "20"], "ValueError", id="simulate_omega0_overflows"),
    pytest.param(["df-battery", "--spec", "gaussian_moving_max", "--omega0", "1e308", "--sites",
                  "5", "--n-mc", "10", "--n-direct", "10"], "ValueError",
                 id="df_battery_omega0_overflows"),
    pytest.param(["maxstable-check", "--spec", "gaussian_moving_max", "--omega0", "1e308",
                  "--sites", "5", "--n", "10", "--n-rep", "10"], "ValueError",
                 id="maxstable_check_omega0_overflows"),
    # a subnormal omega0: its df ratios overflow
    pytest.param(["simulate", "--spec", "gaussian_moving_max", "--omega0", "5e-324", "--sites",
                  "5", "--n", "20"], "ValueError", id="simulate_omega0_subnormal"),
    pytest.param(["df-battery", "--spec", "gaussian_moving_max", "--omega0", "5e-324", "--sites",
                  "5", "--n-mc", "10", "--n-direct", "10"], "ValueError",
                 id="df_battery_omega0_subnormal"),
    pytest.param(["maxstable-check", "--spec", "gaussian_moving_max", "--omega0", "5e-324",
                  "--sites", "5", "--n", "10", "--n-rep", "10"], "ValueError",
                 id="maxstable_check_omega0_subnormal"),
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


def test_failing_thread_side_battery_arm_exits_two_with_one_line(tmp_path, capsys, monkeypatch):
    # with two CPUs the direct arm runs on its own thread; its error reaches main
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def fail(*args):
        assert threading.current_thread() is not threading.main_thread()
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(dfeval, "direct_frequency", fail)
    before = threading.active_count()
    argv = ["df-battery", "--spec", "constant", "--sites", "3", "--n-mc", "10",
            "--n-direct", "10", "--seed", "1", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "MemoryError: Unable to allocate 7.28 TiB\n"
    assert threading.active_count() == before


@pytest.mark.parametrize("kind, message", [
    pytest.param("gaussian_moving_max", "n_block must be at least 6.1 so the marginal norming "
                 "is above the sup-sphere at every site", id="pareto_arm"),
    pytest.param("constant", "n_block must be >= 2 for max-stable input", id="maxstable_arm"),
])
def test_a_rejected_n_block_exits_two_before_the_construction_checks(tmp_path, capsys, monkeypatch,
                                                                     kind, message):
    # the Pareto arm needs t >= sup_bound (6.1 for the bump on 5 sites, 1 for
    # constant); the max-stable arm needs t >= 2. Both arms' arguments are
    # checked before either draws, so the Pareto arm draws no radius or
    # profile even where only the max-stable arm rejects t = 1
    ran = []
    monkeypatch.setattr(cli, "construction_checks", lambda *args: ran.append(args))
    for name in ("_sup_and_site", "sample_radii", "sample_max_stable_batch"):
        monkeypatch.setattr(maxstable, name, lambda *args, name=name: ran.append(name))
    out = tmp_path / "out"
    assert main(["maxstable-check", "--spec", kind, "--sites", "5", "--n", "20",
                 "--n-rep", "20", "--n-block", "1", "--seed", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"ValueError: {message}\n" and captured.out == ""
    assert not (out / "manifest.json").exists() and ran == []


HEADER = "sample_id,site_index,value\n"


def _long_rows(site_offset=0, ids=range(30)):
    """Samples ``ids`` (30 by default) on 3 sites, site indices starting at ``site_offset``."""
    return "".join(f"{i},{j + site_offset},{1.0 + i + j / 10}\n"
                   for i in ids for j in range(3))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", [
    pytest.param("", id="empty"),
    pytest.param(HEADER, id="header_only"),
    pytest.param(HEADER + _long_rows(site_offset=1), id="sites_from_one"),
    pytest.param(HEADER + _long_rows() + "0,1,9.0\n", id="duplicate_row"),
    pytest.param(HEADER + _long_rows() + "30,0\n", id="ragged"),
    pytest.param(HEADER + "0,0,rain\n" + _long_rows(), id="non_numeric"),
    # lift writes sample ids, so they must be the row positions 0..n-1
    pytest.param(HEADER + _long_rows(ids=range(100, 500, 10)), id="ids_from_100"),
    pytest.param(HEADER + _long_rows(ids=[*range(15), *range(16, 31)]), id="id_gap"),
])
def test_malformed_lift_data_exits_two_with_one_line(tmp_path, capsys, text):
    data = tmp_path / "fields.csv"
    data.write_text(text)
    argv = ["lift", "--data", str(data), "--sites", "3", "--k", "5", "--seed", "1"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ValueError: ") and err.count("\n") == 1
    assert str(data) in err and "usecols" not in err


@pytest.mark.parametrize("doc, command, names", [
    pytest.param('{"seed": 1, "sites": null}', "simulate", "sites", id="null_sites"),
    pytest.param("[1, 2]", "simulate", "JSON object", id="not_an_object"),
    pytest.param('{"seed": 1, "kind": 5}', "simulate", "kind", id="numeric_kind"),
    pytest.param('{"seed": 1, "out": 5}', "simulate", "out", id="out_number"),
    pytest.param('{"seed": 1, "k": 5}', "simulate", "'k'", id="unread_key"),
    pytest.param('{"quick": "no"}', "verify-all", "quick", id="quick_string"),
    pytest.param('{"seed": 0}', "verify-all", "'seed'", id="verify_all_seed"),
    pytest.param('{"seed": 1, "n": 2.7, "sites": 3}', "simulate", "n=2.7", id="fractional_int"),
    pytest.param('{"seed": true}', "simulate", "seed=True", id="boolean_int"),
    pytest.param('{"seed": 1, "n": 1e300}', "simulate", "n=1e+300", id="huge_int"),
    pytest.param('{"seed": 1, "omega0": true}', "simulate", "omega0=True", id="boolean_float"),
])
def test_malformed_config_exits_two_with_one_line(tmp_path, capsys, doc, command, names):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(doc)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError: ") and err.count("\n") == 1
    assert names in err


@pytest.mark.parametrize("argv, flag", [
    pytest.param(["scenario43", "--dim", "2"], "--dim", id="scenario43_dim"),
    pytest.param(["scenario43", "--spec", "constant"], "--spec", id="scenario43_spec"),
    pytest.param(["lift", "--omega0", "2"], "--omega0", id="lift_omega0"),
    pytest.param(["lift", "--lo", "3"], "--lo", id="lift_lo"),
    pytest.param(["verify-all", "--sites", "5"], "--sites", id="verify_all_sites"),
    pytest.param(["verify-all"], "--seed", id="verify_all_seed"),
    pytest.param(["simulate", "--n", "many"], "--n", id="bad_type"),
    pytest.param(["lift", "--k"], "--k", id="missing_value"),
    pytest.param(["simulate", "--lo", "inf"], "--lo", id="lo_inf"),
    pytest.param(["df-battery", "--hi=-inf"], "--hi", id="hi_minus_inf"),
    pytest.param(["maxstable-check", "--lo", "nan"], "--lo", id="lo_nan"),
])
def test_flag_error_exits_two_with_one_line(tmp_path, capsys, argv, flag):
    assert main(argv + ["--seed", "1", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError: ") and err.count("\n") == 1
    assert flag in err
    assert not (tmp_path / "out").exists()


def test_n_mc_with_query_file_exits_two(tmp_path, capsys):
    queries = tmp_path / "q.json"
    queries.write_text('[{"mode": "LEQ", "w": 2.0, "n_mc": 1000, "seed": 0}]')
    argv = ["df-battery", "--sites", "5", "--seed", "2", "--queries", str(queries),
            "--n-mc", "50", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError: ") and err.count("\n") == 1
    assert "--n-mc" in err


@pytest.mark.parametrize("doc, entry", [
    pytest.param('{"mode": "LEQ", "w": 2.0}', "list", id="object"),
    pytest.param('[{"mode": "LEQ", "w": 2.0}, {"mode": "GT"}]', "query 1", id="missing_w"),
    pytest.param('[{"mode": "LEQ", "w": 2.0}\n{"mode": "GT"}]', "delimiter", id="not_json"),
    # counts are JSON integers: a float or bool is not truncated to one
    pytest.param('[{"mode": "LEQ", "w": 2.0, "n_mc": 2.7, "seed": 1}]', "query 0", id="n_mc_float"),
    pytest.param('[{"mode": "LEQ", "w": 2.0, "n_mc": 20, "seed": 1.9}]', "query 0", id="seed_float"),
    pytest.param('[{"mode": "LEQ", "w": 2.0, "n_mc": true}]', "query 0", id="n_mc_bool"),
    pytest.param('[{"mode": "LEQ", "w": 2.0}, {"mode": "GT", "w": 2.0, "n_mc": 1e300}]',
                 "query 1", id="n_mc_1e300"),
    pytest.param('[{"mode": "LEQ", "w": 2.0, "n_mc": 50, "seed": -1}]',
                 "query 0: seed must be an integer >= 0", id="seed_negative"),
    # w is a JSON number or a list of them: a bool or a string is not read as one
    pytest.param('[{"mode": "LEQ", "w": true}]', "query 0: w must be a JSON number", id="w_bool"),
    pytest.param('[{"mode": "LEQ", "w": 2.0}, {"mode": "GT", "w": "2.0"}]', "query 1", id="w_string"),
    pytest.param('[{"mode": "LEQ", "w": [true, false, true, true, true]}]', "query 0",
                 id="w_bool_entry"),
    # an integer too large for a float is no level either
    pytest.param('[{"mode": "LEQ", "w": 1%s}]' % ("0" * 400), "query 0", id="w_int_overflow"),
])
def test_malformed_query_file_exits_two_with_one_line(tmp_path, capsys, doc, entry):
    queries = tmp_path / "q.json"
    queries.write_text(doc)
    argv = ["df-battery", "--spec", "constant", "--sites", "5", "--seed", "2",
            "--queries", str(queries), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("ValueError: ") and err.count("\n") == 1
    assert str(queries) in err and entry in err


@pytest.mark.parametrize("sites_list", ["500", "-1"])
def test_sites_list_out_of_range_exits_two(tmp_path, capsys, sites_list):
    data = sample_scenario_fields(30, make_rng(4, "cli_lift"), n_sites=11)
    field_sample_to_csv(data, tmp_path / "fields.csv")
    argv = ["lift", "--data", str(tmp_path / "fields.csv"), "--sites", "11", "--k", "5",
            "--policy", "sites", f"--sites-list={sites_list}", "--seed", "5",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("ValueError: ") and err.count("\n") == 1


@pytest.mark.parametrize("policy", [[], ["--policy", "sup_anywhere"]], ids=["default", "flag"])
def test_sites_list_without_sites_policy_exits_two(tmp_path, capsys, policy):
    # only the sites policy reads a site list; any other would run as if it were unset
    data = sample_scenario_fields(30, make_rng(4, "cli_lift"), n_sites=11)
    field_sample_to_csv(data, tmp_path / "fields.csv")
    argv = ["lift", "--data", str(tmp_path / "fields.csv"), "--sites", "11", "--k", "5",
            "--sites-list", "0,1", *policy, "--seed", "5", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "ConfigError: --sites-list applies only with --policy sites\n"
    assert captured.out == "" and not (tmp_path / "out" / "manifest.json").exists()


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
    _, help_text, keys = cli._COMMAND_TABLE["simulate"]
    monkeypatch.setitem(cli._COMMAND_TABLE, "simulate", (lambda cfg: 1, help_text, keys))
    assert main(["simulate", "--seed", "1", "--out", str(tmp_path)]) == 1
    assert json.loads((tmp_path / "manifest.json").read_text())["status"] == "failed"


def _cannot_allocate(*args, **kwargs):
    raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")


@pytest.mark.parametrize("argv, targets", [
    pytest.param(["simulate", "--n", "1000000000000"], [(pareto, "sample_radii")], id="simulate"),
    # the formula arm and the direct arm both draw through spectral.per_draw_blocks,
    # which draws through spectral's profile_blocks
    pytest.param(["df-battery", "--n-mc", "1000000000000"],
                 [(spectral, "profile_blocks")], id="df-battery"),
])
def test_count_too_large_to_allocate_exits_two_with_one_line(tmp_path, capsys, monkeypatch,
                                                              argv, targets):
    # the sampler is patched: whether a huge allocation fails at once depends
    # on the machine's memory overcommit
    for module, name in targets:
        monkeypatch.setattr(module, name, _cannot_allocate)
    assert main(argv + ["--sites", "5", "--seed", "2", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("MemoryError: Unable to allocate") and err.count("\n") == 1


def test_rescaled_field_on_101_by_101_grid(tmp_path):
    # 10,201 sites: a dense (m, m) covariance would take 0.8 GB
    argv = ["simulate", "--spec", "rescaled_positive_field", "--dim", "2", "--sites", "101",
            "--n", "50", "--omega0", "2.5", "--seed", "3", "--out", str(tmp_path)]
    assert main(argv) == 0
    v = np.loadtxt(tmp_path / "samples.csv", delimiter=",", skiprows=1, usecols=3)
    assert np.all(v.reshape(50, 101 * 101).max(axis=1) == 2.5)


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


def test_unknown_command_exits_two(capsys):
    assert main(["frobnicate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError: ") and err.count("\n") == 1
    assert main([]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError: ") and err.count("\n") == 1 and "command" in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scenario43", "--help"])
    assert exc.value.code == 0
    assert "--t0" in capsys.readouterr().out


# SHA-256 of the --quick report without its "seconds" fields (json.dumps,
# sort_keys): every statistic, threshold and verdict, the same with one or two
# BLAS threads. A change that moves any statistic by one bit shows here.
QUICK_STATISTICS_SHA256 = "95187daa36fe740feb5cb5e2a2adf955032e0f77b7c6d07db7cb54330700a08f"


def test_verify_all_quick(tmp_path):
    out = tmp_path / "verify"
    assert main(["verify-all", "--quick", "--out", str(out)]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    statistics = [{k: v for k, v in entry.items() if k != "seconds"} for entry in report]
    digest = hashlib.sha256(json.dumps(statistics, sort_keys=True).encode()).hexdigest()
    assert digest == QUICK_STATISTICS_SHA256
    assert len(report) == 9
    assert all(entry["passed"] for entry in report)
    for entry in report:
        assert set(entry) == {"name", "passed", "checks", "seconds"} and entry["checks"]
        for gate in entry["checks"]:
            assert set(gate) == {"name", "statistic", "threshold", "passed"}
            assert isinstance(gate["name"], str) and isinstance(gate["passed"], bool)
            assert isinstance(gate["statistic"], float) and isinstance(gate["threshold"], float)
        assert entry["passed"] == all(gate["passed"] for gate in entry["checks"])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == SEED
    assert manifest["versions"]["scipy"] == scipy.__version__


def test_verify_all_fails_a_criterion_with_one_failing_gate(tmp_path, capsys, monkeypatch):
    def three_gates(quick):
        return "three_gates", [Check("a", 0.5, 1.0, True), Check("b", 2.0, 1.0, False),
                               Check("c", 0.5, 1.0, True)]

    monkeypatch.setattr(verify, "CHECKS", [three_gates])
    out = tmp_path / "verify"
    assert main(["verify-all", "--out", str(out)]) == 1
    (entry,) = json.loads((out / "verify_report.json").read_text())
    assert entry["passed"] is False
    assert [gate["passed"] for gate in entry["checks"]] == [True, False, True]
    line = capsys.readouterr().out
    assert line.startswith("FAIL  three_gates") and "b: statistic 2.00000 vs 1.00000 -> FAIL" in line


@pytest.mark.parametrize("bandwidth, code", [
    pytest.param("1e-4", 0, id="narrower_than_spacing"),
    pytest.param("1e-160", 2, id="square_too_small_for_grid"),
    pytest.param("1e-200", 2, id="square_underflows"),
    pytest.param("1e200", 2, id="square_overflows"),
])
def test_extreme_bandwidth_writes_no_nan(tmp_path, capsys, bandwidth, code):
    out = tmp_path / "out"
    argv = ["simulate", "--spec", "gaussian_moving_max", "--bandwidth", bandwidth,
            "--sites", "101", "--n", "100", "--seed", "1", "--out", str(out)]
    assert main(argv) == code
    if code == 0:
        cells = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1)
        assert cells.shape[0] == 100 * 101 and np.all(np.isfinite(cells))
    else:
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "bandwidth" in err
        assert not (out / "samples.csv").exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["--corr-length", "1e-170", "--sites", "5"], id="square_underflows"),
    pytest.param(["--corr-length", "1e-300", "--dim", "3", "--sites", "3"], id="square_underflows_3d"),
    pytest.param(["--corr-length", "1e200", "--sites", "5"], id="square_overflows"),
])
def test_extreme_corr_length_exits_two_with_one_line(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(["simulate", "--spec", "rescaled_positive_field", *argv,
                 "--n", "10", "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "corr_length" in err
    assert not (out / "samples.csv").exists()


def test_df_battery_without_direct_samples_exits_two(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["df-battery", "--n-direct", "0", "--sites", "5", "--seed", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "ValueError: n_direct must be an integer >= 1\n"
    assert not (out / "battery.csv").exists()


@pytest.mark.parametrize("argv, message", [
    pytest.param(["--n", "0"], "n must be an integer >= 1", id="n"),
    pytest.param(["--n-rep", "0"], "n_rep must be an integer >= 1", id="n_rep"),
    pytest.param(["--n-block", "1"], "n_block must be >= 2 for max-stable input", id="n_block"),
])
def test_maxstable_check_empty_sample_exits_two(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main(["maxstable-check", "--sites", "5", "--n", "100", "--n-rep", "100", *argv,
                 "--seed", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"ValueError: {message}\n" and captured.out == ""
    assert not (out / "maxstable_report.json").exists()


_PARENT_PID = os.getpid()
_format_rows = grid._format_rows


def _die_in_worker(row, block):
    if os.getpid() != _PARENT_PID:
        os._exit(1)
    return _format_rows(row, block)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the writer forks its workers")
def test_dead_csv_worker_exits_two_with_one_line(tmp_path, capsys, monkeypatch):
    # a table of many blocks is formatted in worker processes; one that dies
    # is an OSError naming the file, and the next write starts a fresh pool
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(grid, "_format_rows", _die_in_worker)
    argv = ["simulate", "--sites", "101", "--n", "2000", "--seed", "1"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("OSError: writing ") and "samples.csv" in err and err.count("\n") == 1
    monkeypatch.setattr(grid, "_format_rows", _format_rows)
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / "manifest.json").exists()


def test_cached_parser_keeps_no_flag_between_calls(tmp_path):
    # the parser is built once per process; a flag given in one call must not
    # reach the next
    assert cli._build_parser() is cli._build_parser()
    base = ["simulate", "--spec", "constant", "--sites", "3", "--seed", "1"]
    assert main(base + ["--n", "5", "--out", str(tmp_path / "a")]) == 0
    assert main(base + ["--out", str(tmp_path / "b")]) == 0
    first = json.loads((tmp_path / "a" / "manifest.json").read_text())
    second = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert first["options"]["n"] == 5 and "n" not in second["options"]
    radii = np.loadtxt(tmp_path / "b" / "radii.csv", delimiter=",", skiprows=1)
    assert radii.shape[0] == cli._OPTION_TABLE["n"].default


def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(Path(paretoproc.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, paretoproc.cli; print(sorted(m for m in sys.modules if m in "
            "('scipy.stats', 'multiprocessing', 'concurrent.futures')))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=120)
    assert result.stdout.strip() == "[]"


def test_maxstable_check_and_df_battery_run_their_ks_tests_without_scipy_stats(tmp_path):
    # every family's KS tests take gof's numpy path. bernoulli_pair's two-valued
    # angles still reach scipy where the exact sum of a p-value near 1 leaves
    # [0, 1] (seeds 1 and 3 at this config); seed 2 keeps to the exact path
    src = str(Path(paretoproc.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"""
import sys
from paretoproc.cli import main
from paretoproc.spectral import KINDS
out = {str(tmp_path)!r}
for kind in KINDS:
    sites = "2" if kind == "bernoulli_pair" else "5"
    assert main(["maxstable-check", "--spec", kind, "--sites", sites, "--n", "100", "--n-rep", "500",
                 "--n-block", "50", "--seed", "2", "--out", out]) == 0, kind
assert main(["df-battery", "--spec", "gaussian_moving_max", "--sites", "5", "--n-mc", "500",
             "--n-direct", "500", "--seed", "2", "--out", out]) == 0
print("scipy.stats" in sys.modules, file=sys.stderr)
"""
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=120)
    assert result.stderr.strip() == "False"
