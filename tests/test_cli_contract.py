"""The CLI contract, swept over edge values: every numeric flag of
simulate, df-battery, maxstable-check and scenario43 at non-finite, extreme,
subnormal, zero and negative values, and every profile family. Whatever the
value, a run exits 0, 1 or 2, an exit 2 prints exactly one line on stderr,
and an exit-0 run writes no non-finite CSV cell. A numpy RuntimeWarning
fails the test (the pytest configuration makes it an error)."""
from pathlib import Path

import numpy as np
import pytest

from paretoproc.cli import main
from paretoproc.spectral import KINDS

EDGE_VALUES = ("nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "0", "-1")

# command -> (argv at tiny sizes, numeric flags swept)
_SPEC_FLAGS = ("--sites", "--lo", "--hi", "--dim", "--omega0", "--bandwidth", "--corr-length")
COMMANDS = {
    "simulate": (["--spec", "gaussian_moving_max", "--sites", "5", "--n", "20"],
                 (*_SPEC_FLAGS, "--n")),
    "df-battery": (["--spec", "gaussian_moving_max", "--sites", "5", "--n-mc", "50",
                    "--n-direct", "50"], (*_SPEC_FLAGS, "--n-mc", "--n-direct")),
    "maxstable-check": (["--spec", "gaussian_moving_max", "--sites", "5", "--n", "20",
                         "--n-rep", "20", "--n-block", "10"],
                        (*_SPEC_FLAGS, "--n", "--truncation", "--n-block", "--n-rep")),
    "scenario43": (["--sites", "5", "--n", "50"], ("--sites", "--n", "--k", "--t0")),
}

# runs that printed a RuntimeWarning and still exited 0
EXTRA_RUNS = {
    # two-point angle samples: scipy's exact two-sample KS p-value fails
    "bernoulli_pair_ks": ["maxstable-check", "--spec", "bernoulli_pair", "--sites", "2",
                          "--n", "100", "--n-rep", "500", "--n-block", "50", "--omega0", "1"],
    # bumps that fall to subnormal values at distant sites
    "narrow_bump_gt": ["df-battery", "--spec", "gaussian_moving_max", "--bandwidth", "0.026",
                       "--n-mc", "2000", "--n-direct", "2000"],
    "small_omega0_gt": ["df-battery", "--spec", "gaussian_moving_max", "--omega0", "1e-300",
                        "--n-mc", "2000", "--n-direct", "2000"],
}

# negative length scales ran with the draws of their absolute value
NEGATIVE_SCALES = {
    "simulate_bandwidth": ["simulate", "--spec", "gaussian_moving_max", "--sites", "5",
                           "--n", "20", "--bandwidth=-1"],
    "df_battery_corr_length": ["df-battery", "--spec", "rescaled_positive_field", "--sites", "5",
                               "--n-mc", "50", "--n-direct", "50", "--corr-length=-0.3"],
    "maxstable_check_corr_length": ["maxstable-check", "--spec", "rescaled_positive_field",
                                    "--sites", "5", "--n", "20", "--n-rep", "20", "--n-block", "10",
                                    "--corr-length=-1"],
}


def _assert_contract(argv: list[str], out: Path, capsys) -> tuple[int, str]:
    """The exit code and stderr of one run, checked against the contract."""
    code = main(argv + ["--seed", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.count("\n") == 1, (argv, err)
    if code == 0:
        for path in out.glob("*.csv"):
            for cell in path.read_text().replace("\n", ",").split(","):
                try:
                    value = float(cell)
                except ValueError:  # a header cell
                    continue
                assert np.isfinite(value), (argv, path.name, cell)
    return code, err


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, (_, flags) in COMMANDS.items() for flag in flags
])
def test_edge_values_keep_the_contract(tmp_path, capsys, command, flag):
    base, _ = COMMANDS[command]
    # corr_length applies to rescaled_positive_field only
    spec = ["--spec", "rescaled_positive_field"] if flag == "--corr-length" else []
    for i, value in enumerate(EDGE_VALUES):  # --flag=value: argparse takes -1 as a flag
        _assert_contract([command, *base, *spec, f"{flag}={value}"], tmp_path / str(i), capsys)


@pytest.mark.parametrize("command", [c for c in COMMANDS if "--spec" in COMMANDS[c][0]])
def test_every_family_keeps_the_contract(tmp_path, capsys, command):
    base, _ = COMMANDS[command]
    for kind in KINDS:
        sites = ["--sites", "2"] if kind == "bernoulli_pair" else []
        _assert_contract([command, *base, "--spec", kind, *sites], tmp_path / kind, capsys)


@pytest.mark.parametrize("argv", EXTRA_RUNS.values(), ids=EXTRA_RUNS.keys())
def test_runs_that_warned_keep_the_contract(tmp_path, capsys, argv):
    assert _assert_contract(argv, tmp_path, capsys) == (0, "")


@pytest.mark.parametrize("argv", NEGATIVE_SCALES.values(), ids=NEGATIVE_SCALES.keys())
def test_negative_length_scale_exits_two(tmp_path, capsys, argv):
    code, err = _assert_contract(argv, tmp_path, capsys)
    assert code == 2 and err.startswith("ValueError: ") and "> 0" in err
    assert not (tmp_path / "manifest.json").exists()
