"""CLI surface lock: the option strings each command accepts.

Each command takes exactly the options its runner reads, plus --config and
--out; every command but verify-all reads --seed. A flag added to or dropped from a command changes this
list on purpose and edits the test.
"""
import argparse

import pytest

from paretoproc.cli import _build_parser

COMMON = ["-h", "--help", "--config", "--out", "--seed"]
GRID_SPEC = ["--sites", "--lo", "--hi", "--dim", "--spec", "--omega0", "--bandwidth",
             "--corr-length"]

EXPECTED = {
    "simulate": COMMON + GRID_SPEC + ["--n"],
    "df-battery": COMMON + GRID_SPEC + ["--queries", "--n-mc", "--n-direct"],
    "maxstable-check": COMMON + GRID_SPEC + ["--n", "--truncation", "--n-block", "--n-rep"],
    "lift": COMMON + ["--sites", "--dim", "--data", "--k", "--t0", "--policy", "--sites-list"],
    "scenario43": COMMON + ["--sites", "--n", "--k", "--t0"],
    "verify-all": ["-h", "--help", "--config", "--out", "--quick"],
}


def _subparsers():
    parser = _build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_commands_unchanged():
    assert sorted(_subparsers()) == sorted(EXPECTED)


@pytest.mark.parametrize("command", sorted(EXPECTED))
def test_option_strings_unchanged(command):
    sub = _subparsers()[command]
    found = [s for action in sub._actions for s in action.option_strings]
    assert sorted(found) == sorted(EXPECTED[command])
