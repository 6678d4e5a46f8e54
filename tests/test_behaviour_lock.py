"""Behaviour lock: SHA-256 digests of the data outputs of one small config per
CLI command, plus a second ``simulate`` config for ``rescaled_positive_field``,
a third whose samples table goes through the pooled CSV writer, a second
``maxstable-check`` config whose Pareto domain-of-attraction arm spans several
profile blocks, a third that runs both domain-of-attraction arms on
``rescaled_positive_field``, and a second ``df-battery`` config away from
``omega0 = 1``.

A change that must leave every output as it is keeps these digests. A change
that alters a random stream or an output format on purpose re-pins the
affected digests and says so in CHANGES.md. ``manifest.json`` is left out
because it records library versions. ``stdout`` stands for the text the
command prints, pinned where that text is a report of its own.
"""
import contextlib
import hashlib
import io

import pytest

from paretoproc.cli import main

SEED = "11"
SCENARIO = ["--sites", "21", "--k", "40", "--t0", "10", "--seed", SEED]
REPORT = ("lifted.csv", "normalized.csv", "norming.json", "selected.csv")

# config name -> (argv without --out, data outputs)
COMMANDS = {
    "simulate": (["simulate", "--spec", "gaussian_moving_max", "--sites", "11",
                  "--n", "300", "--seed", SEED], ("radii.csv", "samples.csv")),
    # 25 sites x 200 draws = 5,000 rows: samples.csv spans two CSV blocks
    "simulate-rescaled": (["simulate", "--spec", "rescaled_positive_field", "--dim", "2",
                           "--sites", "5", "--n", "200", "--seed", SEED],
                          ("radii.csv", "samples.csv")),
    # 3,000 draws at 11 sites: samples.csv is 9 blocks of 372 draws, so with
    # two CPUs it is formatted by two forked workers (BLOCKS_PER_PART = 4)
    "simulate-pooled": (["simulate", "--spec", "gaussian_moving_max", "--sites", "11",
                         "--n", "3000", "--seed", SEED], ("radii.csv", "samples.csv")),
    "scenario43": (["scenario43", "--n", "1000", *SCENARIO], REPORT + ("source.csv",)),
    "lift": (["lift", "--data", "{scenario43}/source.csv", *SCENARIO], REPORT),
    "maxstable-check": (["maxstable-check", "--spec", "gaussian_moving_max", "--sites", "11",
                         "--n", "300", "--n-block", "50", "--n-rep", "2000", "--seed", SEED],
                        ("maxstable_report.json", "stdout")),
    # 2,000 replicates at 101 sites: the Pareto arm draws four 648-row profile blocks
    "maxstable-check-101": (["maxstable-check", "--spec", "gaussian_moving_max", "--sites", "101",
                             "--n", "300", "--n-block", "50", "--n-rep", "2000", "--seed", SEED],
                            ("maxstable_report.json", "stdout")),
    # the rough family, whose mean field is a Monte Carlo estimate, through both DOA arms
    "maxstable-check-rescaled": (["maxstable-check", "--spec", "rescaled_positive_field",
                                  "--sites", "21", "--n", "300", "--n-rep", "2000",
                                  "--n-block", "50", "--seed", "12"],
                                 ("maxstable_report.json", "stdout")),
    "df-battery": (["df-battery", "--spec", "gaussian_moving_max", "--sites", "11",
                    "--n-mc", "2000", "--n-direct", "4000", "--seed", SEED], ("battery.csv",)),
    # omega0 = 2.5: the battery's levels are in units of omega0
    "df-battery-omega0": (["df-battery", "--spec", "rescaled_positive_field", "--omega0", "2.5",
                           "--sites", "11", "--n-mc", "2000", "--n-direct", "4000",
                           "--seed", SEED], ("battery.csv", "stdout")),
}

EXPECTED = {
    "simulate": {
        "radii.csv": "9f0c034e43d5aeb43813c6b8115f935fc4c442ccb7877d97b2dda45ec1b7916a",
        # re-pinned when the moving-maximum bump was shifted by its largest
        # exponent before exp instead of divided by its sampled maximum: one
        # rounding in place of three moves last bits; the draws are the same
        "samples.csv": "3227bdf4726809263ad1cc5f201bc8e5880fb59b5f2f2684e0775b48f04747d1",
    },
    "simulate-rescaled": {
        "radii.csv": "d14bc0d5b04e4fde70f17ca54be2999e649960b611c02d4f5509ec4db60c9e38",
        # re-pinned when the dense Cholesky factor gave way to low-rank
        # per-axis factors, which draw fewer normals; radii come first and stay
        "samples.csv": "aa845e5e2ddf632289aa44151aa0c9de8d58c1b10dc3d8e4ef1b52c2c37f93f2",
    },
    "simulate-pooled": {
        "radii.csv": "67f0804e584b94a79d2b16a80c0454ca86e2b556117404f797c3517fb5f90523",
        # re-pinned with simulate's samples.csv, for the same reason
        "samples.csv": "127abe48720377cca5550b50c971afd00b0a6fd2f154bc6c28c15f55b016577c",
    },
    "scenario43": {
        "lifted.csv": "81fad46720687400072b7429c0ba46f0ef99705e6c5fd193b914cf55473746b6",
        "normalized.csv": "2b37278a38553049f6cc4b85c4582fb56a93cb5b5484e46cb9788f368ab5f0dd",
        "norming.json": "a0ce4e136f0c6c040b4fa78963077fbb8ab545a006420832f1b5e4cb153e74a8",
        "selected.csv": "f56e25e04e27e5248571fd7c340c494da50cb7bf9e275a0460cce612d4a8b7c7",
        "source.csv": "48cecac7f61496928058137ac2b5765a2888d84e948fbb6cac1f815a394e1054",
    },
    # lift re-reads scenario43's source.csv, so its report is scenario43's
    "lift": {
        "lifted.csv": "81fad46720687400072b7429c0ba46f0ef99705e6c5fd193b914cf55473746b6",
        "normalized.csv": "2b37278a38553049f6cc4b85c4582fb56a93cb5b5484e46cb9788f368ab5f0dd",
        "norming.json": "a0ce4e136f0c6c040b4fa78963077fbb8ab545a006420832f1b5e4cb153e74a8",
        "selected.csv": "f56e25e04e27e5248571fd7c340c494da50cb7bf9e275a0460cce612d4a8b7c7",
    },
    "maxstable-check": {
        # re-pinned when the Poisson-max loop came to stop on the columns or the sup
        # its caller keeps: the construction and max-stable DOA fields take a new
        # stream; the Pareto DOA arm stays
        "maxstable_report.json": "22aff0d8030b80e1714855260d70f3fc063172d39c86bb78eb0aa70ce2002e99",
        "stdout": "ccac436432ac1c894513424f58f21fce3b6d58659fece1ffe69eefae0872a642",
    },
    "maxstable-check-101": {
        # re-pinned with maxstable-check, for the same reason
        "maxstable_report.json": "f624ca405fb0586768b070bf937bdd5012cf1fb73b4c6c55a60b3b3c9ba4ea06",
        "stdout": "fde6746ef5df1e147a01d449a18dc1a6aa33bd61e81e4b859808936ac4d634b2",
    },
    "maxstable-check-rescaled": {
        # re-pinned with maxstable-check, for the same reason
        "maxstable_report.json": "dee4b38b163888bc44c9b7dab4bd36935c5c846b1fb5886a88c3fe516c6b1b91",
        "stdout": "b91259d714daa22b03d10547fcae86455e62499027f2e86e4362855f36a1e455",
    },
    "df-battery": {
        "battery.csv": "a5de5e8fbda0157f653baaaec1b1c92f9315a5dd9164b0f2563f9e23b7ce3792",
    },
    "df-battery-omega0": {
        # re-pinned when the battery's levels went into units of omega0: the
        # queries at omega0 = 2.5 are 2.5 times those at 1
        "battery.csv": "f4789b500181900e75c840a28275c1c54cf286f3e514991418b682c432d9cdfc",
        "stdout": "85aabebdc4beb1cf47ce50c4b94f290a4a6c5853dbf79b7f179e4f606eee8680",
    },
}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    root = tmp_path_factory.mktemp("lock")
    dirs = {name: root / name for name in COMMANDS}
    found = {}
    for name, (argv, outputs) in COMMANDS.items():  # scenario43 runs before lift
        argv = [a.format(**{k: str(v) for k, v in dirs.items()}) for a in argv]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert main(argv + ["--out", str(dirs[name])]) == 0
        (dirs[name] / "stdout").write_text(printed.getvalue())
        found[name] = {f: hashlib.sha256((dirs[name] / f).read_bytes()).hexdigest()
                       for f in outputs}
    return found


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_output_digests_unchanged(digests, command):
    assert digests[command] == EXPECTED[command]
