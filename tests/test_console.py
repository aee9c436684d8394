"""The console script end to end: `python -m qsim.cli` in a subprocess, on
the working tree's src, over one table of requests.

Each run keeps the exit contract (helpers.check_exit).  A row marked "run
twice" runs under two PYTHONHASHSEED values; its two stdouts, and the files
an experiment writes, must be byte-identical.  That catches a report that
depends on string hashing or set order, which no in-process test can see,
as one process has one hash seed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helpers

SRC = Path(__file__).resolve().parent.parent / "src"
HASH_SEEDS = ("1", "2")


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """Positive series of 16, 256 and 4,096 points, T uniform in [12, 28] and
    E in [20, 40], and the two experiment configs the rows read."""
    folder = tmp_path_factory.mktemp("console")
    g = np.random.default_rng(0)
    for n in (16, 256, 4096):
        for name, lo, hi in (("t", 12, 28), ("e", 20, 40)):
            np.savetxt(folder / f"{name}{n}.csv", g.uniform(lo, hi, n))
    (folder / "compare_inner.json").write_text(json.dumps({"repeats": 50}))
    (folder / "qae_vs_classical.json").write_text(json.dumps({"repeats": 3}))
    return folder


def _evaluate(n, options):
    return f"evaluate {options} --input-t {{data}}/t{n}.csv --input-e {{data}}/e{n}.csv"


def _experiment(name):
    return f"experiment {name} --config {{data}}/{name}.json --out {{out}}"


# argv, expected exit, text that a refusal's stderr line starts with, run twice
ROWS = [
    (_evaluate(16, "--variant d --degree 2 --split-level 4"), 0, "", False),
    (_evaluate(256, "--variant c --degree 3"), 0, "", False),
    (_evaluate(256, "--variant a --degree 3"), 0, "", False),
    (_evaluate(256, "--variant b --degree 3"), 0, "", True),
    (_evaluate(256, "--variant sampling --degree 3"), 0, "", True),
    # seed 2^64 + 1 keys every stream through SeedSequence's multi-word hash
    (_evaluate(256, "--variant b --degree 3 --seed 18446744073709551617"), 0, "", True),
    # 30 groups of 10^6 samples per power, split down the tree by binomial draws
    (_evaluate(4096, "--variant sampling --degree 3 --epsilon 0.002"), 0, "", True),
    # a 25-qubit swap test at k = 1, as wide as any state evaluate simulates
    (_evaluate(4096, "--variant a --degree 3"), 0, "", True),
    (_evaluate(16, "--variant c --degree 3 --engine canonical"), 0, "", True),
    # a 25-qubit oracle at k = 2, 1.1 GiB peak RSS
    (_evaluate(16, "--variant d --degree 2 --split-level 4 --engine canonical"), 0, "", True),
    # each repeat estimates from its own child stream
    (_experiment("compare_inner"), 0, "", True),
    # each repeat interleaves IQAE's and Tang sampling's child streams
    (_experiment("qae_vs_classical"), 0, "", True),
    # --out under a regular file, and --config naming a directory
    (_evaluate(16, "--variant poly --out {data}/t16.csv/out"), 3, "error: ", False),
    ("experiment end_to_end --config {data} --out {out}", 3, "error: ", False),
    # LAPACK once printed two DLASCL lines on stdout, out of the reach of an
    # in-process run
    ("fit --mode lsq --eta 0 --domain=-1e300,30", 2, "assumption violated: 'domain' ", False),
]


@pytest.mark.parametrize("command, code, stderr, twice", ROWS,
                         ids=[row[0].replace("{data}/", "") for row in ROWS])
def test_console_request(data, tmp_path, command, code, stderr, twice):
    # a twice-row's two runs run at once, one under each hash seed
    outs = [tmp_path / f"out{i}" for i in range(1 + twice)]
    procs = [subprocess.Popen(
        [sys.executable, "-m", "qsim.cli",
         *(arg.format(data=data, out=out) for arg in command.split())],
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed), cwd=tmp_path,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for out, hash_seed in zip(outs, HASH_SEEDS if twice else ("random",))]
    results = [proc.communicate(timeout=300) + (proc.returncode,) for proc in procs]
    for stdout, err, returncode in results:
        assert returncode == code, err
        got = helpers.check_exit(returncode, stdout, err)  # a report or a refusal's line
        assert code == 0 or got.startswith(stderr), got
    runs = [[stdout] + [p.read_bytes() for p in sorted(out.glob("*"))]
            for (stdout, _, _), out in zip(results, outs)]
    assert all(run == runs[0] for run in runs)
