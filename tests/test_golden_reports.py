"""``smoothgd analyze`` reports checked byte for byte against stored copies.

The reports in ``tests/data/analyze_*.json`` were written by the CLI itself,
so any change to analyze output, down to the last digit of an eigenvalue,
fails here.  The two matrix files were built the way the benchmark builds
its inputs (``perfbench/workloads.py``): ``random_saddle`` at n = 10 with
``np.random.default_rng(15)`` and ``repeated_saddle`` at n = 13 with
``np.random.default_rng(16)``, written with ``%.17g`` entries.

When an output change is intended, rewrite the reports with
``PYTHONPATH=src python tests/test_golden_reports.py`` and review the diff.
"""

import os
import sys

import pytest

from smoothgd import cli

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
SIGMA_LIST = "0,0.01,0.1,1,1,10,100"

CASES = {
    f"canonical_n{n}": ["--objective", "canonical", "--n", str(n)]
    for n in (2, 3, 8, 22, 40)
}
CASES["random_n10"] = ["--objective",
                       os.path.join(DATA, "analyze_random_n10.txt")]
CASES["repeated_n13"] = ["--objective",
                         os.path.join(DATA, "analyze_repeated_n13.txt")]


def _golden(name):
    return os.path.join(DATA, f"analyze_{name}.json")


def _argv(name, report):
    return (["analyze"] + CASES[name]
            + ["--sigma-list", SIGMA_LIST, "--report", report])


@pytest.mark.parametrize("name", sorted(CASES))
def test_analyze_report_matches_the_golden_copy(name, tmp_path, capsys):
    report = str(tmp_path / "report.json")
    assert cli.main(_argv(name, report)) == 0
    assert capsys.readouterr() == ("", "")
    with open(report, "rb") as fh, open(_golden(name), "rb") as gold:
        assert fh.read() == gold.read()


def test_analyze_stdout_matches_the_golden_copy(capsys):
    argv = _argv("canonical_n8", None)[:-2]
    assert cli.main(argv) == 0
    with open(_golden("canonical_n8")) as gold:
        assert capsys.readouterr() == (gold.read(), "")


if __name__ == "__main__":
    for case in sorted(CASES):
        if cli.main(_argv(case, _golden(case))) != 0:
            sys.exit(f"analyze failed on {case}")
