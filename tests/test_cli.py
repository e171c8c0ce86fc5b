"""End-to-end tests of the command line interface (in process)."""

import argparse
import json
import math
from pathlib import Path

import numpy as np
import pytest

from smoothgd import cli
from smoothgd.cli import main

DATA = Path(__file__).parent / "data"


def write_vector(path, values):
    path.write_text("".join(f"{v}\n" for v in values))


def write_matrix(path, matrix):
    rows = [" ".join(str(v) for v in row) for row in matrix]
    path.write_text(f"{len(matrix)}\n" + "".join(r + "\n" for r in rows))


def run_cli(args):
    return main(list(args))


def test_smooth_oracle(tmp_path, capsys):
    src = tmp_path / "y.txt"
    write_vector(src, [1.0, 0.0, 0.0, 0.0])
    assert run_cli(["smooth", "--sigma", "1", "--input", str(src)]) == 0
    out = [float(line) for line in capsys.readouterr().out.split()]
    np.testing.assert_allclose(out, np.array([7.0, 3.0, 2.0, 3.0]) / 15.0,
                               atol=1e-15)


def test_smooth_methods_agree(tmp_path, capsys):
    src = tmp_path / "y.txt"
    write_vector(src, [0.3, -1.2, 0.8, 2.0, -0.1])
    outputs = []
    for method in ("dft", "thomas", "dense"):
        assert run_cli(["smooth", "--sigma", "2.5", "--input", str(src),
                        "--method", method]) == 0
        outputs.append([float(v) for v in capsys.readouterr().out.split()])
    np.testing.assert_allclose(outputs[0], outputs[1], rtol=1e-11, atol=1e-14)
    np.testing.assert_allclose(outputs[0], outputs[2], rtol=1e-11, atol=1e-14)


def test_smooth_sigma_zero_echo(tmp_path, capsys):
    src = tmp_path / "y.txt"
    write_vector(src, [5.0, -3.0])
    assert run_cli(["smooth", "--sigma", "0", "--input", str(src)]) == 0
    assert [float(v) for v in capsys.readouterr().out.split()] == [5.0, -3.0]


def test_smooth_length_mismatch(tmp_path, capsys):
    src = tmp_path / "y.txt"
    write_vector(src, [1.0, 2.0, 3.0])
    assert run_cli(["smooth", "--n", "4", "--sigma", "1",
                    "--input", str(src)]) == 1
    assert "usage error" in capsys.readouterr().err


def test_optimize_gd_contraction(tmp_path, capsys):
    x0 = tmp_path / "x0.txt"
    write_vector(x0, [1.0, 0.0])
    assert run_cli(["optimize", "--objective", "canonical", "--n", "2",
                    "--c", "2", "--x0", str(x0), "--schedule", "gd"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "max_iters"
    assert payload["iterations_used"] == 100
    assert payload["final_distance"] == pytest.approx(0.8 ** 100, rel=1e-12)
    np.testing.assert_allclose(payload["final_point"], [0.8 ** 100, 0.0],
                               rtol=1e-12)


def test_optimize_trajectory_csv(tmp_path, capsys):
    x0 = tmp_path / "x0.txt"
    write_vector(x0, [0.5, 0.1])
    out = tmp_path / "traj.csv"
    assert run_cli(["optimize", "--n", "2", "--x0", str(x0), "--iters", "20",
                    "--trajectory", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,x_0,x_1,grad_norm"
    assert len(lines) == 22  # header + iterates 0..20
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 0.5


def test_optimize_stationary_stop(tmp_path, capsys):
    x0 = tmp_path / "x0.txt"
    write_vector(x0, [1e-9, 0.0])
    assert run_cli(["optimize", "--n", "2", "--x0", str(x0),
                    "--eps", "1e-6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "reached_stationary"
    assert payload["iterations_used"] == 0


def test_optimize_escape(tmp_path, capsys):
    x0 = tmp_path / "x0.txt"
    write_vector(x0, [0.0, 0.01])
    assert run_cli(["optimize", "--n", "2", "--c", "2", "--x0", str(x0),
                    "--schedule", "gd", "--iters", "10000",
                    "--escape-radius", "100"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "escaped"


def test_optimize_matrix_objective(tmp_path, capsys):
    mat = tmp_path / "b.txt"
    write_matrix(mat, [[2.0, 6.0], [6.0, 4.0]])
    x0 = tmp_path / "x0.txt"
    write_vector(x0, [0.1, 0.1])
    assert run_cli(["optimize", "--objective", str(mat), "--x0", str(x0),
                    "--schedule", "constant:0.5", "--iters", "50"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] in ("max_iters", "escaped")
    assert math.isfinite(payload["final_grad_norm"])


def test_optimize_schedules_differ(tmp_path, capsys):
    x0 = tmp_path / "x0.txt"
    write_vector(x0, [0.3, -0.4])
    finals = {}
    for schedule in ("gd", "ratio", "constant:1", "plateau:8"):
        assert run_cli(["optimize", "--n", "2", "--x0", str(x0),
                        "--schedule", schedule, "--iters", "30"]) == 0
        finals[schedule] = json.loads(capsys.readouterr().out)["final_distance"]
    assert len({round(v, 15) for v in finals.values()}) == 4


def test_analyze_canonical(tmp_path, capsys):
    assert run_cli(["analyze", "--objective", "canonical", "--n", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim_W"] == 2
    assert payload["degenerate"] is False
    assert payload["sigma_independent"] is True
    assert payload["max_principal_angle"] <= 1e-7
    assert len(payload["per_sigma"]) == 4
    entry = payload["per_sigma"][0]
    assert entry["sigma"] == 0.1
    assert len(entry["eigenvalues"]) == 5
    assert entry["labels"].count("negative_mode") == 1
    w = np.array(payload["w_basis"])
    assert w.shape == (2, 5)
    np.testing.assert_allclose(w @ w.T, np.eye(2), atol=1e-12)


def test_analyze_n2_empty_basis(capsys):
    assert run_cli(["analyze", "--objective", "canonical", "--n", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim_W"] == 0


def test_analyze_swap_matrix(tmp_path, capsys):
    mat = tmp_path / "b.txt"
    write_matrix(mat, [[0.0, 1.0], [1.0, 0.0]])
    assert run_cli(["analyze", "--objective", str(mat)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim_W"] == 1
    assert payload["sigma_independent"] is None
    row = np.abs(np.array(payload["w_basis"][0]))
    np.testing.assert_allclose(row, np.full(2, 1 / math.sqrt(2)), atol=1e-12)


def test_analyze_degenerate_kernel(tmp_path, capsys):
    mat = tmp_path / "b.txt"
    write_matrix(mat, [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
    assert run_cli(["analyze", "--objective", str(mat)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degenerate"] is True
    assert payload["dim_W"] is None
    assert payload["kernel_direction_fixed"] is True


def test_analyze_report_file(tmp_path):
    report = tmp_path / "report.json"
    assert run_cli(["analyze", "--n", "4", "--sigma-list", "0.5,2",
                    "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert [e["sigma"] for e in payload["per_sigma"]] == [0.5, 2.0]


def test_sweep_custom(tmp_path, capsys):
    mat = tmp_path / "b.txt"
    write_matrix(mat, [[2.0, 6.0], [6.0, 4.0]])
    out = tmp_path / "fine.csv"
    coarse_out = tmp_path / "coarse.csv"
    summary = tmp_path / "summary.json"
    assert run_cli(["sweep", "--example", "custom", "--objective", str(mat),
                    "--r-min", "0.1", "--r-max", "0.2", "--r-step", "0.1",
                    "--coarse-theta-step", "10", "--fine-theta-step", "1",
                    "--halfwidth", "5", "--iters", "60",
                    "--out", str(out), "--coarse-out", str(coarse_out),
                    "--summary", str(summary)]) == 0
    stdout = capsys.readouterr().out
    assert "min_distance" in stdout
    data = json.loads(summary.read_text())
    assert set(data) >= {"min_distance", "argmin_r", "argmin_theta_deg"}
    from smoothgd.experiments import load_csv

    fine = load_csv(str(out))
    coarse = load_csv(str(coarse_out))
    assert len(coarse) == 2 * 36
    assert len(fine) == 10
    assert data["min_distance"] == pytest.approx(fine.summary().min_distance)


def test_sweep_gd_optimizer(tmp_path, capsys):
    mat = tmp_path / "b.txt"
    write_matrix(mat, [[0.0, 1.0], [1.0, 0.0]])
    assert run_cli(["sweep", "--example", "custom", "--objective", str(mat),
                    "--optimizer", "gd", "--r-min", "0.1", "--r-max", "0.1",
                    "--r-step", "0.1", "--coarse-theta-step", "30",
                    "--fine-theta-step", "10", "--halfwidth", "10",
                    "--iters", "40"]) == 0
    assert "min_distance" in capsys.readouterr().out


def test_exit_codes(tmp_path, capsys):
    # unknown choice -> usage error 1
    assert run_cli(["smooth", "--sigma", "1", "--input", "x", "--method",
                    "magic"]) == 1
    capsys.readouterr()
    # missing input file -> io error 3
    assert run_cli(["smooth", "--sigma", "1",
                    "--input", str(tmp_path / "absent.txt")]) == 3
    capsys.readouterr()
    # bad schedule spec -> usage error 1
    x0 = tmp_path / "x0.txt"
    write_vector(x0, [0.1, 0.1])
    assert run_cli(["optimize", "--n", "2", "--x0", str(x0),
                    "--schedule", "warp:9"]) == 1
    capsys.readouterr()
    # negative sigma is a flag value the library rejects -> usage error 1
    src = tmp_path / "y.txt"
    write_vector(src, [1.0, 2.0])
    assert run_cli(["smooth", "--sigma", "-1", "--input", str(src)]) == 1
    capsys.readouterr()
    # malformed vector file -> usage error 1 naming the line
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\nnot-a-number\n")
    assert run_cli(["smooth", "--sigma", "1", "--input", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "bad.txt" in err and "2" in err
    # canonical objective without --n -> usage error 1
    assert run_cli(["analyze"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("args", [
    ["optimize", "--n", "2", "--iters", "-1"],
    ["optimize", "--n", "2", "--eta", "0"],
    ["smooth", "--sigma", "nan"],
    ["sweep", "--halfwidth", "0"],
    ["sweep", "--fine-theta-step", "-1e-5"],
    ["sweep", "--r-min", "0"],
    ["sweep", "--iters", "-1"],
    ["optimize", "--n", "1"],
    ["optimize", "--n", "0"],
    ["analyze", "--n", "1"],
    ["analyze", "--n", "0"],
    ["optimize", "--n", "2", "--c", "-1"],
    ["optimize", "--n", "2", "--c", "nan"],
    ["analyze", "--n", "2", "--c", "-1"],
    ["analyze", "--n", "2", "--c", "nan"],
    ["sweep", "--example", "custom", "--objective", "MATRIX", "--c", "-1"],
    ["optimize", "--n", "2", "--x0", "NAN_VECTOR"],
    ["optimize", "--n", "2", "--x0", "INF_VECTOR"],
    ["smooth", "--sigma", "1", "--input", "NAN_VECTOR"],
    ["smooth", "--sigma", "1", "--input", "INF_VECTOR"],
    ["optimize", "--objective", "NAN_MATRIX"],
    ["analyze", "--objective", "INF_MATRIX"],
    ["sweep", "--example", "custom", "--objective", "NAN_MATRIX"],
])
def test_rejected_flag_values_are_usage_errors(args, tmp_path, capsys):
    vector = tmp_path / "v.txt"
    write_vector(vector, [0.1, 0.2])
    # input files named by placeholder; each bad entry sits on line 2
    files = {
        "MATRIX": [[2.0, 1.0], [1.0, -1.0]],
        "NAN_VECTOR": [0.1, math.nan],
        "INF_VECTOR": [0.1, -math.inf],
        "NAN_MATRIX": [[1.0, math.nan], [math.nan, -1.0]],
        "INF_MATRIX": [[math.inf, 0.0], [0.0, -1.0]],
    }
    named = []
    for i, arg in enumerate(args):
        if arg in files:
            path = tmp_path / f"{arg.lower()}.txt"
            if arg.endswith("MATRIX"):
                write_matrix(path, files[arg])
            else:
                write_vector(path, files[arg])
            args = args[:i] + [str(path)] + args[i + 1:]
            if arg != "MATRIX":
                named.append(path.name)
    if args[0] == "optimize" and "--x0" not in args:
        args = args + ["--x0", str(vector)]
    elif args[0] == "smooth" and "--input" not in args:
        args = args + ["--input", str(vector)]
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    assert "usage error" in err
    for name in named:
        assert f"{name}:2:" in err and "non-finite" in err


@pytest.mark.parametrize("args", [
    ["--coarse-theta-step", "1e-9"],
    ["--coarse-theta-step", "1e-320"],
    ["--fine-theta-step", "1e-9"],
    ["--r-max", "1e300", "--r-step", "1e-300"],
])
def test_oversized_sweep_grids_are_usage_errors(args, capsys, monkeypatch):
    def no_arange(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(np, "arange", no_arange)
    assert run_cli(["sweep"] + args) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "cells" in err


def _no_dense_build(*args, **kwargs):
    raise AssertionError("the canonical matrix was built")


def test_optimize_checks_n_against_x0_before_building(tmp_path, capsys,
                                                      monkeypatch):
    x0 = tmp_path / "x0.txt"
    write_vector(x0, [0.5])
    monkeypatch.setattr(cli, "canonical_objective", _no_dense_build)
    assert run_cli(["optimize", "--objective", "canonical", "--n", "30000",
                    "--x0", str(x0)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--x0 holds 1 values" in err


@pytest.mark.parametrize("n", [cli.MAX_ANALYZE_N + 1, 30000])
def test_analyze_caps_canonical_n(n, capsys, monkeypatch):
    monkeypatch.setattr(cli, "canonical_objective", _no_dense_build)
    assert run_cli(["analyze", "--n", str(n)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and str(cli.MAX_ANALYZE_N) in err


def test_version(capsys):
    with pytest.raises(SystemExit) as info:
        run_cli(["--version"])
    assert info.value.code == 0
    assert "smoothgd" in capsys.readouterr().out


@pytest.mark.parametrize("name,args", [
    ("main", ["--help"]),
    ("smooth", ["smooth", "--help"]),
    ("optimize", ["optimize", "--help"]),
    ("analyze", ["analyze", "--help"]),
    ("sweep", ["sweep", "--help"]),
])
def test_help_golden(name, args, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        run_cli(args)
    assert info.value.code == 0
    golden = (DATA / f"help_{name}.txt").read_text()
    assert capsys.readouterr().out == golden


def test_parser_is_built_once_and_reused(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    steps = [
        ["analyze", "--n", "5", "--sigma-list", "0.5,2"],
        ["smooth", "--sigma", "1", "--input", "x", "--method", "magic"],
        ["analyze", "--help"],
        ["analyze", "--n", "6"],
    ]

    def outcome(args):
        try:
            rc = main(list(args))
        except SystemExit as exc:
            rc = ("exit", exc.code)
        return rc, capsys.readouterr()

    fresh = []
    for args in steps:
        cli._build_parser.cache_clear()
        fresh.append(outcome(args))
    assert [rc for rc, _ in fresh] == [0, 1, ("exit", 0), 0]
    assert fresh[2][1].out == (DATA / "help_analyze.txt").read_text()

    calls = []
    original = argparse.ArgumentParser.add_argument

    def spy(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    cli._build_parser.cache_clear()
    try:
        for i, (args, expect) in enumerate(zip(steps, fresh)):
            built = len(calls)
            assert outcome(args) == expect
            assert (len(calls) > built) == (i == 0)
    finally:
        cli._build_parser.cache_clear()
