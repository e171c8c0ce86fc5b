"""End-to-end tests of the command line interface (in process)."""

import argparse
import json
import math
import runpy
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from smoothgd import cli, linalg
from smoothgd.cli import main
from smoothgd.smoothing import CirculantSmoother

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


def _sweep_outputs(tmp_path, capsys, args, coarse_out):
    """(stdout, fine CSV bytes, summary JSON bytes) of one CLI sweep."""
    out, summary = tmp_path / "fine.csv", tmp_path / "summary.json"
    argv = ["sweep", *args, "--out", str(out), "--summary", str(summary)]
    if coarse_out:
        argv += ["--coarse-out", str(tmp_path / "coarse.csv")]
    assert run_cli(argv) == 0
    return capsys.readouterr().out, out.read_bytes(), summary.read_bytes()


@pytest.mark.parametrize("args", [
    ["--example", "1", "--coarse-theta-step", "0.5",
     "--fine-theta-step", "0.001", "--halfwidth", "0.2"],
    ["--example", "2", "--optimizer", "gd", "--r-max", "0.5",
     "--coarse-theta-step", "2", "--fine-theta-step", "0.01"],
])
def test_sweep_writes_the_same_fine_field_with_or_without_coarse_out(
        args, tmp_path, capsys):
    # without --coarse-out the coarse grid is only reduced to its argmin
    reduced = _sweep_outputs(tmp_path, capsys, args, coarse_out=False)
    assert not (tmp_path / "coarse.csv").exists()
    kept = _sweep_outputs(tmp_path, capsys, args, coarse_out=True)
    assert (tmp_path / "coarse.csv").exists()
    assert reduced == kept


def test_sweep_without_coarse_out_checks_the_coarse_grid_at_the_budget(
        tmp_path, capsys, monkeypatch):
    from smoothgd import experiments

    kernel, fine_sweep = experiments._advance_cells, experiments.sweep
    pair_solve = experiments.solve_smoothed_pair
    seen, swept, solved = [], [], []

    def recording(b00, b01, b11, x0c, x1c, config, schedule):
        seen.append((len(x0c), config.max_iters))
        return kernel(b00, b01, b11, x0c, x1c, config, schedule)

    def counting(*args, **kwargs):
        field = fine_sweep(*args, **kwargs)
        swept.append(len(field))
        return field

    def solving(sigma, y0, y1):
        solved.append(type(y0))
        return pair_solve(sigma, y0, y1)

    monkeypatch.setattr(experiments, "_advance_cells", recording)
    monkeypatch.setattr(experiments, "sweep", counting)
    monkeypatch.setattr(experiments, "solve_smoothed_pair", solving)
    monkeypatch.setattr(experiments, "_MAP_BLOCK_CELLS", 500)
    _sweep_outputs(tmp_path, capsys,
                   ["--coarse-theta-step", "1", "--fine-theta-step", "0.1",
                    "--iters", "60"], coarse_out=False)
    # T is built once, by 60 steps of each unit vector as Python floats;
    # every grid cell, in blocks, is checked at the budget and never
    # stepped, and only the fine grid is swept
    assert solved == [float] * (2 * 60)
    assert all(iters == 0 for _, iters in seen)
    assert swept == [20]
    assert sum(cells for cells, _ in seen) == 10 * 360 + 20
    assert len(seen) > 10


@pytest.mark.parametrize("coarse_out", [False, True])
def test_sweep_whose_every_cell_overflows_prints_one_error(tmp_path, capsys,
                                                           coarse_out):
    argv = ["sweep", "--eta", "1e200", "--coarse-theta-step", "1",
            "--fine-theta-step", "0.1", "--out", str(tmp_path / "fine.csv")]
    if coarse_out:
        argv += ["--coarse-out", str(tmp_path / "coarse.csv")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(argv) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "smoothgd: error: every cell failed; no summary available\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["optimize", "--x0", "x3", "--n", "3", "--eta", "1e300", "--iters", "5"],
    # gradient descent on the canonical saddle diverges, long before the
    # budget
    ["optimize", "--x0", "x3", "--n", "3", "--schedule", "gd",
     "--iters", "100000", "--eps", "1e-3"],
    ["smooth", "--method", "dense", "--sigma", "1e300", "--input", "y5"],
    # A(sigma) is singular to working precision: at n = 2 the pair once
    # came out at half its exact value, and at 1e308 the spectrum
    # overflowed with warnings on the way
    ["analyze", "--n", "2", "--sigma-list", "1e45"],
    ["analyze", "--n", "4", "--sigma-list", "1e308"],
])
def test_overflow_fails_in_one_line(args, tmp_path, capsys):
    write_vector(tmp_path / "x3", [1.0, 2.0, 3.0])
    write_vector(tmp_path / "y5", [1.0, 2.0, 3.0, 4.0, 5.0])
    argv = [str(tmp_path / a) if a in ("x3", "y5") else a for a in args]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(argv) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("smoothgd: error: "), err


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
    # the residual check's own Thomas solve breaks down
    ["analyze", "--n", "4", "--sigma-list", "1e100"],
    *(["analyze", "--n", str(n), "--sigma-list", sigma]
      for n in (2, 4, 5) for sigma in ("1e200", "1e300")),
])
def test_analyze_at_huge_sigma_is_a_numerical_error(args, capsys):
    assert run_cli(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("smoothgd: error: ")


def test_smooth_near_the_float_limit_is_silent(tmp_path, capsys):
    # every eigenvalue but the mean's is inf: the solve is the mean
    src = tmp_path / "y.txt"
    write_vector(src, [1.0, 2.0, 3.0, 4.0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["smooth", "--method", "dft", "--sigma", "1e308",
                        "--input", str(src)]) == 0
    assert caught == []
    assert capsys.readouterr() == ("2.5\n" * 4, "")


@pytest.mark.parametrize("command", ["optimize", "analyze"])
def test_one_dimensional_matrix_file_is_a_usage_error(command, tmp_path,
                                                      capsys):
    # the n rule, as for --n 1
    mat = tmp_path / "one.txt"
    write_matrix(mat, [[1.0]])
    vector = tmp_path / "x.txt"
    write_vector(vector, [0.5])
    args = [command, "--objective", str(mat)]
    if command == "optimize":
        args += ["--x0", str(vector)]
    assert run_cli(args) == 1
    assert capsys.readouterr().err == (
        "smoothgd: usage error: dimension must be an integer >= 2, got 1\n")


@pytest.mark.parametrize("flag", ["--coarse-theta-step",
                                  "--fine-theta-step"])
def test_sweep_with_a_step_wider_than_the_span_keeps_one_angle(flag,
                                                               tmp_path,
                                                               capsys):
    fine = tmp_path / "fine.csv"
    assert run_cli(["sweep", "--r-min", "0.1", "--r-max", "0.2",
                    "--r-step", "0.1", flag, "1e12", "--iters", "20",
                    "--out", str(fine)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "min_distance" in captured.out
    assert len(fine.read_text().splitlines()) > 1


@pytest.mark.parametrize("objective", ["canonical", "matrix"])
def test_analyze_rejects_a_perturbed_eigenpair(objective, tmp_path,
                                              monkeypatch, capsys):
    # the canonical saddle goes through the blocked route, a general matrix
    # through the whole-matrix route; in both, sigma = 1's second column
    # moved by 1e-4 of its first fails the residual check on sigma = 1's turn
    similar_eigh = linalg._similar_eigh
    whole_matrix = []

    def perturbed(b, sigmas, blocks=None):
        whole_matrix.append(blocks is None)
        values, vectors = similar_eigh(b, sigmas, blocks)
        for i in np.flatnonzero(sigmas == 1.0):
            vectors[i, :, 1] += 1e-4 * vectors[i, :, 0]
        return values, vectors

    monkeypatch.setattr(linalg, "_similar_eigh", perturbed)
    if objective == "canonical":
        args = ["analyze", "--n", "6"]
    else:
        mat = tmp_path / "b.txt"
        write_matrix(mat, np.diag([2.0, 1.0, 0.5, -1.0]) + 0.1)
        args = ["analyze", "--objective", str(mat)]
    assert run_cli(args + ["--sigma-list", "0.1,1,10"]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and "failed its residual check" in err[0]
    assert set(whole_matrix) == {objective == "matrix"}


def test_analyze_decides_a_loose_residual_bound_by_a_solve(monkeypatch,
                                                          capsys):
    # at n = 22 the residual check's stencil bound is above 1e-8 from about
    # sigma = 6e5, so at 1e8 the exact solve decides, and passes; at the
    # criterion-2 sigmas the bound accepts every pair with no solve
    solved = []
    solve = CirculantSmoother.solve

    def spy(self, y):
        solved.append(self.sigma)
        return solve(self, y)

    monkeypatch.setattr(CirculantSmoother, "solve", spy)
    assert run_cli(["analyze", "--n", "22", "--sigma-list", "1e8"]) == 0
    assert json.loads(capsys.readouterr().out)["per_sigma"][0]["labels"]
    assert solved == [1e8]
    solved.clear()
    assert run_cli(["analyze", "--n", "22", "--sigma-list",
                    "0.01,0.1,1,10,100"]) == 0
    capsys.readouterr()
    assert solved == []


def test_smooth_reports_thomas_breakdown(tmp_path, capsys):
    src = tmp_path / "y.txt"
    write_vector(src, [1.0, 2.0, 3.0, 4.0, 5.0])
    assert run_cli(["smooth", "--sigma", "1e155", "--input", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sigma = 1e+155" in captured.err


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


def test_python_dash_m_smoothgd_runs_the_cli(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "argv", ["smoothgd", "--version"])
    with pytest.raises(SystemExit) as info:
        runpy.run_module("smoothgd", run_name="__main__")
    assert info.value.code == 0
    assert "smoothgd" in capsys.readouterr().out

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
