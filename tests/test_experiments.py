"""Tests for grid sweeps, rate checks, and the CSV/JSON formats."""

import json
import math

import numpy as np
import pytest

from smoothgd.experiments import (
    DistanceField,
    PolarGrid,
    atomic_write,
    emit_csv,
    load_csv,
    rate_check,
    sweep,
    two_scale_search,
    write_summary_json,
)
from smoothgd import experiments
from smoothgd.optimizers import (ConstantSigma, RatioSigma, RunConfig, RunStatus,
                                 run, stationarity_iteration_bound)
from smoothgd.saddle import QuadraticObjective, canonical_objective


SWAP = QuadraticObjective(np.array([[0.0, 1.0], [1.0, 0.0]]))


def small_grid():
    return PolarGrid(r_min=0.1, r_max=0.3, r_step=0.1,
                     theta_min_deg=-180.0, theta_max_deg=180.0,
                     theta_step_deg=45.0)


def test_grid_counts():
    grid = small_grid()
    assert len(grid.r_values()) == 3
    assert len(grid.theta_values()) == 8  # half-open: no duplicate seam
    assert grid.cells == 24
    full = PolarGrid(0.1, 1.0, 0.1, -180.0, 180.0, 1.0)
    assert len(full.r_values()) == 10
    assert len(full.theta_values()) == 360


def test_grid_validation():
    with pytest.raises(ValueError):
        PolarGrid(0.0, 1.0, 0.1, 0.0, 90.0, 1.0)
    with pytest.raises(ValueError):
        PolarGrid(0.1, 1.0, 0.1, 0.0, 361.0, 1.0)
    with pytest.raises(ValueError):
        PolarGrid(0.1, 1.0, 0.1, 90.0, 90.0, 1.0)
    with pytest.raises(ValueError):
        PolarGrid(0.1, 1.0, -0.1, 0.0, 90.0, 1.0)


def test_sweep_matches_scalar_runs():
    # the vectorized grid loop must agree with the scalar loop cell by cell
    grid = small_grid()
    config = RunConfig(eta=0.1, max_iters=60, eps_stationary=1e-9,
                       escape_radius=50.0)
    field = sweep(SWAP, grid, config, RatioSigma())
    assert len(field) == grid.cells
    for i in range(len(field)):
        result = run(SWAP, field.x0[i], config, RatioSigma())
        assert field.status_strings()[i] == result.status.value
        np.testing.assert_allclose(field.final_distance[i],
                                   np.linalg.norm(result.final_point),
                                   rtol=1e-12, atol=1e-300)


def test_sweep_statuses():
    grid = small_grid()
    stationary = sweep(SWAP, grid, RunConfig(eta=0.1, max_iters=5,
                                             eps_stationary=100.0),
                       ConstantSigma(0.0))
    assert set(stationary.status_strings()) == {RunStatus.REACHED_STATIONARY.value}
    np.testing.assert_allclose(stationary.final_distance, stationary.r, rtol=1e-14)

    escaped = sweep(canonical_objective(2, scale=2.0), grid,
                    RunConfig(eta=0.1, max_iters=3000, escape_radius=10.0),
                    ConstantSigma(0.0))
    assert RunStatus.ESCAPED.value in set(escaped.status_strings())


def test_sweep_failed_cells_are_nan():
    grid = PolarGrid(0.5, 0.5, 1.0, 0.0, 90.0, 30.0)
    with np.errstate(over="ignore", invalid="ignore"):
        field = sweep(SWAP, grid, RunConfig(eta=1e200, max_iters=10),
                      ConstantSigma(0.0))
    assert set(field.status_strings()) == {"failed"}
    assert np.all(np.isnan(field.final_distance))
    summary_error = pytest.raises(ValueError, field.summary)
    assert "failed" in str(summary_error.value)


def test_sweep_thread_count_irrelevant(tmp_path):
    grid = PolarGrid(0.1, 0.4, 0.1, -180.0, 180.0, 10.0)
    config = RunConfig(eta=0.1, max_iters=80, escape_radius=30.0)
    one = sweep(SWAP, grid, config, RatioSigma(), threads=1)
    many = sweep(SWAP, grid, config, RatioSigma(), threads=4)
    np.testing.assert_array_equal(one.final_distance, many.final_distance)
    np.testing.assert_array_equal(one.status, many.status)
    p1, p2 = tmp_path / "one.csv", tmp_path / "many.csv"
    emit_csv(one, str(p1))
    emit_csv(many, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("threads", [0, -3, 2.5])
def test_sweep_rejects_bad_thread_count(threads):
    grid = PolarGrid(0.1, 0.2, 0.1, -180.0, 180.0, 90.0)
    with pytest.raises(ValueError):
        sweep(SWAP, grid, RunConfig(max_iters=5), RatioSigma(), threads=threads)


def test_sweep_clamps_threads_to_cpus(monkeypatch):
    # a fake executor records its worker count and runs the work inline,
    # so no thread is ever started
    asked = []

    class InlineExecutor:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", InlineExecutor)
    monkeypatch.setattr(experiments, "_available_cpus", lambda: 3)
    grid = PolarGrid(0.1, 0.4, 0.1, -180.0, 180.0, 10.0)
    config = RunConfig(eta=0.1, max_iters=40, escape_radius=30.0)
    many = sweep(SWAP, grid, config, RatioSigma(), threads=100000)
    assert asked == [3]
    inline = sweep(SWAP, grid, config, RatioSigma())
    assert asked == [3]
    np.testing.assert_array_equal(many.final_distance, inline.final_distance)
    monkeypatch.setattr(experiments, "_available_cpus", lambda: 1)
    sweep(SWAP, grid, config, RatioSigma(), threads=8)
    assert asked == [3]


def test_sweep_rejects_bad_input():
    grid = small_grid()
    with pytest.raises(ValueError):
        sweep(canonical_objective(3), grid, RunConfig(eta=0.1, max_iters=5),
              ConstantSigma(0.0))
    with pytest.raises(ValueError):
        sweep(SWAP, grid, RunConfig(eta=0.1, max_iters=5, record_trajectory=True),
              ConstantSigma(0.0))


def test_field_validation():
    r = np.array([0.1])
    theta = np.array([0.0])
    x0 = np.array([[0.2, 0.0]])  # wrong radius for the polar pair
    with pytest.raises(ValueError):
        DistanceField(r=r, theta_deg=theta, x0=x0,
                      final_distance=np.array([1.0]),
                      status=np.array([0], dtype=np.int8))


def test_summary_and_threshold():
    grid = small_grid()
    field = sweep(SWAP, grid, RunConfig(eta=0.1, max_iters=40, escape_radius=50.0),
                  RatioSigma())
    summary = field.summary(threshold=1.0)
    assert summary.min_distance <= summary.max_distance
    idx = int(np.nanargmin(field.final_distance))
    assert summary.argmin_r == field.r[idx]
    assert summary.argmin_theta_deg == field.theta_deg[idx]
    assert summary.cells_below == int(np.sum(field.final_distance <= 1.0))
    assert field.summary().cells_below is None


def test_two_scale_search_refines():
    coarse_grid = PolarGrid(0.1, 0.2, 0.1, -180.0, 180.0, 5.0)
    config = RunConfig(eta=0.1, max_iters=60, escape_radius=50.0)
    coarse, fine, summary = two_scale_search(
        SWAP, coarse_grid, config, RatioSigma(),
        refine_halfwidth_deg=2.0, fine_step_deg=0.5)
    anchor = coarse.summary()
    # fine pass pins the radius and brackets the coarse argmin angle
    assert np.all(fine.r == anchor.argmin_r)
    assert fine.theta_deg.min() >= anchor.argmin_theta_deg - 2.0 - 1e-9
    assert fine.theta_deg.max() <= anchor.argmin_theta_deg + 2.0 + 1e-9
    assert summary.min_distance <= anchor.min_distance + 1e-12
    assert summary == fine.summary()


def test_rate_check_within_bound():
    obj = QuadraticObjective(np.array([[2.0, 0.3], [0.3, 1.0]]))
    for schedule in (ConstantSigma(0.0), RatioSigma()):
        reports = rate_check(obj, trials=6, eps=1e-3, schedule=schedule, seed=3)
        assert len(reports) == 6
        for report in reports:
            assert not report.violated
            assert report.empirical_iters <= report.bound
            assert 0.0 <= report.ratio <= 1.0


def test_rate_check_identity_one_step():
    # identity quadratic, eta = 1: every start reaches the origin in one step,
    # and the C = 0 bound evaluates to 2 L f0 / eps^2
    obj = QuadraticObjective(np.eye(2))
    reports = rate_check(obj, trials=4, eps=1e-2, schedule=ConstantSigma(0.0),
                         seed=11)
    for report in reports:
        assert report.empirical_iters <= 1
    assert stationarity_iteration_bound(0.0, 1.0, 0.5, 0.0, 0.1) == pytest.approx(100.0)


def test_rate_check_rejects_indefinite():
    with pytest.raises(ValueError):
        rate_check(SWAP, trials=2, eps=1e-3, schedule=RatioSigma())


def test_csv_round_trip(tmp_path):
    grid = small_grid()
    field = sweep(SWAP, grid, RunConfig(eta=0.1, max_iters=30, escape_radius=40.0),
                  RatioSigma())
    path = tmp_path / "field.csv"
    emit_csv(field, str(path))
    text = path.read_text()
    assert text.startswith("#")
    assert "r,theta_deg,x0_0,x0_1,final_distance,status" in text
    loaded = load_csv(str(path))
    np.testing.assert_array_equal(loaded.r, field.r)
    np.testing.assert_array_equal(loaded.theta_deg, field.theta_deg)
    np.testing.assert_array_equal(loaded.final_distance, field.final_distance)
    np.testing.assert_array_equal(loaded.status, field.status)
    assert loaded.metadata.get("eta") == "0.1"


def test_csv_round_trip_with_nan(tmp_path):
    grid = PolarGrid(0.5, 0.5, 1.0, 0.0, 60.0, 30.0)
    with np.errstate(over="ignore", invalid="ignore"):
        field = sweep(SWAP, grid, RunConfig(eta=1e200, max_iters=5),
                      ConstantSigma(0.0))
    path = tmp_path / "nan.csv"
    emit_csv(field, str(path))
    loaded = load_csv(str(path))
    assert np.all(np.isnan(loaded.final_distance))
    assert set(loaded.status_strings()) == {"failed"}


def test_summary_json(tmp_path):
    grid = small_grid()
    field = sweep(SWAP, grid, RunConfig(eta=0.1, max_iters=30, escape_radius=40.0),
                  RatioSigma())
    path = tmp_path / "summary.json"
    write_summary_json(field.summary(threshold=0.5), str(path))
    data = json.loads(path.read_text())
    assert set(data) >= {"min_distance", "argmin_r", "argmin_theta_deg",
                         "max_distance", "failed_cells", "cells_below"}
    assert data["failed_cells"] == 0


def test_atomic_write_no_partial_file(tmp_path):
    missing_dir = tmp_path / "absent" / "out.txt"
    with pytest.raises(OSError):
        atomic_write(str(missing_dir), "payload")
    assert not missing_dir.exists()
    target = tmp_path / "ok.txt"
    atomic_write(str(target), "payload")
    assert target.read_text() == "payload"
    assert list(tmp_path.iterdir()) == [target]


def test_bound_formula_cross_check():
    # the bound at the ratio schedule's C must match the closed form
    schedule = RatioSigma()
    bound = stationarity_iteration_bound(schedule.bound, 2.0, 1.0, 0.0, 1e-2)
    c = schedule.bound
    expect = 2.0 * (1 + 4 * c) ** 2 * 2.0 * 1.0 / ((1 + 8 * c) * 1e-4)
    assert bound == pytest.approx(expect, rel=1e-15)
    assert math.isfinite(bound)
