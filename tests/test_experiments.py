"""Tests for grid sweeps, rate checks, and the CSV/JSON formats."""

import json
import math
import os
import stat
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from smoothgd.experiments import (
    DistanceField,
    FieldSummary,
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


def test_a_step_wider_than_the_span_keeps_theta_min():
    # a half-open [theta_min, theta_max) with a positive span holds
    # theta_min however wide the step
    for step in (360.0, 1e9 * 360.0, 1e12, 1e300):
        grid = PolarGrid(0.1, 0.3, 0.1, -180.0, 180.0, step)
        assert grid.theta_values().tolist() == [-180.0]
        assert grid.cells == 3


def test_grid_validation():
    with pytest.raises(ValueError):
        PolarGrid(0.0, 1.0, 0.1, 0.0, 90.0, 1.0)
    with pytest.raises(ValueError):
        PolarGrid(0.1, 1.0, 0.1, 0.0, 361.0, 1.0)
    with pytest.raises(ValueError):
        PolarGrid(0.1, 1.0, 0.1, 90.0, 90.0, 1.0)
    with pytest.raises(ValueError):
        PolarGrid(0.1, 1.0, -0.1, 0.0, 90.0, 1.0)


def test_grid_cell_cap_allocates_nothing(monkeypatch):
    def no_arange(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(np, "arange", no_arange)
    cli_default = PolarGrid(0.1, 1.0, 0.1, -180.0, 180.0, 1e-3)
    assert cli_default.cells == 3_600_000
    at_cap = PolarGrid(1.0, 10.0, 1.0, 0.0, 360.0, 3.6e-4)
    assert at_cap.cells == experiments.MAX_GRID_CELLS
    for args in [(1.0, 11.0, 1.0, 0.0, 360.0, 3.6e-4),
                 (0.1, 1.0, 0.1, -180.0, 180.0, 1e-9),
                 (0.1, 1.0, 0.1, -180.0, 180.0, 1e-320),
                 (0.1, 1e300, 1e-300, 0.0, 90.0, 90.0)]:
        with pytest.raises(ValueError, match="cells"):
            PolarGrid(*args)


def _kernel_route(config):
    # an escape radius no float64 iterate can exceed changes no result but
    # sends the sweep down the step kernel
    return replace(config, escape_radius=sys.float_info.max)


def _rotated_saddle():
    phi = 0.3
    rot = np.array([[math.cos(phi), -math.sin(phi)],
                    [math.sin(phi), math.cos(phi)]])
    return QuadraticObjective(rot @ np.diag([1.7, -0.9]) @ rot.T)


FIELD_CASES = {
    "example 1, mlsgd": (canonical_objective(2, scale=2.0), RatioSigma()),
    "example 2, mlsgd": (QuadraticObjective(np.array([[2.0, 6.0],
                                                      [6.0, 4.0]])),
                         RatioSigma()),
    "rotated saddle, gd": (_rotated_saddle(), ConstantSigma(0.0)),
}


def _away_from_dip(field):
    # the dip's distances are round-off in any route; compare elsewhere
    gain = np.max(field.final_distance / field.r)
    return field.final_distance >= 1e-6 * gain * field.r


@pytest.mark.parametrize("case", sorted(FIELD_CASES))
def test_step_map_route_matches_step_kernel(case):
    objective, schedule = FIELD_CASES[case]
    grid = PolarGrid(0.1, 0.3, 0.1, -180.0, 180.0, 0.25)
    config = RunConfig(eta=0.1, max_iters=100)
    fast = sweep(objective, grid, config, schedule)
    slow = sweep(objective, grid, _kernel_route(config), schedule)
    np.testing.assert_array_equal(fast.status, slow.status)
    away = _away_from_dip(slow)
    assert np.sum(~away) < 10
    np.testing.assert_allclose(fast.final_distance[away],
                               slow.final_distance[away], rtol=1e-10)
    assert np.argmin(fast.final_distance) == np.argmin(slow.final_distance)


@pytest.mark.parametrize("case", sorted(FIELD_CASES))
def test_step_map_route_matches_scalar_runs(case):
    objective, schedule = FIELD_CASES[case]
    grid = PolarGrid(0.1, 0.3, 0.1, -180.0, 180.0, 20.0)
    config = RunConfig(eta=0.1, max_iters=100)
    field = sweep(objective, grid, config, schedule)
    assert np.all(_away_from_dip(field))
    x0 = field.x0
    for i in range(len(field)):
        result = run(objective, x0[i], config, schedule)
        assert field.status_strings()[i] == result.status.value
        np.testing.assert_allclose(field.final_distance[i],
                                   np.linalg.norm(result.final_point),
                                   rtol=1e-10)


def _recording_kernel_and_pair_solves(monkeypatch):
    """Record the (cells, step budget) of each kernel call and the
    argument type of each pair solve."""
    kernel = experiments._advance_cells
    pair_solve = experiments.solve_smoothed_pair
    kernel_calls, solved = [], []

    def recording(b00, b01, b11, x0c, x1c, config, schedule):
        kernel_calls.append((len(x0c), config.max_iters))
        return kernel(b00, b01, b11, x0c, x1c, config, schedule)

    def solving(sigma, y0, y1):
        solved.append(type(y0))
        return pair_solve(sigma, y0, y1)

    monkeypatch.setattr(experiments, "_advance_cells", recording)
    monkeypatch.setattr(experiments, "solve_smoothed_pair", solving)
    return kernel_calls, solved


@pytest.mark.parametrize("config,threads,calls", [
    # (cells, step budget) of each kernel call, and the steps the two unit
    # vectors take as floats to build T; the grid has 3 cells
    (RunConfig(eta=0.1, max_iters=10), None, ([(3, 0)], 20)),
    # the step-map route runs inline whatever the thread count
    (RunConfig(eta=0.1, max_iters=10), 2, ([(3, 0)], 20)),
    (RunConfig(eta=0.1, max_iters=10, eps_stationary=1e-12), None,
     ([(3, 10)], 0)),
    (RunConfig(eta=0.1, max_iters=10, escape_radius=1e3), None,
     ([(3, 10)], 0)),
    # T overflows, and both unit vectors stop once they are not finite:
    # the grid is stepped, as in a kernel-only sweep
    (RunConfig(eta=1e200, max_iters=10), None, ([(3, 10)], 4)),
])
def test_config_picks_the_route(config, threads, calls, monkeypatch):
    kernel_calls, solved = _recording_kernel_and_pair_solves(monkeypatch)
    grid = PolarGrid(0.5, 0.5, 1.0, 0.0, 90.0, 30.0)
    with np.errstate(over="ignore", invalid="ignore"):
        field = sweep(SWAP, grid, config, ConstantSigma(0.0), threads=threads)
    assert (kernel_calls, solved.count(float)) == calls
    if config.eta == 1e200:
        assert set(field.status_strings()) == {"failed"}


@pytest.mark.parametrize("escape_radius", [math.inf, sys.float_info.max])
def test_start_on_a_flat_direction_is_stationary(escape_radius):
    flat = QuadraticObjective(np.array([[0.0, 0.0], [0.0, 1.0]]))
    grid = PolarGrid(0.5, 0.5, 1.0, 0.0, 90.0, 45.0)  # theta 0 and 45
    field = sweep(flat, grid, RunConfig(eta=0.1, max_iters=100,
                                        escape_radius=escape_radius),
                  RatioSigma())
    assert list(field.status_strings()) == ["reached_stationary",
                                            "max_iters"]
    assert field.final_distance[0] == 0.5


@pytest.mark.parametrize("escape_radius", [math.inf, sys.float_info.max])
def test_zero_budget_leaves_every_start_in_place(escape_radius):
    field = sweep(SWAP, small_grid(),
                  RunConfig(max_iters=0, escape_radius=escape_radius),
                  RatioSigma())
    assert set(field.status_strings()) == {"max_iters"}
    np.testing.assert_allclose(field.final_distance, field.r, rtol=1e-15)


class _SigmaAt3:
    """A schedule that returns a bad sigma at step 3."""

    def __init__(self, bad):
        self.bad = bad

    def __call__(self, k):
        return self.bad if k == 3 else 0.5


@pytest.mark.parametrize("bad", [-0.5, -2.0, math.nan, math.inf])
@pytest.mark.parametrize("escape_radius", [math.inf, 1e3])
def test_bad_sigma_raises_on_both_routes(bad, escape_radius):
    config = RunConfig(eta=0.1, max_iters=10, escape_radius=escape_radius)
    with pytest.raises(ValueError, match="sigma"):
        run(SWAP, np.array([0.1, 0.2]), config, _SigmaAt3(bad))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="sigma"):
            sweep(SWAP, small_grid(), config, _SigmaAt3(bad))


def test_sweep_matches_scalar_runs():
    # the vectorized grid loop must agree with the scalar loop cell by cell
    grid = small_grid()
    config = RunConfig(eta=0.1, max_iters=60, eps_stationary=1e-9,
                       escape_radius=50.0)
    field = sweep(SWAP, grid, config, RatioSigma())
    assert len(field) == grid.cells
    x0 = field.x0
    for i in range(len(field)):
        result = run(SWAP, x0[i], config, RatioSigma())
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


@pytest.mark.parametrize("threads", [0, -3, 2.5, True, np.True_])
def test_sweep_rejects_bad_thread_count(threads):
    grid = PolarGrid(0.1, 0.2, 0.1, -180.0, 180.0, 90.0)
    with pytest.raises(ValueError, match="threads must be an integer"):
        sweep(SWAP, grid, RunConfig(max_iters=5), RatioSigma(), threads=threads)


def test_sweep_starts_no_thread(monkeypatch):
    # both routes run inline on the calling thread, whatever the count
    def refuse(thread):
        raise AssertionError("sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    grid = PolarGrid(0.1, 0.4, 0.1, -180.0, 180.0, 10.0)
    for config in (RunConfig(eta=0.1, max_iters=40),   # the step map
                   RunConfig(eta=0.1, max_iters=40, escape_radius=30.0)):
        inline = sweep(SWAP, grid, config, RatioSigma())
        for threads in (1, 4):
            field = sweep(SWAP, grid, config, RatioSigma(), threads=threads)
            assert (field.final_distance.tobytes()
                    == inline.final_distance.tobytes())
            assert field.status.tobytes() == inline.status.tobytes()


def test_sweep_rejects_bad_input():
    grid = small_grid()
    with pytest.raises(ValueError):
        sweep(canonical_objective(3), grid, RunConfig(eta=0.1, max_iters=5),
              ConstantSigma(0.0))
    with pytest.raises(ValueError):
        sweep(SWAP, grid, RunConfig(eta=0.1, max_iters=5, record_trajectory=True),
              ConstantSigma(0.0))


def _polar_columns(r, theta):
    theta = np.asarray(theta, dtype=float)
    return np.column_stack([r * np.cos(np.radians(theta)),
                            r * np.sin(np.radians(theta))])


def _write_rows(path, r, theta_deg, x0):
    """A CSV file as emit_csv writes one, with these coordinate columns,
    distance 1 and status max_iters on every row."""
    rows = ["%.17g,%.17g,%.17g,%.17g,1,max_iters" % (a, t, u, v)
            for a, t, (u, v) in zip(r.tolist(), theta_deg.tolist(),
                                    x0.tolist())]
    path.write_text("# eta: 0.1\n" + experiments._CSV_HEADER + "\n"
                    + "".join(row + "\n" for row in rows))


def _loads(path, r, theta_deg, x0):
    """Whether load_csv accepts a file with these coordinate columns."""
    _write_rows(path, r, theta_deg, x0)
    try:
        load_csv(str(path))
    except ValueError as exc:
        assert "polar" in str(exc)
        return False
    return True


def test_field_validation(tmp_path):
    # x0 at the wrong radius for its polar pair
    path = tmp_path / "radius.csv"
    r, theta = np.array([0.1]), np.array([0.0])
    assert _loads(path, r, theta, _polar_columns(r, theta))
    assert not _loads(path, r, theta, np.array([[0.2, 0.0]]))
    with pytest.raises(ValueError, match="inconsistent lengths"):
        DistanceField(r=r, theta_deg=np.zeros(2),
                      final_distance=np.array([1.0]),
                      status=np.array([0], dtype=np.int8))


@pytest.mark.parametrize("column", ["r", "theta_deg", "x0"])
def test_field_validation_rejects_nan_coordinates(tmp_path, column):
    columns = dict(r=np.array([0.1, 0.2]), theta_deg=np.array([0.0, 30.0]))
    if column == "x0":
        # a field derives its starts, so a NaN start can only come from a
        # file
        x0 = _polar_columns(columns["r"], columns["theta_deg"])
        x0[1, 0] = math.nan
        assert not _loads(tmp_path / "nan.csv", columns["r"],
                          columns["theta_deg"], x0)
        return
    columns[column][1] = math.nan
    with pytest.raises(ValueError, match="polar"):
        DistanceField(final_distance=np.array([0.5, 0.5]),
                      status=np.array([1, 1], dtype=np.int8), **columns)


def _product_columns():
    grid = PolarGrid(0.1, 0.4, 0.1, -180.0, 180.0, 30.0)   # 4 x 12 cells
    r = np.repeat(grid.r_values(), 12)
    theta = np.tile(grid.theta_values(), 4)
    return {"r": r, "theta_deg": theta}


@pytest.mark.parametrize("column, at, change", [
    ("x0", (5, 0), 2e-12), ("x0", (17, 1), -2e-12), ("x0", (47, 0), 2e-12),
    ("x0", (30, 1), 5e-13),   # within the tolerance
    ("x0", (0, 0), math.nan), ("x0", (40, 1), math.nan),
    ("r", 0, math.nan), ("r", 13, math.nan), ("r", 47, math.nan),
    ("theta_deg", 0, math.nan), ("theta_deg", 40, math.nan),
])
def test_field_x0_check_in_grid_and_shuffled_order(tmp_path, column, at,
                                                   change):
    # load_csv checks a file's x0 columns against the starts its field
    # derives from r and theta
    columns = _product_columns()
    columns["x0"] = _polar_columns(columns["r"], columns["theta_deg"])
    assert _loads(tmp_path / "exact.csv", **columns)
    columns[column] = columns[column].copy()
    columns[column][at] += change
    # rows out of order, as in a reordered file
    order = np.random.default_rng(5).permutation(48)
    shuffled = {name: values[order] for name, values in columns.items()}
    expected = change == 5e-13
    assert (_loads(tmp_path / "grid.csv", **columns)
            == _loads(tmp_path / "shuffled.csv", **shuffled) == expected)


@pytest.mark.parametrize("code", [-1, 4, 9])
def test_field_validation_rejects_unknown_status_codes(code):
    with pytest.raises(ValueError, match="status codes"):
        DistanceField(r=np.array([0.1, 0.2]), theta_deg=np.zeros(2),
                      final_distance=np.array([0.5, 0.5]),
                      status=np.array([1, code], dtype=np.int8))


@pytest.mark.parametrize("row", ["nan,0,nan,nan,0.5,max_iters",
                                 "0.5,nan,0.5,0,0.5,max_iters",
                                 "0.5,0,nan,0,0.5,max_iters"])
def test_load_csv_rejects_nan_coordinates(tmp_path, row):
    path = tmp_path / "nan.csv"
    path.write_text("# eta: 0.1\nr,theta_deg,x0_0,x0_1,final_distance,status\n"
                    "0.5,0,0.5,0,0.25,max_iters\n" + row + "\n")
    with pytest.raises(ValueError, match="polar"):
        load_csv(str(path))


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


def _copied_summary(field, threshold=None):
    """DistanceField.summary as it was, on copies of the non-failed cells."""
    ok = field.status != experiments._FAILED
    dist = field.final_distance[ok]
    arg = int(np.argmin(dist))
    return FieldSummary(
        min_distance=float(dist[arg]),
        argmin_r=float(field.r[ok][arg]),
        argmin_theta_deg=float(field.theta_deg[ok][arg]),
        max_distance=float(np.max(dist)),
        failed_cells=int(np.sum(~ok)),
        cells_below=(int(np.sum(dist <= threshold))
                     if threshold is not None else None),
    )


@pytest.mark.parametrize("seed", range(6))
def test_summary_matches_the_copy_based_summary(seed):
    rng = np.random.default_rng(seed)
    columns = _product_columns()
    # few distinct distances, so the minimum is tied; failed cells are
    # closer than any other, with a NaN or a finite distance
    distance = rng.integers(1, 4, 48).astype(float)
    status = rng.integers(0, 4, 48).astype(np.int8)
    if seed == 0:
        status[status == experiments._FAILED] = 0   # no failed cell
    failed = status == experiments._FAILED
    distance[failed] = np.where(rng.random(int(failed.sum())) < 0.5,
                                math.nan, 0.0)
    field = DistanceField(final_distance=distance, status=status, **columns)
    for threshold in (None, 0.0, 1.0, 2.5, math.inf, math.nan):
        assert (field.summary(threshold)
                == _copied_summary(field, threshold)), threshold
    assert np.sum(distance == field.summary().min_distance) > 1


def test_summary_raises_if_every_cell_failed():
    columns = _product_columns()
    field = DistanceField(final_distance=np.full(48, math.nan),
                          status=np.full(48, experiments._FAILED,
                                         dtype=np.int8), **columns)
    with pytest.raises(ValueError, match="every cell failed"):
        field.summary()


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


def _same_field(a, b):
    for name in ("r", "theta_deg", "x0", "final_distance", "status"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.metadata == b.metadata


@pytest.mark.parametrize("eta", [0.1, 1e200])
def test_shared_step_map_gives_the_fields_of_separate_sweeps(eta):
    config = RunConfig(eta=eta, max_iters=40)
    objective = _rotated_saddle()
    coarse_grid = PolarGrid(0.1, 0.3, 0.1, -180.0, 180.0, 2.0)
    fine_grid = PolarGrid(0.2, 0.2, 0.1, 10.0, 30.0, 0.01)
    with np.errstate(over="ignore", invalid="ignore"):
        alone = [sweep(objective, grid, config, RatioSigma())
                 for grid in (coarse_grid, fine_grid)]
        schedule = RatioSigma()
        with experiments._sharing_step_maps():
            shared = [sweep(objective, grid, config, schedule)
                      for grid in (coarse_grid, fine_grid)]
    for a, b in zip(alone, shared):
        _same_field(a, b)
    if eta == 1e200:
        assert set(shared[1].status_strings()) == {"failed"}


def test_two_scale_search_builds_the_step_map_once(monkeypatch):
    coarse_grid = PolarGrid(0.1, 0.2, 0.1, -180.0, 180.0, 5.0)
    config = RunConfig(eta=0.1, max_iters=60)
    args = (_rotated_saddle(), coarse_grid, config, RatioSigma())
    kwargs = dict(refine_halfwidth_deg=2.0, fine_step_deg=0.5)
    coarse, fine, summary = two_scale_search(*args, **kwargs)
    kernel_calls, solved = _recording_kernel_and_pair_solves(monkeypatch)
    again = two_scale_search(*args, **kwargs)
    # the unit vectors are stepped once, as floats; each grid is checked
    # at the budget and never stepped
    assert solved == [float] * (2 * 60)
    assert kernel_calls == [(len(coarse), 0), (len(fine), 0)]
    _same_field(again[0], coarse)
    _same_field(again[1], fine)
    assert again[2] == summary
    assert experiments._step_maps.get() is None


REDUCER_CASES = {
    "example 1": canonical_objective(2, scale=2.0),
    "example 2": QuadraticObjective(np.array([[2.0, 6.0], [6.0, 4.0]])),
    "custom saddle": _rotated_saddle(),
}


@pytest.mark.parametrize("schedule", [ConstantSigma(0.0), RatioSigma()],
                         ids=["gd", "mlsgd"])
@pytest.mark.parametrize("case", sorted(REDUCER_CASES))
def test_coarse_argmin_is_the_argmin_of_the_swept_field(case, schedule,
                                                        monkeypatch):
    objective = REDUCER_CASES[case]
    grid = PolarGrid(0.1, 0.5, 0.1, -180.0, 180.0, 1.0)   # 5 x 360 cells
    config = RunConfig(eta=0.1, max_iters=100)
    whole = sweep(objective, grid, config, schedule)
    pivot = whole.summary()
    argmin = (pivot.argmin_r, pivot.argmin_theta_deg)
    assert experiments._coarse_argmin(objective, grid, config,
                                      schedule) == argmin
    # blocks of part of a radius, and of two whole radii
    for cells in (7, 1000):
        monkeypatch.setattr(experiments, "_MAP_BLOCK_CELLS", cells)
        _same_field(sweep(objective, grid, config, schedule), whole)
        assert experiments._coarse_argmin(objective, grid, config,
                                          schedule) == argmin


def test_coarse_argmin_keeps_the_first_of_ties_across_blocks(monkeypatch):
    # on a round bowl T = 0.9^20 I, and every cell of the smaller radius
    # ends at the same distance
    objective = QuadraticObjective(np.eye(2))
    grid = PolarGrid(0.1, 0.2, 0.1, -45.0, 315.0, 45.0)   # 2 x 8 cells
    config = RunConfig(eta=0.1, max_iters=20)
    field = sweep(objective, grid, config, ConstantSigma(0.0))
    ties = np.flatnonzero(field.final_distance == field.final_distance.min())
    assert len(ties) == 8
    pivot = field.summary()
    assert (pivot.argmin_r, pivot.argmin_theta_deg) == (0.1, -45.0)
    for cells in (1, 3, 5, 8, 16):
        monkeypatch.setattr(experiments, "_MAP_BLOCK_CELLS", cells)
        assert experiments._coarse_argmin(
            objective, grid, config, ConstantSigma(0.0)) == (0.1, -45.0)


# gd on B = diag(0, -1) with eta 1201 grows the second coordinate by 1202
# per step: T = diag(1, 1202^100), about 1e308, so a start whose second
# coordinate is above 1.8 overflows to a failed cell
_OVERFLOWING = (QuadraticObjective(np.diag([0.0, -1.0])),
                RunConfig(eta=1201.0, max_iters=100))


@pytest.mark.parametrize("cells", [1 << 16, 3])
def test_coarse_argmin_skips_failed_cells(cells, monkeypatch):
    monkeypatch.setattr(experiments, "_MAP_BLOCK_CELLS", cells)
    objective, config = _OVERFLOWING
    grid = PolarGrid(4.0, 5.0, 1.0, -180.0, 180.0, 45.0)
    with np.errstate(over="ignore", invalid="ignore"):
        field = sweep(objective, grid, config, ConstantSigma(0.0))
        argmin = experiments._coarse_argmin(objective, grid, config,
                                            ConstantSigma(0.0))
    failed = field.status_strings() == "failed"
    pivot = field.summary()
    # failed cells come before the closest one, at 0 degrees
    assert (pivot.argmin_r, pivot.argmin_theta_deg) == (4.0, 0.0)
    assert failed[:4].any() and not failed.all()
    assert argmin == (4.0, 0.0)


@pytest.mark.parametrize("eta", [1201.0, 1e200])
def test_coarse_argmin_raises_the_summary_error_if_every_cell_failed(eta):
    # at eta 1201 T is finite and every start's second coordinate is
    # above 1.8; at 1e200 T itself overflows and the field is swept
    objective = _OVERFLOWING[0]
    config = RunConfig(eta=eta, max_iters=100)
    grid = PolarGrid(4.0, 5.0, 1.0, 45.0, 135.0, 45.0)
    with np.errstate(over="ignore", invalid="ignore"):
        field = sweep(objective, grid, config, ConstantSigma(0.0))
        assert set(field.status_strings()) == {"failed"}
        with pytest.raises(ValueError) as swept:
            field.summary()
        with pytest.raises(ValueError) as reduced:
            experiments._coarse_argmin(objective, grid, config,
                                       ConstantSigma(0.0))
    assert str(reduced.value) == str(swept.value)
    assert "every cell failed" in str(reduced.value)


def test_coarse_argmin_rejects_an_infinite_distance_as_sweep_does():
    # T = 1202^100 I on B = -I: both coordinates stay finite, and their
    # hypot overflows
    objective = QuadraticObjective(-np.eye(2))
    config = RunConfig(eta=1201.0, max_iters=100)
    grid = PolarGrid(2.0, 2.0, 1.0, 40.0, 50.0, 5.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError) as swept:
            sweep(objective, grid, config, ConstantSigma(0.0))
        with pytest.raises(ValueError) as reduced:
            experiments._coarse_argmin(objective, grid, config,
                                       ConstantSigma(0.0))
    assert str(reduced.value) == str(swept.value)
    assert "non-finite distance" in str(reduced.value)


# blocks of 7 cells split every 24-angle row of the grids below
_ODD_BLOCK = 7


class _CountingSigma:
    """RatioSigma, counting the steps it is asked for."""

    def __init__(self):
        self.calls = 0

    def __call__(self, k):
        self.calls += 1
        return RatioSigma()(k)


def _whole_grid_field(objective, grid, config, schedule):
    """x0, status and distance from one kernel call over the whole grid,
    with the starts built as the sweep built them before it went block by
    block."""
    r_vals, t_vals = grid.r_values(), grid.theta_values()
    radians = np.radians(t_vals)
    x0 = np.empty((len(r_vals), len(t_vals), 2))
    np.multiply(r_vals[:, None], np.cos(radians), out=x0[..., 0])
    np.multiply(r_vals[:, None], np.sin(radians), out=x0[..., 1])
    x0 = x0.reshape(-1, 2)
    b = experiments._hessian_entries(objective, config)
    final0, final1, status = experiments._advance_cells(
        *b, x0[:, 0], x0[:, 1], config, schedule)
    distance = np.hypot(final0, final1)
    distance[status == experiments._FAILED] = math.nan
    return x0, status, distance


def test_blocked_kernel_route_equals_one_kernel_call_over_the_grid(
        monkeypatch):
    # the stable direction contracts and the other grows slowly, so cells
    # turn stationary, escape or run out the budget at many different steps
    objective = QuadraticObjective(np.diag([1.0, -0.05]))
    grid = PolarGrid(0.1, 0.5, 0.1, -180.0, 180.0, 15.0)   # 5 x 24 cells
    config = RunConfig(eta=0.1, max_iters=150, eps_stationary=0.02,
                       escape_radius=0.6)
    want = _whole_grid_field(objective, grid, config, RatioSigma())
    monkeypatch.setattr(experiments, "_MAP_BLOCK_CELLS", _ODD_BLOCK)
    schedule = _CountingSigma()
    field = sweep(objective, grid, config, schedule)
    for got, oracle in zip((field.x0, field.status, field.final_distance),
                           want):
        assert got.dtype == oracle.dtype and got.tobytes() == oracle.tobytes()
    # 20 blocks, none of them starting on a row's first cell in step
    blocks = list(experiments._grid_blocks(5, 24))
    assert len(blocks) == 20
    stopped = {code: {i for i, (rows, cols) in enumerate(blocks)
                      if code in field.status.reshape(5, 24)[rows, cols]}
               for code in (experiments._STATIONARY, experiments._ESCAPED,
                            experiments._MAX_ITERS)}
    assert all(len(where) > 1 for where in stopped.values())
    # the schedule is asked once per block for each step a block runs
    assert 150 < schedule.calls < 20 * 150


def _whole_array_summary(field, threshold=None):
    """DistanceField.summary as it was before it read the field in blocks."""
    ok = field.status != experiments._FAILED
    failed = len(ok) - int(np.count_nonzero(ok))
    if failed == len(ok):
        raise ValueError(experiments._ALL_FAILED)
    dist = field.final_distance
    arg = int(np.argmin(np.where(ok, dist, math.inf) if failed else dist))
    below = (int(np.count_nonzero(ok & (dist <= threshold)))
             if threshold is not None else None)
    return FieldSummary(
        min_distance=float(dist[arg]),
        argmin_r=float(field.r[arg]),
        argmin_theta_deg=float(field.theta_deg[arg]),
        max_distance=float(np.max(dist, where=ok, initial=-math.inf)),
        failed_cells=failed,
        cells_below=below,
    )


def _summary_or_error(summarise, field, threshold):
    try:
        return summarise(field, threshold)
    except ValueError as exc:
        return str(exc)


_FAILED_CODE = experiments._FAILED


def _summary_case(name):
    """(distance, status) of 48 cells, read in blocks of 7."""
    distance = np.arange(48, 0, -1, dtype=float) / 8.0
    status = np.full(48, experiments._MAX_ITERS, dtype=np.int8)
    if name == "failed cells":
        status[[3, 20, 47]] = _FAILED_CODE   # 47 holds the least distance
        distance[[3, 20]] = [math.nan, 0.0]
    elif name == "tie across a block boundary":
        distance[[6, 7, 30]] = 0.05   # cells 6 and 7 lie in blocks 0 and 1
    elif name == "tie behind a failed cell":
        distance[[13, 14]] = 0.05
        status[13] = _FAILED_CODE
    elif name == "all failed":
        status[:] = _FAILED_CODE
        distance[::2] = math.nan
    elif name == "only the last block ran":
        status[:42] = _FAILED_CODE
        distance[:42] = math.nan
    return distance, status


@pytest.mark.parametrize("name", [
    "no failed cell", "failed cells", "tie across a block boundary",
    "tie behind a failed cell", "all failed", "only the last block ran"])
def test_blocked_summary_matches_the_whole_array_summary(name, monkeypatch):
    monkeypatch.setattr(experiments, "_MAP_BLOCK_CELLS", _ODD_BLOCK)
    distance, status = _summary_case(name)
    field = DistanceField(final_distance=distance, status=status,
                          **_product_columns())
    for threshold in (None, 0.0, 0.05, 1.0, 2.5, math.inf, math.nan):
        got = _summary_or_error(DistanceField.summary, field, threshold)
        want = _summary_or_error(_whole_array_summary, field, threshold)
        assert got == want, threshold
    if name == "all failed":
        assert got == experiments._ALL_FAILED
    first = {"tie across a block boundary": 6, "tie behind a failed cell": 14}
    if name in first:
        at = first[name]
        assert (got.argmin_r, got.argmin_theta_deg) == (field.r[at],
                                                        field.theta_deg[at])


@pytest.mark.parametrize("config", [
    RunConfig(eta=0.1, max_iters=100, eps_stationary=1e-3),
    RunConfig(eta=0.1, max_iters=100, escape_radius=0.6),
    RunConfig(eta=1e200, max_iters=100),   # T overflows
    _OVERFLOWING[1],
])
def test_coarse_argmin_builds_no_field(config, monkeypatch):
    monkeypatch.setattr(experiments, "_MAP_BLOCK_CELLS", _ODD_BLOCK)
    objective = _OVERFLOWING[0] if config.eta > 1 else _rotated_saddle()
    grid = PolarGrid(4.0, 5.0, 1.0, -180.0, 180.0, 15.0)   # 2 x 24 cells
    field = sweep(objective, grid, config, RatioSigma())
    want = _summary_or_error(DistanceField.summary, field, None)

    def no_field(*args, **kwargs):
        raise AssertionError("the coarse pass built a DistanceField")

    monkeypatch.setattr(experiments, "DistanceField", no_field)
    try:
        got = experiments._coarse_argmin(objective, grid, config,
                                         RatioSigma())
    except ValueError as exc:
        got = str(exc)
    if isinstance(want, FieldSummary):
        want = (want.argmin_r, want.argmin_theta_deg)
    assert got == want


class _BadFrom:
    """0.5 until step k, then a bad sigma."""

    def __init__(self, k):
        self.k = k

    def __call__(self, k):
        return math.nan if k >= self.k else 0.5


@pytest.mark.parametrize("escape_radius", [math.inf, 1e3])
def test_bad_sigma_raises_over_several_blocks(escape_radius, monkeypatch):
    monkeypatch.setattr(experiments, "_MAP_BLOCK_CELLS", 5)
    # |grad| = r on SWAP: the first radius's cells, the first two blocks,
    # are stationary at once and ask for no sigma; the later blocks reach
    # the bad one at step 3
    config = RunConfig(eta=0.1, max_iters=10, eps_stationary=0.15,
                       escape_radius=escape_radius)
    for k in (3, 0):
        with pytest.raises(ValueError, match="sigma"):
            sweep(SWAP, small_grid(), config, _BadFrom(k))
        with pytest.raises(ValueError, match="sigma"):
            experiments._coarse_argmin(SWAP, small_grid(), config,
                                       _BadFrom(k))
    # the step-map route asks for sigma while it builds T
    config = RunConfig(eta=0.1, max_iters=10, escape_radius=escape_radius)
    with pytest.raises(ValueError, match="sigma"):
        experiments._coarse_argmin(SWAP, small_grid(), config, _BadFrom(3))


@pytest.mark.parametrize("objective, config", [
    (SWAP, RunConfig(eta=1e200, max_iters=10)),
    (SWAP, RunConfig(eta=1e200, max_iters=10, eps_stationary=1e-9)),
    # T is finite, and T x0 overflows on every start
    (_OVERFLOWING[0], _OVERFLOWING[1]),
])
def test_overflowing_sweeps_fail_their_cells_without_warnings(objective,
                                                              config):
    grid = PolarGrid(4.0, 5.0, 1.0, 45.0, 135.0, 45.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field = sweep(objective, grid, config, ConstantSigma(0.0))
        with pytest.raises(ValueError, match="every cell failed"):
            experiments._coarse_argmin(objective, grid, config,
                                       ConstantSigma(0.0))
    assert set(field.status_strings()) == {"failed"}


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


@pytest.mark.parametrize("trials", [-2, True, False, np.True_, 2.0, "3"])
def test_rate_check_rejects_bad_trial_counts(trials):
    obj = QuadraticObjective(np.eye(2))
    with pytest.raises(ValueError, match="trials must be an integer"):
        rate_check(obj, trials=trials, eps=1e-2, schedule=RatioSigma())


def test_rate_check_accepts_numpy_and_zero_trial_counts():
    obj = QuadraticObjective(np.eye(2))
    assert rate_check(obj, trials=0, eps=1e-2, schedule=RatioSigma()) == []
    assert len(rate_check(obj, trials=np.int64(2), eps=1e-2,
                          schedule=RatioSigma())) == 2


def test_rate_check_rejects_a_nan_eps_with_the_bound_message():
    obj = QuadraticObjective(np.eye(2))
    with pytest.raises(ValueError, match="eps must be > 0, got nan"):
        rate_check(obj, trials=1, eps=float("nan"), schedule=RatioSigma())


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


@pytest.mark.parametrize("config", [
    RunConfig(eta=0.1, max_iters=100),   # the step-map route
    RunConfig(eta=0.1, max_iters=60, eps_stationary=1e-9,
              escape_radius=50.0),
])
def test_csv_round_trip_is_bit_for_bit(tmp_path, config):
    grid = PolarGrid(0.1, 0.5, 0.1, -180.0, 180.0, 0.7)
    field = sweep(_rotated_saddle(), grid, config, RatioSigma())
    path = tmp_path / "field.csv"
    emit_csv(field, str(path))
    loaded = load_csv(str(path))
    for name in ("r", "theta_deg", "x0", "final_distance", "status"):
        got, want = getattr(loaded, name), getattr(field, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_load_csv_memory_is_that_of_its_columns(tmp_path):
    # rows are parsed into columns allocated for the counted rows, so the
    # traced peak is about 90 bytes a row (the field's 25, x0's 16 and the
    # derived starts it is checked against); holding every row's split
    # strings first would take about 660
    n = 5000
    rng = np.random.default_rng(11)
    field = DistanceField(r=rng.uniform(0.1, 1.0, n),
                          theta_deg=rng.uniform(-180.0, 180.0, n),
                          final_distance=rng.uniform(0.0, 5.0, n),
                          status=rng.integers(0, 3, n).astype(np.int8),
                          metadata={"eta": "0.1"})
    path = tmp_path / "field.csv"
    emit_csv(field, str(path))
    tracemalloc.start()
    try:
        loaded = load_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 150 * n
    for name in ("r", "theta_deg", "final_distance", "status"):
        assert getattr(loaded, name).tobytes() == getattr(field, name).tobytes()


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


def _unchecked_field(r, theta, status, distance, metadata):
    """A DistanceField built past its checks, which NaN radii fail; the
    writer formats whatever columns it is given."""
    field = object.__new__(DistanceField)
    columns = dict(r=r, theta_deg=theta, final_distance=distance,
                   status=status, metadata=metadata)
    for name, value in columns.items():
        object.__setattr__(field, name, value)
    return field


def test_csv_blocks_match_row_by_row_format(tmp_path):
    grid = PolarGrid(0.1, 0.3, 0.1, -180.0, 180.0, 0.04)
    field = sweep(SWAP, grid, RunConfig(eta=0.1, max_iters=5), RatioSigma())
    # three radii, each block boundary inside one of them
    block = experiments._CSV_BLOCK_ROWS
    assert len(np.unique(field.r)) == 3 and len(field) > 3 * block
    assert all(field.r[k * block - 1] == field.r[k * block] for k in (1, 2, 3))
    # then runs of radii that compare equal or print alike but differ in
    # bits: -0.0 and 0.0, NaNs with other payloads; and a radius seen before
    payloads = np.array([0x7FF8000000000001, 0xFFF8000000000123,
                         0x7FF0000000000001], dtype=np.uint64).view(float)
    extra = np.repeat(np.concatenate([[-0.0, 0.0, math.nan, -math.nan],
                                      payloads, [0.3, -0.0]]), 3)
    r = np.concatenate([field.r, extra])
    theta = np.concatenate([field.theta_deg,
                            np.linspace(-90.0, 90.0, len(extra))])
    status = (np.arange(len(r)) % 4).astype(np.int8)
    distance = np.concatenate([field.final_distance, np.ones(len(extra))])
    distance = np.where(status == 3, math.nan, distance)
    mixed = _unchecked_field(r, theta, status, distance, field.metadata)
    with np.errstate(invalid="ignore"):   # x0 of a signalling NaN radius
        assert mixed.x0[:len(field)].tobytes() == field.x0.tobytes()
    # every radius different, across a block boundary; and a single row
    count = block + 5
    distinct = _unchecked_field(np.linspace(0.1, 2.0, count),
                                np.linspace(-180.0, 180.0, count),
                                status[:count], distance[:count],
                                {"kind": "distinct radii"})
    single = _unchecked_field(np.array([0.7]), np.array([12.5]),
                              np.array([1], dtype=np.int8), np.array([0.25]),
                              {"kind": "one row"})
    for name, case in (("mixed", mixed), ("distinct", distinct),
                       ("single", single)):
        path = tmp_path / f"{name}.csv"
        with np.errstate(invalid="ignore"):
            emit_csv(case, str(path))
            assert path.read_text() == _row_by_row_csv(case), name


def _format_column(values):
    """experiments._format_floats on a 1-d array, as one string a value."""
    values = np.asarray(values, dtype=float)
    out = np.zeros((len(values), experiments._FLOAT_WIDTH), dtype=np.uint8)
    experiments._format_floats(values, out, experiments._quad_words())
    out[:, -1] = ord("\n")   # the last slot is always NUL
    return out[out != 0].tobytes().decode("ascii").split("\n")[:-1]


@pytest.mark.parametrize("values", [
    np.full(1000, 0.7),   # one run, as a fine grid's radius
    np.array([3.5]),
    np.repeat([0.1, 0.2, -0.0, 0.0, 0.2], 7),
])
def test_format_runs_writes_what_format_floats_writes(values):
    quad_words = experiments._quad_words()
    want = np.zeros((len(values), experiments._FLOAT_WIDTH), dtype=np.uint8)
    experiments._format_floats(values, want, quad_words)
    got = np.full_like(want, 0xFF)   # every byte must be written
    experiments._format_runs(values, got, quad_words)
    assert got.tobytes() == want.tobytes()


def _assert_formats_like_percent_g(values):
    values = np.asarray(values, dtype=float)
    got = _format_column(values)
    want = ["%.17g" % v for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and bad == []


def test_float_formatter_matches_percent_g_on_edges():
    powers = np.array([10.0 ** j for j in range(-8, 19)]
                      + [float(10 ** j) for j in range(19)])
    below, above = np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)
    i = np.arange(4000)
    ties = (2 * i + 1) / 4 + 1.25e15   # the 17th digit is a 5, exactly
    # doubles just below a power of ten whose 17 digits round up to it;
    # none lies in [1e-6, 1e17), where D is computed
    carries = np.array([1e-305, 1e-79, 1e-14, 1e98, 1e153])
    assert all(("%.17g" % v).startswith("1e") for v in carries)
    # %g's switch points between fixed and exponent form
    switches = np.array([1e-4, 1e-5, 1e-6, 1e16, 1e17, 9.99995e-5,
                         9.999999999999999e-5, 0.00010000000000000002,
                         9.999999999999999e15, 1.0000000000000002e16,
                         99999999999999984.0, 9.999999999999999e-7])
    switches = np.concatenate([switches, np.nextafter(switches, 0.0),
                               np.nextafter(switches, np.inf)])
    specials = np.array([0.0, -0.0, math.nan, -math.nan, math.inf,
                         -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
                         1.7976931348623157e308])
    ordinary = np.concatenate([np.arange(-1000.0, 1001.0),
                               np.arange(-4096, 4097) / 1024.0,
                               [0.1, 0.2, 0.3, 1 / 3, 2 / 3, math.pi]])
    for values in (powers, below, above, ties, carries, switches, specials,
                   ordinary):
        _assert_formats_like_percent_g(np.concatenate([values, -values]))


def test_float_formatter_matches_percent_g_on_random_doubles():
    rng = np.random.default_rng(20261018)
    count = 600_000
    exponents = rng.integers(-8, 19, count)
    mantissas = rng.uniform(1.0, 10.0, count) * rng.choice([-1.0, 1.0], count)
    _assert_formats_like_percent_g(mantissas * 10.0 ** exponents)
    _assert_formats_like_percent_g(rng.uniform(-1.0, 1.0, count))
    # any bit pattern: every exponent, subnormals, NaN payloads
    _assert_formats_like_percent_g(
        rng.integers(-2 ** 63, 2 ** 63, 50_000, dtype=np.int64).view(
            np.float64))


def _row_by_row_csv(field):
    """The CSV text of a field, one %.17g row at a time."""
    lines = [f"# {key}: {field.metadata[key]}"
             for key in sorted(field.metadata)]
    lines.append(experiments._CSV_HEADER)
    x0 = field.x0   # derived on each read, so read once
    for i in range(len(field)):
        lines.append("%.17g,%.17g,%.17g,%.17g,%.17g,%s" % (
            field.r[i], field.theta_deg[i], x0[i, 0], x0[i, 1],
            field.final_distance[i],
            experiments.STATUS_STRINGS[field.status[i]]))
    return "\n".join(lines) + "\n"


def test_csv_of_the_cli_default_fine_field_matches_row_by_row(tmp_path):
    # the fine field `smoothgd sweep` computes with its defaults: example
    # 1, mlsgd, 1 degree either side of the coarse argmin at 1e-5 degrees
    pivot = 13.147999999999996
    grid = PolarGrid(0.1, 0.1, 0.1, pivot - 1.0, pivot + 1.0, 1e-5)
    field = sweep(canonical_objective(2, scale=2.0), grid,
                  RunConfig(eta=0.1, max_iters=100), RatioSigma())
    assert len(field) == 200_000
    path = tmp_path / "fine.csv"
    emit_csv(field, str(path))
    assert path.read_text() == _row_by_row_csv(field)


def test_csv_matches_row_by_row_for_odd_columns(tmp_path):
    # integer radii, strided column views, and values %g spells in ways
    # the exact path leaves to the fallback
    count = 3 * experiments._CSV_BLOCK_ROWS + 5
    r = np.repeat(np.array([1, 2, 7]), count // 3 + 1)[:count]
    angles = np.zeros((count, 2))
    theta = angles[:, 0]
    theta[:] = np.linspace(-180.0, 180.0, count)
    theta[:4] = [0.0, 90.0, -90.0, 180.0]
    status = (np.arange(count) % 4).astype(np.int8)
    distances = np.zeros((count, 3))
    distances[:, 1] = np.geomspace(1e-9, 1e20, count)
    distances[:7, 1] = [0.0, 5e-324, 1e-6, 9.999999999999999e-7, 1e17,
                        1e16, 1.5e-300]
    distances[status == 3, 1] = math.nan
    distances[[7, 11], 1] = [math.inf, -math.inf]   # failed cells
    field = DistanceField(r=r, theta_deg=theta,
                          final_distance=distances[:, 1], status=status,
                          metadata={"kind": "odd columns"})
    assert not field.theta_deg.flags.c_contiguous
    assert not field.final_distance.flags.c_contiguous
    path = tmp_path / "odd.csv"
    emit_csv(field, str(path))
    assert path.read_text() == _row_by_row_csv(field)


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


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_atomic_write_mode_follows_umask(tmp_path, umask, mode):
    target = tmp_path / "out.txt"
    old = os.umask(umask)
    try:
        atomic_write(str(target), "payload")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(target).st_mode) == mode


def test_atomic_write_failed_stream_leaves_no_file(tmp_path):
    def blocks():
        yield "first block\n"
        raise RuntimeError("formatting failed")

    target = tmp_path / "out.csv"
    with pytest.raises(RuntimeError):
        atomic_write(str(target), blocks())
    assert list(tmp_path.iterdir()) == []
    target.write_text("old")
    with pytest.raises(RuntimeError):
        atomic_write(str(target), blocks())
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_text() == "old"


def test_atomic_write_leaves_the_umask_alone(tmp_path, monkeypatch):
    def refuse(mask):
        raise AssertionError("os.umask was called")

    monkeypatch.setattr(os, "umask", refuse)
    target = tmp_path / "out.txt"
    atomic_write(str(target), "payload")
    assert target.read_text() == "payload"


def test_atomic_write_skips_a_temp_name_that_is_taken(tmp_path, monkeypatch):
    names = iter([bytes(8), bytes(8), b"\1" * 8])
    monkeypatch.setattr(os, "urandom", lambda size: next(names))
    taken = tmp_path / f".tmp-{bytes(8).hex()}~"
    taken.write_text("another writer's")
    target = tmp_path / "out.txt"
    atomic_write(str(target), "payload")
    assert target.read_text() == "payload"
    assert taken.read_text() == "another writer's"
    assert sorted(tmp_path.iterdir()) == sorted([taken, target])


def test_atomic_write_gives_up_if_every_temp_name_is_taken(tmp_path,
                                                          monkeypatch):
    monkeypatch.setattr(os, "urandom", lambda size: bytes(size))
    taken = tmp_path / f".tmp-{bytes(8).hex()}~"
    taken.write_text("another writer's")
    with pytest.raises(FileExistsError):
        atomic_write(str(tmp_path / "out.txt"), "payload")
    assert list(tmp_path.iterdir()) == [taken]


def test_bound_formula_cross_check():
    # the bound at the ratio schedule's C must match the closed form
    schedule = RatioSigma()
    bound = stationarity_iteration_bound(schedule.bound, 2.0, 1.0, 0.0, 1e-2)
    c = schedule.bound
    expect = 2.0 * (1 + 4 * c) ** 2 * 2.0 * 1.0 / ((1 + 8 * c) * 1e-4)
    assert bound == pytest.approx(expect, rel=1e-15)
    assert math.isfinite(bound)
