"""Tests for grid sweeps, rate checks, and the CSV/JSON formats."""

import json
import math
import os
import stat
import sys
import threading
import warnings
from dataclasses import replace

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
    for i in range(len(field)):
        result = run(objective, field.x0[i], config, schedule)
        assert field.status_strings()[i] == result.status.value
        np.testing.assert_allclose(field.final_distance[i],
                                   np.linalg.norm(result.final_point),
                                   rtol=1e-10)


@pytest.mark.parametrize("config,threads,calls", [
    # (cells, step budget) of each kernel call; the grid has 3 cells
    (RunConfig(eta=0.1, max_iters=10), None, [(2, 10), (3, 0)]),
    # the step-map route runs inline whatever the thread count
    (RunConfig(eta=0.1, max_iters=10), 2, [(2, 10), (3, 0)]),
    (RunConfig(eta=0.1, max_iters=10, eps_stationary=1e-12), None,
     [(3, 10)]),
    (RunConfig(eta=0.1, max_iters=10, escape_radius=1e3), None, [(3, 10)]),
    # T overflows: the whole grid is stepped, as in a kernel-only sweep
    (RunConfig(eta=1e200, max_iters=10), None, [(2, 10), (3, 10)]),
])
def test_config_picks_the_route(config, threads, calls, monkeypatch):
    kernel = experiments._advance_cells
    seen = []

    def recording(b00, b01, b11, x0c, x1c, config, schedule):
        seen.append((len(x0c), config.max_iters))
        return kernel(b00, b01, b11, x0c, x1c, config, schedule)

    monkeypatch.setattr(experiments, "_advance_cells", recording)
    grid = PolarGrid(0.5, 0.5, 1.0, 0.0, 90.0, 30.0)
    with np.errstate(over="ignore", invalid="ignore"):
        field = sweep(SWAP, grid, config, ConstantSigma(0.0), threads=threads)
    assert seen == calls
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


def test_field_validation():
    r = np.array([0.1])
    theta = np.array([0.0])
    x0 = np.array([[0.2, 0.0]])  # wrong radius for the polar pair
    with pytest.raises(ValueError):
        DistanceField(r=r, theta_deg=theta, x0=x0,
                      final_distance=np.array([1.0]),
                      status=np.array([0], dtype=np.int8))


def _polar_columns(r, theta):
    theta = np.asarray(theta, dtype=float)
    return np.column_stack([r * np.cos(np.radians(theta)),
                            r * np.sin(np.radians(theta))])


@pytest.mark.parametrize("column", ["r", "theta_deg", "x0"])
def test_field_validation_rejects_nan_coordinates(column):
    columns = dict(r=np.array([0.1, 0.2]), theta_deg=np.array([0.0, 30.0]))
    columns["x0"] = _polar_columns(columns["r"], columns["theta_deg"])
    columns[column] = columns[column].copy()
    columns[column][1] = math.nan
    with pytest.raises(ValueError, match="polar"):
        DistanceField(final_distance=np.array([0.5, 0.5]),
                      status=np.array([1, 1], dtype=np.int8), **columns)


@pytest.mark.parametrize("code", [-1, 4, 9])
def test_field_validation_rejects_unknown_status_codes(code):
    r = np.array([0.1, 0.2])
    with pytest.raises(ValueError, match="status codes"):
        DistanceField(r=r, theta_deg=np.zeros(2), x0=_polar_columns(r, [0, 0]),
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
    kernel = experiments._advance_cells
    seen = []

    def recording(b00, b01, b11, x0c, x1c, config, schedule):
        seen.append((len(x0c), config.max_iters))
        return kernel(b00, b01, b11, x0c, x1c, config, schedule)

    monkeypatch.setattr(experiments, "_advance_cells", recording)
    again = two_scale_search(*args, **kwargs)
    # the unit vectors are stepped once; each grid is checked at the budget
    assert seen == [(2, 60), (len(coarse), 0), (len(fine), 0)]
    _same_field(again[0], coarse)
    _same_field(again[1], fine)
    assert again[2] == summary
    assert experiments._step_maps.get() is None


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
    with np.errstate(invalid="ignore"):   # a signalling NaN radius
        x0 = _polar_columns(r, theta)
    columns = dict(r=r, theta_deg=theta, x0=x0, final_distance=distance,
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
        emit_csv(case, str(path))
        assert path.read_text() == _row_by_row_csv(case), name


def _format_column(values):
    """experiments._format_floats on a 1-d array, as one string a value."""
    values = np.asarray(values, dtype=float)
    out = np.zeros((len(values), experiments._FLOAT_WIDTH), dtype=np.uint8)
    experiments._format_floats(values, out, experiments._quad_words())
    out[:, -1] = ord("\n")   # the last slot is always NUL
    return out[out != 0].tobytes().decode("ascii").split("\n")[:-1]


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
    for i in range(len(field)):
        lines.append("%.17g,%.17g,%.17g,%.17g,%.17g,%s" % (
            field.r[i], field.theta_deg[i], field.x0[i, 0], field.x0[i, 1],
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
    theta = np.linspace(-180.0, 180.0, count)
    theta[:4] = [0.0, 90.0, -90.0, 180.0]
    table = np.zeros((count, 4))
    table[:, 0] = r * np.cos(np.radians(theta))
    table[:, 2] = r * np.sin(np.radians(theta))
    status = (np.arange(count) % 4).astype(np.int8)
    distances = np.zeros((count, 3))
    distances[:, 1] = np.geomspace(1e-9, 1e20, count)
    distances[:7, 1] = [0.0, 5e-324, 1e-6, 9.999999999999999e-7, 1e17,
                        1e16, 1.5e-300]
    distances[status == 3, 1] = math.nan
    distances[[7, 11], 1] = [math.inf, -math.inf]   # failed cells
    field = DistanceField(r=r, theta_deg=theta, x0=table[:, ::2],
                          final_distance=distances[:, 1], status=status,
                          metadata={"kind": "odd columns"})
    assert not field.x0.flags.c_contiguous
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


def test_bound_formula_cross_check():
    # the bound at the ratio schedule's C must match the closed form
    schedule = RatioSigma()
    bound = stationarity_iteration_bound(schedule.bound, 2.0, 1.0, 0.0, 1e-2)
    c = schedule.bound
    expect = 2.0 * (1 + 4 * c) ** 2 * 2.0 * 1.0 / ((1 + 8 * c) * 1e-4)
    assert bound == pytest.approx(expect, rel=1e-15)
    assert math.isfinite(bound)
