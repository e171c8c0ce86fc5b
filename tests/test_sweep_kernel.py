"""The sweep kernel against the whole-grid loop it replaced.

``_advance_cells`` steps only its live cells and skips the per-cell masks
on steps where no termination rule can fire.  ``_reference_advance_cells``
below is the loop it replaced, kept verbatim: it runs every mask on every
cell at every step.  Both must give the same final points and statuses,
bit for bit.
"""

import math
import sys

import numpy as np
import pytest

from smoothgd import experiments
from smoothgd.experiments import (_ACTIVE, _ESCAPED, _FAILED, _MAX_ITERS,
                                  _STATIONARY, PolarGrid, sweep)
from smoothgd.optimizers import (ConstantSigma, PlateauSigma, RatioSigma,
                                 RunConfig)
from smoothgd.saddle import QuadraticObjective
from smoothgd.smoothing import solve_smoothed_pair


def _reference_advance_cells(b00, b01, b11, x0c, x1c, config, schedule):
    """Advance one chunk of cells through the full termination loop.

    Returns final coordinates and per-cell status codes.  Mirrors
    optimizers.run: at each k the order is stationarity check, budget
    check, escape check, then one smoothed step shared by every still
    active cell.  A sigma that run() would reject raises ValueError.
    """
    x0 = x0c.copy()
    x1 = x1c.copy()
    status = np.full(len(x0), _ACTIVE, dtype=np.int8)
    eps2 = config.eps_stationary * config.eps_stationary
    radius = config.escape_radius
    radius2 = radius * radius if math.isfinite(radius) else math.inf
    eta = config.eta
    for k in range(config.max_iters + 1):
        active = status == _ACTIVE
        if not np.any(active):
            break
        g0 = b00 * x0 + b01 * x1
        g1 = b01 * x0 + b11 * x1
        finite = (np.isfinite(g0) & np.isfinite(g1)
                  & np.isfinite(x0) & np.isfinite(x1))
        stationary = active & finite & (g0 * g0 + g1 * g1 <= eps2)
        status[stationary] = _STATIONARY
        active &= ~stationary
        if k == config.max_iters:
            status[active & finite] = _MAX_ITERS
            status[active & ~finite] = _FAILED
            break
        broken = active & ~finite
        status[broken] = _FAILED
        active &= ~broken
        escaped = active & (x0 * x0 + x1 * x1 > radius2)
        status[escaped] = _ESCAPED
        active &= ~escaped
        if not np.any(active):
            break
        sigma = float(schedule(k))
        if not (math.isfinite(sigma) and sigma >= 0.0):
            raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
        s0, s1 = solve_smoothed_pair(sigma, g0, g1)
        x0 = np.where(active, x0 - eta * s0, x0)
        x1 = np.where(active, x1 - eta * s1, x1)
    return x0, x1, status


SCHEDULES = (RatioSigma(), ConstantSigma(0.0), ConstantSigma(2.0),
             PlateauSigma(5))
RADII = (math.inf, 10.0, 1e3, sys.float_info.max)
EPSILONS = (0.0, 1e-6, 1e-2)
# starts that stop a cell at once or make the step overflow: q = |g|^2
# overflows on the finite ~1e160 starts
SPECIAL_STARTS = (math.nan, math.inf, -math.inf, 0.0, 1e160, -1.3e160)


def _b(rng, kind):
    if kind == "random":
        m = rng.standard_normal((2, 2)) * rng.uniform(0.1, 4.0)
        return (m[0, 0], 0.5 * (m[0, 1] + m[1, 0]), m[1, 1])
    if kind == "singular":
        a, c = rng.uniform(0.5, 3.0, 2) * rng.choice([-1.0, 1.0], 2)
        return (a * a, a * c, c * c)   # rank 1: a flat direction
    # an entry that overflows from scale, as a huge --c would give
    scale = 1e300
    return (scale * 1e10, scale * rng.uniform(-1.0, 1.0), -scale)


def _starts(rng, cells):
    x = rng.standard_normal((2, cells)) * 10.0 ** rng.uniform(-3.0, 3.0,
                                                              cells)
    # up to two kinds of special start, so that some chunks hold an
    # infinite |g|^2 but no NaN
    kinds = rng.choice(SPECIAL_STARTS, int(rng.integers(0, 3)), replace=False)
    special = rng.random((2, cells)) < 0.1
    if len(kinds):
        x[special] = rng.choice(kinds, int(special.sum()))
    if rng.random() < 0.3:
        x[:, 0] = 0.0   # the origin: stationary for every eps
    return x[0], x[1]


def _configurations(count):
    rng = np.random.default_rng(20261019)
    for case in range(count):
        kind = ("random", "singular", "overflow")[case % 3]
        budget = case % 6 if case % 6 < 2 else int(rng.integers(2, 151))
        config = RunConfig(eta=float(rng.uniform(0.02, 0.6)),
                           max_iters=budget,
                           eps_stationary=EPSILONS[case % 7 % 3],
                           escape_radius=RADII[case % 4])
        yield (case, _b(rng, kind), _starts(rng, int(rng.integers(1, 60))),
               config, SCHEDULES[case % 11 % 4])


def _assert_same(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_kernel_matches_the_whole_grid_loop():
    statuses = set()
    for case, b, (x0, x1), config, schedule in _configurations(360):
        with np.errstate(all="ignore"):
            want = _reference_advance_cells(*b, x0, x1, config, schedule)
            got = experiments._advance_cells(*b, x0, x1, config, schedule)
        assert x0.shape == x1.shape == got[0].shape, case
        _assert_same(got, want)
        statuses.update(want[2].tolist())
    # every rule fired somewhere
    assert statuses == {_STATIONARY, _MAX_ITERS, _ESCAPED, _FAILED}


def test_kernel_leaves_its_inputs_alone():
    x0 = np.array([0.3, -0.2, math.nan])
    x1 = np.array([0.1, 0.4, 1.0])
    before = x0.tobytes() + x1.tobytes()
    config = RunConfig(eta=0.1, max_iters=20, escape_radius=5.0)
    with np.errstate(invalid="ignore"):
        experiments._advance_cells(0.0, 1.0, 0.0, x0, x1, config,
                                   RatioSigma())
    assert x0.tobytes() + x1.tobytes() == before


@pytest.mark.parametrize("config", [
    RunConfig(eta=0.1, max_iters=120, escape_radius=10.0),
    RunConfig(eta=0.1, max_iters=60, eps_stationary=1e-2),
    RunConfig(eta=0.3, max_iters=150, eps_stationary=1e-6,
              escape_radius=1e3),
    RunConfig(eta=0.1, max_iters=100, escape_radius=sys.float_info.max),
])
def test_threaded_sweep_matches_the_whole_grid_loop(config, monkeypatch):
    objective = QuadraticObjective(np.array([[2.0, 6.0], [6.0, 4.0]]))
    grid = PolarGrid(0.1, 0.5, 0.1, -180.0, 180.0, 0.5)
    got = sweep(objective, grid, config, RatioSigma(), threads=2)
    monkeypatch.setattr(experiments, "_advance_cells",
                        _reference_advance_cells)
    want = sweep(objective, grid, config, RatioSigma())
    for name in ("x0", "final_distance", "status"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


@pytest.mark.parametrize("grid", [
    PolarGrid(0.1, 1.0, 0.1, -180.0, 180.0, 1e-3),   # the CLI default
    PolarGrid(0.1, 1.0, 0.1, -180.0, 180.0, 0.1),
    PolarGrid(0.1, 0.3, 0.1, -180.0, 180.0, 0.25),
    PolarGrid(0.25, 2.0, 0.35, 13.1, 131.7, 0.013),   # part of a circle
])
def test_sweep_starts_match_the_per_cell_formula(grid, monkeypatch):
    # the starts _swept_blocks hands _advance_cells, block after block, are
    # the field's derived x0 bit for bit.  With no stop rule the sweep takes
    # the step-map route, where at max_iters = 0 T is the identity and T x0
    # is x0; an escape radius sends it down the kernel route
    step_maps, handed = [], []
    finite_step_map = experiments._finite_step_map
    advance = experiments._advance_cells

    def step_map_spy(*args):
        step_maps.append(finite_step_map(*args))
        return step_maps[-1]

    def advance_spy(b00, b01, b11, x0c, x1c, config, schedule):
        handed.append((x0c.copy(), x1c.copy()))
        return advance(b00, b01, b11, x0c, x1c, config, schedule)

    monkeypatch.setattr(experiments, "_finite_step_map", step_map_spy)
    monkeypatch.setattr(experiments, "_advance_cells", advance_spy)
    monkeypatch.setattr(experiments, "_MAP_BLOCK_CELLS", 1000)
    for escape_radius, step_map in ((math.inf, (1.0, 0.0, 0.0, 1.0)),
                                    (1e6, None)):
        step_maps.clear()
        handed.clear()
        field = sweep(QuadraticObjective(np.diag([1.0, -1.0])), grid,
                      RunConfig(max_iters=0, escape_radius=escape_radius),
                      ConstantSigma(0.0))
        assert step_maps == [step_map]
        assert len(handed) > 1
        x0 = field.x0
        for k in (0, 1):
            assert (np.concatenate([h[k] for h in handed]).tobytes()
                    == x0[:, k].tobytes())


def _kernel_step_map(b, config, schedule):
    """T's entries from the kernel's run on the two unit vectors, as the
    step map was built before it stepped Python floats."""
    (t00, t01), (t10, t11), _ = experiments._advance_cells(
        *b, np.array([1.0, 0.0]), np.array([0.0, 1.0]), config, schedule)
    return t00, t01, t10, t11


def _bits(t):
    return np.array(t, dtype=float).view(np.uint64).tolist()


def _rotated_saddle():
    phi = 0.3
    rot = np.array([[math.cos(phi), -math.sin(phi)],
                    [math.sin(phi), math.cos(phi)]])
    return rot @ np.diag([1.7, -0.9]) @ rot.T


STEP_MAP_MATRICES = {
    "example 1": 2.0 * np.diag([1.0, -1.0]),
    "example 2": np.array([[2.0, 6.0], [6.0, 4.0]]),
    "rotated saddle": _rotated_saddle(),
    # gd at eta 1: the first unit vector shrinks 100x a step, and its
    # squared gradient underflows to 0 long before the point does
    "underflow": np.diag([0.99, -1.0]),
    "flat direction": np.diag([0.0, 1.0]),
}


def _hessian(matrix, config):
    return experiments._hessian_entries(QuadraticObjective(matrix), config)


@pytest.mark.parametrize("eta", [0.1, 1.0, 1e200])
@pytest.mark.parametrize("schedule", [ConstantSigma(0.0), RatioSigma(),
                                      PlateauSigma(5)],
                         ids=["gd", "ratio", "plateau"])
@pytest.mark.parametrize("case", sorted(STEP_MAP_MATRICES))
def test_step_map_matches_the_kernel_on_the_unit_vectors(case, schedule,
                                                         eta):
    config = RunConfig(eta=eta, max_iters=100)
    b = _hessian(STEP_MAP_MATRICES[case], config)
    with np.errstate(all="ignore"):
        want = _kernel_step_map(b, config, schedule)
    got = experiments._step_map(b, config, schedule)
    assert _bits(got) == _bits(want)
    if eta == 1e200:
        # T overflows, and the sweep falls back to the kernel
        assert experiments._finite_step_map(b, config, schedule) is None


def test_step_map_freezes_a_unit_vector_whose_squared_gradient_underflows():
    config = RunConfig(eta=1.0, max_iters=100)
    b = _hessian(STEP_MAP_MATRICES["underflow"], config)
    t00 = experiments._step_map(b, config, ConstantSigma(0.0))[0]
    assert t00 == _kernel_step_map(b, config, ConstantSigma(0.0))[0]
    assert t00 == 1.0000000000000827e-162
    # stepping on past the kernel's stationarity rule would not match it
    y = 1.0
    for _ in range(100):
        y = y - 0.99 * y
    assert y == 1.000000000000105e-200


class _NanFrom:
    """sigma 0 before step k0 and NaN from k0 on; records each step asked."""

    def __init__(self, k0):
        self.k0 = k0
        self.asked = []

    def __call__(self, k):
        self.asked.append(k)
        return 0.0 if k < self.k0 else math.nan


def test_step_map_ignores_a_nan_sigma_after_both_unit_vectors_stopped():
    # on 0.99 I both unit vectors stop at the same step, well before 150
    config = RunConfig(eta=1.0, max_iters=200)
    b = _hessian(np.diag([0.99, 0.99]), config)
    kernel_schedule, float_schedule = _NanFrom(150), _NanFrom(150)
    want = _kernel_step_map(b, config, kernel_schedule)
    got = experiments._step_map(b, config, float_schedule)
    assert _bits(got) == _bits(want)
    assert float_schedule.asked == kernel_schedule.asked
    assert 0 < len(float_schedule.asked) < 150


def test_step_map_rejects_a_nan_sigma_while_a_unit_vector_runs():
    # the first unit vector stops near step 81; the second doubles every
    # step and still runs at step 150
    config = RunConfig(eta=1.0, max_iters=200)
    b = _hessian(STEP_MAP_MATRICES["underflow"], config)
    with pytest.raises(ValueError) as kernel_error:
        _kernel_step_map(b, config, _NanFrom(150))
    with pytest.raises(ValueError) as float_error:
        experiments._step_map(b, config, _NanFrom(150))
    assert str(float_error.value) == str(kernel_error.value)
    assert "got nan" in str(float_error.value)
