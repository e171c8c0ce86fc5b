"""Tests for schedules and the scalar descent loop."""

import math
from dataclasses import replace

import numpy as np
import pytest

from smoothgd.optimizers import (
    ConstantSigma,
    GradientFunction,
    NumericError,
    PlateauSigma,
    RatioSigma,
    RunConfig,
    RunStatus,
    run,
    stationarity_iteration_bound,
)
from smoothgd.saddle import QuadraticObjective, canonical_objective
from smoothgd.smoothing import _FOURIER_FROM_N, CirculantSmoother


def test_constant_schedule():
    s = ConstantSigma(2.5)
    assert s(0) == 2.5 and s(1000) == 2.5
    assert s.bound == 2.5
    with pytest.raises(ValueError):
        ConstantSigma(-1.0)


def test_ratio_schedule_values():
    s = RatioSigma()
    assert s(0) == pytest.approx(2.0 / 3.0, abs=0)
    assert s(1) == pytest.approx(3.0 / 4.0, abs=0)
    assert s(98) == pytest.approx(100.0 / 101.0, abs=0)
    assert s.bound == 1.0
    values = [s(k) for k in range(10000)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] < 1.0


def test_plateau_schedule():
    s = PlateauSigma(8)
    r = RatioSigma()
    for k in range(8):
        assert s(k) == r(k)
    assert s(8) == s(9) == s(10 ** 6) == pytest.approx(10.0 / 11.0, abs=0)
    assert s.bound == s(8)
    with pytest.raises(ValueError):
        PlateauSigma(-1)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(eta=0.0, max_iters=10)
    with pytest.raises(ValueError):
        RunConfig(eta=0.1, max_iters=-1)
    with pytest.raises(ValueError):
        RunConfig(eta=0.1, max_iters=2.5)
    with pytest.raises(ValueError):
        RunConfig(eta=0.1, max_iters=100.0)
    assert RunConfig(eta=0.1, max_iters=np.int64(3)).max_iters == 3
    with pytest.raises(ValueError):
        RunConfig(eta=0.1, max_iters=10, eps_stationary=-1e-9)
    with pytest.raises(ValueError):
        RunConfig(eta=0.1, max_iters=10, escape_radius=0.0)


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
def test_counts_reject_booleans(flag):
    with pytest.raises(ValueError, match="max_iters must be an integer"):
        RunConfig(eta=0.1, max_iters=flag)
    with pytest.raises(ValueError, match="k0 must be a non-negative integer"):
        PlateauSigma(flag)


def test_gd_contraction_exact():
    # plain descent on the stable axis of diag(2, -2): x_k = 0.8^k x_0
    objective = canonical_objective(2, scale=2.0)
    config = RunConfig(eta=0.1, max_iters=40)
    result = run(objective, np.array([1.0, 0.0]), config, ConstantSigma(0.0))
    assert result.status is RunStatus.MAX_ITERS
    assert result.iterations_used == 40
    np.testing.assert_allclose(result.final_point, [0.8 ** 40, 0.0], rtol=1e-13)


def test_smoothed_step_shrinks_less():
    # one smoothed step divides the gradient term by 1 + 2 sigma
    objective = canonical_objective(2, scale=2.0)
    config = RunConfig(eta=0.1, max_iters=1)
    sigma = 1.5
    result = run(objective, np.array([1.0, 0.0]), config, ConstantSigma(sigma))
    g = 2.0  # gradient at [1, 0]
    expect0 = 1.0 - 0.1 * (1 + sigma) * g / (1 + 2 * sigma)
    expect1 = -0.1 * sigma * g / (1 + 2 * sigma)
    np.testing.assert_allclose(result.final_point, [expect0, expect1], atol=1e-15)


def test_immediate_stationarity():
    objective = canonical_objective(2)
    config = RunConfig(eta=0.1, max_iters=100, eps_stationary=10.0)
    result = run(objective, np.array([0.5, 0.5]), config, RatioSigma())
    assert result.status is RunStatus.REACHED_STATIONARY
    assert result.iterations_used == 0
    np.testing.assert_array_equal(result.final_point, [0.5, 0.5])


def test_escape_detected_at_start():
    objective = canonical_objective(2)
    config = RunConfig(eta=0.1, max_iters=100, escape_radius=1.0)
    result = run(objective, np.array([2.0, 2.0]), config, ConstantSigma(0.0))
    assert result.status is RunStatus.ESCAPED
    assert result.iterations_used == 0


def test_unstable_axis_escapes():
    objective = canonical_objective(2, scale=2.0)
    config = RunConfig(eta=0.1, max_iters=10 ** 4, escape_radius=100.0)
    result = run(objective, np.array([0.0, 1e-8]), config, ConstantSigma(0.0))
    assert result.status is RunStatus.ESCAPED
    assert np.linalg.norm(result.final_point) > 100.0


def test_trajectory_recording():
    objective = canonical_objective(2, scale=2.0)
    config = RunConfig(eta=0.1, max_iters=7, record_trajectory=True)
    x0 = np.array([1.0, 0.0])
    result = run(objective, x0, config, RatioSigma())
    assert result.trajectory.shape == (8, 2)
    np.testing.assert_array_equal(result.trajectory[0], x0)
    np.testing.assert_array_equal(result.trajectory[-1], result.final_point)


def test_numeric_error_reports_iteration():
    objective = canonical_objective(2, scale=2.0)
    config = RunConfig(eta=1e300, max_iters=50)
    with pytest.raises(NumericError) as info, np.errstate(over="ignore"):
        run(objective, np.array([1.0, 1.0]), config, ConstantSigma(0.0))
    assert info.value.iteration >= 0
    assert info.value.iterate.shape == (2,)


def test_gradient_function_adapter():
    # cubic gradient, no closed form needed by the loop
    objective = GradientFunction(2, lambda x: x ** 3)
    config = RunConfig(eta=0.1, max_iters=25)
    result = run(objective, np.array([0.5, -0.5]), config, ConstantSigma(0.0))
    assert result.status is RunStatus.MAX_ITERS
    assert np.all(np.abs(result.final_point) < 0.5)
    with pytest.raises(NotImplementedError):
        objective.value(np.zeros(2))


def test_x0_validation():
    objective = canonical_objective(3)
    config = RunConfig(eta=0.1, max_iters=5)
    with pytest.raises(ValueError):
        run(objective, np.zeros(2), config, ConstantSigma(0.0))
    with pytest.raises(ValueError):
        run(objective, np.array([np.nan, 0.0, 0.0]), config, ConstantSigma(0.0))


def test_iteration_bound_values():
    # C = 0 reduces to the plain descent bound 2 L (f0 - f*) / eps^2
    assert stationarity_iteration_bound(0.0, 1.0, 0.5, 0.0, 0.1) == pytest.approx(100.0, rel=1e-12)
    # C = 1: 2 (1 + 4)^2 / (1 + 8) = 50 / 9 times L delta / eps^2
    assert stationarity_iteration_bound(1.0, 2.0, 1.0, 0.0, 0.1) == pytest.approx(
        2 * 25 * 2 * 1.0 / (9 * 0.01), rel=1e-15)
    with pytest.raises(ValueError):
        stationarity_iteration_bound(-0.5, 1.0, 1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        stationarity_iteration_bound(0.0, 1.0, 1.0, 0.0, 0.0)
    # a NaN in any argument fails its check, as do both signs of NaN
    for position in range(5):
        for bad in (math.nan, -math.nan):
            args = [1.0, 2.0, 1.0, 0.0, 0.1]
            args[position] = bad
            with pytest.raises(ValueError):
                stationarity_iteration_bound(*args)
    # (1 + 4C)^2 / (1 + 8C) is inf / inf at C = inf, which would give NaN
    with pytest.raises(ValueError, match="finite"):
        stationarity_iteration_bound(math.inf, 1.0, 1.0, 0.0, 0.1)


def test_nonsymmetric_matrix_rejected():
    with pytest.raises(ValueError):
        QuadraticObjective(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("n", [9, 257])
@pytest.mark.parametrize("schedule", [ConstantSigma(0.0), RatioSigma(),
                                      PlateauSigma(8)])
def test_final_grad_norm_is_exactly_the_norm_of_the_gradient(rng, n,
                                                             schedule):
    objective = canonical_objective(n)
    # also the same gradient handed back as a strided view, whose BLAS dot
    # sums in another order than np.linalg.norm's contiguous copy does
    strided = GradientFunction(
        n, lambda x: np.repeat(objective.gradient(x), 2)[::2])
    for target in (objective, strided):
        for config in (RunConfig(eta=0.1, max_iters=37),
                       RunConfig(eta=0.1, max_iters=10 ** 4,
                                 eps_stationary=1e-3, escape_radius=1e3)):
            result = run(target, rng.standard_normal(n), config, schedule)
            expect = float(np.linalg.norm(
                target.gradient(result.final_point)))
            assert result.final_grad_norm == expect


def test_constant_sigma_zero_is_plain_gd_bit_for_bit(rng):
    # at a size where the default solve is the FFT route
    n = 513
    objective = canonical_objective(n)
    x0 = rng.standard_normal(n)
    result = run(objective, x0, RunConfig(eta=0.1, max_iters=25),
                 ConstantSigma(0.0))
    x = x0.copy()
    for _ in range(25):
        x = x - 0.1 * objective.gradient(x)
    assert np.array_equal(result.final_point, x)


@pytest.mark.parametrize("n", [_FOURIER_FROM_N, 2 * _FOURIER_FROM_N + 1])
@pytest.mark.parametrize("schedule", [RatioSigma(), ConstantSigma(0.7)])
def test_run_above_the_crossover_matches_a_dense_replay(rng, n, schedule):
    d = rng.uniform(0.5, 2.0, n)
    d[rng.random(n) < 0.1] *= -0.5
    objective = GradientFunction(n, lambda x: d * x)
    x0 = rng.standard_normal(n)
    result = run(objective, x0, RunConfig(eta=0.1, max_iters=40), schedule)
    x = x0.copy()
    for k in range(40):
        dense = CirculantSmoother(n, schedule(k)).dense()
        x = x - 0.1 * np.linalg.solve(dense, d * x)
    assert result.iterations_used == 40
    assert np.linalg.norm(result.final_point - x) <= 1e-10 * np.linalg.norm(x)


def _replay(objective, x0, config, schedule):
    """run()'s loop with every check spelled out, step by step.

    Each step converts and checks the gradient, takes the norms with
    np.linalg.norm, solves through a new operator's public (input-checking)
    ``solve`` and tests the new iterate with np.isfinite.  Returns
    (final point, iterations, status, final gradient norm, trajectory).
    """
    x = np.asarray(x0, dtype=float).copy()
    trajectory = [x.copy()]
    k = 0
    while True:
        grad = np.asarray(objective.gradient(x), dtype=float)
        if not np.isfinite(grad).all():
            raise NumericError("gradient has non-finite entries", x.copy(), k,
                               trajectory)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= config.eps_stationary:
            status = RunStatus.REACHED_STATIONARY
            break
        if k >= config.max_iters:
            status = RunStatus.MAX_ITERS
            break
        if (config.escape_radius < math.inf
                and np.linalg.norm(x) > config.escape_radius):
            status = RunStatus.ESCAPED
            break
        x = x - config.eta * CirculantSmoother(x.shape[0],
                                               schedule(k)).solve(grad)
        k += 1
        if not np.isfinite(x).all():
            raise NumericError("iterate has non-finite entries", x, k,
                               trajectory)
        trajectory.append(x.copy())
    return x, k, status, gnorm, np.array(trajectory)


def _assert_matches_replay(objective, x0, config, schedule):
    config = replace(config, record_trajectory=True)
    result = run(objective, x0, config, schedule)
    x, k, status, gnorm, trajectory = _replay(objective, x0, config, schedule)
    assert result.status is status
    assert result.iterations_used == k
    assert result.final_grad_norm == gnorm
    assert np.array_equal(result.final_point, x)
    assert np.array_equal(result.trajectory, trajectory)
    return result


_REPLAY_CONFIGS = {
    "budget": RunConfig(eta=0.1, max_iters=60),
    "stationary": RunConfig(eta=0.1, max_iters=300, eps_stationary=1e-2),
    "escape": RunConfig(eta=0.1, max_iters=300, escape_radius=3.0),
    "both": RunConfig(eta=0.1, max_iters=300, eps_stationary=1e-2,
                      escape_radius=3.0),
}


@pytest.mark.parametrize("n", [2, 3, 7, 16, 63, 64, 65, 512])
@pytest.mark.parametrize("schedule", [ConstantSigma(0.0), RatioSigma(),
                                      PlateauSigma(8)])
def test_run_matches_a_replay_through_the_checked_solve(rng, n, schedule):
    # run() tests finiteness through squared norms and keeps one operator
    # while sigma holds; every iterate must equal a loop that tests each
    # vector entry by entry and solves through a new operator each step
    seen = set()
    for definite in (True, False):
        d = rng.uniform(0.5, 2.0, n)
        if not definite:
            d[rng.integers(n)] = -2.0
        objective = GradientFunction(n, lambda x, d=d: d * x)
        x0 = rng.standard_normal(n)
        x0 /= np.linalg.norm(x0)
        for config in _REPLAY_CONFIGS.values():
            seen.add(_assert_matches_replay(objective, x0, config,
                                            schedule).status)
    # the cases reach every way a run can end
    assert seen == set(RunStatus)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("step", [0, 1, 5])
@pytest.mark.parametrize("record", [False, True])
def test_non_finite_gradient_raises_at_its_step(bad, step, record):
    def objective():
        calls = []

        def gradient(x):
            calls.append(None)
            g = 2.0 * x
            if len(calls) == step + 1:
                g[1] = bad
            return g

        return GradientFunction(3, gradient)

    config = RunConfig(eta=0.1, max_iters=20, record_trajectory=record)
    x0 = np.array([1.0, -0.5, 0.25])
    with pytest.raises(NumericError, match="gradient") as got:
        run(objective(), x0, config, RatioSigma())
    with pytest.raises(NumericError) as expect:
        _replay(objective(), x0, config, RatioSigma())
    assert got.value.iteration == expect.value.iteration == step
    assert np.array_equal(got.value.iterate, expect.value.iterate)
    if record:
        assert np.array_equal(got.value.trajectory, expect.value.trajectory)
    else:
        assert got.value.trajectory is None


def test_overflowing_iterate_raises_at_the_replay_step():
    objective = GradientFunction(2, lambda x: 1e200 * np.sign(x + 0.5))
    config = RunConfig(eta=1e110, max_iters=50)
    x0 = np.array([1.0, 1.0])
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="iterate") as got:
            run(objective, x0, config, ConstantSigma(0.0))
        with pytest.raises(NumericError) as expect:
            _replay(objective, x0, config, ConstantSigma(0.0))
    assert got.value.iteration == expect.value.iteration == 1
    assert np.array_equal(got.value.iterate, expect.value.iterate)


@pytest.mark.parametrize("n", [3, 64])
def test_finite_gradient_whose_squares_overflow_runs_on(n):
    # every entry is finite, so no NumericError: the norm is inf, no rule
    # fires on it, and run() gives no warning (pytest makes one an error)
    objective = GradientFunction(n, lambda x: np.full(n, 1e200))
    x0 = np.linspace(-1.0, 1.0, n)
    for config in (RunConfig(eta=1e-200, max_iters=4),
                   RunConfig(eta=1e-200, max_iters=4, eps_stationary=1.0,
                             escape_radius=1e3)):
        result = run(objective, x0, config, RatioSigma())
        assert result.final_grad_norm == math.inf
        assert result.status is RunStatus.MAX_ITERS
        assert result.iterations_used == 4
        with np.errstate(over="ignore"):
            _assert_matches_replay(objective, x0, config, RatioSigma())


def test_finite_iterate_whose_squares_overflow_runs_on_without_warning():
    # entries near 1e155 are finite, though their squares overflow; with no
    # escape radius nothing looks at the norm, and nothing warns
    objective = GradientFunction(2, lambda x: np.full(2, -1e150))
    result = _assert_matches_replay(objective, np.zeros(2),
                                    RunConfig(eta=1e5, max_iters=3),
                                    ConstantSigma(0.0))
    assert result.status is RunStatus.MAX_ITERS
    assert np.all(result.final_point == 3e155)


@pytest.mark.parametrize("convert", [list, lambda g: g.astype(np.float32)])
def test_list_and_float32_gradients_still_run(rng, convert):
    d = rng.uniform(0.5, 2.0, 5)
    objective = GradientFunction(5, lambda x: convert(d * x))
    result = _assert_matches_replay(
        objective, rng.standard_normal(5),
        RunConfig(eta=0.1, max_iters=200, eps_stationary=1e-3),
        PlateauSigma(8))
    assert result.status is RunStatus.REACHED_STATIONARY


def test_gradient_of_the_wrong_shape_is_rejected():
    for shape in ((2,), (3, 1), ()):
        objective = GradientFunction(3, lambda x, s=shape: np.zeros(s))
        with pytest.raises(ValueError, match="gradient shape"):
            run(objective, np.ones(3), RunConfig(eta=0.1, max_iters=5),
                ConstantSigma(0.0))
