"""Tests for the circulant smoothing operator and its three solvers."""

import functools

import numpy as np
import pytest

from smoothgd.optimizers import PlateauSigma, RunConfig, RunStatus, run
from smoothgd.saddle import canonical_objective
from smoothgd.smoothing import (_FOURIER_FROM_N, CirculantSmoother,
                                solve_smoothed_pair)


def test_spectrum_n4_sigma1_exact():
    op = CirculantSmoother(4, 1.0)
    np.testing.assert_allclose(op.spectrum(), [1.0, 3.0, 5.0, 3.0], rtol=0, atol=1e-14)


def test_spectrum_n2():
    np.testing.assert_allclose(CirculantSmoother(2, 10.0).spectrum(), [1.0, 21.0],
                               rtol=0, atol=1e-13)


def test_spectrum_range():
    # eigenvalues live in [1, 1 + 4 sigma] for every size
    for n in (3, 8, 17, 64):
        spec = CirculantSmoother(n, 2.5).spectrum()
        assert spec.min() >= 1.0 - 1e-12
        assert spec.max() <= 1.0 + 4 * 2.5 + 1e-10


def test_dense_structure():
    sigma = 0.7
    d = CirculantSmoother(5, sigma).dense()
    np.testing.assert_allclose(np.diag(d), np.full(5, 1 + 2 * sigma), atol=1e-15)
    np.testing.assert_allclose(np.diag(d, 1), np.full(4, -sigma), atol=1e-15)
    assert d[0, 4] == pytest.approx(-sigma)
    assert d[4, 0] == pytest.approx(-sigma)
    np.testing.assert_allclose(d, d.T, atol=0)


def test_dense_n2_single_coupling():
    # n = 2 keeps one coupling per pair, diag 1 + sigma
    d = CirculantSmoother(2, 3.0).dense()
    np.testing.assert_allclose(d, [[4.0, -3.0], [-3.0, 4.0]], atol=1e-15)


def test_solve_oracle_n4_sigma1():
    # first column of the inverse is [7, 3, 2, 3] / 15
    y = np.array([1.0, 0.0, 0.0, 0.0])
    expect = np.array([7.0, 3.0, 2.0, 3.0]) / 15.0
    op = CirculantSmoother(4, 1.0)
    np.testing.assert_allclose(op.solve_dft(y), expect, atol=1e-14)
    np.testing.assert_allclose(op.solve_thomas(y), expect, atol=1e-14)
    np.testing.assert_allclose(np.linalg.solve(op.dense(), y), expect, atol=1e-14)


def test_apply_oracle():
    op = CirculantSmoother(4, 1.0)
    np.testing.assert_allclose(op.apply(np.array([1.0, 0.0, -1.0, 0.0])),
                               [3.0, 0.0, -3.0, 0.0], atol=1e-14)


def test_sigma_zero_identity():
    y = np.array([3.0, -1.0, 2.0])
    op = CirculantSmoother(3, 0.0)
    np.testing.assert_allclose(op.solve_dft(y), y, atol=0)
    np.testing.assert_allclose(op.solve_thomas(y), y, atol=1e-15)
    np.testing.assert_allclose(op.apply(y), y, atol=0)


@pytest.mark.parametrize("n", [2, 3, 8, 33, 128])
@pytest.mark.parametrize("sigma", [0.0, 0.37, 10.0])
def test_routes_agree(n, sigma, rng):
    y = rng.standard_normal(n)
    op = CirculantSmoother(n, sigma)
    a = op.solve_dft(y)
    b = op.solve_thomas(y)
    c = np.linalg.solve(op.dense(), y)
    scale = np.linalg.norm(y)
    assert np.linalg.norm(a - b) <= 1e-11 * scale
    assert np.linalg.norm(a - c) <= 1e-11 * scale
    # multiply back through the operator
    np.testing.assert_allclose(op.apply(a), y, atol=1e-11 * scale)


def test_solve_dispatch_matches_thomas(rng):
    y = rng.standard_normal(7)
    op = CirculantSmoother(7, 1.3)
    np.testing.assert_array_equal(op.solve(y), op.solve_thomas(y))


def test_inv_sqrt_squares_to_solve(rng):
    y = rng.standard_normal(9)
    op = CirculantSmoother(9, 4.2)
    np.testing.assert_allclose(op.inv_sqrt_apply(op.inv_sqrt_apply(y)),
                               op.solve_dft(y), atol=1e-12 * np.linalg.norm(y))


@pytest.mark.parametrize("n", [2, 3, 64])
def test_inv_sqrt_batched_matches_columns(rng, n):
    op = CirculantSmoother(n, 2.5)
    x = rng.standard_normal((n, 5))
    batched = op.inv_sqrt_apply(x)
    by_column = np.column_stack([op.inv_sqrt_apply(c) for c in x.T])
    scale = np.max(np.abs(by_column))
    np.testing.assert_allclose(batched, by_column, rtol=0, atol=1e-14 * scale)
    # both agree with A^(-1/2) built from the dense operator, which for
    # n = 2 is the single-coupling form
    values, vectors = np.linalg.eigh(op.dense())
    dense = vectors @ np.diag(values ** -0.5) @ vectors.T
    np.testing.assert_allclose(batched, dense @ x, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("n", [2, 3, 64])
def test_batched_solves_match_columns(rng, n):
    op = CirculantSmoother(n, 0.8)
    y = rng.standard_normal((n, 5))
    # Thomas runs row by row, so each column gets a vector's exact arithmetic
    thomas = np.column_stack([op.solve_thomas(c) for c in y.T])
    np.testing.assert_array_equal(op.solve_thomas(y), thomas)
    # the default route is Thomas below the crossover, the FFT from it
    expect = thomas if n < _FOURIER_FROM_N else op.solve_dft(y)
    np.testing.assert_array_equal(op.solve(y), expect)
    for method in (op.solve_dft, op.apply):
        by_column = np.column_stack([method(c) for c in y.T])
        np.testing.assert_allclose(method(y), by_column, rtol=0,
                                   atol=1e-15 * np.max(np.abs(by_column)))


# cached per (n, sigma), as an operator caches its factors, so that the
# reference descent below stays cheap
@functools.lru_cache(maxsize=None)
def _numpy_scalar_factors(n, sigma):
    c = sigma / 2.0 if n == 2 else sigma
    d = 1.0 + 2.0 * c
    gamma = -d
    diag = np.full(n, d)
    diag[0] = d - gamma
    diag[-1] = d - c * c / gamma
    denom = np.empty(n)
    denom[0] = diag[0]
    for i in range(1, n):
        denom[i] = diag[i] - c * c / denom[i - 1]
    u = np.zeros(n)
    u[0] = gamma
    u[-1] = -c
    q = _numpy_scalar_tri_solve(c, denom, u)
    v_dot_q = q[0] - (c / gamma) * q[-1]
    return c, gamma, denom, q, v_dot_q


def _numpy_scalar_tri_solve(c, denom, rhs):
    n = len(denom)
    x = np.empty(rhs.shape)
    x[0] = rhs[0]
    for i in range(1, n):
        x[i] = rhs[i] + c * x[i - 1] / denom[i - 1]
    x[-1] = x[-1] / denom[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (x[i] + c * x[i + 1]) / denom[i]
    return x


def _numpy_scalar_thomas(n, sigma, y):
    """The Thomas solve as it ran on numpy scalars: the fast path's oracle.

    Same factorization, same operation order, but every row goes through
    numpy element indexing instead of Python floats.
    """
    y = np.asarray(y, dtype=float)
    if sigma == 0.0:
        return y.copy()
    c, gamma, denom, q, v_dot_q = _numpy_scalar_factors(n, sigma)
    w = _numpy_scalar_tri_solve(c, denom, y)
    v_dot_w = w[0] - (c / gamma) * w[-1]
    return w - np.multiply.outer(q, v_dot_w / (1.0 + v_dot_q))


@pytest.mark.parametrize("n", [2, 3, 8, 64, 513, 4096])
@pytest.mark.parametrize("sigma", [0.0, 0.3, 2.0 / 3.0, 1.0, 100.0])
@pytest.mark.parametrize("k", [None, 5])
def test_thomas_matches_the_numpy_scalar_loop_bit_for_bit(rng, n, sigma, k):
    shape = (n,) if k is None else (n, k)
    y = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
    thomas = _numpy_scalar_thomas(n, sigma, y)
    # from the crossover on, the default solve is the FFT route's bits
    fourier = CirculantSmoother(n, sigma).solve_dft(y)
    for route, expect in (("solve_thomas", thomas),
                          ("solve", thomas if n < _FOURIER_FROM_N
                           else fourier)):
        # a fresh operator, so the cached factors are built by the fast path
        got = getattr(CirculantSmoother(n, sigma), route)(y)
        assert got.shape == expect.shape and got.dtype == np.float64
        assert np.array_equal(got, expect)
        assert got.tobytes() == expect.tobytes()  # signs of zeros too


def _reference_run(objective, x0, config, schedule):
    # run()'s loop as it was written on top of the numpy-scalar solve
    x = x0.copy()
    k = 0
    while True:
        grad = objective.gradient(x)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= config.eps_stationary:
            return x, k, RunStatus.REACHED_STATIONARY, gnorm
        if k >= config.max_iters:
            return x, k, RunStatus.MAX_ITERS, gnorm
        if np.linalg.norm(x) > config.escape_radius:
            return x, k, RunStatus.ESCAPED, gnorm
        x = x - config.eta * _numpy_scalar_thomas(
            len(x), float(schedule(k)), grad)
        k += 1


@pytest.mark.parametrize("n", [7, 9, 11])
def test_run_keeps_antisymmetric_starts_attracted(n):
    # Starts in the span of e_k - e_{n-2-k} are attracted to the saddle, but
    # round-off leaks out of that span into the escaping mode.  Whether a
    # start still converges depends on the solve's exact arithmetic: over
    # 300 such starts at n = 9 and 11, a Fourier solve lets 10 and 16
    # escape, Thomas 1 and 1.  These seeded starts all converge with Thomas,
    # and each run must equal the numpy-scalar reference bit for bit, so any
    # change to the solve's arithmetic shows here.
    rng = np.random.default_rng(7000 + n)
    objective = canonical_objective(n)
    config = RunConfig(eta=0.1, max_iters=10 ** 4, eps_stationary=1e-6,
                       escape_radius=1e3)
    schedule = PlateauSigma(8)
    for _ in range(30):
        x0 = np.zeros(n)
        for k in range((n - 1) // 2):
            c = rng.standard_normal()
            x0[k] += c
            x0[n - 2 - k] -= c
        x0 /= np.linalg.norm(x0)
        result = run(objective, x0, config, schedule)
        assert result.status is RunStatus.REACHED_STATIONARY
        assert np.linalg.norm(result.final_point) <= 1e-6
        point, iterations, status, gnorm = _reference_run(
            objective, x0, config, schedule)
        assert np.array_equal(result.final_point, point)
        assert (result.iterations_used, result.status,
                result.final_grad_norm) == (iterations, status, gnorm)


@pytest.mark.parametrize("n", [_FOURIER_FROM_N + 1, 2 * _FOURIER_FROM_N + 1])
def test_run_above_the_crossover_keeps_antisymmetric_starts_attracted(n):
    # the FFT route's round-off, at sizes where it is the default solve
    rng = np.random.default_rng(7000 + n)
    objective = canonical_objective(n)
    config = RunConfig(eta=0.1, max_iters=10 ** 4, eps_stationary=1e-6,
                       escape_radius=1e3)
    for _ in range(10):
        x0 = np.zeros(n)
        for k in range((n - 1) // 2):
            c = rng.standard_normal()
            x0[k] += c
            x0[n - 2 - k] -= c
        x0 /= np.linalg.norm(x0)
        result = run(objective, x0, config, PlateauSigma(8))
        assert result.status is RunStatus.REACHED_STATIONARY
        assert np.linalg.norm(result.final_point) <= 1e-6


@pytest.mark.parametrize("n", [2, 3, 64, 65, 513, 4096])
def test_fourier_solve_matches_dense(rng, n):
    op = CirculantSmoother(n, 2.5)
    # column 0 is solved as a vector, the other five as one (n, 5) batch;
    # a single dense solve serves both
    y = rng.standard_normal((n, 6))
    expect = np.linalg.solve(op.dense(), y)
    got = np.column_stack([op.solve_dft(y[:, 0]), op.solve_dft(y[:, 1:])])
    err = np.linalg.norm(got - expect, axis=0)
    assert np.all(err <= 1e-12 * np.linalg.norm(y, axis=0))


@pytest.mark.parametrize("n", [3, 5, 64, 513])
def test_sigma_zero_is_exact_on_every_route(rng, n):
    # A(0) and A(0)^(-1/2) are both the identity
    op = CirculantSmoother(n, 0.0)
    for y in (rng.standard_normal(n), rng.standard_normal((n, 5))):
        for route in (op.solve, op.solve_dft, op.solve_thomas,
                      op.inv_sqrt_apply):
            got = route(y)
            assert np.array_equal(got, y) and got is not y


@pytest.mark.parametrize("sigma", [0.0, 0.3, 2.0, 100.0])
def test_n2_is_the_ring_at_half_strength(rng, sigma):
    op = CirculantSmoother(2, sigma)
    # spectrum, apply and dense equal the single-coupling closed forms
    # bit for bit
    np.testing.assert_array_equal(op.spectrum(), [1.0, 1.0 + 2.0 * sigma])
    np.testing.assert_array_equal(
        op.dense(), [[1.0 + sigma, -sigma], [-sigma, 1.0 + sigma]])
    x = rng.standard_normal(2)
    np.testing.assert_array_equal(
        op.apply(x), [(1.0 + sigma) * x[0] - sigma * x[1],
                      (1.0 + sigma) * x[1] - sigma * x[0]])
    # both solve routes match the closed-form pair solve to round-off:
    # 1e-15 relative, scaled by the condition number 1 + 2 sigma
    y = rng.standard_normal((2, 8))
    expect = np.array(solve_smoothed_pair(sigma, y[0], y[1]))
    for route in (op.solve_thomas, op.solve_dft):
        assert (np.max(np.abs(route(y) - expect))
                <= 1e-15 * (1.0 + 2.0 * sigma) * np.max(np.abs(expect)))


@pytest.mark.parametrize("n", [2, 5, 8, 63])
@pytest.mark.parametrize("k", [None, 3])
def test_thomas_is_finite_or_raises_on_breakdown(rng, n, k):
    # Sherman-Morrison's 1 + v^T q is exactly 0 at n = 5 from sigma = 1e16
    # on, and NaN once c^2 overflows; Thomas must then raise, not return
    # inf or NaN
    y = rng.standard_normal(n if k is None else (n, k))
    raised = []
    for e in range(309):
        op = CirculantSmoother(n, 10.0 ** e)
        try:
            x = op.solve_thomas(y)
        except ArithmeticError as exc:
            assert type(exc) is ArithmeticError
            assert f"sigma = {op.sigma:g}" in str(exc)
            raised.append(e)
            continue
        assert np.isfinite(x).all(), e
    assert raised and raised[0] >= 3   # sigma <= 100 is never affected
    assert 308 in raised


def test_inv_sqrt_shape_validation():
    # every method shares inv_sqrt_apply's contract: (n,) or (n, k), finite
    op = CirculantSmoother(4, 1.0)
    for call in (op.apply, op.solve_dft, op.solve_thomas, op.solve,
                 op.inv_sqrt_apply):
        assert call(np.zeros(4)).shape == (4,)
        assert call(np.zeros((4, 2))).shape == (4, 2)
        for bad in (np.zeros(5), np.zeros((5, 2)), np.zeros((4, 2, 1)),
                    np.zeros(()), np.array([[1.0], [np.nan], [0.0], [0.0]]),
                    np.array([1.0, np.inf, 0.0, 0.0])):
            with pytest.raises(ValueError):
                call(bad)


def test_pair_solver_matches_dense(rng):
    sigma = 2.25
    y = rng.standard_normal((6, 2))
    x0, x1 = solve_smoothed_pair(sigma, y[:, 0], y[:, 1])
    op = CirculantSmoother(2, sigma)
    for i in range(6):
        expect = np.linalg.solve(op.dense(), y[i])
        assert abs(x0[i] - expect[0]) <= 1e-13
        assert abs(x1[i] - expect[1]) <= 1e-13


def test_pair_solver_scalars():
    x0, x1 = solve_smoothed_pair(0.0, 5.0, -2.0)
    assert x0 == 5.0 and x1 == -2.0


def test_validation():
    with pytest.raises(ValueError):
        CirculantSmoother(0, 1.0)
    with pytest.raises(ValueError):
        CirculantSmoother(4, -0.5)
    with pytest.raises(ValueError):
        CirculantSmoother(4, float("nan"))
    op = CirculantSmoother(4, 1.0)
    with pytest.raises(ValueError):
        op.solve(np.zeros(5))
    with pytest.raises(ValueError):
        op.apply(np.zeros((2, 2)))


@pytest.mark.parametrize("n", [3, 64])
@pytest.mark.parametrize("method", ["solve", "solve_thomas", "solve_dft",
                                    "apply", "inv_sqrt_apply"])
def test_input_check_finds_every_non_finite_entry(rng, n, method):
    # the check reads finiteness off the sum of squares; it must still
    # reject each single NaN or inf, in vectors, batches and strided views
    # of them, and pass finite entries whose squares overflow, silently
    call = getattr(CirculantSmoother(n, 0.5), method)
    batch = rng.standard_normal((n, 3))
    for y in (batch[:, 0], batch, np.asfortranarray(batch), batch[:, ::2],
              batch.T.copy().T):
        for bad in (np.nan, np.inf, -np.inf):
            for i in range(y.size):
                z = y.copy(order="K")
                z.flat[i] = bad
                with pytest.raises(ValueError, match="non-finite"):
                    call(z)
        assert np.isfinite(call(1e200 * y)).all()
