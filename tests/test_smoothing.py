"""Tests for the circulant smoothing operator and its three solvers."""

import numpy as np
import pytest

from smoothgd.smoothing import CirculantSmoother, solve_smoothed_pair


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
    np.testing.assert_array_equal(op.solve(y), thomas)
    for method in (op.solve_dft, op.apply):
        by_column = np.column_stack([method(c) for c in y.T])
        np.testing.assert_allclose(method(y), by_column, rtol=0,
                                   atol=1e-15 * np.max(np.abs(by_column)))


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
