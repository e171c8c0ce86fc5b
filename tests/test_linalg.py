"""Tests for the symmetric eigensolver and dense solve."""

import math

import numpy as np
import pytest

from smoothgd import linalg
from smoothgd.linalg import (
    ConvergenceError,
    SingularMatrixError,
    dense_solve,
    eig_preconditioned_hessian,
    sym_eigendecompose,
)
from smoothgd.smoothing import CirculantSmoother


def test_2x2_analytic():
    pairs = sym_eigendecompose(np.array([[2.0, 6.0], [6.0, 4.0]]))
    root = math.sqrt(37.0)
    assert pairs[0].value == pytest.approx(3.0 + root, abs=1e-12)
    assert pairs[1].value == pytest.approx(3.0 - root, abs=1e-12)
    # eigenvector of the positive eigenvalue: (6, 1 + sqrt(37)) direction
    v = pairs[0].vector
    expect = np.array([6.0, 1.0 + root])
    expect /= np.linalg.norm(expect)
    np.testing.assert_allclose(np.abs(v), expect, atol=1e-12)


def test_descending_order_and_residuals(rng):
    for n in (2, 5, 16, 40):
        m = rng.standard_normal((n, n))
        m = 0.5 * (m + m.T)
        pairs = sym_eigendecompose(m)
        values = np.array([p.value for p in pairs])
        assert np.all(np.diff(values) <= 1e-12)
        scale = np.linalg.norm(m)
        np.testing.assert_allclose(values, np.sort(np.linalg.eigvalsh(m))[::-1],
                                   atol=1e-9 * scale)
        vectors = np.array([p.vector for p in pairs])
        np.testing.assert_allclose(vectors @ vectors.T, np.eye(n), atol=1e-9)
        for p in pairs:
            assert np.linalg.norm(m @ p.vector - p.value * p.vector) <= 1e-9 * max(scale, 1.0)


def test_zero_matrix():
    pairs = sym_eigendecompose(np.zeros((3, 3)))
    assert all(p.value == 0.0 for p in pairs)
    vectors = np.array([p.vector for p in pairs])
    np.testing.assert_allclose(vectors @ vectors.T, np.eye(3), atol=1e-14)


def test_degenerate_eigenvalues_orthonormal():
    pairs = sym_eigendecompose(np.diag([3.0, 3.0, 1.0]))
    values = [p.value for p in pairs]
    np.testing.assert_allclose(values, [3.0, 3.0, 1.0], atol=1e-13)
    vectors = np.array([p.vector for p in pairs])
    np.testing.assert_allclose(vectors @ vectors.T, np.eye(3), atol=1e-12)


def test_input_validation():
    with pytest.raises(ValueError):
        sym_eigendecompose(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        sym_eigendecompose(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        sym_eigendecompose(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_sign_normalize():
    fix = linalg._sign_fix_columns
    v = np.array([[-0.8], [0.6]])
    np.testing.assert_array_equal(fix(v), [[0.8], [-0.6]])
    np.testing.assert_array_equal(fix(-v), [[0.8], [-0.6]])
    # tiny leading entries are skipped when fixing the sign
    w = np.array([[1e-14], [-1.0]])
    assert fix(w)[1, 0] == 1.0
    z = np.zeros((2, 1))
    np.testing.assert_array_equal(fix(z), z)


def _sign_normalize_loop(v, tol=1e-10):
    # the per-entry rule the column fix replaced, kept as its oracle
    for entry in v:
        if abs(entry) > tol:
            return v if entry > 0 else -v
    return v


def test_column_sign_fix_matches_the_per_vector_rule(rng):
    tol = 1e-10
    cols = [
        np.zeros(4),                           # no entry above tol
        np.array([tol, -tol, 0.0, -0.0]),      # entries exactly at +-tol
        np.array([-tol, 2 * tol, -1.0, 0.0]),  # first above tol is +2 tol
        np.array([tol, -2 * tol, 1.0, 0.0]),   # first above tol is -2 tol
        np.array([-0.0, -0.5, 0.5, -0.0]),
        np.array([0.0, 0.0, 0.0, -3.0]),
        np.array([1e-11, -1e-11, 0.0, 0.0]),
    ]
    m = np.column_stack(cols + list(rng.standard_normal((5, 4))))
    got = linalg._sign_fix_columns(m, tol)
    for j in range(m.shape[1]):
        expect = _sign_normalize_loop(m[:, j].copy(), tol)
        assert got[:, j].tobytes() == expect.tobytes()   # signs of zeros too
    np.testing.assert_array_equal(m[:, 1], cols[1])   # input untouched


def test_eigen_routes_sign_fix_every_vector(rng):
    b = rng.standard_normal((9, 9))
    b = 0.5 * (b + b.T)
    for pairs in (sym_eigendecompose(b), eig_preconditioned_hessian(b, 0.7)):
        for p in pairs:
            assert p.vector.flags.c_contiguous
            expect = _sign_normalize_loop(p.vector.copy())
            assert p.vector.tobytes() == expect.tobytes()


def test_sigma_zero_preconditioning_is_the_plain_eigenproblem(rng):
    # A(0)^(-1/2) is the identity exactly, so the similar matrix is B itself
    b = rng.standard_normal((7, 7))
    b = 0.5 * (b + b.T)
    got = [p.value for p in eig_preconditioned_hessian(b, 0.0)]
    assert got == [p.value for p in sym_eigendecompose(b)]


def test_preconditioned_n2_analytic():
    # diag(1, -1) preconditioned by the n = 2 smoother: eigenvalues
    # +-1 / sqrt(1 + 2 sigma)
    sigma = 3.0
    pairs = eig_preconditioned_hessian(np.diag([1.0, -1.0]), sigma)
    expect = 1.0 / math.sqrt(7.0)
    assert pairs[0].value == pytest.approx(expect, abs=1e-12)
    assert pairs[1].value == pytest.approx(-expect, abs=1e-12)


def test_preconditioned_matches_dense_route(rng):
    b = rng.standard_normal((5, 5))
    b = 0.5 * (b + b.T)
    sigma = 0.8
    pairs = eig_preconditioned_hessian(b, sigma)
    a = CirculantSmoother(5, sigma).dense()
    reference = np.sort(np.linalg.eigvals(np.linalg.solve(a, b)).real)[::-1]
    np.testing.assert_allclose([p.value for p in pairs], reference, atol=1e-9)
    # pairs satisfy the generalized equation B v = lambda A v
    for p in pairs:
        assert np.linalg.norm(b @ p.vector - p.value * (a @ p.vector)) <= 1e-9 * np.linalg.norm(b)


def test_map_back_rejects_a_perturbed_eigenvector(rng):
    b = rng.standard_normal((6, 6))
    b = 0.5 * (b + b.T)
    sigmas = (0.4, 1.5, 3.0)
    ops = [CirculantSmoother(6, s) for s in sigmas]
    values, vectors = linalg._similar_eigh(b, np.array(sigmas))
    got = list(linalg._map_back(ops, b, values, vectors))
    assert [cols.shape for _, cols in got] == [(6, 6)] * 3
    # perturb one sigma's column inside the stack: the sigma before it
    # passes its check, this one fails it
    vectors[1, :, 3] += 1e-4 * vectors[1, :, 0]
    stream = linalg._map_back(ops, b, values, vectors)
    next(stream)
    with pytest.raises(ConvergenceError) as info:
        next(stream)
    assert info.value.residual > 1e-8


def test_dense_solve_matches_numpy(rng):
    m = rng.standard_normal((6, 6))
    m = m @ m.T + 6 * np.eye(6)
    y = rng.standard_normal(6)
    np.testing.assert_allclose(dense_solve(m, y), np.linalg.solve(m, y),
                               atol=1e-10 * np.linalg.norm(y))


def test_dense_solve_singular():
    m = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError) as info:
        dense_solve(m, np.ones(2))
    assert info.value.pivot_index in (0, 1)


def test_dense_solve_shape_errors():
    with pytest.raises(ValueError):
        dense_solve(np.zeros((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        dense_solve(np.eye(2), np.ones(3))
