"""Tests for eigenstructure classification and attraction subspaces."""

import math

import numpy as np
import pytest

from smoothgd import saddle
from smoothgd.linalg import eig_preconditioned_hessian
from smoothgd.optimizers import ConstantSigma, RatioSigma
from smoothgd.saddle import (
    ClassificationError,
    ModeClass,
    QuadraticObjective,
    SubspaceBasis,
    canonical_attraction_basis,
    canonical_objective,
    eigen_structure,
    general_attraction_basis,
    kernel_direction_fixed,
    laplacian_eigenspaces,
    negative_mode_overlap,
    positive_eigvec_ratio,
    principal_angle,
    ring_second_difference,
)
from smoothgd.smoothing import CirculantSmoother


def test_objective_value_and_gradient():
    obj = QuadraticObjective(np.array([[2.0, 6.0], [6.0, 4.0]]))
    x = np.array([1.0, -1.0])
    assert obj.value(x) == pytest.approx(0.5 * (2 - 12 + 4))
    np.testing.assert_allclose(obj.gradient(x), [-4.0, 2.0], atol=1e-14)
    assert obj.gradient_lipschitz() == pytest.approx(3.0 + math.sqrt(37.0), abs=1e-12)


def test_canonical_objective_shape():
    obj = canonical_objective(4, scale=2.0)
    assert obj.is_canonical
    assert obj.scale == 2.0
    np.testing.assert_array_equal(obj.matrix, np.diag([1.0, 1.0, 1.0, -1.0]))
    assert not QuadraticObjective(np.eye(3)).is_canonical


def test_structure_counts_n6():
    structure = eigen_structure(canonical_objective(6), 1.0)
    assert structure.count(ModeClass.ANTISYMMETRIC_SINE) == 2
    assert structure.count(ModeClass.SYMMETRIC) == 3
    assert structure.count(ModeClass.NEGATIVE_MODE) == 1
    values = np.array([p.value for p in structure.pairs])
    assert np.all(np.abs(values) <= 1.0 + 1e-12)
    assert np.sum(values < 0) == 1
    assert values[-1] < 0  # descending order puts the negative mode last


def test_structure_residuals(rng):
    # every classified pair satisfies B v = lambda A v
    sigma = 2.0
    obj = canonical_objective(7)
    structure = eigen_structure(obj, sigma)
    a = CirculantSmoother(7, sigma).dense()
    for p in structure.pairs:
        lhs = obj.matrix @ p.vector
        rhs = p.value * (a @ p.vector)
        assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_structure_n2_analytic():
    # n = 2, sigma = 4: eigenvalues +-1/3, positive vector slope 1/2
    structure = eigen_structure(canonical_objective(2), 4.0)
    values = [p.value for p in structure.pairs]
    np.testing.assert_allclose(values, [1.0 / 3.0, -1.0 / 3.0], atol=1e-13)
    v = structure.pairs[0].vector
    assert abs(v[0] / v[1]) == pytest.approx(positive_eigvec_ratio(4.0), rel=1e-12)


def test_structure_sigma_zero_tolerated():
    # at sigma = 0 the symmetric family degenerates; classification may
    # return None labels but must not raise
    structure = eigen_structure(canonical_objective(5), 0.0)
    assert structure.count(ModeClass.NEGATIVE_MODE) == 1
    assert len(structure.labels) == 5


def test_structure_scale_invariant():
    # classification describes the saddle shape; the scale prefactor does
    # not move eigenvalues or labels
    a = eigen_structure(canonical_objective(6, scale=1.0), 1.0)
    b = eigen_structure(canonical_objective(6, scale=5.0), 1.0)
    assert a.labels == b.labels
    np.testing.assert_allclose([p.value for p in a.pairs],
                               [p.value for p in b.pairs], rtol=1e-12)


def test_attraction_basis_small():
    assert canonical_attraction_basis(2).antisymmetric.dim == 0
    w5 = canonical_attraction_basis(5).antisymmetric
    assert w5.dim == 2
    expect = np.zeros((2, 5))
    expect[0, 0], expect[0, 3] = 1.0, -1.0
    expect[1, 1], expect[1, 2] = 1.0, -1.0
    expect /= math.sqrt(2.0)
    # rows span the same plane regardless of ordering or sign
    assert principal_angle(w5, SubspaceBasis(expect)) <= 1e-7


@pytest.mark.parametrize("n", range(2, 17))
def test_attraction_basis_dimension(n):
    split = canonical_attraction_basis(n)
    assert split.antisymmetric.dim == (n - 1) // 2
    assert split.symmetric.dim == n - (n - 1) // 2
    rows = np.vstack([split.antisymmetric.rows, split.symmetric.rows])
    np.testing.assert_allclose(rows @ rows.T, np.eye(n), atol=1e-12)


def test_attraction_basis_matches_eigen_span():
    for n in (3, 6, 9):
        w = canonical_attraction_basis(n).antisymmetric
        span = eigen_structure(canonical_objective(n), 1.0).span(
            ModeClass.ANTISYMMETRIC_SINE)
        assert principal_angle(w, span) <= 1e-7


def test_general_attraction_matches_canonical():
    for n in (3, 5, 8):
        got = general_attraction_basis(canonical_objective(n))
        expect = canonical_attraction_basis(n).antisymmetric
        assert principal_angle(got, expect) <= 1e-7


def test_general_attraction_2x2_swap():
    basis = general_attraction_basis(QuadraticObjective(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert basis.dim == 1
    np.testing.assert_allclose(np.abs(basis.rows[0]),
                               np.full(2, 1.0 / math.sqrt(2.0)), atol=1e-12)


def test_general_attraction_rejects_kernel():
    with pytest.raises(ValueError):
        general_attraction_basis(QuadraticObjective(np.diag([0.0, 1.0, -1.0])))


def test_laplacian_eigenspaces():
    spaces = laplacian_eigenspaces(4)
    for value, basis in spaces:
        for row in basis:
            np.testing.assert_allclose(ring_second_difference(row), value * row,
                                       atol=1e-12)
    values = [value for value, _ in spaces]
    assert values[0] == 0.0 and -4.0 in values
    assert sum(len(basis) for _, basis in spaces) == 4
    rows = np.vstack([basis for _, basis in spaces])
    np.testing.assert_allclose(rows @ rows.T, np.eye(4), atol=1e-12)


def test_ring_n2():
    np.testing.assert_allclose(ring_second_difference(np.array([1.0, 0.0])),
                               [-1.0, 1.0], atol=0)


def test_positive_ratio():
    assert positive_eigvec_ratio(4.0) == pytest.approx(2.0, abs=1e-14)
    # decreasing in sigma, approaching 1 from above
    values = [positive_eigvec_ratio(s) for s in (0.5, 1.0, 10.0, 1000.0)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] > 1.0
    with pytest.raises(ValueError):
        positive_eigvec_ratio(0.0)


def test_negative_mode_overlap_values():
    obj = canonical_objective(4)
    assert negative_mode_overlap(obj, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert negative_mode_overlap(obj, 0.0, 1.0) == pytest.approx(
        0.9637055354834041, abs=1e-12)
    # order of the two sigmas cannot matter
    a = negative_mode_overlap(canonical_objective(5), 0.5, 2.0)
    b = negative_mode_overlap(canonical_objective(5), 2.0, 0.5)
    assert a == pytest.approx(b, abs=1e-12)
    assert a == pytest.approx(0.9887031811974245, abs=1e-12)


def test_kernel_direction_fixed():
    obj = QuadraticObjective(np.diag([0.0, 1.0, -1.0]))
    e0 = np.array([1.0, 0.0, 0.0])
    assert kernel_direction_fixed(obj, e0, RatioSigma(), 100)
    assert kernel_direction_fixed(obj, e0, ConstantSigma(3.0), 50)
    with pytest.raises(ValueError):
        kernel_direction_fixed(obj, np.array([0.0, 1.0, 0.0]), RatioSigma(), 10)
    with pytest.raises(ValueError):
        kernel_direction_fixed(obj, np.zeros(3), RatioSigma(), 10)


def test_principal_angle_basics():
    a = SubspaceBasis(np.array([[1.0, 0.0]]))
    b = SubspaceBasis(np.array([[0.0, 1.0]]))
    assert principal_angle(a, a) <= 1e-12
    assert principal_angle(a, b) == pytest.approx(math.pi / 2, abs=1e-12)
    # small angles resolve well below the 1e-8 floor of an arccos route
    for angle in (1e-9, 1e-12):
        turned = SubspaceBasis(np.array([[math.cos(angle), math.sin(angle)]]))
        assert principal_angle(a, turned) == pytest.approx(angle, rel=1e-6)
    wide = SubspaceBasis(np.eye(3)[:2])
    with pytest.raises(ValueError):
        principal_angle(a, wide)


def test_subspace_basis_validation():
    with pytest.raises(ValueError):
        SubspaceBasis(np.array([[1.0, 1.0]]))  # not unit length
    basis = SubspaceBasis(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    assert basis.dim == 2


# -- the per-vector and row-by-row code the array forms replaced, as oracles --

def _pattern_residuals_one(v):
    head = v[:-1]
    rev = head[::-1]
    anti = float(np.max(np.abs(head + rev))) if len(head) else 0.0
    sym = float(np.max(np.abs(head - rev))) if len(head) else 0.0
    return anti, sym, abs(float(v[-1]))


def _classify_one(value, vector, tol):
    anti, sym, last = _pattern_residuals_one(vector)
    if anti <= tol and last <= tol:
        return ModeClass.ANTISYMMETRIC_SINE
    if sym <= tol and last > tol:
        return ModeClass.NEGATIVE_MODE if value < 0 else ModeClass.SYMMETRIC
    return None


def _orthonormalize_mgs(rows, drop_tol=1e-8):
    kept = []
    for row in np.asarray(rows, dtype=float):
        w = row.copy()
        for _ in range(2):
            for b in kept:
                w -= (b @ w) * b
        norm = np.linalg.norm(w)
        if norm > drop_tol * max(1.0, np.linalg.norm(row)):
            kept.append(w / norm)
    return np.array(kept) if kept else np.empty((0, rows.shape[1]))


def _check_labels(structure, tol=1e-8):
    pairs = structure.pairs
    values = [p.value for p in pairs]
    vectors = np.array([p.vector for p in pairs])
    labels, residuals = saddle._classify(values, vectors, tol)
    assert list(structure.labels) == labels == [
        _classify_one(p.value, p.vector, tol) for p in pairs]
    assert list(zip(*(r.tolist() for r in residuals))) == [
        _pattern_residuals_one(p.vector) for p in pairs]


def test_array_classification_matches_the_per_vector_rule(eigen_grid):
    # canonical n = 2..40 over the criterion sigmas
    for (n, sigma), structure in eigen_grid.items():
        if n <= 40:
            _check_labels(structure)


def _repeated_saddle(rng, n):
    # a doubled positive eigenvalue on one ring eigenspace, simple elsewhere
    idx = np.arange(n)
    ring = np.array([np.cos(2 * np.pi * idx / n),
                     np.sin(2 * np.pi * idx / n)]) / math.sqrt(n / 2.0)
    g = rng.standard_normal((n, n - 2))
    rest, _ = np.linalg.qr(g - ring.T @ (ring @ g))
    values = np.concatenate([[-1.5], rng.uniform(0.5, 3.0, n - 3)])
    m = 2.2 * ring.T @ ring + rest @ np.diag(values) @ rest.T
    return 0.5 * (m + m.T)


def test_array_classification_matches_on_general_matrices(rng):
    for n in (3, 5, 8, 13):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        random = q @ np.diag(rng.uniform(-3.0, 3.0, n)) @ q.T
        for m in (0.5 * (random + random.T), _repeated_saddle(rng, n)):
            for sigma in (0.0, 0.1, 10.0):
                _check_labels(eigen_structure(QuadraticObjective(m), sigma))


def test_array_classification_at_the_tolerance():
    # residuals land exactly on tol, just above it, or at zero; tol is a
    # power of two so every sum below is exact
    tol = 2.0 ** -27
    vectors, values = [], []
    for d in (0.0, tol, -tol, 2 * tol):
        for last in (0.0, tol, -tol, 2 * tol):
            for value in (-0.5, 0.5):
                vectors += [[0.25, 0.5, -0.5 + d, -0.25, last],    # anti-like
                            [0.25, 0.5, 0.5 + d, 0.25, last]]      # sym-like
                values += [value, value]
    vectors = np.array(vectors)
    labels, _ = saddle._classify(values, vectors, tol)
    assert labels == [_classify_one(v, vec, tol)
                      for v, vec in zip(values, vectors)]
    assert set(labels) == {None, *ModeClass}
    # a 1-d objective has an empty head
    one = np.array([[0.0], [tol], [1.0]])
    assert saddle._classify([1.0, -1.0, -1.0], one, tol)[0] == [
        _classify_one(v, vec, tol) for v, vec in zip([1.0, -1.0, -1.0], one)]


def test_classification_error_payload():
    obj = canonical_objective(6)
    pairs = eigen_structure(obj, 1.0).pairs
    payload = {p.value: _pattern_residuals_one(p.vector) for p in pairs}
    with pytest.raises(ClassificationError, match="fit neither") as info:
        eigen_structure(obj, 1.0, tol=-1.0)     # nothing classifies
    assert info.value.residuals == payload
    with pytest.raises(ClassificationError, match="family counts") as info:
        eigen_structure(obj, 1.0, tol=10.0)     # everything is antisymmetric
    assert info.value.residuals == payload


def _gram_schmidt_inputs(rng):
    a, b, c, d = rng.standard_normal((4, 9))
    yield np.array([a, b, a + b, c, 2 * a - c, np.zeros(9), d])  # dependent
    yield rng.standard_normal((12, 5))           # more rows than dimensions
    yield rng.standard_normal((3, 4)) @ rng.standard_normal((4, 10))
    yield np.empty((0, 6))
    for n in (7, 12, 30):
        structure = eigen_structure(canonical_objective(n), 1.0)
        for label in ModeClass:
            yield structure.vectors(label)


def test_block_gram_schmidt_matches_modified_gram_schmidt(rng):
    for rows in _gram_schmidt_inputs(rng):
        got = saddle._orthonormalize(rows)
        expect = _orthonormalize_mgs(rows)
        assert got.shape == expect.shape
        np.testing.assert_allclose(got @ got.T, np.eye(len(got)), atol=1e-14)
        assert principal_angle(SubspaceBasis(got),
                               SubspaceBasis(expect)) <= 1e-14


def test_kernel_coefficients_match_modified_gram_schmidt(rng):
    maps = [rng.standard_normal((8, 2)) @ rng.standard_normal((2, 5)),
            rng.standard_normal((6, 6)), np.zeros((4, 3))]
    # the residual maps general_attraction_basis builds for a doubled
    # eigenvalue against each ring eigenspace
    values, vectors = np.linalg.eigh(_repeated_saddle(rng, 7))
    basis = vectors[:, np.abs(values - 2.2) <= 1e-9]
    assert basis.shape == (7, 2)
    for _, lap in laplacian_eigenspaces(7):
        maps.append(basis - lap.T @ (lap @ basis))
    for m_map in maps:
        got = saddle._kernel_coefficients(m_map, 1e-8)
        row_basis = _orthonormalize_mgs(m_map, 1e-8)
        extended = np.vstack([row_basis, np.eye(m_map.shape[1])])
        expect = _orthonormalize_mgs(extended, 1e-8)[len(row_basis):]
        assert got.shape == expect.shape
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)


def test_canonical_basis_is_built_once_and_read_only():
    first = canonical_attraction_basis(9)
    second = canonical_attraction_basis(np.int64(9))
    for a, b in ((first.antisymmetric, second.antisymmetric),
                 (first.symmetric, second.symmetric)):
        np.testing.assert_array_equal(a.rows, b.rows)
        assert not a.rows.flags.writeable
        with pytest.raises(ValueError):
            a.rows[0, 0] = 1.0
    for bad in (1, 0, -3, 2.0, "4"):
        with pytest.raises(ValueError):
            canonical_attraction_basis(bad)


def test_is_canonical_is_computed_on_first_use():
    obj = canonical_objective(5)
    assert "is_canonical" not in vars(obj)
    assert obj.is_canonical and vars(obj)["is_canonical"] is True
    assert not QuadraticObjective(np.eye(3)).is_canonical


def test_calls_out_of_turn_do_not_take_the_shared_stack():
    objective = canonical_objective(7)
    other = canonical_objective(7)
    sigmas = (0.5, 2.0, 0.5)
    alone = [eigen_structure(objective, s) for s in sigmas]
    with saddle._sharing_decompositions(objective, sigmas):
        got = [eigen_structure(objective, 2.0),      # out of turn
               eigen_structure(other, 0.5),          # another objective
               eigen_structure(objective, 0.5),
               eigen_structure(objective, 2.0),
               eigen_structure(objective, 0.5)]
        assert not saddle._shared.get()[1]
    for es, ref in zip(got, [alone[1], alone[0]] + alone):
        assert es.sigma == ref.sigma
        assert es.values.tobytes() == ref.values.tobytes()
        assert es.columns.tobytes() == ref.columns.tobytes()
    assert saddle._shared.get() is None
