"""The stacked eigen route against the per-sigma pair-list pipeline.

The reference below is the earlier implementation kept as the oracle: one
sigma at a time, with its own Fourier A^(-1/2) per operator, every step
returning a list of EigenPair, the canonical saddle decomposed per
reflection-parity block through the public ``sym_eigendecompose`` (with its
input checks), and the pairs sorted by descending value after the batched
map back.  Values and vectors are compared with ``tobytes()``, so a signed
zero or a last-bit change in any entry fails.
"""

import math

import numpy as np
import pytest

from smoothgd import linalg, saddle
from smoothgd.linalg import EigenPair
from smoothgd.smoothing import CirculantSmoother

CANONICAL_SIGMAS = (0.0, 0.01, 0.1, 0.3, 1.0, 5.0, 7.0, 10.0, 50.0, 100.0)
GENERAL_SIGMAS = (0.0, 0.1, 1.0, 10.0)


def _ref_sign_fix_columns(m, tol=1e-10):
    big = np.abs(m) > tol
    at = big.argmax(axis=0), np.arange(m.shape[1])
    return np.where(big[at] & (m[at] < 0), -m, m)


def _ref_sym_eigendecompose(m):
    a = linalg._as_square(m)
    linalg._require_symmetric(a)
    values, vectors = np.linalg.eigh(a)
    rows = _ref_sign_fix_columns(vectors[:, ::-1]).T.copy()
    return [EigenPair(float(value), vec)
            for value, vec in zip(values[::-1].tolist(), rows)]


def _ref_inv_sqrt(op, x):
    # A^(-1/2) of one operator: every Fourier mode over the square root of
    # its eigenvalue, along axis 0; a copy at sigma = 0
    if op.sigma == 0.0:
        return x.copy()
    n = op.n
    weights = (1.0 / np.sqrt(op.spectrum()))[:n // 2 + 1]
    if x.ndim == 2:
        weights = weights[:, None]
    return np.fft.irfft(np.fft.rfft(x, axis=0) * weights, n, axis=0)


def _ref_similar_symmetric(op, b):
    sym = _ref_inv_sqrt(op, _ref_inv_sqrt(op, b).T)
    return 0.5 * (sym + sym.T)


def _ref_map_back(op, b, values, vectors):
    mapped = _ref_inv_sqrt(op, vectors)
    mapped /= np.linalg.norm(mapped, axis=0)
    cols = _ref_sign_fix_columns(mapped)
    residual = np.max(np.linalg.norm(
        op.solve(b @ cols) - cols * np.asarray(values), axis=0))
    assert residual <= 1e-8
    return [EigenPair(float(value), vec)
            for value, vec in zip(values, cols.T.copy())]


def _ref_eig_preconditioned_hessian(b, sigma):
    op = CirculantSmoother(b.shape[0], sigma)
    pairs = _ref_sym_eigendecompose(_ref_similar_symmetric(op, b))
    return _ref_map_back(op, b, [p.value for p in pairs],
                         np.column_stack([p.vector for p in pairs]))


def _ref_reflection_adapted_pairs(b, sigma):
    n = b.shape[0]
    op = CirculantSmoother(n, sigma)
    sym = _ref_similar_symmetric(op, b)
    split = saddle.canonical_attraction_basis(n)
    values, vectors = [], []
    for block in (split.antisymmetric.rows, split.symmetric.rows):
        if block.shape[0] == 0:
            continue
        restricted = block @ sym @ block.T
        restricted = 0.5 * (restricted + restricted.T)
        small = _ref_sym_eigendecompose(restricted)
        values += [p.value for p in small]
        vectors.append(block.T @ np.column_stack([p.vector for p in small]))
    pairs = _ref_map_back(op, b, values, np.hstack(vectors))
    pairs.sort(key=lambda p: -p.value)
    return pairs


def _ref_labels(pairs, tol=1e-8):
    values = [p.value for p in pairs]
    return saddle._classify(values, np.array([p.vector for p in pairs]),
                            tol)[0]


def _assert_same_pairs(got, expect):
    assert len(got) == len(expect)
    assert (np.array([p.value for p in got]).tobytes()
            == np.array([p.value for p in expect]).tobytes())
    for g, e in zip(got, expect):
        assert type(g.value) is float
        assert g.vector.tobytes() == e.vector.tobytes()


def _assert_same_structure(objective, sigma, pairs):
    structure = saddle.eigen_structure(objective, sigma)
    _assert_same_pairs(structure.pairs, pairs)
    assert list(structure.labels) == _ref_labels(pairs)
    assert structure.values.tobytes() == np.array(
        [p.value for p in pairs]).tobytes()
    assert structure.columns.T.tobytes() == np.array(
        [p.vector for p in pairs]).tobytes()


@pytest.mark.parametrize("n", range(2, 41))
def test_canonical_route_matches_the_pair_list_pipeline(n):
    objective = saddle.canonical_objective(n)
    b = objective.matrix
    _assert_same_pairs(linalg.sym_eigendecompose(b),
                       _ref_sym_eigendecompose(b))
    for sigma in CANONICAL_SIGMAS:
        _assert_same_pairs(linalg.eig_preconditioned_hessian(b, sigma),
                           _ref_eig_preconditioned_hessian(b, sigma))
        _assert_same_structure(objective, sigma,
                               _ref_reflection_adapted_pairs(b, sigma))


def _ring_repeated(rng, n):
    # a doubled positive eigenvalue on one ring eigenspace, simple elsewhere
    idx = np.arange(n)
    ring = np.array([np.cos(2 * np.pi * idx / n),
                     np.sin(2 * np.pi * idx / n)]) / math.sqrt(n / 2.0)
    g = rng.standard_normal((n, n - 2))
    rest, _ = np.linalg.qr(g - ring.T @ (ring @ g))
    values = np.concatenate([[-1.5], rng.uniform(0.5, 3.0, n - 3)])
    return 2.2 * ring.T @ ring + rest @ np.diag(values) @ rest.T


def _general_matrix(seed):
    rng = np.random.default_rng(5100 + seed)
    n = int(rng.integers(2, 14))
    if seed % 4 == 0 and n >= 4:
        m = _ring_repeated(rng, n)
    else:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        values = rng.uniform(0.5, 3.0, n) * rng.choice([-1.0, 1.0], n)
        if seed % 4 == 1:
            values[-1] = values[0]          # a repeated eigenvalue
        m = q @ np.diag(values) @ q.T
    return 0.5 * (m + m.T)


@pytest.mark.parametrize("chunk", range(10))
def test_general_route_matches_the_pair_list_pipeline(chunk):
    repeated = 0
    for seed in range(chunk, 210, 10):
        b = _general_matrix(seed)
        objective = saddle.QuadraticObjective(b)
        values = np.linalg.eigvalsh(b)
        repeated += bool(np.min(np.diff(values)) <= 1e-9)
        _assert_same_pairs(linalg.sym_eigendecompose(b),
                           _ref_sym_eigendecompose(b))
        for sigma in GENERAL_SIGMAS:
            pairs = _ref_eig_preconditioned_hessian(objective.matrix, sigma)
            _assert_same_pairs(
                linalg.eig_preconditioned_hessian(objective.matrix, sigma),
                pairs)
            _assert_same_structure(objective, sigma, pairs)
    assert repeated >= 5


# sigma lists for the stacked route: with 0, with a repeated sigma, of one
STACK_LISTS = ((0.0, 0.01, 10.0), (1.0, 0.1, 1.0), (3.0,))


def _stack_matrices(n):
    # the canonical saddle at every n; a random matrix at odd n and one
    # with a repeated eigenvalue at even n from 4, both at n = 200
    rng = np.random.default_rng(7300 + n)
    yield saddle.canonical_objective(n)
    if n % 2 or n == 200:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        values = rng.uniform(0.5, 3.0, n) * rng.choice([-1.0, 1.0], n)
        random = q @ np.diag(values) @ q.T
        yield saddle.QuadraticObjective(0.5 * (random + random.T))
    if n % 2 == 0 and n >= 4:
        yield saddle.QuadraticObjective(_ring_repeated(rng, n))


@pytest.mark.parametrize("n", list(range(2, 65)) + [200])
def test_stacked_route_matches_the_per_sigma_oracle(n, monkeypatch):
    # the stream at the default budget (one stack at n <= 256), then
    # eigen_structure sharing it in chunks of one sigma (even n) or two
    chunk = 1 + n % 2
    for objective in _stack_matrices(n):
        b = objective.matrix
        blocks = saddle._blocks(objective)
        ref = (_ref_reflection_adapted_pairs if objective.is_canonical
               else _ref_eig_preconditioned_hessian)
        for sigmas in STACK_LISTS:
            expect = [ref(b, sigma) for sigma in sigmas]
            got = list(linalg._preconditioned(b, sigmas, blocks))
            assert len(got) == len(sigmas)
            for (values, columns), pairs in zip(got, expect):
                assert values.tobytes() == np.array(
                    [p.value for p in pairs]).tobytes()
                assert columns.T.tobytes() == np.array(
                    [p.vector for p in pairs]).tobytes()
            monkeypatch.setattr(linalg, "_STACK_BYTES", chunk * 8 * n * n)
            with saddle._sharing_decompositions(objective, sigmas):
                for sigma, pairs in zip(sigmas, expect):
                    _assert_same_structure(objective, sigma, pairs)
                assert not saddle._shared.get()[1]   # every sigma shared
            monkeypatch.undo()
