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

from smoothgd import linalg, saddle, smoothing
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


# The residual check's stencil bound against the exact check it stands in
# for: sigma = 0 and every power of ten from 1e-2 to 1e300, so the list
# crosses where the bound's rounding allowance sends each sigma to the
# exact check (near 6e5 at n = 22) and where Thomas breaks down (from about
# 1e16 at small n).  The eigen route hands the map back no sigma past its
# range (A(sigma) singular to working precision, from about 1e15), but the
# map back is checked beyond it too.
BOUND_SIZES = (2, 3, 5, 8, 13, 22, 40, 64, 70)
BOUND_SIGMAS = np.array((0.0,) + tuple(10.0 ** k for k in range(-2, 301)))


def _exact_columns(sigmas, vectors):
    # the map back's columns: through A^(-1/2), renormalized, sign-fixed
    mapped = smoothing._inv_sqrt_stack(vectors, sigmas)
    mapped /= np.linalg.norm(mapped, axis=1, keepdims=True)
    return linalg._sign_fix_columns(mapped)


def _exact_residual(sigma, b, value, col):
    op = CirculantSmoother(b.shape[0], sigma)
    return np.max(np.linalg.norm(op.solve(b @ col) - col * value, axis=0))


def _exact_map_back(b, sigmas, values, vectors):
    # the map back with every sigma checked by its own solve, as before
    # the stencil bound
    cols = _exact_columns(sigmas, vectors)
    order = np.argsort(-values, axis=1, kind="stable")
    ranked = zip(np.take_along_axis(values, order, axis=1),
                 np.take_along_axis(cols, order[:, None, :], axis=2))
    for sigma, value, col, result in zip(sigmas, values, cols, ranked):
        residual = _exact_residual(sigma, b, value, col)
        if not residual <= 1e-8:
            raise linalg.ConvergenceError(
                "back-transformed eigenpair failed its residual check",
                residual)
        yield result


def _outcomes(map_back, b, sigmas, values, vectors, stack=4):
    """Each sigma's yield or exception, in stacks of ``stack`` sigmas.

    After an exception the stream restarts at the next sigma of its stack.
    """
    out, start = [], 0
    while start < len(sigmas):
        end = (start // stack + 1) * stack
        stream = map_back(b, sigmas[start:end], values[start:end],
                          vectors[start:end])
        try:
            for got_values, got_cols in stream:
                out.append((got_values.tobytes(), got_cols.tobytes()))
                start += 1
        except (ArithmeticError, RuntimeError, RuntimeWarning) as exc:
            out.append((type(exc), str(exc),
                        np.float64(getattr(exc, "residual", 0.0)).tobytes()))
            start += 1
    return out


def _bound_matrices(n):
    # the canonical saddle, a seeded random matrix and one with a repeated
    # eigenvalue
    rng = np.random.default_rng(7700 + n)
    yield saddle.canonical_objective(n)
    for repeated in (False, True):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        values = rng.uniform(0.5, 3.0, n) * rng.choice([-1.0, 1.0], n)
        if repeated:
            values[-1] = values[0]
        m = q @ np.diag(values) @ q.T
        yield saddle.QuadraticObjective(0.5 * (m + m.T))


@pytest.mark.parametrize("n", BOUND_SIZES)
def test_stencil_bound_decides_as_the_exact_check(n):
    accepted = decided_exactly = 0
    for objective in _bound_matrices(n):
        b = objective.matrix
        values, vectors = linalg._similar_eigh(
            b, BOUND_SIGMAS, saddle._blocks(objective))
        # raises where the exact check fails, with its residual (or the
        # same Thomas breakdown), and yields the same bits elsewhere; the
        # oracle runs a sigma at a time, the map back in stacks
        assert (_outcomes(linalg._map_back, b, BOUND_SIGMAS, values, vectors)
                == _outcomes(_exact_map_back, b, BOUND_SIGMAS, values,
                             vectors, 1))
        # wherever the bound accepts, the exact residual is within 1e-8
        cols = _exact_columns(BOUND_SIGMAS, vectors)
        bounds = linalg._residual_bounds(b, BOUND_SIGMAS, values, cols)
        for sigma, value, col, bound in zip(BOUND_SIGMAS, values, cols,
                                            bounds):
            if bound <= 1e-8:
                accepted += 1
                assert _exact_residual(sigma, b, value, col) <= 1e-8
            else:
                decided_exactly += 1
    # both sides of the bound are reached
    assert accepted >= 3 * 6 and decided_exactly > 0
