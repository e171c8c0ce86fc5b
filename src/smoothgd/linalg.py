"""Symmetric eigendecomposition and a dense reference linear solver.

One eigen route serves everything: LAPACK's ``eigh`` behind a descending,
sign-fixed helper that takes one matrix or a stack.  The preconditioned
eigenproblem A(sigma)^(-1) B reaches it for a whole list of sigmas at once:
one stacked similarity transform, one stacked ``eigh`` of the whole matrix
or per invariant block, and one stacked map back, with each sigma's
residual check on its own.  Values and vectors (columns) stay arrays
inside; :class:`EigenPair` lists and input checks exist only at the public
edge.  The linear solver is self-contained Gaussian elimination with
partial pivoting, an independent cross-check for the structured (Fourier /
tridiagonal) routes in :mod:`smoothgd.smoothing`.
"""

from dataclasses import dataclass

import numpy as np

from . import smoothing

__all__ = [
    "EigenPair",
    "ConvergenceError",
    "SingularMatrixError",
    "sym_eigendecompose",
    "eig_preconditioned_hessian",
    "dense_solve",
]


class ConvergenceError(RuntimeError):
    """A computed result failed its residual check.

    Carries the offending residual in ``residual``.
    """

    def __init__(self, message, residual):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class SingularMatrixError(ValueError):
    """Elimination hit a pivot too small to trust.

    ``pivot_index`` is the elimination step at which it happened.
    """

    def __init__(self, pivot_index, pivot_value, threshold):
        super().__init__(
            f"matrix is singular to working precision: pivot {pivot_index} "
            f"has magnitude {abs(pivot_value):.3e} <= {threshold:.3e}")
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with a unit-norm eigenvector."""

    value: float
    vector: np.ndarray


def _as_square(m, name="matrix"):
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


def _require_symmetric(a, name="matrix"):
    norm = np.linalg.norm(a)
    if np.linalg.norm(a - a.T) > 1e-12 * max(norm, 1e-300):
        raise ValueError(f"{name} is not symmetric within 1e-12 relative")


def _sign_fix_columns(m, tol=1e-10):
    """Flip each column of m whose first entry above tol in magnitude is < 0.

    ``m`` is one matrix or a stack of them; columns run along axis -2.
    Columns with no such entry are left as they are.  Only negations
    happen, so every entry keeps its bits up to the sign.  Returns a new
    array.
    """
    m = np.asarray(m, dtype=float)
    big = np.abs(m) > tol
    # each column's first entry above tol, if it has one
    first = big & (np.cumsum(big, axis=-2) == 1)
    flip = (first & (m < 0)).any(axis=-2, keepdims=True)
    return np.where(flip, -m, m)


def _eigh_descending(a):
    """Descending eigenvalues and sign-fixed eigenvector columns; no checks.

    ``a`` is one symmetric matrix or a stack of them, one ``eigh`` call.
    """
    values, vectors = np.linalg.eigh(a)
    return values[..., ::-1].copy(), _sign_fix_columns(vectors[..., ::-1])


def _pairs(values, vectors):
    """EigenPair list; each vector is a C-contiguous row of one copy."""
    return [EigenPair(value, vec)
            for value, vec in zip(values.tolist(), vectors.T.copy())]


def sym_eigendecompose(m):
    """Full eigendecomposition of a symmetric matrix (LAPACK ``eigh``).

    Returns
    -------
    list of EigenPair
        Sorted by descending eigenvalue.  Vectors are orthonormal, also
        inside clusters of tied eigenvalues, and each is sign-fixed so its
        first non-negligible entry is positive.
    """
    a = _as_square(m)
    _require_symmetric(a)
    return _pairs(*_eigh_descending(a))


# Byte budget of one stack of n x n arrays.  A sigma list is decomposed in
# chunks of at most this many bytes per stacked array, but of at least one
# sigma, so memory does not grow with the list: at n <= 64 a chunk holds 32
# sigmas or more, from n = 257 on it holds one.
_STACK_BYTES = 1 << 20


def _similar_eigh(b, sigmas, blocks=None):
    """Eigenpairs of A^(-1/2) B A^(-1/2), the symmetric form of A^(-1) B.

    One stacked similarity transform for the float array ``sigmas`` (a
    batched FFT per side, the second on the transpose of the first result),
    then one stacked ``eigh`` of the whole matrix, or one per block of
    ``blocks`` (orthonormal row bases of invariant subspaces spanning the
    space).  Returns values (S, n), per block descending in block order,
    and eigenvector columns (S, n, n).
    """
    first = smoothing._inv_sqrt_stack(b, sigmas)
    sym = smoothing._inv_sqrt_stack(first.swapaxes(1, 2), sigmas)
    sym = 0.5 * (sym + sym.swapaxes(1, 2))
    if blocks is None:
        return _eigh_descending(sym)
    values, vectors = [], []
    for block in blocks:
        restricted = block @ sym @ block.T
        small = _eigh_descending(0.5 * (restricted + restricted.swapaxes(1, 2)))
        values.append(small[0])
        vectors.append(block.T @ small[1])
    return np.concatenate(values, axis=1), np.concatenate(vectors, axis=2)


def _map_back(ops, b, values, vectors):
    """Eigenpairs of A^(-1) B from those of its similar form, per sigma.

    ``ops`` holds the smoother A of each sigma of the stack.  Every column
    of ``vectors`` goes back through A^(-1/2), and is renormalized and
    sign-fixed, all sigmas at once; the pairs are then sorted by descending
    value, stably, so ties keep block order.  The generator yields each
    sigma's (values, columns) in turn, after checking that every pair
    satisfies ||A^(-1) B v - lambda v|| <= 1e-8 with that sigma's batched
    ``solve`` (Thomas or the FFT, by size); otherwise it raises
    :class:`ConvergenceError` with the worst residual.
    """
    mapped = smoothing._inv_sqrt_stack(
        vectors, np.array([op.sigma for op in ops]))
    mapped /= np.linalg.norm(mapped, axis=1, keepdims=True)
    cols = _sign_fix_columns(mapped)
    del mapped
    order = np.argsort(-values, axis=1, kind="stable")
    ranked = zip(np.take_along_axis(values, order, axis=1),
                 np.take_along_axis(cols, order[:, None, :], axis=2))
    for op, value, col, result in zip(ops, values, cols, ranked):
        residual = np.max(np.linalg.norm(
            op.solve(b @ col) - col * value, axis=0))
        if residual > 1e-8:
            raise ConvergenceError(
                "back-transformed eigenpair failed its residual check",
                residual)
        yield result


def _preconditioned(b, sigmas, blocks=None):
    """Eigenvalues (descending) and eigenvectors (columns) of A(sigma)^(-1) B.

    A generator over the sequence ``sigmas``: it yields (values, columns)
    for each sigma in turn, decomposing the list in stacks that keep each
    stacked n x n array within ``_STACK_BYTES``.  See :func:`_similar_eigh`
    for ``blocks``.  ``b`` must already be a symmetric float matrix.
    """
    n = b.shape[0]
    size = max(1, _STACK_BYTES // (8 * n * n))
    for start in range(0, len(sigmas), size):
        ops = [smoothing.CirculantSmoother(n, s)
               for s in sigmas[start:start + size]]
        stack = np.array([op.sigma for op in ops])
        yield from _map_back(ops, b, *_similar_eigh(b, stack, blocks))


def eig_preconditioned_hessian(b, sigma):
    """Eigenpairs of A(sigma)^(-1) B for a symmetric matrix B.

    The product itself is not symmetric, but it is similar to the symmetric
    matrix A^(-1/2) B A^(-1/2), which is what actually gets decomposed; the
    eigenvectors are mapped back through A^(-1/2) and renormalized.  Each
    returned pair satisfies ||A^(-1) B v - lambda v|| <= 1e-8.

    Returns a list of EigenPair sorted by descending eigenvalue.
    """
    b = _as_square(b, "hessian")
    _require_symmetric(b, "hessian")
    (values, vectors), = _preconditioned(b, [sigma])
    return _pairs(values, vectors)


def dense_solve(m, y):
    """Solve m @ x = y by Gaussian elimination with partial pivoting.

    Raises :class:`SingularMatrixError` when the best available pivot has
    magnitude at most 1e-13 * ||m||_F.  On success the residual satisfies
    ||m @ x - y|| <= 1e-10 * (||m|| * ||x|| + ||y||) for reasonably
    conditioned systems.
    """
    a = _as_square(m).copy()
    n = a.shape[0]
    b = np.asarray(y, dtype=float).copy()
    if b.shape != (n,):
        raise ValueError(f"right-hand side must have shape ({n},), got {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side has non-finite entries")
    norm = np.linalg.norm(a)
    threshold = 1e-13 * norm
    for k in range(n):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[piv, k]) <= threshold:
            raise SingularMatrixError(k, a[piv, k], threshold)
        if piv != k:
            a[[k, piv], k:] = a[[piv, k], k:]
            b[[k, piv]] = b[[piv, k]]
        if k + 1 < n:
            factors = a[k + 1:, k] / a[k, k]
            a[k + 1:, k:] -= np.outer(factors, a[k, k:])
            b[k + 1:] -= factors * b[k]
    x = np.empty(n)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1:] @ x[k + 1:]) / a[k, k]
    return x
