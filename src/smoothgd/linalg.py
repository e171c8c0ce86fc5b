"""Symmetric eigendecomposition and a dense reference linear solver.

One eigen route serves everything: LAPACK's ``eigh`` behind a descending,
sign-fixed helper, which the preconditioned eigenproblem A(sigma)^(-1) B
reaches by one similarity transform, whole or per invariant block.  Values
and vectors (columns) stay arrays inside; :class:`EigenPair` lists and
input checks exist only at the public edge.  The linear solver is
self-contained Gaussian elimination with partial pivoting, an independent
cross-check for the structured (Fourier / tridiagonal) routes in
:mod:`smoothgd.smoothing`.
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

    Columns with no such entry are left as they are.  Only negations
    happen, so every entry keeps its bits up to the sign.  Returns a new
    array.
    """
    m = np.asarray(m, dtype=float)
    if m.shape[0] == 0:
        return m.copy()
    big = np.abs(m) > tol
    # row of each column's first entry above tol (0 where there is none)
    at = big.argmax(axis=0), np.arange(m.shape[1])
    return np.where(big[at] & (m[at] < 0), -m, m)


def _eigh_descending(a):
    """Descending eigenvalues and sign-fixed eigenvector columns; no checks."""
    values, vectors = np.linalg.eigh(a)
    return values[::-1].copy(), _sign_fix_columns(vectors[:, ::-1])


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


def _similar_symmetric(op, b):
    """A^(-1/2) B A^(-1/2), the symmetric matrix similar to A^(-1) B.

    ``op`` is the smoother A; both sides are applied as one batched
    transform each, the second to the transpose of the first result.
    """
    sym = op.inv_sqrt_apply(op.inv_sqrt_apply(b).T)
    return 0.5 * (sym + sym.T)


def _map_back(op, b, values, vectors):
    """Eigenvectors of A^(-1) B from eigenvectors of its similar form.

    ``vectors`` holds one eigenvector of A^(-1/2) B A^(-1/2) per column.
    Each goes back through A^(-1/2), is renormalized and sign-fixed (all
    columns at once), and must satisfy ||A^(-1) B v - lambda v|| <= 1e-8,
    checked for all pairs with one batched ``solve`` (Thomas or the FFT,
    by size); otherwise :class:`ConvergenceError` is raised with the worst
    residual.  Returns the mapped vectors as columns.
    """
    mapped = op.inv_sqrt_apply(vectors)
    mapped /= np.linalg.norm(mapped, axis=0)
    cols = _sign_fix_columns(mapped)
    residual = np.max(np.linalg.norm(
        op.solve(b @ cols) - cols * values, axis=0))
    if residual > 1e-8:
        raise ConvergenceError(
            "back-transformed eigenpair failed its residual check", residual)
    return cols


def _preconditioned(b, sigma, blocks=None):
    """Eigenvalues (descending) and eigenvectors (columns) of A^(-1) B.

    A^(-1/2) B A^(-1/2) is decomposed whole, or per block of ``blocks``
    (orthonormal row bases of invariant subspaces spanning the space); ties
    keep block order.  ``b`` must already be a symmetric float matrix.
    """
    op = smoothing.CirculantSmoother(b.shape[0], sigma)
    sym = _similar_symmetric(op, b)
    if blocks is None:
        values, vectors = _eigh_descending(sym)
    else:
        values, vectors = [], []
        for block in blocks:
            restricted = block @ sym @ block.T
            small = _eigh_descending(0.5 * (restricted + restricted.T))
            values.append(small[0])
            vectors.append(block.T @ small[1])
        values, vectors = np.concatenate(values), np.hstack(vectors)
    vectors = _map_back(op, b, values, vectors)
    order = np.argsort(-values, kind="stable")
    return values[order], vectors[:, order]


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
    return _pairs(*_preconditioned(b, sigma))


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
