"""Symmetric eigendecomposition and a dense reference linear solver.

One eigen route serves everything: LAPACK's ``eigh`` behind a descending,
sign-fixed helper that takes one matrix or a stack.  The preconditioned
eigenproblem A(sigma)^(-1) B reaches it for a whole list of sigmas at once:
one stacked similarity transform, one stacked ``eigh`` of the whole matrix
or per invariant block, and one stacked map back.  The map back checks
every eigenpair's residual ||A^(-1) B v - lambda v|| <= 1e-8 through an
upper bound taken for the whole stack with the ring stencil and no solve
(A >= I, so ||B v - lambda A v|| bounds it); only a sigma whose bound is
above 1e-8 (from sigma near 1e4 to 1e6, by n) gets an operator and is
checked by a solve.  The sigma list is checked once, by the sigma rule of
:mod:`smoothgd.smoothing`, and carried as a float array; the route's range
ends where A(sigma) is singular to working precision (from about 1.13e15,
2.25e15 at n = 2), and a sigma past it is refused on its turn.  Values and
vectors (columns) stay arrays inside; :class:`EigenPair` lists and matrix
checks exist only at the public edge.  The linear solver is
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


def _residual_bounds(b, sigmas, values, cols):
    """Upper bounds on each sigma's eigenpair residuals, shape (S,).

    ``cols`` (S, n, n) holds the eigenvector columns and ``values`` (S, n)
    their eigenvalues.  Each column's stencil residual ||B v - lambda A v||
    takes A v as the ring stencil (1 + 2c) v - c (v shifted either way),
    with c the coupling (sigma / 2 at n = 2), so the whole stack costs one
    matrix product and no solve.  Its rounding error is at most
    (n + 8) eps (||B||_F + (1 + 4c) |lambda|) for a unit column, and that
    is added: where c |lambda| is large the stencil cancels, and at n = 2,
    sigma = 1e200 it reads 0 where ||B v - lambda A v|| is 0.7.  Overflow,
    at huge sigma, gives an inf or NaN bound and no warning.
    """
    n = b.shape[0]
    c = smoothing._coupling(n, sigmas)[:, None, None]
    lam = values[:, None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        r = b @ cols
        ring = np.roll(cols, 1, axis=1)
        ring[:, :-1] += cols[:, 1:]
        ring[:, -1] += cols[:, 0]
        ring *= c * lam
        r += ring
        r -= np.multiply(cols, (1.0 + 2.0 * c) * lam, out=ring)
        del ring
        rounding = (n + 8) * np.finfo(float).eps * (
            np.linalg.norm(b) + (1.0 + 4.0 * c[:, 0]) * np.abs(values))
        return (np.linalg.norm(r, axis=1) + rounding).max(axis=1)


def _map_back(b, sigmas, values, vectors):
    """Eigenpairs of A^(-1) B from those of its similar form, per sigma.

    ``sigmas`` is the stack's float array of checked strengths, in the
    route's range (:func:`_preconditioned`).  Every column of ``vectors``
    goes back through A^(-1/2), and is renormalized and sign-fixed, all
    sigmas at once; the pairs are then sorted by descending value, stably,
    so ties keep block order.  The generator yields each sigma's (values,
    columns) in turn, after checking that every pair satisfies
    ||A^(-1) B v - lambda v|| <= 1e-8; otherwise it raises
    :class:`ConvergenceError` with the worst residual, on that sigma's turn.

    The check first bounds every residual from above, for the whole stack
    at once (:func:`_residual_bounds`): A^(-1) B v - lambda v is
    A^(-1) (B v - lambda A v), and A >= I gives ||A^(-1)|| <= 1, so the
    stencil residual ||B v - lambda A v|| plus its rounding is at least the
    residual.  A sigma whose bound is at most 1e-8 passes with no solve.
    Only a sigma whose bound is above it, or not finite, gets an operator
    A, and is decided exactly by its batched ``solve`` (Thomas or the FFT,
    by size).  The rounding term grows with sigma and passes 1e-8 from
    about 6e5 at n = 22 (3e6 at n = 3, 3e4 at n = 500), where the exact
    residuals are still about 1e-11; should the exact check's Thomas solve
    break down, that is what is raised.  So the pairs accepted, the
    rejections and their residuals are those of the exact check alone.
    """
    n = b.shape[0]
    mapped = smoothing._inv_sqrt_stack(vectors, sigmas)
    del vectors
    mapped /= np.linalg.norm(mapped, axis=1, keepdims=True)
    cols = _sign_fix_columns(mapped)
    del mapped
    bounds = _residual_bounds(b, sigmas, values, cols)
    order = np.argsort(-values, axis=1, kind="stable")
    ranked = zip(np.take_along_axis(values, order, axis=1),
                 np.take_along_axis(cols, order[:, None, :], axis=2))
    for sigma, value, col, bound, result in zip(sigmas.tolist(), values,
                                                cols, bounds, ranked):
        if not bound <= 1e-8:   # above the bound, or not finite
            op = smoothing.CirculantSmoother(n, sigma)
            residual = np.max(np.linalg.norm(
                op.solve(b @ col) - col * value, axis=0))
            if not residual <= 1e-8:   # a NaN residual fails too
                raise ConvergenceError(
                    "back-transformed eigenpair failed its residual check",
                    residual)
        yield result


def _singular(n, sigma):
    """Whether A(sigma) is singular to working precision.

    That is (1 + 4c) eps >= 1, with c the coupling: 1 + 4c bounds A's
    condition number, and is it at every even n.  There the absolute 1e-8
    residual limit lies above the whole spectrum of A^(-1) B, so no
    eigenpair can be trusted.
    """
    c = smoothing._coupling(n, sigma)
    return (1.0 + 4.0 * c) * np.finfo(float).eps >= 1.0


def _preconditioned(b, sigmas, blocks=None):
    """Eigenvalues (descending) and eigenvectors (columns) of A(sigma)^(-1) B.

    A generator over the sequence ``sigmas``, each checked by the sigma
    rule before anything is computed: it yields (values, columns) for each
    sigma in turn, decomposing the list in stacks that keep each stacked
    n x n array within ``_STACK_BYTES``.  The route's range ends where
    A(sigma) is singular to working precision (:func:`_singular`); the
    first sigma past it raises ArithmeticError on its turn, and is never
    decomposed.  See :func:`_similar_eigh` for ``blocks``.  ``b`` must
    already be a symmetric float matrix.
    """
    n = b.shape[0]
    sigmas = [smoothing._check_sigma(s) for s in sigmas]
    stop = next((i for i, s in enumerate(sigmas) if _singular(n, s)),
                len(sigmas))
    in_range = np.array(sigmas[:stop])
    size = max(1, _STACK_BYTES // (8 * n * n))
    for start in range(0, stop, size):
        stack = in_range[start:start + size]
        yield from _map_back(b, stack, *_similar_eigh(b, stack, blocks))
    if stop < len(sigmas):
        raise ArithmeticError(
            f"A(sigma) is singular to working precision at sigma = "
            f"{sigmas[stop]:g} (n = {n})")


def eig_preconditioned_hessian(b, sigma):
    """Eigenpairs of A(sigma)^(-1) B for a symmetric matrix B.

    The product itself is not symmetric, but it is similar to the symmetric
    matrix A^(-1/2) B A^(-1/2), which is what actually gets decomposed; the
    eigenvectors are mapped back through A^(-1/2) and renormalized.  Each
    returned pair satisfies ||A^(-1) B v - lambda v|| <= 1e-8.  A sigma
    that is not finite and >= 0 raises ValueError; one where A(sigma) is
    singular to working precision, (1 + 4c) eps >= 1 with c the coupling,
    raises ArithmeticError: there the absolute limit lies above the whole
    spectrum, and at n = 2 it once let the pair through at half its value.

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
    # ||a||_F as s ||a / s||_F, s the largest |entry|, so it cannot overflow
    scale = np.max(np.abs(a))
    threshold = 1e-13 * scale * np.linalg.norm(a / scale) if scale else 0.0
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
