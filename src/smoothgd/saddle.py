"""Eigenstructure and attraction subspaces of smoothed descent on quadratics.

For f(x) = (scale/2) x^T B x the smoothed iteration is linear, driven by
A(sigma)^(-1) B.  When B is the canonical saddle matrix diag(1, ..., 1, -1)
that operator keeps exactly one negative eigenvalue, and its eigenvectors
split into three families distinguished by their behavior under the index
reflection i -> n-2-i that fixes the last coordinate:

* antisymmetric vectors (reversed head is the negated head, last entry 0),
* symmetric vectors with a nonzero last entry and a positive eigenvalue,
* one symmetric vector with the negative eigenvalue, the escape mode.

The span of the antisymmetric family does not depend on sigma, which makes
it the attraction region of the saddle under smoothed descent: iterates
started in it contract to the saddle, while any component outside of it
eventually feeds the escape mode.  This module computes those subspaces,
both from the closed-form basis available in the canonical case and from a
general symmetric matrix by intersecting its positive eigenspaces with the
eigenspaces of the ring second-difference operator.
"""

import collections
import contextlib
import contextvars
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg, optimizers
from .smoothing import CirculantSmoother, _check_dim, _check_sigma

__all__ = [
    "QuadraticObjective",
    "canonical_objective",
    "ModeClass",
    "EigenStructure",
    "ClassificationError",
    "SubspaceBasis",
    "CanonicalSplit",
    "eigen_structure",
    "canonical_attraction_basis",
    "general_attraction_basis",
    "laplacian_eigenspaces",
    "positive_eigvec_ratio",
    "negative_mode_overlap",
    "kernel_direction_fixed",
    "principal_angle",
]


class ClassificationError(RuntimeError):
    """An eigenvector fit neither symmetry pattern.

    ``residuals`` maps eigenvalue -> (antisymmetric residual, symmetric
    residual, last-entry magnitude) for every vector left unclassified.
    """

    def __init__(self, message, residuals):
        detail = "; ".join(
            f"value {val:.6g}: anti {a:.2e}, sym {s:.2e}, last {last:.2e}"
            for val, (a, s, last) in residuals.items())
        super().__init__(f"{message}: {detail}")
        self.residuals = residuals


class QuadraticObjective:
    """f(x) = (scale / 2) * x^T matrix x with a symmetric matrix.

    ``canonical_objective`` keeps its diagonal Hessian as the vector d, so
    ``gradient``, ``value`` and ``is_canonical`` take O(n) time and memory
    and the dense ``matrix`` is built only when first read.  B x is then
    d * x + 0.0: the added zero turns a -0.0 product into the +0.0 that the
    dense product gives, so both forms agree bit for bit.
    """

    def __init__(self, matrix, scale=1.0):
        m = linalg._as_square(matrix)
        _check_dim(m.shape[0])
        linalg._require_symmetric(m)
        m = 0.5 * (m + m.T)
        m.setflags(write=False)
        self._setup(m, None, scale)

    @classmethod
    def _from_diagonal(cls, d, scale=1.0):
        # B = diag(d) for a finite 1-d float array d, kept as d
        d = np.array(d, dtype=float)
        d.setflags(write=False)
        obj = cls.__new__(cls)
        obj._setup(None, d, scale)
        return obj

    def _setup(self, matrix, diagonal, scale):
        scale = float(scale)
        if not np.isfinite(scale) or scale <= 0.0:
            raise ValueError(f"scale must be finite and > 0, got {scale}")
        self._matrix = matrix
        self._diagonal = diagonal
        self._scale = scale

    @property
    def scale(self):
        return self._scale

    @property
    def matrix(self):
        """B as a read-only (n, n) array, built once from a diagonal."""
        if self._matrix is None:
            m = np.diag(self._diagonal)
            m.setflags(write=False)
            self._matrix = m
        return self._matrix

    @property
    def dim(self):
        b = self._matrix if self._diagonal is None else self._diagonal
        return b.shape[0]

    @functools.cached_property
    def is_canonical(self):
        # computed on first use, once per object: descent builds many
        # objectives that never ask
        ref = np.ones(self.dim)
        ref[-1] = -1.0
        if self._diagonal is not None:
            return bool(np.max(np.abs(self._diagonal - ref)) <= 1e-12)
        return bool(np.max(np.abs(self._matrix - np.diag(ref))) <= 1e-12)

    def _product(self, x):
        # B x for a vector x
        if self._diagonal is None:
            return self._matrix @ x
        if x.shape != self._diagonal.shape:
            raise ValueError(f"expected a vector of length {self.dim}, "
                             f"got shape {x.shape}")
        bx = self._diagonal * x
        bx += 0.0
        return bx

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * self._scale * float(x @ self._product(x))

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        g = self._product(x)
        # 1.0 * g is g bit for bit, so the default scale costs no product
        return g if self._scale == 1.0 else self._scale * g

    def describe(self):
        kind = "canonical" if self.is_canonical else "matrix"
        return f"{kind}(n={self.dim}, scale={self.scale:g})"


def canonical_objective(n, scale=1.0):
    """The n-dimensional saddle with Hessian scale * diag(1, ..., 1, -1)."""
    d = np.ones(_check_dim(n))
    d[-1] = -1.0
    return QuadraticObjective._from_diagonal(d, scale)


class ModeClass(Enum):
    ANTISYMMETRIC_SINE = "antisymmetric_sine"
    SYMMETRIC = "symmetric"
    NEGATIVE_MODE = "negative_mode"


def _pattern_residuals(vectors):
    """Antisymmetric, symmetric and last-entry residuals, one per row.

    For a row v with head h = v[:-1]: max |h + reversed h|, max |h -
    reversed h| (both 0 when the head is empty) and |v[-1]|.
    """
    head = vectors[:, :-1]
    rev = head[:, ::-1]
    anti = np.max(np.abs(head + rev), axis=1, initial=0.0)
    sym = np.max(np.abs(head - rev), axis=1, initial=0.0)
    return anti, sym, np.abs(vectors[:, -1])


def _classify(values, vectors, tol):
    """The ModeClass (or None) of each eigenpair; vectors are rows.

    Antisymmetric: anti and last residuals <= tol.  Otherwise, with the sym
    residual <= tol and the last entry above tol: the negative mode for a
    negative eigenvalue, symmetric for the rest.  Anything else is None.
    """
    anti, sym, last = _pattern_residuals(vectors)
    is_anti = (anti <= tol) & (last <= tol)
    is_sym = (sym <= tol) & (last > tol)
    negative = np.asarray(values) < 0
    labels = []
    for a, s, neg in zip(is_anti.tolist(), is_sym.tolist(), negative.tolist()):
        if a:
            labels.append(ModeClass.ANTISYMMETRIC_SINE)
        elif s:
            labels.append(ModeClass.NEGATIVE_MODE if neg
                          else ModeClass.SYMMETRIC)
        else:
            labels.append(None)
    return labels, (anti, sym, last)


@dataclass(frozen=True, eq=False)
class EigenStructure:
    """Classified eigenpairs of A(sigma)^(-1) B, descending by eigenvalue.

    ``values[i]`` is the eigenvalue of the unit eigenvector ``columns[:, i]``
    and ``labels[i]`` its :class:`ModeClass`, or None when the vector fits
    no pattern (possible for non-canonical matrices, and for the degenerate
    sigma = 0 limit where the symmetric family collapses).
    """

    sigma: float
    values: np.ndarray
    columns: np.ndarray
    labels: tuple

    @functools.cached_property
    def pairs(self):
        """The eigenpairs as a tuple of :class:`~smoothgd.linalg.EigenPair`."""
        return tuple(linalg._pairs(self.values, self.columns))

    def count(self, label):
        return sum(1 for item in self.labels if item is label)

    def vectors(self, label):
        """The eigenvectors of one family, one per row."""
        return self.columns[:, [l is label for l in self.labels]].T

    @property
    def dim(self):
        return self.columns.shape[0]

    def span(self, label):
        """Orthonormal basis (rows) of the span of one family."""
        return SubspaceBasis(_orthonormalize(self.vectors(label)))


def _orthonormalize(rows, drop_tol=1e-8):
    """Gram-Schmidt over the rows of a 2-d array, dropping dependent ones.

    Classical Gram-Schmidt with one re-orthogonalisation pass (CGS2): each
    row is projected off all kept rows at once, twice, which is as accurate
    as modified Gram-Schmidt with two passes (Giraud, Langou & Rozloznik,
    Comput. Math. Appl. 50, 2005).  A row whose remainder has norm at most
    drop_tol * max(1, ||row||) is dropped; the others are normalised and
    kept, in order.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    kept = np.empty(rows.shape)
    k = 0
    for row in rows:
        basis = kept[:k]
        w = row - basis.T @ (basis @ row)
        w -= basis.T @ (basis @ w)
        # sqrt(x . x) is np.linalg.norm of a contiguous vector, without
        # its dispatch
        norm = math.sqrt(w.dot(w))
        if norm > drop_tol * max(1.0, math.sqrt(row.dot(row))):
            kept[k] = w / norm
            k += 1
    return kept[:k]


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal row vectors spanning a subspace."""

    rows: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rows, dtype=float)
        if r.ndim != 2:
            raise ValueError(f"basis must be a 2-d array, got shape {r.shape}")
        if r.shape[0]:
            gram = r @ r.T
            # written so that a NaN anywhere fails the check
            if not np.max(np.abs(gram - np.eye(r.shape[0]))) <= 1e-10:
                raise ValueError("basis rows are not orthonormal within 1e-10")
        r = r.copy()
        r.setflags(write=False)
        object.__setattr__(self, "rows", r)

    @property
    def dim(self):
        return self.rows.shape[0]


@dataclass(frozen=True)
class CanonicalSplit:
    """The reflection-even / reflection-odd split of the canonical saddle."""

    antisymmetric: SubspaceBasis
    symmetric: SubspaceBasis


def _blocks(objective):
    """The canonical split's row bases for a canonical objective, else None."""
    if not objective.is_canonical:
        return None
    split = canonical_attraction_basis(objective.dim)
    return split.antisymmetric.rows, split.symmetric.rows


# Inside _sharing_decompositions: the objective, the sigmas still to come
# and the stream of their decompositions; None outside it.
_shared = contextvars.ContextVar("_shared", default=None)


@contextlib.contextmanager
def _sharing_decompositions(objective, sigmas):
    """Let eigen_structure calls on ``sigmas``, in order, share one stack.

    Inside the block, ``eigen_structure(objective, sigmas[i])`` called for
    i = 0, 1, ... in turn takes its decomposition from one stream over the
    whole list: the first call decomposes the first stack of sigmas (the
    whole list when it fits the byte budget), later calls take their slice,
    and each slice is dropped once taken.  Any other call decomposes its
    sigma on its own.  Results are bit for bit those of separate calls.
    """
    sigmas = [float(s) for s in sigmas]
    stream = linalg._preconditioned(objective.matrix, sigmas,
                                    _blocks(objective))
    token = _shared.set((objective, collections.deque(sigmas), stream))
    try:
        yield
    finally:
        _shared.reset(token)
        stream.close()


def _decomposition(objective, sigma):
    """Values and columns of A(sigma)^(-1) B for :func:`eigen_structure`.

    The shared stream's next slice when this call is its turn, otherwise a
    stack of one.
    """
    shared = _shared.get()
    if shared is not None:
        owner, pending, stream = shared
        if owner is objective and pending and pending[0] == sigma:
            pending.popleft()
            return next(stream)
    (values, columns), = linalg._preconditioned(
        objective.matrix, [sigma], _blocks(objective))
    return values, columns


def eigen_structure(objective, sigma, tol=1e-8):
    """Eigenpairs of A(sigma)^(-1) B with symmetry classification.

    The positive ``scale`` of the objective only multiplies eigenvalues, so
    the decomposition is taken of the bare matrix: for a canonical objective
    all eigenvalues lie in [-1, 1] and exactly one is negative.

    The index reflection commutes with the smoothing operator (a circulant
    is unchanged by reversing the ring) and with the canonical matrix, so
    for canonical objectives the decomposition runs per block of the cached
    :func:`canonical_attraction_basis` split, which keeps eigenvectors of
    nearby eigenvalues from different families from mixing, no matter how
    small the gap.  General matrices are decomposed whole.  Inside
    :func:`_sharing_decompositions` the decomposition comes from one stack
    shared by a whole sigma list, bit for bit the same as a lone call's.

    All vectors are classified at once from three residuals per vector,
    max |h + reversed h|, max |h - reversed h| over the head h = v[:-1],
    and |v[-1]|, each compared with ``tol``.  Vectors that fit no pattern
    get label None; for a canonical objective with sigma > 0 an
    unclassified vector, or family counts different from (floor((n-1)/2),
    floor(n/2), 1), raise :class:`ClassificationError` instead.
    """
    sigma = _check_sigma(sigma)
    canonical = objective.is_canonical
    values, columns = _decomposition(objective, sigma)
    labels, residuals = _classify(values, columns.T, tol)
    if canonical and sigma > 0.0:
        n = objective.dim
        expected = {
            ModeClass.ANTISYMMETRIC_SINE: (n - 1) // 2,
            ModeClass.SYMMETRIC: n // 2,
            ModeClass.NEGATIVE_MODE: 1,
        }
        got = {m: labels.count(m) for m in expected}
        if None in labels or got != expected:
            # value -> (anti, sym, last) residuals, in pair order
            rows = list(zip(values.tolist(),
                            zip(*(r.tolist() for r in residuals))))
            if None in labels:
                raise ClassificationError(
                    "eigenvectors fit neither symmetry pattern",
                    {v: r for (v, r), l in zip(rows, labels) if l is None})
            raise ClassificationError(
                f"family counts {got} differ from {expected}", dict(rows))
    return EigenStructure(sigma, values, columns, tuple(labels))


def canonical_attraction_basis(n):
    """Closed-form attraction/escape split for the canonical saddle.

    The antisymmetric part (the attraction region) is spanned by
    (e_k - e_{n-2-k}) / sqrt(2) for k < (n-1)/2; the symmetric complement
    adds the matching plus-combinations, the last coordinate axis, and for
    even n the middle axis e_{n/2-1}.  Dimensions are floor((n-1)/2) and
    n - floor((n-1)/2).

    The split is built once per n and cached for the last few sizes, so
    callers share one immutable object: the dataclasses are frozen and the
    basis rows read-only.
    """
    return _canonical_split(_check_dim(n))


@functools.lru_cache(maxsize=4)
def _canonical_split(n):
    eye = np.eye(n)
    half = 1.0 / np.sqrt(2.0)
    anti = [half * (eye[k] - eye[n - 2 - k]) for k in range((n - 1) // 2)]
    sym = [half * (eye[k] + eye[n - 2 - k]) for k in range((n - 1) // 2)]
    if n % 2 == 0:
        sym.append(eye[n // 2 - 1].copy())
    sym.append(eye[n - 1].copy())
    empty = np.empty((0, n))
    return CanonicalSplit(
        antisymmetric=SubspaceBasis(np.array(anti) if anti else empty),
        symmetric=SubspaceBasis(np.array(sym) if sym else empty),
    )


def ring_second_difference(v):
    """The periodic second difference L v used by the smoothing operator.

    Taken from the operator itself, L = I - A(1): v_{i-1} - 2 v_i + v_{i+1}
    on the ring, which for n = 2 is (v_1 - v_0, v_0 - v_1).
    """
    v = np.asarray(v, dtype=float)
    return v - CirculantSmoother(len(v), 1.0).apply(v)


def laplacian_eigenspaces(n):
    """Analytic orthonormal eigenspaces of the ring second difference.

    Returns a list of (eigenvalue, basis) with basis rows orthonormal.  The
    eigenvalues are 1 - spectrum of A(1), i.e. 2 cos(2 pi m / n) - 2 for
    the frequencies m = 0 .. floor(n/2), with two-dimensional spaces at
    the interior frequencies; for n = 2 they are {0, -2}.
    """
    op = CirculantSmoother(n, 1.0)
    n = op.n
    values = 1.0 - op.spectrum()
    spaces = [(float(values[0]), np.full((1, n), 1.0 / np.sqrt(n)))]
    idx = np.arange(n)
    for m in range(1, (n - 1) // 2 + 1):
        angle = 2.0 * np.pi * m * idx / n
        basis = np.array([np.cos(angle), np.sin(angle)]) / np.sqrt(n / 2.0)
        spaces.append((float(values[m]), basis))
    if n % 2 == 0:
        alt = np.where(idx % 2 == 0, 1.0, -1.0) / np.sqrt(n)
        spaces.append((float(values[n // 2]), alt.reshape(1, -1)))
    return spaces


def _kernel_coefficients(m_map, tol):
    """Coefficient vectors alpha (rows) with m_map @ alpha ~ 0.

    The kernel is the orthogonal complement of the row space, found with
    two Gram-Schmidt passes: one over the rows to get a row-space basis,
    one extending it by coordinate vectors; the rows past the row rank
    span the kernel.  No SVD involved.
    """
    row_basis = _orthonormalize(m_map, drop_tol=tol)
    extended = np.vstack([row_basis, np.eye(m_map.shape[1])])
    return _orthonormalize(extended, drop_tol=tol)[len(row_basis):]


def general_attraction_basis(objective, tol=1e-8):
    """Attraction region of smoothed descent for a general symmetric matrix.

    A direction p belongs to it iff p is an eigenvector of the matrix with a
    positive eigenvalue whose second difference stays in span{p}; the span
    of all such directions is then invariant under A(sigma)^(-1) B for every
    sigma at once.  Simple positive eigenvalues are checked directly.  A
    repeated positive eigenvalue contributes the intersection of its
    eigenspace with each eigenspace of the ring second difference, computed
    by composing the two projections and extracting the kernel with
    Gram-Schmidt passes; every candidate is verified against both operators
    before being accepted.

    The matrix must have no zero eigenvalue (relative to 1e-10 * ||B||);
    degenerate saddles are the domain of :func:`kernel_direction_fixed`.
    """
    b = objective.matrix
    n = objective.dim
    norm = np.linalg.norm(b)
    values, vectors = linalg._eigh_descending(b)
    if np.any(np.abs(values) <= 1e-10 * norm):
        raise ValueError(
            "matrix has a zero eigenvalue; use kernel_direction_fixed for "
            "degenerate saddles")
    # positive eigenvalues come first in descending order
    count = int(np.count_nonzero(values > 0))
    positive = values[:count].tolist()
    rows = vectors[:, :count].T.copy()
    spaces = laplacian_eigenspaces(n)
    accepted = []
    start = 0
    gap = 1e-9 * norm
    while start < count:
        stop = start + 1
        while stop < count and positive[stop - 1] - positive[stop] <= gap:
            stop += 1
        mean = float(np.mean(positive[start:stop]))
        if stop - start == 1:
            p = rows[start]
            lp = ring_second_difference(p)
            if np.linalg.norm(lp - (p @ lp) * p) <= tol:
                accepted.append(p)
        else:
            basis = np.ascontiguousarray(rows[start:stop].T)
            for _, lap_rows in spaces:
                residual_map = basis - lap_rows.T @ (lap_rows @ basis)
                for alpha in _kernel_coefficients(residual_map, tol):
                    cand = basis @ alpha
                    cand /= np.linalg.norm(cand)
                    lp = ring_second_difference(cand)
                    in_lap = np.linalg.norm(lp - lap_rows.T @ (lap_rows @ lp))
                    eig_res = np.linalg.norm(b @ cand - mean * cand)
                    if in_lap <= 10 * tol and eig_res <= 10 * tol * max(1.0, norm):
                        accepted.append(cand)
        start = stop
    rows = _orthonormalize(np.array(accepted)) if accepted else np.empty((0, n))
    return SubspaceBasis(rows)


def positive_eigvec_ratio(sigma):
    """Component ratio of the slow eigenvector of the 2-d canonical saddle.

    For n = 2 the positive-eigenvalue eigenvector of A(sigma)^(-1) B is
    proportional to (ratio, 1) with ratio = (sigma + 1 + sqrt(2 sigma + 1))
    / sigma.  It decreases from infinity (sigma -> 0, the x-axis) toward 1,
    so growing sigma rotates the attracting direction away from every fixed
    line through the origin.
    """
    sigma = float(sigma)
    if not np.isfinite(sigma) or sigma <= 0.0:
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")
    return (sigma + 1.0 + np.sqrt(2.0 * sigma + 1.0)) / sigma


def negative_mode_overlap(objective, sigma1, sigma2):
    """Inner product of sign-fixed escape modes at two smoothing strengths.

    The escape mode (the eigenvector with the negative eigenvalue) has
    entries of a single sign, so after sign normalization the overlap is
    strictly positive no matter how far apart sigma1 and sigma2 are; the
    modes at different strengths are never orthogonal.
    """
    vecs = []
    for values, vectors in linalg._preconditioned(objective.matrix,
                                                  (sigma1, sigma2)):
        if values[-1] >= 0:
            raise ValueError(
                "objective has no negative-curvature mode to compare")
        vecs.append(vectors[:, -1])   # already sign-fixed by _map_back
    return float(vecs[0] @ vecs[1])


def kernel_direction_fixed(objective, p, schedule, steps, eta=0.1):
    """Whether smoothed descent started at a kernel vector stays put.

    Requires ||B p|| <= 1e-10 * ||B|| * ||p|| (p must lie in the kernel of
    the Hessian).  Runs up to ``steps`` smoothed-descent steps from p with
    :func:`~smoothgd.optimizers.run` and returns True iff every recorded
    iterate stays within 1e-10 of p.  With an exact kernel vector the
    gradient vanishes identically, so the run stops at once as stationary
    and the point never moves, regardless of the schedule or step size.
    """
    p = np.asarray(p, dtype=float)
    b = objective.matrix
    norm = np.linalg.norm(b)
    pnorm = np.linalg.norm(p)
    if pnorm == 0.0:
        raise ValueError("p must be a nonzero vector")
    if np.linalg.norm(b @ p) > 1e-10 * norm * pnorm:
        raise ValueError(
            "p is not in the kernel of the matrix (||B p|| too large)")
    config = optimizers.RunConfig(eta=eta, max_iters=steps,
                                  record_trajectory=True)
    result = optimizers.run(objective, p, config, schedule)
    return bool(np.max(np.abs(result.trajectory - p)) <= 1e-10)


def principal_angle(a, b):
    """Largest principal angle between two equal-dimension subspaces, radians.

    Zero means the spans coincide.  The cosine of the largest angle is the
    smallest singular value of the overlap ra rb^T, and its sine is the
    spectral norm of the part r of ra outside span(rb), the square root of
    the largest eigenvalue of the small Gram matrix r r^T; the angle is
    taken from both with atan2, so it stays accurate down to round-off
    where an arccos of the cosine alone bottoms out near 1e-8.
    """
    ra, rb = a.rows, b.rows
    if ra.shape[0] != rb.shape[0]:
        raise ValueError(
            f"subspace dimensions differ: {ra.shape[0]} vs {rb.shape[0]}")
    if ra.shape[0] == 0:
        return 0.0
    overlap = ra @ rb.T
    outside = ra - overlap @ rb
    sine = math.sqrt(max(np.linalg.eigvalsh(outside @ outside.T)[-1], 0.0))
    cosine = np.linalg.svd(overlap, compute_uv=False)[-1]
    return float(np.arctan2(sine, cosine))
