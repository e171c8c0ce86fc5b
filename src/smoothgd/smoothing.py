"""Periodic tridiagonal smoothing operator and its solvers.

The operator acts on vectors of length n as

    (A x)_i = (1 + 2*sigma) x_i - sigma * (x_{i-1} + x_{i+1})

with periodic (wrap-around) indexing, i.e. A = I - sigma * L where L is the
second-difference matrix on a ring.  A is symmetric positive definite for
every sigma >= 0, with eigenvalues

    1 + sigma * (2 - 2*cos(2*pi*k/n)),  k = 0, ..., n-1,

all lying in [1, 1 + 4*sigma].  Because A is circulant it is diagonalized by
the discrete Fourier transform, which gives one solve route (a real FFT,
scaled by the reciprocal spectrum 1 + sigma * symbol, with the ring symbol
2 - 2*cos(2*pi*k/n) cached once per n); the shifted tridiagonal structure
gives another (Thomas elimination plus a rank-one corner correction).  Both
routes are exposed so they can be checked against each other, and every
solver takes a vector (n,) or an (n, k) array of columns.

The default ``solve`` picks the route by size.  Below n = 64 it is Thomas,
whose row loop runs on Python floats (a vector's entries, or an (n, k)
array's rows) and gives bit for bit the results of the same loop over numpy
scalars.  There it is the faster route, and it keeps the exact arithmetic
that descent's attraction behaviour was tested with: round-off decides
whether a start in the attracted antisymmetric subspace converges or
escapes, and at n = 7..11 more such starts escape with a Fourier solve.
From n = 64 on the real FFT is faster, whether an operator serves many
solves or one, and ``solve`` is ``solve_dft``.  The crossover was measured:
Thomas against the FFT at n = 16..128, at constant sigma and with a new
operator per solve; n = 64 is the smallest size where the FFT was faster
both ways in the median of five interleaved runs (at n = 48 the
constant-sigma times tie).

For n = 2 both ring neighbours are the same entry, so the operator is the
ring at half strength, the single coupling [[1 + sigma, -sigma], [-sigma,
1 + sigma]] with eigenvalues {1, 1 + 2*sigma}.
"""

import functools
import math

import numpy as np

__all__ = ["CirculantSmoother", "solve_smoothed_pair"]

# smallest n whose default solve is the real FFT rather than Thomas
_FOURIER_FROM_N = 64

# Thomas's Sherman-Morrison fold-in w - q t runs in numpy only below this
# |t|.  Every |q_i| is below 1 (each row of T has a diagonal margin of more
# than |u_i|), so no q_i t can overflow.
_FOLD_IN_LIMIT = 2.0 ** 1000

# Largest coupling c for which no c * symbol can overflow: the ring symbol
# is at most 4.
_WIDEST_C = np.finfo(float).max / 4.0


@functools.lru_cache(maxsize=8)
def _ring_symbol(n):
    # eigenvalues of -L, 2 - 2 cos(2 pi k / n), in DFT mode order; shared by
    # every operator of this size, so read-only
    k = np.arange(n)
    symbol = 2.0 - 2.0 * np.cos(2.0 * np.pi * k / n)
    symbol.flags.writeable = False
    return symbol


def _check_dim(n):
    """The ring size n as an int; anything but an integer >= 2 raises."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {n!r}")
    return int(n)


def _check_sigma(sigma):
    """The strength sigma as a float; anything not finite and >= 0 raises."""
    sigma = float(sigma)
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    return sigma


def _coupling(n, sigma):
    # coupling to each ring neighbour; at n = 2 both are the same entry
    return sigma / 2.0 if n == 2 else sigma


def _spectra(n, sigmas):
    """Eigenvalues 1 + c * symbol of A(sigma) in DFT mode order.

    ``sigmas`` is a float, giving shape (n,), or an (S,) float array,
    giving one row per sigma, (S, n).  A coupling above _WIDEST_C may make
    an eigenvalue inf, which is A's eigenvalue in the limit (and 1 / inf =
    0 its inverse); only there is the overflow's warning turned off.
    """
    c = _coupling(n, sigmas)
    if isinstance(c, np.ndarray):
        wide = c.max(initial=0.0) > _WIDEST_C
        c = c[:, None]
    else:
        wide = c > _WIDEST_C
    if wide:
        with np.errstate(over="ignore"):
            return 1.0 + c * _ring_symbol(n)
    return 1.0 + c * _ring_symbol(n)


def _inv_sqrt_stack(x, sigmas):
    """A(sigma)^(-1/2) along axis -2 of x, for every sigma in one batch.

    ``sigmas`` is a float array of S checked strengths.  ``x`` is (n, k),
    shared by every sigma, or (S, n, k), one slice per sigma; the result is
    (S, n, k).  One batched real FFT divides each Fourier mode by the square
    root of its eigenvalue, and where sigma is 0 the slice is an exact copy
    of x, so A(0)^(-1/2) is the identity.
    """
    n = x.shape[-2]
    # the n // 2 + 1 modes rfft keeps, as in solve_dft
    weights = 1.0 / np.sqrt(_spectra(n, sigmas)[:, :n // 2 + 1, None])
    out = np.fft.irfft(np.fft.rfft(x, axis=-2) * weights, n, axis=-2)
    np.copyto(out, x, where=(sigmas == 0.0)[:, None, None])
    return out


def solve_smoothed_pair(sigma, y0, y1):
    """Closed-form solve of the 2-point smoothing system.

    Inverts [[1+sigma, -sigma], [-sigma, 1+sigma]] against (y0, y1).
    Accepts scalars or same-shape arrays and operates elementwise, so grid
    sweeps can solve many 2-d systems in one call.
    """
    det = 1.0 + 2.0 * sigma
    x0 = ((1.0 + sigma) * y0 + sigma * y1) / det
    x1 = (sigma * y0 + (1.0 + sigma) * y1) / det
    return x0, x1


class CirculantSmoother:
    """The smoothing operator for a fixed dimension n and strength sigma.

    Instances are immutable.  The Thomas factorization is computed lazily on
    the first Thomas solve and cached, so repeated solves at the same sigma
    (e.g. after a schedule plateaus) reuse it.
    """

    def __init__(self, n, sigma):
        self._n = _check_dim(n)
        self._sigma = _check_sigma(sigma)
        self._c = _coupling(self._n, self._sigma)
        self._spectrum = None
        self._thomas = None

    @property
    def n(self):
        return self._n

    @property
    def sigma(self):
        return self._sigma

    def _check(self, x):
        return self._require_finite(self._as_input(x))

    def _as_input(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[0] != self._n:
            raise ValueError(
                f"expected shape ({self._n},) or ({self._n}, k), "
                f"got {x.shape}")
        return x

    @staticmethod
    def _require_finite(x):
        # a sum of squares is finite only if every entry is; the exact
        # entrywise test runs only where it is not, so finite entries whose
        # squares overflow still pass.  np.vdot checks no floating-point
        # flags, so the overflow costs no warning.
        flat = x.ravel(order="K")
        if not np.vdot(flat, flat) < math.inf and not np.isfinite(x).all():
            raise ValueError("input has non-finite entries")
        return x

    def spectrum(self):
        """Eigenvalues in DFT mode order, all in [1, 1 + 4*sigma]."""
        if self._spectrum is None:
            self._spectrum = _spectra(self._n, self._sigma)
        return self._spectrum.copy()

    def apply(self, x):
        """Matrix product A @ x for x of shape (n,) or (n, k)."""
        x = self._check(x)
        c = self._c
        return (1.0 + 2.0 * c) * x - c * (np.roll(x, 1, axis=0)
                                          + np.roll(x, -1, axis=0))

    def dense(self):
        """The operator as a dense (n, n) array."""
        n, c = self._n, self._c
        a = np.diag(np.full(n, 1.0 + 2.0 * c))
        idx = np.arange(n)
        # accumulate, so that at n = 2 both neighbours land on one entry
        a[idx, (idx + 1) % n] -= c
        a[idx, (idx - 1) % n] -= c
        return a

    def solve_dft(self, y):
        """Solve A x = y by Fourier diagonalization.

        The right-hand side is transformed with a real FFT, scaled mode by
        mode by the reciprocal eigenvalues, and transformed back.  At
        sigma = 0 it returns a copy of y, exactly as Thomas does.
        """
        y = self._check(y)
        if self._sigma == 0.0:
            return y.copy()
        # irfft(weights * rfft(y)) along axis 0.  The spectrum is even in
        # the mode index, so the n // 2 + 1 modes rfft keeps carry all of
        # it, and irfft returns a real array by construction.
        weights = (1.0 / self.spectrum())[:self._n // 2 + 1]
        if y.ndim == 2:
            weights = weights[:, None]
        return np.fft.irfft(np.fft.rfft(y, axis=0) * weights, self._n,
                            axis=0)

    def _thomas_factors(self):
        # A = T + u v^T where T is the tridiagonal part with modified
        # corners: T[0,0] = d - gamma, T[n-1,n-1] = d - c**2 / gamma,
        # u = (gamma, 0, ..., 0, -c), v = (1, 0, ..., 0, -c/gamma),
        # d = 1 + 2*c, gamma = -d.  That choice keeps T diagonally
        # dominant, so elimination needs no pivoting.  Cached as the
        # elimination denominators, q = T^-1 u as a read-only array,
        # c/gamma and 1 + v^T q.
        if self._thomas is None:
            n, c = self._n, self._c
            d = 1.0 + 2.0 * c
            gamma = -d
            diag = np.full(n, d)
            diag[0] = d - gamma
            diag[-1] = d - c * c / gamma
            # Forward elimination factors for constant off-diagonal -c.
            denom = diag.tolist()
            for i in range(1, n):
                denom[i] = denom[i] - c * c / denom[i - 1]
            u = np.zeros(n)
            u[0] = gamma
            u[-1] = -c
            q = self._tri_solve(denom, u.tolist())
            v_dot_q = q[0] - (c / gamma) * q[-1]
            # Sherman-Morrison divides by 1 + v^T q; where that is zero or
            # not finite (at very large sigma) no solve can be trusted
            if not (math.isfinite(v_dot_q) and 1.0 + v_dot_q != 0.0):
                raise ArithmeticError(
                    f"Thomas elimination breaks down at sigma = "
                    f"{self._sigma:g} (n = {n})")
            q = np.array(q)
            q.setflags(write=False)
            self._thomas = (denom, q, c / gamma, 1.0 + v_dot_q)
        return self._thomas

    def _tri_solve(self, denom, x):
        # Solve T x = rhs in place, given the precomputed elimination
        # denominators and the rhs rows as a list: Python floats for a
        # vector, row arrays for an (n, k) array, so each column gets
        # exactly the arithmetic of a single vector.  The same IEEE
        # operations in the same order as a loop over numpy scalars, without
        # numpy's per-element indexing cost; the row just computed is
        # carried in a local rather than read back from the list.
        n, c = self._n, self._c
        prev = x[0]
        for i in range(1, n):
            prev = x[i] = x[i] + c * prev / denom[i - 1]
        prev = x[-1] = prev / denom[-1]
        for i in range(n - 2, -1, -1):
            prev = x[i] = (x[i] + c * prev) / denom[i]
        return x

    def _thomas_solve(self, y):
        # solve_thomas on an input of a valid shape, which this tests for
        # non-finite entries.  Each sweep carries a NaN or inf on to every
        # row after it, so one anywhere in a vector reaches w[0] and t, and
        # Python floats raise no warning on the way: on an operator that
        # has its factors, a vector is tested only where |t| is not below
        # _FOLD_IN_LIMIT.  A block's rows are arrays, whose arithmetic would
        # warn, so a block is tested first, as is every input before the
        # factorization, whose breakdown is reported after input errors.
        if self._sigma == 0.0:
            return self._require_finite(y).copy()
        if y.ndim == 2 or self._thomas is None:
            self._require_finite(y)
        denom, q, c_over_gamma, pivot = (self._thomas
                                         or self._thomas_factors())
        w = self._tri_solve(denom, y.tolist() if y.ndim == 1 else list(y))
        t = (w[0] - c_over_gamma * w[-1]) / pivot
        if y.ndim == 2:
            return np.array(w) - np.multiply.outer(q, t)
        if abs(t) < _FOLD_IN_LIMIT:
            # numpy rounds each entry as the scalar w_i - q_i * t
            return np.subtract(w, q * t)
        # a NaN or inf t (from a non-finite entry, or from finite entries
        # whose elimination overflowed) or a huge one: q has exact zeros
        # where it underflows, and 0 * inf in numpy would warn
        self._require_finite(y)
        return np.array([wi - qi * t for wi, qi in zip(w, q.tolist())])

    def solve_thomas(self, y):
        """Solve A x = y by tridiagonal elimination.

        The periodic corner entries are handled with a rank-one update: the
        system splits as A = T + u v^T with T strictly tridiagonal and
        diagonally dominant, so a single extra T-solve folds the corners
        back in (Sherman-Morrison).  Where that fold-in breaks down, at very
        large sigma, it raises ArithmeticError instead of returning inf or
        NaN.
        """
        return self._thomas_solve(self._as_input(y))

    def solve(self, y):
        """Default solve: ``solve_thomas`` below n = 64, ``solve_dft`` from it.

        Each route is the faster one on its side of the measured crossover,
        with or without a new operator per solve, and the result is that
        route's bit for bit.  The small sizes, where descent's attraction
        behaviour is tested and where a Fourier solve's round-off lets more
        antisymmetric starts escape, keep Thomas's exact arithmetic.  Below
        the crossover the input's shape is checked and it is eliminated
        straight away with the operator's cached factors; once those exist,
        a vector's entries are tested for NaN and inf only where the
        elimination turns out non-finite or huge.  So this is the cheapest
        way to make repeated small solves (descent makes one a step).
        """
        if self._n >= _FOURIER_FROM_N:
            return self.solve_dft(y)
        return self._thomas_solve(self._as_input(y))

    def inv_sqrt_apply(self, x):
        """Apply A^(-1/2), the inverse symmetric square root.

        Each Fourier mode is divided by sqrt(eigenvalue); applying it twice
        reproduces a full solve.  At sigma = 0 it returns a copy of x, as
        the solves do, so A(0)^(-1/2) is the identity exactly.
        """
        x = self._check(x)
        out = _inv_sqrt_stack(x.reshape(self._n, -1), np.array([self._sigma]))
        return out[0].reshape(x.shape)
