"""First-order descent loops with optional gradient smoothing.

Plain gradient descent takes steps along -grad f.  The smoothed variant
solves the periodic tridiagonal system A(sigma) s = grad f(x) each
iteration and steps along -s instead, where sigma may change from one
iteration to the next according to a schedule.  A schedule with bound C
(sigma(k) <= C for all k) comes with a worst-case iteration count for
reaching an eps-stationary point of an L-smooth objective:

    2 * (1 + 4C)^2 * L * (f(x0) - f*) / ((1 + 8C) * eps^2)

Objectives are duck-typed: anything with a ``dim`` attribute and a
``gradient(x)`` method works; ``value(x)`` is only needed by helpers that
talk about function values.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .smoothing import CirculantSmoother

__all__ = [
    "ConstantSigma",
    "RatioSigma",
    "PlateauSigma",
    "RunConfig",
    "RunStatus",
    "RunResult",
    "NumericError",
    "GradientFunction",
    "run",
    "stationarity_iteration_bound",
]


class NumericError(ArithmeticError):
    """A non-finite value appeared during iteration.

    Carries the offending iterate, the iteration index, and whatever
    trajectory prefix was recorded up to that point.
    """

    def __init__(self, message, iterate, iteration, trajectory=None):
        super().__init__(f"{message} at iteration {iteration}")
        self.iterate = iterate
        self.iteration = iteration
        self.trajectory = trajectory


def _is_count(value):
    """True for an int or NumPy integer that is not a bool."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, (bool, np.bool_)))


class ConstantSigma:
    """sigma(k) = sigma0 for every k.  sigma0 = 0 reduces to plain GD."""

    def __init__(self, sigma0):
        sigma0 = float(sigma0)
        if not math.isfinite(sigma0) or sigma0 < 0.0:
            raise ValueError(f"sigma0 must be finite and >= 0, got {sigma0}")
        self.sigma0 = sigma0

    def __call__(self, k):
        return self.sigma0

    @property
    def bound(self):
        return self.sigma0


class RatioSigma:
    """Increasing smoothing schedule 2/3, 3/4, 4/5, ... toward 1.

    The step counter here is 0-based while the published distance-field
    angles come out of a 1-based loop, so sigma(k) = (k + 2) / (k + 3).
    With the off-by-one variant the field minima land ~0.3 deg away from
    the reference angles; this one reproduces example 2's to ~2e-5 deg,
    and example 1's to ~4e-5 deg once mirrored by theta -> -theta (the
    reference dip is the mirror image of the one this coupling sign gives).
    """

    def __call__(self, k):
        return (k + 2.0) / (k + 3.0)

    @property
    def bound(self):
        return 1.0


class PlateauSigma:
    """Ratio schedule frozen after step k0: sigma(k) = (min(k,k0)+2)/(min(k,k0)+3)."""

    def __init__(self, k0):
        if not _is_count(k0) or k0 < 0:
            raise ValueError(f"k0 must be a non-negative integer, got {k0!r}")
        self.k0 = int(k0)

    def __call__(self, k):
        kk = min(k, self.k0)
        return (kk + 2.0) / (kk + 3.0)

    @property
    def bound(self):
        return (self.k0 + 2.0) / (self.k0 + 3.0)


@dataclass(frozen=True)
class RunConfig:
    """Termination and bookkeeping knobs for a descent run.

    eta : step size, > 0
    max_iters : step budget, an integer >= 0
    eps_stationary : stop once ||grad f|| <= eps_stationary
    escape_radius : stop once ||x|| exceeds it (inf disables)
    record_trajectory : keep every iterate (otherwise only endpoints)
    """

    eta: float = 0.1
    max_iters: int = 100
    eps_stationary: float = 0.0
    escape_radius: float = math.inf
    record_trajectory: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta > 0.0):
            raise ValueError(f"eta must be finite and > 0, got {self.eta}")
        if not _is_count(self.max_iters) or self.max_iters < 0:
            raise ValueError(
                f"max_iters must be an integer >= 0, got {self.max_iters!r}")
        if math.isnan(self.eps_stationary) or self.eps_stationary < 0.0:
            raise ValueError(
                f"eps_stationary must be >= 0, got {self.eps_stationary}")
        if math.isnan(self.escape_radius) or self.escape_radius <= 0.0:
            raise ValueError(
                f"escape_radius must be > 0, got {self.escape_radius}")


class RunStatus(Enum):
    REACHED_STATIONARY = "reached_stationary"
    MAX_ITERS = "max_iters"
    ESCAPED = "escaped"


@dataclass(frozen=True)
class RunResult:
    final_point: np.ndarray
    iterations_used: int
    status: RunStatus
    final_grad_norm: float
    trajectory: np.ndarray | None = field(default=None, repr=False)


class GradientFunction:
    """Adapter turning plain callables into an objective object."""

    def __init__(self, dim, gradient, value=None):
        self.dim = int(dim)
        self._gradient = gradient
        self._value = value

    def gradient(self, x):
        return self._gradient(x)

    def value(self, x):
        if self._value is None:
            raise NotImplementedError("no value callable was provided")
        return self._value(x)


def run(objective, x0, config, schedule):
    """Iterate smoothed descent from x0 until a termination rule fires.

    Per iteration k the checks happen in a fixed order: stationarity
    (||grad|| <= eps_stationary), then the step budget, then escape
    (||x|| > escape_radius); the first that fires decides the status, so a
    run that is stationary exactly at the budget reports
    ``REACHED_STATIONARY``.  With ``ConstantSigma(0)`` the smoothing system
    is the identity and this is plain gradient descent.

    The gradient is converted to a float array and its shape checked, and
    its squared norm (the one ``final_grad_norm`` and the stationarity test
    take) doubles as its finiteness test; the new iterate's squared norm
    does the same, and the next step's escape test reuses it.  A sum of
    squares is finite only if every entry is, and only where it is not does
    the exact entrywise test run, so a finite vector whose squares overflow
    still passes (its norm is then inf, without a warning).  The step
    solves through the public
    :meth:`~smoothgd.smoothing.CirculantSmoother.solve`, whose input check
    tests the gradient the same way once more.

    Raises :class:`NumericError` if an iterate or gradient turns non-finite;
    the exception carries the partial trajectory when recording is on.
    """
    x = np.asarray(x0, dtype=float).copy()
    if x.ndim != 1 or x.shape[0] != objective.dim:
        raise ValueError(
            f"x0 must be a vector of length {objective.dim}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x0 has non-finite entries")
    # Squared norms come from np.vdot: the BLAS dot that ndarray.dot and
    # np.linalg.norm use, bit for bit, but without their check of the
    # floating-point flags, so a non-finite or overflowing vector costs no
    # warning.  x is always a fresh contiguous vector here.
    xx = np.vdot(x, x)
    trajectory = [x.copy()] if config.record_trajectory else None
    smoother = None
    sigma_prev = None
    k = 0
    while True:
        grad = np.asarray(objective.gradient(x), dtype=float)
        if grad.shape != x.shape:
            raise ValueError(f"gradient shape {grad.shape} does not match "
                             f"point shape {x.shape}")
        # exactly what np.linalg.norm computes for a 1-d float array (dot
        # in memory order, then sqrt), without its dispatch overhead
        flat = grad.ravel(order="K")
        gg = np.vdot(flat, flat)
        if not gg < math.inf and not np.isfinite(grad).all():
            raise NumericError("gradient has non-finite entries", x.copy(), k,
                               trajectory)
        gnorm = math.sqrt(gg)
        if gnorm <= config.eps_stationary:
            status = RunStatus.REACHED_STATIONARY
            break
        if k >= config.max_iters:
            status = RunStatus.MAX_ITERS
            break
        if (config.escape_radius < math.inf
                and math.sqrt(xx) > config.escape_radius):
            status = RunStatus.ESCAPED
            break
        sigma = float(schedule(k))
        if smoother is None or sigma != sigma_prev:
            smoother = CirculantSmoother(objective.dim, sigma)
            sigma_prev = sigma
        x = x - config.eta * smoother.solve(grad)
        k += 1
        xx = np.vdot(x, x)
        if not xx < math.inf and not np.isfinite(x).all():
            raise NumericError("iterate has non-finite entries", x, k,
                               trajectory)
        if trajectory is not None:
            trajectory.append(x.copy())
    return RunResult(
        final_point=x,
        iterations_used=k,
        status=status,
        final_grad_norm=gnorm,
        trajectory=np.array(trajectory) if trajectory is not None else None,
    )


def stationarity_iteration_bound(c_bound, lipschitz, f0, fstar, eps):
    """Worst-case iterations to eps-stationarity for a bounded schedule.

    Parameters
    ----------
    c_bound : schedule bound C with sigma(k) <= C
    lipschitz : gradient Lipschitz constant L of the objective
    f0, fstar : starting value and infimum of the objective
    eps : target stationarity level, > 0

    Returns the real-valued bound 2 (1+4C)^2 L (f0 - fstar) / ((1+8C) eps^2).
    Each check is written so that a NaN fails it, as RunConfig's are.  An
    infinite C fails too: the bound's factor (1+4C)^2 / (1+8C) would be
    inf / inf.
    """
    if not (math.isfinite(c_bound) and c_bound >= 0.0):
        raise ValueError(
            f"schedule bound must be finite and >= 0, got {c_bound}")
    if not lipschitz > 0.0:
        raise ValueError(f"lipschitz must be > 0, got {lipschitz}")
    if not eps > 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if not f0 >= fstar:
        raise ValueError(f"f0 must be >= fstar, got f0 = {f0}, "
                         f"fstar = {fstar}")
    gain = (1.0 + 8.0 * c_bound) / (2.0 * (1.0 + 4.0 * c_bound) ** 2)
    return (f0 - fstar) * lipschitz / (gain * eps * eps)
