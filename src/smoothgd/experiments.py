"""Distance-field experiments on polar grids of starting points.

A sweep runs the same 2-d descent from every point of a polar grid and
records how far each run ends from the origin (the saddle).  The iteration
on a quadratic is linear, and a sweep takes one of two routes, chosen by
the run configuration alone:

* **Step map.**  When no termination rule can fire before the budget
  (``eps_stationary == 0`` and ``escape_radius == inf``, the CLI default),
  every run ends at T x0 with T = prod_k (I - eta A(sigma_k)^-1 B).  The
  step kernel advances the two unit vectors to give T's columns, T is
  applied to all cells at once, and each cell's status comes from its
  final point.  If T is not finite, the sweep falls back to the step
  kernel for the whole grid.
* **Step kernel.**  Otherwise all grid cells advance together as flat
  arrays, one schedule step at a time; termination checks mirror
  :func:`smoothgd.optimizers.run` cell by cell, in the same order
  (stationarity, step budget, escape).  Only the cells still running are
  computed on, and a step on which no rule can fire skips the per-cell
  checks.

The kernel is the only code that takes a step, and it is the reference the
tests compare the step-map route with.
"""

import contextlib
import contextvars
import json
import math
import os
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .optimizers import (RunConfig, RunStatus, _is_count, run,
                         stationarity_iteration_bound)
from .smoothing import solve_smoothed_pair

__all__ = [
    "PolarGrid",
    "DistanceField",
    "FieldSummary",
    "TrialReport",
    "sweep",
    "two_scale_search",
    "rate_check",
    "emit_csv",
    "load_csv",
    "write_summary_json",
]

# Cell status codes used in DistanceField / CSV, one per RunStatus plus a
# sentinel for cells whose iteration produced non-finite values.
STATUS_STRINGS = (
    RunStatus.REACHED_STATIONARY.value,
    RunStatus.MAX_ITERS.value,
    RunStatus.ESCAPED.value,
    "failed",
)
_STATIONARY, _MAX_ITERS, _ESCAPED, _FAILED = range(4)
_ACTIVE = -1

# Largest grid a PolarGrid may describe.  It admits the CLI's default
# coarse grid (3.6M cells) and bounds a sweep's memory: each of its flat
# float64 arrays takes 80 MB at this size.
MAX_GRID_CELLS = 10 ** 7


@dataclass(frozen=True)
class PolarGrid:
    """A product grid of radii and angles (degrees).

    Radii run from r_min to r_max inclusive in steps of r_step; angles
    live on the half-open interval [theta_min_deg, theta_max_deg) in steps
    of theta_step_deg, so a full circle never duplicates its seam.  Cells
    are ordered radius-major: all angles at the first radius, then the
    next radius, and so on.
    """

    r_min: float
    r_max: float
    r_step: float
    theta_min_deg: float
    theta_max_deg: float
    theta_step_deg: float

    def __post_init__(self):
        if not (0.0 < self.r_min <= self.r_max) or not math.isfinite(self.r_max):
            raise ValueError(
                f"need 0 < r_min <= r_max, got [{self.r_min}, {self.r_max}]")
        if not (self.r_step > 0.0 and math.isfinite(self.r_step)):
            raise ValueError(f"r_step must be > 0, got {self.r_step}")
        if not (self.theta_step_deg > 0.0 and math.isfinite(self.theta_step_deg)):
            raise ValueError(
                f"theta_step_deg must be > 0, got {self.theta_step_deg}")
        span = self.theta_max_deg - self.theta_min_deg
        if not (0.0 < span <= 360.0):
            raise ValueError(
                f"need 0 < theta span <= 360 degrees, got {span}")
        if self.cells > MAX_GRID_CELLS:
            raise ValueError(
                f"grid has {self.cells:.3g} cells, more than the "
                f"{MAX_GRID_CELLS:.0e} allowed; use coarser steps")

    def _r_count(self):
        # ratios are clamped to the cap before rounding, so a tiny step
        # cannot overflow; any clamped grid exceeds the cap and is rejected
        ratio = (self.r_max - self.r_min) / self.r_step
        return int(math.floor(min(ratio, MAX_GRID_CELLS) + 1e-9)) + 1

    def _theta_count(self):
        span = self.theta_max_deg - self.theta_min_deg
        ratio = span / self.theta_step_deg
        return int(math.ceil(min(ratio, MAX_GRID_CELLS + 1) - 1e-9))

    def r_values(self):
        return self.r_min + self.r_step * np.arange(self._r_count())

    def theta_values(self):
        return (self.theta_min_deg
                + self.theta_step_deg * np.arange(self._theta_count()))

    @property
    def cells(self):
        return self._r_count() * self._theta_count()


@dataclass(frozen=True)
class DistanceField:
    """Per-cell results of a sweep, in radius-major grid order.

    ``status`` holds small integer codes indexing ``STATUS_STRINGS``;
    failed cells carry NaN distance.  ``metadata`` records what produced
    the field (objective, step size, iteration budget, schedule).
    """

    r: np.ndarray
    theta_deg: np.ndarray
    x0: np.ndarray
    final_distance: np.ndarray
    status: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.r)
        if not (len(self.theta_deg) == n and self.x0.shape == (n, 2)
                and len(self.final_distance) == n and len(self.status) == n):
            raise ValueError("field columns have inconsistent lengths")
        expected0 = self.r * np.cos(np.radians(self.theta_deg))
        expected1 = self.r * np.sin(np.radians(self.theta_deg))
        # written so that a NaN anywhere fails the check
        if n and not (np.max(np.abs(self.x0[:, 0] - expected0)) <= 1e-12
                      and np.max(np.abs(self.x0[:, 1] - expected1)) <= 1e-12):
            raise ValueError("x0 does not match its polar coordinates")
        if n and not (0 <= np.min(self.status)
                      and np.max(self.status) < len(STATUS_STRINGS)):
            raise ValueError(
                f"status codes must lie in 0..{len(STATUS_STRINGS) - 1}")
        bad = ~np.isfinite(self.final_distance) & (self.status != _FAILED)
        if np.any(bad):
            raise ValueError("non-finite distance on a non-failed cell")

    def __len__(self):
        return len(self.r)

    def status_strings(self):
        return np.array(STATUS_STRINGS)[self.status]

    def summary(self, threshold=None):
        """Reduce the field to its extremes, ignoring failed cells."""
        ok = self.status != _FAILED
        if not np.any(ok):
            raise ValueError("every cell failed; no summary available")
        dist = self.final_distance[ok]
        arg = int(np.argmin(dist))
        below = (int(np.sum(dist <= threshold))
                 if threshold is not None else None)
        return FieldSummary(
            min_distance=float(dist[arg]),
            argmin_r=float(self.r[ok][arg]),
            argmin_theta_deg=float(self.theta_deg[ok][arg]),
            max_distance=float(np.max(dist)),
            failed_cells=int(np.sum(~ok)),
            cells_below=below,
        )


@dataclass(frozen=True)
class FieldSummary:
    min_distance: float
    argmin_r: float
    argmin_theta_deg: float
    max_distance: float
    failed_cells: int
    cells_below: int | None = None


def _advance_cells(b00, b01, b11, x0c, x1c, config, schedule):
    """Advance cells through the full termination loop.

    Returns final coordinates and per-cell status codes.  Mirrors
    optimizers.run: at each k the order is stationarity check, budget
    check, escape check, then one smoothed step shared by every still
    active cell.  A sigma that run() would reject raises ValueError.

    Only live cells are computed on: ``live`` indexes them once a cell
    has stopped.  A step where every live q = |g|^2 is finite and above
    eps^2, and no live |x|^2 exceeds the escape radius squared, stops no
    cell (a finite q needs a finite g, and so a finite x), and it skips
    the per-cell masks.  Any other step runs them and drops the cells
    that stopped from the index.
    """
    x0 = x0c.copy()
    x1 = x1c.copy()
    status = np.full(len(x0), _ACTIVE, dtype=np.int8)
    if not len(status):
        return x0, x1, status
    eps2 = config.eps_stationary * config.eps_stationary
    radius = config.escape_radius
    radius2 = radius * radius if math.isfinite(radius) else math.inf
    escapes = radius2 < math.inf
    eta = config.eta
    live = None   # indices of the cells still running, None while all are
    y0, y1 = x0, x1   # their points
    for k in range(config.max_iters + 1):
        budget = k == config.max_iters
        g0 = b00 * y0 + b01 * y1
        g1 = b01 * y0 + b11 * y1
        q = g0 * g0
        q += g1 * g1
        if not (q.min() > eps2 and q.max() < math.inf and (
                budget or not escapes
                or (y0 * y0 + y1 * y1).max() <= radius2)):
            finite = (np.isfinite(g0) & np.isfinite(g1)
                      & np.isfinite(y0) & np.isfinite(y1))
            code = np.where(finite & (q <= eps2), np.int8(_STATIONARY),
                            np.int8(_MAX_ITERS if budget else _ACTIVE))
            code[~finite] = _FAILED
            if escapes:   # no cell is active at the budget
                code[(code == _ACTIVE) & (y0 * y0 + y1 * y1 > radius2)] = (
                    _ESCAPED)
            stop = code != _ACTIVE
            if stop.any():
                at = np.flatnonzero(stop) if live is None else live[stop]
                status[at] = code[stop]
                x0[at] = y0[stop]
                x1[at] = y1[stop]
                if stop.all():   # always so at the budget
                    return x0, x1, status
                keep = ~stop
                live = np.flatnonzero(keep) if live is None else live[keep]
                y0, y1, g0, g1 = y0[keep], y1[keep], g0[keep], g1[keep]
        elif budget:
            break
        sigma = float(schedule(k))
        if not (math.isfinite(sigma) and sigma >= 0.0):
            raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
        s0, s1 = solve_smoothed_pair(sigma, g0, g1)
        y0 = y0 - eta * s0
        y1 = y1 - eta * s1
    if live is None:
        status[:] = _MAX_ITERS
        return y0, y1, status
    status[live] = _MAX_ITERS
    x0[live] = y0
    x1[live] = y1
    return x0, x1, status


def sweep(objective, grid, config, schedule, threads=None):
    """Run smoothed descent from every grid cell of a 2-d quadratic.

    Parameters
    ----------
    objective : QuadraticObjective with dim == 2
    grid : PolarGrid
    config : RunConfig; trajectory recording must be off (a grid of
        trajectories would defeat the flat-memory design)
    schedule : sigma schedule, shared by all cells; a sigma that is not
        finite and >= 0 raises ValueError, as in :func:`run`
    threads : None or an integer >= 1; it has no effect.  Every sweep
        runs inline on the calling thread.  The argument is kept, and
        still validated, for callers that pass it.

    The config picks the route.  With ``eps_stationary == 0`` and
    ``escape_radius == inf`` no rule can end a run before the budget, so
    every cell ends at T x0, where T is the accumulated 2x2 step map; it is
    built by stepping the two unit vectors and applied to all cells at
    once.  A cell is ``failed`` if its final point or gradient is not
    finite, ``reached_stationary`` if its final gradient is zero, and
    ``max_iters`` otherwise.  If T itself is not finite, or any
    termination rule is enabled, every cell is stepped by the kernel.

    Returns a :class:`DistanceField` in radius-major grid order.
    """
    if objective.dim != 2:
        raise ValueError(f"sweeps are 2-d only, got dim {objective.dim}")
    if threads is not None and (not _is_count(threads) or threads < 1):
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    if config.record_trajectory:
        raise ValueError("trajectory recording is not supported in sweeps")
    r_vals = grid.r_values()
    t_vals = grid.theta_values()
    r = np.repeat(r_vals, len(t_vals))
    theta = np.tile(t_vals, len(r_vals))
    x0 = np.empty((len(r), 2))
    # cos and sin once per angle; the products are r cos(theta) cell by cell
    polar = x0.reshape(len(r_vals), len(t_vals), 2)
    radians = np.radians(t_vals)
    np.multiply(r_vals[:, None], np.cos(radians), out=polar[..., 0])
    np.multiply(r_vals[:, None], np.sin(radians), out=polar[..., 1])
    scale = objective.scale
    b = (scale * objective.matrix[0, 0], scale * objective.matrix[0, 1],
         scale * objective.matrix[1, 1])

    final = None
    if config.eps_stationary == 0.0 and config.escape_radius == math.inf:
        final = _map_cells(b, x0, config, schedule)
    if final is None:
        final = _advance_cells(*b, x0[:, 0], x0[:, 1], config, schedule)
    final0, final1, status = final

    distance = np.hypot(final0, final1)
    distance[status == _FAILED] = math.nan
    metadata = {
        "objective": objective.describe(),
        "eta": config.eta,
        "max_iters": config.max_iters,
        "eps_stationary": config.eps_stationary,
        "escape_radius": config.escape_radius,
        "schedule": _describe_schedule(schedule),
    }
    return DistanceField(r=r, theta_deg=theta, x0=x0,
                         final_distance=distance, status=status,
                         metadata=metadata)


def _map_cells(b, x0, config, schedule):
    """Final points and statuses from the accumulated step map T.

    Only valid when no termination rule can fire before the budget.  The
    kernel steps the unit vectors to T's columns; T x0 is then checked at
    the budget by the kernel itself, so statuses follow its order.
    Returns None if T is not finite.
    """
    t00, t01, t10, t11 = _step_map(b, config, schedule)
    if not all(map(math.isfinite, (t00, t01, t10, t11))):
        return None
    f0 = t00 * x0[:, 0] + t01 * x0[:, 1]
    f1 = t10 * x0[:, 0] + t11 * x0[:, 1]
    return _advance_cells(*b, f0, f1, replace(config, max_iters=0), schedule)


# Inside _sharing_step_maps, the step maps built so far, by (b, config,
# id(schedule)); None outside it.
_step_maps = contextvars.ContextVar("_step_maps", default=None)


@contextlib.contextmanager
def _sharing_step_maps():
    """Let the sweeps run inside share T: each one is stepped once."""
    token = _step_maps.set({})
    try:
        yield
    finally:
        _step_maps.reset(token)


def _step_map(b, config, schedule):
    """T's entries (t00, t01, t10, t11), from stepping the unit vectors."""
    shared = _step_maps.get()
    key = (b, config, id(schedule))
    if shared is not None and key in shared:
        return shared[key]
    (t00, t01), (t10, t11), _ = _advance_cells(
        *b, np.array([1.0, 0.0]), np.array([0.0, 1.0]), config, schedule)
    if shared is not None:
        shared[key] = (t00, t01, t10, t11)
    return t00, t01, t10, t11


def _describe_schedule(schedule):
    name = type(schedule).__name__
    bound = getattr(schedule, "bound", None)
    if bound is None:
        return name
    return f"{name}(bound={bound:g})"


def two_scale_search(objective, coarse_grid, config, schedule,
                     refine_halfwidth_deg=1.0, fine_step_deg=1e-5):
    """Coarse sweep, then a fine re-sweep around the coarse minimizer.

    The fine grid keeps the radius of the coarse argmin and re-samples
    theta on [argmin - halfwidth, argmin + halfwidth) at ``fine_step_deg``.
    Returns (coarse_field, fine_field, fine_summary).

    On a quadratic, negating the start negates every iterate, so the
    field is symmetric under theta -> theta + 180 deg.  Its dips come in
    antipodal pairs, and the returned argmin may lie in either one,
    whichever the coarse round-off favours.

    Both sweeps have the same objective, config and schedule, so on the
    step-map route T is built once and serves both.
    """
    with _sharing_step_maps():
        coarse = sweep(objective, coarse_grid, config, schedule)
        pivot = coarse.summary()
        fine_grid = PolarGrid(
            r_min=pivot.argmin_r, r_max=pivot.argmin_r,
            r_step=coarse_grid.r_step,
            theta_min_deg=pivot.argmin_theta_deg - refine_halfwidth_deg,
            theta_max_deg=pivot.argmin_theta_deg + refine_halfwidth_deg,
            theta_step_deg=fine_step_deg,
        )
        fine = sweep(objective, fine_grid, config, schedule)
    return coarse, fine, fine.summary()


@dataclass(frozen=True)
class TrialReport:
    """One random-start comparison of empirical iterations vs the bound."""

    empirical_iters: int
    bound: float
    ratio: float
    violated: bool


def rate_check(objective, trials, eps, schedule, seed=0):
    """Compare empirical iterations to eps-stationarity against the bound.

    The objective must be positive definite (its minimum value 0 at the
    origin is the reference f*).  Each trial starts from a random point in
    the unit ball, runs smoothed descent with eta = 1 / L until the
    gradient norm drops to eps, and reports empirical iterations next to
    the worst-case bound for the schedule's sigma bound C.  ``trials`` is
    an integer >= 0, as ``RunConfig.max_iters`` is.
    """
    if not _is_count(trials) or trials < 0:
        raise ValueError(f"trials must be an integer >= 0, got {trials!r}")
    eigvals, _ = linalg._eigh_descending(objective.matrix)
    if eigvals[-1] <= 0:
        raise ValueError("rate_check needs a positive definite matrix")
    lipschitz = objective.scale * float(eigvals[0])
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(trials):
        direction = rng.standard_normal(objective.dim)
        direction /= np.linalg.norm(direction)
        x0 = direction * rng.uniform(0.0, 1.0)
        f0 = objective.value(x0)
        bound = stationarity_iteration_bound(schedule.bound, lipschitz, f0,
                                             0.0, eps)
        config = RunConfig(eta=1.0 / lipschitz,
                           max_iters=int(math.ceil(bound)) + 1,
                           eps_stationary=eps)
        result = run(objective, x0, config, schedule)
        reached = result.status is RunStatus.REACHED_STATIONARY
        used = result.iterations_used
        reports.append(TrialReport(
            empirical_iters=used,
            bound=bound,
            ratio=used / bound if bound > 0 else 0.0,
            violated=not reached or used > bound,
        ))
    return reports


def atomic_write(path, text):
    """Write text to path via a sibling temp file and rename.

    ``text`` is a string or an iterable of strings written in order, so
    large outputs can be streamed.  The file appears complete or not at
    all: if writing fails, the temp file is removed.  It gets the mode a
    plain ``open`` would give, 0o666 less the umask.
    """
    if isinstance(text, str):
        text = (text,)
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)   # the umask can only be read by setting it
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


_CSV_HEADER = "r,theta_deg,x0_0,x0_1,final_distance,status"
_CSV_BLOCK_ROWS = 8192
_CSV_SLICE_ROWS = 1024   # rows whose NULs are dropped in one copy
_CSV_FLOATS = 5     # r, theta_deg, x0_0, x0_1, final_distance


def _words(strings):
    """ASCII strings NUL-padded to 8 bytes, one uint64 word each."""
    return np.array(strings, dtype="S8").view(np.uint64)


# A block's text is a uint8 array, one row per CSV row and one column per
# character slot; NUL slots are dropped when the block is written.  A float
# takes _FLOAT_WIDTH slots, six 8-byte words, each slot at a fixed place
# whatever the value:
#   0..5     the sign, then the "0.000" of a fixed-point value below 1, cut
#            to its length
#   6..39    17 (digit, slot) pairs; a slot holds the decimal point or NUL
#   40..43   "e-05" or "e-06", for the exponent form
#   47       NUL, for the separator after the value
# Values %g spells otherwise take slots 0..23 (the longest is
# '-2.2250738585072014e-308').  The status and a newline take three more
# words at the end of the row.
_FLOAT_WIDTH = 48
_STATUS_TEXT = np.array([f"{name}\n" for name in STATUS_STRINGS],
                        dtype="S24").view(np.uint64).reshape(-1, 3)
_CSV_ROW_WIDTH = _CSV_FLOATS * _FLOAT_WIDTH + 24


def _split(a):
    """Veltkamp's split of doubles into two 26-bit halves, a = hi + lo."""
    scaled = 134217729.0 * a   # 2^27 + 1
    hi = scaled - (scaled - a)
    return hi, a - hi


_POW10 = np.array([float(10 ** k) for k in range(23)])   # exact doubles
_POW10_HI, _POW10_LO = _split(_POW10)


def _quad_words():
    """Tables for the quads 0..9999: (pairs, last).

    ``pairs[q]`` spreads the four digits of q over a word's even slots;
    ``last[w - 1][q]`` is the index of the last nonzero digit of q as the
    w-th quad after D's leading digit, -1 if q is 0.  They take 120 KB,
    and each emit_csv call builds its own in about 0.4 ms: kept for the
    life of the module, at import or on first use, they raised the peak
    RSS of the benchmark, which imports the package afresh many times.
    """
    quad = np.arange(10000, dtype=np.int16)
    pairs = np.zeros((10000, 8), dtype=np.uint8)
    for j in range(4):
        pairs[:, 2 * j] = quad // 10 ** (3 - j) % 10 + ord("0")
    place = np.full(10000, 3, dtype=np.int8)   # within the quad
    for k in range(1, 4):
        place -= quad % 10 ** k == 0
    last = np.where(quad == 0, np.int8(-1), _QUAD_START[:, None] + place)
    return pairs.view(np.uint64)[:, 0], tuple(last)


def _point_words():
    """(keep, dot): ``keep[w - 1][j]`` masks word w to the digits up to
    index j, and ``dot[w][p + 1]`` puts the point after digit p (none at
    -1).  Digit i sits at slot 6 + 2i.
    """
    keep = np.zeros((4, 17, 8), dtype=np.uint8)
    keep[:, :, ::2] = 0xFF * (_QUAD_START[:, None, None] + np.arange(4)
                              <= np.arange(17)[:, None])
    dot = np.zeros((5, 17, 8), dtype=np.uint8)
    after = np.arange(16)
    dot[(7 + 2 * after) // 8, after + 1, (7 + 2 * after) % 8] = ord(".")
    return (tuple(keep.view(np.uint64)[..., 0]),
            tuple(dot.view(np.uint64)[..., 0]))


# Word tables are kept as 1-d arrays: indexing one takes numpy's fast path
_QUAD_START = np.arange(1, 17, 4, dtype=np.int8)   # index of each first digit
_KEEP, _DOT = _point_words()
_LEAD = _words(["\0" * 6 + str(d) for d in range(10)])   # D's first digit
_MINUS = _words(["-"])[0]
# the first and last words' text by exponent X + 6, for X in -6..16
_HEAD = _words(["", "", "\0" "0.000", "\0" "0.00", "\0" "0.0", "\0" "0."]
               + [""] * 17)
_SUFFIX = _words(["e-06", "e-05"] + [""] * 21)


def emit_csv(field, path):
    """Write a distance field as CSV with metadata header comments.

    Floats are rendered as ``'%.17g' % v``, so parsing the file back
    reproduces them bit for bit.  The text is built with array operations
    (:func:`_format_floats`), one 8192-row block at a time, so memory does
    not grow with the field; the bytes equal a row-by-row ``%.17g``
    writer's.  The write is atomic: the file appears complete or not at
    all.
    """
    atomic_write(path, _csv_blocks(field))


def _csv_blocks(field):
    yield "".join(f"# {key}: {field.metadata[key]}\n"
                  for key in sorted(field.metadata)) + _CSV_HEADER + "\n"
    columns = (field.r, field.theta_deg, field.x0[:, 0], field.x0[:, 1],
               field.final_distance)
    status_at = _CSV_FLOATS * _FLOAT_WIDTH
    block = np.empty((min(len(field), _CSV_BLOCK_ROWS), _CSV_ROW_WIDTH),
                     dtype=np.uint8)
    quad_words = _quad_words()
    for lo in range(0, len(field), _CSV_BLOCK_ROWS):
        rows = slice(lo, lo + _CSV_BLOCK_ROWS)
        status = field.status[rows]
        text = block[:len(status)]
        for j, column in enumerate(columns):
            at = j * _FLOAT_WIDTH
            format_column = _format_runs if j == 0 else _format_floats
            format_column(column[rows], text[:, at:at + _FLOAT_WIDTH],
                          quad_words)
            text[:, at + _FLOAT_WIDTH - 1] = ord(",")
        text[:, status_at:].view(np.uint64)[...] = _STATUS_TEXT[status]
        for i in range(0, len(text), _CSV_SLICE_ROWS):
            yield text[i:i + _CSV_SLICE_ROWS].tobytes().translate(
                None, b"\0").decode("ascii")


def _format_runs(values, out, quad_words):
    """:func:`_format_floats` for a column of runs of bit-equal values,
    such as the radii of a radius-major grid: each run is formatted once.
    """
    values = np.ascontiguousarray(values, dtype=float)
    bits = values.view(np.uint64)
    starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    starts = np.concatenate([[0], starts])
    text = np.empty((len(starts), _FLOAT_WIDTH), dtype=np.uint8)
    _format_floats(values[starts], text, quad_words)
    out.view(np.uint64)[...] = np.repeat(
        text.view(np.uint64), np.diff(starts, append=len(values)), axis=0)


def _format_floats(values, out, quad_words):
    """Write ``'%.17g' % v`` for each value into a row of a uint8 array.

    ``out`` is (len(values), _FLOAT_WIDTH) with contiguous rows (a view is
    fine), and ``quad_words`` is what :func:`_quad_words` returns.  Each value's ASCII text is spread over the slots of its row,
    NUL wherever the text leaves a slot empty: dropping the NULs leaves
    the text.  The last slot is always NUL.

    For 1e-6 <= |v| < 1e17 the 17 significant digits D and the decimal
    exponent X are exact: X is estimated from log10 and fixed from the
    unrounded product |v| 10^(16-X), which Dekker's two-product gives
    exactly (10^k is a double for k <= 22), and D is that product rounded
    half to even, as ``%g`` rounds.  Zeros, non-finite values and the
    other magnitudes go through ``%`` itself.
    """
    values = np.asarray(values, dtype=float)
    mag = np.abs(values)
    with np.errstate(invalid="ignore"):
        exact = (mag >= 1e-6) & (mag < 1e17)
    mag[~exact] = 1.0   # a placeholder that keeps the arithmetic finite
    exp = np.clip(np.floor(np.log10(mag)), -6, 16).astype(np.intp)
    prod, err = _scaled(mag, 16 - exp)
    shift = _decade_shift(prod, err)
    moved = np.flatnonzero(shift)
    if len(moved):   # log10 was one off, near a power of ten
        exp[moved] = np.clip(exp[moved] + shift[moved], -6, 16)
        prod[moved], err[moved] = _scaled(mag[moved], 16 - exp[moved])
        # a value whose exponent lies outside -6..16 (1e-6 itself is just
        # below 10^-6) is left to the fallback
        exact[moved] &= _decade_shift(prod[moved], err[moved]) == 0
    # prod is an even integer (it is >= 2^53), so rounding prod + err half
    # to even rounds err alone.  D never rounds up to 10^17: that needs a
    # double within half a 17th-digit unit below a power of ten, and the
    # powers that have one (1e-14, 1e98, ...) lie outside the range
    digits = prod.astype(np.int64) + np.rint(err).astype(np.int64)

    # D as the leading digit and four quads of four digits; indices stay
    # intp, as narrower ones are converted on every lookup
    high, low = _divmod(digits, 10 ** 8)
    high, quad2 = _divmod(high, 10000)
    lead, quad1 = _divmod(high, 10000)
    quad3, quad4 = _divmod(low, 10000)
    quads = (quad1, quad2, quad3, quad4)
    # %g strips trailing zeros after the point, and the point if nothing
    # follows it; `whole` digits stand before the point (none in
    # "0.000ddd", whose point is in the first word)
    whole = np.where(exp >= -4, exp + 1, 1)
    last = np.maximum(whole - 1, 0).astype(np.int8)   # the last digit kept
    pairs, quad_last = quad_words
    for w, quad in enumerate(quads):
        np.maximum(last, quad_last[w][quad], out=last)
    last = last.astype(np.intp)
    dot = np.where(last >= whole, np.maximum(whole, 0), 0)

    words = out.view(np.uint64)
    words[:, 0] = (_HEAD[exp + 6] | _LEAD[lead] | _DOT[0][dot]
                   | np.where(values < 0, _MINUS, np.uint64(0)))
    for w, quad in enumerate(quads, 1):
        words[:, w] = pairs[quad] & _KEEP[w - 1][last] | _DOT[w][dot]
    words[:, 5] = _SUFFIX[exp + 6]

    rest = np.flatnonzero(~exact)
    if len(rest):
        out[rest] = np.array(["%.17g" % v for v in values[rest].tolist()],
                             dtype=f"S{_FLOAT_WIDTH}").view(np.uint8).reshape(
                                 -1, _FLOAT_WIDTH)


def _divmod(a, b):
    """np.divmod(a, b) for integers a >= 0 and b > 0, in about a third of
    its time: numpy divides by a scalar fast, but not in divmod."""
    quotient = a // b
    return quotient, a - quotient * b


def _decade_shift(prod, err):
    """+1 where prod + err >= 1e17, -1 where it is < 1e16, else 0."""
    above = (prod > 1e17) | ((prod == 1e17) & (err >= 0))
    below = (prod < 1e16) | ((prod == 1e16) & (err < 0))
    return above.astype(np.int64) - below


def _scaled(a, k):
    """(p, e) with p = fl(a 10^k) and a 10^k = p + e exactly (Dekker)."""
    prod = a * _POW10[k]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    err = ((a_hi * b_hi - prod) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return prod, err


def load_csv(path):
    """Parse a file written by :func:`emit_csv` back into a DistanceField."""
    metadata = {}
    rows = []
    with open(path) as handle:
        header = None
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                metadata[key] = value
                continue
            if header is None:
                header = line
                if header != _CSV_HEADER:
                    raise ValueError(f"unrecognized CSV header: {header!r}")
                continue
            rows.append(line.split(","))
    if header is None:
        raise ValueError("file has no CSV header line")
    codes = {name: i for i, name in enumerate(STATUS_STRINGS)}
    n = len(rows)
    r = np.empty(n)
    theta = np.empty(n)
    x0 = np.empty((n, 2))
    dist = np.empty(n)
    status = np.empty(n, dtype=np.int8)
    for i, parts in enumerate(rows):
        if len(parts) != 6:
            raise ValueError(f"row {i} has {len(parts)} fields, expected 6")
        r[i] = float(parts[0])
        theta[i] = float(parts[1])
        x0[i, 0] = float(parts[2])
        x0[i, 1] = float(parts[3])
        dist[i] = float(parts[4])
        try:
            status[i] = codes[parts[5]]
        except KeyError:
            raise ValueError(f"row {i} has unknown status {parts[5]!r}") from None
    return DistanceField(r=r, theta_deg=theta, x0=x0, final_distance=dist,
                         status=status, metadata=metadata)


def write_summary_json(summary, path):
    """Write a field summary as a small JSON document, atomically."""
    payload = {
        "min_distance": summary.min_distance,
        "argmin_r": summary.argmin_r,
        "argmin_theta_deg": summary.argmin_theta_deg,
        "max_distance": summary.max_distance,
        "failed_cells": summary.failed_cells,
    }
    if summary.cells_below is not None:
        payload["cells_below"] = summary.cells_below
    atomic_write(path, json.dumps(payload, indent=2) + "\n")
