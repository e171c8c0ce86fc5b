"""Command-line front end: solves, descent runs, saddle reports, field sweeps.

Exit codes: 0 success, 1 usage, 2 numeric or domain failure, 3 I/O failure.
Every file the CLI writes goes through a temp-and-rename so a failure never
leaves a partial artifact behind.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .smoothing import CirculantSmoother
from .linalg import dense_solve, sym_eigendecompose
from .optimizers import (
    ConstantSigma,
    PlateauSigma,
    RatioSigma,
    RunConfig,
    run,
)
from .saddle import (
    ModeClass,
    QuadraticObjective,
    _sharing_decompositions,
    canonical_attraction_basis,
    canonical_objective,
    eigen_structure,
    general_attraction_basis,
    kernel_direction_fixed,
    principal_angle,
)
from .experiments import (
    PolarGrid,
    _fine_window,
    _two_scale,
    atomic_write,
    emit_csv,
    write_summary_json,
)

__all__ = ["main", "UsageError"]

# Largest canonical --n that analyze accepts.  Each sigma decomposes dense
# n x n matrices in O(n^3) time; this size still finishes in seconds.
MAX_ANALYZE_N = 1000


class UsageError(Exception):
    """Bad flags or malformed input files; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the interface contract reserves 2 for
    # numeric failures, so route parse errors through UsageError instead.
    def error(self, message):
        raise UsageError(message)


def _from_flags(build, *args, **kwargs):
    """Build a library object from flag values; a rejection is a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _fmt(x):
    return f"{x:.17g}"


def _read_vector(path):
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text:
                continue
            try:
                value = float(text)
            except ValueError:
                raise UsageError(
                    f"{path}:{lineno}: not a number: {text!r}") from None
            if not math.isfinite(value):
                raise UsageError(
                    f"{path}:{lineno}: non-finite value: {text!r}")
            values.append(value)
    if not values:
        raise UsageError(f"{path}: empty vector file")
    return np.array(values)


def _read_matrix(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise UsageError(f"{path}: empty matrix file")
    try:
        n = int(lines[0])
    except ValueError:
        raise UsageError(
            f"{path}:1: first line must be the dimension, got {lines[0]!r}"
        ) from None
    if n < 1 or len(lines) != n + 1:
        raise UsageError(
            f"{path}: expected {n} rows after the dimension line, "
            f"got {len(lines) - 1}")
    rows = []
    for i, ln in enumerate(lines[1:], 2):
        parts = ln.split()
        if len(parts) != n:
            raise UsageError(
                f"{path}:{i}: expected {n} entries, got {len(parts)}")
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise UsageError(f"{path}:{i}: non-numeric entry") from None
        if not all(math.isfinite(v) for v in row):
            raise UsageError(f"{path}:{i}: non-finite entry")
        rows.append(row)
    return np.array(rows)


def _make_schedule(text):
    """Parse gd | constant:S | ratio | plateau:K into a schedule object."""
    if text == "gd":
        return ConstantSigma(0.0)
    if text == "ratio":
        return RatioSigma()
    if text.startswith("constant:"):
        try:
            return ConstantSigma(float(text.partition(":")[2]))
        except ValueError as exc:
            raise UsageError(f"--schedule {text}: {exc}") from None
    if text.startswith("plateau:"):
        try:
            k0 = int(text.partition(":")[2])
        except ValueError:
            raise UsageError(
                f"--schedule {text}: plateau needs an integer k0") from None
        try:
            return PlateauSigma(k0)
        except ValueError as exc:
            raise UsageError(f"--schedule {text}: {exc}") from None
    raise UsageError(
        f"--schedule {text}: expected gd, constant:S, ratio, or plateau:K")


def _objective_from(spec, n, scale):
    if spec == "canonical":
        if n is None:
            raise UsageError("--objective canonical requires --n")
        return _from_flags(canonical_objective, n, scale=scale)
    return _from_flags(QuadraticObjective, _read_matrix(spec), scale=scale)


def _cmd_smooth(args):
    y = _read_vector(args.input)
    n = args.n if args.n is not None else len(y)
    if len(y) != n:
        raise UsageError(
            f"--input holds {len(y)} values but --n is {n}")
    op = _from_flags(CirculantSmoother, n, args.sigma)
    if args.method == "dft":
        x = op.solve_dft(y)
    elif args.method == "thomas":
        x = op.solve_thomas(y)
    else:
        x = dense_solve(op.dense(), y)
    sys.stdout.write("\n".join(_fmt(v) for v in x) + "\n")
    return 0


def _cmd_optimize(args):
    x0 = _read_vector(args.x0)
    # check --n against --x0 before building the objective
    if args.objective == "canonical" and args.n not in (None, len(x0)):
        raise UsageError(f"--x0 holds {len(x0)} values but --n is {args.n}")
    objective = _objective_from(args.objective, args.n, args.c)
    if len(x0) != objective.dim:
        raise UsageError(
            f"--x0 holds {len(x0)} values but the objective has "
            f"dimension {objective.dim}")
    schedule = _make_schedule(args.schedule)
    config = _from_flags(
        RunConfig,
        eta=args.eta,
        max_iters=args.iters,
        eps_stationary=args.eps,
        escape_radius=args.escape_radius,
        record_trajectory=args.trajectory is not None,
    )
    result = run(objective, x0, config, schedule)
    if args.trajectory is not None:
        lines = ["k," + ",".join(f"x_{i}" for i in range(objective.dim))
                 + ",grad_norm"]
        for k, point in enumerate(result.trajectory):
            gnorm = float(np.linalg.norm(objective.gradient(point)))
            lines.append(
                f"{k}," + ",".join(_fmt(v) for v in point)
                + f",{_fmt(gnorm)}")
        atomic_write(args.trajectory, "\n".join(lines) + "\n")
    payload = {
        "final_point": [float(v) for v in result.final_point],
        "final_distance": float(np.linalg.norm(result.final_point)),
        "iterations_used": result.iterations_used,
        "status": result.status.value,
        "final_grad_norm": result.final_grad_norm,
    }
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _parse_sigma_list(text):
    try:
        values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise UsageError(f"--sigma-list {text!r}: not a comma list "
                         "of numbers") from None
    if not values:
        raise UsageError("--sigma-list is empty")
    if any(not math.isfinite(v) or v < 0 for v in values):
        raise UsageError("--sigma-list entries must be finite and >= 0")
    return values


def _cmd_analyze(args):
    if args.objective == "canonical" and (args.n or 0) > MAX_ANALYZE_N:
        raise UsageError(
            f"--n {args.n} is above the {MAX_ANALYZE_N} that analyze allows")
    objective = _objective_from(args.objective, args.n, args.c)
    sigmas = _parse_sigma_list(args.sigma_list)
    b = objective.matrix
    bnorm = float(np.linalg.norm(b))
    pairs = sym_eigendecompose(b)
    kernel = [p for p in pairs if abs(p.value) <= 1e-10 * max(bnorm, 1.0)]

    report = {
        "objective": objective.describe(),
        "n": objective.dim,
        "degenerate": bool(kernel),
    }
    # the canonical attraction basis each sigma's antisymmetric span is
    # compared with; a canonical objective is never degenerate
    canonical = None
    if objective.is_canonical:
        canonical = canonical_attraction_basis(objective.dim).antisymmetric
    # one entry and principal angle per sigma as its structure arrives, so
    # no sigma's n x n eigenvectors outlive its turn
    report["per_sigma"] = []
    worst = 0.0
    with _sharing_decompositions(objective, sigmas):
        for s in sigmas:
            es = eigen_structure(objective, s)
            report["per_sigma"].append(
                {"sigma": s, "eigenvalues": es.values.tolist(),
                 "labels": (None if None in es.labels
                            else [l.value for l in es.labels])})
            if canonical is not None and s > 0:
                anti = es.span(ModeClass.ANTISYMMETRIC_SINE)
                worst = max(worst, principal_angle(anti, canonical))
            del es

    if kernel:
        # a flat direction: descent started on it never moves
        p = kernel[0].vector
        report["kernel_direction"] = [float(v) for v in p]
        report["kernel_direction_fixed"] = kernel_direction_fixed(
            objective, p, RatioSigma(), steps=100)
        report["dim_W"] = None
        report["w_basis"] = None
        report["sigma_independent"] = None
    else:
        if canonical is not None:
            basis = canonical
            report["sigma_independent"] = worst <= 1e-7
            report["max_principal_angle"] = worst
        else:
            basis = general_attraction_basis(objective)
            report["sigma_independent"] = None
        report["dim_W"] = int(basis.rows.shape[0])
        report["w_basis"] = [[float(v) for v in row] for row in basis.rows]

    text = json.dumps(report, indent=2) + "\n"
    if args.report is not None:
        atomic_write(args.report, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_sweep(args):
    if args.example == "1":
        objective = canonical_objective(2, scale=2.0)
    elif args.example == "2":
        objective = QuadraticObjective(
            np.array([[2.0, 6.0], [6.0, 4.0]]))
    else:
        if args.objective is None:
            raise UsageError("--example custom requires --objective")
        objective = _from_flags(QuadraticObjective,
                                _read_matrix(args.objective), scale=args.c)
        if objective.dim != 2:
            raise UsageError("sweeps need a 2-dimensional objective")
    schedule = (ConstantSigma(0.0) if args.optimizer == "gd"
                else RatioSigma())
    grid = _from_flags(
        PolarGrid,
        r_min=args.r_min, r_max=args.r_max, r_step=args.r_step,
        theta_min_deg=-180.0, theta_max_deg=180.0,
        theta_step_deg=args.coarse_theta_step)
    # the fine window is built around the coarse argmin later; check its
    # flags now, centred on 0, so they fail as usage errors too
    _from_flags(_fine_window, args.r_min, 0.0, args.r_step, args.halfwidth,
                args.fine_theta_step)
    config = _from_flags(RunConfig, eta=args.eta, max_iters=args.iters)
    # the coarse field is built only to be written; otherwise the coarse
    # grid is reduced to its argmin block by block
    coarse, fine, summary = _two_scale(
        objective, grid, config, schedule, args.halfwidth,
        args.fine_theta_step, keep_coarse=args.coarse_out is not None)
    if args.coarse_out is not None:
        emit_csv(coarse, args.coarse_out)
    if args.out is not None:
        emit_csv(fine, args.out)
    if args.summary is not None:
        write_summary_json(summary, args.summary)
    sys.stdout.write(
        f"min_distance {_fmt(summary.min_distance)} at "
        f"r {_fmt(summary.argmin_r)} theta_deg "
        f"{_fmt(summary.argmin_theta_deg)}\n")
    return 0


@functools.lru_cache(maxsize=1)
def _build_parser():
    # built once per process: parse_args leaves the parser as it was
    parser = _Parser(
        prog="smoothgd",
        description="Smoothed gradient descent: solves, runs, saddle "
                    "reports, and distance-field sweeps.")
    parser.add_argument("--version", action="version",
                        version=f"smoothgd {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("smooth",
                       help="apply the inverse smoothing operator to a "
                            "vector")
    p.add_argument("--n", type=int, default=None,
                   help="ring size (default: the input length)")
    p.add_argument("--sigma", type=float, required=True,
                   help="smoothing strength, >= 0")
    p.add_argument("--input", required=True,
                   help="vector file, one number per line")
    p.add_argument("--method", choices=("dft", "thomas", "dense"),
                   default="thomas", help="solver route")
    p.set_defaults(func=_cmd_smooth)

    # the objective flags optimize and analyze share
    objective = _Parser(add_help=False)
    objective.add_argument("--objective", default="canonical",
                           help="'canonical' or a matrix file")
    objective.add_argument("--n", type=int, default=None,
                           help="dimension for the canonical objective")
    objective.add_argument("--c", type=float, default=1.0,
                           help="scale multiplying the quadratic")

    p = sub.add_parser("optimize", parents=[objective],
                       help="run plain or smoothed descent")
    p.add_argument("--x0", required=True,
                   help="starting point, one number per line")
    p.add_argument("--eta", type=float, default=0.1, help="step size")
    p.add_argument("--iters", type=int, default=100, help="step budget")
    p.add_argument("--eps", type=float, default=0.0,
                   help="stationarity tolerance on the gradient norm")
    p.add_argument("--escape-radius", type=float, default=math.inf,
                   help="stop once the iterate norm exceeds this")
    p.add_argument("--schedule", default="ratio",
                   help="gd | constant:S | ratio | plateau:K")
    p.add_argument("--trajectory", default=None,
                   help="write every iterate to this CSV")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("analyze", parents=[objective],
                       help="eigenstructure and attraction-region report")
    p.add_argument("--sigma-list", default="0.1,1,5,50",
                   help="comma-separated smoothing strengths")
    p.add_argument("--report", default=None,
                   help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sweep",
                       help="two-scale polar distance-field search")
    p.add_argument("--example", choices=("1", "2", "custom"), default="1",
                   help="built-in objective preset or custom")
    p.add_argument("--objective", default=None,
                   help="matrix file for --example custom")
    p.add_argument("--c", type=float, default=1.0,
                   help="scale for a custom objective")
    p.add_argument("--optimizer", choices=("gd", "mlsgd"),
                   default="mlsgd", help="descent variant")
    p.add_argument("--r-min", type=float, default=0.1)
    p.add_argument("--r-max", type=float, default=1.0)
    p.add_argument("--r-step", type=float, default=0.1)
    p.add_argument("--coarse-theta-step", type=float, default=1e-3,
                   help="coarse angular spacing, degrees")
    p.add_argument("--fine-theta-step", type=float, default=1e-5,
                   help="fine angular spacing, degrees")
    p.add_argument("--halfwidth", type=float, default=1.0,
                   help="fine-window halfwidth around the coarse argmin, "
                        "degrees")
    p.add_argument("--eta", type=float, default=0.1, help="step size")
    p.add_argument("--iters", type=int, default=100, help="step budget")
    p.add_argument("--out", default=None, help="fine-field CSV path")
    p.add_argument("--coarse-out", default=None,
                   help="coarse-field CSV path")
    p.add_argument("--summary", default=None, help="summary JSON path")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"smoothgd: usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"smoothgd: i/o error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"smoothgd: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
