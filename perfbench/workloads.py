"""Seeded inputs and operations for the three benchmark workloads.

Every workload is a closed loop with one client: operations run one after
another in one process.  A workload is a list of rounds of operations built
from the seed; the rounds are cycled, whole, until the time budget is spent.
Every round has the same mix of operation kinds and sizes; the seed draws
the exact sizes inside narrow strata, the numbers (matrices, starts,
scales) and the order.  Fixed mixes keep each round's work per second
comparable from round to round and from seed to seed.

The program receives only generated inputs: argv lists and matrix files for
the CLI, arrays and schedule objects for ``optimizers.run`` and
``experiments.rate_check``.
"""

import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles

# CLI defaults the field_sweep workload relies on (termination and the
# radial grid are left at their defaults on purpose).
CLI_ETA = 0.1
CLI_ITERS = 100
CLI_RADII = 10                 # --r-min 0.1 .. --r-max 1.0 by --r-step 0.1
COARSE_STEP_DEG = 0.1
FINE_STEP_DEG = 1e-5
CLI_HALFWIDTH_DEG = 1.0        # the CLI default: 200k fine cells, ~22 MB CSV
MEDIUM_HALFWIDTH_DEG = 0.15    # 30k fine cells, ~3.3 MB CSV
NARROW_HALFWIDTH_DEG = 0.06    # covers the coarse step either side of a dip

SIGMA_LIST = (0.01, 0.1, 1.0, 10.0, 100.0)   # the criterion-2 grid sigmas

PLATEAU_K0 = 8
ESCAPE_RADIUS = 1e3
EPS_STATIONARY = 1e-6
RATE_TRIALS = 3
RATE_EPS = 1e-6

# (n, schedule, step budget) of the wide runs; budgets give ~50 ms each.
WIDE_RUNS = ((512, "ratio", 40), (512, "constant", 80),
             (4096, "ratio", 4), (4096, "constant", 10))


@dataclass
class Op:
    name: str
    call: Callable[[], Any]              # the timed call into the package
    check: Callable[[Any], Any]          # oracle: None or a reason string
    work: Callable[[Any], float]         # units of work done, from result
    inputs: tuple                        # what the program receives


def _cli(pkg, argv):
    return lambda: pkg["cli"].main(argv)


def _write_matrix(path, m):
    with open(path, "w") as fh:
        fh.write(f"{m.shape[0]}\n")
        for row in m:
            fh.write(" ".join("%.17g" % v for v in row) + "\n")


def _file_text(path):
    with open(path) as fh:
        return fh.read()


def _canonical_matrix(n):
    return np.diag(np.r_[np.ones(n - 1), -1.0])


def _draw(rng, lo, hi):
    return int(rng.integers(lo, hi + 1))


# -- field_sweep ------------------------------------------------------------

EXAMPLES = {
    "1": 2.0 * np.diag([1.0, -1.0]),
    "2": np.array([[2.0, 6.0], [6.0, 4.0]]),
}


def grid_cells(halfwidth):
    coarse = CLI_RADII * math.ceil(360.0 / COARSE_STEP_DEG - 1e-9)
    fine = math.ceil(2.0 * halfwidth / FINE_STEP_DEG - 1e-9)
    return coarse, fine


def _saddle_2x2(rng):
    """A rotated 2x2 saddle with eigenvalues in [0.5, 4] and [-4, -0.5]."""
    phi = rng.uniform(0.0, math.pi)
    rot = np.array([[math.cos(phi), -math.sin(phi)],
                    [math.sin(phi), math.cos(phi)]])
    vals = [rng.uniform(0.5, 4.0), -rng.uniform(0.5, 4.0)]
    m = rot @ np.diag(vals) @ rot.T
    return 0.5 * (m + m.T)


def sweep_op(pkg, workdir, tag, example, optimizer, halfwidth, rng):
    """One sweep call; the CLI-default halfwidth is left off its argv."""
    out = os.path.join(workdir, "fine.csv")
    summary = os.path.join(workdir, "summary.json")
    argv = ["sweep", "--example", example, "--optimizer", optimizer,
            "--coarse-theta-step", repr(COARSE_STEP_DEG),
            "--fine-theta-step", repr(FINE_STEP_DEG),
            "--out", out, "--summary", summary]
    if halfwidth != CLI_HALFWIDTH_DEG:
        argv += ["--halfwidth", repr(halfwidth)]
    if example == "custom":
        matrix = _saddle_2x2(rng)
        scale = float(rng.uniform(0.5, 2.0))
        path = os.path.join(workdir, f"saddle2-{tag}.txt")
        _write_matrix(path, matrix)
        argv += ["--objective", path, "--c", repr(scale)]
        b = scale * np.loadtxt(path, skiprows=1)
    else:
        b = EXAMPLES[example]
    sigmas = ([oracles.ratio_sigma(k) for k in range(CLI_ITERS)]
              if optimizer == "mlsgd" else [0.0] * CLI_ITERS)
    coarse, fine = grid_cells(halfwidth)

    def check(rc):
        if rc != 0:
            return f"exit code {rc}"
        return oracles.check_field(b, sigmas, CLI_ETA, fine, FINE_STEP_DEG,
                                   out, summary)

    inputs = (tuple(argv),
              _file_text(path) if example == "custom" else None)
    return Op(f"sweep ex{example} {optimizer} hw={halfwidth:g}",
              _cli(pkg, argv), check,
              lambda rc: (coarse + fine) * CLI_ITERS, inputs)


def field_sweep_rounds(pkg, rng, workdir):
    """Rounds of 25 sweeps: 21 mlsgd (ex1, ex2, custom), 4 gd.

    One call per round, ex1 mlsgd, keeps the CLI-default 1 degree halfwidth:
    its 200k-cell fine grid and 22 MB CSV set the peak memory and about a
    quarter of a round's time.  Narrower fine windows on the other 24 let a
    40 s run make the 100 operations the 90th percentile needs: 4 identical
    ex1 calls at 0.15 degrees (16% of calls) hold that percentile, 20 at
    0.06 degrees (12k cells, 1.3 MB) hold the median.
    """
    narrow = NARROW_HALFWIDTH_DEG
    rounds = []
    for r in range(4):
        kinds = ([("1", "mlsgd", CLI_HALFWIDTH_DEG)]
                 + [("1", "mlsgd", MEDIUM_HALFWIDTH_DEG)] * 4
                 + [("1", "mlsgd", narrow)]
                 + [("2", "mlsgd", narrow)] * 2
                 + [("custom", "mlsgd", narrow)] * 13
                 + [("custom", "gd", narrow)] * 2
                 + [(str(_draw(rng, 1, 2)), "gd", narrow) for _ in range(2)])
        order = rng.permutation(len(kinds))
        rounds.append([sweep_op(pkg, workdir, f"{r}-{i}", *kinds[i], rng)
                       for i in order])
    warm = sweep_op(pkg, workdir, "warm", "1", "mlsgd", narrow, rng)
    return warm, rounds


# -- saddle_analysis ----------------------------------------------------------

# One round: (kind, smallest n, largest n) per operation; the seed draws n.
# Blocks of similar cost, cheapest first, about 5 s a round: 16 small
# operations (10-25 ms); 18 identical canonical n = 8 calls (~40 ms) that
# hold the median; 8 mid-sized (50-150 ms); 7 identical canonical n = 22
# calls (~250 ms) that hold the 90th percentile; and 2 above it, the
# largest a canonical n = 40 call at about a sixth of the round.  No single
# call carries the round, and the two percentiles sit in the middle of
# blocks of identical inputs, so neither depends on what the seed draws.
SADDLE_ROUND = (
    [("canonical", n, n + 1) for n in (2, 2, 3, 4, 5, 5)]
    + [("random", n, n + 1) for n in (3, 3, 4, 5, 5)]
    + [("repeated", n, n + 1) for n in (5, 5, 6, 6, 7)]
    + [("canonical", 8, 8)] * 18
    + [("canonical", n, n + 1) for n in (10, 12, 14)]
    + [("random", 10, 11), ("random", 12, 13)]
    + [("repeated", 10, 11), ("repeated", 13, 14), ("repeated", 16, 17)]
    + [("canonical", 22, 22)] * 7
    + [("random", 26, 26), ("canonical", 40, 40)]
)


def _random_spectrum(rng, count, avoid=None):
    """count distinct eigenvalues in +-[0.5, 3], at least one negative."""
    while True:
        vals = rng.uniform(0.5, 3.0, count) * rng.choice([-1.0, 1.0], count)
        vals[0] = -abs(vals[0])
        ok = np.min(np.diff(np.sort(vals)), initial=1.0) > 1e-3
        if avoid is not None:
            ok = ok and np.min(np.abs(vals - avoid)) > 0.05
        if ok:
            return vals


def _orthonormal(rng, n, k, against=None):
    g = rng.standard_normal((n, k))
    if against is not None:
        g -= against.T @ (against @ g)
    q, _ = np.linalg.qr(g)
    return q


def random_saddle(rng, n):
    """Q diag(mu) Q^T with a random orthogonal Q and a simple spectrum."""
    q = _orthonormal(rng, n, n)
    m = q @ np.diag(_random_spectrum(rng, n)) @ q.T
    return 0.5 * (m + m.T), np.empty((0, n))


def repeated_saddle(rng, n):
    """A matrix whose repeated positive eigenvalue owns a ring eigenspace.

    The 2-d Laplacian eigenspace at frequency m gets eigenvalue lam twice;
    its orthogonal complement gets random simple eigenvalues.  The
    attraction subspace is then exactly that 2-d space.
    """
    m = _draw(rng, 1, (n - 1) // 2)
    idx = np.arange(n)
    ring = np.array([np.cos(2 * np.pi * m * idx / n),
                     np.sin(2 * np.pi * m * idx / n)]) / math.sqrt(n / 2.0)
    lam = float(rng.uniform(1.0, 3.0))
    rest = _orthonormal(rng, n, n - 2, against=ring)
    mat = (lam * ring.T @ ring
           + rest @ np.diag(_random_spectrum(rng, n - 2, avoid=lam)) @ rest.T)
    return 0.5 * (mat + mat.T), ring


def analyze_op(pkg, workdir, tag, kind, n, rng):
    report = os.path.join(workdir, "report.json")
    sigmas = ",".join(repr(s) for s in SIGMA_LIST)
    if kind == "canonical":
        b = _canonical_matrix(n)
        w_space = None
        argv = ["analyze", "--objective", "canonical", "--n", str(n)]
    else:
        b, w_space = (random_saddle if kind == "random"
                      else repeated_saddle)(rng, n)
        path = os.path.join(workdir, f"sym-{tag}.txt")
        _write_matrix(path, b)
        b = np.loadtxt(path, skiprows=1, ndmin=2)
        argv = ["analyze", "--objective", path]
    argv += ["--sigma-list", sigmas, "--report", report]

    def check(rc):
        if rc != 0:
            return f"exit code {rc}"
        try:
            with open(report) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            return f"unreadable report: {exc}"
        return oracles.check_report(doc, b, SIGMA_LIST, kind == "canonical",
                                    w_space)

    inputs = (tuple(argv), b.tobytes())
    return Op(f"analyze {kind} n={n}", _cli(pkg, argv), check,
              lambda rc: len(SIGMA_LIST), inputs)


def saddle_analysis_rounds(pkg, rng, workdir):
    """One round of the SADDLE_ROUND slots, in seeded order.

    A single round keeps set-up light: every round writes its matrix files,
    and on a shared disk those writes are the noisiest part of set-up time.
    """
    order = rng.permutation(len(SADDLE_ROUND))
    ops = [analyze_op(pkg, workdir, str(i), SADDLE_ROUND[i][0],
                      _draw(rng, *SADDLE_ROUND[i][1:]), rng)
           for i in order]
    warm = analyze_op(pkg, workdir, "warm", "canonical", 16, rng)
    return warm, [ops]


# -- descent ------------------------------------------------------------------

def antisymmetric_start(rng, n):
    """A unit start in the span of e_k - e_{n-2-k}, k < (n-1)/2."""
    x0 = np.zeros(n)
    for k in range((n - 1) // 2):
        c = rng.standard_normal()
        x0[k] += c
        x0[n - 2 - k] -= c
    return x0 / np.linalg.norm(x0)


def escape_op(pkg, rng, n, attraction):
    opt = pkg["optimizers"]
    b = _canonical_matrix(n)
    x0 = antisymmetric_start(rng, n) if attraction else rng.standard_normal(n)
    objective = pkg["saddle"].canonical_objective(n)
    config = opt.RunConfig(eta=0.1, max_iters=10 ** 4,
                           eps_stationary=EPS_STATIONARY,
                           escape_radius=ESCAPE_RADIUS)
    schedule = opt.PlateauSigma(PLATEAU_K0)

    def call():
        return pkg["optimizers"].run(objective, x0, config, schedule)

    if attraction:
        def check(result):
            return oracles.check_attraction(b, x0, PLATEAU_K0, 0.1,
                                            EPS_STATIONARY, result)
    else:
        def check(result):
            return oracles.check_escape(b, x0, PLATEAU_K0, 0.1,
                                        ESCAPE_RADIUS, result)
    kind = "attraction" if attraction else "escape"
    return Op(f"run {kind} n={n}", call, check,
              lambda result: result.iterations_used, (kind, x0.tobytes()))


def rate_op(pkg, rng, n, ratio):
    opt = pkg["optimizers"]
    q = _orthonormal(rng, n, n)
    m = q @ np.diag(rng.uniform(1.0, 3.0, n)) @ q.T
    m = 0.5 * (m + m.T)
    objective = pkg["saddle"].QuadraticObjective(m)
    schedule = opt.RatioSigma() if ratio else opt.ConstantSigma(1.0)
    seed = int(rng.integers(2 ** 31))

    def call():
        return pkg["experiments"].rate_check(objective, RATE_TRIALS,
                                             RATE_EPS, schedule, seed=seed)

    return Op(f"rate_check {'ratio' if ratio else 'constant'} n={n}", call,
              lambda reports: oracles.check_rate(reports, m, seed,
                                                 RATE_TRIALS, RATE_EPS, ratio),
              lambda reports: sum(r.empirical_iters for r in reports),
              (m.tobytes(), ratio, seed))


def wide_op(pkg, rng, n, schedule_name, budget):
    opt = pkg["optimizers"]
    d = rng.uniform(0.5, 2.0, n)
    negative = rng.random(n) < 0.05
    d[negative] = -rng.uniform(0.2, 1.0, int(negative.sum()))
    x0 = rng.standard_normal(n)
    objective = opt.GradientFunction(n, lambda x: d * x)
    config = opt.RunConfig(eta=0.1, max_iters=budget)
    if schedule_name == "ratio":
        schedule = opt.RatioSigma()
        sigmas = [oracles.ratio_sigma(k) for k in range(budget)]
    else:
        sigma0 = float(rng.uniform(0.5, 2.0))
        schedule = opt.ConstantSigma(sigma0)
        sigmas = [sigma0] * budget

    def call():
        return pkg["optimizers"].run(objective, x0, config, schedule)

    return Op(f"run wide {schedule_name} n={n}", call,
              lambda result: oracles.check_wide(d, x0, sigmas, 0.1, result),
              lambda result: result.iterations_used,
              (d.tobytes(), x0.tobytes(), tuple(sigmas)))


def descent_rounds(pkg, rng, workdir):
    """Rounds of 19 small-n and 4 wide operations, in seeded order.

    Small n, 2..16: 14 escape runs, one n in each stratum {2, 3} ..
    {15, 16}; 3 attraction runs at n in {3, 4}, {5, 6}, {7, 8}, the sizes
    criterion 5 states its escape dichotomy for; a constant-sigma
    rate_check at n in 5..7 and a ratio-sigma one at n in 11..13.  Wide n:
    one run of each WIDE_RUNS entry.  Escape runs take about 3-12 ms, the
    other small operations 10-40 ms and the wide ones 45-65 ms.  The median latency falls high in the block of
    escape runs and the 90th percentile in the middle of the wide runs, so
    a solve-route change that helps one size class and hurts the other
    moves one of the two percentiles.  A round takes about 0.45 s, about
    half of it small n.
    """
    rounds = []
    for _ in range(10):
        ops = ([escape_op(pkg, rng, _draw(rng, n, n + 1), False)
                for n in range(2, 16)]
               + [escape_op(pkg, rng, _draw(rng, n, n + 1), True)
                  for n in (3, 5, 7)]
               + [rate_op(pkg, rng, _draw(rng, 5, 7), False),
                  rate_op(pkg, rng, _draw(rng, 11, 13), True)]
               + [wide_op(pkg, rng, *spec) for spec in WIDE_RUNS])
        rounds.append([ops[i] for i in rng.permutation(len(ops))])
    warm = wide_op(pkg, rng, *WIDE_RUNS[0])
    return warm, rounds


WORKLOADS = {
    "field_sweep": (field_sweep_rounds, "grid cell-steps",
                    "cell_steps_per_s"),
    "saddle_analysis": (saddle_analysis_rounds, "(objective, sigma) "
                        "eigenstructures", "structures_per_s"),
    "descent": (descent_rounds, "run() steps", "steps_per_s"),
}
