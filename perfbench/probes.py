"""Layer probes: direct timings of single layers at fixed sizes.

They run in the traced run only, with every module unpatched, and are
reported as per-layer metrics.  Each figure is the median of a few batches;
a batch repeats the call enough times to last about 10 ms.
"""

import os
import statistics
import time

SOLVE_SIZES = (8, 64, 512, 4096)
DENSE_SIZES = (8, 64, 512)
EIG_SIZES = (16, 32, 64)
SWEEP_THETA_STEP_DEG = 0.02   # 10 radii x 18000 angles = 180k cells


def available_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def thread_cap(requested=None, available=None):
    """Worker threads to use: the request clamped to [1, available CPUs]."""
    if available is None:
        available = available_cpus()
    if requested is None:
        requested = available
    return max(1, min(int(requested), int(available)))


def median_seconds(fn, batches=5, target=0.01):
    start = time.perf_counter()
    fn()
    first = time.perf_counter() - start
    reps = max(1, min(200, int(target / max(first, 1e-7))))
    if first > 0.05:
        batches = 3
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - start) / reps)
    return statistics.median(samples)


def smoothing_probes(pkg, rng):
    smo = pkg["smoothing"]
    lin = pkg["linalg"]
    out = {}
    for n in SOLVE_SIZES:
        op = smo.CirculantSmoother(n, 1.0)
        y = rng.standard_normal(n)
        out[f"smoothing.probe.thomas_us.n{n}"] = 1e6 * median_seconds(
            lambda: op.solve_thomas(y))
        out[f"smoothing.probe.dft_us.n{n}"] = 1e6 * median_seconds(
            lambda: op.solve_dft(y))
        if n in DENSE_SIZES:
            dense = op.dense()
            out[f"smoothing.probe.dense_us.n{n}"] = 1e6 * median_seconds(
                lambda: lin.dense_solve(dense, y))
    return out


def linalg_probes(pkg, rng):
    lin = pkg["linalg"]
    out = {}
    for n in EIG_SIZES:
        g = rng.standard_normal((n, n))
        m = 0.5 * (g + g.T)
        out[f"linalg.probe.sym_eig_ms.n{n}"] = 1e3 * median_seconds(
            lambda: lin.sym_eigendecompose(m), batches=3)
    return out


def sweep_probes(pkg, rng):
    """Sweep kernel cell-steps per second on 1 and N = nproc threads."""
    exp = pkg["experiments"]
    opt = pkg["optimizers"]
    objective = pkg["saddle"].canonical_objective(2, scale=2.0)
    grid = exp.PolarGrid(r_min=0.1, r_max=1.0, r_step=0.1,
                         theta_min_deg=-180.0, theta_max_deg=180.0,
                         theta_step_deg=SWEEP_THETA_STEP_DEG)
    config = opt.RunConfig(eta=0.1, max_iters=100)
    work = grid.cells * config.max_iters
    out = {}
    for name, threads in (("t1", 1), ("tN", thread_cap())):
        seconds = median_seconds(
            lambda: exp.sweep(objective, grid, config, opt.RatioSigma(),
                              threads=threads), batches=3)
        key = f"experiments.probe.sweep_cell_steps_per_s.{name}"
        out[key] = work / seconds
    return out


PROBES = {
    "field_sweep": (sweep_probes,),
    "saddle_analysis": (linalg_probes,),
    "descent": (smoothing_probes,),
}
