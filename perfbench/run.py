"""smoothgd benchmark: seeded workloads, timed end to end or traced per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload field_sweep --seed 1 --seconds 40 \
        --trace 0

The package is imported from ``src/`` of the same checkout.  Every operation
is checked against an independent numpy oracle (``oracles.py``); a failed
operation is counted and the run goes on.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
operation untraced and then traced (``tracing.py``), then the layer probes
(``probes.py``), and reports the per-layer metrics; the spans are written
to ``.perfbench/spans-<workload>.csv``.

Tests of the benchmark itself:  python3 -m pytest perfbench -q
"""

import argparse
import collections
import contextlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import oracles
import probes
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
MODULES = ("smoothing", "linalg", "optimizers", "saddle", "experiments", "cli")
SETUP_REPEATS = 7          # at least this many set-ups a run,
SETUP_SECONDS = 2.0        # and more while their total is below this
MIN_OPS = 100
ACCOUNTING_TOL_S = 1e-3   # per operation; the unstamped part is one call


def declared_metrics():
    """(end-to-end, per-layer) {name: unit} maps, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


class SetupError(RuntimeError):
    pass


def import_package():
    """Import smoothgd afresh from src/ and return {module name: module}."""
    for name in [m for m in sys.modules
                 if m == "smoothgd" or m.startswith("smoothgd.")]:
        del sys.modules[name]
    pkg = importlib.import_module("smoothgd")
    home = (ROOT / "src" / "smoothgd").resolve()
    if Path(pkg.__file__).resolve().parent != home:
        raise SetupError(f"smoothgd imported from {pkg.__file__}, not {home}")
    return {name: importlib.import_module(f"smoothgd.{name}")
            for name in MODULES}


def setup(workload, seed, workdir):
    """Import, generate the seeded rounds and run one warm-up operation."""
    start = time.perf_counter()
    pkg = import_package()
    make_rounds = workloads.WORKLOADS[workload][0]
    warm, rounds = make_rounds(pkg, np.random.default_rng(seed), str(workdir))
    failure = run_op(warm)[2]
    if failure is not None:
        failure = f"{warm.name}: {failure}"
    return pkg, rounds, time.perf_counter() - start, failure


def run_op(op):
    """(seconds, work, failure reason or None) for one operation.

    Only the call into the package is timed; the program's standard output
    is captured around it and the oracle runs after it.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:
            return time.perf_counter() - start, 0.0, f"raised {exc!r}"
        seconds = time.perf_counter() - start
    try:
        failure = op.check(result)
        work = float(op.work(result)) if failure is None else 0.0
    except Exception:
        failure, work = f"oracle error\n{traceback.format_exc()}", 0.0
    return seconds, work, failure


def measure(rounds, seconds, runner=run_op, min_ops=0):
    """Cycle whole rounds, stopping at the round end nearest ``seconds``.

    At least ``min_ops`` operations run, so that the 90th percentile of
    their latencies has ten samples beyond it.  Returns one (op, seconds,
    work, failure, round number) record per operation, from ``runner(op)``.
    """
    records = []
    start = time.perf_counter()
    for done in itertools.count(1):
        for op in rounds[(done - 1) % len(rounds)]:
            records.append((op,) + runner(op) + (done,))
        elapsed = time.perf_counter() - start
        if (elapsed + 0.5 * elapsed / done >= seconds
                and len(records) >= min_ops):
            return records


def end_to_end(records, setup_times):
    """The end-to-end metrics of one untraced run.

    work_per_s is the lower quartile over rounds of each round's work per
    second of operation time: the rate three rounds in four sustain.  Every
    round runs the same mix.  The speed of the shared host swings by up to
    1.7x over a few seconds, mostly upwards from a steady floor; the share
    of fast spells in a run decides the median, while the lower quartile
    stays on the floor.
    """
    ms = 1e3 * np.array([r[1] for r in records])
    work = collections.defaultdict(float)
    busy = collections.defaultdict(float)
    for _, seconds, units, _, number in records:
        work[number] += units
        busy[number] += seconds
    return {
        "setup_s": statistics.median(setup_times),
        "work_per_s": float(np.percentile(
            [work[k] / busy[k] for k in work], 25)),
        "op_ms_p50": float(np.percentile(ms, 50)),
        "op_ms_p90": float(np.percentile(ms, 90)),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def timed_run(workload, seed, seconds, workdir):
    setup_times, failures = [], []
    while (len(setup_times) < SETUP_REPEATS
           or sum(setup_times) < SETUP_SECONDS):
        _, rounds, took, failure = setup(workload, seed, workdir)
        setup_times.append(took)
        failures += [failure] if failure else []
    records = measure(rounds, seconds, min_ops=MIN_OPS)
    metrics = end_to_end(records, setup_times)
    metrics = {name: metrics[name] for name in declared_metrics()[0]}
    return metrics, records, failures + op_failures(records), {}


def traced_run(workload, seed, seconds, workdir):
    """Each operation runs untraced, then traced, back to back.

    Pairing the two runs of an operation keeps drifts in machine speed out
    of trace_overhead_ratio.
    """
    pkg, rounds, _, failure = setup(workload, seed, workdir)
    failures = [failure] if failure else []
    layers = tracing.LayerTrace(pkg)
    walls = {}
    residual = 0.0

    def paired(op):
        """The untraced record; it fails if either run of op failed."""
        nonlocal residual
        took, work, failure = run_op(op)
        op_id = layers.tracer.op_id = len(walls)
        with layers:
            walls[op_id], _, traced_failure = run_op(op)
        for matrix, sigma, pairs in layers.eigen_records:
            residual = max(residual, oracles.eigen_residual(
                matrix, sigma, pairs))
        layers.eigen_records.clear()
        return took, work, failure or traced_failure

    records = measure(rounds, seconds, paired)
    failures += op_failures(records) + unpatched_failures(layers)
    tracer = layers.tracer
    accounting = tracer.accounting_error(walls)
    if accounting > ACCOUNTING_TOL_S:
        failures.append(f"trace accounting off by {accounting:.3e} s")

    metrics = layer_metrics(layers, residual)
    metrics["trace_overhead_ratio"] = (
        sum(walls.values()) / sum(r[1] for r in records))
    rng = np.random.default_rng(seed)
    for probe in probes.PROBES[workload]:
        metrics.update(probe(pkg, rng))
    metrics = {name: float(metrics.get(name, 0.0))
               for name in declared_metrics()[1]}
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans-{workload}.csv")
    info = {"spans": len(tracer.span_start),
            "accounting_error_s": accounting}
    return metrics, records, failures, info


def op_failures(records):
    return [f"{r[0].name}: {r[3]}" for r in records if r[3]]


def unpatched_failures(layers):
    """Reasons, if any, why a module still holds a wrapper."""
    out = []
    for owner, name, _, _ in layers.targets():
        if hasattr(owner.__dict__[name], "__wrapped__"):
            out.append(f"{owner.__name__}.{name} still wrapped after trace")
    smoother = layers.pkg["smoothing"].CirculantSmoother
    if hasattr(smoother.__dict__["__init__"], "__wrapped__"):
        out.append("CirculantSmoother.__init__ still wrapped after trace")
    return out


def layer_metrics(layers, residual):
    tracer = layers.tracer
    counts, maxima = tracer.counts, tracer.maxima
    self_s = tracer.self_seconds()
    total_s = tracer.total_seconds()
    out = dict(counts)
    out.update(maxima)
    out.update((f"{layer}.self_s", seconds)
               for layer, seconds in self_s.items())
    sweep_s = total_s.get("experiments.sweep", 0.0)
    if sweep_s:
        out["experiments.sweep.cell_steps_per_s"] = (
            counts["experiments.sweep.cell_steps"] / sweep_s)
    for size in ("small", "wide"):
        if layers.solve_calls[size]:
            out[f"smoothing.solve.us_per_call_{size}"] = (
                1e6 * layers.solve_time[size] / layers.solve_calls[size])
        if layers.run_steps[size]:
            out[f"optimizers.run.us_per_step_{size}"] = (
                1e6 * layers.run_time[size] / layers.run_steps[size])
    out["linalg.max_eig_residual"] = residual
    return out


def machine_info():
    return {
        "nproc": probes.available_cpus(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "smoothgd" / "__init__.py").is_file():
        print(f"perfbench: no smoothgd sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = traced_run if args.trace else timed_run
    try:
        metrics, records, failures, info = runner(
            args.workload, args.seed, args.seconds, workdir)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for reason in failures[:20]:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    attempted, failed = len(records), sum(1 for r in records if r[3])
    info.update(machine_info())
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    units = {}
    for declared in declared_metrics():
        units.update(declared)
    _, work_unit, alias = workloads.WORKLOADS[args.workload]
    for name, value in metrics.items():
        note = ""
        if name == "work_per_s":
            note = f"  ({alias}: {work_unit} per second)"
        elif name.startswith("op_ms_"):
            note = f"  (over {attempted} operations)"
        print(f"{args.workload} {name} {value:.6g} {units[name]}{note}")
    print(f"{args.workload} op_fail_ratio {failed / attempted:.6g} "
          f"({failed}/{attempted})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
