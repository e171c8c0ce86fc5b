"""Tests of the benchmark itself: oracles, trace wrappers, seeds, thread cap.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import dataclasses
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def pkg():
    return run.import_package()


def _first(ops, prefix):
    return next(op for op in ops if op.name.startswith(prefix))


# -- oracles flag perturbed outputs -------------------------------------------

def test_field_oracle_flags_perturbed_field(pkg):
    exp, opt = pkg["experiments"], pkg["optimizers"]
    b = workloads.EXAMPLES["1"]
    objective = pkg["saddle"].canonical_objective(2, scale=2.0)
    grid = exp.PolarGrid(0.1, 1.0, 0.1, -180.0, 180.0, 1.0)
    fine_step = 1e-3
    _, fine, summary = exp.two_scale_search(
        objective, grid, opt.RunConfig(), opt.RatioSigma(),
        refine_halfwidth_deg=0.6, fine_step_deg=fine_step)
    sigmas = [oracles.ratio_sigma(k) for k in range(100)]
    doc = dataclasses.asdict(summary)

    def check(dist, doc):
        return oracles.check_field_values(
            b, sigmas, 0.1, len(fine), fine_step, fine.r, fine.theta_deg,
            fine.x0, dist, doc)

    assert check(fine.final_distance, doc) is None
    bumped = fine.final_distance.copy()
    far = int(np.argmax(bumped))
    bumped[far] *= 1.0 + 1e-6
    assert "differs from |T x0|" in check(bumped, doc)
    moved = dict(doc, argmin_theta_deg=doc["argmin_theta_deg"] + 0.01)
    assert "from the dip" in check(fine.final_distance, moved)


def test_eigen_oracle_flags_perturbed_eigenvalue(pkg, tmp_path):
    warm, _ = workloads.saddle_analysis_rounds(
        pkg, np.random.default_rng(0), str(tmp_path))
    assert warm.check(warm.call()) is None
    report = tmp_path / "report.json"
    doc = json.loads(report.read_text())
    doc["per_sigma"][2]["eigenvalues"][3] += 1e-6
    report.write_text(json.dumps(doc))
    assert "eigenvalue error" in warm.check(0)


def test_descent_oracles_flag_perturbed_final_point(pkg, tmp_path):
    _, rounds = workloads.descent_rounds(
        pkg, np.random.default_rng(0), str(tmp_path))
    ops = [op for ops in rounds for op in ops]
    for op in (_first(ops, "run wide"), _first(ops, "run escape"),
               _first(ops, "run attraction")):
        result = op.call()
        assert op.check(result) is None, op.name
        moved = dataclasses.replace(
            result, final_point=result.final_point * (1.0 - 1e-6))
        assert "replay" in op.check(moved), op.name


def test_rate_oracle_recomputes_bound_and_iterations(pkg, tmp_path):
    _, rounds = workloads.descent_rounds(
        pkg, np.random.default_rng(0), str(tmp_path))
    ops = [op for ops in rounds for op in ops
           if op.name.startswith("rate_check")]
    assert {op.name.split()[1] for op in ops} == {"constant", "ratio"}
    for op in ops[:4]:
        reports = op.call()
        assert op.check(reports) is None, op.name
        inflated = [dataclasses.replace(reports[0], bound=reports[0].bound * 2)]
        assert "bound" in op.check(inflated + reports[1:]), op.name
        skewed = [dataclasses.replace(
            reports[1], empirical_iters=reports[1].empirical_iters + 2)]
        assert "replayed" in op.check(reports[:1] + skewed + reports[2:])


def test_failed_operation_is_counted_and_the_run_goes_on():
    def boom():
        raise ValueError("no")

    ok = workloads.Op("ok", lambda: 1, lambda r: None, lambda r: 2.0, ())
    bad = workloads.Op("bad", boom, lambda r: None, lambda r: 2.0, ())
    records = run.measure([[bad, ok]], 0.0)
    assert [r[0] for r in records] == [bad, ok]
    assert "raised" in records[0][3] and records[1][3] is None
    assert run.op_failures(records) == ["bad: raised ValueError('no')"]
    assert len(run.measure([[ok, ok, ok]], 0.0, min_ops=7)) == 9


# -- tracing ------------------------------------------------------------------

def _snapshot(pkg):
    smoother = pkg["smoothing"].CirculantSmoother
    return ({(name, key): value for name, mod in pkg.items()
             for key, value in vars(mod).items()},
            dict(vars(smoother)))


def test_trace_restores_every_module(pkg, tmp_path):
    before = _snapshot(pkg)
    warm, _ = workloads.field_sweep_rounds(
        pkg, np.random.default_rng(0), str(tmp_path))
    layers = tracing.LayerTrace(pkg)
    with layers:
        assert _snapshot(pkg) != before
        layers.tracer.op_id = 0
        assert run.run_op(warm)[2] is None
    after = _snapshot(pkg)
    assert after[1] == before[1]
    assert after[0].keys() == before[0].keys()
    assert all(after[0][k] is before[0][k] for k in before[0])
    assert run.unpatched_failures(layers) == []
    counts = layers.tracer.counts
    assert counts["cli.main.calls"] == 1
    assert counts["experiments.sweep.calls"] == 2
    assert counts["experiments.emit_csv.bytes"] > 0


def test_trace_restores_after_an_exception(pkg):
    before = _snapshot(pkg)
    with pytest.raises(ZeroDivisionError):
        with tracing.LayerTrace(pkg):
            1 / 0
    after = _snapshot(pkg)
    assert all(after[0][k] is before[0][k] for k in before[0])


def test_self_time_is_span_minus_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))

    def outer_fn():
        inner()
        inner()
        return sum(range(20000))

    outer = tracer.wrap("outer", outer_fn)
    tracer.op_id = 0
    outer()
    spans = tracer.arrays()
    assert list(spans["parent"]) == [-1, 0, 0]
    whole = spans["duration"] + spans["wrapper"]
    assert np.all(spans["wrapper"] > 0)
    assert spans["self"][0] == pytest.approx(
        spans["duration"][0] - whole[1:].sum())


def test_accounting_uses_stamped_benchmark_time():
    """Self times plus wrapper time match a wall stamped around the call,
    and time that no stamp covers shows up as the error."""
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)),
                        after=lambda *a: sum(range(50000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    tracer.op_id = 0
    start = time.perf_counter()
    outer()
    wall = time.perf_counter() - start
    spans = tracer.arrays()
    assert spans["wrapper"][1:].min() > 0
    assert tracer.accounting_error({0: wall}) < 1e-4
    assert tracer.accounting_error({0: wall + 5e-3}) > 4e-3


def test_worker_thread_calls_are_counted_without_spans():
    tracer = tracing.Tracer()
    work = tracer.wrap("work", lambda: 1)
    worker = threading.Thread(target=work)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    work()
    assert tracer.counts["work.calls"] == 2
    assert len(tracer.span_start) == 1


# -- seeds --------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_determines_inputs(pkg, tmp_path, name):
    build = workloads.WORKLOADS[name][0]

    def inputs(seed):
        warm, rounds = build(pkg, np.random.default_rng(seed), str(tmp_path))
        return [warm.inputs] + [op.inputs for ops in rounds for op in ops]

    first = inputs(7)
    assert all(first)
    assert inputs(7) == first
    assert inputs(8) != first


# -- threads ------------------------------------------------------------------

def test_thread_cap_without_starting_threads(pkg, monkeypatch):
    before = threading.active_count()
    assert probes.thread_cap(10 ** 9, available=2) == 2
    assert probes.thread_cap(None, available=3) == 3
    assert probes.thread_cap(0, available=2) == 1
    assert probes.thread_cap(-3, available=2) == 1
    assert probes.thread_cap() == probes.available_cpus()
    asked = []

    def fake_sweep(objective, grid, config, schedule, threads=None):
        asked.append(threads)

    monkeypatch.setattr(pkg["experiments"], "sweep", fake_sweep)
    probes.sweep_probes(pkg, np.random.default_rng(0))
    assert max(asked) <= probes.available_cpus()
    assert threading.active_count() == before


# -- declared metrics ---------------------------------------------------------

def test_catalog_places_every_metric():
    end_to_end, per_layer = run.declared_metrics()
    catalog = json.loads((Path(__file__).parent / "catalog.json").read_text())
    placed = [m for row in catalog["per_layer"] for m in row["metrics"]]
    assert sorted(placed) == sorted(per_layer)
    assert list(catalog["end_to_end"]["meaning"]) == list(end_to_end)
    moved = {m for row in catalog["per_layer"] for m in row["should_move"]}
    assert moved <= set(end_to_end)


def test_traced_run_reports_every_layer_metric(tmp_path):
    metrics, records, failures, info = run.traced_run(
        "descent", 3, 0.01, tmp_path)
    assert failures == [] and len(records) == 19 + len(workloads.WIDE_RUNS)
    assert list(metrics) == list(run.declared_metrics()[1])
    assert info["accounting_error_s"] <= run.ACCOUNTING_TOL_S
    rate_checks = sum(r[0].name.startswith("rate_check") for r in records)
    assert metrics["optimizers.run.calls"] == (
        len(records) - rate_checks + workloads.RATE_TRIALS * rate_checks)
    assert metrics["smoothing.solve.us_per_call_small"] > 0
    assert metrics["smoothing.solve.us_per_call_wide"] > 0
    assert metrics["trace_overhead_ratio"] > 0
