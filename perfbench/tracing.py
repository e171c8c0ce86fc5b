"""Span tracing of the smoothgd layers, installed from outside the package.

A :class:`Tracer` replaces public callables with timing wrappers under the
names their callers look them up by (a module attribute such as
``experiments.solve_smoothed_pair``, or a method on ``CirculantSmoother``),
and puts the originals back on :meth:`Tracer.restore`.  Every call records
one span: label, start, end, parent span and operation id.  Spans stay in
memory in compact arrays and are written out once, at the end of a run.

Each wrapper also stamps its own entry and exit, so the time spent in the
wrapper itself (span bookkeeping, counters and after-hooks) is measured
apart from the span.  A layer's self time is its span minus the whole
wrapped calls (span plus wrapper time) of its direct children: the
benchmark's own time is kept out of every layer, except for the call
counter on ``CirculantSmoother.__init__``, which has no span.  Costly
bookkeeping (eigenpair residuals) waits until the operation has ended.

Spans are recorded on the thread that created the tracer, which runs the
operations, so children always lie inside their parent.  A wrapped callable
entered from another thread (a worker of a threaded sweep) is counted but
gets no span: its time stays in the self time of the span that waits for it.
"""

import collections
import os
import threading
import time
from array import array

import numpy as np

SMALL_N = 16   # upper end of the "small" dimension class
WIDE_N = 512   # lower end of the "wide" dimension class


class Tracer:
    def __init__(self):
        self.labels = []
        self._label_ids = {}
        self.span_label = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_enter = array("d")     # wrapper entry, before bookkeeping
        self.span_exit = array("d")      # wrapper exit, after the hooks
        self.span_parent = array("i")
        self.span_op = array("i")
        self.counts = collections.Counter()
        self.maxima = collections.defaultdict(float)
        self.op_id = -1
        self.thread = threading.get_ident()
        self._stack = []
        self._lock = threading.Lock()
        self._patches = []

    def _label_id(self, label):
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def _count(self, counter):
        with self._lock:
            self.counts[counter] += 1

    def wrap(self, label, fn, after=None):
        """A wrapper of fn that records a span, then calls after()."""
        lid = self._label_id(label)
        calls = label + ".calls"

        def traced(*args, **kwargs):
            enter = time.perf_counter()
            if threading.get_ident() != self.thread:
                result = fn(*args, **kwargs)
                self._count(calls)
                return result
            idx = len(self.span_start)
            self.span_enter.append(enter)
            self.span_label.append(lid)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_op.append(self.op_id)
            self.span_end.append(0.0)
            self.span_exit.append(0.0)
            self._stack.append(idx)
            self.span_start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.span_end[idx] = end
                self._stack.pop()
                self.span_exit[idx] = end
            self._count(calls)
            if after is not None:
                after(args, kwargs, result, end - self.span_start[idx])
            self.span_exit[idx] = time.perf_counter()
            return result

        traced.__wrapped__ = fn
        return traced

    def count_calls(self, counter, fn):
        """A wrapper of fn that only counts calls (no span)."""
        def counted(*args, **kwargs):
            self._count(counter)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def patch(self, owner, name, replacement):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def restore(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- derived numbers ----------------------------------------------------

    def arrays(self):
        start = np.frombuffer(self.span_start, dtype=float)
        end = np.frombuffer(self.span_end, dtype=float)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        duration = end - start
        whole = (np.frombuffer(self.span_exit, dtype=float)
                 - np.frombuffer(self.span_enter, dtype=float))
        child = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], whole[has_parent])
        return {
            "start": start,
            "end": end,
            "label": np.frombuffer(self.span_label, dtype=np.int32),
            "op": np.frombuffer(self.span_op, dtype=np.int32),
            "parent": parent,
            "duration": duration,
            "self": duration - child,
            "wrapper": whole - duration,
        }

    def self_seconds(self):
        """label -> summed self time over every span."""
        spans = self.arrays()
        totals = np.zeros(len(self.labels))
        np.add.at(totals, spans["label"], spans["self"])
        return {label: float(totals[i]) for i, label in enumerate(self.labels)}

    def total_seconds(self):
        """label -> summed inclusive span time."""
        spans = self.arrays()
        totals = np.zeros(len(self.labels))
        np.add.at(totals, spans["label"], spans["duration"])
        return {label: float(totals[i]) for i, label in enumerate(self.labels)}

    def accounting_error(self, op_walls):
        """Largest |sum of self times + benchmark time - op wall time|.

        ``op_walls`` maps op id -> wall time stamped by the caller just
        before and after it calls into the package.  The benchmark's own
        time inside that interval is the wrapper time of every span, stamped
        by the wrappers themselves; only the call into the outermost wrapper
        is left unstamped, so a span that leaks out of its parent or its
        operation, or time that no stamp covers, shows up as the error.
        """
        spans = self.arrays()
        worst = 0.0
        for op, wall in op_walls.items():
            mine = spans["op"] == op
            layers = float(spans["self"][mine].sum())
            own = float(spans["wrapper"][mine].sum())
            worst = max(worst, abs(layers + own - wall))
        return worst

    def write_spans(self, path):
        spans = self.arrays()
        t0 = float(spans["start"].min(initial=0.0))
        with open(path, "w") as fh:
            fh.write("span,op,label,start_s,end_s,parent,self_s,"
                     "wrapper_s\n")
            for i in range(len(spans["start"])):
                fh.write("%d,%d,%s,%.9f,%.9f,%d,%.9f,%.9f\n" % (
                    i, spans["op"][i], self.labels[spans["label"][i]],
                    spans["start"][i] - t0, spans["end"][i] - t0,
                    spans["parent"][i], spans["self"][i],
                    spans["wrapper"][i]))


class LayerTrace:
    """Installs the smoothgd layer wrappers on a Tracer and keeps counters.

    ``pkg`` maps module name -> module object for smoothgd's submodules.
    Every wrapped name is one a caller inside the package or the benchmark
    looks up at call time, so restoring them leaves the package unpatched.
    """

    def __init__(self, pkg):
        self.pkg = pkg
        self.tracer = Tracer()
        self.eigen_records = []   # (matrix, sigma, pairs) for residuals
        self.solve_time = collections.defaultdict(float)
        self.solve_calls = collections.Counter()
        self.run_time = collections.defaultdict(float)
        self.run_steps = collections.Counter()

    def targets(self):
        """(owner, attribute, label, after) for every wrapped callable."""
        cli = self.pkg["cli"]
        exp = self.pkg["experiments"]
        lin = self.pkg["linalg"]
        opt = self.pkg["optimizers"]
        sad = self.pkg["saddle"]
        smo = self.pkg["smoothing"]
        smoother = smo.CirculantSmoother
        return [
            (cli, "main", "cli.main", self._after_main),
            (exp, "sweep", "experiments.sweep", self._after_sweep),
            (exp, "solve_smoothed_pair", "smoothing.pair_solve", None),
            (smo, "solve_smoothed_pair", "smoothing.pair_solve", None),
            (exp, "emit_csv", "experiments.emit_csv", self._after_emit),
            (cli, "emit_csv", "experiments.emit_csv", self._after_emit),
            (exp, "rate_check", "experiments.rate_check", None),
            (lin, "sym_eigendecompose", "linalg.sym_eig", self._after_eig),
            (cli, "sym_eigendecompose", "linalg.sym_eig", self._after_eig),
            (lin, "eig_preconditioned_hessian", "linalg.precond_eig", None),
            (sad, "eigen_structure", "saddle.eigen_structure",
             self._after_structure),
            (cli, "eigen_structure", "saddle.eigen_structure",
             self._after_structure),
            (sad, "principal_angle", "saddle.principal_angle",
             self._after_angle),
            (cli, "principal_angle", "saddle.principal_angle",
             self._after_angle),
            (sad, "general_attraction_basis", "saddle.general_basis", None),
            (cli, "general_attraction_basis", "saddle.general_basis", None),
            (smoother, "solve", "smoothing.solve", self._after_solve),
            (smoother, "inv_sqrt_apply", "smoothing.inv_sqrt", None),
            (opt, "run", "optimizers.run", self._after_run),
            (exp, "run", "optimizers.run", self._after_run),
            (cli, "run", "optimizers.run", self._after_run),
        ]

    def install(self):
        t = self.tracer
        for owner, name, label, after in self.targets():
            t.patch(owner, name, t.wrap(label, owner.__dict__[name], after))
        smoother = self.pkg["smoothing"].CirculantSmoother
        t.patch(smoother, "__init__",
                t.count_calls("smoothing.operators_built",
                              smoother.__dict__["__init__"]))

    def restore(self):
        self.tracer.restore()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- hooks, run after the span has closed --------------------------------

    def _after_main(self, args, kwargs, rc, dt):
        if rc != 0:
            self.tracer.counts["cli.main.nonzero_exits"] += 1

    def _after_sweep(self, args, kwargs, field, dt):
        config = args[2] if len(args) > 2 else kwargs["config"]
        c = self.tracer.counts
        c["experiments.sweep.cells"] += len(field)
        c["experiments.sweep.cell_steps"] += len(field) * config.max_iters

    def _after_emit(self, args, kwargs, result, dt):
        path = args[1] if len(args) > 1 else kwargs["path"]
        size = os.path.getsize(path)
        self.tracer.counts["experiments.emit_csv.bytes"] += size

    def _after_eig(self, args, kwargs, pairs, dt):
        m = self.tracer.maxima
        m["linalg.sym_eig.max_n"] = max(m["linalg.sym_eig.max_n"], len(pairs))

    def _after_structure(self, args, kwargs, structure, dt):
        self.eigen_records.append(
            (args[0].matrix, structure.sigma, structure.pairs))

    def _after_angle(self, args, kwargs, angle, dt):
        m = self.tracer.maxima
        m["saddle.max_principal_angle"] = max(
            m["saddle.max_principal_angle"], float(angle))

    def _after_solve(self, args, kwargs, result, dt):
        size = _size_class(args[0].n)
        self.solve_time[size] += dt
        self.solve_calls[size] += 1

    def _after_run(self, args, kwargs, result, dt):
        c = self.tracer.counts
        c["optimizers.run.steps"] += result.iterations_used
        c["optimizers.run.status." + result.status.value] += 1
        size = _size_class(len(result.final_point))
        self.run_time[size] += dt
        self.run_steps[size] += result.iterations_used


def _size_class(n):
    if n <= SMALL_N:
        return "small"
    if n >= WIDE_N:
        return "wide"
    return "mid"
