"""Spans and counts recorded from outside the package, at its call sites.

Each target below is a public function (or class) of one module, patched
under the name its caller looks up at call time, so the span covers
exactly that call. Spans are kept in memory as (name, start, end, parent,
instance) and returned by :meth:`Tracer.finish` together with their self
times and the per-layer metrics derived from them. Counts (iterations,
trace records, bytes) are read from arguments and return values, never
from inside the program. Byte and flop figures derived from array sizes
are labelled "computed": they ignore caches.

A target whose name no longer exists, or whose counts can no longer be
read from its arguments and result, is reported as absent and its metrics
read 0; the run goes on.
"""

import functools
import importlib
import os
import time

ROOT = "cli.batch"

# (span name, module whose namespace holds the name the caller uses, name)
TARGETS = (
    ("experiments.generate", "sparsemkl.experiments", "generate_instance"),
    ("kernels.assemble", "sparsemkl.experiments", "assemble_gram_blocks"),
    ("core.validate", "sparsemkl.kernels", "GramBlocks"),
    ("solver.solve", "sparsemkl.experiments", "solve"),
    ("support.reference", "sparsemkl.support", "solve"),
    ("support.qualification", "sparsemkl.experiments", "qualification_check"),
    ("support.last_change", "sparsemkl.experiments", "last_support_change"),
    ("support.sandwich", "sparsemkl.experiments", "sandwich_check"),
    ("experiments.emit_histogram", "sparsemkl.cli", "emit_histogram"),
    ("experiments.emit_summary", "sparsemkl.cli", "emit_summary"),
    ("experiments.emit_traces", "sparsemkl.cli", "emit_traces"),
)

CERTIFY = ("support.qualification", "support.last_change", "support.sandwich")
EMIT = ("experiments.emit_histogram", "experiments.emit_summary",
        "experiments.emit_traces")

#: Per-layer metric name -> unit, in report order.
UNITS = {
    "cli.batch_s": "s",
    "cli.self_s": "s",
    "experiments.generate_s": "s",
    "kernels.assemble_s": "s",
    "kernels.gram_bytes": "B_computed",
    "core.validate_s": "s",
    "solver.solve_s": "s",
    "solver.iters": "count",
    "solver.us_per_iter": "us",
    "solver.trace_records": "count",
    "solver.matvec_bytes_per_iter": "B_computed",
    "solver.matvec_flops_per_iter": "flop_computed",
    "support.reference_s": "s",
    "support.reference_iters": "count",
    "support.reference_us_per_iter": "us",
    "support.reference_capped": "count",
    "support.reference_solves": "count",
    "support.certify_s": "s",
    "support.sandwich_pass": "count",
    "experiments.emit_s": "s",
    "experiments.emit_bytes": "B",
}


class Tracer:
    """Patches the targets, records spans and counts, and derives metrics."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, instance]
        self.absent = set()
        self.counts = dict.fromkeys((
            "gram_bytes", "solver_iters", "trace_records", "matvec_bytes",
            "matvec_flops", "reference_iters", "reference_capped",
            "reference_solves", "sandwich_pass", "emit_bytes",
        ), 0)
        self._stack = []
        self._instance = None
        self._saved = []

    # ------------------------------------------------------------ patching

    def install(self):
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.add(name)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, original):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        def span(fn, args, kwargs):
            if name == "experiments.generate":
                self._instance = int(args[1])
            parent = self._stack[-1] if self._stack else None
            record = [name, time.perf_counter(), None, parent, self._instance]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                try:
                    observe(args, result)
                except AttributeError:
                    # the program no longer exposes what this count reads
                    self.absent.add(name + " counts")
            return result

        if isinstance(original, type):
            # a class stays a class, so isinstance checks keep working
            def __init__(obj, *args, **kwargs):
                span(functools.partial(original.__init__, obj), args, kwargs)

            return type(original.__name__, (original,), {"__init__": __init__})

        @functools.wraps(original)
        def call(*args, **kwargs):
            return span(original, args, kwargs)

        return call

    # ------------------------------------------------------------- counts

    def _observe_kernels_assemble(self, args, gram):
        # the dense stack is G*m*m float64 values
        self.counts["gram_bytes"] = max(self.counts["gram_bytes"],
                                        gram.blocks.nbytes)

    def _observe_solver_solve(self, args, result):
        _, trace = result
        blocks = args[0].gram.blocks
        iters = trace.iters_run
        self.counts["solver_iters"] += iters
        self.counts["trace_records"] += trace.n_recorded
        # the dense matvec reads the whole stack once and does one
        # multiply-add per entry each iteration
        self.counts["matvec_bytes"] += iters * blocks.nbytes
        self.counts["matvec_flops"] += iters * 2 * blocks.size

    def _observe_support_reference(self, args, result):
        _, trace = result
        config = args[1]
        self.counts["reference_iters"] += trace.iters_run
        self.counts["reference_solves"] += 1
        if (trace.iters_run >= config.max_iters
                and trace.final_step_norm > config.stop_tol):
            self.counts["reference_capped"] += 1

    def _observe_support_sandwich(self, args, verdict):
        self.counts["sandwich_pass"] += int(bool(verdict.passed))

    def _observe_emit(self, args, result):
        self.counts["emit_bytes"] += os.path.getsize(args[1])

    _observe_experiments_emit_histogram = _observe_emit
    _observe_experiments_emit_summary = _observe_emit
    _observe_experiments_emit_traces = _observe_emit

    # ------------------------------------------------------------- output

    def finish(self, t0, t1):
        """Close the root span [t0, t1] and derive self times and metrics.

        Returns a JSON-ready dict with the spans, each span's self time,
        the absent targets and the per-layer metrics.
        """
        spans = [[ROOT, t0, t1, None, None]] + [
            [name, start, end, 0 if parent is None else parent + 1, inst]
            for name, start, end, parent, inst in self.spans
        ]
        self_s = [end - start for _, start, end, _, _ in spans]
        for _, start, end, parent, _ in spans[1:]:
            self_s[parent] -= end - start

        def total(names, times):
            return sum(t for s, t in zip(spans, times) if s[0] in names)

        dur = [end - start for _, start, end, _, _ in spans]
        c = self.counts
        solve_s = total(("solver.solve",), dur)
        ref_s = total(("support.reference",), dur)
        metrics = {
            "cli.batch_s": t1 - t0,
            "cli.self_s": self_s[0],
            "experiments.generate_s": total(("experiments.generate",), self_s),
            "kernels.assemble_s": total(("kernels.assemble",), self_s),
            "kernels.gram_bytes": c["gram_bytes"],
            "core.validate_s": total(("core.validate",), dur),
            "solver.solve_s": solve_s,
            "solver.iters": c["solver_iters"],
            "solver.us_per_iter": _per(solve_s * 1e6, c["solver_iters"]),
            "solver.trace_records": c["trace_records"],
            "solver.matvec_bytes_per_iter": _per(c["matvec_bytes"],
                                                 c["solver_iters"]),
            "solver.matvec_flops_per_iter": _per(c["matvec_flops"],
                                                 c["solver_iters"]),
            "support.reference_s": ref_s,
            "support.reference_iters": c["reference_iters"],
            "support.reference_us_per_iter": _per(ref_s * 1e6,
                                                  c["reference_iters"]),
            "support.reference_capped": c["reference_capped"],
            "support.reference_solves": c["reference_solves"],
            "support.certify_s": total(CERTIFY, dur),
            "support.sandwich_pass": c["sandwich_pass"],
            "experiments.emit_s": total(EMIT, dur),
            "experiments.emit_bytes": c["emit_bytes"],
        }
        return {
            "metrics": metrics,
            "absent": sorted(self.absent),
            "spans": [
                {"name": name, "start": start - t0, "end": end - t0,
                 "parent": parent, "instance": inst, "self_s": own}
                for (name, start, end, parent, inst), own
                in zip(spans, self_s)
            ],
        }


def _per(amount, count):
    return amount / count if count else 0.0
