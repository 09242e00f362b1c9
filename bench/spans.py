"""Benchmark-side tracing: spans around the package's public functions.

Nothing here is active in an untraced run.  For a traced run, Tracer.patched()
replaces each name in PATCHES in the module namespace that looks it up at
call time (harness binds rk4_reference and run_integration by name, analysis
binds rank, derive binds solve_linear) and restores the originals on exit.
Each wrapped call records one span: name, parent span, op, start, end,
whether it raised, and one argument where a metric needs it.  Spans stay in
memory until the run ends.  Counting wrappers record calls without a span,
so their time stays in the caller's self time.

Problem.rhs is wrapped per problem through dataclasses.replace; each
evaluation is charged to the innermost open span.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

_MODULES = {m: importlib.import_module(f"blockstep.{m}")
            for m in ("analysis", "derive", "harness", "integrate")}

# (metric name, module whose namespace looks the name up, attribute, kind,
#  argument recorded with each span or None).  kind "span" times the call;
#  kind "count" only counts it.
PATCHES = (
    ("harness.converge", "harness", "converge", "span", None),
    ("harness.fit_slope", "harness", "fit_slope", "span", None),
    ("integrate.integrate", "harness", "run_integration", "span", None),
    ("integrate.rk4_reference", "harness", "rk4_reference", "span", "T"),
    ("integrate.measure_lte", "harness", "measure_lte", "span", None),
    ("integrate.bootstrap", "integrate", "bootstrap", "span", None),
    ("integrate.step", "integrate", "step", "span", None),
    ("derive.search_s2", "derive", "search_s2", "span", None),
    ("derive.search_s3_slice", "derive", "search_s3_slice", "span", None),
    ("derive.derive_scheme", "derive", "derive_scheme", "span", None),
    ("derive.assemble", "derive", "assemble", "span", None),
    ("derive.solve_B", "derive", "solve_B", "span", None),
    ("derive.eis_constraint", "derive", "eis_constraint", "count", None),
    ("exact.solve_linear", "derive", "solve_linear", "span", None),
    ("analysis.verify_conditions", "analysis", "verify_conditions", "span", None),
    ("analysis.truncation_order", "analysis", "truncation_order", "span", None),
    ("analysis.residual_table", "analysis", "residual_table", "span", None),
    ("analysis.residual_vector", "analysis", "residual_vector", "count", None),
    ("analysis.stability_scan", "analysis", "stability_scan", "span", "grid_n"),
    ("exact.rank", "analysis", "rank", "span", None),
)

OP = "bench.op"  # root span of one op; its self time is benchmark glue

# Span record fields.
NAME, PARENT, OP_ID, START, END, OK, ARG = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.rhs_evals: Counter = Counter()
        self._swaps = []
        for name, mod, attr, kind, arg in PATCHES:
            module = _MODULES[mod]
            fn = getattr(module, attr)
            wrapper = self._span(name, fn, arg) if kind == "span" else self._counter(name, fn)
            self._swaps.append((module, attr, fn, wrapper))

    def _span(self, name, fn, arg):
        spans, stack = self.spans, self.stack
        pick = None
        if arg is not None:
            sig = inspect.signature(fn)

            def pick(a, k):
                return sig.bind(*a, **k).arguments[arg]

        def wrapped(*a, **k):
            rec = [name, stack[-1] if stack else -1, self.op_id, 0.0, 0.0, False,
                   pick(a, k) if pick else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*a, **k)
                rec[OK] = True
                return out
            finally:
                rec[END] = perf_counter()
                stack.pop()

        return wrapped

    def _counter(self, name, fn):
        counts = self.counts

        def wrapped(*a, **k):
            counts[name] += 1
            return fn(*a, **k)

        return wrapped

    def op(self, fn):
        """Wrap an op runner: each call installs the wrappers and opens a
        root span with a new op id."""
        inner = self._span(OP, fn, None)

        def wrapped(*a, **k):
            self.op_id += 1
            with self.patched():
                return inner(*a, **k)

        return wrapped

    def count_rhs(self, prob):
        """A copy of prob whose rhs charges each evaluation to the open span."""
        rhs, spans, stack, evals = prob.rhs, self.spans, self.stack, self.rhs_evals

        def counted(t, u):
            evals[spans[stack[-1]][NAME] if stack else None] += 1
            return rhs(t, u)

        return dataclasses.replace(prob, rhs=counted)

    @contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        try:
            for module, attr, _, wrapper in self._swaps:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, fn, _ in self._swaps:
                setattr(module, attr, fn)

    def aggregate(self):
        """Per span name: calls, total and self seconds, plus op totals."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for i, rec in enumerate(self.spans):
            calls[rec[NAME]] += 1
            self_s[rec[NAME]] += rec[END] - rec[START] - child[i]
        return calls, self_s

    def reference_work(self):
        """(calls, retries, distinct times) of rk4_reference over all ops.

        A retry is a call whose doubling check failed; distinct counts the
        different times requested within each op, summed over ops.
        """
        refs = [r for r in self.spans if r[NAME] == "integrate.rk4_reference"]
        retries = sum(1 for r in refs if not r[OK])
        distinct = len({(r[OP_ID], float(r[ARG])) for r in refs})
        return len(refs), retries, distinct

    def points(self):
        """Grid points scanned by stability_scan over all calls."""
        return sum(r[ARG] ** 2 for r in self.spans if r[NAME] == "analysis.stability_scan")

    def write(self, path):
        """Write the span log as CSV: one row per span, times relative to the first."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,op,name,start_us,end_us,ok\n")
            for i, r in enumerate(self.spans):
                fh.write(f"{i},{r[PARENT]},{r[OP_ID]},{r[NAME]},"
                         f"{(r[START] - t0) * 1e6:.1f},{(r[END] - t0) * 1e6:.1f},{int(r[OK])}\n")
