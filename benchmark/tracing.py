"""Spans and counters around ncpain's layers, installed from outside ``src/``.

``Tracer.install`` replaces public functions and methods of the ncpain
modules with recording wrappers and ``Tracer.uninstall`` puts the originals
back.  A module-level function is replaced in every ncpain module that bound
it by name (``ncpain.cli`` and ``ncpain.dressing`` import their helpers with
``from ... import``), so the wrapper is seen wherever the name is looked up.

Layer boundaries get spans: name, start, end, parent span and the workload
operation they belong to.  Spans stay in memory until ``write_spans``.  Hot
element-level calls (``MatrixElement._mul`` runs about 236k times in one
dress-heavy pass) only bump per-thread counters, so tracing stays cheap.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import os
import re
import sys
import threading
from time import perf_counter

# Module-level functions that get a span: (defining module, name, span name).
# The span name's prefix is the layer.
SPAN_FUNCTIONS = (
    ("ncpain.cli", "main", "cli.main"),
    ("ncpain.reports", "write_grid_csv", "reports.csv"),
    ("ncpain.dressing", "integrate_linear", "dressing.integrate_linear"),
    ("ncpain.dressing", "masked_n_fold", "dressing.masked_n_fold"),
    ("ncpain.dressing", "masked_iterated", "dressing.masked_iterated"),
    ("ncpain.dressing", "darboux_once", "dressing.darboux_once"),
    ("ncpain.laxpair", "integrate_symmetric", "laxpair.integrate_symmetric"),
    ("ncpain.laxpair", "zero_curvature_residual",
     "laxpair.zero_curvature_residual"),
    ("ncpain.laxpair", "pii_residual_grid", "laxpair.pii_residual_grid"),
    ("ncpain.laxpair", "reduction_check", "laxpair.reduction_check"),
    ("ncpain.laxpair", "lax_residual_symmetric",
     "laxpair.lax_residual_symmetric"),
    ("ncpain.laxpair", "first_integral", "laxpair.first_integral"),
    ("ncpain.integrators", "rk4_path", "integrators.rk4_path"),
    ("ncpain.integrators", "rk4_step", "integrators.rk4_step"),
    ("ncpain.quasidet", "quasideterminant", "quasidet.quasideterminant"),
    ("ncpain.quasidet", "quasideterminant_oracle",
     "quasidet.quasideterminant_oracle"),
    ("ncpain.quasidet", "block_inverse", "quasidet.block_inverse"),
    # Every star product, exact or truncated, goes through this one helper.
    ("ncpain.moyal", "_star", "moyal.star"),
)

# Methods that get a span: (module, class, method, span name).
SPAN_METHODS = (
    ("ncpain.reports", "ExperimentReport", "write", "reports.json"),
    ("ncpain.grid", "GridFunction", "sup_norm", "grid.norm"),
    ("ncpain.grid", "GridFunction", "mean_norm", "grid.norm"),
    ("ncpain.moyal", "MoyalPolynomial", "inv", "moyal.inv"),
)


def _count_masked(counts, result):
    _, masks = result
    counts["dressing.masked_points"] += sum(int((~m).sum()) for m in masks)


def _count_truncated(counts, product):
    counts["moyal.truncated"] += bool(product.approximate)


def _count_csv_bytes(counts, path):
    counts["reports.csv_bytes"] += os.path.getsize(path)


_DURATION_LINE = re.compile(rb'\n *"duration_s": [^\n]*')


def without_duration(report: bytes) -> bytes:
    """A JSON report without its ``duration_s`` line, the only part that
    differs between identical runs."""
    return _DURATION_LINE.sub(b"", report)


def _count_json_bytes(counts, path):
    with open(path, "rb") as fh:
        counts["reports.json_bytes"] += len(without_duration(fh.read()))


# Counters read from a spanned call's result, keyed by span name.
_RESULT_HOOKS = {
    "dressing.masked_n_fold": _count_masked,
    "moyal.star": _count_truncated,
    "reports.csv": _count_csv_bytes,
    "reports.json": _count_json_bytes,
}


class _ThreadState:
    """Span stack and counters of one thread."""

    def __init__(self):
        self.stack: list = []
        self.counts = collections.Counter()
        self.inv_s = 0.0
        self.min_margin = 1.0
        self.extremes = None


class _Local(threading.local):
    """Gives each thread its own _ThreadState, registered on first use.

    The registry holds the states themselves: attributes of a
    ``threading.local`` read from another thread are that thread's own.
    """

    def __init__(self, registry: list):
        self.state = _ThreadState()
        registry.append(self.state)


def _union_length(intervals, lo=None, hi=None) -> float:
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if lo is not None:
            start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._threads: list = []
        self._local = _Local(self._threads)
        self._ids = itertools.count(1)
        self._undo: list = []

    @property
    def _state(self) -> _ThreadState:
        return self._local.state

    # -- installation ------------------------------------------------------

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        import ncpain.cli
        import ncpain.grid
        import ncpain.ring

        try:
            for module, name, span in SPAN_FUNCTIONS:
                orig = getattr(sys.modules[module], name)
                self._replace_everywhere(orig, self._spanned(span, orig))
            for module, cls_name, name, span in SPAN_METHODS:
                cls = getattr(sys.modules[module], cls_name)
                self._set(cls, name, self._spanned(span, cls.__dict__[name]))
            # The CLI's only thread pool; its workers' spans keep their parent.
            self._set(ncpain.cli, "_pool_map",
                      self._adopting_pool_map(ncpain.cli._pool_map))
            self._install_counters(ncpain.ring.MatrixElement,
                                   ncpain.grid.GridFunction)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _replace_everywhere(self, orig, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "ncpain"
                                      or mod_name.startswith("ncpain.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._set(module, attr, wrapper)

    # -- spans ---------------------------------------------------------------

    def _spanned(self, name, fn):
        tracer = self
        hook = _RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state
            sid = next(tracer._ids)
            parent = st.stack[-1] if st.stack else None
            st.stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                st.stack.pop()
                tracer.spans.append((sid, parent, name, start, end, tracer.op))
            if hook is not None:
                hook(st.counts, result)
            return result

        return wrapper

    def _adopting_pool_map(self, orig):
        """Worker threads inherit the submitting thread's open span."""
        tracer = self

        @functools.wraps(orig)
        def pool_map(fn, items):
            st = tracer._state
            parent = st.stack[-1] if st.stack else None

            def adopted(item):
                wst = tracer._state
                wst.stack.append(parent)
                try:
                    return fn(item)
                finally:
                    wst.stack.pop()

            return orig(adopted, items)

        return pool_map

    # -- counters ------------------------------------------------------------

    def _install_counters(self, matrix_cls, grid_cls):
        tracer = self
        init = matrix_cls.__dict__["__init__"]
        mul = matrix_cls.__dict__["_mul"]
        inv = matrix_cls.__dict__["inv"]
        extremes = matrix_cls.__dict__["singular_extremes"]
        post_init = grid_cls.__dict__["__post_init__"]

        def counted_init(self, data):
            tracer._state.counts["ring.elements_built"] += 1
            init(self, data)

        def counted_mul(self, other):
            tracer._state.counts["ring.mul_calls"] += 1
            return mul(self, other)

        def counted_extremes(self):
            st = tracer._state
            st.counts["ring.svd_calls"] += 1
            st.extremes = extremes(self)
            return st.extremes

        def counted_inv(self):
            st = tracer._state
            st.counts["ring.inv_calls"] += 1
            st.extremes = None
            start = perf_counter()
            try:
                result = inv(self)
            except ArithmeticError:
                st.counts["ring.inv_refused"] += 1
                raise
            finally:
                st.inv_s += perf_counter() - start
            if st.extremes is not None:
                smin, smax = st.extremes
                st.min_margin = min(st.min_margin, smin / smax)
            return result

        def counted_post_init(self):
            tracer._state.counts["grid.functions_built"] += 1
            post_init(self)

        self._set(matrix_cls, "__init__", counted_init)
        self._set(matrix_cls, "_mul", counted_mul)
        self._set(matrix_cls, "inv", counted_inv)
        self._set(matrix_cls, "singular_extremes", counted_extremes)
        self._set(grid_cls, "__post_init__", counted_post_init)

    # -- results -------------------------------------------------------------

    def counts(self) -> collections.Counter:
        total = collections.Counter()
        for st in self._threads:
            total.update(st.counts)
        return total

    def span_table(self) -> dict:
        """Per span name: calls, busy seconds (union) and self seconds."""
        children = collections.defaultdict(list)
        for sid, parent, _, start, end, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        table = collections.defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "intervals": []})
        for sid, _, name, start, end, _ in self.spans:
            row = table[name]
            row["calls"] += 1
            row["intervals"].append((start, end))
            covered = _union_length(children.get(sid, ()), start, end)
            row["self_s"] += (end - start) - covered
        for row in table.values():
            row["busy_s"] = _union_length(row.pop("intervals"))
        return dict(table)

    def layer_metrics(self) -> dict:
        """The per-layer metrics of BENCHMARK.json that come from tracing."""
        counts = self.counts()
        table = self.span_table()
        empty = {"calls": 0, "self_s": 0.0, "busy_s": 0.0}

        def span(name):
            return table.get(name, empty)

        def layer_self(layer):
            return sum(row["self_s"] for name, row in table.items()
                       if name.split(".")[0] == layer)

        star_calls = span("moyal.star")["calls"]
        return {
            "ring.mul_calls": counts["ring.mul_calls"],
            "ring.inv_calls": counts["ring.inv_calls"],
            "ring.inv_refused": counts["ring.inv_refused"],
            "ring.svd_calls": counts["ring.svd_calls"],
            "ring.elements_built": counts["ring.elements_built"],
            "ring.inv_self_s": sum(st.inv_s for st in self._threads),
            "ring.min_margin": min((st.min_margin for st in self._threads),
                                   default=1.0),
            "quasidet.qd_calls": span("quasidet.quasideterminant")["calls"],
            "quasidet.block_inverse_calls":
                span("quasidet.block_inverse")["calls"],
            "quasidet.self_s": layer_self("quasidet"),
            "quasidet.oracle_s":
                span("quasidet.quasideterminant_oracle")["busy_s"],
            "moyal.star_calls": star_calls,
            "moyal.star_self_s": span("moyal.star")["self_s"],
            "moyal.inv_calls": span("moyal.inv")["calls"],
            "moyal.inv_s": span("moyal.inv")["busy_s"],
            "moyal.truncated_share":
                counts["moyal.truncated"] / star_calls if star_calls else 0.0,
            "integrators.rk4_steps": span("integrators.rk4_step")["calls"],
            "integrators.rk4_self_s": layer_self("integrators"),
            "laxpair.integrate_symmetric_s":
                span("laxpair.integrate_symmetric")["busy_s"],
            "laxpair.zero_curvature_calls":
                span("laxpair.zero_curvature_residual")["calls"],
            "laxpair.zero_curvature_s":
                span("laxpair.zero_curvature_residual")["busy_s"],
            "laxpair.residual_grid_s":
                span("laxpair.pii_residual_grid")["busy_s"],
            "laxpair.self_s": layer_self("laxpair"),
            "dressing.integrate_linear_s":
                span("dressing.integrate_linear")["busy_s"],
            "dressing.masked_n_fold_s":
                span("dressing.masked_n_fold")["busy_s"],
            "dressing.masked_iterated_s":
                span("dressing.masked_iterated")["busy_s"],
            "dressing.masked_points": counts["dressing.masked_points"],
            "dressing.self_s": layer_self("dressing"),
            "grid.functions_built": counts["grid.functions_built"],
            "grid.norm_s": span("grid.norm")["busy_s"],
            "reports.csv_s": span("reports.csv")["busy_s"],
            "reports.csv_bytes": counts["reports.csv_bytes"],
            "reports.json_s": span("reports.json")["busy_s"],
            "reports.json_bytes": counts["reports.json_bytes"],
            "cli.self_s": layer_self("cli"),
            "cli.invocations": span("cli.main")["calls"],
            "trace.spans": len(self.spans),
        }

    def write_spans(self, path: str):
        """One JSON object per line: id, parent, name, start, end, op."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, op in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end, "op": op}) + "\n")
