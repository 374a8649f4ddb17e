"""Span tracer that wraps ``mmcut`` module attributes from the outside.

The pipelines call each other through module globals (``branching._search``
looks up ``apply_reduction_rules`` in ``mmcut.branching`` at call time), so
replacing those attributes routes every call through a timing wrapper
without touching the program.  Generator functions are timed per ``next()``,
which makes each stage of a lazy pipeline its own span.

Each span records its name, start, end and parent.  Self time is a span's
duration minus the time covered by its child spans; it is summed per name
as the spans close.  Counters are taken at the same boundaries.
"""

from __future__ import annotations

import time
from collections import defaultdict

SPAN_LOG_LIMIT = 50_000


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.log_spans = False
        self._stack: list[list] = []  # [name, start, child_time, span id]
        self._next_id = 0
        self._patches: list[tuple[object, str, object, object]] = []
        self._leaves_since_emit: int | None = None

    # ------------------------------------------------------------ spans

    def _open(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, span_id = frame
        dur = end - start
        self.self_s[name] += dur - child
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            parent_id = parent[3]
        else:
            parent_id = -1
        if self.log_spans and len(self.spans) < SPAN_LOG_LIMIT:
            self.spans.append((span_id, name, start, end, parent_id))

    def parent_name(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()

    # --------------------------------------------------------- wrapping

    def wrap(self, owner, attr: str, name: str, on_result=None, on_call=None):
        """Route ``owner.attr`` through a span named ``name``.
        ``on_call(args, kwargs)`` may return replacement kwargs;
        ``on_result(args, kwargs, result)`` records counters."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if on_call is not None:
                kwargs = on_call(args, kwargs)
            frame = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(frame)
            tracer.counts[name + ".calls"] += 1
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        self._patches.append((owner, attr, original, wrapper))

    def wrap_gen(self, owner, attr: str, name: str, on_call=None, on_yield=None):
        """Like ``wrap`` for a generator function: one span per ``next()``."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            if on_call is not None:
                on_call(args, kwargs)
            inner = original(*args, **kwargs)
            try:
                while True:
                    frame = tracer._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(frame)
                    tracer.counts[name + ".yields"] += 1
                    if on_yield is not None:
                        on_yield(item)
                    yield item
            finally:
                inner.close()

        self._patches.append((owner, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)


def instrument(tracer: Tracer) -> None:
    """Register the layer boundaries of every measured ``mmcut`` module."""
    from mmcut import (branching, enum_cluster, enum_kernels, graphs,
                       modulators, subcubic, treewidth)

    t = tracer
    c = t.counts
    t.wrap(graphs, "parse_graph", "graphs.parse")
    t.wrap(treewidth, "parse_td", "graphs.parse")

    def modulator_size(_a, _k, mod):
        c["modulators.size"] += len(mod.vertices)

    for attr in ("approx_vertex_cover", "approx_cluster_modulator",
                 "approx_cocluster_modulator"):
        t.wrap(modulators, attr, "modulators.approx", on_result=modulator_size)

    # The oracle as the kernels and cluster stage 2 call it.
    t.wrap_gen(enum_kernels, "enumerate_all_multicuts", "oracle.enumerate",
               on_yield=lambda _x: c.__setitem__(
                   "enum_kernels.kernel_solutions", c["enum_kernels.kernel_solutions"] + 1))
    t.wrap_gen(enum_cluster, "enumerate_all_multicuts", "oracle.enumerate")

    # Branching: solve_max's decisions and the search nodes via stats_out.
    t.wrap(branching, "solve_max", "branching.solve_max")

    def with_stats(_args, kwargs):
        if kwargs.get("stats_out") is None:
            kwargs = dict(kwargs, stats_out={})
        if t.parent_name() == "branching.solve_max":
            c["branching.decision_calls"] += 1
        return kwargs

    def add_nodes(_a, kwargs, _result):
        c["branching.nodes"] += kwargs["stats_out"]["nodes"]

    t.wrap(branching, "solve_decision", "branching.solve_decision",
           on_call=with_stats, on_result=add_nodes)
    t.wrap(branching, "apply_stopping_rules", "branching.stop_rules")
    t.wrap(branching, "apply_reduction_rules", "branching.reduce_rules")

    # Treewidth: min-fill (self time excludes validate), nicify, DP, transfers.
    t.wrap(treewidth, "heuristic_decomposition", "treewidth.min_fill")
    t.wrap(treewidth.TreeDecomposition, "validate", "treewidth.validate")
    t.wrap(treewidth, "nicify", "treewidth.nicify")

    def width(args, _k, _result):
        c["treewidth.width_sum"] += args[1].width

    def entries(_a, _k, table):
        c["treewidth.table_entries"] += len(table)

    t.wrap(treewidth, "max_parts_tw", "treewidth.dp", on_result=width)
    for kind in ("introduce", "forget", "join"):
        t.wrap(treewidth, f"transfer_{kind}", f"treewidth.{kind}", on_result=entries)

    # Subcubic win-win kernel.
    def witness(_a, _k, result):
        if result.solved is not None:
            c["subcubic.witness_parts"] += result.solved.p

    t.wrap(subcubic, "kernelize_subcubic", "subcubic.kernelize", on_result=witness)
    t.wrap(subcubic, "find_disjoint_cycles", "subcubic.cycle_packing",
           on_result=lambda _a, _k, packing: c.__setitem__(
               "subcubic.cycles", c["subcubic.cycles"] + len(packing.cycles)))

    # Enumeration kernels.
    def kernel_size(_a, _k, result):
        graph = getattr(result, "graph", None)
        if graph is not None:
            c["enum_kernels.kernel_vertices"] += graph.n

    t.wrap_gen(enum_kernels, "enumerate_via_kernel", "enum_kernels.pipeline")
    t.wrap(enum_kernels, "compress_vc", "enum_kernels.compress_vc", on_result=kernel_size)
    t.wrap(enum_kernels, "compress_cocluster", "enum_kernels.compress_cocluster",
           on_result=kernel_size)
    t.wrap_gen(enum_kernels, "lift_vc", "enum_kernels.lift_vc")

    # Cluster pipeline, stages 1-5.  The delay in work units is the number
    # of stage-4 leaves handed to the lifting stage between two emissions.
    def stream_start(_a, _k):
        t._leaves_since_emit = None

    def leaf(_a, _k):
        if t._leaves_since_emit is not None:
            t._leaves_since_emit += 1

    def emitted(_cut):
        gap = t._leaves_since_emit
        if gap is not None and gap > c["enum_cluster.max_leaves_between_emissions"]:
            c["enum_cluster.max_leaves_between_emissions"] = gap
        t._leaves_since_emit = 0

    t.wrap_gen(enum_cluster, "enumerate_cluster", "enum_cluster.pipeline",
               on_call=stream_start)
    t.wrap(enum_cluster, "reduce_cluster_instance", "enum_cluster.stage1",
           on_result=lambda _a, _k, inst: c.__setitem__(
               "enum_cluster.core_vertices",
               c["enum_cluster.core_vertices"] + len(inst.h_vertices)))
    t.wrap_gen(enum_cluster, "enumerate_core", "enum_cluster.stage2")
    t.wrap_gen(enum_cluster, "extend_with_matching_clusters", "enum_cluster.stage3")
    t.wrap_gen(enum_cluster, "extend_with_pendant_clusters", "enum_cluster.stage4")
    t.wrap_gen(enum_cluster, "lift_cluster", "enum_cluster.stage5",
               on_call=leaf, on_yield=emitted)

    # Canonicalisation as the pipelines call it.
    for module in (enum_kernels, enum_cluster):
        t.wrap(module, "max_parts_of_cut", "cuts.max_parts_of_cut")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one round: {name: (value, unit)}."""
    s, c = tracer.self_s, tracer.counts
    out = {}
    for name in TIMED:
        out[name + "_s"] = (s.get(name, 0.0), "s")
    out["modulators.size"] = (c["modulators.size"], "count")
    out["oracle.enumerate_calls"] = (c["oracle.enumerate.calls"], "count")
    out["branching.decision_calls"] = (c["branching.decision_calls"], "count")
    out["branching.nodes"] = (c["branching.nodes"], "count")
    out["treewidth.table_entries"] = (c["treewidth.table_entries"], "count")
    out["treewidth.width_sum"] = (c["treewidth.width_sum"], "count")
    out["subcubic.cycles"] = (c["subcubic.cycles"], "count")
    out["subcubic.witness_parts"] = (c["subcubic.witness_parts"], "count")
    out["enum_kernels.kernel_vertices"] = (c["enum_kernels.kernel_vertices"], "count")
    out["enum_kernels.kernel_solutions"] = (c["enum_kernels.kernel_solutions"], "count")
    out["enum_cluster.core_vertices"] = (c["enum_cluster.core_vertices"], "count")
    out["enum_cluster.core_solutions"] = (c["enum_cluster.stage2.yields"], "count")
    out["enum_cluster.stage4_leaves"] = (c["enum_cluster.stage4.yields"], "count")
    out["enum_cluster.lift_leaves"] = (c["enum_cluster.stage5.calls"], "count")
    out["enum_cluster.emitted"] = (c["enum_cluster.stage5.yields"], "count")
    out["enum_cluster.max_leaves_between_emissions"] = (
        c["enum_cluster.max_leaves_between_emissions"], "count")
    out["cuts.max_parts_of_cut_calls"] = (c["cuts.max_parts_of_cut.calls"], "count")
    return out


# Span names whose summed self time is reported as ``<name>_s``.
TIMED = (
    "modulators.approx",
    "oracle.enumerate",
    "branching.solve_decision",
    "branching.stop_rules",
    "branching.reduce_rules",
    "treewidth.min_fill",
    "treewidth.validate",
    "treewidth.nicify",
    "treewidth.dp",
    "treewidth.introduce",
    "treewidth.forget",
    "treewidth.join",
    "subcubic.kernelize",
    "subcubic.cycle_packing",
    "enum_kernels.compress_vc",
    "enum_kernels.compress_cocluster",
    "enum_kernels.lift_vc",
    "enum_cluster.stage1",
    "enum_cluster.stage2",
    "enum_cluster.stage3",
    "enum_cluster.stage4",
    "enum_cluster.stage5",
    "cuts.max_parts_of_cut",
)
