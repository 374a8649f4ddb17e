"""The benchmark's span tracer still finds every function it wraps.

``bench/spans.py`` replaces ``mmcut`` module attributes by name, so a
renamed or reshaped function would only fail the traced benchmark.  This
runs one operation of each engine under the tracer on a small cycle and
checks two counters against the program's own stats channel."""

import pathlib
import sys

import pytest

from mmcut import (branching, enum_cluster, enum_kernels, modulators, subcubic,
                   treewidth)
from mmcut.graphs import cycle_graph

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    return spans


def test_traced_engines_match_their_stats(spans):
    g = cycle_graph(8)
    tracer = spans.Tracer()
    spans.instrument(tracer)
    tracer.install()
    try:
        # Functions are looked up on their modules so the wrappers see them.
        nodes = 0
        for ell in (4, 5):  # the optimum and one above it
            stats = {}
            branching.solve_decision(g, ell, stats_out=stats)
            nodes += stats["nodes"]
        ntd = treewidth.nicify(treewidth.heuristic_decomposition(g))
        tw_stats = {}
        assert treewidth.max_parts_tw(g, ntd, stats_out=tw_stats) == 4
        subcubic.kernelize_subcubic(g, 4)
        list(enum_kernels.enumerate_via_kernel(g, modulators.approx_vertex_cover(g), 4))
        list(enum_kernels.enumerate_via_kernel(
            g, modulators.approx_cocluster_modulator(g), 4))
        list(enum_cluster.enumerate_cluster(g, modulators.approx_cluster_modulator(g), 4))
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert counts["branching.solve_decision.calls"] == 2
    assert counts["branching.nodes"] == nodes
    # The spans count the tables of the wrapped transfers; every leaf adds
    # one more entry, the empty key, to the DP's own count.
    leaves = sum(1 for kind, _bag, _v in ntd.nodes if kind == treewidth.LEAF)
    assert counts["treewidth.table_entries"] == tw_stats["table_entries"] - leaves
    assert counts["treewidth.width_sum"] == ntd.width == 2
    for name in ("treewidth.nicify", "subcubic.kernelize",
                 "enum_kernels.compress_vc", "enum_kernels.compress_cocluster",
                 "enum_cluster.stage1", "modulators.approx"):
        assert counts[name + ".calls"] >= 1, name
    assert counts["enum_cluster.pipeline.calls"] == 1
    # Uninstalling restores the program's own functions.
    assert treewidth.max_parts_tw.__module__ == "mmcut.treewidth"
