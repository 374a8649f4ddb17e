"""Enumeration kernels: vertex cover compressor/lifting and the co-cluster
case analysis."""

import dataclasses
import itertools
import os
import pathlib
import subprocess
import sys

import pytest

from mmcut import enum_kernels
from mmcut.cuts import Edge, max_parts_of_cut
from mmcut.enum_kernels import (
    CoclusterDelegate,
    CoclusterReduced,
    compress_cocluster,
    compress_vc,
    enumerate_via_kernel,
    lift_vc,
)
from mmcut.graphs import Graph, InvariantError, complete_graph, path_graph
from mmcut.modulators import (
    Modulator,
    approx_cocluster_modulator,
    approx_vertex_cover,
)
from mmcut.oracle import enumerate_all_multicuts

from conftest import oracle_solution_set, random_graph


def star(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class TestCompressVc:
    def test_k2(self):
        kern = compress_vc(path_graph(2), frozenset({0}))
        assert kern.graph.n == 2 and kern.graph.m == 1

    def test_star_keeps_one_leaf(self):
        kern = compress_vc(star(5), frozenset({0}))
        assert kern.graph.n == 2
        assert kern.pendant_groups[0] == tuple((0, i) for i in range(1, 6))
        assert kern.retained[0] == (0, 1)

    def test_pair_marks_at_most_three(self):
        g = Graph.from_edges(
            7, [(0, i) for i in range(2, 7)] + [(1, i) for i in range(2, 7)]
        )
        kern = compress_vc(g, frozenset({0, 1}))
        assert len(kern.marked) == 3
        assert kern.marked == frozenset({2, 3, 4})  # smallest ids win

    def test_requires_cover(self):
        with pytest.raises(ValueError):
            compress_vc(path_graph(3), frozenset({0}))

    def test_isolated_vertices_left_out(self, rng):
        seen = 0
        for _ in range(150):
            g = random_graph(rng, rng.randint(3, 9), 0.25)
            core_ids = [v for v in range(g.n) if g.degree(v) > 0]
            isolated = [v for v in range(g.n) if g.degree(v) == 0]
            if not core_ids or not isolated:
                continue
            seen += 1
            core, _ = g.induced(core_ids)
            core_cover = approx_vertex_cover(core).vertices
            cover = {core_ids[v] for v in core_cover} | set(isolated[::2])
            kern = compress_vc(g, frozenset(cover))
            assert kern.graph.n == compress_vc(core, core_cover).graph.n
            assert kern.cover == {core_ids[v] for v in core_cover}
            for ell in (1, 2, 3):
                stream = [
                    c.cut_edges for c in enumerate_via_kernel(
                        g, Modulator("vertex-cover", frozenset(cover)), ell
                    )
                ]
                assert len(stream) == len(set(stream))
                assert set(stream) == oracle_solution_set(g, ell)
        assert seen >= 50

    def test_size_bound(self, rng):
        for _ in range(100):
            g = random_graph(rng, rng.randint(2, 9), 0.4)
            core = [v for v in range(g.n) if g.degree(v) > 0]
            if not core:
                continue
            sub, _ = g.induced(core)
            cover = approx_vertex_cover(sub)
            kern = compress_vc(sub, cover)
            k = len(cover.vertices)
            assert kern.graph.n <= 2 * k + 3 * (k * (k - 1) // 2)


class TestLiftVc:
    def test_no_pendant_edges_singleton_stream(self):
        g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        kern = compress_vc(g, frozenset({0, 1}))
        cut = next(iter(enumerate_all_multicuts(kern.graph, 2)))
        lifted = list(lift_vc(g, kern, cut.cut_edges))
        assert len(lifted) == 1

    def test_group_of_four_gives_four(self):
        g = star(4)
        kern = compress_vc(g, frozenset({0}))
        # The kernel is a K2; its cut edge is the retained pendant edge.
        lifted = list(lift_vc(g, kern, frozenset({(0, 1)})))
        assert len(lifted) == 4
        assert len({c.cut_edges for c in lifted}) == 4
        assert len({c.p for c in lifted}) == 1

    def test_two_groups_product(self):
        # Two cover vertices with pendant groups of sizes 2 and 3, linked.
        edges = [(0, 1)] + [(0, i) for i in (2, 3)] + [(1, i) for i in (4, 5, 6)]
        g = Graph.from_edges(7, edges)
        kern = compress_vc(g, frozenset({0, 1}))
        to_h = {v: i for i, v in enumerate(kern.to_g)}
        cut_edges = frozenset(
            (min(to_h[a], to_h[b]), max(to_h[a], to_h[b]))
            for a, b in (kern.retained[0], kern.retained[1])
        )
        lifted = list(lift_vc(g, kern, cut_edges))
        assert len(lifted) == 6


def per_member_lift_vc(graph, kern, kernel_cut):
    """The lifting as first written: ``max_parts_of_cut`` on every member
    of the class.  Kept verbatim as the reference for ``lift_vc``."""
    base: set[Edge] = set()
    groups: list[tuple[Edge, ...]] = []
    # Translate kernel edges to original ids first.
    translated = {
        (min(kern.to_g[u], kern.to_g[v]), max(kern.to_g[u], kern.to_g[v]))
        for u, v in kernel_cut
    }
    retained_edges = {edge: x for x, edge in kern.retained.items()}
    for edge in sorted(translated):
        x = retained_edges.get(edge)
        if x is not None:
            groups.append(kern.pendant_groups[x])
        else:
            base.add(edge)
    expected_parts = None
    for combo in itertools.product(*groups):
        cut_edges = base.union(combo)
        cut = max_parts_of_cut(graph, cut_edges)
        assert cut.cut_edges == frozenset(cut_edges), "lifted cut must be exact"
        if expected_parts is None:
            expected_parts = cut.p
        assert cut.p == expected_parts, "pendant swaps preserve part counts"
        yield cut


def pendant_graph(rng) -> tuple[Graph, frozenset[int]]:
    """A sparse random core, pendant groups of 1-4 leaves on up to three
    hosts and at most one K2 component, with a vertex cover: the core plus
    one end of the K2, whose group is then that K2's edge.  Vertex ids
    are shuffled, so pendants may be smaller than their host."""
    n = rng.randint(1, 5)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    nxt = n
    for host in rng.sample(range(n), rng.randint(0, min(n, 3))):
        for _ in range(rng.randint(1, 4)):
            edges.append((host, nxt))
            nxt += 1
    cover = set(range(n))
    for _ in range(rng.randint(0, 1)):
        edges.append((nxt, nxt + 1))
        cover.add(nxt + rng.randint(0, 1))
        nxt += 2
    ids = list(range(nxt))
    rng.shuffle(ids)
    return (Graph.from_edges(nxt, [(ids[u], ids[v]) for u, v in edges]),
            frozenset(ids[v] for v in cover))


def caterpillar(spine: int, legs: int) -> Graph:
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i in range(spine):
        for _ in range(legs):
            edges.append((i, nxt))
            nxt += 1
    return Graph.from_edges(nxt, edges)


class TestLiftVcEquivalence:
    """``lift_vc`` canonicalizes each class once and labels the other
    members from a template; every stream must match the per-member
    lifting exactly, in content and order."""

    def test_classes_match_per_member_lifting(self, rng):
        swapped_groups = k2_classes = 0
        for _ in range(300):
            g, cover = pendant_graph(rng)
            kern = compress_vc(g, cover)
            k2_hosts = [x for x in kern.pendant_groups if g.degree(x) == 1]
            for h_cut in enum_kernels._h_solution_edge_sets(kern.graph):
                got = list(lift_vc(g, kern, h_cut))
                assert got == list(per_member_lift_vc(g, kern, h_cut))
                for cut in got:
                    want = max_parts_of_cut(g, cut.cut_edges)
                    assert cut.part_of == want.part_of
                    assert cut.p == want.p
                    assert cut.cut_edges == want.cut_edges
                swapped_groups = max(swapped_groups, sum(
                    1 for x, group in kern.pendant_groups.items()
                    if len(group) > 1 and kern.retained[x] in got[0].cut_edges
                ))
                k2_classes += any(
                    kern.retained[x] in got[0].cut_edges for x in k2_hosts)
        # The corpus exercises several swappable groups in one class and
        # classes that cut a K2 component.
        assert swapped_groups >= 3 and k2_classes > 0

    def test_pipeline_streams_match(self, rng, monkeypatch):
        cut_short = 0
        for _ in range(150):
            g, cover = pendant_graph(rng)
            mod = Modulator("vertex-cover", cover)
            streams = {}
            for ell in (1, 3, 5):
                streams[ell] = list(enumerate_via_kernel(g, mod, ell))
                with monkeypatch.context() as m:
                    m.setattr(enum_kernels, "lift_vc", per_member_lift_vc)
                    assert streams[ell] == list(enumerate_via_kernel(g, mod, ell))
            # A member below ell that cuts a swappable group's edge belongs
            # to a class of several members, cut off after its first.
            swappable = {
                e for group in compress_vc(g, cover).pendant_groups.values()
                if len(group) > 1 for e in group
            }
            cut_short += any(c.p < 5 and c.cut_edges & swappable for c in streams[1])
        assert cut_short > 0


class TestLiftWork:
    def test_one_canonicalization_per_kernel_solution(self, monkeypatch):
        # caterpillar(5, 4): 99 classes stand for 3,640 solutions.
        # Relabelling the whole graph for every member fails this gate.
        g = caterpillar(5, 4)
        mod = approx_vertex_cover(g)
        kernel_solutions = sum(1 for _ in enum_kernels._h_solution_edge_sets(
            compress_vc(g, mod).graph))
        calls = []

        def counted(graph, matching):
            calls.append(1)
            return max_parts_of_cut(graph, matching)

        monkeypatch.setattr(enum_kernels, "max_parts_of_cut", counted)
        solutions = sum(1 for _ in enumerate_via_kernel(g, mod, 1))
        assert (kernel_solutions, solutions) == (99, 3640)
        assert len(calls) == kernel_solutions


class TestVcPipeline:
    def test_p3_with_cover_b(self):
        g = path_graph(3)
        mod = Modulator("vertex-cover", frozenset({1}))
        got = list(enumerate_via_kernel(g, mod, 2))
        assert len(got) == 2

    def test_no_solution_terminates_empty(self):
        g = complete_graph(4)
        got = list(enumerate_via_kernel(g, approx_vertex_cover(g), 2))
        assert got == []

    def test_partition_property(self, rng):
        # Lifted classes are disjoint and cover the oracle's solution set.
        for _ in range(120):
            g = random_graph(rng, rng.randint(1, 8), rng.choice([0.3, 0.6]))
            for ell in (1, 2, 3):
                want = oracle_solution_set(g, ell)
                got = [
                    c.cut_edges
                    for c in enumerate_via_kernel(g, approx_vertex_cover(g), ell)
                ]
                assert len(got) == len(set(got))
                assert set(got) == want


def build_cocluster_instance(s_edges, blob_classes, cross_edges):
    """S vertices first (by count inferred), then blob classes."""
    s_count = 1 + max(
        [max(e) for e in s_edges] + [u for u, _v in cross_edges], default=-1
    )
    blob_ids = []
    nxt = s_count
    for size in blob_classes:
        blob_ids.append(list(range(nxt, nxt + size)))
        nxt += size
    edges = list(s_edges)
    for i, cls_a in enumerate(blob_ids):
        for cls_b in blob_ids[i + 1:]:
            for a in cls_a:
                for b in cls_b:
                    edges.append((a, b))
    flat = [v for cls in blob_ids for v in cls]
    for u, pos in cross_edges:
        edges.append((u, flat[pos]))
    return Graph.from_edges(nxt, edges), frozenset(range(s_count))


class TestCompressCocluster:
    def test_case_a_dispatch_and_bound(self):
        g, s = build_cocluster_instance(
            [(0, 1), (1, 2)], [1, 1, 1], [(0, 0), (1, 1), (2, 2)]
        )
        result = compress_cocluster(g, s)
        assert isinstance(result, CoclusterReduced)
        assert result.graph.n <= 2 * len(s)

    def test_case_a_busy_modulator_vertex_joins_blob(self):
        # A modulator vertex with two remainder neighbors is completed to
        # the remainder and leaves the modulator.
        g, s = build_cocluster_instance(
            [(0, 1), (1, 2)], [1, 1, 1], [(0, 0), (0, 1), (1, 2), (2, 2)]
        )
        result = compress_cocluster(g, s)
        assert isinstance(result, CoclusterReduced)
        assert result.graph.n <= 2 * len(s)

    def test_case_b_dispatch(self):
        g, s = build_cocluster_instance(
            [(0, 1), (1, 2)], [2, 3], [(0, 0), (1, 2), (2, 4)]
        )
        result = compress_cocluster(g, s)
        assert isinstance(result, CoclusterReduced)
        assert result.graph.n <= 2 * len(s) + 2

    def test_case_c_delegates_to_cover(self):
        g, s = build_cocluster_instance([(0, 1)], [3], [(0, 0), (1, 1)])
        result = compress_cocluster(g, s)
        assert isinstance(result, CoclusterDelegate)
        assert result.cover == s  # edgeless remainder: S already covers

    def test_case_c_small_two_sided(self):
        g, s = build_cocluster_instance([(0, 1)], [2, 2], [(0, 0)])
        result = compress_cocluster(g, s)
        assert isinstance(result, CoclusterDelegate)
        assert len(result.cover) <= len(s) + 2

    def test_invalid_modulator(self):
        with pytest.raises(ValueError):
            compress_cocluster(path_graph(5), frozenset({0}))

    def test_rule_safeness_solution_sets_match(self, rng):
        # Whenever the reducer produces an instance, its multicuts coincide
        # with the original graph's, edge for edge.
        for _ in range(80):
            g = random_graph(rng, rng.randint(2, 8), rng.choice([0.3, 0.5, 0.8]))
            s = approx_cocluster_modulator(g)
            result = compress_cocluster(g, s)
            if not isinstance(result, CoclusterReduced):
                continue
            h = result.graph
            translated = set()
            for cut in enumerate_all_multicuts(h, 1, limit=h.n):
                edges = frozenset(
                    (min(result.to_g[u], result.to_g[v]),
                     max(result.to_g[u], result.to_g[v]))
                    for u, v in cut.cut_edges
                )
                translated.add(edges)
            assert translated == oracle_solution_set(g, 1)


class TestCoclusterPipeline:
    def test_oracle_equality(self, rng):
        for _ in range(120):
            g = random_graph(rng, rng.randint(1, 8), rng.choice([0.25, 0.5, 0.8]))
            mod = approx_cocluster_modulator(g)
            for ell in (1, 2, 3):
                want = oracle_solution_set(g, ell)
                got = [c.cut_edges for c in enumerate_via_kernel(g, mod, ell)]
                assert len(got) == len(set(got))
                assert set(got) == want, (g.n, sorted(g.edges()), ell)

    def test_structured_bipartite_with_pendant(self):
        # K_{2,3} plus a modulator vertex pendant to one side.
        edges = [(1 + a, 3 + b) for a in range(2) for b in range(3)]
        edges.append((0, 1))
        g = Graph.from_edges(6, edges)
        mod = approx_cocluster_modulator(g)
        assert mod.check(g)
        for ell in (1, 2):
            want = oracle_solution_set(g, ell)
            got = {c.cut_edges for c in enumerate_via_kernel(g, mod, ell)}
            assert got == want

    def test_compaction_triggered_case(self):
        # Large two-sided remainder forces the compaction to reach the
        # bound; solutions still agree with the oracle.
        edges = []
        left = list(range(3, 7))
        right = list(range(7, 11))
        for a in left:
            for b in right:
                edges.append((a, b))
        edges += [(0, 3), (1, 7), (2, 8), (0, 1)]
        g = Graph.from_edges(11, edges)
        s = frozenset({0, 1, 2})
        result = compress_cocluster(g, s)
        assert isinstance(result, CoclusterReduced)
        assert result.graph.n <= 2 * 3 + 2
        mod = Modulator("co-cluster", s)
        want = {
            c.cut_edges
            for c in enumerate_all_multicuts(g, 1, limit=g.n)
        }
        got = {c.cut_edges for c in enumerate_via_kernel(g, mod, 1)}
        assert got == want


def uncut(graph, matching):
    """Drop the matching: one part per component."""
    return max_parts_of_cut(graph, [])


class TestInvariants:
    """The kernel bounds and lifting checks raise InvariantError, also
    under ``python -O``."""

    def test_vc_kernel_too_large(self, monkeypatch):
        # Two cover vertices with five common neighbours and a pendant
        # each: keeping all five breaks the bound 2k + 3 * C(k, 2) = 7.
        edges = [(x, z) for x in (0, 1) for z in range(2, 7)] + [(0, 7), (1, 8)]
        monkeypatch.setattr(enum_kernels, "VC_PAIR_MARKS", 5)
        with pytest.raises(InvariantError, match="kernel size bound"):
            compress_vc(Graph.from_edges(9, edges), frozenset({0, 1}))

    def test_case_a_kernel_too_large(self, monkeypatch):
        g, s = build_cocluster_instance(
            [(0, 1), (1, 2)], [2, 2, 2], [(0, 0), (1, 2), (2, 4)]
        )
        monkeypatch.setattr(enum_kernels, "_reduce_many_classes",
                            lambda graph, s_set, classes: (graph, tuple(range(g.n))))
        monkeypatch.setattr(enum_kernels, "_compact_from_reduced",
                            lambda hgraph, to_g, s_set: (hgraph, to_g))
        with pytest.raises(InvariantError, match="case A kernel bound"):
            compress_cocluster(g, s)

    def test_case_b_kernel_too_large(self, monkeypatch):
        edges = [(a, b) for a in range(3, 7) for b in range(7, 11)]
        edges += [(0, 3), (1, 7), (2, 8), (0, 1)]
        monkeypatch.setattr(enum_kernels, "_compact_from_reduced",
                            lambda hgraph, to_g, s_set: (hgraph, to_g))
        with pytest.raises(InvariantError, match="case B kernel bound"):
            compress_cocluster(Graph.from_edges(11, edges), frozenset({0, 1, 2}))

    def test_lift_not_exact(self, monkeypatch):
        g = star(4)
        kern = compress_vc(g, frozenset({0}))
        monkeypatch.setattr(enum_kernels, "max_parts_of_cut", uncut)
        with pytest.raises(InvariantError, match="must be exact"):
            list(lift_vc(g, kern, frozenset({(0, 1)})))

    def test_swaps_change_part_count(self, monkeypatch):
        def inflated(graph, matching):
            cut = max_parts_of_cut(graph, matching)
            return dataclasses.replace(cut, p=cut.p + 1)

        g = star(4)
        kern = compress_vc(g, frozenset({0}))
        monkeypatch.setattr(enum_kernels, "max_parts_of_cut", inflated)
        with pytest.raises(InvariantError, match="part count"):
            list(lift_vc(g, kern, frozenset({(0, 1)})))

    def test_cocluster_solution_off_the_graph(self, monkeypatch):
        # The reduced instance's edge runs to a padding vertex.
        reduced = CoclusterReduced(path_graph(2), (0, -1))
        monkeypatch.setattr(enum_kernels, "compress_cocluster",
                            lambda graph, modulator: reduced)
        mod = Modulator("co-cluster", frozenset({0}))
        with pytest.raises(InvariantError, match="only use original edges"):
            list(enumerate_via_kernel(path_graph(2), mod, 1))

    def test_cocluster_translation_not_exact(self, monkeypatch):
        g, s = build_cocluster_instance(
            [(0, 1), (1, 2)], [1, 1, 1], [(0, 0), (1, 1), (2, 2)]
        )
        monkeypatch.setattr(enum_kernels, "max_parts_of_cut", uncut)
        with pytest.raises(InvariantError, match="translated cut must be exact"):
            list(enumerate_via_kernel(g, Modulator("co-cluster", s), 1))

    def test_checks_run_under_optimize(self):
        code = (
            "from mmcut import cuts, enum_kernels\n"
            "from mmcut.graphs import Graph, InvariantError\n"
            "g = Graph.from_edges(5, [(0, i) for i in range(1, 5)])\n"
            "kern = enum_kernels.compress_vc(g, frozenset({0}))\n"
            "def uncut(graph, matching):\n"
            "    return cuts.max_parts_of_cut(graph, [])\n"
            "enum_kernels.max_parts_of_cut = uncut\n"
            "try:\n"
            "    list(enum_kernels.lift_vc(g, kern, frozenset({(0, 1)})))\n"
            "except InvariantError:\n"
            "    print('raised')\n"
            "edges = [(a, b) for a in range(3, 7) for b in range(7, 11)]\n"
            "edges += [(0, 3), (1, 7), (2, 8), (0, 1)]\n"
            "enum_kernels._compact_from_reduced = lambda hgraph, to_g, s_set: (hgraph, to_g)\n"
            "try:\n"
            "    enum_kernels.compress_cocluster(Graph.from_edges(11, edges), {0, 1, 2})\n"
            "except InvariantError as err:\n"
            "    print(err)\n"
        )
        # Import the package under test, wherever it was found.
        env = {**os.environ,
               "PYTHONPATH": str(pathlib.Path(enum_kernels.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout == "raised\ncase B kernel bound violated\n"


class TestDelaySoftRegression:
    def test_vc_lifting_delay_stays_polynomial(self):
        # Soft check: max inter-emission gap on growing pendant-group
        # families fits a low-degree polynomial in the graph size.
        import time

        import numpy as np

        sizes = [60, 120, 240, 480]
        cases = []
        for n in sizes:
            spokes = n // 2
            edges = [(0, 1)]
            nxt = 2
            for i in range(spokes - 1):
                edges.append((i % 2, nxt))
                nxt += 1
            g = Graph.from_edges(nxt, edges)
            cases.append((g, approx_vertex_cover(g)))
        # The gaps are a fraction of a millisecond, so one scheduler hiccup
        # outweighs them: every round streams each size once, and the
        # smallest worst gap over the rounds is kept per size.
        worst = [None] * len(cases)
        for _ in range(10):
            for i, (g, mod) in enumerate(cases):
                gaps = []
                last = time.perf_counter()
                for count, _cut in enumerate(enumerate_via_kernel(g, mod, 1)):
                    now = time.perf_counter()
                    gaps.append(now - last)
                    last = now
                    if count >= 150:
                        break
                gap = max(gaps[1:])
                worst[i] = gap if worst[i] is None else min(worst[i], gap)
        xs = np.asarray(sizes, float)
        ys = np.asarray(worst, float)
        coeffs = np.polyfit(xs, ys, 2)
        pred = np.polyval(coeffs, xs)
        ss_tot = float(np.sum((ys - ys.mean()) ** 2))
        r2 = 1.0 if ss_tot == 0 else 1 - float(np.sum((ys - pred) ** 2)) / ss_tot
        assert r2 >= 0.8, (worst, r2)
