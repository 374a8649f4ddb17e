"""Enumeration kernels: vertex cover compressor/lifting and the co-cluster
case analysis."""

import pytest

from mmcut.enum_kernels import (
    CoclusterDelegate,
    CoclusterReduced,
    compress_cocluster,
    compress_vc,
    enumerate_via_kernel,
    lift_vc,
)
from mmcut.graphs import Graph, complete_graph, path_graph
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
        result = compress_cocluster(g, s, 2)
        assert isinstance(result, CoclusterReduced)
        assert result.graph.n <= 2 * len(s)

    def test_case_a_busy_modulator_vertex_joins_blob(self):
        # A modulator vertex with two remainder neighbors is completed to
        # the remainder and leaves the modulator.
        g, s = build_cocluster_instance(
            [(0, 1), (1, 2)], [1, 1, 1], [(0, 0), (0, 1), (1, 2), (2, 2)]
        )
        result = compress_cocluster(g, s, 2)
        assert isinstance(result, CoclusterReduced)
        assert result.graph.n <= 2 * len(s)

    def test_case_b_dispatch(self):
        g, s = build_cocluster_instance(
            [(0, 1), (1, 2)], [2, 3], [(0, 0), (1, 2), (2, 4)]
        )
        result = compress_cocluster(g, s, 2)
        assert isinstance(result, CoclusterReduced)
        assert result.graph.n <= 2 * len(s) + 2

    def test_case_c_delegates_to_cover(self):
        g, s = build_cocluster_instance([(0, 1)], [3], [(0, 0), (1, 1)])
        result = compress_cocluster(g, s, 2)
        assert isinstance(result, CoclusterDelegate)
        assert result.cover == s  # edgeless remainder: S already covers

    def test_case_c_small_two_sided(self):
        g, s = build_cocluster_instance([(0, 1)], [2, 2], [(0, 0)])
        result = compress_cocluster(g, s, 2)
        assert isinstance(result, CoclusterDelegate)
        assert len(result.cover) <= len(s) + 2

    def test_invalid_modulator(self):
        with pytest.raises(ValueError):
            compress_cocluster(path_graph(5), frozenset({0}), 2)

    def test_rule_safeness_solution_sets_match(self, rng):
        # Whenever the reducer produces an instance, its multicuts coincide
        # with the original graph's, edge for edge.
        for _ in range(80):
            g = random_graph(rng, rng.randint(2, 8), rng.choice([0.3, 0.5, 0.8]))
            s = approx_cocluster_modulator(g)
            result = compress_cocluster(g, s, 1)
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
        result = compress_cocluster(g, s, 1)
        assert isinstance(result, CoclusterReduced)
        assert result.graph.n <= 2 * 3 + 2
        mod = Modulator("co-cluster", s)
        want = {
            c.cut_edges
            for c in enumerate_all_multicuts(g, 1, limit=g.n)
        }
        got = {c.cut_edges for c in enumerate_via_kernel(g, mod, 1)}
        assert got == want


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
