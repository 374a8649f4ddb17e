"""Constructive multicuts for subcubic graphs and the win-win kernel."""

import dataclasses
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

from mmcut import subcubic
from mmcut.cuts import ViolationReport, max_parts_of_cut
from mmcut.graphs import Graph, InvariantError, complete_graph, cycle_graph, path_graph
from mmcut.oracle import max_parts
from mmcut.subcubic import (
    CyclePacking,
    close_cycle_sets,
    find_disjoint_cycles,
    kernelize_subcubic,
    multicut_from_cycles,
    multicut_from_degree_one,
    multicut_from_subdivided_edges,
    second_neighborhood,
    strip_degree_one,
)


def caterpillar(spine: int, legs_per: int) -> Graph:
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i in range(spine):
        for _ in range(legs_per):
            edges.append((i, nxt))
            nxt += 1
    return Graph.from_edges(nxt, edges)


def ladder(k: int) -> Graph:
    edges = []
    for i in range(k):
        edges.append((2 * i, 2 * i + 1))
        if i + 1 < k:
            edges.append((2 * i, 2 * i + 2))
            edges.append((2 * i + 1, 2 * i + 3))
    return Graph.from_edges(2 * k, edges)


def triangle_chain(k: int, link: int = 2) -> Graph:
    """k triangles joined in a row by paths with ``link`` inner vertices."""
    edges = []
    nxt = 0
    anchors = []
    for _ in range(k):
        a, b, c = nxt, nxt + 1, nxt + 2
        edges += [(a, b), (b, c), (a, c)]
        anchors.append((a, c))
        nxt += 3
    for i in range(k - 1):
        prev = anchors[i][1]
        cur = nxt
        for _ in range(link):
            edges.append((prev, cur))
            prev = cur
            cur += 1
            nxt += 1
        edges.append((prev, anchors[i + 1][0]))
    return Graph.from_edges(nxt, edges)


class TestDegreeOne:
    def test_star(self):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        cut = multicut_from_degree_one(star, 1)
        assert cut is not None and cut.p >= 1

    def test_degree_precondition(self):
        spider = Graph.from_edges(7, [(0, i) for i in range(1, 7)])
        with pytest.raises(ValueError):
            multicut_from_degree_one(spider, 1)

    def test_caterpillar_nine_leaves(self):
        g = caterpillar(9, 1)
        assert g.max_degree <= 3
        cut = multicut_from_degree_one(g, 3)
        assert cut is not None and cut.p >= 3
        assert cut.check(g, 3) is None

    def test_not_applicable_when_few_leaves(self):
        assert multicut_from_degree_one(path_graph(10), 2) is None


class TestSubdividedEdges:
    def test_long_path(self):
        g = path_graph(84)
        cut = multicut_from_subdivided_edges(g, 4)
        assert cut is not None and cut.p >= 4 and cut.check(g, 4) is None

    def test_cycle_21(self):
        cut = multicut_from_subdivided_edges(cycle_graph(21), 1)
        assert cut is not None and cut.p >= 1

    def test_cubic_not_applicable(self):
        assert multicut_from_subdivided_edges(complete_graph(4), 1) is None

    def test_too_small_not_applicable(self):
        assert multicut_from_subdivided_edges(path_graph(20), 1) is None


class TestCyclePacking:
    def test_c6_single_cycle(self):
        packing = find_disjoint_cycles(cycle_graph(6))
        assert len(packing.cycles) == 1
        assert packing.check(cycle_graph(6))

    def test_two_triangles_with_path(self):
        g = Graph.from_edges(
            8,
            [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 6),
             (5, 7), (6, 7)],
        )
        packing = find_disjoint_cycles(g)
        assert len(packing.cycles) >= 2
        assert packing.check(g)

    def test_min_degree_precondition(self):
        with pytest.raises(ValueError):
            find_disjoint_cycles(path_graph(5))

    def test_packing_bound_on_chain_family(self):
        # Triangle-rich cubic graphs: the greedy clearly beats the
        # |V>=3| / (4 log2 |V>=3|) existential bound.
        for k in (8, 20, 40):
            g = triangle_chain(k, link=1)
            core, _ = strip_degree_one(g)
            packing = find_disjoint_cycles(core)
            v3 = sum(1 for v in range(core.n) if core.degree(v) >= 3)
            if v3 >= 8:
                assert len(packing.cycles) >= v3 / (4 * math.log2(v3))

    def test_random_cubic_bound(self):
        n = 64
        # Circulant-style cubic graph.
        edges = [(i, (i + 1) % n) for i in range(n)]
        edges += [(i, (i + n // 2) % n) for i in range(n // 2)]
        g = Graph.from_edges(n, edges)
        assert all(g.degree(v) == 3 for v in range(n))
        packing = find_disjoint_cycles(g)
        assert len(packing.cycles) >= n / (4 * math.log2(n))

    def test_check_rejects_short_cycles(self):
        g = cycle_graph(5)
        assert not CyclePacking(((),)).check(g)
        assert not CyclePacking(((0, 1),)).check(g)
        assert not CyclePacking(((0, 1, 2, 3, 4, 0),)).check(g)
        assert CyclePacking(((0, 1, 2, 3, 4),)).check(g)


class TestSecondNeighborhood:
    def test_subcubic_bound(self, rng):
        for _ in range(40):
            n = rng.randint(4, 40)
            edges = set()
            deg = [0] * n
            for _attempt in range(4 * n):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v and deg[u] < 3 and deg[v] < 3:
                    e = (min(u, v), max(u, v))
                    if e not in edges:
                        edges.add(e)
                        deg[u] += 1
                        deg[v] += 1
            g = Graph.from_edges(n, sorted(edges))
            verts = [v for v in range(n) if rng.random() < 0.3]
            if verts:
                assert len(second_neighborhood(g, verts)) <= 10 * len(verts)


class TestMulticutFromCycles:
    def test_single_selection_for_ell_one(self):
        g = cycle_graph(9)
        packing = find_disjoint_cycles(g)
        cut = multicut_from_cycles(g, packing, 1)
        assert cut is not None and cut.p >= 1

    def test_ladder_two_parts(self):
        g = ladder(30)
        packing = find_disjoint_cycles(g)
        cut = multicut_from_cycles(g, packing, 2)
        assert cut is not None and cut.p >= 2 and cut.check(g, 2) is None

    def test_marking_collision_not_applicable(self):
        # Three mutually close triangles: after the first selection the
        # second-neighborhood mark blocks the rest.
        g = triangle_chain(3, link=0)
        packing = CyclePacking(((0, 1, 2), (3, 4, 5), (6, 7, 8)))
        assert packing.check(g)
        assert multicut_from_cycles(g, packing, 3) is None

    def test_closure_absorbs(self):
        # A vertex with two neighbors on the cycle joins its set.
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (2, 4)])
        closed = close_cycle_sets(g, CyclePacking(((0, 1, 2, 3),)))
        assert closed == [frozenset({0, 1, 2, 3, 4})]


class TestStrip:
    def test_strip_preserves_multicuts(self, rng):
        for _ in range(40):
            spine = rng.randint(3, 6)
            g = caterpillar(spine, rng.randint(0, 1))
            core, ids = strip_degree_one(g)
            if core.n == 0:
                continue
            # Any multicut of the core lifts with at least as many parts.
            from mmcut.oracle import enumerate_all_multicuts
            from mmcut.cuts import max_parts_of_cut

            for cut in enumerate_all_multicuts(core, 1):
                lifted_edges = [(ids[u], ids[v]) for u, v in cut.cut_edges]
                lifted = max_parts_of_cut(g, lifted_edges)
                assert lifted.check(g, 1) is None
                assert lifted.p >= cut.p


class TestKernelize:
    def test_ell_one_trivially_solved(self):
        res = kernelize_subcubic(complete_graph(4), 1)
        assert res.solved is not None and res.solved.p >= 1

    def test_k4_kernel(self):
        res = kernelize_subcubic(complete_graph(4), 2)
        assert res.solved is None
        kernel_graph, ell = res.kernel
        assert kernel_graph == complete_graph(4) and ell == 2

    def test_p100_solved(self):
        res = kernelize_subcubic(path_graph(100), 4)
        assert res.solved is not None and res.solved.p >= 4

    def test_solved_witnesses_validate(self, rng):
        for n, ell in ((90, 4), (130, 5), (200, 6)):
            g = path_graph(n)
            res = kernelize_subcubic(g, ell)
            assert res.solved is not None
            assert res.solved.check(g, ell) is None

    def test_small_instances_agree_with_oracle(self, rng):
        for _ in range(40):
            n = rng.randint(1, 9)
            edges = set()
            deg = [0] * n
            for _attempt in range(3 * n):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v and deg[u] < 3 and deg[v] < 3:
                    e = (min(u, v), max(u, v))
                    if e not in edges:
                        edges.add(e)
                        deg[u] += 1
                        deg[v] += 1
            g = Graph.from_edges(n, sorted(edges))
            for ell in (1, 2, 3):
                res = kernelize_subcubic(g, ell)
                if res.solved is not None:
                    assert res.solved.p >= ell
                    assert max_parts(g) >= ell


def reference_strip_low_degree(adj: list[set[int]], alive: set[int]) -> None:
    queue = [v for v in alive if len(adj[v]) <= 1]
    while queue:
        v = queue.pop()
        if v not in alive:
            continue
        if len(adj[v]) > 1:
            continue
        alive.discard(v)
        for u in list(adj[v]):
            adj[u].discard(v)
            adj[v].discard(u)
            if u in alive and len(adj[u]) <= 1:
                queue.append(u)


def reference_shortest_cycle_from(adj, start, cap):
    """Shortest cycle found by BFS from start, as a vertex tuple, or None.

    Only cycles of length <= cap are reported; the BFS stops early once the
    depth makes shorter cycles impossible.
    """
    dist = {start: 0}
    parent = {start: -1}
    frontier = [start]
    best = None
    best_len = cap + 1
    while frontier:
        if 2 * dist[frontier[0]] + 1 > best_len:
            break
        nxt = []
        for a in frontier:
            for b in adj[a]:
                if b == parent[a]:
                    continue
                if b in dist:
                    # Walk both endpoints up to their meeting point.
                    pa, pb = a, b
                    up_a, up_b = [a], [b]
                    while dist[pa] > dist[pb]:
                        pa = parent[pa]
                        up_a.append(pa)
                    while dist[pb] > dist[pa]:
                        pb = parent[pb]
                        up_b.append(pb)
                    while pa != pb:
                        pa, pb = parent[pa], parent[pb]
                        up_a.append(pa)
                        up_b.append(pb)
                    cycle = up_a + up_b[:-1][::-1]
                    if len(cycle) == len(set(cycle)) and len(cycle) < best_len:
                        best_len = len(cycle)
                        best = tuple(cycle)
                else:
                    dist[b] = dist[a] + 1
                    parent[b] = a
                    nxt.append(b)
        frontier = nxt
    return best


def reference_delete_cycle(adj, alive, cycle) -> None:
    for v in cycle:
        alive.discard(v)
        for u in list(adj[v]):
            adj[u].discard(v)
        adj[v].clear()
    reference_strip_low_degree(adj, alive)


def reference_find_disjoint_cycles(graph: Graph) -> CyclePacking:
    """The greedy by its definition, kept as the reference for the packing:
    each round takes the shortest cycle that the capped BFS finds from some
    vertex, the first in vertex order, searching every alive vertex with no
    bound carried between rounds."""
    if graph.min_degree < 2:
        raise ValueError("cycle packing requires minimum degree 2")
    adj = [set(a) for a in graph.adj]
    alive = set(range(graph.n))
    cycles: list[tuple[int, ...]] = []
    while alive:
        best = None
        best_len = len(alive) + 1
        for v in range(graph.n):
            if v not in alive:
                continue
            found = reference_shortest_cycle_from(adj, v, best_len - 1)
            if found is not None and len(found) < best_len:
                best, best_len = found, len(found)
                if best_len == 3:
                    break
        if best is None:
            break
        cycles.append(tuple(sorted(best)))
        reference_delete_cycle(adj, alive, best)
    return CyclePacking(tuple(cycles))


def relabel(rng: random.Random, n: int, edges) -> Graph:
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[a], perm[b]) for a, b in edges])


def disjoint_union(parts) -> tuple[int, list]:
    n, edges = 0, []
    for size, part_edges in parts:
        edges += [(a + n, b + n) for a, b in part_edges]
        n += size
    return n, edges


def cycle_edges(n: int) -> tuple[int, list]:
    return n, [(i, (i + 1) % n) for i in range(n)]


def theta_edges(lengths) -> tuple[int, list]:
    """Two degree-3 vertices 0 and 1 joined by paths with the given numbers
    of inner vertices (at most one of them 0)."""
    n, edges = 2, []
    for inner in lengths:
        prev = 0
        for _ in range(inner):
            edges.append((prev, n))
            prev = n
            n += 1
        edges.append((prev, 1))
    return n, edges


def random_cubic_edges(rng: random.Random, n: int) -> tuple[int, list]:
    """Simple cubic graph by the pairing model with restarts."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = set()
        for a, b in zip(points[::2], points[1::2]):
            e = (min(a, b), max(a, b))
            if a == b or e in edges:
                break
            edges.add(e)
        else:
            return n, sorted(edges)


def triangle_replaced(n: int, edges) -> tuple[int, list]:
    """Each vertex of a cubic graph replaced by a triangle."""
    out = [e for v in range(n)
           for e in ((3 * v, 3 * v + 1), (3 * v + 1, 3 * v + 2), (3 * v, 3 * v + 2))]
    slots = [0] * n
    for a, b in edges:
        out.append((3 * a + slots[a], 3 * b + slots[b]))
        slots[a] += 1
        slots[b] += 1
    return 3 * n, out


def subdivided(rng: random.Random, n: int, edges, most: int) -> tuple[int, list]:
    """Each edge replaced by a path with 0..most inner vertices."""
    out = []
    for a, b in edges:
        prev = a
        for _ in range(rng.randint(0, most)):
            out.append((prev, n))
            prev = n
            n += 1
        out.append((prev, b))
    return n, out


def counting(monkeypatch):
    """Record the start vertex of every BFS the packing makes."""
    calls = []
    original = subcubic._cycle_reach

    def counted(adj, start, dist, parent):
        calls.append(start)
        return original(adj, start, dist, parent)

    monkeypatch.setattr(subcubic, "_cycle_reach", counted)
    return calls


def tau_falls_graph() -> Graph:
    """A random cubic graph on which a vertex's reach tau falls after the
    greedy deletes a cycle, so that caching tau itself as the bound skips
    a search the round needs."""
    rng = random.Random(836)
    n = 2 * rng.randint(20, 60)
    return Graph.from_edges(*random_cubic_edges(rng, n))


class TestPackingMatchesReference:
    """Seeding pure-cycle components, the strip queue and the cached reach
    bounds leave the greedy's packing unchanged."""

    @staticmethod
    def assert_same(graph):
        assert find_disjoint_cycles(graph) == reference_find_disjoint_cycles(graph)

    def test_unions_of_cycles(self):
        rng = random.Random(41)
        for _ in range(60):
            parts = [cycle_edges(rng.randint(3, 40)) for _ in range(rng.randint(1, 6))]
            self.assert_same(relabel(rng, *disjoint_union(parts)))

    def test_theta_graphs(self):
        rng = random.Random(42)
        for _ in range(60):
            parts = []
            for _ in range(rng.randint(1, 4)):
                lengths = [rng.randint(1, 12) for _ in range(3)]
                lengths[rng.randrange(3)] = rng.randint(0, 12)
                parts.append(theta_edges(lengths))
            if rng.random() < 0.5:
                parts.append(cycle_edges(rng.randint(3, 30)))
            self.assert_same(relabel(rng, *disjoint_union(parts)))

    def test_cubic_graphs(self):
        rng = random.Random(43)
        for _ in range(40):
            self.assert_same(Graph.from_edges(*random_cubic_edges(rng, 2 * rng.randint(2, 30))))
        # Large enough that the cached bounds skip most searches.
        for n in (150, 220, 300, 400):
            self.assert_same(Graph.from_edges(*random_cubic_edges(rng, n)))
        self.assert_same(tau_falls_graph())

    def test_triangle_replaced_graphs(self):
        rng = random.Random(44)
        for _ in range(20):
            n, edges = random_cubic_edges(rng, 2 * rng.randint(2, 10))
            self.assert_same(Graph.from_edges(*triangle_replaced(n, edges)))
            self.assert_same(relabel(rng, *triangle_replaced(n, edges)))

    def test_subdivided_cubic_graphs(self):
        # Long degree-2 chains that close into pure cycles once cycles
        # elsewhere are deleted.
        rng = random.Random(45)
        for _ in range(40):
            n, edges = random_cubic_edges(rng, 2 * rng.randint(2, 12))
            self.assert_same(relabel(rng, *subdivided(rng, n, edges, 6)))
        for n, most in ((60, 2), (80, 3), (100, 1), (120, 2)):
            edges = random_cubic_edges(rng, n)[1]
            self.assert_same(relabel(rng, *subdivided(rng, n, edges, most)))

    def test_one_bfs_per_cycle_component(self, monkeypatch):
        calls = counting(monkeypatch)
        packing = find_disjoint_cycles(cycle_graph(1000))
        assert len(packing.cycles) == 1 and len(calls) == 1
        calls.clear()
        n, edges = disjoint_union([cycle_edges(k) for k in (50, 7, 30, 7, 200)])
        packing = find_disjoint_cycles(relabel(random.Random(46), n, edges))
        assert sorted(map(len, packing.cycles)) == [7, 7, 30, 50, 200]
        # Each round searches only from components shorter than its best
        # so far, at most one BFS per remaining component.
        assert len(calls) <= 5 + 4 + 3 + 2 + 1

    def test_bfs_calls_on_random_cubic(self, monkeypatch):
        # A vertex is searched again only once a round's best rises above
        # its cached bound.  Caching only "nothing below this round's best"
        # makes about 7 BFS per vertex here.
        n = 500
        graph = Graph.from_edges(*random_cubic_edges(random.Random(47), n))
        calls = counting(monkeypatch)
        find_disjoint_cycles(graph)
        assert len(calls) <= 4 * n


class TestCycleReach:
    """One uncapped BFS answers the capped search for every cap, and its
    lower bound holds through the greedy's deletions."""

    @staticmethod
    def replay(graph):
        """Every alive vertex's reach at the start of each reference round."""
        adj = [set(a) for a in graph.adj]
        alive = set(range(graph.n))
        dist, parent = [-1] * graph.n, [-1] * graph.n
        packing = reference_find_disjoint_cycles(graph)
        for cycle in packing.cycles + ((),):
            yield adj, alive, {v: subcubic._cycle_reach(adj, v, dist, parent)
                               for v in sorted(alive)}
            assert dist == [-1] * graph.n
            reference_delete_cycle(adj, alive, cycle)

    def test_answers_every_cap(self):
        rng = random.Random(48)
        graphs = [tau_falls_graph()]
        for _ in range(6):
            n, edges = random_cubic_edges(rng, 2 * rng.randint(4, 20))
            graphs.append(relabel(rng, *subdivided(rng, n, edges, 2)))
        for graph in graphs:
            for adj, alive, reach in self.replay(graph):
                for v, (tau, _low, cycle) in reach.items():
                    for cap in (3, tau - 1, tau, tau + 1, len(alive)):
                        if cap >= 3:
                            expect = cycle if cap >= tau else None
                            assert reference_shortest_cycle_from(adj, v, cap) == expect

    def test_bound_never_falls(self):
        taus, lows = {}, {}
        fell = False
        for _adj, _alive, reach in self.replay(tau_falls_graph()):
            for v, (tau, low, _cycle) in reach.items():
                assert lows.get(v, 0) <= low <= tau
                fell |= tau < taus.get(v, tau)
                taus[v], lows[v] = tau, low
        assert fell


def uncut(graph, edges):
    """Drop the construction's matching: one part per component."""
    return max_parts_of_cut(graph, [])


class TestInvariants:
    """The constructions' guarantees are checked explicitly and raise
    InvariantError, also under ``python -O``."""

    def test_pendant_matching_short(self, monkeypatch):
        monkeypatch.setattr(subcubic, "max_parts_of_cut", uncut)
        with pytest.raises(InvariantError, match="pendant matching"):
            multicut_from_degree_one(caterpillar(9, 1), 3)

    def test_subdivided_edges_short(self, monkeypatch):
        monkeypatch.setattr(subcubic, "max_parts_of_cut", uncut)
        with pytest.raises(InvariantError, match="subdivided-edge"):
            multicut_from_subdivided_edges(path_graph(84), 4)

    def test_cycle_boundaries_short(self, monkeypatch):
        g = ladder(30)
        packing = find_disjoint_cycles(g)
        monkeypatch.setattr(subcubic, "max_parts_of_cut", uncut)
        with pytest.raises(InvariantError, match="cycle-boundary"):
            multicut_from_cycles(g, packing, 2)

    def test_closures_overlap(self):
        # Vertex 6 has two neighbours on each triangle, which only a
        # graph above maximum degree 3 allows.
        g = Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                 (6, 0), (6, 1), (6, 3), (6, 4)])
        with pytest.raises(InvariantError, match="overlap"):
            close_cycle_sets(g, CyclePacking(((0, 1, 2), (3, 4, 5))))

    def test_lifted_witness_invalid(self, monkeypatch):
        monkeypatch.setattr(subcubic, "validate_multicut",
                            lambda graph, part_of, ell: ViolationReport("too-few-parts", ()))
        with pytest.raises(InvariantError, match="lifted witness"):
            kernelize_subcubic(path_graph(100), 4)

    def test_lifted_witness_short(self, monkeypatch):
        # A construction that misses its target must not let the whole
        # graph through as a kernel.
        monkeypatch.setattr(subcubic, "_component_construction",
                            lambda sub, target: max_parts_of_cut(sub, [(49, 50)]))
        with pytest.raises(InvariantError, match="2 parts, fewer than 4"):
            kernelize_subcubic(path_graph(100), 4)

    def test_kernel_too_large(self, monkeypatch):
        monkeypatch.setattr(subcubic, "KERNEL_SIZE_FACTOR", 1)
        with pytest.raises(InvariantError, match="constructions must succeed"):
            kernelize_subcubic(complete_graph(4), 2)

    def test_core_lift_loses_parts(self, monkeypatch):
        original = subcubic.multicut_from_cycles

        def inflated(graph, packing, ell):
            cut = original(graph, packing, ell)
            return None if cut is None else dataclasses.replace(cut, p=cut.p + 1)

        monkeypatch.setattr(subcubic, "multicut_from_cycles", inflated)
        with pytest.raises(InvariantError, match="lost parts"):
            kernelize_subcubic(ladder(30), 2)

    def test_checks_run_under_optimize(self):
        code = (
            "from mmcut.graphs import Graph, InvariantError\n"
            "from mmcut.subcubic import CyclePacking, close_cycle_sets\n"
            "g = Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),\n"
            "                         (6, 0), (6, 1), (6, 3), (6, 4)])\n"
            "try:\n"
            "    close_cycle_sets(g, CyclePacking(((0, 1, 2), (3, 4, 5))))\n"
            "except InvariantError:\n"
            "    print('raised')\n"
        )
        # Import the package under test, wherever it was found.
        env = {**os.environ,
               "PYTHONPATH": str(pathlib.Path(subcubic.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout == "raised\n"
