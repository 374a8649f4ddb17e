"""Branch-and-reduce solver: rules, branching configurations, search."""

import collections
import itertools

import pytest

from mmcut import branching
from mmcut.branching import (
    _DETECTORS,
    FREE,
    PartialState,
    _find_reduction,
    apply_reduction_rules,
    apply_stopping_rules,
    first_configuration,
    select_branch,
    solve_decision,
    solve_max,
)
from mmcut.cuts import Multicut, canonicalize, validate_multicut
from mmcut.graphs import Graph, InvariantError, complete_graph, cycle_graph, path_graph
from mmcut.oracle import max_parts

from conftest import random_graph


def make_state(graph, ell, assignments):
    state = PartialState(graph, ell)
    for v, p in assignments:
        assert state.assign_vertex(v, p), (v, p)
    return state


class TestStoppingRules:
    def test_s1_two_strong_contacts(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        state = make_state(g, 2, [(1, 0), (2, 0), (3, 1), (4, 1)])
        assert apply_stopping_rules(state) == "S1"

    def test_s2_three_parts(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        state = make_state(g, 3, [(1, 0), (2, 1), (3, 2)])
        assert apply_stopping_rules(state) == "S2"

    def test_s3_crossing_edge_with_common_free_neighbor(self):
        g = complete_graph(3)
        state = make_state(g, 2, [(0, 0), (1, 1)])
        assert apply_stopping_rules(state) == "S3"

    def test_second_crossing_refused(self):
        # S4 states are unreachable: the new vertex would cross twice, or
        # its neighbor already crosses once.
        for first, refused in ([(0, 0), (2, 1)], (1, 2)), ([(0, 0), (1, 1)], (2, 2)):
            state = make_state(path_graph(3), 3, first)
            cross = state.cross[:]
            assert not state.assign_vertex(*refused)
            assert state.assign[refused[0]] == FREE and state.cross == cross

    def test_all_free_alive(self):
        state = PartialState(cycle_graph(5), 2)
        assert apply_stopping_rules(state) is None


class TestReductionRules:
    def test_r1_adjacent_free_pair(self):
        g = complete_graph(3)
        state = make_state(g, 1, [(0, 0)])
        reduced, trace = apply_reduction_rules(state)
        assert reduced.assign == [0, 0, 0]
        assert trace[0] == ("R1", ((1, 0), (2, 0)))

    def test_r2_unique_strong_part(self):
        g = Graph.from_edges(5, [(0, 3), (0, 4), (1, 2)])
        state = make_state(g, 3, [(1, 0), (2, 1), (3, 2), (4, 2)])
        reduced, trace = apply_reduction_rules(state)
        assert ("R2", ((0, 2),)) in trace
        assert reduced.assign[0] == 2

    def test_r3_crossing_edge_forces_neighborhoods(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3)])
        state = make_state(g, 2, [(0, 0), (1, 1)])
        reduced, trace = apply_reduction_rules(state)
        assert reduced.assign == [0, 1, 0, 1]
        assert ("R3", ((2, 0), (3, 1))) in trace

    def test_fixed_point_empty_trace(self):
        state = make_state(path_graph(4), 2, [(0, 0)])
        reduced, trace = apply_reduction_rules(state)
        assert trace == []
        assert reduced.assign == state.assign

    def test_dead_recorded(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        state = make_state(g, 2, [(1, 0), (2, 0), (3, 1), (4, 1)])
        reduced, trace = apply_reduction_rules(state)
        assert reduced is None
        assert trace[-1][0] == "S1"

    def test_free_shrinks_each_application(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(3, 8), 0.5)
            ell = rng.randint(1, 3)
            state = PartialState(g, ell)
            for v in range(g.n):
                if rng.random() < 0.4:
                    state.assign_vertex(v, rng.randint(0, state.used))
            before = state.free_count
            reduced, trace = apply_reduction_rules(state)
            if reduced is not None:
                moves = sum(len(a[1]) for a in trace)
                assert reduced.free_count == before - moves

    def test_trace_replay(self):
        g = complete_graph(3)
        state = make_state(g, 1, [(0, 0)])
        reduced, trace = apply_reduction_rules(state)
        replayed = state.copy()
        for _rule, moves in trace:
            for v, p in moves:
                assert replayed.assign_vertex(v, p)
        assert replayed.assign == reduced.assign


class TestBranching:
    def test_b3_two_children_keep_pair_together(self):
        g = Graph.from_edges(4, [(0, 2), (1, 2), (2, 3)])
        state = make_state(g, 2, [(0, 0), (1, 1)])
        assert first_configuration(state)[0] == "B3"
        rule, children = select_branch(state)
        assert rule == "B3" and len(children) == 2
        assert [c.assign[2] == c.assign[3] for c in children] == [True, True]
        assert {c.assign[2] for c in children} == {0, 1}

    def test_b8_one_child_per_part(self):
        g = Graph.from_edges(7, [(0, 3), (0, 4), (3, 5), (5, 1), (4, 6)])
        state = make_state(g, 3, [(0, 0), (1, 1), (2, 2)])
        assert first_configuration(state)[0] == "B8"
        rule, children = select_branch(state)
        assert rule == "B8" and len(children) == 3  # one per part for the branch vertex
        assert {c.assign[3] for c in children} == {0, 1, 2}

    def test_completion_single_child_validates(self):
        g = Graph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
        )
        state = make_state(g, 2, [(0, 0)])
        reduced, _ = apply_reduction_rules(state)
        assert reduced.assign[:3] == [0, 0, 0]
        assert first_configuration(reduced) is None
        rule, children = select_branch(reduced)
        assert rule == "completion" and len(children) == 1
        child = children[0]
        assert child.free_count == 0
        assert validate_multicut(g, child.assign, 2) is None

    def test_children_strictly_shrink_free(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(3, 8), 0.5)
            state = PartialState(g, rng.randint(2, 4))
            state.assign_vertex(0, 0)
            reduced, _ = apply_reduction_rules(state)
            if reduced is None or reduced.free_count == 0:
                continue
            for child in select_branch(reduced)[1]:
                assert child.free_count < reduced.free_count


class TestSolve:
    @pytest.mark.parametrize(
        "graph,ell,expect_yes",
        [
            (complete_graph(3), 2, False),
            (cycle_graph(6), 3, True),
            (path_graph(6), 4, True),
            (cycle_graph(7), 3, True),  # needs the exhaustive fallback
        ],
    )
    def test_decisions(self, graph, ell, expect_yes):
        cut = solve_decision(graph, ell)
        assert (cut is not None) == expect_yes
        if cut is not None:
            assert cut.p >= ell
            assert validate_multicut(graph, cut.part_of, ell) is None

    def test_solve_max_examples(self):
        assert solve_max(complete_graph(4))[0] == 1
        bowtie = Graph.from_edges(
            7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3), (5, 6)]
        )
        p, cut = solve_max(bowtie)
        assert p == max_parts(bowtie)
        edgeless = Graph(5, [[] for _ in range(5)])
        p, cut = solve_max(edgeless)
        assert p == 5 and cut.p == 5

    def test_oracle_equivalence_sample(self, rng):
        for _ in range(250):
            n = rng.randint(1, 8)
            g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.9]))
            want = max_parts(g)
            got, cut = solve_max(g)
            assert got == want, (g.n, sorted(g.edges()))
            assert cut.check(g, got) is None

    def test_dead_verdicts_sound(self, rng):
        # A stopping verdict must mean no extension of the assignment exists.
        for _ in range(120):
            n = rng.randint(3, 6)
            g = random_graph(rng, n, 0.5)
            ell = rng.randint(2, 3)
            state = PartialState(g, ell)
            for v in range(n):
                if rng.random() < 0.5:
                    state.assign_vertex(v, rng.randint(0, min(state.used, ell - 1)))
            if apply_stopping_rules(state) is None:
                continue
            free = state.free_vertices()
            extendable = False
            for labels in itertools.product(range(ell), repeat=len(free)):
                assign = state.assign[:]
                for v, p in zip(free, labels):
                    assign[v] = p
                try:
                    cut = canonicalize(g, assign)
                except ValueError:
                    continue
                if cut.p >= ell:
                    extendable = True
                    break
            assert not extendable

    def test_node_counts_reported(self):
        stats = {}
        solve_decision(cycle_graph(8), 3, stats_out=stats)
        assert stats["nodes"] >= 1

    def test_node_count_is_search_calls(self, monkeypatch):
        # "nodes" counts the search's calls, itself included.
        calls = collections.Counter()
        search = branching._search

        def counted(state, stats):
            calls["search"] += 1
            return search(state, stats)

        monkeypatch.setattr(branching, "_search", counted)
        for g, ell in ((cycle_graph(9), 4), (path_graph(10), 5), (complete_graph(4), 2)):
            calls.clear()
            stats = {"nodes": 99}
            solve_decision(g, ell, stats_out=stats)
            assert stats["nodes"] == calls["search"] >= 1

    def test_branchings_count_select_branch_calls(self, monkeypatch):
        # "branchings" counts the rule of every select_branch call.
        calls = collections.Counter()
        select = branching.select_branch

        def counted(state):
            rule, children = select(state)
            calls[rule] += 1
            return rule, children

        monkeypatch.setattr(branching, "select_branch", counted)
        seen = collections.Counter()
        for g, ell in ((cycle_graph(9), 4), (cycle_graph(9), 5),
                       (path_graph(10), 7), (complete_graph(4), 2)):
            calls.clear()
            stats = {"branchings": {"B1": 99}}
            solve_decision(g, ell, stats_out=stats)
            assert stats["branchings"] == calls
            assert sum(stats["branchings"].values()) == sum(calls.values())
            seen.update(calls)
        assert set(seen) <= {"pendant", "B1", "B2", "B3", "B4", "B4'", "B5",
                             "B7", "B8", "completion", "fallback"}
        assert seen["fallback"] >= 1 and len(seen) >= 2

    def test_short_witness_raises(self, monkeypatch):
        # A witness with fewer parts than asked for is a broken invariant.
        g = cycle_graph(8)
        monkeypatch.setattr(branching, "_search", lambda state, stats: ([0] * g.n, []))
        with pytest.raises(InvariantError, match="1 parts, fewer than 3"):
            solve_decision(g, 3)

    def test_pendant_heavy_graph(self):
        # Star of paths: many pendants, distinct hosts.
        edges = []
        for i in range(5):
            edges.append((0, 1 + 2 * i))
            edges.append((1 + 2 * i, 2 + 2 * i))
        g = Graph.from_edges(11, edges)
        assert solve_max(g)[0] == max_parts(g)

    def test_disconnected_input(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
        p, cut = solve_max(g)
        assert p == max_parts(g) == 4
        assert cut.p == 4


class TestWitnessObject:
    def test_witness_is_canonical(self):
        cut = solve_decision(cycle_graph(6), 3)
        assert isinstance(cut, Multicut)
        assert cut.check(cycle_graph(6), 3) is None


class TestSpecSolveExamples:
    def test_two_triangles_with_bridge(self):
        g = Graph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
        )
        p, cut = solve_max(g)
        assert p == 2
        assert cut.cut_edges == frozenset({(2, 3)})

    def test_trace_out_replays_to_witness(self):
        g = cycle_graph(6)
        trace = []
        cut = solve_decision(g, 3, trace_out=trace)
        assert cut is not None and trace
        state = PartialState(g, 3)
        # Re-apply every recorded assignment from scratch; stopping entries
        # carry no assignments.
        for _rule, moves in trace:
            for v, p in moves:
                assert state.assign_vertex(v, p)
        assert state.free_count != g.n

    def test_trace_out_stays_empty_without_witness(self):
        trace = []
        assert solve_decision(complete_graph(4), 2, trace_out=trace) is None
        assert trace == []


class TestAscendingSolveMax:
    @staticmethod
    def count_decisions(monkeypatch):
        """Record the ell of every decision call solve_max makes."""
        calls = []
        inner = branching.solve_decision

        def counted(graph, ell, *args, **kwargs):
            calls.append(ell)
            return inner(graph, ell, *args, **kwargs)

        monkeypatch.setattr(branching, "solve_decision", counted)
        return calls

    @staticmethod
    def several_components(rng):
        """Disjoint union of one or two random blocks plus 0-2 isolated
        vertices, at most 12 vertices (the oracle's default bound)."""
        edges, n = [], 0
        for _ in range(rng.randint(1, 2)):
            block = random_graph(rng, rng.randint(1, 5), rng.choice([0.3, 0.6, 0.9]))
            edges += [(u + n, v + n) for u, v in block.edges()]
            n += block.n
        return Graph.from_edges(n + rng.randint(0, 2), edges)

    def test_matches_oracle_within_call_budget(self, rng, monkeypatch):
        calls = self.count_decisions(monkeypatch)
        multi = isolated = 0
        for _ in range(200):
            g = self.several_components(rng)
            components = len(g.components())
            multi += components > 1
            isolated += any(g.degree(v) == 0 for v in range(g.n))
            calls.clear()
            value, cut = solve_max(g)
            assert value == max_parts(g), (g.n, sorted(g.edges()))
            assert cut.p == value and cut.check(g, value) is None
            assert len(calls) <= value - components + 1
            assert calls == sorted(set(calls))
        assert multi >= 100 and isolated >= 50

    def test_edgeless_graph_makes_no_decision_call(self, monkeypatch):
        calls = self.count_decisions(monkeypatch)
        for n in (0, 1, 6):
            value, cut = solve_max(Graph(n, [[] for _ in range(n)]))
            assert value == cut.p == n
        assert calls == []


# The rule scans as they were before each became a single pass per call.
# They are the reference the current scans must reproduce exactly.


def _ref_apply_stopping_rules(state: PartialState) -> str | None:
    """First stopping rule that proves no extension exists, else None."""
    graph = state.graph
    assign = state.assign
    # S1: a free vertex with two strong part contacts.
    for v in range(graph.n):
        if assign[v] != FREE:
            continue
        cont = state.part_contacts(v)
        strong = sum(1 for c in cont.values() if c >= 2)
        if strong >= 2:
            return "S1"
    # S2: a free vertex touching three parts.
    for v in range(graph.n):
        if assign[v] == FREE and len(state.part_contacts(v)) >= 3:
            return "S2"
    # S3: a crossing edge whose endpoints share a free neighbor.
    for u in range(graph.n):
        pu = assign[u]
        if pu == FREE:
            continue
        for v in graph.adj[u]:
            if u < v and assign[v] != FREE and assign[v] != pu:
                common = set(graph.adj[u]).intersection(graph.adj[v])
                if any(assign[z] == FREE for z in common):
                    return "S3"
    # S4: an assigned vertex with two realized crossings.  Recomputed from
    # adjacency so externally built states are handled too.
    for v in range(graph.n):
        pv = assign[v]
        if pv == FREE:
            continue
        outside = sum(
            1 for u in graph.adj[v] if assign[u] != FREE and assign[u] != pv
        )
        if outside >= 2:
            return "S4"
    return None


def _ref_find_reduction(state: PartialState) -> tuple[str, tuple[tuple[int, int], ...]] | None:
    graph = state.graph
    assign = state.assign

    # R1: an assigned vertex with an adjacent free pair pulls the pair in.
    for v in range(graph.n):
        pv = assign[v]
        if pv == FREE:
            continue
        fnb = state.free_neighbors(v)
        for i, x in enumerate(fnb):
            xadj = graph.adj[x]
            for y in fnb[i + 1:]:
                if y in xadj:
                    return ("R1", ((x, pv), (y, pv)))
    # R2: a free vertex with two neighbors in a unique part joins it.
    for v in range(graph.n):
        if assign[v] != FREE:
            continue
        strong = [p for p, c in state.part_contacts(v).items() if c >= 2]
        if len(strong) == 1:
            return ("R2", ((v, strong[0]),))
    # R3: a crossing edge forces both endpoints' free neighbors inward.
    for u in range(graph.n):
        pu = assign[u]
        if pu == FREE:
            continue
        for v in graph.adj[u]:
            pv = assign[v]
            if u < v and pv != FREE and pv != pu:
                moves = [(z, pu) for z in state.free_neighbors(u)]
                moves += [(z, pv) for z in state.free_neighbors(v)]
                if moves:
                    return ("R3", tuple(moves))
    # R4/R5: free degree-2 twins over an assigned pair.
    twins: dict[tuple[int, int], list[int]] = {}
    for v in range(graph.n):
        if assign[v] == FREE and len(graph.adj[v]) == 2:
            twins.setdefault(graph.adj[v], []).append(v)
    for (x, y), members in sorted(twins.items()):
        if len(members) < 2:
            continue
        u, v = members[0], members[1]
        px, py = assign[x], assign[y]
        if px != FREE and py != FREE and px != py:
            return ("R4", ((u, px), (v, py)))
    for (x, y), members in sorted(twins.items()):
        if len(members) < 2:
            continue
        u = members[0]
        px, py = assign[x], assign[y]
        if px != FREE and py == FREE:
            return ("R5", ((u, px),))
        if py != FREE and px == FREE:
            return ("R5", ((u, py),))
    # R6: a free degree-2 bridge between two saturated-neighborhood parts.
    for v in range(graph.n):
        if assign[v] != FREE or len(graph.adj[v]) != 2:
            continue
        x, y = graph.adj[v]
        px, py = assign[x], assign[y]
        if px == FREE or py == FREE or px == py:
            continue
        if all(assign[z] == px or z == v for z in graph.adj[x]) and all(
            assign[z] == py or z == v for z in graph.adj[y]
        ):
            # Either side works; a pinned singleton part cannot take v.
            target = px if px >= state.frozen else py
            return ("R6", ((v, target),))
    # R7: only sound when maximizing two parts; for larger targets the
    # forced move can destroy an extra-part completion, so it stays off.
    if state.ell == 2:
        move = _ref_find_r7(state)
        if move is not None:
            return move
    return None


def _ref_find_r7(state: PartialState) -> tuple[str, tuple[tuple[int, int], ...]] | None:
    graph = state.graph
    assign = state.assign
    for u in range(graph.n):
        if assign[u] != FREE or len(graph.adj[u]) != 2:
            continue
        v, w = graph.adj[u]
        if assign[v] != FREE or assign[w] != FREE:
            continue
        if len(graph.adj[v]) != 2 or len(graph.adj[w]) != 2:
            continue
        x = next(z for z in graph.adj[v] if z != u)
        y = next(z for z in graph.adj[w] if z != u)
        if assign[x] == FREE or assign[y] == FREE or assign[x] == assign[y]:
            continue
        vprime = [z for z in state.free_neighbors(x) if z != v]
        wprime = [z for z in state.free_neighbors(y) if z != w]
        if not vprime or not wprime:
            continue
        named = {u, v, w, x, y, vprime[0], wprime[0]}
        if len(named) != 7:
            continue
        return ("R7", ((u, assign[x]), (v, assign[x]), (w, assign[y])))
    return None


def _ref_first_configuration(state: PartialState) -> tuple[str, list] | None:
    """The first applicable B-configuration, trying rules in order and
    candidate vertices in ascending id: its name and its branches."""
    for rule, detector in _DETECTORS:
        for v1 in range(state.graph.n):
            if state.assign[v1] != FREE:
                continue
            branches = detector(
                state, v1, state.part_contacts(v1), state.free_neighbors(v1)
            )
            if branches is not None:
                return rule, branches
    return None


def random_partial_state(rng) -> PartialState:
    """A sparse graph rich in degree-2 arms with a random partial assignment
    made through assign_vertex.  Spiders mostly assign the second vertex of
    each leg, which turns the hub's neighbors into B4/B4'/B5 arms."""
    if rng.random() < 0.5:
        # A spider: a hub with 2-5 legs of length 1..4.
        edges, depth = [], [0]
        for _ in range(rng.randint(2, 5)):
            prev = 0
            for d in range(1, rng.randint(1, 4) + 1):
                edges.append((prev, len(depth)))
                prev = len(depth)
                depth.append(d)
        n = len(depth)
        share = [0.8 if d == 2 else 0.1 for d in depth]
    else:
        # A random tree, or a cycle.
        n = rng.randint(5, 12)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        if rng.random() < 0.3:
            edges = [(v - 1, v) for v in range(1, n)] + [(0, n - 1)]
        share = [rng.uniform(0.2, 0.7)] * n
    for _ in range(rng.randint(0, 2)):
        edges.append(tuple(rng.sample(range(n), 2)))
    g = Graph.from_edges(n, [(min(e), max(e)) for e in edges])
    state = PartialState(g, rng.randint(2, 4))
    for v in range(n):
        if rng.random() < share[v]:
            state.assign_vertex(v, rng.randint(0, state.used))
    return state


class TestRuleScansMatchReference:
    def test_same_rule_moves_and_branches(self, rng):
        fired = collections.Counter()
        for _ in range(3000):
            state = random_partial_state(rng)
            stop = apply_stopping_rules(state)
            reduction = _find_reduction(state)
            config = first_configuration(state)
            assert stop == _ref_apply_stopping_rules(state)
            assert reduction == _ref_find_reduction(state)
            assert config == _ref_first_configuration(state)
            fired.update(found[0] for found in (reduction, config) if found)
            fired[stop] += 1
        # S4 needs a vertex with two crossings, which assign_vertex refuses.
        # B6 never comes first: every B6 configuration is also a B4 one.
        expected = {"S1", "S2", "S3", "R1", "R2", "R3", "R4", "R5", "R6", "R7",
                    "B1", "B2", "B3", "B4", "B4'", "B5", "B7", "B8"}
        assert expected <= set(fired), fired
        assert fired["S2"] >= 20 and fired["S3"] >= 20
