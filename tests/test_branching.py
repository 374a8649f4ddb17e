"""Branch-and-reduce solver: rules, branching configurations, search."""

import itertools

import pytest

from mmcut.branching import (
    PartialState,
    apply_reduction_rules,
    apply_stopping_rules,
    first_configuration,
    select_branch,
    solve_decision,
    solve_max,
)
from mmcut.cuts import Multicut, canonicalize, validate_multicut
from mmcut.graphs import Graph, complete_graph, cycle_graph, path_graph
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

    def test_s4_two_realized_crossings(self):
        g = path_graph(3)
        state = PartialState(g, 3)
        state.assign = [0, 1, 2]
        state.used = 3
        state.free_count = 0
        assert apply_stopping_rules(state) == "S4"

    def test_all_free_alive(self):
        state = PartialState(cycle_graph(5), 2)
        assert apply_stopping_rules(state) is None


class TestReductionRules:
    def test_r1_adjacent_free_pair(self):
        g = complete_graph(3)
        state = make_state(g, 1, [(0, 0)])
        reduced, trace = apply_reduction_rules(state)
        assert reduced.assign == [0, 0, 0]
        assert trace.applications[0] == ("R1", ((1, 0), (2, 0)))

    def test_r2_unique_strong_part(self):
        g = Graph.from_edges(5, [(0, 3), (0, 4), (1, 2)])
        state = make_state(g, 3, [(1, 0), (2, 1), (3, 2), (4, 2)])
        reduced, trace = apply_reduction_rules(state)
        assert ("R2", ((0, 2),)) in trace.applications
        assert reduced.assign[0] == 2

    def test_r3_crossing_edge_forces_neighborhoods(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3)])
        state = make_state(g, 2, [(0, 0), (1, 1)])
        reduced, trace = apply_reduction_rules(state)
        assert reduced.assign == [0, 1, 0, 1]
        assert ("R3", ((2, 0), (3, 1))) in trace.applications

    def test_fixed_point_empty_trace(self):
        state = make_state(path_graph(4), 2, [(0, 0)])
        reduced, trace = apply_reduction_rules(state)
        assert trace.applications == []
        assert reduced.assign == state.assign

    def test_dead_recorded(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        state = make_state(g, 2, [(1, 0), (2, 0), (3, 1), (4, 1)])
        reduced, trace = apply_reduction_rules(state)
        assert reduced is None
        assert trace.applications[-1][0] == "S1"

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
                moves = sum(len(a[1]) for a in trace.applications)
                assert reduced.free_count == before - moves

    def test_trace_replay(self):
        g = complete_graph(3)
        state = make_state(g, 1, [(0, 0)])
        reduced, trace = apply_reduction_rules(state)
        assert trace.replay(state).assign == reduced.assign


class TestBranching:
    def test_b3_two_children_keep_pair_together(self):
        g = Graph.from_edges(4, [(0, 2), (1, 2), (2, 3)])
        state = make_state(g, 2, [(0, 0), (1, 1)])
        assert first_configuration(state)[0] == "B3"
        children = select_branch(state)
        assert len(children) == 2
        assert [c.assign[2] == c.assign[3] for c in children] == [True, True]
        assert {c.assign[2] for c in children} == {0, 1}

    def test_b8_one_child_per_part(self):
        g = Graph.from_edges(7, [(0, 3), (0, 4), (3, 5), (5, 1), (4, 6)])
        state = make_state(g, 3, [(0, 0), (1, 1), (2, 2)])
        assert first_configuration(state)[0] == "B8"
        children = select_branch(state)
        assert len(children) == 3  # one per part for the branch vertex
        assert {c.assign[3] for c in children} == {0, 1, 2}

    def test_completion_single_child_validates(self):
        g = Graph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
        )
        state = make_state(g, 2, [(0, 0)])
        reduced, _ = apply_reduction_rules(state)
        assert reduced.assign[:3] == [0, 0, 0]
        assert first_configuration(reduced) is None
        children = select_branch(reduced)
        assert len(children) == 1
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
            for child in select_branch(reduced):
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
