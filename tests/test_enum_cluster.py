"""Distance-to-cluster enumeration pipeline."""

import os
import pathlib
import random
import subprocess
import sys
from collections import Counter

import pytest

from mmcut import enum_cluster
from mmcut.enum_cluster import (
    ClusterInstance,
    ErasedStructure,
    PendantUnit,
    _lift_part_potential,
    _Reducer,
    enumerate_cluster,
    enumerate_core,
    extend_with_matching_clusters,
    extend_with_pendant_clusters,
    lift_cluster,
    reduce_cluster_instance,
)
from mmcut.graphs import (
    Graph,
    InvariantError,
    complete_graph,
    component_labels,
    path_graph,
)
from mmcut.modulators import approx_cluster_modulator

from conftest import oracle_solution_set, random_graph
from lift_reference import enumerate_cluster_bfs


def pendant_farm(hosts: int, per_host: int) -> tuple[Graph, frozenset]:
    """A modulator path with ``per_host`` pendant edge clusters per vertex."""
    edges = [(i, i + 1) for i in range(hosts - 1)]
    nxt = hosts
    for w in range(hosts):
        for _ in range(per_host):
            edges.append((w, nxt))
            edges.append((nxt, nxt + 1))
            nxt += 2
    return Graph.from_edges(nxt, edges), frozenset(range(hosts))


def delay_family(n_target: int) -> Graph:
    """A four-vertex host path with pendant two-paths hung round-robin."""
    edges = [(0, 1), (1, 2), (2, 3)]
    nxt = 4
    while nxt + 2 <= n_target:
        edges += [((nxt - 4) // 2 % 4, nxt), (nxt, nxt + 1)]
        nxt += 2
    return Graph.from_edges(nxt, edges)


def caterpillar(spine: int, legs: int) -> Graph:
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i in range(spine):
        for _ in range(legs):
            edges.append((i, nxt))
            nxt += 1
    return Graph.from_edges(nxt, edges)


def nstar(adj, clusters, part: set[int]) -> set[int]:
    """Vertices outside the modulator glued to this monochromatic group,
    by one scan of every cluster: the reference for ``_Reducer.stars``."""
    out: set[int] = set()
    for cluster in clusters:
        cset = set(cluster)
        glued = [
            v for v in cluster
            if sum(1 for u in adj[v] if u in part) >= 2
        ]
        if (len(cluster) >= 3 and glued) or any(
            sum(1 for z in adj[u] if z in cset) >= 2 for u in part
        ):
            out |= cset
        else:
            out.update(glued)
    return out


# The rules that edit the graph; rules 1, 2 and 7 merge modulator groups.
EDIT_RULES = {"rule3", "rule4", "rule5", "rule6", "rule8", "rule9"}


def leaf_cuts(inst, cut, ell, extra=0):
    """Stage 4's leaves, each read off the live state while iterating."""
    return [frozenset(leaf.cut)
            for leaf in extend_with_pendant_clusters(inst, cut, ell, extra)]


class TestReduce:
    def test_rule1_merges_on_nstar_overlap(self):
        # A triangle cluster whose members have two neighbors in each of
        # two modulator groups is glued to both, merging them.
        edges = [(2, 3), (3, 4), (2, 4), (0, 2), (0, 3), (1, 3), (1, 4)]
        g = Graph.from_edges(5, edges)
        inst = reduce_cluster_instance(g, frozenset({0, 1}))
        assert inst.fired[0] == "rule1"

    def test_rule4_strips_unattached_vertex(self):
        # K4 cluster with one vertex seeing the modulator twice.
        edges = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
                 (0, 1), (0, 2)]
        g = Graph.from_edges(5, edges)
        inst = reduce_cluster_instance(g, frozenset({0}))
        assert "rule4" in inst.fired, "the degree-free clique vertex must be removed"

    def test_rule6_erases_clashing_edge_cluster(self):
        # A fixed triangle merges the two modulator groups; the edge
        # cluster {2, 3} then has two host edges inside one group and no
        # matching with the modulator, so it is erased.
        edges = [(2, 3), (0, 2), (1, 2),
                 (4, 5), (5, 6), (4, 6), (0, 4), (0, 5), (1, 5), (1, 6)]
        g = Graph.from_edges(7, edges)
        inst = reduce_cluster_instance(g, frozenset({0, 1}))
        assert inst.fired == ("rule1", "rule5", "rule6")
        # Its edges: the internal one, then the boundary in host order.
        assert inst.lift_entries == (ErasedStructure((2, 3), ((2, 3), (0, 2), (1, 2))),)

    def test_rule8_twin_erasure(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
        inst = reduce_cluster_instance(g, frozenset({0}))
        assert inst.fired == ("rule8",)
        # The kept unit plus the erased twin.
        assert inst.pendants == (PendantUnit(1, 2, 0), PendantUnit(3, 4, 0))

    def test_rule9_keeps_two(self):
        edges = []
        for i in range(3):
            a, b = 2 + 2 * i, 3 + 2 * i
            edges += [(a, b), (0, a), (1, b)]
        g = Graph.from_edges(8, edges)
        inst = reduce_cluster_instance(g, frozenset({0, 1}))
        assert inst.fired == ("rule9",)  # one two-vertex twin erased
        assert inst.lift_entries == (ErasedStructure((6, 7), ((6, 7), (0, 6), (1, 7))),)

    def test_fixed_point_no_rules(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        inst = reduce_cluster_instance(g, frozenset({1, 2}))
        assert inst.fired == ()

    def test_round_snapshot_describes_reduced_graph(self, rng):
        # Cluster records, group index and stars are taken once per rule
        # round; in every round they must match the graph as reduced so
        # far, and the stars the per-group scan of ``nstar``.
        def check(red, mod):
            work = Graph.from_edges(
                red.graph.n, [(u, v) for u in red.alive for v in red.adj[u] if u < v]
            )
            sub, ids = work.induced(sorted(red.alive - mod))
            clusters = [tuple(ids[i] for i in comp) for comp in sub.components()]
            assert [c.vertices for c in red.clusters] == clusters
            for c in red.clusters:
                assert c.vset == set(c.vertices)
                assert c.hosts == tuple(
                    tuple(sorted(mod.intersection(work.adj[v]))) for v in c.vertices
                )
                assert c.nbrs == tuple(sorted({w for h in c.hosts for w in h}))
            assert red.group_of == {
                u: i for i, part in enumerate(red.mono) for u in part
            }
            assert red.stars == [nstar(red.adj, clusters, part) for part in red.mono]

        reduced_any = merged_any = False
        for i in range(160):
            if i % 2:
                g, mod = matched_cluster_graph(rng)
            else:
                g = random_graph(rng, rng.randint(3, 12), rng.choice([0.3, 0.5, 0.8]))
                mod = approx_cluster_modulator(g).vertices
            red = _Reducer(g, mod)
            red.snapshot()
            check(red, mod)
            while red._apply_one():  # the rounds of ``run``
                red.snapshot()
                check(red, mod)
            reduced_any |= not EDIT_RULES.isdisjoint(red.fired)
            merged_any |= len(red.mono) < len(mod)
        assert reduced_any and merged_any

    def test_invalid_modulator(self):
        with pytest.raises(ValueError):
            reduce_cluster_instance(path_graph(4), frozenset())

    def test_core_size_bound(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 9), 0.4)
            mod = approx_cluster_modulator(g)
            inst = reduce_cluster_instance(g, mod)
            r = len(inst.modulator)
            bound = r + (r + 6 * (r * (r - 1) // 2)) * (r + 3) + 10 * (
                r * (r - 1) // 2
            )
            assert len(inst.h_vertices) <= max(bound, 1)


class TestStages:
    def test_core_of_cluster_graph_is_empty_cut(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        inst = reduce_cluster_instance(g, frozenset())
        assert list(enumerate_core(inst)) == [frozenset()]

    def test_held_out_packing(self):
        # Two matching clusters with disjoint single-host neighborhoods:
        # the packing yields all four combinations.
        edges = [(0, 1), (2, 3), (3, 4), (2, 4), (0, 2),
                 (5, 6), (6, 7), (5, 7), (1, 5)]
        g = Graph.from_edges(8, edges)
        inst = reduce_cluster_instance(g, frozenset({0, 1}))
        assert len(inst.held) == 2
        core = frozenset()
        packs = list(extend_with_matching_clusters(inst, core))
        assert len(packs) == 4

    def test_saturated_neighborhood_excluded(self):
        edges = [(0, 1), (2, 3), (3, 4), (2, 4), (0, 2)]
        g = Graph.from_edges(5, edges)
        inst = reduce_cluster_instance(g, frozenset({0, 1}))
        core = frozenset({(0, 1)})  # saturates the cluster's host
        packs = list(extend_with_matching_clusters(inst, core))
        assert packs == [core]

    def test_pendant_stage_adds_parts(self):
        g, mod = pendant_farm(2, 2)
        inst = reduce_cluster_instance(g, mod)
        outs = leaf_cuts(inst, frozenset(), 1)
        assert frozenset() in outs
        assert len(outs) == len(set(outs))

    def test_pendant_stage_prunes_below_target(self):
        g, mod = pendant_farm(1, 1)
        inst = reduce_cluster_instance(g, mod)
        # One kept pendant can add at most one part beyond the base.
        outs = leaf_cuts(inst, frozenset(), 5)
        assert outs == []

    def test_lift_emits_original_graph_cuts(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 8), 0.5)
            mod = approx_cluster_modulator(g)
            inst = reduce_cluster_instance(g, mod)
            for leaf in extend_with_pendant_clusters(inst, frozenset(), 1):
                for cut in lift_cluster(inst, leaf, 1):
                    assert cut.check(g, 1) is None
                break

    def test_lift_checks_the_final_cut(self):
        # Stage 5 checks its final cut as max_parts_of_cut does: a cut edge
        # that is not a graph edge, or two that share an endpoint, raise.
        g, mod = pendant_farm(2, 1)
        inst = reduce_cluster_instance(g, mod)
        for bad in ((0, 3), (2, 3)):  # not an edge; shares vertex 2 with (0, 2)
            leaf = next(extend_with_pendant_clusters(inst, frozenset({(0, 2)}), 1))
            leaf.cut.add(bad)
            with pytest.raises(ValueError, match="not an edge|not a matching"):
                list(lift_cluster(inst, leaf, 1))


class TestEndToEnd:
    def test_cluster_graph_all_separate(self):
        g = Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (5, 6)])
        want = oracle_solution_set(g, 3)
        got = {c.cut_edges for c in enumerate_cluster(g, frozenset(), 3)}
        assert got == want

    def test_k4_plus_pendant_cluster(self):
        g = Graph.from_edges(
            6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (4, 5)]
        )
        mod = approx_cluster_modulator(g)
        want = oracle_solution_set(g, 2)
        got = [c.cut_edges for c in enumerate_cluster(g, mod, 2)]
        assert len(got) == len(set(got)) and set(got) == want

    def test_ell_above_n_empty(self):
        g = complete_graph(3)
        assert list(enumerate_cluster(g, frozenset({0}), 5)) == []

    def test_oracle_equality_randoms(self, rng):
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 8), rng.choice([0.25, 0.5, 0.8]))
            mod = approx_cluster_modulator(g)
            for ell in (1, 2, 3):
                want = oracle_solution_set(g, ell)
                got = [c.cut_edges for c in enumerate_cluster(g, mod, ell)]
                assert len(got) == len(set(got)), "duplicate emission"
                assert set(got) == want, (g.n, sorted(g.edges()), ell)

    def test_oracle_equality_pendant_farms(self):
        for hosts, per in ((1, 3), (2, 2), (3, 1)):
            g, mod = pendant_farm(hosts, per)
            if g.n > 9:
                continue
            for ell in (1, 2, 3):
                want = oracle_solution_set(g, ell)
                got = [c.cut_edges for c in enumerate_cluster(g, mod, ell)]
                assert len(got) == len(set(got)) and set(got) == want

    def test_inexact_leaves_are_dropped_and_counted(self):
        # Rules 3 and 5 rewire the core, so the core cut {01, 45} separates
        # the reduced graph but leaves 4 and 5 joined in G; the final check
        # drops that leaf.
        g = Graph.from_edges(6, [(0, 1), (0, 5), (1, 2), (1, 4), (2, 3), (2, 5),
                                 (3, 5), (4, 5)])
        stats = {}
        got = [c.cut_edges for c in enumerate_cluster(g, frozenset({0, 1, 5}), 1,
                                                      stats_out=stats)]
        assert stats == {"dead_leaves": 1, "stage4_leaves": 2, "emitted": len(got)}
        assert len(got) == len(set(got)) and set(got) == oracle_solution_set(g, 1)
        stats = {}
        list(enumerate_cluster(g, frozenset({0, 1, 5}), 9, stats_out=stats))
        assert stats == {"dead_leaves": 0, "stage4_leaves": 0, "emitted": 0}

    def test_stage5_drops_inexact_joins_itself(self):
        # Every matching of the erased edge cluster {2, 4}'s edges that
        # avoids a cut host leaves a path between hosts 1 and 3.  On the
        # core cuts that separate 1 from 3 stage 5 drops every mode itself,
        # so no leaf is dead.
        g = Graph.from_edges(5, [(0, 1), (0, 3), (1, 2), (1, 4), (2, 3), (3, 4)])
        stats = {}
        got = [c.cut_edges for c in enumerate_cluster(g, frozenset({0, 1, 3}), 1,
                                                      stats_out=stats)]
        assert stats == {"dead_leaves": 0, "stage4_leaves": 3, "emitted": len(got)}
        assert len(got) == len(set(got)) and set(got) == oracle_solution_set(g, 1)

    def test_large_instance_streams(self):
        # Far beyond oracle reach: check stream validity and uniqueness of a
        # prefix only.
        g, mod = pendant_farm(4, 20)  # n = 164
        seen = set()
        for i, cut in enumerate(enumerate_cluster(g, mod, 3)):
            assert cut.p >= 3
            assert cut.cut_edges not in seen
            seen.add(cut.cut_edges)
            if i >= 400:
                break
        assert len(seen) >= 400


class TestInstanceObject:
    def test_instance_fields(self):
        g, mod = pendant_farm(2, 1)
        inst = reduce_cluster_instance(g, mod)
        assert isinstance(inst, ClusterInstance)
        assert set(inst.modulator) == set(mod)
        assert inst.fired == ()  # no twin erased: both units are kept
        assert len(inst.pendants) == 2

    def test_triangle_modes_keep_internal_edges(self):
        # THREE_HOST_TWIN's erased triangle has 14 matchings.  Cutting one
        # internal edge leaves the other two joining its ends, so only the
        # 2^3 matchings of its three disjoint host edges remain.
        s = ErasedStructure(
            (9, 10, 11), ((9, 10), (9, 11), (10, 11), (3, 9), (4, 10), (5, 11)))
        assert len(s.modes) == 8
        assert s.modes[0] == ((), s.edges, set())
        assert all(set(uncut[:3]) == set(s.edges[:3]) for _cut, uncut, _ends in s.modes)

    def test_edge_cluster_keeps_every_matching(self):
        # A two-vertex structure has one internal edge, so each of its
        # four matchings can be placed.
        s = ErasedStructure((2, 3), ((2, 3), (0, 2), (1, 2)))
        assert [cut for cut, _uncut, _ends in s.modes] == [
            (), ((2, 3),), ((0, 2),), ((1, 2),)]


def three_matched_triangles() -> Graph:
    """Triangles {2, 3, 4}, {5, 6, 7} and {8, 9, 10}, each matched to
    modulator vertices 0 and 1, and an isolated vertex 11."""
    edges = []
    for a in (2, 5, 8):
        edges += [(a, a + 1), (a + 1, a + 2), (a, a + 2), (0, a), (1, a + 1)]
    return Graph.from_edges(12, edges)


class TestRulesFire:
    """Rules 2, 3, 5 and 7 on fixed graphs: each firing shows in ``fired``
    and the streams still equal the oracle's."""

    @pytest.mark.parametrize("g, mod, fired", [
        # Modulator vertices 3 and 4 share the neighbours 2, 5 and 6, so
        # rule 2 merges their groups; the merged group then glues the
        # clusters {5} and {6}, which rule 3 joins.
        (Graph.from_edges(7, [(0, 5), (1, 4), (2, 3), (2, 4), (2, 6), (3, 5), (3, 6),
                              (4, 5), (4, 6)]),
         frozenset({0, 2, 3, 4}), ("rule2", "rule3")),
        # The triangle {2, 4, 6} sees the modulator vertex 5 twice, so it
        # lies in that group's star; rule 5 rewires its host edges 5-4 and
        # 5-6 to 5-2 and 5-4.
        (Graph.from_edges(7, [(0, 3), (0, 5), (1, 5), (2, 4), (2, 6), (4, 5), (4, 6),
                              (5, 6)]),
         frozenset({0, 3, 5}), ("rule5",)),
        # Three triangles span modulator vertices 0 and 1: rule 7 merges
        # their groups, then rule 8 erases two of the triangles as twins.
        # The isolated vertex gives the ell-3 stream its third part.
        (three_matched_triangles(), frozenset({0, 1}), ("rule7", "rule8", "rule8")),
    ], ids=["rules2_3", "rule5", "rule7"])
    def test_fired_and_stream_equals_oracle(self, g, mod, fired):
        inst = reduce_cluster_instance(g, mod)
        assert inst.fired == fired
        for ell in (1, 2, 3):
            got = [c.cut_edges for c in enumerate_cluster(g, mod, ell)]
            assert got, "every stream is non-empty"
            assert len(got) == len(set(got)) and set(got) == oracle_solution_set(g, ell)


class TestRuleSafeness:
    def test_single_rule_instances_match_oracle(self, rng):
        # Instances where exactly one kind of edit rule fired (merges
        # aside): the pipeline must still reproduce the oracle's solution
        # set exactly.
        seen_kinds = set()
        trials = 0
        while trials < 400 and len(seen_kinds) < 5:
            trials += 1
            g = random_graph(rng, rng.randint(3, 9), rng.choice([0.3, 0.5, 0.8]))
            mod = approx_cluster_modulator(g)
            inst = reduce_cluster_instance(g, mod)
            kinds = EDIT_RULES.intersection(inst.fired)
            if len(kinds) != 1:
                continue
            seen_kinds |= kinds
            for ell in (1, 2):
                want = oracle_solution_set(g, ell)
                got = [c.cut_edges for c in enumerate_cluster(g, mod, ell)]
                assert len(got) == len(set(got)) and set(got) == want
        assert seen_kinds, "no single-rule instances generated"


class TestStageExamples:
    def test_no_pendants_singleton_stream(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
        inst = reduce_cluster_instance(g, frozenset({0, 1}))
        assert inst.pendants == ()
        outs = leaf_cuts(inst, frozenset(), 1)
        assert outs == [frozenset()]

    def test_no_erasure_singleton_lift(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
        inst = reduce_cluster_instance(g, frozenset({0, 1}))
        assert inst.lift_entries == ()
        stage4 = extend_with_pendant_clusters(inst, frozenset(), 1)
        lifted = list(lift_cluster(inst, next(stage4), 1))
        assert len(lifted) == 1 and lifted[0].cut_edges == frozenset()
        assert next(stage4, None) is None

    def test_erased_simple_cluster_three_variants(self):
        # Merged host group (via a fixed triangle), an erased simple edge
        # cluster with one single-host endpoint: skip, internal cut and the
        # single host-edge cut are all reachable.
        edges = [(2, 3), (0, 2), (1, 2), (3, 7),
                 (4, 5), (5, 6), (4, 6), (0, 4), (0, 5), (1, 5), (1, 6)]
        g = Graph.from_edges(8, edges)
        inst = reduce_cluster_instance(g, frozenset({0, 1, 7}))
        assert [s.vertices for s in inst.lift_entries] == [(2, 3)]
        want = oracle_solution_set(g, 1)
        got = {c.cut_edges for c in enumerate_cluster(g, frozenset({0, 1, 7}), 1)}
        assert got == want
        local = {(2, 3), (3, 7)}
        assert {m & frozenset(local) for m in got} == {
            frozenset(), frozenset({(2, 3)}), frozenset({(3, 7)})
        }

    def test_rule4_on_size_five_cluster(self):
        edges = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5),
                 (3, 4), (3, 5), (4, 5), (0, 1), (0, 2)]
        g = Graph.from_edges(6, edges)
        inst = reduce_cluster_instance(g, frozenset({0}))
        assert inst.fired == ("rule4", "rule4")
        for ell in (1, 2):
            want = oracle_solution_set(g, ell)
            got = {c.cut_edges for c in enumerate_cluster(g, frozenset({0}), ell)}
            assert got == want


def _blocks(labels):
    """A labelling up to renaming: labels in order of first appearance."""
    first = {}
    return [first.setdefault(x, len(first)) if x >= 0 else -1 for x in labels]


def _state(leaf):
    return (frozenset(leaf.cut), frozenset(leaf.saturated), tuple(leaf.part_of),
            tuple(leaf.parent), tuple(leaf.trail))


def checked_stream(g, mod, ell):
    """``enumerate_cluster``'s stream, driven stage by stage.  Each stage-4
    leaf's live labelling must describe the components of
    (G - erased vertices) - cut, and stage 5 must hand the state back as it
    found it."""
    inst = reduce_cluster_instance(g, mod)
    extra = _lift_part_potential(inst)
    stats = {"dead_leaves": 0, "emitted": 0}
    out = []
    for core in enumerate_core(inst):
        for packed in extend_with_matching_clusters(inst, core):
            for leaf in extend_with_pendant_clusters(inst, packed, ell, extra):
                _, labels = component_labels(g.adj, leaf.cut, inst.lift_vertices)
                assert _blocks(leaf.part_of) == _blocks(labels)
                before = _state(leaf)
                out.extend(lift_cluster(inst, leaf, ell, stats))
                assert _state(leaf) == before
    return out, stats["dead_leaves"]


# Modulator {3, 4, 5} in three groups, a kept triangle and its erased twin
# attached to all three, and a pendant unit {0, 1} on host 5.  The twin's
# hosts sit in three parts, and cutting the unit's host edge changes which
# of them hold the smallest vertices.
THREE_HOST_TWIN = Graph.from_edges(12, [
    (0, 5), (0, 1), (6, 7), (7, 8), (6, 8), (9, 10), (10, 11), (9, 11),
    (6, 3), (7, 4), (8, 5), (9, 3), (10, 4), (11, 5),
])


class TestLiftStateEquivalence:
    """Stages 4-5 over the live leaf state give the same stream, in the same
    order, as the reference stages that relabel the graph by BFS at every
    leaf and offer every erased structure all its matchings."""

    def assert_same(self, g, mod, ells):
        for ell in ells:
            stats = {}
            got = list(enumerate_cluster(g, mod, ell, stats))
            want = list(enumerate_cluster_bfs(g, mod, ell))
            assert got == want, (g.n, sorted(g.edges()), sorted(mod), ell)
            assert stats["emitted"] == len(got)
            if ell <= g.n:
                assert checked_stream(g, mod, ell) == (got, stats["dead_leaves"])

    def test_random_graphs(self, rng):
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 11), rng.choice([0.15, 0.3, 0.5, 0.8]))
            self.assert_same(g, approx_cluster_modulator(g), (1, 2, 4))

    def test_pendant_farms(self):
        for hosts, per in ((1, 3), (2, 2), (3, 1), (2, 3)):
            g, mod = pendant_farm(hosts, per)
            self.assert_same(g, mod, (1, 2, 3, 4))

    def test_delay_family(self):
        for n in (12, 16, 20):
            g = delay_family(n)
            self.assert_same(g, approx_cluster_modulator(g), (1, 4))

    def test_caterpillars(self):
        for spine, legs in ((4, 2), (5, 4)):
            g = caterpillar(spine, legs)
            self.assert_same(g, approx_cluster_modulator(g), (1, 3))

    def test_matched_cluster_family(self):
        rng = random.Random(13)
        for _ in range(60):
            g, mod = matched_cluster_graph(rng)
            self.assert_same(g, mod, (1, 2, 3))

    def test_twin_with_three_host_parts(self):
        g = THREE_HOST_TWIN
        mod = frozenset({3, 4, 5})
        inst = reduce_cluster_instance(g, mod)
        assert inst.lift_entries == (ErasedStructure(
            (9, 10, 11), ((9, 10), (9, 11), (10, 11), (3, 9), (4, 10), (5, 11))),)
        assert inst.fired == ("rule8",)  # no group merge
        assert len(inst.pendants) == 1
        self.assert_same(g, mod, (1, 2, 3, 4, 5))
        # Its uncut modes join all three host parts, each join checked.
        for ell in (1, 2, 3, 4, 5):
            stats = {}
            list(enumerate_cluster(g, mod, ell, stats))
            assert stats["dead_leaves"] == 0


# Two triangles {2, 3, 4} and {5, 6, 7}, each matched to modulator vertices
# 0 and 1; rule 8 keeps the first and erases the second as its twin.
MATCHED_TRIANGLES = Graph.from_edges(8, [
    (2, 3), (3, 4), (2, 4), (5, 6), (6, 7), (5, 7), (0, 2), (1, 3), (0, 5), (1, 6),
])


def matched_cluster_graph(rng) -> tuple[Graph, frozenset]:
    """A modulator of 1-4 independent vertices and cliques of 1-3
    vertices, each clique vertex joined to 0-2 modulator vertices, n <= 12;
    with the modulator.  A clique's vertices take distinct modulator
    vertices while there are any left, so most cliques are matched to the
    modulator, and half of the cliques after the first copy the modulator
    edges of an earlier one, which makes twins."""
    r = rng.randint(1, 4)
    edges, n, shapes = [], r, []
    while True:
        if shapes and rng.random() < 0.5:
            hosts = rng.choice(shapes)
        else:
            pool = rng.sample(range(r), r)
            hosts = []
            for _ in range(rng.randint(1, 3)):
                take = rng.choice((0, 1, 1, 2))
                hosts.append(pool[:take])
                pool = pool[take:]
        if n + len(hosts) > 12 or (shapes and rng.random() < 0.2):
            break
        shapes.append(hosts)
        clique = range(n, n + len(hosts))
        edges += [(a, b) for a in clique for b in clique if a < b]
        edges += [(w, v) for v, ws in zip(clique, hosts) for w in ws]
        n += len(hosts)
    return Graph.from_edges(n, edges), frozenset(range(r))


class TestErasedTwinStreams:
    """Erased twins of three or more vertices.  Stage 5 must offer their
    partial boundary cuts too: the multicuts that cut the kept cluster and
    its twin from different hosts.  The greedy modulator is larger on these
    graphs, so only an explicit modulator reaches them."""

    @pytest.mark.parametrize("g, mod", [
        (MATCHED_TRIANGLES, frozenset({0, 1})),
        (THREE_HOST_TWIN, frozenset({3, 4, 5})),
    ], ids=["matched_triangles", "three_host_twin"])
    def test_stream_equals_oracle(self, g, mod):
        stats = {}
        got = [c.cut_edges for c in enumerate_cluster(g, mod, 1, stats)]
        assert len(got) == len(set(got))
        assert set(got) == oracle_solution_set(g, 1)
        assert stats["dead_leaves"] == 0

    def test_matched_cluster_family(self):
        rng = random.Random(13)
        twins = 0
        for _ in range(300):
            g, mod = matched_cluster_graph(rng)
            inst = reduce_cluster_instance(g, mod)
            twins += any(len(s.vertices) >= 3 for s in inst.lift_entries)
            for ell in (1, 2, 3):
                got = [c.cut_edges for c in enumerate_cluster(g, mod, ell)]
                assert len(got) == len(set(got)), "duplicate emission"
                assert set(got) == oracle_solution_set(g, ell), (
                    g.n, sorted(g.edges()), sorted(mod), ell)
        assert twins >= 30


class TestClusterLiftWork:
    @pytest.mark.parametrize("g, ell, counts", [
        (delay_family(20), 4, {"stage4_leaves": 7259, "dead_leaves": 0, "emitted": 7259}),
        (caterpillar(5, 4), 3, {"stage4_leaves": 244, "dead_leaves": 0, "emitted": 3615}),
    ], ids=["delay20", "caterpillar5x4"])
    def test_one_labelling_per_stage3_cut(self, monkeypatch, g, ell, counts):
        # Stages 4-5 may label the whole graph once per stage-3 cut (stage
        # 4's base labelling) and at no stage-5 leaf: a lifted leaf is read
        # off the stage-4 parts.  A whole-graph labelling per leaf fails.
        mod = approx_cluster_modulator(g)
        calls = Counter()
        reduce = enum_cluster.reduce_cluster_instance
        labels = enum_cluster.component_labels
        canonical = enum_cluster.max_parts_of_cut
        stage3 = enum_cluster.extend_with_matching_clusters

        def counted_labels(*args, **kwargs):
            calls["labellings"] += 1
            return labels(*args, **kwargs)

        def counted_reduce(*args):
            inst = reduce(*args)  # stage 1's own labellings are not counted
            monkeypatch.setattr(enum_cluster, "component_labels", counted_labels)
            return inst

        def counted_canonical(graph, matching):
            calls["labellings"] += 1
            return canonical(graph, matching)

        def counted_stage3(inst, core_cut):
            for cut in stage3(inst, core_cut):
                calls["stage3_cuts"] += 1
                yield cut

        monkeypatch.setattr(enum_cluster, "reduce_cluster_instance", counted_reduce)
        monkeypatch.setattr(enum_cluster, "max_parts_of_cut", counted_canonical)
        monkeypatch.setattr(enum_cluster, "extend_with_matching_clusters", counted_stage3)
        stats = {}
        solutions = sum(1 for _ in enum_cluster.enumerate_cluster(g, mod, ell, stats))
        assert 0 < calls["labellings"] <= calls["stage3_cuts"]
        assert stats == counts and solutions == counts["emitted"]


class TestInvariants:
    """Stage 1's structure bounds and the conditions stages 4 and 5 rely
    on raise InvariantError, also under ``python -O``.  Each test
    disables the rules that keep its bound."""

    @staticmethod
    def without(monkeypatch, *rules):
        for rule in rules:
            monkeypatch.setattr(_Reducer, rule, lambda self: False)

    def test_too_many_ambiguous_vertices(self, monkeypatch):
        # Four vertices see both modulator vertices; rule 2 would merge them.
        g = Graph.from_edges(6, [(w, v) for w in (0, 1) for v in range(2, 6)])
        self.without(monkeypatch, "_rule2")
        with pytest.raises(InvariantError, match="ambiguous vertices"):
            reduce_cluster_instance(g, frozenset({0, 1}))

    def test_oversized_cluster(self, monkeypatch):
        # K6 with one attached vertex; rule 4 would strip the other five.
        g = Graph.from_edges(7, [(a, b) for a in range(1, 7) for b in range(a + 1, 7)]
                             + [(0, 1)])
        self.without(monkeypatch, "_rule4")
        with pytest.raises(InvariantError, match="oversized cluster"):
            reduce_cluster_instance(g, frozenset({0}))

    def test_too_many_spanning_clusters(self, monkeypatch):
        # Four triangles matched to both modulator vertices; rule 7 would
        # merge the groups and rules 8-9 would erase three of them.
        edges = []
        for t in range(4):
            a, b, c = 2 + 3 * t, 3 + 3 * t, 4 + 3 * t
            edges += [(a, b), (b, c), (a, c), (0, a), (1, b)]
        self.without(monkeypatch, "_rule7", "_rule89")
        with pytest.raises(InvariantError, match="spanning matching clusters"):
            reduce_cluster_instance(Graph.from_edges(14, edges), frozenset({0, 1}))

    def test_too_many_fixed_clusters(self, monkeypatch):
        # Two triangles glued to one modulator vertex; rule 3 would join them.
        edges = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6),
                 (0, 1), (0, 2), (0, 4), (0, 5)]
        self.without(monkeypatch, "_rule3")
        with pytest.raises(InvariantError, match="fixed/ambiguous clusters"):
            reduce_cluster_instance(Graph.from_edges(7, edges), frozenset({0}))

    def test_core_too_large(self, monkeypatch):
        # A K6 glued to the modulator stays in the core; without rule 4 and
        # the structure checks it keeps 7 > 5 core vertices.
        g = Graph.from_edges(7, [(a, b) for a in range(1, 7) for b in range(a + 1, 7)]
                             + [(0, 1), (0, 2)])
        self.without(monkeypatch, "_rule4")
        monkeypatch.setattr(enum_cluster, "_structure_checks", lambda red: None)
        with pytest.raises(InvariantError, match="core instance too large"):
            reduce_cluster_instance(g, frozenset({0}))

    def test_pendant_unit_not_pendant(self, monkeypatch):
        # Swapping a unit's ends leaves its "free" vertex next to the host.
        g, mod = pendant_farm(1, 1)
        monkeypatch.setattr(
            enum_cluster, "PendantUnit",
            lambda attached, free, host: PendantUnit(free, attached, host))
        with pytest.raises(InvariantError, match="is not pendant"):
            reduce_cluster_instance(g, mod)

    def test_erased_structures_share_an_edge(self, monkeypatch):
        # Split the erased twin {5, 6, 7} of MATCHED_TRIANGLES in two.
        run = _Reducer.run

        def split_run(red):
            run(red)
            assert red.erased == [(5, 6, 7)]
            red.erased = [(5,), (6, 7)]

        monkeypatch.setattr(_Reducer, "run", split_run)
        with pytest.raises(InvariantError, match=r"\(5,\) has an edge to another"):
            reduce_cluster_instance(MATCHED_TRIANGLES, frozenset({0, 1}))

    def test_checks_run_under_optimize(self):
        code = (
            "from mmcut import enum_cluster\n"
            "from mmcut.graphs import Graph, InvariantError\n"
            "edges = [(a, b) for a in range(1, 7) for b in range(a + 1, 7)]\n"
            "g = Graph.from_edges(7, edges + [(0, 1)])\n"
            "enum_cluster._Reducer._rule4 = lambda self: False\n"
            "try:\n"
            "    enum_cluster.reduce_cluster_instance(g, frozenset({0}))\n"
            "except InvariantError:\n"
            "    print('raised')\n"
        )
        # Import the package under test, wherever it was found.
        env = {**os.environ,
               "PYTHONPATH": str(pathlib.Path(enum_cluster.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout == "raised\n"
