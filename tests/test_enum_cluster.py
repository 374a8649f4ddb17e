"""Distance-to-cluster enumeration pipeline."""

import pytest

from mmcut.enum_cluster import (
    ClusterInstance,
    _Reducer,
    enumerate_cluster,
    enumerate_core,
    extend_with_matching_clusters,
    extend_with_pendant_clusters,
    lift_cluster,
    reduce_cluster_instance,
)
from mmcut.graphs import Graph, complete_graph, path_graph
from mmcut.modulators import approx_cluster_modulator

from conftest import oracle_solution_set, random_graph


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


class TestReduce:
    def test_rule1_merges_on_nstar_overlap(self):
        # A triangle cluster whose members have two neighbors in each of
        # two modulator groups is glued to both, merging them.
        edges = [(2, 3), (3, 4), (2, 4), (0, 2), (0, 3), (1, 3), (1, 4)]
        g = Graph.from_edges(5, edges)
        inst = reduce_cluster_instance(g, frozenset({0, 1}))
        assert len(inst.mono) == 1

    def test_rule4_strips_unattached_vertex(self):
        # K4 cluster with one vertex seeing the modulator twice.
        edges = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
                 (0, 1), (0, 2)]
        g = Graph.from_edges(5, edges)
        inst = reduce_cluster_instance(g, frozenset({0}))
        removed = [e for e in inst.journal if e[0] == "remove" and e[1] == "rule4"]
        assert removed, "the degree-free clique vertex must be removed"

    def test_rule6_erases_clashing_edge_cluster(self):
        # A fixed triangle merges the two modulator groups; the edge
        # cluster {2, 3} then has two host edges inside one group and no
        # matching with the modulator, so it is erased.
        edges = [(2, 3), (0, 2), (1, 2),
                 (4, 5), (5, 6), (4, 6), (0, 4), (0, 5), (1, 5), (1, 6)]
        g = Graph.from_edges(7, edges)
        inst = reduce_cluster_instance(g, frozenset({0, 1}))
        assert len(inst.mono) == 1
        kinds = [type(e).__name__ for e in inst.lift_entries]
        assert "SimpleEdgeEntry" in kinds

    def test_rule8_twin_erasure_and_blue(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
        inst = reduce_cluster_instance(g, frozenset({0}))
        assert any(e[0] == "remove" and e[1] == "rule8" for e in inst.journal)
        assert inst.blue == {(1, 2)}
        assert len(inst.pendants) == 2  # kept unit plus the erased twin

    def test_rule9_keeps_two(self):
        edges = []
        for i in range(3):
            a, b = 2 + 2 * i, 3 + 2 * i
            edges += [(a, b), (0, a), (1, b)]
        g = Graph.from_edges(8, edges)
        inst = reduce_cluster_instance(g, frozenset({0, 1}))
        removed = [e for e in inst.journal if e[0] == "remove" and e[1] == "rule9"]
        assert len(removed) == 2  # one two-vertex twin erased

    def test_fixed_point_no_rules(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        inst = reduce_cluster_instance(g, frozenset({1, 2}))
        assert inst.journal == ()

    def test_journal_reconstructs_original(self, rng):
        for _ in range(80):
            g = random_graph(rng, rng.randint(2, 9), rng.choice([0.3, 0.6]))
            mod = approx_cluster_modulator(g)
            inst = reduce_cluster_instance(g, mod)
            assert inst.reconstruct_edges() == frozenset(g.edges())

    def test_round_snapshot_describes_reduced_graph(self, rng):
        # Clusters, group index and stars are taken once per rule round;
        # after the last round they must match the reduced graph.
        reduced_any = merged_any = False
        for _ in range(80):
            g = random_graph(rng, rng.randint(3, 12), rng.choice([0.3, 0.5, 0.8]))
            mod = approx_cluster_modulator(g).vertices
            red = _Reducer(g, mod)
            red.run()
            reduced_any |= bool(red.journal)
            merged_any |= len(red.mono) < len(mod)
            work = Graph.from_edges(
                g.n, [(u, v) for u in red.alive for v in red.adj[u] if u < v]
            )
            sub, ids = work.induced(sorted(red.alive - mod))
            assert red.clusters == [
                tuple(ids[i] for i in comp) for comp in sub.components()
            ]
            assert red.group_of == {
                u: i for i, part in enumerate(red.mono) for u in part
            }
            assert red.stars == [red.nstar(part) for part in red.mono]
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
        held_big = [hc for hc in inst.held if not hc.pendant]
        assert len(held_big) == 2
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
        outs = list(extend_with_pendant_clusters(inst, frozenset(), 1))
        assert frozenset() in outs
        assert len(outs) == len(set(outs))

    def test_pendant_stage_prunes_below_target(self):
        g, mod = pendant_farm(1, 1)
        inst = reduce_cluster_instance(g, mod)
        # One kept pendant can add at most one part beyond the base.
        outs = list(extend_with_pendant_clusters(inst, frozenset(), 5))
        assert outs == []

    def test_lift_emits_original_graph_cuts(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 8), 0.5)
            mod = approx_cluster_modulator(g)
            inst = reduce_cluster_instance(g, mod)
            for staged in extend_with_pendant_clusters(inst, frozenset(), 1):
                for cut in lift_cluster(inst, staged, 1):
                    assert cut.check(g, 1) is None
                break


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
        # Two stage-5 leaves cut an edge whose endpoints an uncut erased
        # structure joins again; the final check drops both.
        g = Graph.from_edges(5, [(0, 1), (0, 3), (1, 2), (1, 4), (2, 3), (3, 4)])
        stats = {}
        got = [c.cut_edges for c in enumerate_cluster(g, frozenset({0, 1, 3}), 1,
                                                      stats_out=stats)]
        assert stats == {"dead_leaves": 2}
        assert len(got) == len(set(got)) and set(got) == oracle_solution_set(g, 1)
        stats = {}
        list(enumerate_cluster(g, frozenset({0, 1, 3}), 9, stats_out=stats))
        assert stats == {"dead_leaves": 0}

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
        assert all(u in mod for part in inst.mono for u in part)
        kept = [p for p in inst.pendants if p.kept]
        assert len(kept) == 2


class TestRuleSafeness:
    def test_single_rule_instances_match_oracle(self, rng):
        # Instances where exactly one reduction rule kind fired: the
        # pipeline must still reproduce the oracle's solution set exactly.
        seen_kinds = set()
        trials = 0
        while trials < 400 and len(seen_kinds) < 5:
            trials += 1
            g = random_graph(rng, rng.randint(3, 9), rng.choice([0.3, 0.5, 0.8]))
            mod = approx_cluster_modulator(g)
            inst = reduce_cluster_instance(g, mod)
            kinds = {e[1] for e in inst.journal if e[0] == "remove"}
            kinds |= {e[0] for e in inst.journal if e[0] != "remove"}
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
        outs = list(extend_with_pendant_clusters(inst, frozenset(), 1))
        assert outs == [frozenset()]

    def test_empty_journal_singleton_lift(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
        inst = reduce_cluster_instance(g, frozenset({0, 1}))
        assert inst.lift_entries == ()
        lifted = list(lift_cluster(inst, frozenset(), 1))
        assert len(lifted) == 1 and lifted[0].cut_edges == frozenset()

    def test_erased_simple_cluster_three_variants(self):
        # Merged host group (via a fixed triangle), an erased simple edge
        # cluster with one single-host endpoint: skip, internal cut and the
        # single host-edge cut are all reachable.
        edges = [(2, 3), (0, 2), (1, 2), (3, 7),
                 (4, 5), (5, 6), (4, 6), (0, 4), (0, 5), (1, 5), (1, 6)]
        g = Graph.from_edges(8, edges)
        inst = reduce_cluster_instance(g, frozenset({0, 1, 7}))
        simple = [
            e for e in inst.lift_entries if type(e).__name__ == "SimpleEdgeEntry"
        ]
        assert len(simple) == 1
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
        assert any(e[0] == "remove" and e[1] == "rule4" for e in inst.journal)
        for ell in (1, 2):
            want = oracle_solution_set(g, ell)
            got = {c.cut_edges for c in enumerate_cluster(g, frozenset({0}), ell)}
            assert got == want
