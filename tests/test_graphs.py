"""Graph type, solution representation and modulator approximations."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmcut.cuts import (
    Multicut,
    canonicalize,
    crossing_edges,
    matching_edges,
    max_parts_of_cut,
    validate_multicut,
)
from mmcut.graphs import (
    Graph,
    GraphFormatError,
    complete_graph,
    component_labels,
    cycle_graph,
    parse_graph,
    path_graph,
    write_graph,
)
from mmcut.modulators import (
    approx_cluster_modulator,
    approx_cocluster_modulator,
    approx_vertex_cover,
    cocluster_classes,
    is_cluster_graph,
)

from conftest import random_graph


class TestParsing:
    def test_triangle_pace(self):
        g = parse_graph("p tw 3 3\n1 2\n2 3\n1 3\n")
        assert (g.n, g.m) == (3, 3)

    def test_edgeless_header(self):
        g = parse_graph("p tw 2 0\n")
        assert (g.n, g.m) == (2, 0)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError) as err:
            parse_graph("p tw 3 1\n2 2\n")
        assert err.value.line == 2

    def test_dimacs_and_comments(self):
        g = parse_graph("c comment\np edge 4 2\ne 1 2\ne 3 4\n# more\n")
        assert (g.n, g.m) == (4, 2)

    def test_duplicate_edges_collapse(self):
        g = parse_graph("p tw 3 2\n1 2\n2 1\n1 3\n")
        assert g.m == 2

    def test_edge_count_against_header(self):
        # Fewer distinct edges than declared are accepted (duplicate lines
        # collapse); more are rejected.
        g = parse_graph("p tw 3 3\n1 2\n2 1\n1 3\n")
        assert g.m == 2
        with pytest.raises(GraphFormatError, match="declares 1 edges but found 2"):
            parse_graph("p tw 3 1\n1 2\n2 1\n1 3\n")

    def test_bare_edge_list(self):
        g = parse_graph("1 2\n2 3\n")
        assert (g.n, g.m) == (3, 2)

    def test_out_of_range_vertex(self):
        with pytest.raises(GraphFormatError):
            parse_graph("p tw 2 1\n1 5\n")

    def test_roundtrip(self):
        g = cycle_graph(5)
        for fmt in ("pace-gr", "dimacs"):
            assert parse_graph(write_graph(g, fmt)) == g

    def test_adjacency_invariants(self):
        g = parse_graph("p tw 4 3\n4 1\n2 4\n1 2\n")
        for v in range(g.n):
            assert list(g.adj[v]) == sorted(set(g.adj[v]))
            for u in g.adj[v]:
                assert v in g.adj[u]


class TestComponentLabels:
    def test_numbered_by_smallest_vertex(self):
        g = Graph.from_edges(5, [(0, 3), (1, 4), (2, 4)])
        assert component_labels(g.adj) == (2, [0, 1, 1, 0, 1])

    def test_cut_edges_removed(self):
        g = path_graph(5)
        cut = frozenset({(1, 2), (3, 4)})
        assert component_labels(g.adj, cut) == (3, [0, 0, 1, 1, 2])
        # An edge is only removed in its (u, v), u < v orientation.
        assert component_labels(g.adj, frozenset({(2, 1)})) == (1, [0] * 5)

    def test_skipped_vertices_labelled_minus_one(self):
        g = cycle_graph(6)
        assert component_labels(g.adj, skip={0, 3}) == (2, [-1, 0, 0, -1, 1, 1])
        assert component_labels(g.adj, skip=range(6)) == (0, [-1] * 6)

    def test_matches_union_find(self, rng):
        for _ in range(150):
            n = rng.randint(1, 9)
            g = random_graph(rng, n, 0.4)
            cut = frozenset(e for e in g.edges() if rng.random() < 0.3)
            skip = {v for v in range(n) if rng.random() < 0.2}
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for u, v in g.edges():
                if (u, v) not in cut and u not in skip and v not in skip:
                    parent[find(u)] = find(v)
            roots: dict[int, int] = {}
            want = [
                -1 if v in skip else roots.setdefault(find(v), len(roots))
                for v in range(n)
            ]
            assert component_labels(g.adj, cut, skip) == (len(roots), want)


class TestValidate:
    def test_k3_split_two_crossing(self):
        report = validate_multicut(complete_graph(3), [0, 1, 1], 2)
        assert report is not None
        assert report.kind == "vertex-two-crossing"
        assert report.witness == (0,)

    def test_c4_opposite_split_ok(self):
        assert validate_multicut(cycle_graph(4), [0, 0, 1, 1], 2) is None

    def test_p4_three_parts_ok(self):
        assert validate_multicut(path_graph(4), [0, 1, 1, 2], 3) is None

    def test_too_few_parts(self):
        report = validate_multicut(path_graph(4), [0, 0, 0, 0], 2)
        assert report is not None and report.kind == "too-few-parts"

    def test_empty_part_label_gap(self):
        report = validate_multicut(path_graph(4), [0, 0, 2, 2], 2)
        assert report is not None and report.kind == "empty-part"


class TestCanonicalize:
    def test_identity_on_k3(self):
        cut = canonicalize(complete_graph(3), [0, 0, 0])
        assert cut.p == 1 and cut.cut_edges == frozenset()

    def test_star_parts_stay(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        cut = canonicalize(g, [0, 0, 0, 1])
        assert cut.p == 2
        assert cut.parts == ((0, 1, 2), (3,))

    def test_component_refinement(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        cut = canonicalize(g, [0, 0, 0, 0])
        assert cut.p == 2 and cut.parts == ((0, 1), (2, 3))

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            canonicalize(complete_graph(3), [0, 1, 2])

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, data):
        n = data.draw(st.integers(2, 7))
        edges = data.draw(
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
                    lambda e: (min(e), max(e))
                ).filter(lambda e: e[0] != e[1]),
                max_size=n * 2,
            )
        )
        g = Graph.from_edges(n, edges)
        labels = data.draw(
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
        )
        try:
            once = canonicalize(g, labels)
        except ValueError:
            return
        twice = canonicalize(g, once.part_of)
        assert once == twice
        assert validate_multicut(g, once.part_of, 1) is None


class TestMaxPartsOfCut:
    def test_path_single_cut(self):
        cut = max_parts_of_cut(path_graph(4), [(1, 2)])
        assert cut.p == 2 and cut.parts == ((0, 1), (2, 3))

    def test_non_separating_edge_dropped(self):
        cut = max_parts_of_cut(cycle_graph(4), [(0, 1)])
        assert cut.p == 1 and cut.cut_edges == frozenset()

    def test_c6_three_cuts(self):
        assert max_parts_of_cut(cycle_graph(6), [(0, 1), (2, 3), (4, 5)]).p == 3

    def test_not_a_matching(self):
        with pytest.raises(ValueError):
            max_parts_of_cut(path_graph(3), [(0, 1), (1, 2)])

    def test_matching_fuzz_invariants(self, rng):
        for _ in range(150):
            n = rng.randint(2, 9)
            g = random_graph(rng, n, rng.choice([0.25, 0.5, 0.75]))
            edges = list(g.edges())
            rng.shuffle(edges)
            matching, used = [], set()
            for u, v in edges:
                if u not in used and v not in used and rng.random() < 0.5:
                    matching.append((u, v))
                    used.update((u, v))
            cut = max_parts_of_cut(g, matching)
            assert cut.check(g, 1) is None
            assert cut.cut_edges <= frozenset(matching)

    def test_rejects_non_matchings(self):
        g = path_graph(4)
        for bad, message in (([(0, 2)], "not an edge"), ([(1, 1)], "not an edge"),
                             ([(0, 1), (2, 1)], "not a matching"),
                             ([(0, 1), (1, 0)], "not a matching")):
            with pytest.raises(ValueError, match=message):
                max_parts_of_cut(g, bad)
            with pytest.raises(ValueError, match=message):
                matching_edges(g, bad)
        assert matching_edges(g, [(1, 0), (3, 2)]) == {(0, 1), (2, 3)}

    def test_all_matchings_small(self):
        g = cycle_graph(6)
        edges = list(g.edges())
        seen = set()
        for k in range(len(edges) + 1):
            for combo in itertools.combinations(edges, k):
                used = [v for e in combo for v in e]
                if len(used) != len(set(used)):
                    continue
                cut = max_parts_of_cut(g, combo)
                assert cut.check(g, 1) is None
                seen.add(cut.cut_edges)
        # Exactly the canonical multicuts of C6 arise this way.
        assert frozenset() in seen
        assert all(max_parts_of_cut(g, m).cut_edges == m for m in seen)


class TestCanonicalBijection:
    def test_same_cut_same_canonical(self, rng):
        for _ in range(120):
            n = rng.randint(2, 8)
            g = random_graph(rng, n, 0.4)
            labels = [rng.randint(0, n - 1) for _ in range(n)]
            try:
                first = canonicalize(g, labels)
            except ValueError:
                continue
            relabel = {p: p * 7 + 3 for p in set(first.part_of)}
            second = canonicalize(g, [relabel[p] for p in first.part_of])
            assert first == second
            assert crossing_edges(g, first.part_of) == first.cut_edges


class TestMulticutObject:
    def test_text_and_json(self):
        cut = max_parts_of_cut(path_graph(4), [(1, 2)])
        assert cut.to_text() == "part 1: 1 2\npart 2: 3 4\n"
        assert (
            cut.to_json()
            == '{"parts":[[1,2],[3,4]],"cut_edges":[[2,3]]}'
        )

    def test_check_flags_bad_cut_edges(self):
        g = path_graph(4)
        bad = Multicut((0, 0, 1, 1), 2, frozenset())
        assert bad.check(g) is not None

    def test_check_flags_disconnected_part(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        bad = Multicut((0, 1, 1, 0), 2, frozenset({(0, 1), (2, 3)}))
        report = bad.check(g)
        assert report is not None


class TestModulators:
    def test_vc_examples(self):
        assert approx_vertex_cover(Graph(3, [[], [], []])).vertices == frozenset()
        assert approx_vertex_cover(path_graph(2)).vertices == frozenset({0, 1})
        assert approx_vertex_cover(path_graph(3)).vertices == frozenset({0, 1})

    def test_cluster_examples(self):
        two_triangles = Graph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        assert approx_cluster_modulator(two_triangles).vertices == frozenset()
        assert approx_cluster_modulator(path_graph(3)).vertices == frozenset({0, 1, 2})
        mod = approx_cluster_modulator(path_graph(5))
        assert len(mod.vertices) == 3 and mod.check(path_graph(5))

    def test_cocluster_examples(self):
        k22 = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert approx_cocluster_modulator(k22).vertices == frozenset()
        edge_plus_isolated = Graph.from_edges(3, [(0, 1)])
        assert approx_cocluster_modulator(edge_plus_isolated).vertices == frozenset(
            {0, 1, 2}
        )
        c5 = cycle_graph(5)
        mod = approx_cocluster_modulator(c5)
        assert len(mod.vertices) == 3 and mod.check(c5)

    def test_outputs_leave_claimed_class(self, rng):
        for _ in range(60):
            n = rng.randint(1, 12)
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            assert approx_vertex_cover(g).check(g)
            assert approx_cluster_modulator(g).check(g)
            assert approx_cocluster_modulator(g).check(g)

    def test_no_forbidden_triples_survive_n50(self):
        rng = random.Random(5)
        g = random_graph(rng, 50, 0.12)
        cm = approx_cluster_modulator(g).vertices
        rest = [v for v in range(g.n) if v not in cm]
        sub, _ = g.induced(rest)
        for b in range(sub.n):
            for a, c in itertools.combinations(sub.adj[b], 2):
                assert sub.has_edge(a, c), "induced P3 survived"
        ccm = approx_cocluster_modulator(g).vertices
        rest = [v for v in range(g.n) if v not in ccm]
        sub, _ = g.induced(rest)
        for a in range(sub.n):
            for c in sub.adj[a]:
                if c < a:
                    continue
                for b in range(sub.n):
                    if b in (a, c):
                        continue
                    assert sub.has_edge(a, b) or sub.has_edge(b, c), (
                        "induced complement-P3 survived"
                    )

    def test_recognizers(self):
        assert is_cluster_graph(complete_graph(4))
        assert not is_cluster_graph(path_graph(3))
        classes = cocluster_classes(Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)]))
        assert classes == [[0, 1], [2, 3]]
        assert cocluster_classes(path_graph(4)) is None


class TestMatchingFuzzTwelve:
    def test_all_matchings_on_a_12_vertex_graph(self):
        # Sparse 12-vertex graph: every matching yields a valid canonical
        # multicut object.
        import itertools as it

        g = Graph.from_edges(
            12,
            [(i, i + 1) for i in range(11)] + [(0, 11), (2, 7)],
        )
        edges = list(g.edges())
        count = 0
        for k in range(0, 4):
            for combo in it.combinations(edges, k):
                used = [v for e in combo for v in e]
                if len(used) != len(set(used)):
                    continue
                cut = max_parts_of_cut(g, combo)
                assert cut.check(g, 1) is None
                count += 1
        assert count > 200
