"""Tree decomposition machinery and the maximum-parts DP."""

import pytest

from mmcut.graphs import Graph, complete_graph, cycle_graph, path_graph
from mmcut.oracle import max_parts
from mmcut.treewidth import (
    TreeDecompositionError,
    heuristic_decomposition,
    max_parts_tw,
    nicify,
    parse_td,
    transfer_introduce,
    transfer_join,
    transfer_leaf,
    write_td,
)

from conftest import random_graph


class TestParseTd:
    def test_single_bag_triangle(self):
        td = parse_td("s td 1 3 3\nb 1 1 2 3\n")
        assert td.width == 2
        td.validate(complete_graph(3))

    def test_path_decomposition(self):
        td = parse_td("s td 3 2 4\nb 1 1 2\nb 2 2 3\nb 3 3 4\n1 2\n2 3\n")
        assert td.width == 1
        td.validate(path_graph(4))

    def test_missing_edge_coverage(self):
        td = parse_td("s td 2 2 3\nb 1 1 2\nb 2 2\n1 2\n")
        with pytest.raises(TreeDecompositionError) as err:
            td.validate(path_graph(3))
        assert "(2, 3)" in str(err.value)

    def test_disconnected_vertex_bags(self):
        td = parse_td("s td 3 2 3\nb 1 1 2\nb 2 2\nb 3 2 3\n1 2\n2 3\n")
        bad = parse_td("s td 3 2 3\nb 1 1 2\nb 2 2\nb 3 1 3\n1 2\n2 3\n")
        td.validate(path_graph(3))
        with pytest.raises(TreeDecompositionError):
            bad.validate(path_graph(3))

    @pytest.mark.parametrize(
        "text",
        [
            # Four bags and three edges, but one edge is doubled and the
            # tree falls into two pieces.
            "s td 4 2 4\nb 1 1 2\nb 2 1 2\nb 3 3 4\nb 4 3 4\n1 2\n2 1\n3 4\n",
            "s td 2 2 4\nb 1 1 2\nb 2 3 4\n1 3\n",  # edge to a missing bag
            "s td 1 2 4\nb\n",  # bag line without an id
        ],
    )
    def test_malformed_rejected(self, text):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(TreeDecompositionError):
            parse_td(text).validate(g)

    def test_roundtrip(self):
        td = heuristic_decomposition(cycle_graph(6))
        again = parse_td(write_td(td))
        assert again.bags == td.bags and again.width == td.width


class TestHeuristic:
    def test_tree_width_one(self):
        tree = Graph.from_edges(6, [(0, 1), (0, 2), (2, 3), (2, 4), (4, 5)])
        assert heuristic_decomposition(tree).width == 1

    def test_clique(self):
        assert heuristic_decomposition(complete_graph(4)).width == 3

    def test_cycle(self):
        assert heuristic_decomposition(cycle_graph(6)).width == 2

    def test_valid_on_randoms(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 9), 0.4)
            td = heuristic_decomposition(g)
            td.validate(g)


class TestNicify:
    def test_structure_and_idempotent_width(self):
        td = heuristic_decomposition(cycle_graph(5))
        ntd = nicify(td)
        ntd.validate()
        assert ntd.root.bag == ()
        assert ntd.width == td.width
        again = nicify(td)
        kinds = [n.kind for n in ntd.nodes_postorder()]
        assert kinds == [n.kind for n in again.nodes_postorder()]

    def test_single_bag_expansion(self):
        td = parse_td("s td 1 2 2\nb 1 1 2\n")
        ntd = nicify(td)
        kinds = [n.kind for n in ntd.nodes_postorder()]
        assert kinds == ["leaf", "introduce", "introduce", "forget", "forget"]

    def test_node_count_linear(self):
        g = path_graph(40)
        ntd = nicify(heuristic_decomposition(g))
        assert len(ntd.nodes_postorder()) <= 6 * g.n + 10


class TestTransfers:
    def test_leaf(self):
        assert transfer_leaf() == {((), ()): 0}

    def test_introduce_isolated_vertex(self):
        g = Graph(1, [[]])
        table = transfer_introduce(g, (), transfer_leaf(), 0)
        assert table == {((0,), (0,)): 1}

    def test_introduce_two_crossings_absent(self):
        # v adjacent to two bag vertices in different parts: no state may
        # give v two realized crossings, whatever Ext says.
        g = complete_graph(3)
        t0 = transfer_leaf()
        t1 = transfer_introduce(g, (), t0, 0)
        t2 = transfer_introduce(g, (0,), t1, 1)
        t3 = transfer_introduce(g, (0, 1), t2, 2)
        for (reps, ext), _val in t3.items():
            crossings = 0
            rep = dict(zip((0, 1, 2), reps))
            for u in (0, 1):
                if rep[u] != rep[2]:
                    crossings += 1
            assert crossings <= 1

    def test_join_empty_bags(self):
        out = transfer_join(Graph(0, []), (), {((), ()): 2}, {((), ()): 3})
        assert out == {((), ()): 5}

    def test_join_singleton_part_ext_zero(self):
        g = Graph(1, [[]])
        left = {((0,), (0,)): 1, ((0,), (1,)): 1}
        right = {((0,), (0,)): 2, ((0,), (1,)): 2}
        out = transfer_join(g, (0,), left, right)
        # Ext(u)=0 forces both sides zero; value is c1 + c2 - 1.
        assert out[((0,), (0,))] == 2

    def test_join_hidden_crossing_splits(self):
        g = Graph(1, [[]])
        left = {((0,), (0,)): 4, ((0,), (1,)): 1}
        right = {((0,), (0,)): 2, ((0,), (1,)): 5}
        out = transfer_join(g, (0,), left, right)
        # Ext(u)=1 with no bag crossing: exactly one side carries it.
        assert out[((0,), (1,))] == max(4 + 5, 1 + 2) - 1


class TestMaxPartsTw:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (path_graph(6), 4),
            (complete_graph(4), 1),
            (cycle_graph(6), 3),
            (Graph(1, [[]]), 1),
            (Graph(0, []), 0),
            (Graph.from_edges(5, [(0, 1), (3, 4)]), 5),
        ],
    )
    def test_known(self, graph, expected):
        assert max_parts_tw(graph, nicify(heuristic_decomposition(graph))) == expected

    def test_oracle_agreement(self, rng):
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 9), rng.choice([0.2, 0.5, 0.8]))
            ntd = nicify(heuristic_decomposition(g))
            assert max_parts_tw(g, ntd) == max_parts(g)

    def test_given_decomposition_used(self):
        g = path_graph(4)
        td = parse_td("s td 3 2 4\nb 1 1 2\nb 2 2 3\nb 3 3 4\n1 2\n2 3\n")
        assert max_parts_tw(g, nicify(td)) == 3


class TestTransferForget:
    def test_forget_only_bag_vertex(self):
        from mmcut.treewidth import transfer_forget

        g = Graph(1, [[]])
        table = transfer_introduce(g, (), transfer_leaf(), 0)
        out = transfer_forget((0,), table, 0)
        assert out == {((), ()): 1}

    def test_representative_handover(self):
        from mmcut.treewidth import transfer_forget

        g = path_graph(3)
        t = transfer_leaf()
        t = transfer_introduce(g, (), t, 0)
        t = transfer_introduce(g, (0,), t, 1)
        t = transfer_introduce(g, (0, 1), t, 2)
        out = transfer_forget((0, 1, 2), t, 0)
        # Parts previously rooted at vertex 0 are re-rooted at their
        # smallest surviving member.
        for (reps, _ext) in out:
            assert 0 not in reps
            for v, r in zip((1, 2), reps):
                assert r <= v
        assert max(out.values()) == 2  # {0},{1,2} and {0,1},{2} restricted

    def test_all_absent_stays_absent(self):
        from mmcut.treewidth import transfer_forget

        assert transfer_forget((0, 1), {}, 0) == {}
