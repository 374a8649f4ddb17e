"""Tree decomposition machinery and the maximum-parts DP."""

import os
import pathlib
import random
import subprocess
import sys

import pytest

from mmcut import treewidth
from mmcut.graphs import Graph, InvariantError, complete_graph, cycle_graph, path_graph
from mmcut.oracle import max_parts
from mmcut.treewidth import (
    NiceTreeDecomposition,
    TreeDecomposition,
    TreeDecompositionError,
    _check_key,
    heuristic_decomposition,
    max_parts_tw,
    nicify,
    parse_td,
    transfer_forget,
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
            "s td 1 5 4\nb 0 1 2 3 4\n",  # bag id below 1
            "s td 2 3 4\nb 1 1 2\nb 1 3 4\n1 2\n",  # bag 1 given twice
        ],
    )
    def test_malformed_rejected(self, text):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(TreeDecompositionError):
            parse_td(text).validate(g)

    @pytest.mark.parametrize("text, message", [
        ("s td 1 5 4\nb 0 1 2 3 4\n", "bag 0 is outside 1..1"),
        ("s td 2 3 4\nb 1 1 2\nb 3 3 4\n1 2\n", "bag 3 is outside 1..2"),
        ("s td 2 3 4\nb 1 1 2\nb 1 3 4\n1 2\n", "line 3: bag 1 given twice"),
    ])
    def test_bad_bag_id_named(self, text, message):
        with pytest.raises(TreeDecompositionError, match=message):
            parse_td(text)

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


def reference_min_fill(graph: Graph) -> TreeDecomposition:
    """The O(n^2) min-fill that rescans every alive vertex per elimination,
    kept as the reference for the incremental one."""
    n = graph.n
    if n == 0:
        return TreeDecomposition(0, {0: frozenset()}, [])
    nbrs = [set(a) for a in graph.adj]
    alive = set(range(n))
    order = []
    elim_bag = {}
    for _ in range(n):
        best_v, best_fill = -1, None
        for v in sorted(alive):
            live_list = sorted(nbrs[v] & alive)
            fill = 0
            for i, a in enumerate(live_list):
                for b in live_list[i + 1:]:
                    if b not in nbrs[a]:
                        fill += 1
            if best_fill is None or fill < best_fill:
                best_v, best_fill = v, fill
        live = sorted(nbrs[best_v] & alive)
        for i, a in enumerate(live):
            for b in live[i + 1:]:
                nbrs[a].add(b)
                nbrs[b].add(a)
        elim_bag[best_v] = frozenset([best_v] + live)
        order.append(best_v)
        alive.discard(best_v)
    pos = {v: i for i, v in enumerate(order)}
    edges = []
    roots = []
    for i, v in enumerate(order):
        later = [u for u in elim_bag[v] if u != v]
        if later:
            edges.append((i, pos[min(later, key=lambda u: pos[u])]))
        else:
            roots.append(i)
    edges.extend(zip(roots, roots[1:]))
    return TreeDecomposition(n, {i: elim_bag[v] for i, v in enumerate(order)}, edges)


def caterpillar(spine: int, legs: int) -> Graph:
    edges = [(i, i + 1) for i in range(spine - 1)]
    for i in range(spine):
        for j in range(legs):
            edges.append((i, spine + i * legs + j))
    return Graph.from_edges(spine * (legs + 1), edges)


def partial_ktree(rng: random.Random, k: int, n: int, keep: float) -> Graph:
    """A random k-tree on n vertices with each edge kept with probability
    ``keep``."""
    edges = [(i, j) for i in range(k + 1) for j in range(i + 1, k + 1)]
    cliques = [tuple(range(k + 1))]
    for v in range(k + 1, n):
        sub = rng.sample(rng.choice(cliques), k)
        edges.extend((u, v) for u in sub)
        cliques.append(tuple(sub) + (v,))
    return Graph.from_edges(n, [e for e in edges if rng.random() < keep])


class TestMinFillMatchesReference:
    """The incremental min-fill picks the same elimination order as the
    full rescan, so bags and tree edges are identical."""

    @staticmethod
    def assert_same(graph):
        got = heuristic_decomposition(graph)
        want = reference_min_fill(graph)
        assert got.bags == want.bags
        assert got.edges == want.edges

    def test_random_graphs(self):
        rng = random.Random(2026)
        for _ in range(2000):
            self.assert_same(random_graph(rng, rng.randint(1, 30), rng.random()))

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 57, 300])
    def test_paths_and_cycles(self, n):
        self.assert_same(path_graph(n))
        if n >= 3:
            self.assert_same(cycle_graph(n))

    @pytest.mark.parametrize("spine,legs", [(1, 3), (10, 1), (75, 3), (100, 2)])
    def test_caterpillars(self, spine, legs):
        self.assert_same(caterpillar(spine, legs))

    @pytest.mark.parametrize("k,n,keep", [(2, 40, 1.0), (3, 120, 0.7), (4, 300, 0.65),
                                          (6, 150, 0.65), (7, 300, 1.0)])
    def test_partial_ktrees(self, k, n, keep):
        self.assert_same(partial_ktree(random.Random(k * n), k, n, keep))

    @pytest.mark.parametrize(
        "graph",
        [
            Graph(0, []),
            Graph(1, [[]]),
            Graph(12, [[] for _ in range(12)]),
            complete_graph(1),
            complete_graph(9),
            Graph.from_edges(9, [(0, 1), (1, 2), (2, 0), (4, 5), (6, 7), (7, 8)]),
            Graph.from_edges(11, [(1, 2), (2, 3), (3, 1), (5, 6), (6, 7), (7, 8),
                                  (8, 5), (5, 7), (9, 10)]),
        ],
        ids=["empty", "single", "edgeless", "k1", "k9", "three-pieces", "with-isolated"],
    )
    def test_edgeless_complete_disconnected(self, graph):
        self.assert_same(graph)


def reference_introduce(
    graph: Graph, child_bag: tuple[int, ...], table: dict, v: int
) -> dict:
    """Place v into a new singleton part (+1) or into an existing bag part."""
    bag = tuple(sorted(set(child_bag) | {v}))
    vpos = bag.index(v)
    out: dict = {}
    vadj = set(graph.adj[v])
    for (creps, cext), value in table.items():
        crep_of = dict(zip(child_bag, creps))
        cext_of = dict(zip(child_bag, cext))
        # Candidate targets: fresh singleton, or one of the child's parts.
        targets = [None] + sorted(set(creps))
        for target in targets:
            if target is None:
                rep = v
            else:
                rep = min(v, target)
            new_rep_of = {
                u: (rep if target is not None and crep_of[u] == target else crep_of[u])
                for u in child_bag
            }
            new_rep_of[v] = rep
            # Ext update: every bag edge at v realizes now.
            ext_of = dict(cext_of)
            vcross = 0
            feasible = True
            for u in child_bag:
                if u in vadj and new_rep_of[u] != new_rep_of[v]:
                    vcross += 1
                    if vcross > 1 or ext_of[u] >= 1:
                        feasible = False
                        break
                    ext_of[u] += 1
            if not feasible:
                continue
            ext_of[v] = vcross
            reps = tuple(new_rep_of[u] for u in bag)
            ext = tuple(ext_of[u] for u in bag)
            _check_key(bag, reps)
            gain = 1 if target is None else 0
            key = (reps, ext)
            cand = value + gain
            if out.get(key, -1) < cand:
                out[key] = cand
    return out


def reference_forget(child_bag: tuple[int, ...], table: dict, v: int) -> dict:
    """Project out v, re-rooting its part to the minimum remaining member
    and maximizing over v's own Ext bit."""
    bag = tuple(u for u in child_bag if u != v)
    out: dict = {}
    for (creps, cext), value in table.items():
        crep_of = dict(zip(child_bag, creps))
        vrep = crep_of[v]
        survivors = [u for u in bag if crep_of[u] == vrep]
        if survivors:
            new_root = min(survivors)
        else:
            new_root = None  # the part closes below this node
        reps = tuple(
            (new_root if crep_of[u] == vrep else crep_of[u]) for u in bag
        )
        ext = tuple(e for u, e in zip(child_bag, cext) if u != v)
        _check_key(bag, reps)
        key = (reps, ext)
        if out.get(key, -1) < value:
            out[key] = value
    return out


def triangle_replaced_cubic(h_n: int) -> Graph:
    """Cubic circulant (cycle plus antipodal chords, h_n even) with every
    vertex replaced by a triangle."""
    host = [(i, (i + 1) % h_n) for i in range(h_n)]
    host += [(i, i + h_n // 2) for i in range(h_n // 2)]
    slots = [0] * h_n
    edges = []
    for v in range(h_n):
        edges += [(3 * v, 3 * v + 1), (3 * v + 1, 3 * v + 2), (3 * v, 3 * v + 2)]
    for a, b in host:
        edges.append((3 * a + slots[a], 3 * b + slots[b]))
        slots[a] += 1
        slots[b] += 1
    return Graph.from_edges(3 * h_n, edges)


class TestTransfersMatchReference:
    """The positional transfers build the same table, key for key and value
    for value, as the dict-based ones kept above, at every node.  Both sides
    run their tables through ``transfer_join``, so introduce and forget are
    compared below joins too."""

    @staticmethod
    def assert_same_tables(graph):
        ntd = nicify(heuristic_decomposition(graph))
        # (bag, table, reference table) of every node whose parent is to come.
        stack: list = []
        for kind, bag, v in ntd.nodes:
            if kind == "leaf":
                new, ref = transfer_leaf(), transfer_leaf()
            elif kind == "introduce":
                below, got, want = stack.pop()
                new = transfer_introduce(graph, below, got, v)
                ref = reference_introduce(graph, below, want, v)
            elif kind == "forget":
                below, got, want = stack.pop()
                new = transfer_forget(below, got, v)
                ref = reference_forget(below, want, v)
            else:
                _, got_r, want_r = stack.pop()
                _, got_l, want_l = stack.pop()
                new = transfer_join(graph, bag, got_l, got_r)
                ref = transfer_join(graph, bag, want_l, want_r)
            assert new == ref, f"{kind} node with bag {bag}"
            stack.append((bag, new, ref))

    @pytest.mark.parametrize("n", [1, 2, 5, 30])
    def test_paths_and_cycles(self, n):
        self.assert_same_tables(path_graph(n))
        if n >= 3:
            self.assert_same_tables(cycle_graph(n))

    @pytest.mark.parametrize("spine,legs", [(6, 3), (12, 2)])
    def test_caterpillars(self, spine, legs):
        self.assert_same_tables(caterpillar(spine, legs))

    @pytest.mark.parametrize("k,n,keep", [(1, 40, 1.0), (2, 40, 0.8), (3, 40, 0.65),
                                          (4, 40, 0.65), (4, 20, 1.0)])
    def test_partial_ktrees(self, k, n, keep):
        self.assert_same_tables(partial_ktree(random.Random(k * n), k, n, keep))

    def test_random_graphs(self):
        rng = random.Random(808)
        for _ in range(300):
            self.assert_same_tables(
                random_graph(rng, rng.randint(1, 14), rng.uniform(0.1, 0.5)))

    def test_triangle_replaced_cubic(self):
        self.assert_same_tables(triangle_replaced_cubic(10))


class TestNicify:
    def test_structure_and_idempotent_width(self):
        td = heuristic_decomposition(cycle_graph(5))
        ntd = nicify(td)
        ntd.validate()
        # Replaying the stack program leaves one bag, the root's.
        stack = []
        for kind, bag, _v in ntd.nodes:
            if kind != "leaf":
                stack.pop()
            if kind == "join":
                stack.pop()
            stack.append(bag)
        assert stack == [()]
        assert ntd.width == td.width
        again = nicify(td)
        kinds = [kind for kind, _bag, _v in ntd.nodes]
        assert kinds == [kind for kind, _bag, _v in again.nodes]

    def test_single_bag_expansion(self):
        td = parse_td("s td 1 2 2\nb 1 1 2\n")
        ntd = nicify(td)
        kinds = [kind for kind, _bag, _v in ntd.nodes]
        assert kinds == ["leaf", "introduce", "introduce", "forget", "forget"]

    def test_node_count_linear(self):
        g = path_graph(40)
        ntd = nicify(heuristic_decomposition(g))
        assert len(ntd.nodes) <= 6 * g.n + 10

    LEAF = ("leaf", (), -1)

    @pytest.mark.parametrize(
        "nodes,message",
        [
            # A join with one table under it.
            ((LEAF, ("join", (), -1)), "fewer than two"),
            # Two roots left on the stack.
            ((LEAF, LEAF), "2 roots"),
            # Forgetting a vertex that is not in the bag below.
            ((LEAF, ("introduce", (0,), 0), ("forget", (0,), 1),
              ("forget", (), 0)), "bad forget"),
            ((LEAF, ("introduce", (0,), 0), ("introduce", (0,), 0),
              ("forget", (), 0)), "bad introduce"),
            ((LEAF, ("introduce", (0,), 0), LEAF, ("introduce", (1,), 1),
              ("join", (0,), -1), ("forget", (), 0)), "share the bag"),
            ((LEAF, ("introduce", (0,), 0)), "root bag must be empty"),
            ((("introduce", (0,), 0),), "nothing below"),
            ((), "0 roots"),
        ],
    )
    def test_validate_rejects(self, nodes, message):
        with pytest.raises(TreeDecompositionError, match=message):
            NiceTreeDecomposition(2, nodes).validate()

    def test_validate_accepts_a_join(self):
        intro = ("introduce", (0,), 0)
        NiceTreeDecomposition(1, (
            self.LEAF, intro, self.LEAF, intro, ("join", (0,), -1), ("forget", (), 0)
        )).validate()


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


class TestInvariants:
    """The DP's key and table-size checks raise InvariantError, also under
    ``python -O``."""

    def test_representative_above_its_vertex(self):
        with pytest.raises(InvariantError, match="exceeds"):
            _check_key((0, 1), (1, 1))

    def test_representative_not_its_own(self):
        # 2's representative 1 is itself represented by 0.
        with pytest.raises(InvariantError, match="not its own"):
            _check_key((0, 1, 2), (0, 0, 1))

    def test_valid_key_passes(self):
        _check_key((0, 1, 2), (0, 1, 0))

    def test_oversized_table(self, monkeypatch):
        # A one-vertex bag admits at most 1^1 * 2^1 = 2 entries.
        def corrupt(graph, child_bag, table, v):
            return {((v,), (0,)): 1, ((v,), (1,)): 1, ((v,), (2,)): 1}

        monkeypatch.setattr(treewidth, "transfer_introduce", corrupt)
        g = Graph(1, [[]])
        with pytest.raises(InvariantError, match="exceed the bound"):
            max_parts_tw(g, nicify(heuristic_decomposition(g)))

    def test_checks_run_under_optimize(self):
        code = (
            "from mmcut.graphs import InvariantError\n"
            "from mmcut.treewidth import _check_key\n"
            "try:\n"
            "    _check_key((0,), (1,))\n"
            "except InvariantError:\n"
            "    print('raised')\n"
        )
        # Import the package under test, wherever it was found.
        env = {**os.environ,
               "PYTHONPATH": str(pathlib.Path(treewidth.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout == "raised\n"


class TestStats:
    def test_table_entries_sum_over_nodes(self):
        g = path_graph(5)
        ntd = nicify(heuristic_decomposition(g))
        seen = []

        def record(name):
            original = getattr(treewidth, name)

            def wrapped(*args):
                table = original(*args)
                seen.append(len(table))
                return table
            return wrapped

        stats = {}
        with pytest.MonkeyPatch.context() as mp:
            for name in ("transfer_leaf", "transfer_introduce",
                         "transfer_forget", "transfer_join"):
                mp.setattr(treewidth, name, record(name))
            assert max_parts_tw(g, ntd, stats_out=stats) == 3
        assert len(seen) == len(ntd.nodes)
        assert stats == {"table_entries": sum(seen)}

    def test_empty_graph_counts_nothing(self):
        stats = {}
        g = Graph(0, [])
        assert max_parts_tw(g, nicify(heuristic_decomposition(g)), stats) == 0
        assert stats == {"table_entries": 0}

    def test_rescored_on_a_path(self):
        # Eliminating an end of a path adds no fill edge and updates only
        # its one neighbour; the last elimination updates nothing.
        stats = {}
        heuristic_decomposition(path_graph(10), stats_out=stats)
        assert stats == {"rescored": 10 - 1}


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
