"""Dynamic programming over nice tree decompositions for maximum parts.

The table at node t is indexed by (P, Ext): P maps each bag vertex to the
smallest-labeled bag vertex in its part, Ext gives the exact number (0 or 1)
of already-realized crossing neighbors of each bag vertex within the
subgraph below t.  Entries that cannot arise are simply absent, which plays
the role of minus infinity.

The nice decomposition is a flat postorder list of ``(kind, bag, vertex)``
ops, and the DP runs it as a stack program: a leaf pushes a table,
introduce and forget rewrite the top one, and a join merges the top two.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass

from .graphs import Graph, InvariantError, component_labels


class TreeDecompositionError(ValueError):
    pass


@dataclass
class TreeDecomposition:
    """Tree over node ids with a bag (vertex set) per node."""

    n: int  # vertices of the decomposed graph
    bags: dict[int, frozenset[int]]
    edges: list[tuple[int, int]]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags.values()), default=1) - 1

    def neighbors(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {t: [] for t in self.bags}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def validate(self, graph: Graph) -> None:
        """Check that the bags form a tree, cover every edge, and that the
        bags holding each vertex are connected."""
        if graph.n != self.n:
            raise TreeDecompositionError(
                f"decomposition is for {self.n} vertices, graph has {graph.n}"
            )
        index = {t: i for i, t in enumerate(self.bags)}
        tree: list[list[int]] = [[] for _ in index]
        for a, b in self.edges:
            if a not in index or b not in index:
                raise TreeDecompositionError(
                    f"tree edge ({a + 1}, {b + 1}) names a missing bag"
                )
            tree[index[a]].append(index[b])
            tree[index[b]].append(index[a])
        if self.bags and (
            len(self.edges) != len(self.bags) - 1 or component_labels(tree)[0] != 1
        ):
            raise TreeDecompositionError("decomposition tree is not a tree")
        holding: list[set[int]] = [set() for _ in range(self.n)]
        for t, bag in self.bags.items():
            for v in bag:
                holding[v].add(t)
        for u, v in graph.edges():
            if holding[u].isdisjoint(holding[v]):
                raise TreeDecompositionError(f"edge ({u + 1}, {v + 1}) not covered")
        # In a tree, k nodes induce a connected subtree iff k - 1 tree edges
        # join two of them.
        joined = [0] * self.n
        for a, b in self.edges:
            for v in self.bags[a] & self.bags[b]:
                joined[v] += 1
        for v in range(self.n):
            if not holding[v]:
                raise TreeDecompositionError(f"vertex {v + 1} appears in no bag")
            if joined[v] != len(holding[v]) - 1:
                raise TreeDecompositionError(
                    f"bags containing vertex {v + 1} are disconnected"
                )


LEAF, INTRODUCE, FORGET, JOIN = "leaf", "introduce", "forget", "join"


@dataclass
class NiceTreeDecomposition:
    """A nice tree decomposition as a postorder list of ``(kind, bag,
    vertex)`` ops, run as a stack program: a leaf pushes the empty bag,
    introduce and forget of ``vertex`` rewrite the top bag, and a join
    merges the top two equal bags.  Bags are sorted tuples; ``vertex`` is
    -1 for leaves and joins.  The program ends with one empty root bag."""

    n: int
    nodes: tuple[tuple[str, tuple[int, ...], int], ...]

    @property
    def width(self) -> int:
        return max((len(bag) for _kind, bag, _v in self.nodes), default=1) - 1

    def validate(self) -> None:
        stack: list[tuple[int, ...]] = []
        for kind, bag, v in self.nodes:
            if kind == LEAF:
                if bag:
                    raise TreeDecompositionError("leaf bags must be empty")
            elif kind in (INTRODUCE, FORGET):
                if not stack:
                    raise TreeDecompositionError(f"{kind} node with nothing below it")
                below = stack.pop()
                if kind == INTRODUCE:
                    ok = v not in below and 0 <= v < self.n and bag == tuple(
                        sorted(below + (v,)))
                else:
                    ok = v in below and bag == tuple(u for u in below if u != v)
                if not ok:
                    raise TreeDecompositionError(f"bad {kind} node of vertex {v}")
            elif kind == JOIN:
                if len(stack) < 2:
                    raise TreeDecompositionError("join node with fewer than two below it")
                if stack.pop() != bag or stack.pop() != bag:
                    raise TreeDecompositionError("join children must share the bag")
            else:
                raise TreeDecompositionError(f"unknown node kind {kind}")
            stack.append(bag)
        if len(stack) != 1:
            raise TreeDecompositionError(
                f"decomposition ends with {len(stack)} roots, not one")
        if stack[0]:
            raise TreeDecompositionError("root bag must be empty")


def parse_td(text: str) -> TreeDecomposition:
    """PACE .td format: 's td N width+1 n' header, 'b i v...' bag lines,
    then tree edges between bag ids (all 1-based)."""
    header = None
    bags: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if len(parts) != 5 or parts[1] != "td":
                raise TreeDecompositionError(f"line {lineno}: bad solution line")
            header = (int(parts[2]), int(parts[3]), int(parts[4]))
        elif parts[0] == "b":
            if len(parts) < 2:
                raise TreeDecompositionError(f"line {lineno}: bag line without an id")
            idx = int(parts[1])
            if idx - 1 in bags:
                raise TreeDecompositionError(f"line {lineno}: bag {idx} given twice")
            bags[idx - 1] = frozenset(int(x) - 1 for x in parts[2:])
        else:
            if len(parts) != 2:
                raise TreeDecompositionError(f"line {lineno}: bad edge line")
            edges.append((int(parts[0]) - 1, int(parts[1]) - 1))
    if header is None:
        raise TreeDecompositionError("missing 's td' header")
    num_bags, _width_plus, n = header
    for idx in bags:
        if not 0 <= idx < num_bags:
            raise TreeDecompositionError(f"bag {idx + 1} is outside 1..{num_bags}")
    if len(bags) != num_bags:
        raise TreeDecompositionError(
            f"header declares {num_bags} bags, found {len(bags)}"
        )
    for idx, bag in bags.items():
        if any(not 0 <= v < n for v in bag):
            raise TreeDecompositionError(f"bag {idx + 1} references invalid vertex")
    return TreeDecomposition(n, bags, edges)


def write_td(td: TreeDecomposition) -> str:
    lines = [f"s td {len(td.bags)} {td.width + 1} {td.n}"]
    for idx in sorted(td.bags):
        lines.append(
            "b " + " ".join([str(idx + 1)] + [str(v + 1) for v in sorted(td.bags[idx])])
        )
    for a, b in td.edges:
        lines.append(f"{a + 1} {b + 1}")
    return "\n".join(lines) + "\n"


def heuristic_decomposition(
    graph: Graph, stats_out: dict | None = None
) -> TreeDecomposition:
    """Min-fill elimination ordering; ties broken by vertex id.

    No width guarantee, but exact on trees and chordal graphs.  Each
    vertex's fill (non-adjacent pairs among its remaining neighbours) sits
    in a heap keyed by (fill, vertex); entries whose fill has since changed
    are skipped on pop.  Eliminating v changes only the fills of its
    neighbours and of common neighbours of a fill edge's ends, all within
    distance two of v, and each change is applied as an exact difference:
    a fill edge {a, b} costs O(min(deg a, deg b)), removing v costs
    O(deg v), and each changed fill one heap push.  The initial fills
    (from triangle counts) cost O(t·m) on a graph of treewidth t.  Where
    no fill edge is added (trees, k-trees, chordal graphs) the whole
    ordering takes O((t + log n)·m), whatever the degrees, against the
    O(n²) of rescanning every vertex per elimination.
    ``stats_out["rescored"]`` receives the number of fill updates, one per
    vertex touched by an elimination.
    """
    n = graph.n
    if n == 0:
        return TreeDecomposition(0, {0: frozenset()}, [])
    # Neighbours among the vertices not yet eliminated, fill edges included.
    nbrs: list[set[int]] = [set(a) for a in graph.adj]
    # fill = pairs of neighbours - edges among them (triangles at v).
    triangles = [0] * n
    for a, b in graph.edges():
        for w in nbrs[a] & nbrs[b]:
            triangles[w] += 1
    score = [len(nb) * (len(nb) - 1) // 2 - t for nb, t in zip(nbrs, triangles)]
    queued = list(score)  # the fill of each vertex's newest heap entry
    heap = [(f, v) for v, f in enumerate(score)]
    heapq.heapify(heap)
    eliminated = [False] * n
    rescored = 0
    order: list[int] = []
    elim_bag: dict[int, frozenset[int]] = {}
    while heap:
        f, v = heapq.heappop(heap)
        if eliminated[v] or f != score[v]:
            continue
        eliminated[v] = True
        live = list(nbrs[v])
        touched = set(live)
        for i, a in enumerate(live):
            na = nbrs[a]
            for b in live[i + 1:]:
                if b in na:
                    continue
                # New pairs {b, x} at a for x not adjacent to b, and the
                # pair {a, b} stops counting at every common neighbour.
                nb = nbrs[b]
                both = na & nb
                score[a] += len(na) - len(both)
                score[b] += len(nb) - len(both)
                for w in both:
                    score[w] -= 1
                touched |= both
                na.add(b)
                nb.add(a)
        # N(v) is now a clique, so at a neighbour a the pairs {v, x} that
        # leave with v are those with x outside N[v].
        for a in live:
            score[a] -= len(nbrs[a]) - len(live)
            nbrs[a].discard(v)
        touched.discard(v)
        rescored += len(touched)
        for u in touched:
            if score[u] != queued[u]:
                queued[u] = score[u]
                heapq.heappush(heap, (score[u], u))
        elim_bag[v] = frozenset([v] + live)
        order.append(v)
    if stats_out is not None:
        stats_out["rescored"] = rescored
    pos = {v: i for i, v in enumerate(order)}
    bags = {i: elim_bag[v] for i, v in enumerate(order)}
    edges = []
    roots = []
    for i, v in enumerate(order):
        later = [u for u in elim_bag[v] if u != v]
        if later:
            parent = min(later, key=lambda u: pos[u])
            edges.append((i, pos[parent]))
        else:
            roots.append(i)
    # Chain component roots together so the decomposition is a single tree.
    for a, b in zip(roots, roots[1:]):
        edges.append((a, b))
    td = TreeDecomposition(n, bags, edges)
    td.validate(graph)
    return td


def nicify(td: TreeDecomposition) -> NiceTreeDecomposition:
    """Expand into leaf/introduce/forget/join nodes with empty root and
    leaf bags, preserving the width.

    The tree is rooted at the smallest bag id and walked depth-first with
    an explicit stack.  A childless bag becomes a leaf plus introductions;
    each child's bag is morphed into its parent's by forgets, then
    introductions, and every child after the first is joined in."""
    if not td.bags:
        return NiceTreeDecomposition(td.n, ((LEAF, (), -1),))
    adj = td.neighbors()
    bag_of = {t: tuple(sorted(bag)) for t, bag in td.bags.items()}
    nodes: list[tuple[str, tuple[int, ...], int]] = []

    def morph(source: tuple[int, ...], target: tuple[int, ...]) -> None:
        # Forget extras, then introduce the missing vertices.
        cur = set(source)
        tgt = set(target)
        for v in sorted(cur - tgt):
            cur.discard(v)
            nodes.append((FORGET, tuple(sorted(cur)), v))
        for v in sorted(tgt - cur):
            cur.add(v)
            nodes.append((INTRODUCE, tuple(sorted(cur)), v))

    root = min(td.bags)
    # Frames: bag id, its children, how many of them are already emitted.
    frames = [(root, adj[root], 0)]
    while frames:
        t, kids, done = frames.pop()
        if not kids:
            nodes.append((LEAF, (), -1))
            morph((), bag_of[t])
            continue
        if done:
            morph(bag_of[kids[done - 1]], bag_of[t])
            if done > 1:
                nodes.append((JOIN, bag_of[t], -1))
        if done < len(kids):
            child = kids[done]
            frames.append((t, kids, done + 1))
            frames.append((child, [s for s in adj[child] if s != t], 0))
    morph(bag_of[root], ())
    ntd = NiceTreeDecomposition(td.n, tuple(nodes))
    ntd.validate()
    return ntd


# ---------------------------------------------------------------------------
# The DP proper.  Keys are (P, Ext) with P a tuple of representatives
# aligned with the sorted bag and Ext a tuple of 0/1 flags.


def _check_key(bag: tuple[int, ...], reps: tuple[int, ...]) -> None:
    rep_of = dict(zip(bag, reps))
    for v, r in zip(bag, reps):
        if r > v:
            raise InvariantError(
                f"representative {r} of vertex {v} exceeds its vertex"
            )
        if rep_of.get(r) != r:
            raise InvariantError(f"representative {r} of vertex {v} is not its own")


def _bag_cross_counts(graph: Graph, bag, reps) -> list[int] | None:
    """Crossing neighbors inside the bag per bag vertex; None if some vertex
    already exceeds one crossing (the whole P is infeasible)."""
    rep_of = dict(zip(bag, reps))
    counts = []
    for v in bag:
        c = 0
        for u in graph.adj[v]:
            if u in rep_of and rep_of[u] != rep_of[v]:
                c += 1
        if c > 1:
            return None
        counts.append(c)
    return counts


def transfer_leaf() -> dict:
    return {((), ()): 0}


def transfer_introduce(
    graph: Graph, child_bag: tuple[int, ...], table: dict, v: int
) -> dict:
    """Place v into a new singleton part (+1) or into an existing bag part.

    Works on the key tuples by position: v enters at its place in the
    sorted bag, and only the child positions adjacent to v can gain a
    realized crossing."""
    vpos = bisect_left(child_bag, v)
    bag = child_bag[:vpos] + (v,) + child_bag[vpos:]
    vadj = set(graph.adj[v])
    near = [i for i, u in enumerate(child_bag) if u in vadj]
    out: dict = {}
    for (creps, cext), value in table.items():
        # Target v is the fresh singleton; otherwise a child part's root.
        for target in (v, *sorted(set(creps))):
            # Every bag edge from v to another part realizes now.
            cross = [i for i in near if creps[i] != target]
            if cross:
                if len(cross) > 1 or cext[cross[0]]:
                    continue
                i = cross[0]
                ext = cext[:i] + (1,) + cext[i + 1:]
                ext = ext[:vpos] + (1,) + ext[vpos:]
            else:
                ext = cext[:vpos] + (0,) + cext[vpos:]
            if target > v:
                # v becomes the root of the part it joins.
                reps = tuple(v if r == target else r for r in creps)
                reps = reps[:vpos] + (v,) + reps[vpos:]
            else:
                reps = creps[:vpos] + (target,) + creps[vpos:]
            key = (reps, ext)
            cand = value + 1 if target == v else value
            if out.get(key, -1) < cand:
                out[key] = cand
    # The check reads only the partition, so each stored one is checked once.
    for reps in {reps for reps, _ext in out}:
        _check_key(bag, reps)
    return out


def transfer_forget(child_bag: tuple[int, ...], table: dict, v: int) -> dict:
    """Project out v, re-rooting its part to the minimum remaining member
    and maximizing over v's own Ext bit.

    A root is the smallest member of its part, so when v is not its own
    root the key is the child's minus v's position; otherwise the new root
    is the first bag vertex still holding v, the smallest survivor."""
    vpos = child_bag.index(v)
    bag = child_bag[:vpos] + child_bag[vpos + 1:]
    out: dict = {}
    for (creps, cext), value in table.items():
        reps = creps[:vpos] + creps[vpos + 1:]
        if creps[vpos] == v and v in reps:
            root = bag[reps.index(v)]
            reps = tuple(root if r == v else r for r in reps)
        key = (reps, cext[:vpos] + cext[vpos + 1:])
        if out.get(key, -1) < value:
            out[key] = value
    # The check reads only the partition, so each stored one is checked once.
    for reps in {reps for reps, _ext in out}:
        _check_key(bag, reps)
    return out


def transfer_join(graph: Graph, bag: tuple[int, ...], left: dict, right: dict) -> dict:
    """Combine children sharing the bag; overlap parts are counted twice so
    the number of distinct representatives is subtracted."""
    by_p_left: dict[tuple, list] = {}
    for (reps, ext), value in left.items():
        by_p_left.setdefault(reps, []).append((ext, value))
    by_p_right: dict[tuple, list] = {}
    for (reps, ext), value in right.items():
        by_p_right.setdefault(reps, []).append((ext, value))
    out: dict = {}
    for reps, lefts in by_p_left.items():
        rights = by_p_right.get(reps)
        if rights is None:
            continue
        counts = _bag_cross_counts(graph, bag, reps)
        if counts is None:
            continue
        x = len(set(reps))
        for ext1, v1 in lefts:
            for ext2, v2 in rights:
                ext = []
                ok = True
                for idx in range(len(bag)):
                    b = counts[idx]
                    e1, e2 = ext1[idx], ext2[idx]
                    if b == 1:
                        # The crossing is visible on both sides.
                        if e1 != 1 or e2 != 1:
                            ok = False
                            break
                        ext.append(1)
                    else:
                        hidden = e1 + e2
                        if hidden > 1:
                            ok = False
                            break
                        ext.append(hidden)
                if not ok:
                    continue
                key = (reps, tuple(ext))
                cand = v1 + v2 - x
                if out.get(key, -1) < cand:
                    out[key] = cand
    return out


def max_parts_tw(
    graph: Graph, ntd: NiceTreeDecomposition, stats_out: dict | None = None
) -> int:
    """c[root, empty, empty]: the maximum number of parts of any matching
    multicut of the graph.  ``stats_out["table_entries"]`` receives the
    table sizes summed over every node of the nice decomposition."""
    if stats_out is not None:
        stats_out["table_entries"] = 0
    if graph.n == 0:
        return 0
    # The bag and table of every node whose parent is still to come.
    stack: list[tuple[tuple[int, ...], dict]] = []
    for kind, bag, v in ntd.nodes:
        if kind == LEAF:
            table = transfer_leaf()
        elif kind == INTRODUCE:
            table = transfer_introduce(graph, *stack.pop(), v)
        elif kind == FORGET:
            table = transfer_forget(*stack.pop(), v)
        else:
            right = stack.pop()[1]
            table = transfer_join(graph, bag, stack.pop()[1], right)
        bag_size = len(bag)
        if bag_size and len(table) > (bag_size ** bag_size) * (2 ** bag_size):
            raise InvariantError(
                f"{len(table)} table entries exceed the bound for a bag of "
                f"{bag_size} vertices"
            )
        if stats_out is not None:
            stats_out["table_entries"] += len(table)
        stack.append((bag, table))
    root_table = stack[-1][1]
    if not root_table:
        return 0
    return root_table[((), ())]
