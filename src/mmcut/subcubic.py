"""Constructive matching multicuts for subcubic graphs.

Large subcubic graphs always admit a multicut into ell parts; the three
constructions below (pendant-edge matching, subdivided-edge pairs, and
disjoint-cycle boundaries) realize the win-win argument behind the
quasi-linear kernel: either one of them produces a witness, or the instance
is already small and is returned unchanged as the kernel.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .cuts import Multicut, max_parts_of_cut, sorted_edge, validate_multicut
from .graphs import Graph, InvariantError

log = logging.getLogger(__name__)

KERNEL_SIZE_FACTOR = 10 ** 6


@dataclass(frozen=True)
class CyclePacking:
    """Vertex-disjoint vertex sets, each inducing a (chordless) cycle."""

    cycles: tuple[tuple[int, ...], ...]

    def check(self, graph: Graph) -> bool:
        seen: set[int] = set()
        for cyc in self.cycles:
            if seen.intersection(cyc):
                return False
            seen.update(cyc)
            inside = set(cyc)
            if len(inside) < 3 or len(inside) != len(cyc):
                return False
            for v in cyc:
                if sum(1 for u in graph.adj[v] if u in inside) != 2:
                    return False
            sub, _ = graph.induced(cyc)
            if not sub.is_connected():
                return False
        return True


def _require_subcubic(graph: Graph) -> None:
    if graph.max_degree > 3:
        raise ValueError(f"maximum degree {graph.max_degree} exceeds 3")


def multicut_from_degree_one(graph: Graph, ell: int) -> Multicut | None:
    """Greedy matching on pendant edges; applicable when |V1| >= 3*ell.

    Each matched edge isolates its pendant endpoint, and removing pendant
    edges never disconnects the remainder, so the matching is a multicut
    with more parts than matched edges.
    """
    _require_subcubic(graph)
    if not graph.is_connected():
        raise ValueError("construction requires a connected graph")
    pendants = [v for v in range(graph.n) if graph.degree(v) == 1]
    if len(pendants) < 3 * ell:
        return None
    saturated = [False] * graph.n
    matching = []
    for w in pendants:
        u = graph.adj[w][0]
        if not saturated[w] and not saturated[u]:
            saturated[w] = saturated[u] = True
            matching.append(sorted_edge(w, u))
    cut = max_parts_of_cut(graph, matching)
    if cut.p < ell:
        raise InvariantError("pendant matching fell short of the guaranteed parts")
    return cut


def _subdivided_edges(graph: Graph) -> list[tuple[int, int, int, int]]:
    """All (u', u, v, v') with deg(u) = deg(v) = 2 and four distinct
    vertices, ordered by the middle edge (u, v)."""
    out = []
    for u in range(graph.n):
        if graph.degree(u) != 2:
            continue
        for v in graph.adj[u]:
            if u < v and graph.degree(v) == 2:
                for up in graph.adj[u]:
                    if up == v:
                        continue
                    for vp in graph.adj[v]:
                        if vp == u or vp == up:
                            continue
                        out.append((up, u, v, vp))
    return out


def multicut_from_subdivided_edges(graph: Graph, ell: int) -> Multicut | None:
    """Greedy disjoint subdivided edges (u',u,v,v'), cutting u'u and vv'.

    Applicable when at least 90% of the vertices have degree 2 and
    n >= 21*ell; each selection carves out the two-vertex part {u, v} and
    invalidates at most 7 other candidates.
    """
    _require_subcubic(graph)
    if not graph.is_connected():
        raise ValueError("construction requires a connected graph")
    n = graph.n
    if n < 21 * ell:
        return None
    deg2 = sum(1 for v in range(n) if graph.degree(v) == 2)
    if 10 * deg2 < 9 * n:
        return None
    marked = [False] * n
    matching = []
    selections = 0
    for up, u, v, vp in _subdivided_edges(graph):
        if marked[up] or marked[u] or marked[v] or marked[vp]:
            continue
        marked[up] = marked[u] = marked[v] = marked[vp] = True
        matching.append(sorted_edge(up, u))
        matching.append(sorted_edge(v, vp))
        selections += 1
    cut = max_parts_of_cut(graph, matching)
    if selections < ell or cut.p < ell:
        raise InvariantError("subdivided-edge greedy fell short")
    return cut


def _strip_low_degree(
    adj: list[set[int]], alive: set[int], candidates: set[int]
) -> None:
    """Delete vertices of degree <= 1 until none is left.  Only the
    ``candidates`` and the vertices whose degree falls on the way are
    examined, so the candidates must hold every alive vertex of degree
    <= 1."""
    queue = [v for v in candidates if len(adj[v]) <= 1]
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


def _seed_pure_cycles(adj: list[set[int]], low: list[int]) -> None:
    """Raise ``low`` to the component's length on every component that is a
    single cycle (no vertex of degree 3): a BFS from any of its vertices
    finds that cycle or nothing."""
    seen: set[int] = set()
    for v in range(len(adj)):
        if v in seen or len(adj[v]) != 2:
            continue
        seen.add(v)
        walk = [v]
        prev, cur = v, next(iter(adj[v]))
        # Walk one way round.  A vertex seen before lies in a component
        # already found to hold a degree-3 vertex.
        while cur != v and cur not in seen and len(adj[cur]) == 2:
            seen.add(cur)
            walk.append(cur)
            a, b = adj[cur]
            prev, cur = cur, (b if a == prev else a)
        if cur == v:
            for u in walk:
                low[u] = max(low[u], len(walk))


def _cycle_reach(adj, start, dist, parent):
    """Uncapped BFS from ``start``: ``(tau, low, cycle)``.

    Every non-tree edge the search meets closes a fundamental cycle of the
    BFS tree, which is always simple; the search keeps the first shortest
    one, ``cycle``, and stops at the depth where no shorter one can close.
    ``tau`` is the least over these cycles of max(length, 2 * depth), with
    depth the frontier level that met the edge.

    A search that reports only cycles of length <= cap and stops at depth
    cap / 2 finds nothing exactly when cap < tau, and ``cycle`` for every
    cap >= tau: until it reports a cycle it runs as this one does (it stops
    no later), and the first shortest cycle here lies at a depth of at most
    tau / 2.  So one run answers the search for every cap.

    tau itself can fall when vertices are deleted, since the BFS tree
    changes.  ``low`` <= tau is the least over all cycles C of
    max(|C|, 2 * d(C)), where d(C) is the largest distance from ``start``
    at which an edge of C has its nearer end.  Deleting vertices removes
    cycles and lengthens distances, so ``low`` never falls.  Every
    fundamental cycle met at depth d has d(C) <= d, so ``low`` <= tau.
    No cycle has d(C) below the first level d0 that meets a non-tree edge,
    and one met there gives tau <= 2 * d0 + 2.  So ``low`` differs from tau
    only through a shorter cycle among the edges examined up to level d0:
    the least nonzero sum of the fundamental cycles of the non-tree edges
    met at d0 (``_span_girth``).

    ``dist`` must be -1 everywhere and is left so; ``parent`` is scratch.
    """
    dist[start] = 0
    parent[start] = -1
    seen = [start]
    frontier = [start]
    cycle = None
    best_len = tau = 2 * len(dist)  # above every cycle length and depth
    first = -1  # d0
    closing = []  # the non-tree edges met at depth d0, each once
    depth = 0
    while frontier and 2 * depth < best_len:
        nxt = []
        for a in frontier:
            pa = parent[a]
            for b in adj[a]:
                if b == pa:
                    continue
                db = dist[b]
                if db < 0:
                    dist[b] = depth + 1
                    parent[b] = a
                    nxt.append(b)
                    continue
                if first < 0:
                    first = depth
                if depth == first and (db > depth or a < b):
                    closing.append((a, b))
                # Walk both endpoints up to their meeting point; BFS depths
                # of adjacent vertices differ by at most one.
                x = parent[a] if db < depth else a
                y = parent[b] if db > depth else b
                while x != y:
                    x, y = parent[x], parent[y]
                length = depth + db + 1 - 2 * dist[x]
                reach = length if length > 2 * depth else 2 * depth
                if reach < tau:
                    tau = reach
                if length < best_len:
                    best_len = length
                    up_a, up_b = [a], [b]
                    while up_a[-1] != x:
                        up_a.append(parent[up_a[-1]])
                    while up_b[-1] != x:
                        up_b.append(parent[up_b[-1]])
                    cycle = tuple(up_a + up_b[-2::-1])
        seen += nxt
        frontier = nxt
        depth += 1
    low = tau
    if len(closing) > 1 and tau > 2 * first:
        low = min(tau, max(_span_girth(closing, dist, parent), 2 * first))
    for u in seen:
        dist[u] = -1
    return tau, low, cycle


SPAN_GIRTH_EDGES = 10


def _span_girth(closing, dist, parent):
    """Length of the shortest cycle made of BFS tree edges and the non-tree
    edges ``closing``, or 0 when there are more than ``SPAN_GIRTH_EDGES``.

    Every such cycle is a sum (symmetric difference) of the edges'
    fundamental cycles, and every nonzero sum is an edge-disjoint union of
    such cycles, so the least nonzero sum is the shortest cycle.  Sums run
    over all subsets in Gray-code order, with each cycle an int whose bits
    are its edges (a tree edge is named by its child)."""
    k = len(closing)
    if k > SPAN_GIRTH_EDGES:
        return 0
    bit: dict[int, int] = {}
    masks = []
    for i, (a, b) in enumerate(closing):
        mask = 1 << i
        while a != b:
            if dist[a] < dist[b]:
                a, b = b, a
            mask ^= 1 << bit.setdefault(a, k + len(bit))
            a = parent[a]
        masks.append(mask)
    girth = total = 0
    for step in range(1, 1 << k):
        total ^= masks[(step & -step).bit_length() - 1]
        size = total.bit_count()
        if girth == 0 or size < girth:
            girth = size
    return girth


def find_disjoint_cycles(graph: Graph) -> CyclePacking:
    """Greedy shortest-cycle-first packing for graphs with 2 <= deg <= 3.

    Repeatedly extracts a globally shortest (hence chordless) cycle, the
    first one found in vertex order, deletes it and suppresses the
    resulting degree <= 1 chains.  A round scans the vertices in order for
    a BFS cycle shorter than its best so far, stopping at a triangle.  Each
    BFS is uncapped (``_cycle_reach``) and gives the vertex's reach tau:
    the BFS capped below the round's best finds a cycle exactly when tau is
    below that best, and then always the same cycle.  It also gives a lower
    bound on tau that deletions never lower; it is cached, and a vertex is
    searched again only once a round's best rises above it.  The achieved
    packing size relative to |V>=3| / (4 log2 |V>=3|) is logged; the bound
    is a property of the test families, not a universal guarantee of the
    greedy.
    """
    if graph.min_degree < 2:
        raise ValueError("cycle packing requires minimum degree 2")
    _require_subcubic(graph)
    v3 = sum(1 for v in range(graph.n) if graph.degree(v) >= 3)
    adj = [set(a) for a in graph.adj]
    alive = set(range(graph.n))
    dist = [-1] * graph.n
    parent = [-1] * graph.n
    cycles: list[tuple[int, ...]] = []
    low = [3] * graph.n
    _seed_pure_cycles(adj, low)
    while alive:
        best = None
        best_len = len(alive) + 1
        for v in range(graph.n):
            if v not in alive or low[v] >= best_len:
                continue
            tau, low[v], found = _cycle_reach(adj, v, dist, parent)
            if tau < best_len:
                best, best_len = found, len(found)
                if best_len == 3:
                    break
        if best is None:
            break
        cycles.append(tuple(sorted(best)))
        # Only the cycle's neighbours lose degree, so they seed the strip.
        touched: set[int] = set()
        for v in best:
            alive.discard(v)
            for u in adj[v]:
                adj[u].discard(v)
                touched.add(u)
            adj[v].clear()
        touched.difference_update(best)
        _strip_low_degree(adj, alive, touched)
    packing = CyclePacking(tuple(cycles))
    if v3 >= 8:
        bound = v3 / (4 * math.log2(v3))
        log.info(
            "cycle packing: %d cycles, degree->=3 bound %.2f", len(cycles), bound
        )
    return packing


def close_cycle_sets(graph: Graph, packing: CyclePacking) -> list[frozenset[int]]:
    """Absorb every vertex with two neighbors inside a set; afterwards each
    set's boundary is a matching cut.  Closures stay disjoint for
    subcubic graphs."""
    closed = [set(c) for c in packing.cycles]
    # Sets cannot interact below maximum degree 3 (a vertex would need two
    # neighbors in each of two disjoint sets), so each closes independently.
    for cset in closed:
        while True:
            fringe = {u for v in cset for u in graph.adj[v]} - cset
            grow = [
                u for u in fringe
                if sum(1 for w in graph.adj[u] if w in cset) >= 2
            ]
            if not grow:
                break
            cset.update(grow)
    seen: set[int] = set()
    for cset in closed:
        if seen.intersection(cset):
            raise InvariantError("cycle closures overlap; input not subcubic?")
        seen.update(cset)
    return [frozenset(c) for c in closed]


def second_neighborhood(graph: Graph, vertices) -> set[int]:
    """Closed second neighborhood N^2[S] = N[N[S]]."""
    first = set(vertices)
    for v in list(first):
        first.update(graph.adj[v])
    out = set(first)
    for v in list(first):
        out.update(graph.adj[v])
    return out


def multicut_from_cycles(
    graph: Graph, packing: CyclePacking, ell: int
) -> Multicut | None:
    """Select non-conflicting small cycle closures and cut their boundaries.

    Closures are sorted by size; only the first half is eligible.  Each
    selection marks its closed second neighborhood, which keeps the union of
    boundaries a matching.
    """
    _require_subcubic(graph)
    closed = close_cycle_sets(graph, packing)
    order = sorted(closed, key=lambda c: (len(c), min(c) if c else -1))
    half = order[: (len(order) + 1) // 2]
    marked: set[int] = set()
    matching: list[tuple[int, int]] = []
    selections = 0
    for cset in half:
        if marked.intersection(cset):
            continue
        for v in cset:
            for u in graph.adj[v]:
                if u not in cset:
                    matching.append(sorted_edge(u, v))
        marked.update(second_neighborhood(graph, cset))
        selections += 1
    if selections < ell:
        return None
    cut = max_parts_of_cut(graph, matching)
    if cut.p < ell:
        raise InvariantError("cycle-boundary cut fell short of its selections")
    return cut


def strip_degree_one(graph: Graph) -> tuple[Graph, list[int]]:
    """Recursively remove degree-1 vertices; returns (core, old ids).

    Any matching multicut of the core is one of the original graph with the
    same number of parts: the stripped pendant trees hang back onto their
    attachment components.
    """
    adj = [set(a) for a in graph.adj]
    alive = set(range(graph.n))
    _strip_low_degree(adj, alive, alive)
    return graph.induced(sorted(alive))


@dataclass(frozen=True)
class KernelizeResult:
    solved: Multicut | None
    kernel: tuple[Graph, int] | None


def kernelize_subcubic(graph: Graph, ell: int) -> KernelizeResult:
    """Win-win pipeline: construct a witness via the pendant, subdivided-edge
    or cycle constructions, otherwise return the unchanged instance as the
    kernel (checking that it is small relative to ell)."""
    if ell < 1:
        raise ValueError("ell must be positive")
    _require_subcubic(graph)
    comps = graph.components()
    if graph.n > 0 and ell <= len(comps):
        cut = max_parts_of_cut(graph, [])
        return KernelizeResult(cut, None)
    for comp in comps:
        sub, ids = graph.induced(comp)
        # Other components contribute one part each.
        target = max(1, ell - (len(comps) - 1))
        cut = _component_construction(sub, target)
        if cut is None:
            continue
        matching = [(ids[u], ids[v]) for u, v in cut.cut_edges]
        lifted = max_parts_of_cut(graph, matching)
        # A construction reaches its target, and each other component adds
        # a part, so a shortfall means a construction broke its guarantee.
        if lifted.p < ell:
            raise InvariantError(
                f"lifted witness has {lifted.p} parts, fewer than {ell}")
        problem = validate_multicut(graph, lifted.part_of, ell)
        if problem is not None:
            raise InvariantError(f"lifted witness is invalid: {problem}")
        return KernelizeResult(lifted, None)
    if ell >= 2:
        bound = KERNEL_SIZE_FACTOR * ell * (math.log2(ell) ** 2)
        if graph.n >= bound:
            raise InvariantError("constructions must succeed on large instances")
    return KernelizeResult(None, (graph, ell))


def _component_construction(sub: Graph, target: int) -> Multicut | None:
    cut = multicut_from_degree_one(sub, target)
    if cut is not None:
        return cut
    cut = multicut_from_subdivided_edges(sub, target)
    if cut is not None:
        return cut
    core, core_ids = strip_degree_one(sub)
    if core.n == 0:
        return None
    packing = find_disjoint_cycles(core)
    if not packing.cycles:
        return None
    core_cut = multicut_from_cycles(core, packing, target)
    if core_cut is None:
        return None
    matching = [(core_ids[u], core_ids[v]) for u, v in core_cut.cut_edges]
    lifted = max_parts_of_cut(sub, matching)
    if lifted.p < core_cut.p:
        raise InvariantError("lifting the core's cut lost parts")
    return lifted
