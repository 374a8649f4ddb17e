"""Polynomial-delay enumeration kernels: vertex cover and distance to
co-cluster.

The vertex-cover compressor keeps the cover, one pendant neighbor per cover
vertex and up to three shared independent-set neighbors per cover pair; the
lifting streams, for every kernel solution, the whole equivalence class
obtained by swapping which pendant edge of a group is cut.

The co-cluster compressor splits on the complete multipartite remainder
G - S.  With three or more classes (case A, bound 2k) or a large K_{a,b}
(case B, bound 2k + 2) the remainder is indivisible: the case's reduction
rules thin it out, a clique compaction runs only if the result is still
above the bound, and one check then enforces the bound.  The reduced
instance's solutions coincide with the original graph's.  Otherwise the
remainder is too thin to be indivisible, and S plus its small side is a
vertex cover handed to the vertex-cover kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .cuts import Edge, Multicut, max_parts_of_cut
from .graphs import Graph, InvariantError
from .modulators import Modulator, cocluster_classes
from .oracle import enumerate_all_multicuts

VC_PAIR_MARKS = 3


@dataclass(frozen=True)
class VcKernel:
    graph: Graph  # H, on its own contiguous ids
    to_g: tuple[int, ...]  # H id -> original id
    cover: frozenset[int]  # X, original ids
    marked: frozenset[int]  # Z, original ids
    pendant_groups: dict[int, tuple[Edge, ...]]  # x -> L_x (original ids)
    retained: dict[int, Edge]  # x -> l_x, the group's edge kept in H


def compress_vc(graph: Graph, cover: Modulator | frozenset[int]) -> VcKernel:
    """Marking compressor for the vertex-cover parameterization.

    Step (i) keeps one degree-1 neighbor per cover vertex, step (ii) keeps
    min(3, #common) shared higher-degree neighbors per cover pair; both pick
    smallest ids.  Isolated vertices are left out of the cover and of the
    kernel: they are singleton parts of every solution.
    """
    given = cover.vertices if isinstance(cover, Modulator) else cover
    x_set = {x for x in given if graph.degree(x) > 0}
    for v in range(graph.n):
        if v not in x_set:
            for u in graph.adj[v]:
                if u not in x_set:
                    raise ValueError(f"edge ({v}, {u}) is not covered")
    marked: set[int] = set()
    pendant_groups: dict[int, tuple[Edge, ...]] = {}
    retained: dict[int, Edge] = {}
    xs = sorted(x_set)
    for x in xs:
        ones = [y for y in graph.adj[x] if y not in x_set and graph.degree(y) == 1]
        if ones:
            z = min(ones)
            marked.add(z)
            pendant_groups[x] = tuple((min(x, y), max(x, y)) for y in sorted(ones))
            retained[x] = (min(x, z), max(x, z))
    for x, y in itertools.combinations(xs, 2):
        common = [
            z for z in graph.adj[x]
            if z not in x_set and graph.degree(z) >= 2 and z in graph.adj[y]
        ]
        for z in sorted(common)[:VC_PAIR_MARKS]:
            marked.add(z)
    keep = sorted(x_set | marked)
    hgraph, to_g = graph.induced(keep)
    kern = VcKernel(
        hgraph, tuple(to_g), frozenset(x_set), frozenset(marked),
        pendant_groups, retained,
    )
    k = len(x_set)
    if hgraph.n > 2 * k + 3 * (k * (k - 1) // 2):
        raise InvariantError("kernel size bound violated")
    return kern


def _h_solution_edge_sets(hgraph: Graph) -> Iterator[frozenset[Edge]]:
    if hgraph.n == 0:
        yield frozenset()
        return
    for cut in enumerate_all_multicuts(hgraph, 1, limit=hgraph.n):
        yield cut.cut_edges


def lift_vc(
    graph: Graph, kern: VcKernel, kernel_cut: frozenset[Edge]
) -> Iterator[Multicut]:
    """Stream the equivalence class of one kernel solution in the original
    graph: every way of re-choosing the cut pendant edge per group, in
    odometer order.

    The first combo, each group's first pendant edge, is validated and
    canonicalized by ``max_parts_of_cut``.  A pendant has degree 1 and its
    only neighbour is the group's host, so re-choosing a group's cut edge
    only moves pendants between the host's part and a singleton part: the
    later combos are labelled from a template of the first one, with the
    same part count."""
    # Translate kernel edges to original ids first.
    translated = {
        (min(kern.to_g[u], kern.to_g[v]), max(kern.to_g[u], kern.to_g[v]))
        for u, v in kernel_cut
    }
    retained_edges = {edge: x for x, edge in kern.retained.items()}
    fixed: set[Edge] = set()
    swaps: list[tuple[int, tuple[Edge, ...]]] = []  # (host, group) per swappable group
    for edge in sorted(translated):
        x = retained_edges.get(edge)
        group = kern.pendant_groups[x] if x is not None else ()
        if len(group) > 1:
            swaps.append((x, group))
        else:
            fixed.add(edge)
    cut_edges = fixed.union([group[0] for _x, group in swaps])
    first = max_parts_of_cut(graph, cut_edges)
    if first.cut_edges != cut_edges:
        raise InvariantError("lifted cut must be exact")
    yield first
    if not swaps:
        return
    # Every pendant of a swappable group placed in its host's part; the
    # first combo's cut pendants were singletons, one part per group.
    template = list(first.part_of)
    options = []
    for x, group in swaps:
        for u, v in group:
            template[u + v - x] = template[x]
        options.append([(edge, edge[0] + edge[1] - x) for edge in group])
    if len(set(template)) + len(swaps) != first.p:
        raise InvariantError("pendant swaps must preserve the part count")
    combos = itertools.product(*options)
    next(combos)  # the first combo, already emitted
    for combo in combos:
        labels = template.copy()
        for fresh, (_edge, y) in enumerate(combo, start=first.p):
            labels[y] = fresh
        # Renumbering by first appearance numbers parts by smallest vertex.
        rank = {a: i for i, a in enumerate(dict.fromkeys(labels))}
        part_of = tuple(map(rank.__getitem__, labels))
        yield Multicut(part_of, first.p, frozenset(fixed.union([e for e, _y in combo])))


@dataclass(frozen=True)
class CoclusterReduced:
    """Shrunk instance whose matching multicuts coincide with the original
    graph's, edge for edge (via the id translation)."""

    graph: Graph  # H on contiguous ids
    to_g: tuple[int, ...]  # H id -> original id; padding vertices map to -1


@dataclass(frozen=True)
class CoclusterDelegate:
    cover: frozenset[int]  # vertex cover of the original graph


def compress_cocluster(
    graph: Graph, modulator: Modulator | frozenset[int]
) -> CoclusterReduced | CoclusterDelegate:
    """Case analysis on the complete multipartite remainder G - S.

    Three or more classes (case A), or a K_{a,b} with a >= 2 and b >= 3
    (case B), form an indivisible remainder: reduction rules thin it out
    and the compaction pins the bound |V(H)| <= 2k (respectively 2k + 2).
    Otherwise S plus the small side is a vertex cover and the vertex-cover
    kernel takes over.
    """
    s_set = set(
        modulator.vertices if isinstance(modulator, Modulator) else modulator
    )
    k = len(s_set)
    rest = sorted(v for v in range(graph.n) if v not in s_set)
    sub, ids = graph.induced(rest)
    classes_local = cocluster_classes(sub)
    if classes_local is None:
        raise ValueError("removing the modulator does not leave a co-cluster graph")
    classes = [{ids[v] for v in cls} for cls in classes_local]

    sizes = sorted(len(c) for c in classes)
    if len(classes) >= 3:
        case, reducer, bound = "A", _reduce_many_classes, 2 * k
    elif len(classes) == 2 and sizes[0] >= 2 and sizes[1] >= 3:
        case, reducer, bound = "B", _reduce_two_classes, 2 * k + 2
    else:
        small = min(classes, key=len) if len(classes) == 2 else set()
        return CoclusterDelegate(frozenset(s_set | small))
    hgraph, to_g = reducer(graph, s_set, classes)
    if hgraph.n > bound:
        hgraph, to_g = _compact_from_reduced(hgraph, to_g, s_set)
    if k >= 3 and hgraph.n > bound:
        raise InvariantError(f"case {case} kernel bound violated")
    return CoclusterReduced(hgraph, to_g)


def _reduce_many_classes(graph, s_set, classes):
    """Exhaustive application of the two >=3-classes rules: a modulator
    vertex with two remainder neighbors joins the remainder (completed to
    it), and remainder vertices without modulator neighbors vanish while at
    least three classes survive."""
    s_work = set(s_set)
    adj = [set(a) for a in graph.adj]
    classes = [set(c) for c in classes]
    removed: set[int] = set()
    while True:
        blob = set().union(*classes)
        for u in sorted(s_work):
            if len(adj[u] & blob) >= 2:
                adj[u] |= blob
                for z in blob:
                    adj[z].add(u)
                s_work.discard(u)
                classes.append({u})
                break
        else:
            for u in sorted(blob):
                if not adj[u].isdisjoint(s_work):
                    continue
                cls = next(c for c in classes if u in c)
                if len(classes) - (len(cls) == 1) >= 3:
                    cls.discard(u)
                    if not cls:
                        classes.remove(cls)
                    _detach(adj, removed, u)
                    break
            else:
                return _rebuild(graph.n, adj, removed)


def _reduce_two_classes(graph, s_set, classes):
    """K_{a,b} case: rewire busy modulator vertices to the small side and
    drop unattached remainder vertices while both sides stay large."""
    adj = [set(a) for a in graph.adj]
    sides = [set(c) for c in classes]
    removed: set[int] = set()
    while True:
        blob = sides[0] | sides[1]
        target = min(sides, key=lambda c: (len(c), min(c)))
        for u in sorted(s_set):
            nblob = adj[u] & blob
            if len(nblob) >= 2 and nblob != target:
                adj[u] -= nblob
                for z in nblob:
                    adj[z].discard(u)
                adj[u] |= target
                for z in target:
                    adj[z].add(u)
                break
        else:
            if min(len(sides[0]), len(sides[1])) < 3:
                return _rebuild(graph.n, adj, removed)
            for u in sorted(blob):
                if adj[u].isdisjoint(s_set):
                    for side in sides:
                        side.discard(u)
                    _detach(adj, removed, u)
                    break
            else:
                return _rebuild(graph.n, adj, removed)


def _detach(adj: list[set[int]], removed: set[int], u: int) -> None:
    """Delete remainder vertex ``u`` and its edges from the working graph."""
    for z in adj[u]:
        adj[z].discard(u)
    adj[u].clear()
    removed.add(u)


def _rebuild(
    n: int, adj: list[set[int]], removed: set[int]
) -> tuple[Graph, tuple[int, ...]]:
    """The reduced graph on the surviving vertices, with its id map."""
    keep = sorted(set(range(n)) - removed)
    index = {v: i for i, v in enumerate(keep)}
    edges = [
        (index[u], index[v])
        for u in keep for v in adj[u] if v in index and u < v
    ]
    return Graph.from_edges(len(keep), edges), tuple(keep)


def _compact_from_reduced(hgraph: Graph, to_g, s_set) -> tuple[Graph, tuple[int, ...]]:
    """Replace the indivisible remainder of a reduced instance, which is
    nonempty when the bound is exceeded, by a clique of at least three
    vertices.

    Keeps the modulator vertices with their edges among themselves, and
    every remainder vertex a modulator vertex with one remainder neighbour
    attaches to; padding vertices (mapped to -1) fill the clique up.  A
    modulator vertex with two or more remainder neighbours is forced into
    the remainder's part: its edges there give way to two edges into the
    clique, which pin it there in every solution.
    """
    s_ids = [i for i in range(hgraph.n) if to_g[i] in s_set]
    in_s = set(s_ids)
    forced = {u for u in s_ids if sum(z not in in_s for z in hgraph.adj[u]) >= 2}
    kept = [
        (u, v) for u in s_ids for v in hgraph.adj[u]
        if (u < v if v in in_s else u not in forced)
    ]
    cut_points = sorted({v for _u, v in kept if v not in in_s})
    old_ids = sorted(in_s.union(cut_points))
    index = {v: i for i, v in enumerate(old_ids)}
    pad = max(0, 3 - len(cut_points))
    clique = [index[z] for z in cut_points] + [len(old_ids) + i for i in range(pad)]
    edges = [(index[u], index[v]) for u, v in kept]
    edges += itertools.combinations(clique, 2)
    edges += [(index[u], a) for u in forced for a in clique[:2]]
    return (
        Graph.from_edges(len(old_ids) + pad, edges),
        tuple(to_g[i] for i in old_ids) + (-1,) * pad,
    )


def enumerate_via_kernel(
    graph: Graph, modulator: Modulator, ell: int
) -> Iterator[Multicut]:
    """All matching multicuts of the graph with >= ell parts, duplicate
    free, through the compressor/lifting pipeline for the given modulator
    kind (vertex-cover or co-cluster).

    Kernel-side solutions are enumerated exhaustively; the kernel has O(k^2)
    vertices so this is the parameter-bounded part of the work.
    """
    if ell < 1:
        raise ValueError("ell must be positive")
    if modulator.kind == "vertex-cover":
        yield from _enumerate_vc(graph, set(modulator.vertices), ell)
    elif modulator.kind == "co-cluster":
        result = compress_cocluster(graph, modulator)
        if isinstance(result, CoclusterDelegate):
            yield from _enumerate_vc(graph, set(result.cover), ell)
            return
        for h_cut in _h_solution_edge_sets(result.graph):
            translated = set()
            for u, v in h_cut:
                gu, gv = result.to_g[u], result.to_g[v]
                if gu == -1 or gv == -1 or not graph.has_edge(gu, gv):
                    raise InvariantError(
                        "reduced-instance solutions only use original edges"
                    )
                translated.add((min(gu, gv), max(gu, gv)))
            cut = max_parts_of_cut(graph, translated)
            if cut.cut_edges != translated:
                raise InvariantError("translated cut must be exact")
            if cut.p >= ell:
                yield cut
    else:
        raise ValueError(f"unsupported modulator kind {modulator.kind!r}")


def _enumerate_vc(graph: Graph, cover: set[int], ell: int) -> Iterator[Multicut]:
    kern = compress_vc(graph, cover)
    for h_cut in _h_solution_edge_sets(kern.graph):
        for cut in lift_vc(graph, kern, h_cut):
            if cut.p < ell:
                # Part counts are constant across the class: skip it.
                break
            yield cut
