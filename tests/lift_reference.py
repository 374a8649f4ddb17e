"""Reference cluster stages 4 and 5 that label the graph by BFS at every
leaf.

Stage 4 yields each leaf's cut as a frozenset and keeps no part labelling.
Stage 5 is brute force: it visits the erased structures in erasure order,
offers each every matching of its edges that avoids the saturated
vertices, and keeps the leaves that ``max_parts_of_cut`` finds exact with
at least ell parts.  ``enum_cluster`` shares one live ``LiftState`` between
the two stages and drops inexact branches as soon as they show; its streams
must equal these in content and order.
"""

from __future__ import annotations

from typing import Iterator

from mmcut.cuts import Edge, Multicut, max_parts_of_cut, sorted_edge
from mmcut.enum_cluster import (
    ClusterInstance,
    _lift_part_potential,
    _saturated,
    enumerate_core,
    extend_with_matching_clusters,
    reduce_cluster_instance,
)
from mmcut.graphs import Graph, component_labels


def enumerate_cluster_bfs(graph: Graph, modulator, ell: int) -> Iterator[Multicut]:
    """``enum_cluster.enumerate_cluster`` over the reference stages 4-5."""
    if ell > graph.n:
        return
    inst = reduce_cluster_instance(graph, modulator)
    extra = _lift_part_potential(inst)
    modes = [structure_matchings(graph, s.vertices) for s in inst.lift_entries]
    for core_cut in enumerate_core(inst):
        for packed in extend_with_matching_clusters(inst, core_cut):
            for staged in extend_with_pendant_clusters(inst, packed, ell, extra):
                yield from lift_cluster(graph, modes, staged, ell)


def _lift_vertices(inst: ClusterInstance) -> set[int]:
    return {v for s in inst.lift_entries for v in s.vertices}


def extend_with_pendant_clusters(
    inst: ClusterInstance,
    cut: frozenset[Edge],
    ell: int,
    extra_potential: int = 0,
) -> Iterator[frozenset[Edge]]:
    """Stage 4: recursive branching over pendant units.

    Each unit may stay put, cut its internal edge (a new singleton part), or
    cut its host edge when the host is still unsaturated (the unit becomes
    its own part).  Prunes as soon as the remaining units plus the lifting
    potential cannot reach the target part count."""
    base_p, _ = component_labels(inst.graph.adj, cut, _lift_vertices(inst))
    current = set(cut)
    saturated = _saturated(cut)

    def rec(idx: int, parts: int) -> Iterator[frozenset[Edge]]:
        remaining = len(inst.pendants) - idx
        if parts + remaining + extra_potential < ell:
            return
        if idx == len(inst.pendants):
            yield frozenset(current)
            return
        unit = inst.pendants[idx]
        # Skip branch.
        yield from rec(idx + 1, parts)
        # Internal branch: the free endpoint becomes a singleton part.
        internal = sorted_edge(unit.attached, unit.free)
        current.add(internal)
        saturated.update(internal)
        yield from rec(idx + 1, parts + 1)
        saturated.difference_update(internal)
        current.discard(internal)
        # Host branch: the whole unit becomes its own part.
        if unit.host >= 0 and unit.host not in saturated:
            host_edge = sorted_edge(unit.attached, unit.host)
            current.add(host_edge)
            saturated.update(host_edge)
            yield from rec(idx + 1, parts + 1)
            saturated.difference_update(host_edge)
            current.discard(host_edge)

    yield from rec(0, base_p)


def structure_matchings(graph: Graph, vertices) -> list[tuple[Edge, ...]]:
    """Every matching of the graph's edges at ``vertices``, in stage 5's
    order.  The edges are listed internal ones first, then the others by
    their outside end.  The empty matching comes first, then the others
    by their membership vector over that list, read with members first."""
    inside = set(vertices)
    adj = graph.adj
    internal = sorted({sorted_edge(v, u) for v in vertices for u in adj[v] if u in inside})
    outside = sorted((u, v) for v in vertices for u in adj[v] if u not in inside)
    edges = internal + [sorted_edge(u, v) for u, v in outside]
    found: list[tuple[Edge, ...]] = []

    def grow(matching: tuple[Edge, ...], used: frozenset[int], start: int) -> None:
        found.append(matching)
        for i in range(start, len(edges)):
            if not used.intersection(edges[i]):
                grow(matching + (edges[i],), used.union(edges[i]), i + 1)

    grow((), frozenset(), 0)
    return sorted(found, key=lambda m: (bool(m), [e not in m for e in edges]))


def lift_cluster(
    graph: Graph, modes: list[list[tuple[Edge, ...]]], cut: frozenset[Edge], ell: int,
) -> Iterator[Multicut]:
    """Stage 5: each erased structure in erasure order takes each of its
    ``modes`` that avoids the saturated vertices; a leaf is emitted when
    its cut is exact and has at least ``ell`` parts."""
    current = set(cut)
    saturated = _saturated(cut)

    def rec(idx: int) -> Iterator[frozenset[Edge]]:
        if idx == len(modes):
            yield frozenset(current)
            return
        for matching in modes[idx]:
            ends = _saturated(matching)
            if ends & saturated:
                continue
            current.update(matching)
            saturated.update(ends)
            yield from rec(idx + 1)
            saturated.difference_update(ends)
            current.difference_update(matching)

    for final in rec(0):
        out = max_parts_of_cut(graph, final)
        if out.cut_edges == final and out.p >= ell:
            yield out
