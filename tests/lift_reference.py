"""Reference copies of cluster stages 4 and 5 that label the graph by BFS
at every leaf.

Stage 4 yields each leaf's cut as a frozenset, and stage 5 rebuilds the
part labelling of (G - erased vertices) - cut and its union-find from
scratch for every leaf.  ``enum_cluster`` now shares one live ``LiftState``
between the two stages; these copies are kept verbatim as the ground truth
its streams must equal, in content, order and dead leaves.
"""

from __future__ import annotations

from typing import Iterator

from mmcut.cuts import Edge, Multicut, max_parts_of_cut
from mmcut.enum_cluster import (
    ClusterInstance,
    SimpleEdgeEntry,
    TwinEntry,
    _edge,
    _LiftParts,
    _lift_part_potential,
    _saturated,
    enumerate_core,
    extend_with_matching_clusters,
    reduce_cluster_instance,
)
from mmcut.graphs import Graph, component_labels


def enumerate_cluster_bfs(
    graph: Graph, modulator, ell: int, stats_out: dict | None = None
) -> Iterator[Multicut]:
    """``enum_cluster.enumerate_cluster`` over the reference stages 4-5."""
    if stats_out is not None:
        stats_out["dead_leaves"] = 0
    if ell > graph.n:
        return
    inst = reduce_cluster_instance(graph, modulator)
    extra = _lift_part_potential(inst)
    for core_cut in enumerate_core(inst):
        for packed in extend_with_matching_clusters(inst, core_cut):
            for staged in extend_with_pendant_clusters(inst, packed, ell, extra):
                yield from lift_cluster(inst, staged, ell, stats_out)


def _lift_vertices(inst: ClusterInstance) -> set[int]:
    """Vertices of the erased structures.  Stages 4 and 5 evaluate their
    conditions on the components of (G - these) - cut: erased structures
    would otherwise bridge parts they are not yet committed to."""
    out: set[int] = set()
    for entry in inst.lift_entries:
        if isinstance(entry, SimpleEdgeEntry):
            out.update((entry.u, entry.v))
        else:
            out.update(entry.vertices)
    return out



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
        internal = _edge(unit.attached, unit.free)
        current.add(internal)
        saturated.update(internal)
        yield from rec(idx + 1, parts + 1)
        saturated.difference_update(internal)
        current.discard(internal)
        # Host branch: the whole unit becomes its own part.
        if unit.host >= 0 and unit.host not in saturated:
            host_edge = _edge(unit.attached, unit.host)
            current.add(host_edge)
            saturated.update(host_edge)
            yield from rec(idx + 1, parts + 1)
            saturated.difference_update(host_edge)
            current.discard(host_edge)

    yield from rec(0, base_p)



def lift_cluster(
    inst: ClusterInstance, cut: frozenset[Edge], ell: int,
    stats_out: dict | None = None,
) -> Iterator[Multicut]:
    """Stage 5: replay the journal of erased structures in order, branching
    over each one's locally feasible cut modes, and emit the canonical
    multicuts of the original graph that reach the target part count.
    Leaves whose cut is not exact are dropped and, when ``stats_out`` is
    given, counted in ``stats_out["dead_leaves"]``."""
    graph = inst.graph
    base_count, part_of = component_labels(graph.adj, cut, _lift_vertices(inst))
    uf = _LiftParts(base_count)
    for a, b in cut:
        uf.record_cut((a, b), part_of[a], part_of[b])

    def group_part(hosts) -> int | None:
        return part_of[hosts[0]] if hosts else None

    current = set(cut)
    saturated = _saturated(cut)
    entries = inst.lift_entries

    def rec(idx: int) -> Iterator[frozenset[Edge]]:
        if idx == len(entries):
            yield frozenset(current)
            return
        entry = entries[idx]
        if isinstance(entry, SimpleEdgeEntry):
            yield from _simple_modes(entry, idx)
        else:
            yield from _twin_modes(entry, idx)

    def _with_cut(edges_pairs, idx):
        """Add cut edges (with their part pairs), recurse, undo."""
        mark = uf.mark()
        ends = []
        for edge, pa, pb in edges_pairs:
            current.add(edge)
            ends.extend(edge)
            uf.record_cut(edge, pa, pb)
        saturated.update(ends)
        yield from rec(idx + 1)
        saturated.difference_update(ends)
        for edge, _pa, _pb in edges_pairs:
            current.discard(edge)
        uf.rollback(mark)

    def _simple_modes(entry: SimpleEdgeEntry, idx: int):
        pu = group_part(entry.u_hosts)
        pv = group_part(entry.v_hosts)
        # Stay uncut: the structure bridges its two host sides, merging
        # their parts if no cut edge runs between them.
        if pu is None or pv is None or uf.find(pu) == uf.find(pv):
            yield from rec(idx + 1)
        elif not uf.blocked_merge(pu, pv):
            mark = uf.mark()
            uf.union(pu, pv)
            yield from rec(idx + 1)
            uf.rollback(mark)
        # Internal cut: endpoints part ways with their host sides.
        if (
            graph.has_edge(entry.u, entry.v)
            and (pu is None or pv is None or uf.find(pu) != uf.find(pv))
        ):
            mark = uf.mark()
            pa = pu if pu is not None else uf.fresh()
            pb = pv if pv is not None else uf.fresh()
            yield from _with_cut(
                [(_edge(entry.u, entry.v), pa, pb)], idx
            )
            uf.rollback(mark)
        # Single host-edge cuts, only available for a one-host endpoint;
        # the pair lands in the other side's part (or a new one).
        for a, a_hosts, pa, pb in (
            (entry.u, entry.u_hosts, pu, pv),
            (entry.v, entry.v_hosts, pv, pu),
        ):
            if len(a_hosts) != 1:
                continue
            w = a_hosts[0]
            if w in saturated:
                continue
            if pb is not None and uf.find(pa) == uf.find(pb):
                continue
            mark = uf.mark()
            side = pb if pb is not None else uf.fresh()
            yield from _with_cut([(_edge(a, w), side, pa)], idx)
            uf.rollback(mark)

    def _twin_modes(entry: TwinEntry, idx: int):
        # Skip: the twin hangs uncut from its hosts, merging their parts.
        host_parts = sorted({part_of[w] for w in entry.nbrs})
        if len(host_parts) == 1 or uf.find(host_parts[0]) == uf.find(host_parts[1]):
            yield from rec(idx + 1)
        elif not uf.blocked_merge(host_parts[0], host_parts[1]):
            mark = uf.mark()
            uf.union(host_parts[0], host_parts[1])
            yield from rec(idx + 1)
            uf.rollback(mark)
        split = (
            len(host_parts) == 2
            and uf.find(host_parts[0]) != uf.find(host_parts[1])
        )
        p_at = {w: part_of[w] for w, _e in entry.edge_at}
        # Internal cut of a two-vertex twin needs its hosts split apart.
        if entry.internal_edge is not None and split:
            (w1, _e1), (w2, _e2) = entry.edge_at
            yield from _with_cut(
                [(entry.internal_edge, p_at[w1], p_at[w2])], idx
            )
        # Full boundary cut: the twin becomes its own part.
        if all(w not in saturated for w, _e in entry.edge_at):
            mark = uf.mark()
            own = uf.fresh()
            yield from _with_cut(
                [(e, own, p_at[w]) for w, e in entry.edge_at], idx
            )
            uf.rollback(mark)
        # Half cuts for two-vertex twins whose hosts sit in different parts.
        if entry.internal_edge is not None and split:
            others = {w: o for (w, _e), (o, _e2) in
                      zip(entry.edge_at, reversed(entry.edge_at))}
            for w, e in entry.edge_at:
                if w in saturated:
                    continue
                yield from _with_cut([(e, p_at[others[w]], p_at[w])], idx)

    for final in rec(0):
        out = max_parts_of_cut(graph, final)
        if out.cut_edges != final:
            # Uncut structures joined the endpoints of a cut edge.
            if stats_out is not None:
                stats_out["dead_leaves"] += 1
            continue
        if out.p >= ell:
            yield out

