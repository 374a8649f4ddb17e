"""Delay-bounded enumeration for graphs with a cluster modulator.

Five-stage pipeline.  Stage 1 applies reduction rules 1-9, maintaining a
partition of the modulator into monochromatic groups and journaling every
erased structure.  Stage 2 exhaustively enumerates the core instance H
(everything except matching clusters attached to a single monochromatic
group).  Stage 3 re-attaches the non-pendant held-out clusters through a
set-packing enumeration over their neighborhoods.  Stage 4 branches over
pendant edge clusters (and isolated edge components), the structures that
raise the part count on demand.  Stage 5 replays the journal of erased
structures, offering each its locally feasible cut modes.

Every emitted solution is a canonical multicut of the original graph.  The
stream is duplicate-free because each solution has exactly one generation
path: its core is its restriction to H, stage-3 packing choices are read
off the held-out boundaries it cuts, and every pendant unit and erased
structure owns its local modes, claimed under first-come saturation
budgets.  Candidate leaves that violate global exactness (an edge whose
endpoints remain connected) are discarded by the final validation.

Stages 4 and 5 share one branch state per stage-3 cut, a ``LiftState``:
the cut, its saturated vertices, the part labelling of (G - erased
vertices) - cut and the union-find over those parts.  Stage 4 builds it
with one labelling and keeps it current through the pendant modes; at each
leaf it yields the live object, and ``lift_cluster`` replays the journal
on it in place and leaves it as it found it.  Each lifted leaf's multicut
is read off the stage-4 labelling, joined through the uncut edges at the
erased vertices, with no whole-graph labelling.  The state is valid only
until stage 4 resumes.  A stage-5 generator closed before it is exhausted
leaves the state dirty; that is safe only because whoever closes it closes
the stage-4 generator along with it, as ``enumerate_cluster`` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

# max_parts_of_cut is not called here; it stays a module attribute so that
# instrumentation and tests that wrap enum_cluster.max_parts_of_cut see that
# stage 5 makes no whole-graph labelling.
from .cuts import Edge, Multicut, matching_edges, max_parts_of_cut  # noqa: F401
from .graphs import Graph, InvariantError, component_labels
from .modulators import Modulator, is_cluster_graph
from .oracle import SetPackingInstance, enumerate_all_multicuts, enumerate_set_packings


def _edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class HeldCluster:
    """Matching cluster attached to a single monochromatic group."""

    vertices: tuple[int, ...]
    nbrs: tuple[int, ...]
    boundary: tuple[Edge, ...]
    pendant: bool  # two vertices, one host edge: handled by stage 4


@dataclass(frozen=True)
class PendantUnit:
    """Pendant edge cluster {attached, free} with its single modulator
    host, or an isolated two-vertex component (host < 0)."""

    attached: int
    free: int
    host: int
    kept: bool


@dataclass(frozen=True)
class TwinEntry:
    """Erased duplicate of a kept matching cluster."""

    vertices: tuple[int, ...]
    nbrs: tuple[int, ...]
    edge_at: tuple[tuple[int, Edge], ...]  # per neighbor w: this twin's edge
    internal_edge: Edge | None  # only for two-vertex twins


@dataclass(frozen=True)
class SimpleEdgeEntry:
    """Simple edge cluster erased because its modulator edges clash."""

    u: int
    v: int
    u_hosts: tuple[int, ...]  # N(u) inside the modulator
    v_hosts: tuple[int, ...]


@dataclass
class ClusterInstance:
    graph: Graph
    modulator: frozenset[int]
    mono: tuple[frozenset[int], ...]
    work_edges: frozenset[Edge]  # edges of the reduced graph
    alive: tuple[int, ...]
    h_vertices: tuple[int, ...]
    held: tuple[HeldCluster, ...]
    pendants: tuple[PendantUnit, ...]
    lift_entries: tuple[object, ...]  # TwinEntry / SimpleEdgeEntry, in order
    blue: frozenset[tuple[int, ...]]
    journal: tuple[tuple, ...] = field(default_factory=tuple)

    @cached_property
    def lift_vertices(self) -> frozenset[int]:
        """Vertices of the erased structures.  Stages 4 and 5 evaluate their
        conditions on the components of (G - these) - cut: erased structures
        would otherwise bridge parts they are not yet committed to."""
        out: set[int] = set()
        for entry in self.lift_entries:
            if isinstance(entry, SimpleEdgeEntry):
                out.update((entry.u, entry.v))
            else:
                out.update(entry.vertices)
        return frozenset(out)

    @cached_property
    def erased_leaves(self) -> tuple[tuple[int, Edge, int], ...]:
        """``(v, edge, w)`` for every erased vertex v whose one edge goes to
        a vertex w that is not erased.  Stage 5 cuts only edges with an
        erased endpoint, so the rest of G - cut keeps the stage-4 parts, and
        v joins the part of w unless the edge is cut."""
        adj = self.graph.adj
        erased = self.lift_vertices
        return tuple(
            (v, _edge(v, adj[v][0]), adj[v][0]) for v in sorted(erased)
            if len(adj[v]) == 1 and adj[v][0] not in erased
        )

    @cached_property
    def erased_edges(self) -> tuple[Edge, ...]:
        """The other edges of G with an erased endpoint."""
        adj = self.graph.adj
        leaves = {v for v, _e, _w in self.erased_leaves}
        return tuple(sorted(
            {_edge(u, v) for u in self.lift_vertices - leaves for v in adj[u]}
        ))

    def foreign_edges(self) -> frozenset[Edge]:
        """Edges of the reduced graph absent from the original one."""
        original = {
            (u, v) if u < v else (v, u) for u, v in self.graph.edges()
        }
        return frozenset(e for e in self.work_edges if e not in original)

    def reconstruct_edges(self) -> frozenset[Edge]:
        """Undo the journal (newest first) to recover the original edges."""
        edges = set(self.work_edges)
        for event in reversed(self.journal):
            kind = event[0]
            if kind == "add-edges":
                edges.difference_update(event[1])
            elif kind == "rewire":
                edges.difference_update(event[1])
                edges.update(event[2])
            elif kind == "remove":
                edges.update(event[2])
        return frozenset(edges)


class _Reducer:
    """Rules 1-9 of stage 1 over a mutable copy of the graph.

    Each round takes one snapshot of the derived structure: ``clusters``
    (components of the alive vertices outside the modulator, ordered by
    smallest vertex), ``group_of`` (modulator vertex -> index in ``mono``)
    and ``stars`` (``nstar`` of every group).  Every rule returns as soon
    as it changes the graph or the groups, so a round holds at most one
    mutation and every probe in it reads an exact snapshot.
    """

    def __init__(self, graph: Graph, modulator: frozenset[int]):
        self.graph = graph
        self.mod = set(modulator)
        self.adj: list[set[int]] = [set(a) for a in graph.adj]
        self.alive: set[int] = set(range(graph.n))
        self.mono: list[set[int]] = [{u} for u in sorted(modulator)]
        self.journal: list[tuple] = []
        self.lift_entries: list[object] = []
        self.pendant_twins: list[PendantUnit] = []
        self.blue: set[tuple[int, ...]] = set()
        self.clusters: list[tuple[int, ...]] = []
        self.group_of: dict[int, int] = {}
        self.stars: list[set[int]] = []

    # -- bookkeeping helpers ------------------------------------------------

    def snapshot(self) -> None:
        skip = [
            v for v in range(self.graph.n) if v in self.mod or v not in self.alive
        ]
        count, label = component_labels(self.adj, skip=skip)
        members: list[list[int]] = [[] for _ in range(count)]
        for v, c in enumerate(label):
            if c >= 0:
                members[c].append(v)
        self.clusters = [tuple(m) for m in members]
        self.group_of = {u: i for i, part in enumerate(self.mono) for u in part}
        self.stars = [self.nstar(part) for part in self.mono]

    def merge(self, i: int, j: int) -> None:
        if i == j:
            return
        a, b = min(i, j), max(i, j)
        self.mono[a] |= self.mono[b]
        del self.mono[b]

    def cluster_nbrs(self, cluster) -> set[int]:
        out = set()
        for v in cluster:
            out.update(u for u in self.adj[v] if u in self.mod)
        return out

    def boundary_edges(self, cluster) -> list[Edge]:
        return sorted(
            _edge(v, u)
            for v in cluster for u in self.adj[v] if u in self.mod
        )

    def is_matching_cluster(self, cluster) -> bool:
        nbrs = self.cluster_nbrs(cluster)
        if not nbrs:
            return False
        for v in cluster:
            if sum(1 for u in self.adj[v] if u in self.mod) > 1:
                return False
        for w in nbrs:
            if sum(1 for v in self.adj[w] if v in cluster) > 1:
                return False
        return True

    def nstar(self, part: set[int]) -> set[int]:
        """Vertices outside the modulator glued to this monochromatic group."""
        out: set[int] = set()
        for cluster in self.clusters:
            cset = set(cluster)
            glued = [
                v for v in cluster
                if sum(1 for u in self.adj[v] if u in part) >= 2
            ]
            if (len(cluster) >= 3 and glued) or any(
                sum(1 for z in self.adj[u] if z in cset) >= 2 for u in part
            ):
                out |= cset
            else:
                out.update(glued)
        return out

    def remove_vertex(self, v: int, reason: str) -> None:
        incident = tuple(sorted(_edge(v, u) for u in self.adj[v]))
        for u in list(self.adj[v]):
            self.adj[u].discard(v)
        self.adj[v].clear()
        self.alive.discard(v)
        self.journal.append(("remove", reason, incident, v))

    # -- the reduction rules ------------------------------------------------

    def run(self) -> None:
        self.snapshot()
        while self._apply_one():
            self.snapshot()

    def _apply_one(self) -> bool:
        return (
            self._rule1() or self._rule2() or self._rule3() or self._rule4()
            or self._rule5() or self._rule6() or self._rule7()
            or self._rule89()
        )

    def _rule1(self) -> bool:
        stars = self.stars
        for i in range(len(stars)):
            for j in range(i + 1, len(stars)):
                if stars[i] & stars[j]:
                    self.merge(i, j)
                    return True
        return False

    def _rule2(self) -> bool:
        mod = sorted(self.mod & self.alive)
        for ui_idx, u in enumerate(mod):
            for up in mod[ui_idx + 1:]:
                if self.group_of[u] == self.group_of[up]:
                    continue
                common = self.adj[u] & self.adj[up] & self.alive
                if len(common) >= 3:
                    self.merge(self.group_of[u], self.group_of[up])
                    return True
        return False

    def _rule3(self) -> bool:
        for star in self.stars:
            inside = [c for c in self.clusters if set(c) <= star]
            if len(inside) >= 2:
                c1, c2 = inside[0], inside[1]
                added = []
                for a in c1:
                    for b in c2:
                        if b not in self.adj[a]:
                            self.adj[a].add(b)
                            self.adj[b].add(a)
                            added.append(_edge(a, b))
                self.journal.append(("add-edges", tuple(sorted(added))))
                return True
        return False

    def _rule4(self) -> bool:
        for cluster in self.clusters:
            if len(cluster) <= 3:
                continue
            for v in cluster:
                if not any(u in self.mod for u in self.adj[v]):
                    self.remove_vertex(v, "rule4")
                    return True
        return False

    def _rule5(self) -> bool:
        for part, star in zip(self.mono, self.stars):
            for cluster in self.clusters:
                if len(cluster) < 3 or not set(cluster) <= star:
                    continue
                cset = set(cluster)
                u = min(part)
                expected = {_edge(u, cluster[0]), _edge(u, cluster[1])}
                if len(part) == 2:
                    expected.add(_edge(max(part), cluster[2]))
                current = {
                    _edge(w, c)
                    for w in part for c in self.adj[w] if c in cset
                }
                clique_missing = []
                if len(part) > 2:
                    ps = sorted(part)
                    for a_idx, a in enumerate(ps):
                        for b in ps[a_idx + 1:]:
                            if b not in self.adj[a]:
                                clique_missing.append(_edge(a, b))
                if current == expected and not clique_missing:
                    continue
                removed = sorted(current - expected)
                added = sorted(expected - current) + clique_missing
                for a, b in removed:
                    self.adj[a].discard(b)
                    self.adj[b].discard(a)
                for a, b in added:
                    self.adj[a].add(b)
                    self.adj[b].add(a)
                self.journal.append(("rewire", tuple(added), tuple(removed)))
                return True
        return False

    def _simple_hosts(self, cluster) -> tuple | None:
        """For an edge cluster, (u_hosts, v_hosts) when both endpoints see at
        most one monochromatic group each; None when an endpoint is
        ambiguous."""
        hosts = []
        for a in cluster:
            ws = sorted(w for w in self.adj[a] if w in self.mod)
            if len({self.group_of[w] for w in ws}) > 1:
                return None
            hosts.append(tuple(ws))
        return hosts[0], hosts[1]

    def _rule6(self) -> bool:
        for cluster in self.clusters:
            if len(cluster) != 2:
                continue
            hosts = self._simple_hosts(cluster)
            if hosts is None:
                continue
            u_hosts, v_hosts = hosts
            if len(u_hosts) <= 1 and len(v_hosts) <= 1:
                continue  # forms a matching with the modulator
            u, v = cluster
            self.lift_entries.append(SimpleEdgeEntry(u, v, u_hosts, v_hosts))
            self.remove_vertex(u, "rule6")
            self.remove_vertex(v, "rule6")
            return True
        return False

    def _rule7(self) -> bool:
        big = [c for c in self.clusters if len(c) >= 3]
        mod = sorted(self.mod & self.alive)
        for ui_idx, u in enumerate(mod):
            for up in mod[ui_idx + 1:]:
                if self.group_of[u] == self.group_of[up]:
                    continue
                hits = 0
                for c in big:
                    cset = set(c)
                    if self.adj[u] & cset and self.adj[up] & cset:
                        hits += 1
                if hits >= 3:
                    self.merge(self.group_of[u], self.group_of[up])
                    return True
        return False

    def _rule89(self) -> bool:
        groups: dict[tuple, list[tuple[int, ...]]] = {}
        for c in self.clusters:
            if self.is_matching_cluster(c):
                key = (len(c), tuple(sorted(self.cluster_nbrs(c))))
                groups.setdefault(key, []).append(c)
        for (size, nbrs), members in sorted(groups.items()):
            members.sort()
            keep = 2 if (size == 2 and len(nbrs) == 2) else 1
            if len(members) <= keep:
                continue
            victim = members[keep]
            self._record_twin(victim, nbrs, size)
            for v in victim:
                self.remove_vertex(v, "rule8" if keep == 1 else "rule9")
            if keep == 1:
                self.blue.add(members[0])
            return True
        return False

    def _record_twin(self, victim, nbrs, size) -> None:
        if size == 2 and len(nbrs) == 1:
            w = nbrs[0]
            attached = next(v for v in victim if w in self.adj[v])
            free = next(v for v in victim if v != attached)
            self.pendant_twins.append(PendantUnit(attached, free, w, False))
            return
        edge_at = tuple(
            (w, _edge(w, next(v for v in victim if w in self.adj[v])))
            for w in nbrs
        )
        internal = _edge(*victim) if size == 2 else None
        self.lift_entries.append(TwinEntry(victim, nbrs, edge_at, internal))


def _structure_checks(red: _Reducer) -> None:
    r = len(red.mod)
    pair_bound = 3 * (r * (r - 1) // 2)
    ambiguous = [
        v for v in red.alive - red.mod
        if len({red.group_of[w] for w in red.adj[v] if w in red.mod}) >= 2
    ]
    if len(ambiguous) > pair_bound:
        raise InvariantError("too many ambiguous vertices")
    clusters = red.clusters
    # A cluster keeps at most 3 rewired host edges plus one attachment per
    # other monochromatic group; oversized remainders lose their unattached
    # vertices.
    size_cap = r + 3
    if any(len(c) > size_cap for c in clusters):
        raise InvariantError("oversized cluster")
    spanning = [
        c for c in clusters
        if len(c) >= 3 and red.is_matching_cluster(c)
        and len({red.group_of[w] for w in red.cluster_nbrs(c)}) >= 2
    ]
    if len(spanning) > pair_bound:
        raise InvariantError("too many spanning matching clusters")
    fixed_or_ambig = 0
    amb = set(ambiguous)
    for c in clusters:
        if len(c) == 2:
            continue
        if any(set(c) <= s for s in red.stars) or amb.intersection(c):
            fixed_or_ambig += 1
    if fixed_or_ambig > r + pair_bound:
        raise InvariantError("too many fixed/ambiguous clusters")


def reduce_cluster_instance(graph: Graph, modulator) -> ClusterInstance:
    """Stage 1: run rules 1-9 to a fixed point and classify the remains."""
    mod = frozenset(
        modulator.vertices if isinstance(modulator, Modulator) else modulator
    )
    rest = [v for v in range(graph.n) if v not in mod]
    sub, _ = graph.induced(rest)
    if not is_cluster_graph(sub):
        raise ValueError("removing the modulator does not leave a cluster graph")
    red = _Reducer(graph, mod)
    red.run()
    _structure_checks(red)

    mono = tuple(frozenset(p) for p in red.mono)
    held: list[HeldCluster] = []
    pendants: list[PendantUnit] = list(red.pendant_twins)
    h_vertices = set(red.alive)
    for cluster in red.clusters:
        nbrs = sorted(red.cluster_nbrs(cluster))
        if not nbrs:
            h_vertices.difference_update(cluster)
            if len(cluster) == 2:
                # Isolated edge component: its internal cut is a free part.
                pendants.append(
                    PendantUnit(cluster[0], cluster[1], -1, True)
                )
            continue
        if not red.is_matching_cluster(cluster):
            continue
        if len({red.group_of[w] for w in nbrs}) != 1:
            continue
        h_vertices.difference_update(cluster)
        pendant = len(cluster) == 2 and len(nbrs) == 1
        held.append(
            HeldCluster(
                cluster, tuple(nbrs),
                tuple(red.boundary_edges(cluster)), pendant,
            )
        )
        if pendant:
            w = nbrs[0]
            attached = next(v for v in cluster if w in red.adj[v])
            free = next(v for v in cluster if v != attached)
            pendants.append(PendantUnit(attached, free, w, True))
    pendants.sort(key=lambda p: (p.attached, p.free))
    held.sort(key=lambda c: c.vertices)

    work_edges = frozenset(
        _edge(v, u) for v in red.alive for u in red.adj[v] if v < u
    )
    inst = ClusterInstance(
        graph=graph,
        modulator=mod,
        mono=mono,
        work_edges=work_edges,
        alive=tuple(sorted(red.alive)),
        h_vertices=tuple(sorted(h_vertices)),
        held=tuple(held),
        pendants=tuple(pendants),
        lift_entries=tuple(red.lift_entries),
        blue=frozenset(red.blue),
        journal=tuple(red.journal),
    )
    r = len(mod)
    bound = r + (r + 6 * (r * (r - 1) // 2)) * (r + 3) + 10 * (r * (r - 1) // 2)
    if len(inst.h_vertices) > max(bound, 1):
        raise InvariantError("core instance too large")
    _check_pendant_units(inst)
    return inst


def _check_pendant_units(inst: ClusterInstance) -> None:
    """Every pendant unit must hang off its host alone in G minus the erased
    vertices: N(free) within {attached}, N(attached) within {free, host}.
    Stage 4 relabels only the unit's two vertices on a cut, which keeps the
    part labelling exact only under this condition."""
    adj = inst.graph.adj
    erased = inst.lift_vertices
    for unit in inst.pendants:
        if any(u != unit.attached and u not in erased for u in adj[unit.free]) or any(
            u not in (unit.free, unit.host) and u not in erased
            for u in adj[unit.attached]
        ):
            raise InvariantError(f"pendant unit {unit} is not pendant")


def enumerate_core(inst: ClusterInstance) -> Iterator[frozenset[Edge]]:
    """Stage 2: all matching multicut edge sets of the core instance H.

    Reduction rules may have added edges that do not exist in the original
    graph (cluster merges, rewired attachments); no restriction of an
    original solution cuts those, so core solutions using them are
    spurious and skipped."""
    if not inst.h_vertices:
        yield frozenset()
        return
    foreign = inst.foreign_edges()
    hgraph, ids = _induced_on_work(inst, inst.h_vertices)
    for cut in enumerate_all_multicuts(hgraph, 1, limit=hgraph.n):
        edges = frozenset(_edge(ids[u], ids[v]) for u, v in cut.cut_edges)
        if not edges & foreign:
            yield edges


def _induced_on_work(inst: ClusterInstance, vertices) -> tuple[Graph, list[int]]:
    keep = sorted(vertices)
    index = {v: i for i, v in enumerate(keep)}
    edges = [
        (index[u], index[v])
        for u, v in inst.work_edges if u in index and v in index
    ]
    return Graph.from_edges(len(keep), edges), keep


def _saturated(cut_edges) -> set[int]:
    out = set()
    for u, v in cut_edges:
        out.add(u)
        out.add(v)
    return out


def extend_with_matching_clusters(
    inst: ClusterInstance, core_cut: frozenset[Edge]
) -> Iterator[frozenset[Edge]]:
    """Stage 3: every way of additionally cutting non-pendant held-out
    clusters whose whole neighborhood is still unsaturated, via set packing
    over those neighborhoods.  Pendant units wait for stage 4."""
    saturated = _saturated(core_cut)
    eligible = [
        hc for hc in inst.held
        if not hc.pendant and not saturated.intersection(hc.nbrs)
    ]
    if not eligible:
        yield core_cut
        return
    universe = sorted({w for hc in eligible for w in hc.nbrs})
    uindex = {w: i for i, w in enumerate(universe)}
    family = tuple(frozenset(uindex[w] for w in hc.nbrs) for hc in eligible)
    packing_inst = SetPackingInstance(len(universe), family, 0)
    for packing in enumerate_set_packings(packing_inst, 0):
        cut = set(core_cut)
        for idx in packing:
            cut.update(eligible[idx].boundary)
        yield frozenset(cut)


class _LiftParts:
    """Union-find over the exclusion-partition part ids, with undo.

    Re-adding an erased structure uncut may merge the parts its endpoints
    hang from; the merge is feasible unless some current cut edge runs
    between the two parts (it would stop separating).  Fresh ids are
    allocated for new singleton parts created by cut modes.
    """

    def __init__(self, count: int):
        self.parent = list(range(count))
        self.trail: list[tuple[int, int]] = []
        self.pairs: list[tuple[Edge, int, int]] = []  # cut edge, its parts

    def fresh(self) -> int:
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.trail.append((rb, self.parent[rb]))
            self.parent[rb] = ra

    def mark(self) -> tuple[int, int, int]:
        return len(self.trail), len(self.pairs), len(self.parent)

    def rollback(self, mark: tuple[int, int, int]) -> None:
        t, q, n = mark
        while len(self.trail) > t:
            node, old = self.trail.pop()
            self.parent[node] = old
        del self.pairs[q:]
        del self.parent[n:]

    def blocked_merge(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        for _edge_, pa, pb in self.pairs:
            fa, fb = self.find(pa), self.find(pb)
            if (fa, fb) in ((ra, rb), (rb, ra)):
                return True
        return False

    def record_cut(self, edge: Edge, pa: int, pb: int) -> None:
        self.pairs.append((edge, pa, pb))


@dataclass
class LiftState:
    """Branch state of stages 4 and 5 (see the module docstring).

    ``cut`` holds the cut edges and ``saturated`` their endpoints.
    ``part_of`` labels the components of (G - erased vertices) - cut, -1 on
    the erased vertices; the labels are ids of ``parts``, which records
    one pair per cut edge."""

    cut: set[Edge]
    saturated: set[int]
    part_of: list[int]
    parts: _LiftParts


def extend_with_pendant_clusters(
    inst: ClusterInstance,
    cut: frozenset[Edge],
    ell: int,
    extra_potential: int = 0,
) -> Iterator[LiftState]:
    """Stage 4: recursive branching over pendant units.

    Each unit may stay put, cut its internal edge (a new singleton part), or
    cut its host edge when the host is still unsaturated (the unit becomes
    its own part).  Prunes as soon as the remaining units plus the lifting
    potential cannot reach the target part count.  Yields the live
    ``LiftState`` at every leaf; read it before resuming."""
    count, part_of = component_labels(inst.graph.adj, cut, inst.lift_vertices)
    parts = _LiftParts(count)
    for a, b in cut:
        parts.record_cut((a, b), part_of[a], part_of[b])
    state = LiftState(set(cut), _saturated(cut), part_of, parts)
    current, saturated = state.cut, state.saturated
    pendants = inst.pendants

    def rec(idx: int, reached: int) -> Iterator[LiftState]:
        remaining = len(pendants) - idx
        if reached + remaining + extra_potential < ell:
            return
        if idx == len(pendants):
            yield state
            return
        unit = pendants[idx]
        attached, free = unit.attached, unit.free
        # Skip branch.
        yield from rec(idx + 1, reached)
        # Internal branch: the free endpoint becomes a singleton part.
        mark = parts.mark()
        shared = part_of[free]
        part_of[free] = parts.fresh()
        internal = _edge(attached, free)
        parts.record_cut(internal, shared, part_of[free])
        current.add(internal)
        saturated.update(internal)
        yield from rec(idx + 1, reached + 1)
        saturated.difference_update(internal)
        current.discard(internal)
        part_of[free] = shared
        parts.rollback(mark)
        # Host branch: the whole unit becomes its own part.
        if unit.host >= 0 and unit.host not in saturated:
            own = parts.fresh()
            part_of[attached] = part_of[free] = own
            host_edge = _edge(attached, unit.host)
            parts.record_cut(host_edge, part_of[unit.host], own)
            current.add(host_edge)
            saturated.update(host_edge)
            yield from rec(idx + 1, reached + 1)
            saturated.difference_update(host_edge)
            current.discard(host_edge)
            part_of[attached] = part_of[free] = shared
            parts.rollback(mark)

    yield from rec(0, count)


def lift_cluster(
    inst: ClusterInstance, leaf: LiftState, ell: int,
    stats_out: dict | None = None,
) -> Iterator[Multicut]:
    """Stage 5: replay the journal of erased structures in order on a
    stage-4 leaf's live state, branching over each one's locally feasible
    cut modes, and emit the canonical multicuts of the original graph that
    reach the target part count.  Once exhausted it leaves ``leaf`` as it
    found it.  Leaves whose cut is not exact are dropped; when
    ``stats_out`` is given they are counted in ``stats_out["dead_leaves"]``
    and the emitted multicuts in ``stats_out["emitted"]``."""
    for final in _replay(inst, leaf, 0):
        out = _leaf_multicut(inst, leaf, final)
        if out.cut_edges != final:
            # Uncut structures joined the endpoints of a cut edge.
            if stats_out is not None:
                stats_out["dead_leaves"] += 1
            continue
        if out.p >= ell:
            if stats_out is not None:
                stats_out["emitted"] += 1
            yield out


def _leaf_multicut(
    inst: ClusterInstance, leaf: LiftState, final: set[Edge]
) -> Multicut:
    """The canonical multicut whose parts are the components of G - final,
    as ``max_parts_of_cut`` gives it, without labelling the whole graph.

    Every edge stage 5 adds to the cut touches an erased vertex, so the
    components of G - final are the stage-4 parts of ``leaf.part_of``
    joined through the uncut erased edges."""
    matching_edges(inst.graph, final)
    labels = _joined_labels(inst, leaf, final)
    # Number the parts by first appearance in vertex order.
    index: dict[int, int] = {}
    part_of = tuple([index.setdefault(x, len(index)) for x in labels])
    crossing = frozenset({e for e in final if part_of[e[0]] != part_of[e[1]]})
    return Multicut(part_of, len(index), crossing)


def _joined_labels(
    inst: ClusterInstance, leaf: LiftState, final: set[Edge]
) -> list[int]:
    """A label per vertex, equal exactly on the components of G - final.

    ``erased_edges`` are joined by a union-find whose nodes are the
    stage-4 part ids and, after them, one id per erased vertex; each root
    is the smallest id of its set.  Each erased leaf then takes the label
    of its neighbour, or one of its own when its edge is cut."""
    labels = leaf.part_of.copy()
    if inst.erased_edges:
        base = len(leaf.parts.parent)  # above every part id of stage 4
        for i, v in enumerate(inst.lift_vertices, base):
            labels[v] = i
        parent = list(range(base + len(inst.lift_vertices)))
        linked = []
        for e in inst.erased_edges:
            if e in final:
                continue
            a, b = labels[e[0]], labels[e[1]]
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                if a > b:
                    a, b = b, a
                parent[b] = a
                linked.append(b)
        if linked:
            # Each link points to a smaller id, so in ascending order one
            # step reaches the root.
            linked.sort()
            for x in linked:
                parent[x] = parent[parent[x]]
            labels = list(map(parent.__getitem__, labels))
    for v, e, w in inst.erased_leaves:
        labels[v] = -1 - v if e in final else labels[w]  # no part id is negative
    return labels


def _replay(
    inst: ClusterInstance, leaf: LiftState, idx: int
) -> Iterator[set[Edge]]:
    """Stage 5's recursion from journal entry ``idx`` on: yields the live
    cut at every leaf."""
    if idx == len(inst.lift_entries):
        yield leaf.cut
        return
    entry = inst.lift_entries[idx]
    if isinstance(entry, SimpleEdgeEntry):
        yield from _simple_modes(inst, leaf, entry, idx)
    else:
        yield from _twin_modes(inst, leaf, entry, idx)


def _with_cut(
    inst: ClusterInstance, leaf: LiftState, edges_pairs, idx: int
) -> Iterator[set[Edge]]:
    """Add cut edges (with their part pairs), recurse, undo."""
    uf = leaf.parts
    mark = uf.mark()
    ends = []
    for edge, pa, pb in edges_pairs:
        leaf.cut.add(edge)
        ends.extend(edge)
        uf.record_cut(edge, pa, pb)
    leaf.saturated.update(ends)
    yield from _replay(inst, leaf, idx + 1)
    leaf.saturated.difference_update(ends)
    for edge, _pa, _pb in edges_pairs:
        leaf.cut.discard(edge)
    uf.rollback(mark)


def _simple_modes(
    inst: ClusterInstance, leaf: LiftState, entry: SimpleEdgeEntry, idx: int
) -> Iterator[set[Edge]]:
    uf, part_of = leaf.parts, leaf.part_of
    pu = part_of[entry.u_hosts[0]] if entry.u_hosts else None
    pv = part_of[entry.v_hosts[0]] if entry.v_hosts else None
    # Stay uncut: the structure bridges its two host sides, merging
    # their parts if no cut edge runs between them.
    if pu is None or pv is None or uf.find(pu) == uf.find(pv):
        yield from _replay(inst, leaf, idx + 1)
    elif not uf.blocked_merge(pu, pv):
        mark = uf.mark()
        uf.union(pu, pv)
        yield from _replay(inst, leaf, idx + 1)
        uf.rollback(mark)
    # Internal cut: endpoints part ways with their host sides.
    if (
        inst.graph.has_edge(entry.u, entry.v)
        and (pu is None or pv is None or uf.find(pu) != uf.find(pv))
    ):
        mark = uf.mark()
        pa = pu if pu is not None else uf.fresh()
        pb = pv if pv is not None else uf.fresh()
        yield from _with_cut(inst, leaf, [(_edge(entry.u, entry.v), pa, pb)], idx)
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
        if w in leaf.saturated:
            continue
        if pb is not None and uf.find(pa) == uf.find(pb):
            continue
        mark = uf.mark()
        side = pb if pb is not None else uf.fresh()
        yield from _with_cut(inst, leaf, [(_edge(a, w), side, pa)], idx)
        uf.rollback(mark)


def _twin_modes(
    inst: ClusterInstance, leaf: LiftState, entry: TwinEntry, idx: int
) -> Iterator[set[Edge]]:
    uf, part_of, saturated = leaf.parts, leaf.part_of, leaf.saturated
    # Skip: the twin hangs uncut from its hosts, merging their parts.
    host_parts = sorted({part_of[w] for w in entry.nbrs})
    if len(host_parts) > 2:
        # Only two of the parts are used: those with the smallest
        # vertices, as a labelling numbered by smallest vertex orders
        # them (the pendant modes' fresh ids are not in that order).
        host_parts.sort(key=part_of.index)
    if len(host_parts) == 1 or uf.find(host_parts[0]) == uf.find(host_parts[1]):
        yield from _replay(inst, leaf, idx + 1)
    elif not uf.blocked_merge(host_parts[0], host_parts[1]):
        mark = uf.mark()
        uf.union(host_parts[0], host_parts[1])
        yield from _replay(inst, leaf, idx + 1)
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
            inst, leaf, [(entry.internal_edge, p_at[w1], p_at[w2])], idx
        )
    # Full boundary cut: the twin becomes its own part.
    if all(w not in saturated for w, _e in entry.edge_at):
        mark = uf.mark()
        own = uf.fresh()
        yield from _with_cut(
            inst, leaf, [(e, own, p_at[w]) for w, e in entry.edge_at], idx
        )
        uf.rollback(mark)
    # Half cuts for two-vertex twins whose hosts sit in different parts.
    if entry.internal_edge is not None and split:
        others = {w: o for (w, _e), (o, _e2) in
                  zip(entry.edge_at, reversed(entry.edge_at))}
        for w, e in entry.edge_at:
            if w in saturated:
                continue
            yield from _with_cut(inst, leaf, [(e, p_at[others[w]], p_at[w])], idx)


def _lift_part_potential(inst: ClusterInstance) -> int:
    """Upper bound on parts stage 5 can still add: one per erased twin
    (full boundary cut) plus one per erased simple edge cluster with an
    unattached endpoint (singleton via the internal cut)."""
    out = 0
    for e in inst.lift_entries:
        if isinstance(e, TwinEntry):
            out += 1
        elif not e.u_hosts or not e.v_hosts:
            out += 1
    return out


def enumerate_cluster(
    graph: Graph, modulator, ell: int, stats_out: dict | None = None
) -> Iterator[Multicut]:
    """All canonical matching multicuts of the graph with at least ``ell``
    parts, each exactly once, via the five-stage pipeline.
    ``stats_out`` receives ``stage4_leaves`` (leaves handed to stage 5),
    ``dead_leaves`` (stage-5 leaves discarded because a cut edge's
    endpoints stayed connected) and ``emitted`` (multicuts yielded)."""
    if ell < 1:
        raise ValueError("ell must be positive")
    if stats_out is not None:
        stats_out.update(stage4_leaves=0, dead_leaves=0, emitted=0)
    if ell > graph.n:
        return
    inst = reduce_cluster_instance(graph, modulator)
    extra = _lift_part_potential(inst)
    for core_cut in enumerate_core(inst):
        for packed in extend_with_matching_clusters(inst, core_cut):
            for leaf in extend_with_pendant_clusters(inst, packed, ell, extra):
                if stats_out is not None:
                    stats_out["stage4_leaves"] += 1
                yield from lift_cluster(inst, leaf, ell, stats_out)
