"""Delay-bounded enumeration for graphs with a cluster modulator.

Five-stage pipeline.  Stage 1 applies reduction rules 1-9, maintaining a
partition of the modulator into monochromatic groups, recording every
erased structure in erasure order and the rule applied in each round.
Each round derives every cluster's facts (its modulator neighbours) and
the groups' stars in one pass over the clusters.
Stage 2 exhaustively enumerates the core instance H (everything except
matching clusters attached to a single monochromatic group).  Stage 3
re-attaches the non-pendant held-out clusters through a set-packing
enumeration over their neighborhoods.  Stage 4 branches over pendant edge
clusters (and isolated edge components), the structures that raise the
part count on demand.  Stage 5 visits the erased structures (twins and
clashing simple edge clusters alike) in erasure order, offering each every
matching of its edges that avoids the saturated vertices.

Every emitted solution is a canonical multicut of the original graph.  The
stream is duplicate-free because each solution has exactly one generation
path: its core is its restriction to H, stage-3 packing choices are read
off the held-out boundaries it cuts, and every pendant unit and erased
structure owns its local modes, claimed under first-come saturation
budgets.  Stage 5 is complete: every multicut cuts some matching of each
structure's edges, and a matching is dropped only when it leaves a cut
edge inside one part.  Candidate leaves that an earlier stage made
inexact (an edge whose endpoints remain connected) are discarded by the
final validation.

Stages 4 and 5 share one branch state per stage-3 cut, a ``LiftState``:
the cut, its saturated vertices, the part labelling of (G - erased
vertices) - cut and the union-find over those parts.  Stage 4 builds it
with one labelling and keeps it current through the pendant modes; at each
leaf it yields the live object, and ``lift_cluster`` places the erased
structures on it in place and leaves it as it found it.  Stage 5 gives
each erased vertex a part id as it places the vertex's structure, and
joins ids through the uncut edges, so at a lifted leaf the union-find
roots label the components of G - cut with no whole-graph labelling.  The
state is valid only until stage 4 resumes.  A stage-5 generator closed
before it is exhausted leaves the state dirty; that is safe only because
whoever closes it closes the stage-4 generator along with it, as
``enumerate_cluster`` does.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
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
    """Matching cluster attached to a single monochromatic group.  A
    pendant one (two vertices, one host edge) is a ``PendantUnit`` instead."""

    vertices: tuple[int, ...]
    nbrs: tuple[int, ...]
    boundary: tuple[Edge, ...]


@dataclass(frozen=True)
class PendantUnit:
    """Pendant edge cluster {attached, free} with its single modulator
    host, or an isolated two-vertex component (host < 0)."""

    attached: int
    free: int
    host: int


@dataclass(frozen=True)
class ErasedStructure:
    """A cluster that stage 1 erased: the twin of a kept matching cluster
    (rules 8-9) or a simple edge cluster whose modulator edges clash (rule
    6).  ``edges`` are the original graph's edges at its vertices, internal
    edges first, then the boundary edges in host order."""

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]

    @cached_property
    def modes(self) -> tuple[tuple[tuple[Edge, ...], tuple[Edge, ...], set[int]], ...]:
        """``(cut, uncut, ends)`` for every matching ``cut`` of ``edges``,
        with the other edges and the cut's endpoints: the empty matching
        first (the structure stays whole), then the rest with each edge
        taken before it is left out.  A matching is left out when the
        uncut internal edges join the ends of one of its cut edges: that
        edge would run inside one part, so ``_place`` could never accept
        it."""
        def matchings(edges: tuple[Edge, ...]) -> Iterator[tuple[Edge, ...]]:
            if not edges:
                yield ()
                return
            (a, b), rest = edges[0], edges[1:]
            for m in matchings(tuple(e for e in rest if a not in e and b not in e)):
                yield ((a, b),) + m
            yield from matchings(rest)

        # The structure's internal edges over local ids 0..k-1.
        index = {v: i for i, v in enumerate(self.vertices)}
        adj: list[list[int]] = [[] for _ in index]
        for a, b in self.edges:
            if a in index and b in index:
                adj[index[a]].append(index[b])
                adj[index[b]].append(index[a])

        def placeable(cut: tuple[Edge, ...]) -> bool:
            inner = {
                tuple(sorted((index[a], index[b])))
                for a, b in cut if a in index and b in index
            }
            if not inner:
                return True
            _count, label = component_labels(adj, inner)
            return all(label[x] != label[y] for x, y in inner)

        ordered = [cut for cut in matchings(self.edges) if placeable(cut)]
        return tuple(
            (cut, tuple(e for e in self.edges if e not in cut), _saturated(cut))
            for cut in [ordered.pop()] + ordered
        )


@dataclass
class ClusterInstance:
    graph: Graph
    modulator: frozenset[int]
    work_edges: frozenset[Edge]  # edges of the reduced graph
    h_vertices: tuple[int, ...]
    held: tuple[HeldCluster, ...]
    pendants: tuple[PendantUnit, ...]
    lift_entries: tuple[ErasedStructure, ...]  # in erasure order
    fired: tuple[str, ...]  # the rule applied in each stage-1 round

    @cached_property
    def lift_vertices(self) -> frozenset[int]:
        """Vertices of the erased structures.  Stages 4 and 5 evaluate their
        conditions on the components of (G - these) - cut: erased structures
        would otherwise bridge parts they are not yet committed to."""
        return frozenset(v for s in self.lift_entries for v in s.vertices)

    def foreign_edges(self) -> frozenset[Edge]:
        """Edges of the reduced graph absent from the original one."""
        original = {
            (u, v) if u < v else (v, u) for u, v in self.graph.edges()
        }
        return frozenset(e for e in self.work_edges if e not in original)


@dataclass(slots=True)
class _Cluster:
    """One cluster of a stage-1 round: its vertices (sorted), their set,
    each vertex's modulator neighbours (sorted, in the order of
    ``vertices``) and the sorted union of those, ``nbrs``."""

    vertices: tuple[int, ...]
    vset: frozenset[int]
    hosts: tuple[tuple[int, ...], ...]
    nbrs: tuple[int, ...]

    @property
    def matching(self) -> bool:
        """Whether its modulator edges form a non-empty matching: each
        attached vertex has one host and no host sees two of them."""
        attached = [h for h in self.hosts if h]
        return bool(attached) and (
            len(attached) == len(self.nbrs) == sum(map(len, attached))
        )

    @property
    def boundary(self) -> tuple[Edge, ...]:
        """Its modulator edges, sorted."""
        return tuple(sorted(
            _edge(v, w) for v, h in zip(self.vertices, self.hosts) for w in h
        ))

    def pendant(self) -> PendantUnit:
        """The unit of a two-vertex cluster with at most one modulator
        edge; the host is -1 when it has none."""
        (a, b), (ha, hb) = self.vertices, self.hosts
        if hb:
            a, b, ha = b, a, hb
        return PendantUnit(a, b, ha[0] if ha else -1)


class _Reducer:
    """Rules 1-9 of stage 1 over a mutable copy of the graph.

    Each round takes one snapshot of the derived structure, in one pass
    over the clusters: ``clusters`` (a ``_Cluster`` per component of the
    alive vertices outside the modulator, ordered by smallest vertex),
    ``group_of`` (modulator vertex -> index in ``mono``) and ``stars``
    (per group, the vertices outside the modulator glued to it).  Every
    rule returns its name as soon as it changes the graph or the groups,
    and a falsy value when it does not apply, so a round holds at most one
    mutation, every probe in it reads an exact snapshot, and ``fired``
    lists one name per round.  ``adj`` holds only alive vertices, and no
    rule removes a modulator vertex.
    """

    def __init__(self, graph: Graph, modulator: frozenset[int]):
        self.graph = graph
        self.mod = set(modulator)
        self.adj: list[set[int]] = [set(a) for a in graph.adj]
        self.alive: set[int] = set(range(graph.n))
        self.mono: list[set[int]] = [{u} for u in sorted(modulator)]
        self.fired: list[str] = []
        self.erased: list[tuple[int, ...]] = []  # lifted by stage 5
        self.pendant_twins: list[PendantUnit] = []
        self.clusters: list[_Cluster] = []
        self.group_of: dict[int, int] = {}
        self.stars: list[set[int]] = []

    # -- bookkeeping helpers ------------------------------------------------

    def snapshot(self) -> None:
        mod, adj = self.mod, self.adj
        skip = [v for v in range(self.graph.n) if v in mod or v not in self.alive]
        count, label = component_labels(adj, skip=skip)
        members: list[list[int]] = [[] for _ in range(count)]
        for v, c in enumerate(label):
            if c >= 0:
                members[c].append(v)
        self.group_of = group_of = {
            u: i for i, part in enumerate(self.mono) for u in part
        }
        self.stars = stars = [set() for _ in self.mono]
        self.clusters = []
        for m in members:
            hosts = tuple(tuple(sorted(u for u in adj[v] if u in mod)) for v in m)
            seen = Counter(w for h in hosts for w in h)  # host -> its neighbours here
            c = _Cluster(tuple(m), frozenset(m), hosts, tuple(sorted(seen)))
            self.clusters.append(c)
            # A cluster joins the star of group P whole when it has three or
            # more vertices and one of them has two neighbours in P, or when
            # a vertex of P has two neighbours in it; otherwise only its
            # vertices with two neighbours in P join.
            glued: dict[int, list[int]] = {}
            for v, h in zip(m, hosts):
                if len(h) >= 2:
                    for g, k in Counter(group_of[w] for w in h).items():
                        if k >= 2:
                            glued.setdefault(g, []).append(v)
            whole = {group_of[w] for w, k in seen.items() if k >= 2}
            if len(m) >= 3:
                whole.update(glued)
            for g in whole:
                stars[g] |= c.vset
            for g, vs in glued.items():
                if g not in whole:
                    stars[g].update(vs)

    def merge(self, i: int, j: int) -> None:
        a, b = min(i, j), max(i, j)
        self.mono[a] |= self.mono[b]
        del self.mono[b]

    def remove_vertex(self, v: int) -> None:
        for u in self.adj[v]:
            self.adj[u].discard(v)
        self.adj[v].clear()
        self.alive.discard(v)

    # -- the reduction rules ------------------------------------------------

    def run(self) -> None:
        self.snapshot()
        while self._apply_one():
            self.snapshot()

    def _apply_one(self) -> bool:
        rule = (
            self._rule1() or self._rule2() or self._rule3() or self._rule4()
            or self._rule5() or self._rule6() or self._rule7()
            or self._rule89()
        )
        if rule:
            self.fired.append(rule)
        return bool(rule)

    def _rule1(self) -> str | None:
        stars = self.stars
        for i in range(len(stars)):
            for j in range(i + 1, len(stars)):
                if stars[i] & stars[j]:
                    self.merge(i, j)
                    return "rule1"
        return None

    def _rule2(self) -> str | None:
        mod = sorted(self.mod)
        for ui_idx, u in enumerate(mod):
            for up in mod[ui_idx + 1:]:
                if self.group_of[u] == self.group_of[up]:
                    continue
                if len(self.adj[u] & self.adj[up]) >= 3:
                    self.merge(self.group_of[u], self.group_of[up])
                    return "rule2"
        return None

    def _rule3(self) -> str | None:
        for star in self.stars:
            inside = [c.vertices for c in self.clusters if c.vset <= star]
            if len(inside) >= 2:
                c1, c2 = inside[0], inside[1]
                for a in c1:
                    self.adj[a].update(c2)
                for b in c2:
                    self.adj[b].update(c1)
                return "rule3"
        return None

    def _rule4(self) -> str | None:
        for c in self.clusters:
            if len(c.vertices) <= 3:
                continue
            for v, h in zip(c.vertices, c.hosts):
                if not h:
                    self.remove_vertex(v)
                    return "rule4"
        return None

    def _rule5(self) -> str | None:
        for part, star in zip(self.mono, self.stars):
            for c in self.clusters:
                cluster = c.vertices
                if len(cluster) < 3 or not c.vset <= star:
                    continue
                u = min(part)
                expected = {_edge(u, cluster[0]), _edge(u, cluster[1])}
                if len(part) == 2:
                    expected.add(_edge(max(part), cluster[2]))
                current = {
                    _edge(w, v)
                    for v, h in zip(cluster, c.hosts) for w in h if w in part
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
                return "rule5"
        return None

    def _rule6(self) -> str | None:
        for c in self.clusters:
            if len(c.vertices) != 2 or all(len(h) <= 1 for h in c.hosts):
                continue  # not an edge cluster, or a matching with the modulator
            if any(len({self.group_of[w] for w in h}) > 1 for h in c.hosts):
                continue  # an endpoint sees two monochromatic groups
            self.erased.append(c.vertices)
            for v in c.vertices:
                self.remove_vertex(v)
            return "rule6"
        return None

    def _rule7(self) -> str | None:
        hits = Counter(
            pair for c in self.clusters if len(c.vertices) >= 3
            for pair in combinations(c.nbrs, 2)
        )
        for (u, up), k in sorted(hits.items()):
            if k >= 3 and self.group_of[u] != self.group_of[up]:
                self.merge(self.group_of[u], self.group_of[up])
                return "rule7"
        return None

    def _rule89(self) -> str | None:
        # Clusters are ordered by smallest vertex, so each list is sorted.
        groups: dict[tuple, list[_Cluster]] = {}
        for c in self.clusters:
            if c.matching:
                groups.setdefault((len(c.vertices), c.nbrs), []).append(c)
        for (size, nbrs), members in sorted(groups.items()):
            keep = 2 if (size == 2 and len(nbrs) == 2) else 1
            if len(members) <= keep:
                continue
            victim = members[keep]
            if size == 2 and len(nbrs) == 1:
                self.pendant_twins.append(victim.pendant())
            else:
                self.erased.append(victim.vertices)
            for v in victim.vertices:
                self.remove_vertex(v)
            return "rule8" if keep == 1 else "rule9"
        return None


def _structure_checks(red: _Reducer) -> None:
    r = len(red.mod)
    pair_bound = 3 * (r * (r - 1) // 2)
    group_of, clusters = red.group_of, red.clusters
    ambiguous = {
        v for c in clusters for v, h in zip(c.vertices, c.hosts)
        if len({group_of[w] for w in h}) >= 2
    }
    if len(ambiguous) > pair_bound:
        raise InvariantError("too many ambiguous vertices")
    # A cluster keeps at most 3 rewired host edges plus one attachment per
    # other monochromatic group; oversized remainders lose their unattached
    # vertices.
    size_cap = r + 3
    if any(len(c.vertices) > size_cap for c in clusters):
        raise InvariantError("oversized cluster")
    spanning = [
        c for c in clusters
        if len(c.vertices) >= 3 and c.matching
        and len({group_of[w] for w in c.nbrs}) >= 2
    ]
    if len(spanning) > pair_bound:
        raise InvariantError("too many spanning matching clusters")
    fixed_or_ambig = sum(
        1 for c in clusters
        if len(c.vertices) != 2 and (
            any(c.vset <= s for s in red.stars) or not ambiguous.isdisjoint(c.vertices)
        )
    )
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

    held: list[HeldCluster] = []
    pendants: list[PendantUnit] = list(red.pendant_twins)
    h_vertices = set(red.alive)
    for c in red.clusters:
        if c.nbrs and not (c.matching and len({red.group_of[w] for w in c.nbrs}) == 1):
            continue  # stays in the core
        h_vertices.difference_update(c.vertices)
        if len(c.vertices) == 2 and len(c.nbrs) <= 1:
            # A pendant edge cluster, or an isolated edge component whose
            # internal cut is a free part.
            pendants.append(c.pendant())
        elif c.nbrs:
            held.append(HeldCluster(c.vertices, c.nbrs, c.boundary))
    pendants.sort(key=lambda p: (p.attached, p.free))
    held.sort(key=lambda c: c.vertices)

    work_edges = frozenset(
        _edge(v, u) for v in red.alive for u in red.adj[v] if v < u
    )
    inst = ClusterInstance(
        graph=graph,
        modulator=mod,
        work_edges=work_edges,
        h_vertices=tuple(sorted(h_vertices)),
        held=tuple(held),
        pendants=tuple(pendants),
        lift_entries=tuple(_erased_structure(graph, vs) for vs in red.erased),
        fired=tuple(red.fired),
    )
    r = len(mod)
    bound = r + (r + 6 * (r * (r - 1) // 2)) * (r + 3) + 10 * (r * (r - 1) // 2)
    if len(inst.h_vertices) > max(bound, 1):
        raise InvariantError("core instance too large")
    _check_lift_conditions(inst)
    return inst


def _erased_structure(graph: Graph, vertices: tuple[int, ...]) -> ErasedStructure:
    """The structure on ``vertices`` with its edges in ``graph``, ordered as
    ``ErasedStructure`` states."""
    inside = set(vertices)
    adj = graph.adj
    internal = sorted({_edge(v, u) for v in vertices for u in adj[v] if u in inside})
    boundary = sorted((w, v) for v in vertices for w in adj[v] if w not in inside)
    return ErasedStructure(
        tuple(vertices), tuple(internal) + tuple(_edge(v, w) for w, v in boundary)
    )


def _check_lift_conditions(inst: ClusterInstance) -> None:
    """No edge joins two erased structures: stage 5 labels a structure's
    vertices through its edges, so the other end of each must already be
    labelled.  Every pendant unit must hang off its host alone in G minus
    the erased vertices: N(free) within {attached}, N(attached) within
    {free, host}.  Stage 4 relabels only the unit's two vertices on a cut,
    which keeps the part labelling exact only under this condition."""
    adj = inst.graph.adj
    erased = inst.lift_vertices
    for s in inst.lift_entries:
        if any(u in erased for e in s.edges for u in e if u not in s.vertices):
            raise InvariantError(
                f"erased structure {s.vertices} has an edge to another")
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
    """Stage 3: every way of additionally cutting held-out clusters whose
    whole neighborhood is still unsaturated, via set packing over those
    neighborhoods.  Pendant units wait for stage 4."""
    saturated = _saturated(core_cut)
    eligible = [hc for hc in inst.held if not saturated.intersection(hc.nbrs)]
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


@dataclass
class LiftState:
    """Branch state of stages 4 and 5 (see the module docstring).

    ``cut`` holds the cut edges and ``saturated`` their endpoints.
    ``part_of`` labels the components of (G - erased vertices) - cut, -1 on
    the erased vertices that stage 5 has not placed.  The labels are ids of
    a union-find with undo: ``parent`` links the ids and ``trail`` lists
    the roots that were linked below another, newest last.  Fresh ids are
    allocated for the new parts of cut modes and for erased vertices."""

    cut: set[Edge]
    saturated: set[int]
    part_of: list[int]
    parent: list[int]
    trail: list[int] = field(default_factory=list)

    def fresh(self) -> int:
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def link(self, ra: int, rb: int) -> None:
        """Join the sets with the distinct roots ``ra`` and ``rb``."""
        self.trail.append(rb)
        self.parent[rb] = ra

    def mark(self) -> tuple[int, int]:
        return len(self.trail), len(self.parent)

    def rollback(self, mark: tuple[int, int]) -> None:
        t, n = mark
        while len(self.trail) > t:
            rb = self.trail.pop()
            self.parent[rb] = rb
        del self.parent[n:]

    def blocked_merge(self, ra: int, rb: int) -> bool:
        """Whether a cut edge runs between the sets with roots ``ra`` and
        ``rb``: joining them would leave it inside one part."""
        find, part_of = self.find, self.part_of
        for a, b in self.cut:
            fa, fb = find(part_of[a]), find(part_of[b])
            if (fa == ra and fb == rb) or (fa == rb and fb == ra):
                return True
        return False


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
    state = LiftState(set(cut), _saturated(cut), part_of, list(range(count)))
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
        mark = state.mark()
        shared = part_of[free]
        part_of[free] = state.fresh()
        internal = _edge(attached, free)
        current.add(internal)
        saturated.update(internal)
        yield from rec(idx + 1, reached + 1)
        saturated.difference_update(internal)
        current.discard(internal)
        part_of[free] = shared
        state.rollback(mark)
        # Host branch: the whole unit becomes its own part.
        if unit.host >= 0 and unit.host not in saturated:
            part_of[attached] = part_of[free] = state.fresh()
            host_edge = _edge(attached, unit.host)
            current.add(host_edge)
            saturated.update(host_edge)
            yield from rec(idx + 1, reached + 1)
            saturated.difference_update(host_edge)
            current.discard(host_edge)
            part_of[attached] = part_of[free] = shared
            state.rollback(mark)

    yield from rec(0, count)


def lift_cluster(
    inst: ClusterInstance, leaf: LiftState, ell: int,
    stats_out: dict | None = None,
) -> Iterator[Multicut]:
    """Stage 5: visit the erased structures in erasure order on a stage-4
    leaf's live state, offering each structure every matching of
    its edges that the state allows, and emit the canonical multicuts of
    the original graph that reach the target part count.  Once exhausted it
    leaves ``leaf`` as it found it.  Leaves whose cut is not exact are
    dropped; when ``stats_out`` is given they are counted in
    ``stats_out["dead_leaves"]`` and the emitted multicuts in
    ``stats_out["emitted"]``."""
    for final in _replay(inst, leaf, 0):
        out = _leaf_multicut(inst, leaf, final)
        if out.cut_edges != final:
            # An earlier stage cut an edge inside one part.
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

    At a stage-5 leaf every vertex has an id in ``leaf.part_of``, and the
    union-find sets of those ids are the components of G - final."""
    matching_edges(inst.graph, final)
    labels = leaf.part_of
    if leaf.trail:  # some uncut structure joined two parts
        labels = map(leaf.find, labels)
    # Number the parts by first appearance in vertex order.
    index: dict[int, int] = {}
    part_of = tuple([index.setdefault(x, len(index)) for x in labels])
    crossing = frozenset({e for e in final if part_of[e[0]] != part_of[e[1]]})
    return Multicut(part_of, len(index), crossing)


def _replay(
    inst: ClusterInstance, leaf: LiftState, idx: int
) -> Iterator[set[Edge]]:
    """Stage 5's recursion from erased structure ``idx`` on: yields the live
    cut at every leaf.  Each structure is offered its matchings that avoid
    the saturated vertices, and keeps those that ``_place`` accepts."""
    if idx == len(inst.lift_entries):
        yield leaf.cut
        return
    structure = inst.lift_entries[idx]
    part_of, cut, saturated = leaf.part_of, leaf.cut, leaf.saturated
    for cut_edges, uncut, ends in structure.modes:
        if not saturated.isdisjoint(ends):
            continue
        mark = leaf.mark()
        if _place(structure.vertices, cut_edges, uncut, leaf):
            cut.update(cut_edges)
            saturated.update(ends)
            yield from _replay(inst, leaf, idx + 1)
            saturated.difference_update(ends)
            cut.difference_update(cut_edges)
        leaf.rollback(mark)
        for v in structure.vertices:
            part_of[v] = -1


def _place(
    vertices: tuple[int, ...], cut_edges: tuple[Edge, ...], uncut: tuple[Edge, ...],
    leaf: LiftState,
) -> bool:
    """Label an erased structure's vertices in ``leaf.part_of``; False if
    that makes some cut edge inexact.

    A vertex takes the id of the first labelled end of its uncut edges, or
    a fresh id; an uncut edge between two labelled sets joins them unless
    a cut edge of ``leaf.cut`` runs between the two.  Then every one of
    ``cut_edges`` must run between two sets.  The caller rolls ``leaf``
    back either way."""
    part_of, find = leaf.part_of, leaf.find
    for a, b in uncut:
        pa, pb = part_of[a], part_of[b]
        if pa < 0 and pb < 0:
            part_of[a] = part_of[b] = leaf.fresh()
        elif pa < 0:
            part_of[a] = pb
        elif pb < 0:
            part_of[b] = pa
        else:
            ra, rb = find(pa), find(pb)
            if ra != rb:
                if leaf.blocked_merge(ra, rb):
                    return False
                leaf.link(ra, rb)
    for v in vertices:
        if part_of[v] < 0:
            part_of[v] = leaf.fresh()
    for a, b in cut_edges:
        if find(part_of[a]) == find(part_of[b]):
            return False
    return True


def _lift_part_potential(inst: ClusterInstance) -> int:
    """Upper bound on parts stage 5 can still add: one per erased structure
    that has a vertex without modulator edges or none with two (every twin,
    and a simple edge cluster with an unattached endpoint).  In the other
    simple edge clusters one endpoint keeps a modulator edge under any
    matching, and the other keeps its modulator edge or the edge to the
    first, so neither can form a new part."""
    mod = inst.modulator
    out = 0
    for s in inst.lift_entries:
        seen = [sum(1 for e in s.edges if v in e and not mod.isdisjoint(e))
                for v in s.vertices]
        if min(seen) == 0 or max(seen) <= 1:
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
