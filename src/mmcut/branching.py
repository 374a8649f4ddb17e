"""Exact branch-and-reduce solver for matching multicuts.

The search works over partial assignments of vertices to at most ``ell``
part labels plus a free pool, driven by stopping rules S1-S3, reduction
rules R1-R7 and branching configurations B1-B8/B4'.  S4 (an assigned vertex
with two crossing neighbors) has no check: ``assign_vertex`` refuses the
second crossing, so no search state has one.  B6 has no detector:
every B6 configuration also satisfies B4 at the same vertex, and B4 is
tried on every vertex first.  Part-permutation symmetry is broken by
restricted growth (label j+1 only opens after label j) and by seeding:
isolated vertices and pendants with distinct hosts are pinned as frozen
singleton parts (any witness can be rearranged that way), then the lowest
remaining vertex anchors the next label.

Two engine-level additions keep the rule set complete on arbitrary inputs:
pendant vertices get a dedicated two-way branch (open a fresh singleton
part or join the host's part), and when neither a configuration nor a
valid closing assignment exists the engine falls back to branching the
lowest free vertex over every open label.  A candidate assignment is
accepted iff its canonical form has at least ``ell`` parts, so labelings
that merge several connected parts into one label still certify a yes.

``solve_max`` searches upward: from the cutless multicut (one part per
component) it asks for one part more than its best witness has until the
answer is no, so it never pays for the no-instances above the optimum
except the last one.  Every rule round scans the neighborhoods once per
rule family: the stopping rules in one pass, R1/R3 from one scan of the
assigned vertices, and the B-detectors from one contact list per free
vertex.
"""

from __future__ import annotations

from .cuts import Multicut, _crossing_violation, canonicalize, max_parts_of_cut
from .graphs import Graph, InvariantError

FREE = -1


class PartialState:
    """Assignment of vertices to parts 0..ell-1, FREE for unassigned.

    ``cross`` tracks, per assigned vertex, its realized number of neighbors
    in other parts; assignments that would push any count past one are
    rejected at the door.
    """

    __slots__ = (
        "graph", "ell", "assign", "used", "cross", "free_count", "frozen"
    )

    def __init__(self, graph: Graph, ell: int):
        if ell < 1:
            raise ValueError("ell must be positive")
        self.graph = graph
        self.ell = ell
        self.assign = [FREE] * graph.n
        self.used = 0
        self.cross = [0] * graph.n
        self.free_count = graph.n
        self.frozen = 0  # parts 0..frozen-1 are pinned singleton seeds

    def copy(self) -> "PartialState":
        out = PartialState.__new__(PartialState)
        out.graph = self.graph
        out.ell = self.ell
        out.assign = self.assign[:]
        out.used = self.used
        out.cross = self.cross[:]
        out.free_count = self.free_count
        out.frozen = self.frozen
        return out

    def free_vertices(self) -> list[int]:
        return [v for v in range(self.graph.n) if self.assign[v] == FREE]

    def assign_vertex(self, v: int, p: int) -> bool:
        """Place v into part p; False when this is immediately infeasible.

        Re-assigning to the same part is a no-op; to a different part it
        fails.  Opening part ``used`` grows the label set by one.
        """
        if self.assign[v] != FREE:
            return self.assign[v] == p
        if p > self.used or p >= self.ell or p < self.frozen:
            return False
        adj = self.graph.adj[v]
        assign = self.assign
        newly_crossed = []
        vcross = 0
        for u in adj:
            pu = assign[u]
            if pu != FREE and pu != p:
                vcross += 1
                if vcross > 1 or self.cross[u] >= 1:
                    return False
                newly_crossed.append(u)
        assign[v] = p
        self.cross[v] = vcross
        for u in newly_crossed:
            self.cross[u] += 1
        if p == self.used:
            self.used += 1
        self.free_count -= 1
        return True

    def part_contacts(self, v: int) -> dict[int, int]:
        """Part -> number of assigned neighbors of the free vertex v."""
        cont: dict[int, int] = {}
        for u in self.graph.adj[v]:
            pu = self.assign[u]
            if pu != FREE:
                cont[pu] = cont.get(pu, 0) + 1
        return cont

    def free_neighbors(self, v: int) -> list[int]:
        return [u for u in self.graph.adj[v] if self.assign[u] == FREE]

    def open_parts(self, exclude: tuple[int, ...] = ()) -> list[int]:
        """Joinable used parts plus one fresh label (restricted growth)."""
        out = [p for p in range(self.frozen, self.used) if p not in exclude]
        if self.used < self.ell:
            out.append(self.used)
        return out


def apply_stopping_rules(state: PartialState) -> str | None:
    """First stopping rule, in S1..S3 priority, that proves no extension
    exists, else None.

    One pass over the vertices: S1 returns at once, S2-S3 are remembered,
    and checks that can no longer change the verdict are skipped.  S3 is
    looked for only at vertices with a crossing neighbor (``state.cross``),
    of which ``assign_vertex`` allows at most one.
    """
    adj = state.graph.adj
    assign = state.assign
    cross = state.cross
    s2 = s3 = False
    for v, pv in enumerate(assign):
        if pv == FREE:
            cont = state.part_contacts(v)
            # S1: a free vertex with two strong part contacts.
            if sum(1 for c in cont.values() if c >= 2) >= 2:
                return "S1"
            # S2: a free vertex touching three parts.
            s2 = s2 or len(cont) >= 3
        elif cross[v] and not (s2 or s3):
            # S3: a crossing edge whose endpoints share a free neighbor.
            for u in adj[v]:
                pu = assign[u]
                if pu != FREE and pu != pv:
                    s3 = v < u and any(
                        assign[z] == FREE and z in adj[u] for z in adj[v]
                    )
                    break
    if s2:
        return "S2"
    return "S3" if s3 else None


def _find_reduction(state: PartialState) -> tuple[str, tuple[tuple[int, int], ...]] | None:
    graph = state.graph
    adj = graph.adj
    assign = state.assign
    # One scan of the assigned vertices' neighborhoods serves R1, R3 and
    # R7: the free neighbors of each assigned vertex (None for free ones)
    # and the crossing edges (u, v), u < v, in ascending order.
    free_nb: list[list[int] | None] = [None] * graph.n
    crossing: list[tuple[int, int]] = []

    # R1: an assigned vertex with an adjacent free pair pulls the pair in.
    for v, pv in enumerate(assign):
        if pv == FREE:
            continue
        fnb = free_nb[v] = []
        for u in adj[v]:
            pu = assign[u]
            if pu == FREE:
                fnb.append(u)
            elif pu != pv and v < u:
                crossing.append((v, u))
        for i, x in enumerate(fnb):
            xadj = adj[x]
            for y in fnb[i + 1:]:
                if y in xadj:
                    return ("R1", ((x, pv), (y, pv)))
    # R2: a free vertex with two neighbors in a unique part joins it.  The
    # same scan collects the free degree-2 vertices by neighborhood for R4/R5.
    twins: dict[tuple[int, int], list[int]] = {}
    for v, pv in enumerate(assign):
        if pv != FREE:
            continue
        strong = [p for p, c in state.part_contacts(v).items() if c >= 2]
        if len(strong) == 1:
            return ("R2", ((v, strong[0]),))
        if len(adj[v]) == 2:
            twins.setdefault(adj[v], []).append(v)
    # R3: a crossing edge forces both endpoints' free neighbors inward.
    for u, v in crossing:
        moves = [(z, assign[u]) for z in free_nb[u]]
        moves += [(z, assign[v]) for z in free_nb[v]]
        if moves:
            return ("R3", tuple(moves))
    # R4/R5: free degree-2 twins over an assigned pair.
    for (x, y), members in sorted(twins.items()):
        if len(members) < 2:
            continue
        u, v = members[0], members[1]
        px, py = assign[x], assign[y]
        if px != FREE and py != FREE and px != py:
            return ("R4", ((u, px), (v, py)))
    for (x, y), members in sorted(twins.items()):
        if len(members) < 2:
            continue
        u = members[0]
        px, py = assign[x], assign[y]
        if px != FREE and py == FREE:
            return ("R5", ((u, px),))
        if py != FREE and px == FREE:
            return ("R5", ((u, py),))
    # R6: a free degree-2 bridge between two saturated-neighborhood parts.
    for v in range(graph.n):
        if assign[v] != FREE or len(graph.adj[v]) != 2:
            continue
        x, y = graph.adj[v]
        px, py = assign[x], assign[y]
        if px == FREE or py == FREE or px == py:
            continue
        if all(assign[z] == px or z == v for z in graph.adj[x]) and all(
            assign[z] == py or z == v for z in graph.adj[y]
        ):
            # Either side works; a pinned singleton part cannot take v.
            target = px if px >= state.frozen else py
            return ("R6", ((v, target),))
    # R7: only sound when maximizing two parts; for larger targets the
    # forced move can destroy an extra-part completion, so it stays off.
    if state.ell == 2:
        move = _find_r7(state, free_nb)
        if move is not None:
            return move
    return None


def _find_r7(
    state: PartialState, free_nb: list[list[int] | None]
) -> tuple[str, tuple[tuple[int, int], ...]] | None:
    graph = state.graph
    assign = state.assign
    for u in range(graph.n):
        if assign[u] != FREE or len(graph.adj[u]) != 2:
            continue
        v, w = graph.adj[u]
        if assign[v] != FREE or assign[w] != FREE:
            continue
        if len(graph.adj[v]) != 2 or len(graph.adj[w]) != 2:
            continue
        x = next(z for z in graph.adj[v] if z != u)
        y = next(z for z in graph.adj[w] if z != u)
        if assign[x] == FREE or assign[y] == FREE or assign[x] == assign[y]:
            continue
        vprime = [z for z in free_nb[x] if z != v]
        wprime = [z for z in free_nb[y] if z != w]
        if not vprime or not wprime:
            continue
        named = {u, v, w, x, y, vprime[0], wprime[0]}
        if len(named) != 7:
            continue
        return ("R7", ((u, assign[x]), (v, assign[x]), (w, assign[y])))
    return None


def apply_reduction_rules(
    state: PartialState,
) -> tuple[PartialState | None, list[tuple[str, tuple[tuple[int, int], ...]]]]:
    """Run S/R rules to a fixed point.

    Returns (reduced state, trace), or (None, trace) when a stopping rule
    fires.  The trace lists the rule applications as (rule id, ((vertex,
    part), ...)); replaying its assignments on ``state`` reproduces the
    reduced state.  A stopping rule ends it with an empty assignment tuple.
    """
    trace: list[tuple[str, tuple[tuple[int, int], ...]]] = []
    current = state.copy()
    while True:
        dead = apply_stopping_rules(current)
        if dead is not None:
            trace.append((dead, ()))
            return None, trace
        found = _find_reduction(current)
        if found is None:
            return current, trace
        trace.append(found)
        for v, p in found[1]:
            if not current.assign_vertex(v, p):
                # The forced move is infeasible: no extension exists.
                return None, trace


def _qualifying_arms(state: PartialState, v1: int) -> list[tuple[int, int, int, int]]:
    """Free neighbors of v1 shaped like B4/B4'/B5 arms.

    Returns (arm vertex, anchor vertex, anchor part, anchor's spare free
    neighbor) for every free degree-2 neighbor whose other endpoint is
    assigned and still has a second free neighbor.
    """
    graph = state.graph
    out = []
    for u in state.free_neighbors(v1):
        if len(graph.adj[u]) != 2:
            continue
        other = next(z for z in graph.adj[u] if z != v1)
        if state.assign[other] == FREE:
            continue
        spare = [z for z in state.free_neighbors(other) if z != u]
        if not spare:
            continue
        out.append((u, other, state.assign[other], spare[0]))
    return out


def _arms_by_part(arms) -> dict[int, list[tuple[int, int, int, int]]]:
    """Arms grouped by anchor part, keeping the first arm of each anchor."""
    by_part: dict[int, list] = {}
    anchors: set[int] = set()
    for arm in arms:
        if arm[1] not in anchors:
            anchors.add(arm[1])
            by_part.setdefault(arm[2], []).append(arm)
    return by_part


def _children(state, assignments_list):
    """Materialize child states, dropping immediately infeasible ones."""
    out = []
    for moves in assignments_list:
        child = state.copy()
        ok = True
        for v, p in moves:
            if not child.assign_vertex(v, p):
                ok = False
                break
        if ok:
            out.append(child)
    return out


def _detect_b1(state, v1, cont, fnb):
    if len(cont) != 1 or len(fnb) < 2:
        return None
    (i, _count), = cont.items()
    anchors = [
        u for u in state.graph.adj[v1]
        if state.assign[u] == i and any(
            z != v1 for z in state.free_neighbors(u)
        )
    ]
    if not anchors:
        return None
    a = anchors[0]
    v2 = min(z for z in state.free_neighbors(a) if z != v1)
    v3, v4 = fnb[0], fnb[1]
    branches = [(((v1, i),))]
    for j in state.open_parts(exclude=(i,)):
        branches.append(((v1, j), (v3, j), (v4, j), (v2, i)))
    return branches


def _detect_b2(state, v1, cont, fnb):
    if len(cont) != 2 or not fnb:
        return None
    anchors = [u for u in state.graph.adj[v1] if state.assign[u] != FREE]
    with_spare = [
        u for u in anchors if any(z != v1 for z in state.free_neighbors(u))
    ]
    if not with_spare:
        return None
    a = with_spare[0]
    i = state.assign[a]
    others = [u for u in anchors if state.assign[u] != i]
    if not others:
        return None
    j = state.assign[others[0]]
    v2 = min(z for z in state.free_neighbors(a) if z != v1)
    v4 = fnb[0]
    return [((v1, i), (v4, i)), ((v1, j), (v4, j), (v2, i))]


def _detect_b3(state, v1, cont, fnb):
    if len(cont) != 2 or not fnb:
        return None
    i, j = sorted(cont)
    v2 = fnb[0]
    return [((v1, i), (v2, i)), ((v1, j), (v2, j))]


def _detect_b4(state, v1, cont, fnb):
    if cont or len(fnb) < 3:
        return None
    arms = _qualifying_arms(state, v1)
    if len(arms) < 2:
        return None
    v2, x, i, v2p = arms[0]
    rest = [arm for arm in arms if arm[2] != i]
    if not rest:
        return None
    v3, y, j, v3p = rest[0]
    leftover = [z for z in fnb if z not in (v2, v3)]
    if not leftover:
        return None
    v4 = leftover[0]
    branches = [((v1, i), (v2, i)), ((v1, j), (v3, j))]
    for k in state.open_parts(exclude=(i, j)):
        branches.append(((v1, k), (v2, k), (v3, k), (v2p, i), (v3p, j)))
        branches.append(((v2, i), (v1, k), (v3, k), (v4, k), (v3p, j)))
        branches.append(((v3, j), (v1, k), (v2, k), (v4, k), (v2p, i)))
    return branches


def _detect_b4prime(state, v1, cont, fnb):
    if cont or len(fnb) < 3:
        return None
    arms = _qualifying_arms(state, v1)
    if len(arms) < 2:
        return None
    for i, distinct in sorted(_arms_by_part(arms).items()):
        if len(distinct) < 2:
            continue
        v2, _x, _i, v2p = distinct[0]
        v3, _xp, _i2, v3p = distinct[1]
        leftover = [z for z in fnb if z not in (v2, v3)]
        if not leftover:
            continue
        v4 = leftover[0]
        branches = [((v1, i), (v2, i), (v3, i))]
        for k in state.open_parts(exclude=(i,)):
            branches.append(((v1, k), (v2, k), (v3, k), (v2p, i), (v3p, i)))
            branches.append(((v2, i), (v1, k), (v3, k), (v4, k), (v3p, i)))
            branches.append(((v3, i), (v1, k), (v2, k), (v4, k), (v2p, i)))
        return branches
    return None


def _detect_b5(state, v1, cont, fnb):
    if len(cont) != 1 or len(fnb) < 2:
        return None
    (j, _count), = cont.items()
    by_part = _arms_by_part(
        arm for arm in _qualifying_arms(state, v1) if arm[2] != j
    )
    for i, distinct in sorted(by_part.items()):
        if len(distinct) < 2:
            continue
        v2, _x, _i, v2p = distinct[0]
        v3, _xp, _i2, v3p = distinct[1]
        branches = [((v1, j),), ((v1, i), (v2, i), (v3, i))]
        for k in state.open_parts(exclude=(i, j)):
            branches.append(((v1, k), (v2, k), (v3, k), (v2p, i), (v3p, i)))
        return branches
    return None


def _detect_b7(state, v1, cont, fnb):
    if len(state.graph.adj[v1]) != 2 or len(cont) != 2 or fnb:
        return None
    a, b = state.graph.adj[v1]
    i, j = state.assign[a], state.assign[b]
    av = [z for z in state.free_neighbors(a) if z != v1]
    bv = [z for z in state.free_neighbors(b) if z != v1]
    if not av or not bv or av[0] == bv[0]:
        return None
    v2, v3 = av[0], bv[0]
    return [((v1, i), (v3, j)), ((v1, j), (v2, i))]


def _detect_b8(state, v1, cont, fnb):
    if len(cont) != 1:
        return None
    (i, _count), = cont.items()
    anchors = [
        u for u in state.graph.adj[v1]
        if state.assign[u] == i and any(z != v1 for z in state.free_neighbors(u))
    ]
    if not anchors:
        return None
    a = anchors[0]
    v2 = min(z for z in state.free_neighbors(a) if z != v1)
    contacted = [u for u in fnb if state.part_contacts(u)]
    if not contacted:
        return None
    v3 = contacted[0]
    branches = [((v1, i),)]
    for k in state.open_parts(exclude=(i,)):
        branches.append(((v1, k), (v3, k), (v2, i)))
    return branches


_DETECTORS = (
    ("B1", _detect_b1),
    ("B2", _detect_b2),
    ("B3", _detect_b3),
    ("B4", _detect_b4),
    ("B4'", _detect_b4prime),
    ("B5", _detect_b5),
    ("B7", _detect_b7),
    ("B8", _detect_b8),
)


def _completion(state: PartialState) -> PartialState | None:
    """Closing assignment: each part absorbs the free neighborhoods of its
    busy vertices, second-order free vertices follow, and the remainder
    joins the last part.  Returns the completed state only when its
    canonical form certifies the target part count.

    A busy vertex is one assigned to part i with two or more free
    neighbours; part i's first-round claims F'_i are the free neighbours
    of its busy vertices not claimed by a lower part.  A free vertex
    outside every F'_i joins the lowest part i with two neighbours in
    F'_i, else the last part."""
    graph = state.graph
    adj = graph.adj
    assign = state.assign
    claim = [FREE] * graph.n  # the first-round part of each free vertex
    for v, pv in enumerate(assign):
        if pv == FREE:
            continue
        fnb = [u for u in adj[v] if assign[u] == FREE]
        if len(fnb) >= 2:
            for z in fnb:
                if claim[z] == FREE or pv < claim[z]:
                    claim[z] = pv
    labels = assign[:]
    last = state.ell - 1
    for v, pv in enumerate(assign):
        if pv != FREE:
            continue
        if claim[v] != FREE:
            labels[v] = claim[v]
            continue
        contacts: dict[int, int] = {}
        for u in adj[v]:
            if claim[u] != FREE:
                contacts[claim[u]] = contacts.get(claim[u], 0) + 1
        labels[v] = min((i for i, c in contacts.items() if c >= 2), default=last)
    if _crossing_violation(graph, labels) is not None:
        return None
    if canonicalize(graph, labels).p < state.ell:
        return None
    out = state.copy()
    out.assign = labels
    out.free_count = 0
    out.used = len(set(labels))
    return out


def first_configuration(state: PartialState) -> tuple[str, list] | None:
    """The first applicable B-configuration, trying rules in order and
    candidate vertices in ascending id: its name and its branches."""
    candidates = [
        (v1, state.part_contacts(v1), state.free_neighbors(v1))
        for v1, p in enumerate(state.assign) if p == FREE
    ]
    for rule, detector in _DETECTORS:
        for v1, cont, fnb in candidates:
            branches = detector(state, v1, cont, fnb)
            if branches is not None:
                return rule, branches
    return None


def select_branch(state: PartialState) -> tuple[str, list[PartialState]]:
    """The rule that branches a reduced, alive, not-fully-assigned state,
    and the children it makes.

    Priority: pendant pre-branch, then the first applicable configuration
    among B1-B8/B4' scanning candidate vertices in ascending id, then the
    closing assignment, then an exhaustive branch on the lowest free vertex.
    """
    graph = state.graph
    # Pendant pre-branch: join the host's part or open a singleton part.
    for u in range(graph.n):
        if state.assign[u] == FREE and len(graph.adj[u]) == 1:
            w = graph.adj[u][0]
            if state.assign[w] != FREE and state.assign[w] >= state.frozen:
                moves = []
                if state.used < state.ell:
                    moves.append(((u, state.used),))
                moves.append(((u, state.assign[w]),))
                return "pendant", _children(state, moves)
    found = first_configuration(state)
    if found is not None:
        rule, branches = found
        return rule, _children(state, branches)
    completed = _completion(state)
    if completed is not None:
        return "completion", [completed]
    # Fallback: exhaustive branch keeps the engine complete when no
    # configuration matches and the closing assignment fails.
    v1 = min(state.free_vertices())
    cont = state.part_contacts(v1)
    if len(cont) >= 2:
        candidates = sorted(cont)
    else:
        candidates = state.open_parts()
    return "fallback", _children(state, [((v1, p),) for p in candidates])


def _search(state: PartialState, stats: dict) -> tuple[list[int], list] | None:
    """Witness labels below ``state`` and the (rule, moves) journal of the
    path to them, or None; counts the nodes in ``stats["nodes"]``.  The
    journal is built while unwinding from the witness, so failed branches
    leave nothing to undo."""
    stats["nodes"] += 1
    reduced, trace = apply_reduction_rules(state)
    if reduced is None or reduced.used + reduced.free_count < reduced.ell:
        return None
    if reduced.free_count == 0:
        if canonicalize(reduced.graph, reduced.assign).p >= reduced.ell:
            return reduced.assign, trace
        return None
    rule, children = select_branch(reduced)
    for child in children:
        if child.free_count == 0:
            if canonicalize(child.graph, child.assign).p < child.ell:
                continue
            found = child.assign, []
        else:
            found = _search(child, stats)
            if found is None:
                continue
        labels, path = found
        moves = tuple(
            (v, p) for v, p in enumerate(child.assign) if p != reduced.assign[v]
        )
        return labels, trace + [(rule, moves)] + path
    return None


def _seed_state(graph: Graph, ell: int) -> PartialState | None:
    """Initial state: isolated vertices and a prefix of the pendant
    vertices become pinned singleton parts, then the lowest unassigned
    vertex breaks the remaining part symmetry.

    Pinning pendants is lossless while fewer than ell of them are pinned
    and their attachment vertices are pairwise distinct: any witness can be
    rearranged so that each pinned pendant forms its own part (isolating a
    pendant only frees its neighbor's budget).
    """
    state = PartialState(graph, ell)
    seeds = [v for v in range(graph.n) if graph.degree(v) == 0]
    taken_hosts: set[int] = set()
    for v in range(graph.n):
        if graph.degree(v) == 1:
            host = graph.adj[v][0]
            if host not in taken_hosts:
                taken_hosts.add(host)
                seeds.append(v)
    for v in seeds[: ell - 1]:
        if not state.assign_vertex(v, state.used):
            return None
    # The rearranged witness keeps each seed part a singleton, so no other
    # vertex may ever join one.
    state.frozen = state.used
    if state.free_count:
        v0 = min(state.free_vertices())
        if not state.assign_vertex(v0, state.used):
            return None
    return state


def solve_decision(
    graph: Graph,
    ell: int,
    stats_out: dict | None = None,
    trace_out: list | None = None,
) -> Multicut | None:
    """Witness canonical multicut with at least ``ell`` parts, or None.

    Exhaustive and correct for arbitrary graphs; pendant vertices are
    handled by the dedicated pre-branch and the singleton pre-seeding
    rather than the delta >= 2 assumption of the core rule set.
    ``trace_out`` collects the (rule, assignments) journal of the
    successful search path.
    """
    stats = stats_out if stats_out is not None else {}
    stats["nodes"] = 0
    if ell < 1:
        raise ValueError("ell must be positive")
    if graph.n == 0 or ell > graph.n:
        return None
    if len(graph.components()) >= ell:
        # Every component is a part of the cutless multicut.
        return max_parts_of_cut(graph, [])
    state = _seed_state(graph, ell)
    found = _search(state, stats) if state is not None else None
    if found is None:
        return None
    labels, path = found
    if trace_out is not None:
        trace_out.extend(path)
    cut = canonicalize(graph, labels)
    if cut.p < ell:
        raise InvariantError(f"search witness has {cut.p} parts, fewer than {ell}")
    return cut


def solve_max(graph: Graph) -> tuple[int, Multicut]:
    """Maximum part count and a witness, by ascending decision calls.

    The search starts from the cutless multicut, one part per component,
    and asks ``solve_decision(graph, best.p + 1)`` until the answer is no.
    This is exact because part counts are monotone: while some component
    holds two parts, two of them are adjacent, and merging them gives a
    multicut with one part fewer, since a merge never raises a crossing
    count.  So a yes at ``ell`` means a yes at every ``ell`` down to the
    number of components, and the first no lies just above the maximum.
    A witness may have more parts than asked for, so the next query starts
    above its ``p``, and the last witness has exactly the maximum count.
    """
    best = max_parts_of_cut(graph, [])
    while best.p < graph.n:
        cut = solve_decision(graph, best.p + 1)
        if cut is None:
            break
        best = cut
    return best.p, best
