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
except the last one.  Every rule round makes one pass over the vertices
(``RoundFacts``): each free vertex's part contacts and free neighbors,
each assigned vertex's free neighbors and crossing edge.  S1-S3 and
R1-R7 read that pass, and the reduced state's last pass also feeds the
branching rules: the B-detectors, the pendant pre-branch and the closing
assignment.
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
        "graph", "ell", "assign", "used", "cross", "free_count", "frozen",
        "_facts",
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
        self._facts = None

    def copy(self) -> "PartialState":
        out = PartialState.__new__(PartialState)
        out.graph = self.graph
        out.ell = self.ell
        out.assign = self.assign[:]
        out.used = self.used
        out.cross = self.cross[:]
        out.free_count = self.free_count
        out.frozen = self.frozen
        out._facts = None
        return out

    def facts(self) -> "RoundFacts":
        """This assignment's one pass over the vertices, made on first use
        and kept until the next assignment."""
        if self._facts is None:
            self._facts = RoundFacts(self)
        return self._facts

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
        self._facts = None
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


class RoundFacts:
    """What one rule round knows of a state's vertices, from one pass.

    ``fnb[v]`` lists the free neighbors of every vertex v, and ``cont[v]``
    counts a free v's neighbors per part (None for an assigned v).  In
    ascending order: ``free`` vertices, ``busy`` ones (assigned, with two
    or more free neighbors) and ``crossing`` edges (u, v), u < v.  ``stop``
    is "S1" or "S2" when a free vertex proves it, and ``r2`` the first R2
    move."""

    __slots__ = ("free", "fnb", "cont", "busy", "crossing", "stop", "r2")

    def __init__(self, state: PartialState):
        adj = state.graph.adj
        assign = state.assign
        self.free = free = []
        self.fnb = fnb = []
        self.cont = cont = []
        self.busy = busy = []
        self.crossing = crossing = []
        stop = r2 = None
        for v, pv in enumerate(assign):
            av = adj[v]
            f = []
            fnb.append(f)
            if pv == FREE:
                c: dict[int, int] = {}
                for u in av:
                    pu = assign[u]
                    if pu == FREE:
                        f.append(u)
                    else:
                        c[pu] = c.get(pu, 0) + 1
                free.append(v)
                cont.append(c)
                if len(av) - len(f) > len(c):  # two neighbors share a part
                    strong = [p for p, k in c.items() if k >= 2]
                    if len(strong) >= 2:
                        stop = "S1"  # two strong part contacts
                    elif r2 is None:
                        r2 = ("R2", ((v, strong[0]),))
                if len(c) >= 3 and stop is None:
                    stop = "S2"  # three parts touched
            else:
                cont.append(None)
                for u in av:
                    pu = assign[u]
                    if pu == FREE:
                        f.append(u)
                    elif pu != pv and v < u:
                        crossing.append((v, u))
                if len(f) >= 2:
                    busy.append(v)
        self.stop = stop
        self.r2 = r2


def apply_stopping_rules(state: PartialState) -> str | None:
    """First stopping rule, in S1..S3 priority, that proves no extension
    exists, else None.  S1 and S2 come from the round's pass; S3 looks
    for a crossing edge whose endpoints share a free neighbor."""
    facts = state.facts()
    if facts.stop is not None:
        return facts.stop
    adj = state.graph.adj
    for u, v in facts.crossing:
        if any(z in adj[v] for z in facts.fnb[u]):
            return "S3"
    return None


def _find_reduction(state: PartialState) -> tuple[str, tuple[tuple[int, int], ...]] | None:
    adj = state.graph.adj
    assign = state.assign
    facts = state.facts()
    fnb = facts.fnb
    # R1: an assigned vertex with an adjacent free pair pulls the pair in.
    for v in facts.busy:
        f = fnb[v]
        for i, x in enumerate(f):
            xadj = adj[x]
            for y in f[i + 1:]:
                if y in xadj:
                    return ("R1", ((x, assign[v]), (y, assign[v])))
    # R2: a free vertex with two neighbors in a unique part joins it.
    if facts.r2 is not None:
        return facts.r2
    # R3: a crossing edge forces both endpoints' free neighbors inward.
    for u, v in facts.crossing:
        moves = [(z, assign[u]) for z in fnb[u]]
        moves += [(z, assign[v]) for z in fnb[v]]
        if moves:
            return ("R3", tuple(moves))
    # R4/R5: free degree-2 twins over an assigned pair.
    deg2 = [v for v in facts.free if len(adj[v]) == 2]
    twins: dict[tuple[int, int], list[int]] = {}
    for v in deg2:
        twins.setdefault(adj[v], []).append(v)
    pairs = [(xy, m) for xy, m in sorted(twins.items()) if len(m) >= 2]
    for (x, y), (u, v, *_more) in pairs:
        px, py = assign[x], assign[y]
        if px != FREE and py != FREE and px != py:
            return ("R4", ((u, px), (v, py)))
    for (x, y), (u, *_more) in pairs:
        px, py = assign[x], assign[y]
        if px != FREE and py == FREE:
            return ("R5", ((u, px),))
        if py != FREE and px == FREE:
            return ("R5", ((u, py),))
    # R6: a free degree-2 bridge between two saturated-neighborhood parts:
    # v is the only free neighbor of x and of y, and neither crosses.
    cross = state.cross
    for v in deg2:
        x, y = adj[v]
        px, py = assign[x], assign[y]
        if px == FREE or py == FREE or px == py:
            continue
        if len(fnb[x]) == 1 and len(fnb[y]) == 1 and not (cross[x] or cross[y]):
            # Either side works; a pinned singleton part cannot take v.
            target = px if px >= state.frozen else py
            return ("R6", ((v, target),))
    # R7: only sound when maximizing two parts; for larger targets the
    # forced move can destroy an extra-part completion, so it stays off.
    if state.ell != 2:
        return None
    for u in deg2:
        v, w = adj[u]
        if assign[v] != FREE or assign[w] != FREE:
            continue
        if len(adj[v]) != 2 or len(adj[w]) != 2:
            continue
        x = next(z for z in adj[v] if z != u)
        y = next(z for z in adj[w] if z != u)
        if assign[x] == FREE or assign[y] == FREE or assign[x] == assign[y]:
            continue
        vprime = [z for z in fnb[x] if z != v]
        wprime = [z for z in fnb[y] if z != w]
        if vprime and wprime and len({u, v, w, x, y, vprime[0], wprime[0]}) == 7:
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


def _anchor(state: PartialState, v1: int) -> tuple[int, int] | None:
    """(a, v2): the first assigned neighbor a of the free vertex v1 that has
    another free neighbor, and the lowest such neighbor v2."""
    free_nb = state.facts().fnb
    for a in state.graph.adj[v1]:
        f = free_nb[a]
        if state.assign[a] != FREE and len(f) >= 2:
            return a, (f[1] if f[0] == v1 else f[0])
    return None


def _qualifying_arms(state: PartialState, v1: int, fnb) -> list[tuple[int, int, int, int]]:
    """Free neighbors of v1 shaped like B4/B4'/B5 arms.

    Returns (arm vertex, anchor vertex, anchor part, anchor's spare free
    neighbor) for every free degree-2 neighbor whose other endpoint is
    assigned and still has a second free neighbor.
    """
    adj = state.graph.adj
    free_nb = state.facts().fnb
    out = []
    for u in fnb:
        if len(adj[u]) != 2:
            continue
        other = next(z for z in adj[u] if z != v1)
        if state.assign[other] == FREE:
            continue
        spare = [z for z in free_nb[other] if z != u]
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
        if all(child.assign_vertex(v, p) for v, p in moves):
            out.append(child)
    return out


def _detect_b1(state, v1, cont, fnb):
    if len(cont) != 1 or len(fnb) < 2:
        return None
    return _stay_or_split(state, v1, cont, fnb[:2])


def _stay_or_split(state, v1, cont, movers):
    """B1's and B8's branches: v1 joins its one contact part i, or v1 and
    ``movers`` take another part while the spare free neighbor of v1's
    anchor joins i; None when v1 has no anchor."""
    found = _anchor(state, v1)
    if found is None:
        return None
    (i, _count), = cont.items()
    branches = [((v1, i),)]
    for k in state.open_parts(exclude=(i,)):
        branches.append(((v1, k), *[(z, k) for z in movers], (found[1], i)))
    return branches


def _detect_b2(state, v1, cont, fnb):
    if len(cont) != 2 or not fnb:
        return None
    found = _anchor(state, v1)
    if found is None:
        return None
    a, v2 = found
    i = state.assign[a]
    j = next(p for p in cont if p != i)
    return [((v1, i), (fnb[0], i)), ((v1, j), (fnb[0], j), (v2, i))]


def _detect_b3(state, v1, cont, fnb):
    if len(cont) != 2 or not fnb:
        return None
    i, j = sorted(cont)
    v2 = fnb[0]
    return [((v1, i), (v2, i)), ((v1, j), (v2, j))]


def _b4_branches(state, v1, fnb, arm2, arm3):
    """B4's branches on two arms in different parts, B4''s on two arms in
    one part; None when v1 has no third free neighbor."""
    v2, _x, i, v2p = arm2
    v3, _y, j, v3p = arm3
    leftover = [z for z in fnb if z not in (v2, v3)]
    if not leftover:
        return None
    v4 = leftover[0]
    if i == j:
        branches = [((v1, i), (v2, i), (v3, i))]
    else:
        branches = [((v1, i), (v2, i)), ((v1, j), (v3, j))]
    for k in state.open_parts(exclude=(i, j)):
        branches.append(((v1, k), (v2, k), (v3, k), (v2p, i), (v3p, j)))
        branches.append(((v2, i), (v1, k), (v3, k), (v4, k), (v3p, j)))
        branches.append(((v3, j), (v1, k), (v2, k), (v4, k), (v2p, i)))
    return branches


def _detect_b4(state, v1, cont, fnb):
    if cont or len(fnb) < 3:
        return None
    arms = _qualifying_arms(state, v1, fnb)
    if len(arms) < 2:
        return None
    rest = [arm for arm in arms if arm[2] != arms[0][2]]
    return _b4_branches(state, v1, fnb, arms[0], rest[0]) if rest else None


def _detect_b4prime(state, v1, cont, fnb):
    if cont or len(fnb) < 3:
        return None
    arms = _qualifying_arms(state, v1, fnb)
    if len(arms) < 2:
        return None
    for _i, distinct in sorted(_arms_by_part(arms).items()):
        if len(distinct) >= 2:
            branches = _b4_branches(state, v1, fnb, distinct[0], distinct[1])
            if branches is not None:
                return branches
    return None


def _detect_b5(state, v1, cont, fnb):
    if len(cont) != 1 or len(fnb) < 2:
        return None
    (j, _count), = cont.items()
    by_part = _arms_by_part(
        arm for arm in _qualifying_arms(state, v1, fnb) if arm[2] != j
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
    free_nb = state.facts().fnb
    av = [z for z in free_nb[a] if z != v1]
    bv = [z for z in free_nb[b] if z != v1]
    if not av or not bv or av[0] == bv[0]:
        return None
    v2, v3 = av[0], bv[0]
    return [((v1, i), (v3, j)), ((v1, j), (v2, i))]


def _detect_b8(state, v1, cont, fnb):
    if len(cont) != 1:
        return None
    contacts = state.facts().cont
    contacted = [u for u in fnb if contacts[u]]
    return _stay_or_split(state, v1, cont, contacted[:1]) if contacted else None


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
    facts = state.facts()
    claim = [FREE] * graph.n  # the first-round part of each free vertex
    for v in facts.busy:
        pv = assign[v]
        for z in facts.fnb[v]:
            if claim[z] == FREE or pv < claim[z]:
                claim[z] = pv
    labels = assign[:]
    last = state.ell - 1
    for v in facts.free:
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
    facts = state.facts()
    candidates = [(v1, facts.cont[v1], facts.fnb[v1]) for v1 in facts.free]
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
    adj = state.graph.adj
    assign = state.assign
    facts = state.facts()
    # Pendant pre-branch: join the host's part or open a singleton part.
    for u in facts.free:
        if len(adj[u]) == 1:
            w = adj[u][0]
            if assign[w] != FREE and assign[w] >= state.frozen:
                moves = []
                if state.used < state.ell:
                    moves.append(((u, state.used),))
                moves.append(((u, assign[w]),))
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
    v1 = facts.free[0]
    cont = facts.cont[v1]
    candidates = sorted(cont) if len(cont) >= 2 else state.open_parts()
    return "fallback", _children(state, [((v1, p),) for p in candidates])


def _search(state: PartialState, stats: dict) -> tuple[list[int], list] | None:
    """Witness labels below ``state`` and the (rule, moves) journal of the
    path to them, or None; counts the nodes in ``stats["nodes"]`` and the
    branching rules in ``stats["branchings"]``.  The journal is built while
    unwinding from the witness, so failed branches leave nothing to undo."""
    stats["nodes"] += 1
    reduced, trace = apply_reduction_rules(state)
    if reduced is None or reduced.used + reduced.free_count < reduced.ell:
        return None
    if reduced.free_count == 0:
        if canonicalize(reduced.graph, reduced.assign).p >= reduced.ell:
            return reduced.assign, trace
        return None
    rule, children = select_branch(reduced)
    branchings = stats["branchings"]
    branchings[rule] = branchings.get(rule, 0) + 1
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
    ``stats_out`` receives the search nodes in ``"nodes"`` and, in
    ``"branchings"``, how often ``select_branch`` returned each rule
    (``"pendant"``, ``"B1"`` ... ``"B8"``, ``"B4'"``, ``"completion"``,
    ``"fallback"``).  ``trace_out`` collects the (rule, assignments)
    journal of the successful search path.
    """
    stats = stats_out if stats_out is not None else {}
    stats["nodes"] = 0
    stats["branchings"] = {}
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
