"""Certificate-carrying instance compilers.

Three constructions: independent set on cubic graphs to matching multicut
(with a subcubic and a fully cubic variant), an OR-composition of set
packing instances into one set packing instance parameterized by its ground
set, and set packing to matching multicut via an incidence-clique graph.
Each returns a certificate that maps solutions forward and backward, so the
reductions double as verified instance generators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

from .cuts import Multicut, canonicalize, validate_multicut
from .graphs import Graph, InvariantError
from .oracle import (
    SetPackingInstance,
    enumerate_set_packings,
    has_packing_of_size,
    max_independent_set,
    max_parts,
)
from .treewidth import heuristic_decomposition, max_parts_tw, nicify


@dataclass
class ReductionCertificate:
    kind: str
    forward: Callable
    backward: Callable
    bookkeeping: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Independent Set on cubic graphs -> Matching Multicut on (sub)cubic graphs.

#: the 5-vertex gadget with no matching cut; vertex 1 is the attachment
#: point (degree 2 inside, 3 once attached).
_INDIVISIBLE_EDGES = ((0, 1), (0, 3), (2, 3), (1, 2), (4, 2), (4, 3), (4, 0))


def indivisible_pendant_gadget() -> Graph:
    return Graph.from_edges(5, _INDIVISIBLE_EDGES)


class _Builder:
    def __init__(self):
        self.edges: list[tuple[int, int]] = []
        self.n = 0

    def vertex(self) -> int:
        v = self.n
        self.n += 1
        return v

    def edge(self, u: int, v: int) -> None:
        self.edges.append((u, v))

    def pendant_unit(self, anchor: int, cubic: bool) -> tuple[int, ...]:
        """Attach a pendant unit to ``anchor``: a single vertex, or the
        five-vertex indivisible gadget for the cubic variant."""
        if not cubic:
            f = self.vertex()
            self.edge(anchor, f)
            return (f,)
        base = self.n
        for _ in range(5):
            self.vertex()
        for a, b in _INDIVISIBLE_EDGES:
            self.edge(base + a, base + b)
        self.edge(anchor, base + 1)
        return tuple(range(base, base + 5))


def reduce_is_to_mmc(
    graph: Graph, k: int, variant: str = "subcubic"
) -> tuple[Graph, int, ReductionCertificate]:
    """Compile an independent-set instance on a cubic graph into a matching
    multicut instance with ell = 2m + k + 1.

    Per input vertex a triangle, per input edge a gadget wired into a ring
    through its n/p vertices, with two pendant units per gadget; the cubic
    variant replaces pendant vertices by five-vertex indivisible gadgets.
    """
    if variant not in ("subcubic", "cubic"):
        raise ValueError(f"unknown variant {variant!r}")
    if any(graph.degree(v) != 3 for v in range(graph.n)):
        raise ValueError("the source graph must be cubic")
    if k > graph.n:
        raise ValueError("k cannot exceed the vertex count")
    cubic = variant == "cubic"
    m = graph.m
    b = _Builder()
    triangles: dict[int, tuple[int, int, int]] = {}
    for u in range(graph.n):
        t = (b.vertex(), b.vertex(), b.vertex())
        b.edge(t[0], t[1])
        b.edge(t[1], t[2])
        b.edge(t[0], t[2])
        triangles[u] = t
    edge_order = list(graph.edges())
    slot: dict[tuple[int, int], dict[int, int]] = {}
    incident: dict[int, list[tuple[int, int]]] = {u: [] for u in range(graph.n)}
    for e in edge_order:
        incident[e[0]].append(e)
        incident[e[1]].append(e)
    for u, inc in incident.items():
        for pos, e in enumerate(inc):
            slot.setdefault(e, {})[u] = pos
    f_units: list[tuple[int, ...]] = []
    fp_units: list[tuple[int, ...]] = []
    n_ring: list[int] = []
    p_ring: list[int] = []
    gadget_of: dict[tuple[int, int], dict] = {}
    for e in edge_order:
        u, v = e
        g6 = b.vertex()
        g7 = b.vertex()
        ni = b.vertex()
        pi = b.vertex()
        b.edge(triangles[u][slot[e][u]], g6)
        b.edge(triangles[v][slot[e][v]], g6)
        b.edge(g6, g7)
        b.edge(g7, ni)
        b.edge(ni, pi)
        fp_units.append(b.pendant_unit(g7, cubic))
        f_units.append(b.pendant_unit(pi, cubic))
        n_ring.append(ni)
        p_ring.append(pi)
        gadget_of[e] = {"mid": g6, "stem": g7, "n": ni, "p": pi}
    for i in range(m):
        b.edge(n_ring[i], p_ring[(i + 1) % m])
    target = Graph.from_edges(b.n, b.edges)
    if cubic and any(target.degree(v) != 3 for v in range(target.n)):
        raise InvariantError("cubic variant: the target is not cubic")
    if target.max_degree > 3:
        raise InvariantError("the target has a vertex of degree above 3")
    ell = 2 * m + k + 1

    tri_parts = {u: frozenset(t) for u, t in triangles.items()}

    def forward(independent_set) -> Multicut:
        chosen = sorted(independent_set)
        if len(chosen) < k:
            raise ValueError(f"need an independent set of size {k}")
        chosen = chosen[:k]
        part_of = [0] * target.n
        nxt = 1
        for unit in itertools.chain(f_units, fp_units):
            for w in unit:
                part_of[w] = nxt
            nxt += 1
        for u in chosen:
            for w in triangles[u]:
                part_of[w] = nxt
            nxt += 1
        cut = canonicalize(target, part_of)
        if validate_multicut(target, cut.part_of, ell) is not None:
            raise InvariantError("is-to-mmc: the forward image is not a solution")
        return cut

    def backward(cut: Multicut) -> list[int]:
        parts = {frozenset(part) for part in cut.parts}
        return sorted(u for u, tri in tri_parts.items() if tri in parts)

    cert = ReductionCertificate(
        kind="is-to-mmc",
        forward=forward,
        backward=backward,
        bookkeeping={
            "triangles": triangles,
            "gadgets": gadget_of,
            "f_units": tuple(f_units),
            "fp_units": tuple(fp_units),
            "edge_order": tuple(edge_order),
            "k": k,
            "variant": variant,
        },
    )
    return target, ell, cert


# ---------------------------------------------------------------------------
# OR-cross-composition of Set Packing into Set Packing.


def cross_compose_set_packing(
    instances: list[SetPackingInstance],
) -> tuple[SetPackingInstance, ReductionCertificate]:
    """Compose t set packing instances sharing ground size and target into
    one instance solvable iff at least one input is solvable.

    Selector sets carry the complemented instance index in bit elements;
    packing sets carry the index itself, so a selector excludes every other
    instance's sets.  The instance list is padded to a power of two by
    repeating the first instance.
    """
    if not instances:
        raise ValueError("need at least one instance")
    n_y = instances[0].ground_size
    r = instances[0].k
    if any(inst.ground_size != n_y or inst.k != r for inst in instances):
        raise ValueError("instances must share ground size and target")
    if r < 1:
        raise ValueError("targets must be positive")
    t = len(instances)
    tau = max(1, math.ceil(math.log2(t)) if t > 1 else 1)
    while 2 ** tau < t:
        tau += 1
    padded = list(instances) + [instances[0]] * (2 ** tau - t)

    # Ground set: Y, then s_0..s_r, then bit pairs (i, j) for i in 1..tau,
    # j in 1..r.
    def s_elem(j: int) -> int:
        return n_y + j

    bit_base = n_y + r + 1

    def bit_elem(i: int, j: int, positive: bool) -> int:
        return bit_base + 2 * ((j - 1) * tau + (i - 1)) + (0 if positive else 1)

    ground = n_y + (r + 1) + 2 * tau * r

    def bits_of(a: int, j: int) -> frozenset[int]:
        out = []
        for i in range(1, tau + 1):
            out.append(bit_elem(i, j, bool(a & (1 << (i - 1)))))
        return frozenset(out)

    family: list[frozenset[int]] = []
    selector_index: dict[int, int] = {}
    for a in range(2 ** tau):
        comp = (2 ** tau - 1) - a
        t_a = {s_elem(0)}
        for j in range(1, r + 1):
            t_a |= bits_of(comp, j)
        selector_index[a] = len(family)
        family.append(frozenset(t_a))
    packing_index: dict[tuple[int, int, int], int] = {}
    origin: dict[int, tuple[int, int, int]] = {}
    for a, inst in enumerate(padded):
        for i, members in enumerate(inst.family):
            for j in range(1, r + 1):
                idx = len(family)
                packing_index[(a, i, j)] = idx
                origin[idx] = (a, i, j)
                family.append(frozenset(members) | bits_of(a, j) | {s_elem(j)})
    composed = SetPackingInstance(ground, tuple(family), r + 1)
    if composed.ground_size != n_y + (r + 1) + 2 * tau * r:
        raise InvariantError("cross-composition: the ground set has the wrong size")
    selectors = [composed.family[selector_index[a]] for a in range(2 ** tau)]
    if any(len(sel) != 1 + r * tau for sel in selectors):
        raise InvariantError("cross-composition: a selector set has the wrong size")
    # Every selector holds s_0, so any two of them clash.
    if any(s_elem(0) not in sel for sel in selectors):
        raise InvariantError("cross-composition: a selector set misses s_0")

    def forward(a: int, source_packing) -> list[int]:
        chosen = list(source_packing)[:r]
        if len(chosen) < r:
            raise ValueError(f"need a packing of size {r}")
        out = [selector_index[a]]
        for pos, i in enumerate(chosen, start=1):
            out.append(packing_index[(a, i, pos)])
        return out

    def backward(indices) -> tuple[int, list[int]]:
        selectors = [i for i in indices if i < 2 ** tau]
        if len(selectors) != 1:
            raise ValueError("a composed solution has exactly one selector")
        a = selectors[0]
        sources = []
        for i in indices:
            if i >= 2 ** tau:
                oa, oi, _oj = origin[i]
                if oa != a:
                    raise ValueError("packing set from a non-selected instance")
                sources.append(oi)
        return a, sorted(sources)

    cert = ReductionCertificate(
        kind="cross-compose",
        forward=forward,
        backward=backward,
        bookkeeping={
            "tau": tau,
            "padded_count": 2 ** tau,
            "selector_index": selector_index,
            "packing_index": packing_index,
        },
    )
    return composed, cert


# ---------------------------------------------------------------------------
# Set Packing -> Matching Multicut via the incidence clique graph.


def reduce_set_packing_to_mmc(
    inst: SetPackingInstance,
) -> tuple[Graph, int, ReductionCertificate]:
    """Clique on the ground set plus one clique per family set, matched into
    the elements it contains; a packing of size k corresponds to isolating
    k set-cliques, so ell = k + 1."""
    if inst.ground_size < 3:
        raise ValueError("the ground set must have at least 3 elements")
    b = _Builder()
    ground = [b.vertex() for _ in range(inst.ground_size)]
    for i, x in enumerate(ground):
        for y in ground[i + 1:]:
            b.edge(x, y)
    set_cliques: list[tuple[int, ...]] = []
    for members in inst.family:
        size = max(len(members), 3)
        verts = [b.vertex() for _ in range(size)]
        for i, x in enumerate(verts):
            for y in verts[i + 1:]:
                b.edge(x, y)
        for pos, elem in enumerate(sorted(members)):
            b.edge(verts[pos], ground[elem])
        set_cliques.append(tuple(verts))
    target = Graph.from_edges(b.n, b.edges)
    ell = inst.k + 1

    def forward(packing) -> Multicut:
        chosen = sorted(packing)[: inst.k]
        if len(chosen) < inst.k:
            raise ValueError(f"need a packing of size {inst.k}")
        part_of = [0] * target.n
        for nxt, i in enumerate(chosen, start=1):
            for w in set_cliques[i]:
                part_of[w] = nxt
        cut = canonicalize(target, part_of)
        if validate_multicut(target, cut.part_of, ell) is not None:
            raise InvariantError("sp-to-mmc: the forward image is not a solution")
        return cut

    def backward(cut: Multicut) -> list[int]:
        parts = {frozenset(part) for part in cut.parts}
        return sorted(
            i for i, verts in enumerate(set_cliques) if frozenset(verts) in parts
        )

    cert = ReductionCertificate(
        kind="sp-to-mmc",
        forward=forward,
        backward=backward,
        bookkeeping={"ground": tuple(ground), "set_cliques": tuple(set_cliques)},
    )
    return target, ell, cert


# ---------------------------------------------------------------------------
# Verification harness.


@dataclass
class VerificationReport:
    ok: bool
    checks: list[str]

    def fail(self, message: str) -> None:
        self.ok = False
        self.checks.append("FAIL " + message)

    def note(self, message: str) -> None:
        self.checks.append("ok   " + message)


def _independent_sets_of_size(graph: Graph, k: int):
    for combo in itertools.combinations(range(graph.n), k):
        ok = True
        for i, u in enumerate(combo):
            nu = graph.adj[u]
            if any(v in nu for v in combo[i + 1:]):
                ok = False
                break
        if ok:
            yield combo


def verify_is_reduction(
    graph: Graph, k: int, variant: str = "subcubic"
) -> VerificationReport:
    """Yes/no agreement between oracle independent set and the target's
    decision, plus forward/backward round-trips over every source solution.

    The subcubic target is decided by the branching search, which takes
    milliseconds there.  The search does not finish on the cubic variant's
    targets, so those are decided by the treewidth DP over a min-fill
    decomposition."""
    from .branching import solve_decision

    target, ell, cert = reduce_is_to_mmc(graph, k, variant)
    report = VerificationReport(True, [])
    alpha = max_independent_set(graph)
    source_yes = alpha >= k
    if variant == "cubic":
        ntd = nicify(heuristic_decomposition(target))
        target_yes = max_parts_tw(target, ntd) >= ell
    else:
        target_yes = solve_decision(target, ell) is not None
    if source_yes != target_yes:
        report.fail(
            f"decision mismatch: alpha={alpha}, k={k}, target says {target_yes}"
        )
    else:
        report.note(f"decisions agree ({'yes' if source_yes else 'no'})")
    for combo in _independent_sets_of_size(graph, k):
        cut = cert.forward(combo)
        if validate_multicut(target, cut.part_of, ell) is not None:
            report.fail(f"forward({combo}) is not a valid multicut")
            continue
        back = cert.backward(cut)
        if len(back) < k or not set(combo).issubset(back):
            report.fail(f"backward(forward({combo})) = {back} loses vertices")
    report.note("forward/backward round-trips checked")
    return report


def verify_sp_reduction(inst: SetPackingInstance) -> VerificationReport:
    target, ell, cert = reduce_set_packing_to_mmc(inst)
    report = VerificationReport(True, [])
    source_yes = has_packing_of_size(inst, inst.k)
    target_yes = max_parts(target, limit=target.n) >= ell
    if source_yes != target_yes:
        report.fail(f"decision mismatch: source {source_yes}, target {target_yes}")
    else:
        report.note(f"decisions agree ({'yes' if source_yes else 'no'})")
    for packing in enumerate_set_packings(inst, inst.k):
        cut = cert.forward(packing)
        back = cert.backward(cut)
        if len(back) < inst.k or not set(packing[: inst.k]).issubset(back):
            report.fail(f"round-trip lost sets: {packing} -> {back}")
    report.note("forward/backward round-trips checked")
    return report


def verify_cross_composition(
    instances: list[SetPackingInstance],
) -> VerificationReport:
    composed, cert = cross_compose_set_packing(instances)
    report = VerificationReport(True, [])
    source_or = any(
        has_packing_of_size(inst, inst.k) for inst in instances
    )
    composed_yes = has_packing_of_size(composed, composed.k)
    if source_or != composed_yes:
        report.fail(
            f"OR mismatch: inputs {source_or}, composed {composed_yes}"
        )
    else:
        report.note(f"OR semantics agree ({'yes' if source_or else 'no'})")
    r = instances[0].k
    for a, inst in enumerate(instances):
        for packing in enumerate_set_packings(inst, r):
            composed_sol = cert.forward(a, packing)
            masks = composed.masks()
            used = 0
            for idx in composed_sol:
                if masks[idx] & used:
                    report.fail(f"forward({a}, {packing}) is not a packing")
                    break
                used |= masks[idx]
            back_a, back_sets = cert.backward(composed_sol)
            if back_a != a or not set(packing[:r]).issubset(back_sets):
                report.fail(f"round-trip mismatch for instance {a}")
            break  # one packing per instance keeps the harness fast
    report.note("per-instance round-trips checked")
    return report


def cubic_test_graphs() -> dict[str, Graph]:
    """The cubic graphs with at most 9 edges, up to isomorphism: K4 plus
    the two cubic graphs on six vertices."""
    k4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    k33 = Graph.from_edges(
        6, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]
    )
    prism = Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )
    return {"K4": k4, "K33": k33, "prism": prism}
