"""Matching multicut representation, validation and canonicalization.

A matching multicut of G on at least ell parts is a partition of V(G) such
that every vertex has at most one neighbor outside its own part.  The
canonical form used throughout this package refines every part into its
connected components and numbers parts by their smallest vertex, which makes
solutions comparable and enumeration streams deduplicatable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import Graph, component_labels

Edge = tuple[int, int]


@dataclass(frozen=True)
class ViolationReport:
    """Typed reason why a partition is not a matching multicut."""

    kind: str  # vertex-two-crossing | disconnected-part | empty-part | too-few-parts
    witness: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.kind}: witness {self.witness}"


@dataclass(frozen=True)
class Multicut:
    """Canonical matching multicut: connected parts plus the crossing edges.

    ``part_of[v]`` is the part index of v, parts are numbered by smallest
    contained vertex, and ``cut_edges`` is exactly the set of edges whose
    endpoints lie in different parts (always a matching).
    """

    part_of: tuple[int, ...]
    p: int
    cut_edges: frozenset[Edge]

    @property
    def parts(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.p)]
        for v, i in enumerate(self.part_of):
            out[i].append(v)
        return tuple(tuple(part) for part in out)

    def to_json(self) -> str:
        """One-line JSON with 1-based vertex ids."""
        parts = [[v + 1 for v in part] for part in self.parts]
        cuts = sorted([u + 1, v + 1] for u, v in self.cut_edges)
        return json.dumps({"parts": parts, "cut_edges": cuts}, separators=(",", ":"))

    def to_text(self) -> str:
        """'part i: v1 v2 ...' lines with 1-based vertex ids."""
        lines = []
        for i, part in enumerate(self.parts, start=1):
            lines.append(f"part {i}: " + " ".join(str(v + 1) for v in part))
        return "\n".join(lines) + "\n"

    def check(self, graph: Graph, ell: int = 1) -> ViolationReport | None:
        """Verify every Multicut invariant against ``graph``, including
        part connectivity and exactness of ``cut_edges``."""
        report = validate_multicut(graph, self.part_of, ell)
        if report is not None:
            return report
        expected = crossing_edges(graph, self.part_of)
        if expected != self.cut_edges:
            bad = tuple(sorted(expected.symmetric_difference(self.cut_edges)))[0]
            return ViolationReport("vertex-two-crossing", bad)
        # The parts are connected exactly when G - cut_edges has p components.
        count, _ = component_labels(graph.adj, self.cut_edges)
        if count != self.p or count != len(set(self.part_of)):
            return ViolationReport("disconnected-part", (count, self.p))
        return None


def crossing_edges(graph: Graph, part_of: Sequence[int]) -> frozenset[Edge]:
    out = set()
    for u in range(graph.n):
        pu = part_of[u]
        for v in graph.adj[u]:
            if u < v and part_of[v] != pu:
                out.add((u, v))
    return frozenset(out)


def sorted_edge(u: int, v: int) -> Edge:
    """The edge between u and v as ``(min, max)``."""
    return (u, v) if u < v else (v, u)


def renumber_parts(labels: Iterable[int]) -> tuple[tuple[int, ...], int]:
    """``labels`` renumbered 0, 1, ... in order of first appearance, and
    the number of distinct labels.  Given one label per vertex, in vertex
    order, with each label's vertices forming one connected part, this
    numbers the parts by smallest vertex, as a canonical multicut does."""
    index: dict[int, int] = {}
    part_of = tuple([index.setdefault(x, len(index)) for x in labels])
    return part_of, len(index)


def _as_part_list(graph: Graph, part_of) -> list[int]:
    lst = list(part_of)
    if len(lst) != graph.n:
        raise ValueError("part assignment must cover every vertex")
    return lst


def _crossing_violation(graph: Graph, labels: Sequence[int]) -> ViolationReport | None:
    for v in range(graph.n):
        pv = labels[v]
        outside = 0
        for u in graph.adj[v]:
            if labels[u] != pv:
                outside += 1
                if outside > 1:
                    return ViolationReport("vertex-two-crossing", (v,))
    return None


def validate_multicut(graph: Graph, part_of, ell: int) -> ViolationReport | None:
    """Check the matching multicut conditions for a part assignment.

    Returns None when every vertex has at most one neighbor outside its own
    part, all referenced parts are non-empty and at least ``ell`` parts are
    used.  Part connectivity is deliberately not required here; that is
    canonicalize's job.
    """
    labels = _as_part_list(graph, part_of)
    report = _crossing_violation(graph, labels)
    if report is not None:
        return report
    used = set(labels)
    if used:
        for i in range(max(used) + 1):
            if i not in used:
                return ViolationReport("empty-part", (i,))
    if len(used) < ell:
        return ViolationReport("too-few-parts", (len(used), ell))
    return None


def canonicalize(graph: Graph, part_of) -> Multicut:
    """Refine each part into connected components and renumber by smallest
    contained vertex.  Requires the one-crossing-neighbor condition to hold
    for the given assignment (part labels may be arbitrary)."""
    labels = _as_part_list(graph, part_of)
    report = _crossing_violation(graph, labels)
    if report is not None:
        raise ValueError(f"not a matching multicut: {report}")
    cut = crossing_edges(graph, labels)
    p, part_index = component_labels(graph.adj, cut)
    return Multicut(tuple(part_index), p, cut)


def matching_edges(graph: Graph, matching: Iterable[Edge]) -> set[Edge]:
    """The edges of ``matching`` as ``(u, v)`` with ``u < v``.  Raises
    ValueError unless each is an edge of the graph and no two share an
    endpoint."""
    adj = graph.adj
    cut = set()
    saturated = set()
    for u, v in matching:
        if v not in adj[u]:  # adjacency lists hold no loops
            raise ValueError(f"({u}, {v}) is not an edge")
        if u in saturated or v in saturated:
            raise ValueError(f"({u}, {v}) shares an endpoint: not a matching")
        saturated.add(u)
        saturated.add(v)
        # Inline rather than sorted_edge: every lifted leaf passes its cut here.
        cut.add((u, v) if u < v else (v, u))
    return cut


def max_parts_of_cut(graph: Graph, matching: Iterable[Edge]) -> Multicut:
    """Canonical multicut whose parts are the components of G - M.

    ``matching`` must be a matching; edges of M that do not separate their
    endpoints are dropped from cut_edges by canonicalization.
    """
    cut = matching_edges(graph, matching)
    p, part_index = component_labels(graph.adj, cut)
    # Edges outside M never separate their endpoints.  Copying a set sizes
    # the frozenset's table once; a generator can leave it twice as large.
    crossing = frozenset({e for e in cut if part_index[e[0]] != part_index[e[1]]})
    return Multicut(tuple(part_index), p, crossing)

