"""Simple undirected graph type and file I/O.

Vertices are always 0..n-1 internally; the text formats below use 1-based
ids, matching the PACE / DIMACS conventions.
"""

from __future__ import annotations

from functools import cached_property
from typing import AbstractSet, Collection, Iterable, Iterator, Sequence


class GraphFormatError(ValueError):
    """Raised for malformed graph files; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvariantError(RuntimeError):
    """An engine's internal guarantee failed: a bug, not bad input.  Raised
    explicitly so the check also runs under ``python -O``."""


class Graph:
    """Immutable simple undirected graph without loops or parallel edges.

    Adjacency lists are sorted and duplicate-free, and symmetric by
    construction.  Neighbor bitmasks are exposed for the exhaustive solvers.
    """

    __slots__ = ("n", "adj", "__dict__")

    def __init__(self, n: int, adj: Sequence[Sequence[int]]):
        if len(adj) != n:
            raise ValueError("adjacency length does not match vertex count")
        self.n = n
        self.adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(set(neighbors))) for neighbors in adj
        )
        for v, neighbors in enumerate(self.adj):
            for u in neighbors:
                if u == v:
                    raise ValueError(f"self-loop at vertex {v}")
                if not 0 <= u < n:
                    raise ValueError(f"neighbor {u} of {v} out of range")
                if v not in self.adj[u]:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            adj[u].add(v)
            adj[v].add(u)
        return cls(n, adj)

    @cached_property
    def m(self) -> int:
        return sum(len(neighbors) for neighbors in self.adj) // 2

    @cached_property
    def bits(self) -> tuple[int, ...]:
        """Neighbor bitmask per vertex."""
        masks = []
        for neighbors in self.adj:
            mask = 0
            for u in neighbors:
                mask |= 1 << u
            masks.append(mask)
        return tuple(masks)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @cached_property
    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    @cached_property
    def min_degree(self) -> int:
        return min((len(a) for a in self.adj), default=0)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def components(self) -> list[list[int]]:
        """Connected components, each sorted, ordered by smallest vertex."""
        count, label = component_labels(self.adj)
        out: list[list[int]] = [[] for _ in range(count)]
        for v, c in enumerate(label):
            out[c].append(v)
        return out

    def is_connected(self) -> bool:
        return self.n <= 1 or component_labels(self.adj)[0] == 1

    def induced(self, vertices: Sequence[int]) -> tuple["Graph", list[int]]:
        """Induced subgraph on ``vertices``; returns (subgraph, old-id list).

        Subgraph vertex i corresponds to the returned list's i-th entry.
        """
        keep = sorted(set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        adj = [[index[u] for u in self.adj[v] if u in index] for v in keep]
        return Graph(len(keep), adj), keep

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def component_labels(
    adj: Sequence[Sequence[int]],
    cut: AbstractSet[tuple[int, int]] = frozenset(),
    skip: Collection[int] = (),
) -> tuple[int, list[int]]:
    """Components of the graph ``adj`` minus the ``cut`` edges and the
    ``skip`` vertices.

    ``cut`` holds edges as ``(u, v)`` with ``u < v``.  Returns
    ``(count, label)``: ``label[v]`` is the index of v's component,
    components are numbered by their smallest vertex, and skipped vertices
    get -1.
    """
    label = [-1] * len(adj)
    for v in skip:
        label[v] = -2
    count = 0
    for s in range(len(adj)):
        if label[s] != -1:
            continue
        label[s] = count
        stack = [s]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if label[u] != -1 or (cut and ((v, u) if v < u else (u, v)) in cut):
                    continue
                label[u] = count
                stack.append(u)
        count += 1
    for v in skip:
        label[v] = -1
    return count, label


def parse_graph(text: str | bytes, fmt: str = "auto") -> Graph:
    """Parse a graph from PACE ("p tw n m"), DIMACS ("p edge n m") or a bare
    edge-list body.

    Vertex ids in files are 1-based; '#' and 'c' lines are comments.
    Duplicate edge lines collapse; self-loops are rejected.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if fmt not in ("auto", "pace-gr", "dimacs", "edge-list"):
        raise ValueError(f"unknown graph format {fmt!r}")

    n_declared: int | None = None
    m_declared: int | None = None
    edges: list[tuple[int, int]] = []
    max_seen = 0
    header_fmt: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4:
                raise GraphFormatError("malformed problem line", lineno)
            kind = parts[1]
            if kind == "tw":
                header_fmt = "pace-gr"
            elif kind in ("edge", "col"):
                header_fmt = "dimacs"
            else:
                raise GraphFormatError(f"unknown problem kind {kind!r}", lineno)
            if fmt not in ("auto", header_fmt):
                raise GraphFormatError(
                    f"header declares {header_fmt} but {fmt} was requested", lineno
                )
            try:
                n_declared, m_declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphFormatError("non-integer header counts", lineno) from None
            if n_declared < 0 or m_declared < 0:
                raise GraphFormatError("negative header counts", lineno)
            continue
        if parts[0] == "e":
            parts = parts[1:]
        if len(parts) != 2:
            raise GraphFormatError(f"expected an edge line, got {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError("non-integer vertex id", lineno) from None
        if u < 1 or v < 1:
            raise GraphFormatError("vertex ids are 1-based", lineno)
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}", lineno)
        max_seen = max(max_seen, u, v)
        edges.append((u - 1, v - 1))

    if header_fmt is None and fmt in ("pace-gr", "dimacs"):
        raise GraphFormatError(f"missing header for format {fmt}")
    n = n_declared if n_declared is not None else max_seen
    if max_seen > (n_declared if n_declared is not None else max_seen):
        raise GraphFormatError(
            f"vertex id {max_seen} exceeds declared count {n_declared}"
        )
    graph = Graph.from_edges(n, edges)
    # Duplicate lines collapse, so fewer distinct edges than declared are
    # accepted; only more than declared is an error.
    if m_declared is not None and graph.m > m_declared:
        raise GraphFormatError(
            f"header declares {m_declared} edges but found {graph.m}"
        )
    return graph


def write_graph(graph: Graph, fmt: str = "pace-gr") -> str:
    """Serialize with a 'p tw n m' (or 'p edge n m') header and 1-based edges."""
    if fmt == "pace-gr":
        header = f"p tw {graph.n} {graph.m}"
        prefix = ""
    elif fmt == "dimacs":
        header = f"p edge {graph.n} {graph.m}"
        prefix = "e "
    else:
        raise ValueError(f"unknown graph format {fmt!r}")
    lines = [header]
    for u, v in graph.edges():
        lines.append(f"{prefix}{u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(n, edges)


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
