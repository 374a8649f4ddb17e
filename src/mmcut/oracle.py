"""Brute-force reference implementations used as ground truth in tests.

These are deliberately simple and exhaustively correct; every solver and
enumeration pipeline in this package is validated against them.  Size guards
protect CI from accidental exponential blowups; callers that know better can
pass an explicit limit, and the MULTICUT_ORACLE_LIMIT environment variable
overrides the default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator

from .cuts import Multicut, crossing_edges
from .graphs import Graph

DEFAULT_MULTICUT_LIMIT = 12
DEFAULT_MIS_LIMIT = 20


class OracleLimitError(RuntimeError):
    """Instance exceeds the configured oracle size bound."""


def _effective_limit(limit: int | None, default: int) -> int:
    if limit is not None:
        return limit
    env = os.environ.get("MULTICUT_ORACLE_LIMIT")
    if env:
        return int(env)
    return default


def _check_size(n: int, limit: int | None, default: int) -> None:
    bound = _effective_limit(limit, default)
    if n > bound:
        raise OracleLimitError(
            f"instance has {n} vertices, oracle bound is {bound}; pass an "
            "explicit limit or set MULTICUT_ORACLE_LIMIT to override"
        )


def enumerate_all_multicuts(
    graph: Graph, ell: int, limit: int | None = None
) -> Iterator[Multicut]:
    """Every canonical matching multicut of G with at least ``ell`` parts,
    exactly once, in lexicographic order of part_of vectors.

    Iterates set partitions restricted to connected parts: vertices are
    assigned in id order with restricted-growth labels, pruning as soon as
    any vertex sees two crossing neighbors.
    """
    _check_size(graph.n, limit, DEFAULT_MULTICUT_LIMIT)
    n = graph.n
    if n == 0:
        return
    bits = graph.bits
    part_of = [0] * n
    parts = [0] * (n + 1)  # bitmask per part label
    cross = [0] * n
    yield from _enum_rec(graph, bits, part_of, parts, cross, 0, 0, ell, n)


def _enum_rec(graph, bits, part_of, parts, cross, v, used, ell, n):
    if v == n:
        if used >= ell and all(
            _mask_connected(bits, parts[i]) for i in range(used)
        ):
            yield Multicut(
                tuple(part_of), used, crossing_edges(graph, tuple(part_of))
            )
        return
    if used + (n - v) < ell:
        return
    done = (1 << v) - 1
    nb = bits[v] & done
    vbit = 1 << v
    for p in range(used + 1):
        outside = nb & ~parts[p]
        k = outside.bit_count()
        if k > 1:
            continue
        if k == 1:
            u = outside.bit_length() - 1
            if cross[u]:
                continue
            cross[u] = 1
        cross[v] = k
        parts[p] |= vbit
        part_of[v] = p
        yield from _enum_rec(
            graph, bits, part_of, parts, cross, v + 1,
            used + (1 if p == used else 0), ell, n,
        )
        parts[p] &= ~vbit
        if k == 1:
            cross[outside.bit_length() - 1] = 0
    cross[v] = 0


def _mask_connected(bits, mask: int) -> bool:
    if mask == 0:
        return False
    reach = mask & -mask
    while True:
        grow = reach
        m = reach
        while m:
            b = m & -m
            grow |= bits[b.bit_length() - 1]
            m ^= b
        grow &= mask
        if grow == reach:
            return reach == mask
        reach = grow


def max_parts(graph: Graph, limit: int | None = None) -> int:
    """Largest p over all matching multicuts of G (0 for the empty graph).

    Connectivity of parts is irrelevant for the maximum: refining a part
    into components never decreases the count and stays valid.
    """
    _check_size(graph.n, limit, DEFAULT_MULTICUT_LIMIT)
    n = graph.n
    if n == 0:
        return 0
    bits = graph.bits
    state = {"best": 1}
    parts = [0] * (n + 1)
    cross = [0] * n
    _max_rec(bits, parts, cross, 0, 0, n, state)
    return state["best"]


def _max_rec(bits, parts, cross, v, used, n, state):
    if v == n:
        if used > state["best"]:
            state["best"] = used
        return
    if used + (n - v) <= state["best"]:
        return
    done = (1 << v) - 1
    nb = bits[v] & done
    vbit = 1 << v
    for p in range(used + 1):
        outside = nb & ~parts[p]
        k = outside.bit_count()
        if k > 1:
            continue
        if k == 1:
            u = outside.bit_length() - 1
            if cross[u]:
                continue
            cross[u] = 1
        cross[v] = k
        parts[p] |= vbit
        _max_rec(bits, parts, cross, v + 1, used + (1 if p == used else 0), n, state)
        parts[p] &= ~vbit
        if k == 1:
            cross[outside.bit_length() - 1] = 0
    cross[v] = 0


def max_independent_set(graph: Graph, limit: int | None = None) -> int:
    """Exact independence number by branch and bound."""
    _check_size(graph.n, limit, DEFAULT_MIS_LIMIT)
    n = graph.n
    if n == 0:
        return 0
    closed = [graph.bits[v] | (1 << v) for v in range(n)]
    best = 0

    def rec(avail: int, size: int) -> None:
        nonlocal best
        if size + avail.bit_count() <= best:
            return
        if avail == 0:
            best = size
            return
        # Branch on the highest-degree available vertex.
        pick, pick_deg = -1, -1
        m = avail
        while m:
            b = m & -m
            u = b.bit_length() - 1
            d = (graph.bits[u] & avail).bit_count()
            if d > pick_deg:
                pick, pick_deg = u, d
            m ^= b
        rec(avail & ~closed[pick], size + 1)
        rec(avail & ~(1 << pick), size)

    rec((1 << n) - 1, 0)
    return best


@dataclass(frozen=True)
class SetPackingInstance:
    """Ground set 0..ground_size-1, a family of subsets, and a target k.

    Family members need not be distinct; duplicates are preserved.
    """

    ground_size: int
    family: tuple[frozenset[int], ...]
    k: int

    def __post_init__(self):
        for i, members in enumerate(self.family):
            for x in members:
                if not 0 <= x < self.ground_size:
                    raise ValueError(f"set {i} contains {x}, outside the ground set")

    def masks(self) -> list[int]:
        out = []
        for members in self.family:
            m = 0
            for x in members:
                m |= 1 << x
            out.append(m)
        return out


def enumerate_set_packings(
    inst: SetPackingInstance, min_size: int = 0
) -> Iterator[tuple[int, ...]]:
    """Every collection of pairwise-disjoint family members (as index tuples)
    of cardinality >= min_size, each exactly once, including the empty
    packing when min_size is 0.  Backtracks over indices in ascending order.
    """
    masks = inst.masks()
    nsets = len(masks)
    chosen: list[int] = []

    def rec(start: int, used_mask: int) -> Iterator[tuple[int, ...]]:
        if len(chosen) >= min_size:
            yield tuple(chosen)
        elif len(chosen) + (nsets - start) < min_size:
            return
        for j in range(start, nsets):
            if masks[j] & used_mask:
                continue
            chosen.append(j)
            yield from rec(j + 1, used_mask | masks[j])
            chosen.pop()

    yield from rec(0, 0)


def has_packing_of_size(inst: SetPackingInstance, k: int) -> bool:
    """Decision form: does a packing of size >= k exist?"""
    return next(enumerate_set_packings(inst, k), None) is not None


def parse_set_packing(text: str) -> SetPackingInstance:
    """First line '|X| |F| k', then one line per set listing 0-based
    elements (an empty line is an empty set)."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty set packing file")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError("header must be '|X| |F| k'")
    ground, nsets, k = (int(x) for x in head)
    if len(lines) < 1 + nsets:
        raise ValueError(f"expected {nsets} set lines, found {len(lines) - 1}")
    family = []
    for i in range(nsets):
        family.append(frozenset(int(x) for x in lines[1 + i].split()))
    return SetPackingInstance(ground, tuple(family), k)


def write_set_packing(inst: SetPackingInstance) -> str:
    lines = [f"{inst.ground_size} {len(inst.family)} {inst.k}"]
    for members in inst.family:
        lines.append(" ".join(str(x) for x in sorted(members)))
    return "\n".join(lines) + "\n"
