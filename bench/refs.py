"""Independent references for checking the program's outputs.

Nothing here imports ``mmcut``: graphs are plain adjacency lists and cuts are
sets of 0-based edges ``(u, v)`` with ``u < v``.

* ``violation`` validates a claimed multicut from first principles.
* ``matching_reference`` enumerates canonical multicuts as matchings M whose
  every edge separates its endpoints in G - M.
* ``tree_matching_counts``, ``tree_max_matching`` and the closed forms for
  paths, cycles and triangle-replaced cubic graphs give exact values without
  any search.
"""

from __future__ import annotations


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def violation(adj, part_of, p: int, cut_edges, ell: int) -> str | None:
    """Why ``(part_of, p, cut_edges)`` is not a canonical matching multicut
    with at least ``ell`` parts, or None when it is one."""
    n = len(adj)
    if len(part_of) != n:
        return f"part vector has {len(part_of)} entries for {n} vertices"
    labels = sorted(set(part_of))
    if labels != list(range(p)):
        return f"part labels {labels[:5]}... are not 0..{p - 1}"
    if p < ell:
        return f"{p} parts < ell={ell}"
    first_seen = []
    for v in range(n):
        if part_of[v] == len(first_seen):
            first_seen.append(v)
        elif part_of[v] > len(first_seen):
            return f"parts are not numbered by smallest vertex at {v}"
    crossing = set()
    for v in range(n):
        outside = [u for u in adj[v] if part_of[u] != part_of[v]]
        if len(outside) > 1:
            return f"vertex {v} has {len(outside)} neighbours outside its part"
        for u in outside:
            crossing.add((min(u, v), max(u, v)))
    if crossing != set(cut_edges):
        return "cut_edges differ from the crossing edges of the partition"
    seen = [False] * n
    for s in first_seen:
        seen[s] = True
        stack = [s]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if not seen[u] and part_of[u] == part_of[s]:
                    seen[u] = True
                    stack.append(u)
    if not all(seen):
        return f"part {part_of[seen.index(False)]} is disconnected"
    return None


def matching_reference(n: int, edges) -> dict[frozenset, int]:
    """Every canonical multicut as {cut edge set: part count}.

    Edges are decided one by one (cut or keep).  A cut edge must be disjoint
    from the other cut edges and must never end up inside one component of
    the kept edges; both conditions are enforced as soon as they can fail,
    so every completed branch is a solution.
    """
    edges = _bfs_edge_order(n, edges)
    parent = list(range(n))
    size = [1] * n
    saturated = [False] * n
    cut: list[tuple[int, int]] = []
    out: dict[frozenset, int] = {}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def rec(i: int, comps: int) -> None:
        if i == len(edges):
            out[frozenset(cut)] = comps
            return
        u, v = edges[i]
        ru, rv = find(u), find(v)
        # Cut (u, v): needs free endpoints not yet joined by kept edges.
        if not saturated[u] and not saturated[v] and ru != rv:
            saturated[u] = saturated[v] = True
            cut.append((u, v))
            rec(i + 1, comps)
            cut.pop()
            saturated[u] = saturated[v] = False
        # Keep (u, v): must not join the two sides of an existing cut edge.
        if ru == rv:
            rec(i + 1, comps)
            return
        if size[ru] < size[rv]:
            ru, rv = rv, ru
        parent[rv] = ru
        size[ru] += size[rv]
        if all(find(a) != find(b) for a, b in cut):
            rec(i + 1, comps - 1)
        parent[rv] = rv
        size[ru] -= size[rv]

    rec(0, n)
    return out


def _bfs_edge_order(n: int, edges) -> list[tuple[int, int]]:
    """Edges in BFS discovery order, so kept edges connect early and the
    pruning in ``matching_reference`` bites."""
    adj = adjacency(n, edges)
    order, seen_edges, seen = [], set(), [False] * n
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        queue = [s]
        for v in queue:
            for u in sorted(adj[v]):
                e = (min(u, v), max(u, v))
                if e not in seen_edges:
                    seen_edges.add(e)
                    order.append(e)
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
    return order


def is_tree(n: int, edges) -> bool:
    if len(edges) != n - 1:
        return False
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def _rooted(n: int, edges):
    adj = adjacency(n, edges)
    order, par = [0], [-1] * n
    for v in order:
        for u in adj[v]:
            if u != par[v]:
                par[u] = v
                order.append(u)
    return order, par


def tree_matching_counts(n: int, edges) -> list[int]:
    """counts[k] = number of matchings with k edges in a tree (every
    matching of a tree is a canonical multicut with k + 1 parts)."""
    order, par = _rooted(n, edges)
    # free[v][k] / used[v][k]: matchings of v's subtree with k edges where
    # v is unmatched / matched.
    free = [[1] for _ in range(n)]
    used = [[0] for _ in range(n)]

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return out

    def add(a, b):
        if len(a) < len(b):
            a, b = b, a
        return [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)]

    children = [[] for _ in range(n)]
    for c in order[1:]:
        children[par[c]].append(c)
    for v in reversed(order):
        f, u_ = [1], [0]
        for c in children[v]:
            both = add(free[c], used[c])
            u_ = add(mul(u_, both), [0] + mul(f, free[c]))
            f = mul(f, both)
        free[v], used[v] = f, u_
    return add(free[0], used[0])


def tree_max_matching(n: int, edges) -> int:
    """Greedy leaf matching, exact on trees."""
    order, par = _rooted(n, edges)
    matched = [False] * n
    size = 0
    for v in reversed(order):
        p = par[v]
        if p >= 0 and not matched[v] and not matched[p]:
            matched[v] = matched[p] = True
            size += 1
    return size


def closed_form_opt(family: str, n: int) -> int | None:
    """Maximum part count known without search."""
    if family == "path":
        return n // 2 + 1
    if family == "cycle":
        return n // 2
    if family == "triangles":
        return n // 3
    return None
