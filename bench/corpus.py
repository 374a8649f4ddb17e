"""Seeded input corpora for the benchmark workloads.

Every graph is produced by the benchmark's own generators and written as
PACE text (``p tw n m`` plus 1-based edge lines); partial k-trees also carry
their construction decomposition as PACE ``.td`` text.  The program under
test only ever sees that text.  The same seed always gives the same corpus.
Sizes and family make-up are fixed per workload and only the random
families (G(n, p), planted instances, partial k-trees, random cubic graphs)
depend on the seed, so the cost of a corpus varies little between seeds.
Structured families keep their natural labelling: min-fill and the search
break ties by vertex id, and a random relabelling would make their cost
(and the width of the min-fill decomposition) swing from seed to seed.

Each item lists the operations the workload runs on it.  An operation is a
tuple whose first entry is its kind:

* ``("maxparts",)``            branching ``solve_max``
* ``("decide", d)``            ``solve_decision`` at ell = opt + d
* ``("tw", "heuristic")``      min-fill decomposition, nicify, DP
* ``("tw", "given")``          the supplied decomposition, nicify, DP
* ``("kernelize", d)``         ``kernelize_subcubic`` at ell = opt + d, or
                               at ell = -d when d is negative (opt unknown)
* ``("enum", param, ell)``     modulator approximation plus a drained stream

Items flagged ``reference`` are small enough for the matching-based
reference enumeration in ``refs``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ENUM_PARAMS = ("cluster", "vc", "cocluster")


@dataclass
class Item:
    name: str
    family: str
    n: int
    edges: list[tuple[int, int]]
    ops: tuple[tuple, ...]
    bags: list[frozenset[int]] | None = None  # construction decomposition
    tree_edges: list[tuple[int, int]] | None = None
    reference: bool = False

    def gr_text(self) -> str:
        lines = [f"p tw {self.n} {len(self.edges)}"]
        lines += [f"{u + 1} {v + 1}" for u, v in self.edges]
        return "\n".join(lines) + "\n"

    def td_text(self) -> str:
        width = max(len(b) for b in self.bags)
        lines = [f"s td {len(self.bags)} {width} {self.n}"]
        for i, bag in enumerate(self.bags):
            lines.append(" ".join(["b", str(i + 1)] + [str(v + 1) for v in sorted(bag)]))
        lines += [f"{a + 1} {b + 1}" for a, b in self.tree_edges]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- families


def gnp(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def connected_gnp(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """G(n, p) conditioned on connectivity, with a random spanning path
    added when rejection takes too long (the acceptance-sample recipe)."""
    for _ in range(30):
        edges = gnp(rng, n, p)
        if _connected(n, edges):
            return edges
    es = set(edges)
    order = list(range(n))
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        es.add((min(a, b), max(a, b)))
    return sorted(es)


def cocluster_instance(rng: random.Random) -> tuple[int, list]:
    """Complete multipartite blob plus a random k-vertex modulator."""
    k = rng.randint(3, 7)
    if rng.random() < 0.5:
        classes = [rng.randint(1, 3) for _ in range(rng.randint(3, 5))]
    else:
        a = rng.randint(2, 4)
        classes = [a, rng.randint(max(3, a), 6)]
    blobs, nxt = [], k
    for size in classes:
        blobs.append(list(range(nxt, nxt + size)))
        nxt += size
    edges = [(i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < 0.4]
    for i, a in enumerate(blobs):
        for b in blobs[i + 1:]:
            edges += [(x, y) for x in a for y in b]
    flat = [v for b in blobs for v in b]
    edges += [(u, v) for u in range(k) for v in flat if rng.random() < 0.25]
    return nxt, edges


def cluster_instance(rng: random.Random) -> tuple[int, list]:
    """Cliques of size 1-4 plus 2-4 modulator vertices, n about 10-14;
    every clique is attached to the modulator so the graph is connected."""
    r = rng.randint(2, 4)
    target = rng.randint(10, 14)
    edges = [(i, j) for i in range(r) for j in range(i + 1, r) if rng.random() < 0.5]
    nxt = r
    while nxt < target:
        size = min(rng.randint(1, 4), target - nxt)
        clique = list(range(nxt, nxt + size))
        nxt += size
        edges += [(a, b) for i, a in enumerate(clique) for b in clique[i + 1:]]
        edges.append((rng.randrange(r), rng.choice(clique)))
        for v in clique:
            for u in range(r):
                if rng.random() < 0.15:
                    edges.append((u, v))
    for u in range(1, r):  # keep the modulator itself connected
        edges.append((rng.randrange(u), u))
    return nxt, sorted({(min(a, b), max(a, b)) for a, b in edges})


def path_edges(n: int) -> list:
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int) -> list:
    return [(i, (i + 1) % n) for i in range(n)]


def caterpillar_edges(spine: int, legs: int) -> tuple[int, list]:
    edges = path_edges(spine)
    nxt = spine
    for i in range(spine):
        for _ in range(legs):
            edges.append((i, nxt))
            nxt += 1
    return nxt, edges


def triangle_replaced_cubic(h_n: int) -> tuple[int, list]:
    """Cubic circulant (cycle plus antipodal chords, h_n even) with every
    vertex replaced by a triangle."""
    host = cycle_edges(h_n) + [(i, i + h_n // 2) for i in range(h_n // 2)]
    slots = {v: 0 for v in range(h_n)}
    edges = []
    for v in range(h_n):
        b = 3 * v
        edges += [(b, b + 1), (b + 1, b + 2), (b, b + 2)]
    for a, b in host:
        edges.append((3 * a + slots[a], 3 * b + slots[b]))
        slots[a] += 1
        slots[b] += 1
    return 3 * h_n, edges


def random_cubic(rng: random.Random, n: int) -> list:
    """Uniform simple cubic graph by the pairing model with restarts."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = set()
        for a, b in zip(points[::2], points[1::2]):
            e = (min(a, b), max(a, b))
            if a == b or e in edges:
                break
            edges.add(e)
        else:
            return sorted(edges)


def partial_ktree(rng: random.Random, k: int, n: int, keep: float):
    """k-tree on n vertices with its construction decomposition; each edge
    is then kept with probability ``keep``, which leaves the decomposition
    valid."""
    edges = [(i, j) for i in range(k + 1) for j in range(i + 1, k + 1)]
    bags = [frozenset(range(k + 1))]
    tree_edges = []
    cliques = [tuple(range(k + 1))]
    for v in range(k + 1, n):
        base = rng.randrange(len(cliques))
        sub = tuple(sorted(rng.sample(cliques[base], k)))
        edges += [(u, v) for u in sub]
        tree_edges.append((len(bags), base))
        bags.append(frozenset(sub + (v,)))
        cliques.append(sub + (v,))
    edges = [e for e in edges if rng.random() < keep]
    return edges, bags, tree_edges


def delay_family(n_target: int) -> tuple[int, list]:
    """Four-vertex host path with pendant two-paths hung round-robin."""
    hosts = 4
    edges = path_edges(hosts)
    nxt, w = hosts, 0
    while nxt + 2 <= n_target:
        edges += [(w % hosts, nxt), (nxt, nxt + 1)]
        nxt += 2
        w += 1
    return nxt, edges


# --------------------------------------------------------------- workloads

SMALL_OPS = (("maxparts",), ("decide", 0), ("decide", 1), ("tw", "heuristic"))


def enum_ops(*ells):
    return tuple(("enum", p, ell) for p in ENUM_PARAMS for ell in ells)


def _subcubic(n: int, edges) -> bool:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return max(deg, default=0) <= 3


def sample_corpus(rng: random.Random) -> list[Item]:
    ops = SMALL_OPS + enum_ops(1, 2, 3)
    kops = ops + (("kernelize", 0),)
    items = []
    for i in range(SAMPLE_GNP):
        n = rng.randint(5, 9)
        edges = connected_gnp(rng, n, rng.uniform(0.2, 0.8))
        items.append(Item(f"gnp{i}", "gnp", n, edges,
                          kops if _subcubic(n, edges) else ops, reference=True))
    for i in range(SAMPLE_COCLUSTER):
        n, edges = cocluster_instance(rng)
        items.append(Item(f"cocluster{i}", "cocluster", n, edges, ops, reference=True))
    for i in range(SAMPLE_CLUSTER):
        n, edges = cluster_instance(rng)
        items.append(Item(f"cluster{i}", "cluster", n, edges,
                          kops if _subcubic(n, edges) else ops, reference=True))
    return items


SAMPLE_GNP = 150
SAMPLE_COCLUSTER = 25
SAMPLE_CLUSTER = 30


def search_corpus(rng: random.Random) -> list[Item]:
    items = []
    for i, n in enumerate(SEARCH_SPARSE):
        edges = connected_gnp(rng, n, 2.5 / n)
        ops = SMALL_OPS + ((("kernelize", 0),) if _subcubic(n, edges) else ())
        items.append(Item(f"sparse{i}-n{n}", "sparse", n, edges, ops))
    for i, n in enumerate(SEARCH_DENSE):
        edges = connected_gnp(rng, n, rng.uniform(0.3, 0.5))
        items.append(Item(f"dense{i}-n{n}", "dense", n, edges, SMALL_OPS, reference=True))
    for family, sizes, make in (("path", SEARCH_PATHS, path_edges),
                                ("cycle", SEARCH_CYCLES, cycle_edges)):
        for n in sizes:
            small = n <= SEARCH_ENUM_MAX_N
            ops = SMALL_OPS + (("kernelize", 0),) + (enum_ops(1) if small else ())
            items.append(Item(f"{family}{n}", family, n, make(n), ops, reference=small))
    return items


SEARCH_SPARSE = (16, 18, 20, 22, 24) * 16
SEARCH_DENSE = (14, 16, 18, 20, 22) * 2
SEARCH_PATHS = (12, 14, 16)
SEARCH_CYCLES = (12, 14, 16)
SEARCH_ENUM_MAX_N = 12


def large_corpus(rng: random.Random) -> list[Item]:
    tw = (("tw", "heuristic"),)
    kern = (("kernelize", 0),)
    spine = LARGE_N // 2
    n_cat, cat_edges = caterpillar_edges(spine, 1)
    items = [
        Item("path", "path", LARGE_N, path_edges(LARGE_N), tw + kern),
        Item("cycle", "cycle", LARGE_N, cycle_edges(LARGE_N), tw + kern),
        Item("caterpillar", "caterpillar", n_cat, cat_edges, tw + kern),
        Item(f"path{LARGE_N // 2}", "path", LARGE_N // 2, path_edges(LARGE_N // 2), tw),
        Item(f"cycle{LARGE_N // 2}", "cycle", LARGE_N // 2, cycle_edges(LARGE_N // 2), tw),
    ]
    for k in LARGE_KTREE_WIDTHS:
        edges, bags, tree_edges = partial_ktree(rng, k, LARGE_KTREE_N, LARGE_KTREE_KEEP)
        items.append(Item(f"ktree{k}", "ktree", LARGE_KTREE_N, edges,
                          (("tw", "given"),), bags, tree_edges))
    n, edges = triangle_replaced_cubic(LARGE_TRIANGLE_HOSTS)
    items.append(Item(f"triangles{n}", "triangles", n, edges,
                      tw + kern + (("kernelize", 1),)))
    for i, n in enumerate(LARGE_CUBIC):
        items.append(Item(f"cubic{i}-n{n}", "cubic", n, random_cubic(rng, n),
                          (("kernelize", -LARGE_CUBIC_ELL),)))
    # The exponential engines run on small members of the same families,
    # so every engine is measured and cross-checked here too.
    small = SMALL_OPS + kern + enum_ops(1)
    n, edges = triangle_replaced_cubic(6)
    items.append(Item(f"triangles{n}", "triangles", n, edges, small, reference=True))
    n, edges = caterpillar_edges(7, 1)
    items.append(Item(f"caterpillar{n}", "caterpillar", n, edges, small, reference=True))
    items.append(Item("cycle14", "cycle", 14, cycle_edges(14), small, reference=True))
    return items


LARGE_N = 1000
LARGE_KTREE_WIDTHS = (6, 7)
LARGE_KTREE_N = 150
LARGE_KTREE_KEEP = 0.65
LARGE_TRIANGLE_HOSTS = 60
LARGE_CUBIC = (500, 1000, 2000)
LARGE_CUBIC_ELL = 4


def stream_corpus(rng: random.Random) -> list[Item]:
    n, edges = caterpillar_edges(*STREAM_CATERPILLAR)
    items = [Item(f"caterpillar{n}", "caterpillar", n, edges,
                  SMALL_OPS + enum_ops(1), reference=True)]
    for n_target in STREAM_DELAY_N:
        n, edges = delay_family(n_target)
        items.append(Item(f"delay{n}", "delay", n, edges,
                          SMALL_OPS + (("enum", "cluster", STREAM_DELAY_ELL),),
                          reference=True))
    n, edges = caterpillar_edges(8, 1)
    items.append(Item(f"caterpillar{n}", "caterpillar", n, edges, (("kernelize", 0),)))
    return items


STREAM_CATERPILLAR = (5, 4)
STREAM_DELAY_N = (20, 22)
STREAM_DELAY_ELL = 4

CORPORA = {
    "sample": sample_corpus,
    "search": search_corpus,
    "large": large_corpus,
    "stream": stream_corpus,
}


def build(workload: str, seed: int) -> list[Item]:
    return CORPORA[workload](random.Random(f"{workload}:{seed}"))
