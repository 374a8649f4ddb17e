"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  The random sweeps are seeded and deterministic.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from mmcut.branching import solve_decision, solve_max
from mmcut.enum_cluster import enumerate_cluster
from mmcut.enum_kernels import (
    CoclusterReduced,
    compress_cocluster,
    compress_vc,
    enumerate_via_kernel,
)
from mmcut.generators import (
    cross_compose_set_packing,
    cubic_test_graphs,
    reduce_is_to_mmc,
    reduce_set_packing_to_mmc,
)
from mmcut.graphs import Graph, cycle_graph, path_graph
from mmcut.modulators import (
    approx_cluster_modulator,
    approx_cocluster_modulator,
    approx_vertex_cover,
)
from mmcut.oracle import (
    SetPackingInstance,
    enumerate_all_multicuts,
    has_packing_of_size,
    max_independent_set,
    max_parts,
)
from mmcut.subcubic import find_disjoint_cycles, kernelize_subcubic
from mmcut.treewidth import (
    TreeDecomposition,
    heuristic_decomposition,
    max_parts_tw,
    nicify,
)

from conftest import random_connected_graph, random_graph

GRAPH_SAMPLE_SIZE = 50_000
SAMPLE_SEED_BASE = 981_000


def sample_graph(i: int) -> Graph:
    rng = random.Random(SAMPLE_SEED_BASE + i)
    n = rng.randint(5, 9)
    p = rng.uniform(0.2, 0.8)
    return random_connected_graph(rng, n, p)


def fit_r_squared(xs, ys, degree: int) -> float:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    coeffs = np.polyfit(xs, ys, degree)
    pred = np.polyval(coeffs, xs)
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    if ss_tot == 0:
        return 1.0
    return 1.0 - ss_res / ss_tot


@pytest.mark.slow
class TestCriterion1:
    def test_decision_oracle_equivalence(self):
        """Branching, treewidth DP and oracle agree for every ell on 5e4
        random connected labeled graphs on 5..9 vertices."""
        mismatches = 0
        for i in range(GRAPH_SAMPLE_SIZE):
            g = sample_graph(i)
            want = max_parts(g)
            got, witness = solve_max(g)
            tw = max_parts_tw(g, nicify(heuristic_decomposition(g)))
            if not (want == got == tw) or witness.check(g, got) is not None:
                mismatches += 1
                if mismatches <= 3:
                    print("criterion 1 mismatch:", g.n, sorted(g.edges()))
        print(
            f"ACCEPTANCE 1: {'PASS' if mismatches == 0 else 'FAIL'} - "
            f"{GRAPH_SAMPLE_SIZE} connected graphs (n=5..9), all ell, "
            f"3 engines, {mismatches} mismatches"
        )
        assert mismatches == 0


@pytest.mark.slow
class TestCriterion2:
    def test_enumeration_oracle_equivalence(self):
        """All three enumeration pipelines emit exactly the oracle's
        canonical solution set for ell in {1,2,3}, duplicate-free, on the
        criterion-1 graph set."""
        mismatches = 0
        for i in range(GRAPH_SAMPLE_SIZE):
            g = sample_graph(i)
            by_parts = {c.cut_edges: c.p for c in enumerate_all_multicuts(g, 1)}
            vc = approx_vertex_cover(g)
            cc = approx_cocluster_modulator(g)
            cl = approx_cluster_modulator(g)
            for ell in (1, 2, 3):
                want = {m for m, p in by_parts.items() if p >= ell}
                streams = (
                    [c.cut_edges for c in enumerate_via_kernel(g, vc, ell)],
                    [c.cut_edges for c in enumerate_via_kernel(g, cc, ell)],
                    [c.cut_edges for c in enumerate_cluster(g, cl, ell)],
                )
                for got in streams:
                    if len(got) != len(set(got)) or set(got) != want:
                        mismatches += 1
                        if mismatches <= 3:
                            print("criterion 2 mismatch:",
                                  g.n, sorted(g.edges()), ell)
        print(
            f"ACCEPTANCE 2: {'PASS' if mismatches == 0 else 'FAIL'} - "
            f"{GRAPH_SAMPLE_SIZE} graphs, ell in 1..3, vc/cocluster/cluster "
            f"streams vs oracle, {mismatches} mismatches"
        )
        assert mismatches == 0


class TestCriterion3:
    def test_kernel_size_bounds(self):
        rng = random.Random(333)
        violations = 0
        for _ in range(1000):
            g = random_graph(rng, rng.randint(2, 24), rng.uniform(0.05, 0.5))
            core = [v for v in range(g.n) if g.degree(v) > 0]
            if not core:
                continue
            sub, _ = g.induced(core)
            cover = approx_vertex_cover(sub)
            kern = compress_vc(sub, cover)
            k = len(cover.vertices)
            if kern.graph.n > 2 * k + 3 * (k * (k - 1) // 2):
                violations += 1
        checked_a = checked_b = 0
        for _ in range(400):
            g, s, case = _random_cocluster_instance(rng)
            result = compress_cocluster(g, s)
            k = len(s)
            if case == "A":
                assert isinstance(result, CoclusterReduced)
                checked_a += 1
                if result.graph.n > 2 * k:
                    violations += 1
            elif case == "B":
                assert isinstance(result, CoclusterReduced)
                checked_b += 1
                if result.graph.n > 2 * k + 2:
                    violations += 1
        print(
            f"ACCEPTANCE 3: {'PASS' if violations == 0 else 'FAIL'} - "
            f"1000 vc kernels within 2|X|+3C(|X|,2); co-cluster case A "
            f"(x{checked_a}) within 2k, case B (x{checked_b}) within 2k+2; "
            f"{violations} violations"
        )
        assert violations == 0 and checked_a > 50 and checked_b > 50


def _random_cocluster_instance(rng):
    k = rng.randint(3, 7)
    case = rng.choice(["A", "B"])
    if case == "A":
        classes = [rng.randint(1, 3) for _ in range(rng.randint(3, 5))]
    else:
        a = rng.randint(2, 4)
        classes = [a, rng.randint(max(3, a), 6)]
    blob_ids = []
    nxt = k
    for size in classes:
        blob_ids.append(list(range(nxt, nxt + size)))
        nxt += size
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < 0.4:
                edges.append((i, j))
    for i, cls_a in enumerate(blob_ids):
        for cls_b in blob_ids[i + 1:]:
            for x in cls_a:
                for y in cls_b:
                    edges.append((x, y))
    flat = [v for cls in blob_ids for v in cls]
    for u in range(k):
        for v in flat:
            if rng.random() < 0.25:
                edges.append((u, v))
    return Graph.from_edges(nxt, edges), frozenset(range(k)), case


def caterpillar(spine: int, legs_per: int) -> Graph:
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i in range(spine):
        for _ in range(legs_per):
            edges.append((i, nxt))
            nxt += 1
    return Graph.from_edges(nxt, edges)


def triangle_replaced_cubic(h_n: int) -> Graph:
    """Cubic circulant with every vertex replaced by a triangle: a cycle of
    n/3 disjoint triangles, girth 3 everywhere."""
    host = [(i, (i + 1) % h_n) for i in range(h_n)]
    host += [(i, (i + h_n // 2) % h_n) for i in range(h_n // 2)]
    incident = {v: [] for v in range(h_n)}
    for e in host:
        incident[e[0]].append(e)
        incident[e[1]].append(e)
    corner = {}
    edges = []
    for v in range(h_n):
        base = 3 * v
        edges += [(base, base + 1), (base + 1, base + 2), (base, base + 2)]
        for slot, e in enumerate(incident[v]):
            corner[(v, tuple(e))] = base + slot
    for e in host:
        edges.append((corner[(e[0], tuple(e))], corner[(e[1], tuple(e))]))
    return Graph.from_edges(3 * h_n, edges)


class TestCriterion4:
    def test_subcubic_constructions(self):
        failures = 0
        checked = 0
        start = time.perf_counter()
        for ell in range(1, 6):
            # Pendant-rich family: |V1| >= 3 ell.
            for spine in (3 * ell + 2, 40 * ell, 2500):
                g = caterpillar(spine, 1)
                if g.n > 10_000:
                    continue
                res = kernelize_subcubic(g, ell)
                checked += 1
                if res.solved is None or res.solved.check(g, ell) is not None:
                    failures += 1
            # Degree-two family: |V2| >= 0.9 n, n >= 21 ell.
            for n in (21 * ell, 300 * ell, 10_000):
                g = path_graph(n)
                res = kernelize_subcubic(g, ell)
                checked += 1
                if res.solved is None or res.solved.check(g, ell) is not None:
                    failures += 1
                g = cycle_graph(n)
                res = kernelize_subcubic(g, ell)
                checked += 1
                if res.solved is None or res.solved.check(g, ell) is not None:
                    failures += 1
            # Cycle-rich cubic family with k^2 >= 40 ell n.
            h_n = max(2 * (180 * ell) // 2, 120)
            g = triangle_replaced_cubic(h_n)
            packing = find_disjoint_cycles(g)
            k = len(packing.cycles)
            checked += 1
            if k * k < 40 * ell * g.n:
                failures += 1
                print("criterion 4: packing too small", ell, k, g.n)
            res = kernelize_subcubic(g, ell)
            if res.solved is None or res.solved.check(g, ell) is not None:
                failures += 1
        elapsed = time.perf_counter() - start
        print(
            f"ACCEPTANCE 4: {'PASS' if failures == 0 else 'FAIL'} - "
            f"{checked} constructed witnesses across ell=1..5 (n up to 1e4), "
            f"{failures} failures, {elapsed:.1f}s"
        )
        assert failures == 0


class TestCriterion5:
    def test_is_reduction_decisions(self):
        mismatches = 0
        cases = 0
        for name, g in cubic_test_graphs().items():
            alpha = max_independent_set(g)
            for k in range(1, alpha + 2):
                target, ell, _cert = reduce_is_to_mmc(g, k)
                assert target.m <= 9 * g.m + 3 * g.n
                got = solve_decision(target, ell) is not None
                cases += 1
                if got != (alpha >= k):
                    mismatches += 1
                    print("criterion 5 mismatch:", name, k)
        print(
            f"ACCEPTANCE 5: {'PASS' if mismatches == 0 else 'FAIL'} - "
            f"all cubic graphs with m <= 9 (K4, K33, prism), {cases} "
            f"(graph, k) decisions vs oracle independent set, "
            f"{mismatches} mismatches"
        )
        assert mismatches == 0


def _tiny_packing_catalog(ground: int, r: int):
    pool = [frozenset(s) for k in (1, 2) for s in itertools.combinations(range(ground), k)]
    rng = random.Random(ground * 10 + r)
    out = []
    for _ in range(4):
        fam = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
        out.append(SetPackingInstance(ground, fam, r))
    return out


class TestCriterion6:
    def test_or_cross_composition(self):
        mismatches = 0
        cases = 0
        for ground in (2, 3, 4):
            for r in (1, 2):
                catalog = _tiny_packing_catalog(ground, r)
                combos = list(itertools.product(catalog, repeat=2))
                combos += list(itertools.product(catalog, repeat=4))
                for instances in combos:
                    composed, _cert = cross_compose_set_packing(list(instances))
                    want = any(
                        has_packing_of_size(inst, inst.k) for inst in instances
                    )
                    got = has_packing_of_size(composed, composed.k)
                    cases += 1
                    if want != got:
                        mismatches += 1
        print(
            f"ACCEPTANCE 6: {'PASS' if mismatches == 0 else 'FAIL'} - "
            f"{cases} compositions (pairs and quadruples, |Y|<=4, r<=2), "
            f"OR semantics, {mismatches} mismatches"
        )
        assert mismatches == 0


class TestCriterion7:
    def test_set_packing_to_mmc(self):
        mismatches = 0
        cases = 0
        subsets3 = [frozenset(s) for k in (1, 2, 3)
                    for s in itertools.combinations(range(3), k)]
        families = []
        for size in (1, 2, 3):
            families.extend(
                itertools.combinations_with_replacement(subsets3, size)
            )
        rng = random.Random(77)
        families.extend(
            tuple(rng.choice(subsets3) for _ in range(4)) for _ in range(40)
        )
        jobs = [(3, fam) for fam in families]
        for ground in (4, 5):
            pool = [frozenset(s) for k in (1, 2, 3)
                    for s in itertools.combinations(range(ground), k)]
            for _ in range(60):
                fam = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
                jobs.append((ground, fam))
        for ground, family in jobs:
            for k in range(0, len(family) + 1):
                inst = SetPackingInstance(ground, tuple(family), k)
                target, ell, _cert = reduce_set_packing_to_mmc(inst)
                want = has_packing_of_size(inst, k)
                got = max_parts(target, limit=target.n) >= ell
                cases += 1
                if want != got:
                    mismatches += 1
                    print("criterion 7 mismatch:", ground, family, k)
        print(
            f"ACCEPTANCE 7: {'PASS' if mismatches == 0 else 'FAIL'} - "
            f"{cases} instances (|X|<=5, |F|<=4, all k), oracle packing vs "
            f"oracle max parts, {mismatches} mismatches"
        )
        assert mismatches == 0


def _ktree(width: int, n: int) -> tuple[Graph, TreeDecomposition]:
    rng = random.Random(width * 1000 + n)
    edges = [(i, j) for i in range(width + 1) for j in range(i + 1, width + 1)]
    bags = {0: frozenset(range(width + 1))}
    tree_edges = []
    cliques = [tuple(range(width + 1))]
    for v in range(width + 1, n):
        base = rng.randrange(len(cliques))
        clique = cliques[base]
        sub = tuple(sorted(rng.sample(clique, width)))
        for u in sub:
            edges.append((u, v))
        bag_id = len(bags)
        bags[bag_id] = frozenset(sub + (v,))
        tree_edges.append((bag_id, min(bag_id - 1, base)))
        cliques.append(sub + (v,))
    graph = Graph.from_edges(n, edges)
    td = TreeDecomposition(n, bags, tree_edges)
    td.validate(graph)
    return graph, td


class TestCriterion8:
    def test_dp_scales_linearly(self):
        sizes = [400, 800, 1200, 1600, 2000]
        families = (
            ("path", lambda n: (path_graph(n), heuristic_decomposition(path_graph(n)))),
            ("cycle", lambda n: (cycle_graph(n), heuristic_decomposition(cycle_graph(n)))),
            ("ktree3", lambda n: _ktree(3, n)),
        )
        cases = []
        for family, make in families:
            for n in sizes:
                graph, td = make(n)
                ntd = nicify(td)
                assert max_parts_tw(graph, ntd) >= 1  # warm caches before timing
                cases.append(((family, n), graph, ntd))
        # Each round times every case once, so a slow spell on a shared
        # host spreads over all sizes instead of skewing one of them; the
        # fastest round per case is kept.
        best = {}
        for _ in range(7):
            for key, graph, ntd in cases:
                t0 = time.perf_counter()
                value = max_parts_tw(graph, ntd)
                dt = time.perf_counter() - t0
                assert value >= 1
                best[key] = min(best.get(key, dt), dt)
        report = []
        ok = True
        for family, _make in families:
            times = [best[(family, n)] for n in sizes]
            r2 = fit_r_squared(sizes, times, 1)
            report.append(f"{family} R2={r2:.3f}")
            if r2 < 0.95:
                ok = False
        print(
            f"ACCEPTANCE 8: {'PASS' if ok else 'FAIL'} - DP runtime vs n "
            f"linear fit on width-bounded families: " + ", ".join(report)
        )
        assert ok


def growth_exponent(sizes, counts) -> float:
    """Least-squares slope of log(count) against log(n)."""
    return float(np.polyfit(np.log(sizes), np.log(counts), 1)[0])


# A linear series has exponent 1; n log n over 400..2000 reads 1.15 and
# n^2 reads 2.
LINEAR_EXPONENT = 1.1


class TestTreewidthWorkLinear:
    """Deterministic work counters of min-fill, nicify and the DP together
    grow linearly on width-bounded families.  Unlike criterion 8's
    wall-time fit, the exponent criterion rejects a quadratic series."""

    SIZES = [400, 800, 1200, 1600, 2000]

    def test_criterion_rejects_superlinear(self):
        sizes = self.SIZES
        assert growth_exponent(sizes, [3 * n + 7 for n in sizes]) <= LINEAR_EXPONENT
        assert growth_exponent(sizes, [n * n for n in sizes]) > LINEAR_EXPONENT
        assert growth_exponent(sizes, [n * n // 50 + n for n in sizes]) > LINEAR_EXPONENT
        assert growth_exponent(sizes, [n * math.log2(n) for n in sizes]) > LINEAR_EXPONENT

    # family -> (graph of n vertices, its treewidth)
    FAMILIES = {
        "path": (path_graph, 1),
        "cycle": (cycle_graph, 2),
        "ktree3": (lambda n: _ktree(3, n)[0], 3),
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_dp_table_entries_linear(self, family):
        make, width = self.FAMILIES[family]
        entries = []
        for n in self.SIZES:
            graph = make(n)
            ntd = nicify(heuristic_decomposition(graph))
            assert ntd.width == width
            stats = {}
            assert max_parts_tw(graph, ntd, stats_out=stats) >= 1
            entries.append(stats["table_entries"])
        exponent = growth_exponent(self.SIZES, entries)
        assert exponent <= LINEAR_EXPONENT, (family, entries, exponent)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_min_fill_rescored_linear(self, family):
        make, _width = self.FAMILIES[family]
        sizes = [500, 1000, 2000]
        rescored = []
        for n in sizes:
            stats = {}
            heuristic_decomposition(make(n), stats_out=stats)
            rescored.append(stats["rescored"])
        exponent = growth_exponent(sizes, rescored)
        assert exponent <= LINEAR_EXPONENT, (family, rescored, exponent)


def _delay_family(n_target: int) -> tuple[Graph, frozenset]:
    hosts = 4
    edges = [(i, i + 1) for i in range(hosts - 1)]
    nxt = hosts
    w = 0
    while nxt + 2 <= n_target:
        edges.append((w % hosts, nxt))
        edges.append((nxt, nxt + 1))
        nxt += 2
        w += 1
    return Graph.from_edges(nxt, edges), frozenset(range(hosts))


@pytest.mark.slow
class TestCriterion9:
    def test_enumeration_delay_polynomial(self):
        sizes = [100, 250, 500, 750, 1000]
        max_delays = []
        for n in sizes:
            graph, mod = _delay_family(n)
            best = None
            for _ in range(3):
                gaps = []
                last = time.perf_counter()
                stream = enumerate_cluster(graph, mod, 4)
                for count, _cut in enumerate(stream):
                    now = time.perf_counter()
                    gaps.append(now - last)
                    last = now
                    if count >= 200:
                        break
                worst = max(gaps[1:])  # skip the setup-heavy first emission
                best = worst if best is None else min(best, worst)
            max_delays.append(best)
        r2 = fit_r_squared(sizes, max_delays, 4)
        print(
            f"ACCEPTANCE 9: {'PASS' if r2 >= 0.9 else 'FAIL'} - max "
            f"inter-emission delay on |U|=4 families, n up to 1000: "
            f"delays={['%.2fms' % (d * 1e3) for d in max_delays]}, "
            f"degree-4 fit R2={r2:.3f}"
        )
        assert r2 >= 0.9


class TestCriterion10:
    def test_search_tree_constant(self):
        rng = random.Random(1010)
        worst = 0.0
        for _ in range(300):
            n = rng.randint(10, 20)
            g = random_connected_graph(rng, n, rng.uniform(0.15, 0.5))
            ell = rng.randint(1, 4)
            stats = {}
            solve_decision(g, ell, stats_out=stats)
            constant = stats["nodes"] / (math.sqrt(ell) ** g.n)
            worst = max(worst, constant)
        print(
            f"ACCEPTANCE 10: {'PASS' if worst <= 1000 else 'FAIL'} - search "
            f"tree nodes <= C * sqrt(ell)^n on random graphs (n<=20, "
            f"ell<=4); measured C = {worst:.3f}"
        )
        assert worst <= 1000
