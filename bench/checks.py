"""Output checks for every benchmark operation, and a self-test showing that
each check rejects corrupted output.

References come from ``refs`` (no ``mmcut`` code) where they exist; where
they do not (sparse graphs too large to enumerate), engines are checked
against each other: branching against the treewidth DP, the supplied
decomposition against the min-fill one, and the three enumeration
pipelines against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import refs


@dataclass
class Truth:
    """What is known about one corpus item before looking at its outputs."""

    adj: list
    opt: int | None = None  # maximum part count, from a reference
    solutions: dict | None = None  # {cut edge set: parts}, from a reference
    tree_counts: list | None = None  # matchings by size, for trees
    notes: list = field(default_factory=list)


def build_truth(item) -> Truth:
    truth = Truth(refs.adjacency(item.n, item.edges))
    truth.opt = refs.closed_form_opt(item.family, item.n)
    if refs.is_tree(item.n, item.edges):
        truth.tree_counts = refs.tree_matching_counts(item.n, item.edges)
        opt = refs.tree_max_matching(item.n, item.edges) + 1
        if truth.opt is not None and truth.opt != opt:
            truth.notes.append(f"closed forms disagree: {truth.opt} vs tree {opt}")
        truth.opt = opt
    if item.reference:
        truth.solutions = refs.matching_reference(item.n, item.edges)
        opt = max(truth.solutions.values())
        if truth.opt is not None and truth.opt != opt:
            truth.notes.append(f"reference max {opt} != closed form {truth.opt}")
        truth.opt = opt
        if truth.tree_counts is not None:
            by_size = [0] * len(truth.tree_counts)
            for cut in truth.solutions:
                by_size[len(cut)] += 1
            if by_size != truth.tree_counts:
                truth.notes.append("tree matching counts differ from the reference")
    return truth


def _cut_violation(truth: Truth, cut, ell: int) -> str | None:
    return refs.violation(truth.adj, cut.part_of, cut.p, cut.cut_edges, ell)


def check_maxparts(truth: Truth, value_and_witness, agreed: int | None) -> str | None:
    """``agreed`` is None when neither a reference nor the DP gave a value."""
    value, witness = value_and_witness
    if agreed is not None and value != agreed:
        return f"solve_max value {value} != expected {agreed}"
    bad = _cut_violation(truth, witness, value)
    if bad:
        return f"solve_max witness invalid: {bad}"
    if witness.p != value:
        return f"solve_max witness has {witness.p} parts, value {value}"
    return None


def check_decide(truth: Truth, cut, ell: int, agreed: int | None) -> str | None:
    if agreed is None:
        bad = cut is not None and _cut_violation(truth, cut, ell)
        return f"solve_decision witness invalid: {bad}" if bad else None
    if ell <= agreed:
        if cut is None:
            return f"solve_decision said no at ell={ell} <= opt={agreed}"
        bad = _cut_violation(truth, cut, ell)
        return f"solve_decision witness invalid: {bad}" if bad else None
    if cut is not None:
        return f"solve_decision found {cut.p} parts at ell={ell} > opt={agreed}"
    return None


def check_value(name: str, value: int, agreed: int | None) -> str | None:
    if agreed is None or value == agreed:
        return None
    return f"{name} value {value} != expected {agreed}"


def check_kernelize(truth: Truth, graph, result, ell: int, agreed: int | None) -> str | None:
    if result.solved is not None:
        bad = _cut_violation(truth, result.solved, ell)
        if bad:
            return f"kernelize witness invalid: {bad}"
        if agreed is not None and result.solved.p > agreed:
            return f"kernelize witness has {result.solved.p} parts > opt {agreed}"
        return None
    if result.kernel is None:
        return "kernelize returned neither a witness nor a kernel"
    kgraph, kell = result.kernel
    if kell != ell or kgraph.n != graph.n or kgraph.adj != graph.adj:
        return "kernelize kernel is not the unchanged instance"
    return None


def check_stream(truth: Truth, cuts, ell: int, other: list | None) -> str | None:
    """``other`` is another pipeline's stream at the same ell, used when no
    reference solution set exists."""
    seen = set()
    for cut in cuts:
        if cut.cut_edges in seen:
            return f"duplicate solution {sorted(cut.cut_edges)}"
        seen.add(cut.cut_edges)
        bad = _cut_violation(truth, cut, ell)
        if bad:
            return f"invalid solution: {bad}"
    if truth.solutions is not None:
        want = {m for m, p in truth.solutions.items() if p >= ell}
        if seen != want:
            return f"stream has {len(seen)} solutions, reference {len(want)} (sets differ)"
    elif other is not None and seen != {c.cut_edges for c in other}:
        return "pipelines disagree on the solution set"
    if truth.tree_counts is not None:
        want = sum(truth.tree_counts[max(ell - 1, 0):])
        if len(seen) != want:
            return f"tree has {want} matchings with >= {ell - 1} edges, stream {len(seen)}"
    return None


def _forged(part_of, adj):
    """Multicut-like record for an arbitrary labelling: parts renumbered by
    smallest vertex and cut edges set to the true crossing edges, so the
    only defect is the one the caller planted."""
    from mmcut.cuts import Multicut

    relabel: dict[int, int] = {}
    labels = tuple(relabel.setdefault(p, len(relabel)) for p in part_of)
    crossing = frozenset(
        (u, v) for u in range(len(adj)) for v in adj[u] if u < v and labels[u] != labels[v]
    )
    return Multicut(labels, len(relabel), crossing)


def selftest() -> list[str]:
    """Feed corrupted outputs to the checks; return the corruptions that
    went unflagged (empty when every check can fail)."""
    from mmcut import branching, enum_cluster, modulators, treewidth
    from mmcut.graphs import parse_graph
    from mmcut.subcubic import KernelizeResult

    import corpus

    # A path with one triangle: not a tree, several parts, and a solution
    # with two non-adjacent parts.
    n = 6
    item = corpus.Item("selftest", "gnp", n, corpus.path_edges(n) + [(0, 2)], (),
                       reference=True)
    truth = build_truth(item)
    g = parse_graph(item.gr_text())
    value, witness = branching.solve_max(g)
    tw = treewidth.max_parts_tw(g, treewidth.nicify(treewidth.heuristic_decomposition(g)))
    stream = list(enum_cluster.enumerate_cluster(g, modulators.approx_cluster_modulator(g), 1))

    missed = []
    baseline = [
        check_maxparts(truth, (value, witness), truth.opt),
        check_value("treewidth", tw, truth.opt),
        check_decide(truth, witness, truth.opt, truth.opt),
        check_stream(truth, stream, 1, None),
    ]
    if any(baseline):
        missed.append(f"correct output rejected: {[b for b in baseline if b]}")

    def expect(label, error):
        if error is None:
            missed.append(label)

    expect("dropped solution", check_stream(truth, stream[1:], 1, None))
    expect("duplicated solution", check_stream(truth, stream + stream[:1], 1, None))
    expect("off-by-one DP value", check_value("treewidth", tw + 1, truth.opt))
    expect("off-by-one solve_max value",
           check_maxparts(truth, (value - 1, witness), truth.opt))
    hub = max(range(n), key=lambda v: len(truth.adj[v]))
    alone = [0 if v != hub else 1 for v in range(n)]
    expect("witness vertex with two crossing edges",
           check_decide(truth, _forged(alone, truth.adj), 2, truth.opt))
    split = next(
        (c, i, j) for c in stream for i, a in enumerate(c.parts)
        for j, b in enumerate(c.parts)
        if i < j and not any(u in truth.adj[v] for v in a for u in b)
    )
    cut, i, j = split
    merged = [i if p == j else p for p in cut.part_of]
    expect("witness with a disconnected part",
           check_stream(truth, [_forged(merged, truth.adj)], 1, None))
    stale = cut.__class__(cut.part_of, cut.p, frozenset(list(cut.cut_edges)[1:]))
    expect("witness with wrong cut edges", check_stream(truth, [stale], 1, None))
    expect("decision no on a yes-instance", check_decide(truth, None, 1, truth.opt))
    expect("decision yes on a no-instance",
           check_decide(truth, witness, truth.opt + 1, truth.opt))
    expect("kernel that is not the instance",
           check_kernelize(truth, g, KernelizeResult(None, (g, 2)), 3, None))
    bare = Truth(truth.adj)
    expect("pipelines disagree", check_stream(bare, stream[1:], 1, stream))
    tree = Truth(truth.adj, tree_counts=[1, len(item.edges)])
    expect("tree matching count", check_stream(tree, stream, 1, None))
    return missed
