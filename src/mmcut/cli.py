"""Command-line entry point: solve, maxparts, enumerate, kernelize,
generate, verify.

Graphs are read in PACE/DIMACS/edge-list form (1-based), enumeration output
is one JSON object per solution, and exit status follows the convention
0 = success/yes, 1 = no/empty for decision-like commands, 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import enum_cluster, enum_kernels, generators, oracle, subcubic
from .branching import solve_decision, solve_max
from .cuts import Multicut
from .graphs import Graph, parse_graph, write_graph
from .modulators import (
    Modulator,
    approx_cluster_modulator,
    approx_cocluster_modulator,
    approx_vertex_cover,
)
from .treewidth import heuristic_decomposition, max_parts_tw, nicify, parse_td

# --param value -> (modulator kind, approximation used when none is given)
_MODULATORS = {
    "vc": ("vertex-cover", approx_vertex_cover),
    "cocluster": ("co-cluster", approx_cocluster_modulator),
    "cluster": ("cluster", approx_cluster_modulator),
}


def _ell(text: str) -> int:
    """``--ell``: a part count, an integer of at least 1."""
    try:
        ell = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if ell < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {ell}")
    return ell


def _vertex_ids(text: str) -> tuple[int, ...]:
    """``--modulator``: space-separated 1-based vertex ids."""
    try:
        ids = tuple(int(x) for x in text.split())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a list of vertex ids: {text!r}"
        ) from None
    if any(v < 1 for v in ids):
        raise argparse.ArgumentTypeError(f"vertex ids are 1-based: {text!r}")
    return ids


def _read_graph(path: str, fmt: str = "auto") -> Graph:
    return parse_graph(Path(path).read_text(), fmt)


def _read_packing(path: str) -> oracle.SetPackingInstance:
    return oracle.parse_set_packing(Path(path).read_text())


def _treewidth_max_parts(graph: Graph, td_path: str | None) -> int:
    """The DP's value on the ``--td`` decomposition, or on min-fill's."""
    if td_path:
        td = parse_td(Path(td_path).read_text())
        td.validate(graph)
    else:
        td = heuristic_decomposition(graph)
    return max_parts_tw(graph, nicify(td))


def _maxparts(
    graph: Graph, engine: str, td_path: str | None
) -> tuple[int, Multicut | None]:
    if engine == "branching":
        return solve_max(graph)
    if engine == "treewidth":
        best = _treewidth_max_parts(graph, td_path)
        # The table stores only counts; the witness comes from the search
        # engine, which is exact as well.
        return best, (solve_decision(graph, best) if best else None)
    best = oracle.max_parts(graph)
    return best, (next(oracle.enumerate_all_multicuts(graph, best)) if best else None)


def _modulator_for(
    graph: Graph, param: str, ids: tuple[int, ...] | None
) -> Modulator:
    kind, approximate = _MODULATORS[param]
    if ids is None:
        return approximate(graph)
    if ids and max(ids) > graph.n:
        raise ValueError(f"modulator vertex {max(ids)} is not in the graph")
    mod = Modulator(kind, frozenset(v - 1 for v in ids))
    if not mod.check(graph):
        raise ValueError(f"given vertices are not a {kind} modulator")
    return mod


def _enumerate(
    graph: Graph, param: str, ell: int, modulator: tuple[int, ...] | None
):
    mod = _modulator_for(graph, param, modulator)
    if param == "cluster":
        return enum_cluster.enumerate_cluster(graph, mod, ell)
    return enum_kernels.enumerate_via_kernel(graph, mod, ell)


def cmd_solve(args, out, err) -> int:
    if args.trace and args.engine != "branching":
        raise ValueError("--trace needs --engine branching")
    graph = _read_graph(args.input, args.format)
    if args.engine == "branching":
        trace: list | None = [] if args.trace else None
        cut = solve_decision(graph, args.ell, trace_out=trace)
        if args.trace:
            Path(args.trace).write_text("".join(
                json.dumps({"rule": rule,
                            "assign": [[v + 1, p + 1] for v, p in moves]},
                           separators=(",", ":")) + "\n"
                for rule, moves in trace
            ))
    elif args.engine == "treewidth":
        cut = None
        if _treewidth_max_parts(graph, args.td) >= args.ell:
            cut = solve_decision(graph, args.ell)
    else:
        cut = next(oracle.enumerate_all_multicuts(graph, args.ell), None)
    if cut is None:
        out.write("NO\n")
        return 1
    out.write(cut.to_text())
    return 0


def cmd_maxparts(args, out, err) -> int:
    graph = _read_graph(args.input, args.format)
    best, witness = _maxparts(graph, args.engine, args.td)
    out.write(f"maxparts {best}\n")
    if witness is not None:
        out.write(witness.to_text())
    return 0


def cmd_enumerate(args, out, err) -> int:
    graph = _read_graph(args.input, args.format)
    count = 0
    start = time.perf_counter()
    last = start
    for cut in _enumerate(graph, args.param, args.ell, args.modulator):
        out.write(cut.to_json() + "\n")
        count += 1
        if args.stats:
            now = time.perf_counter()
            err.write(f"# solution {count} at {now - start:.6f}s "
                      f"delay {now - last:.6f}s\n")
            last = now
    if args.stats:
        err.write(f"# total {count} solutions\n")
    return 0 if count else 1


def cmd_kernelize(args, out, err) -> int:
    graph = _read_graph(args.input, args.format)
    result = subcubic.kernelize_subcubic(graph, args.ell)
    if result.solved is not None:
        out.write("SOLVED\n")
        out.write(result.solved.to_text())
        return 0
    kernel_graph, ell = result.kernel
    bound = subcubic.KERNEL_SIZE_FACTOR
    out.write(f"KERNEL n<{bound}*{ell}*log^2({ell})\n")
    if args.output:
        Path(args.output).write_text(write_graph(kernel_graph))
    else:
        out.write(write_graph(kernel_graph))
    return 0


def _reduction_source(args):
    """What a reduction kind reads: a cubic graph (``is2mmc``), a set
    packing (``sp2mmc``) or a list of set packings (``xcompose``)."""
    if args.kind == "is2mmc":
        return _read_graph(args.input)
    if args.kind == "sp2mmc":
        return _read_packing(args.input)
    return [_read_packing(path) for path in args.inputs]


def cmd_generate(args, out, err) -> int:
    """The reduction's output to ``--output`` (printing a summary) or to
    stdout, and its certificate to ``--cert`` when given."""
    source = _reduction_source(args)
    if args.kind == "xcompose":
        composed, cert = generators.cross_compose_set_packing(source)
        payload = oracle.write_set_packing(composed)
        summary = (f"composed {len(source)} instances: |X|={composed.ground_size} "
                   f"|F|={len(composed.family)} k={composed.k}\n")
    else:
        if args.kind == "is2mmc":
            target, ell, cert = generators.reduce_is_to_mmc(
                source, args.k, args.variant
            )
        else:
            target, ell, cert = generators.reduce_set_packing_to_mmc(source)
        payload = f"# matching multicut target, ell={ell}\n" + write_graph(target)
        summary = f"ell {ell}\n"
    if args.output:
        Path(args.output).write_text(payload)
        out.write(summary)
    else:
        out.write(payload)
    if args.cert:
        Path(args.cert).write_text(
            json.dumps(_cert_json(cert), indent=2, sort_keys=True) + "\n"
        )
    return 0


def _cert_json(cert: generators.ReductionCertificate) -> dict:
    def clean(value):
        if isinstance(value, dict):
            return {str(k): clean(v) for k, v in value.items()}
        if isinstance(value, (list, tuple, set, frozenset)):
            return [clean(v) for v in value]
        return value

    return {"kind": cert.kind, "bookkeeping": clean(cert.bookkeeping)}


def _agreement(graph: Graph, ell: int) -> tuple[bool, list[str]]:
    """The three maxparts engines against each other and the three
    enumeration pipelines against the oracle."""
    counts = {
        "oracle": oracle.max_parts(graph),
        "branching": solve_max(graph)[0],
        "treewidth": _treewidth_max_parts(graph, None),
    }
    ok = len(set(counts.values())) == 1
    reports = [f"maxparts: {counts} {'AGREE' if ok else 'DISAGREE'}"]
    streams = {}
    for param in _MODULATORS:
        sols = [c.cut_edges for c in _enumerate(graph, param, ell, None)]
        if len(sols) != len(set(sols)):
            ok = False
            reports.append(f"enumerate --param {param}: DUPLICATES")
        streams[param] = frozenset(sols)
    want = {c.cut_edges for c in oracle.enumerate_all_multicuts(graph, ell)}
    for param, got in streams.items():
        if got != want:
            ok = False
            reports.append(f"enumerate --param {param}: MISMATCH vs oracle")
        else:
            reports.append(f"enumerate --param {param}: {len(got)} solutions AGREE")
    return ok, reports


def cmd_verify(args, out, err) -> int:
    if args.kind == "agreement":
        ok, lines = _agreement(_read_graph(args.input, args.format), args.ell)
    else:
        source = _reduction_source(args)
        if args.kind == "is2mmc":
            report = generators.verify_is_reduction(source, args.k, args.variant)
        elif args.kind == "sp2mmc":
            report = generators.verify_sp_reduction(source)
        else:
            report = generators.verify_cross_composition(source)
        ok, lines = report.ok, report.checks
    for line in lines:
        out.write(line + "\n")
    out.write("PASS\n" if ok else "FAIL\n")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmcut",
        description="Matching multicut solvers, kernels and enumeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, engine=False, ell=True):
        p.add_argument("input", help="graph file (PACE 'p tw', DIMACS or edge list)")
        p.add_argument("--format", default="auto",
                       choices=["auto", "pace-gr", "dimacs", "edge-list"])
        if engine:
            p.add_argument("--engine", default="branching",
                           choices=["branching", "treewidth", "oracle"])
            p.add_argument("--td", help="tree decomposition (.td) for the DP")
        if ell:
            p.add_argument("--ell", type=_ell, required=True,
                           help="required number of parts (at least 1)")

    p = sub.add_parser("solve", help="decide and print a witness")
    add_common(p, engine=True)
    p.add_argument("--trace",
                   help="dump the successful search path's rule "
                        "applications as JSON lines (branching only)")
    p.set_defaults(run=cmd_solve)

    p = sub.add_parser("maxparts", help="maximum number of parts")
    add_common(p, engine=True, ell=False)
    p.set_defaults(run=cmd_maxparts)

    p = sub.add_parser("enumerate", help="stream all solutions as JSON lines")
    add_common(p)
    p.add_argument("--param", default="cluster", choices=list(_MODULATORS))
    p.add_argument("--modulator", type=_vertex_ids,
                   help="1-based modulator vertices, space separated")
    p.add_argument("--stats", action="store_true",
                   help="emit per-solution delay timestamps on stderr")
    p.set_defaults(run=cmd_enumerate)

    p = sub.add_parser("kernelize", help="subcubic win-win kernelization")
    add_common(p)
    p.add_argument("--subcubic", action="store_true", required=True)
    p.add_argument("--output", help="write the kernel graph here")
    p.set_defaults(run=cmd_kernelize)

    # generate and verify share the reduction kinds; only generate writes.
    for command, run, help_text in (
        ("generate", cmd_generate, "build reduction instances"),
        ("verify", cmd_verify, "check reductions or engine agreement"),
    ):
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(run=run)
        kinds = p.add_subparsers(dest="kind", required=True)
        if command == "verify":
            v = kinds.add_parser("agreement")
            add_common(v, ell=False)
            v.add_argument("--ell", type=_ell, default=1)
        g = kinds.add_parser("is2mmc")
        g.add_argument("input", help="cubic graph file")
        g.add_argument("-k", type=int, required=True)
        g.add_argument("--variant", default="subcubic", choices=["subcubic", "cubic"])
        g = kinds.add_parser("sp2mmc")
        g.add_argument("input", help="set packing file")
        g = kinds.add_parser("xcompose")
        g.add_argument("inputs", nargs="+", help="set packing files")
        if command == "generate":
            for g in kinds.choices.values():
                g.add_argument("--output", "-o")
                g.add_argument("--cert")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args, sys.stdout, sys.stderr)
    except (ValueError, OSError, oracle.OracleLimitError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
