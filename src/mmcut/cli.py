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
from dataclasses import dataclass, field
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

@dataclass
class RunConfig:
    command: str
    engine: str = "branching"
    ell: int = 2
    input_path: str | None = None
    output_path: str | None = None
    fmt: str = "auto"
    td_path: str | None = None
    param: str = "cluster"
    modulator: tuple[int, ...] | None = None
    stats: bool = False
    extra: dict = field(default_factory=dict)


def _read_graph(config: RunConfig) -> Graph:
    text = Path(config.input_path).read_text()
    return parse_graph(text, config.fmt)


def _treewidth_max_parts(graph: Graph, config: RunConfig) -> int:
    """The DP's value on the ``--td`` decomposition, or on min-fill's."""
    if config.td_path:
        td = parse_td(Path(config.td_path).read_text())
        td.validate(graph)
    else:
        td = heuristic_decomposition(graph)
    return max_parts_tw(graph, nicify(td))


def _decide(graph: Graph, config: RunConfig) -> Multicut | None:
    if config.engine == "branching":
        trace: list | None = [] if config.extra.get("trace_path") else None
        cut = solve_decision(graph, config.ell, trace_out=trace)
        if trace is not None:
            lines = [
                json.dumps(
                    {"rule": rule,
                     "assign": [[v + 1, p + 1] for v, p in moves]},
                    separators=(",", ":"),
                )
                for rule, moves in trace
            ]
            Path(config.extra["trace_path"]).write_text(
                "\n".join(lines) + ("\n" if lines else "")
            )
        return cut
    if config.engine == "treewidth":
        if _treewidth_max_parts(graph, config) < config.ell:
            return None
        # The table stores only counts; recover a witness with the search
        # engine, which is exact as well.
        return solve_decision(graph, config.ell)
    if config.engine == "oracle":
        for cut in oracle.enumerate_all_multicuts(graph, config.ell):
            return cut
        return None
    raise ValueError(f"unknown engine {config.engine!r}")


def _maxparts(graph: Graph, config: RunConfig) -> tuple[int, Multicut | None]:
    if config.engine == "branching":
        return solve_max(graph)
    if config.engine == "treewidth":
        best = _treewidth_max_parts(graph, config)
        witness = solve_decision(graph, best) if best else None
        return best, witness
    if config.engine == "oracle":
        best = oracle.max_parts(graph)
        witness = None
        if best:
            witness = next(oracle.enumerate_all_multicuts(graph, best))
        return best, witness
    raise ValueError(f"unknown engine {config.engine!r}")


def _modulator_for(graph: Graph, config: RunConfig) -> Modulator:
    kind = {"vc": "vertex-cover", "cocluster": "co-cluster", "cluster": "cluster"}[
        config.param
    ]
    if config.modulator is not None:
        mod = Modulator(kind, frozenset(v - 1 for v in config.modulator))
        if not mod.check(graph):
            raise ValueError(f"given vertices are not a {kind} modulator")
        return mod
    if config.param == "vc":
        return approx_vertex_cover(graph)
    if config.param == "cocluster":
        return approx_cocluster_modulator(graph)
    return approx_cluster_modulator(graph)


def _enumerate(graph: Graph, config: RunConfig):
    mod = _modulator_for(graph, config)
    if config.param == "cluster":
        return enum_cluster.enumerate_cluster(graph, mod, config.ell)
    return enum_kernels.enumerate_via_kernel(graph, mod, config.ell)


def cmd_solve(config: RunConfig, out) -> int:
    graph = _read_graph(config)
    cut = _decide(graph, config)
    if cut is None:
        out.write("NO\n")
        return 1
    out.write(cut.to_text())
    return 0


def cmd_maxparts(config: RunConfig, out) -> int:
    graph = _read_graph(config)
    best, witness = _maxparts(graph, config)
    out.write(f"maxparts {best}\n")
    if witness is not None:
        out.write(witness.to_text())
    return 0


def cmd_enumerate(config: RunConfig, out, err) -> int:
    graph = _read_graph(config)
    count = 0
    start = time.perf_counter()
    last = start
    for cut in _enumerate(graph, config):
        out.write(cut.to_json() + "\n")
        count += 1
        if config.stats:
            now = time.perf_counter()
            err.write(f"# solution {count} at {now - start:.6f}s "
                      f"delay {now - last:.6f}s\n")
            last = now
    if config.stats:
        err.write(f"# total {count} solutions\n")
    return 0 if count else 1


def cmd_kernelize(config: RunConfig, out) -> int:
    graph = _read_graph(config)
    result = subcubic.kernelize_subcubic(graph, config.ell)
    if result.solved is not None:
        out.write("SOLVED\n")
        out.write(result.solved.to_text())
        return 0
    kernel_graph, ell = result.kernel
    bound = subcubic.KERNEL_SIZE_FACTOR
    out.write(f"KERNEL n<{bound}*{ell}*log^2({ell})\n")
    if config.output_path:
        Path(config.output_path).write_text(write_graph(kernel_graph))
    else:
        out.write(write_graph(kernel_graph))
    return 0


def cmd_generate(config: RunConfig, out) -> int:
    kind = config.extra["kind"]
    if kind == "xcompose":
        instances = [
            oracle.parse_set_packing(Path(path).read_text())
            for path in config.extra["inputs"]
        ]
        composed, cert = generators.cross_compose_set_packing(instances)
        return _write_generated(
            config, out, oracle.write_set_packing(composed),
            f"composed {len(instances)} instances: |X|={composed.ground_size} "
            f"|F|={len(composed.family)} k={composed.k}\n",
            cert,
        )
    if kind == "is2mmc":
        target, ell, cert = generators.reduce_is_to_mmc(
            _read_graph(config), config.extra["k"], config.extra["variant"]
        )
    elif kind == "sp2mmc":
        inst = oracle.parse_set_packing(Path(config.input_path).read_text())
        target, ell, cert = generators.reduce_set_packing_to_mmc(inst)
    else:
        raise ValueError(f"unknown generator {kind!r}")
    payload = f"# matching multicut target, ell={ell}\n" + write_graph(target)
    return _write_generated(config, out, payload, f"ell {ell}\n", cert)


def _write_generated(
    config: RunConfig, out, payload: str, summary: str,
    cert: generators.ReductionCertificate,
) -> int:
    """Payload to ``--output`` (printing the summary) or to stdout, and the
    certificate to ``--cert`` when given."""
    if config.output_path:
        Path(config.output_path).write_text(payload)
        out.write(summary)
    else:
        out.write(payload)
    if config.extra.get("cert_path"):
        Path(config.extra["cert_path"]).write_text(
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


def cmd_verify(config: RunConfig, out) -> int:
    kind = config.extra["kind"]
    if kind == "agreement":
        graph = _read_graph(config)
        reports = []
        counts = {}
        for engine in ("oracle", "branching", "treewidth"):
            sub = RunConfig(command="maxparts", engine=engine, ell=1,
                            input_path=config.input_path)
            counts[engine], _ = _maxparts(graph, sub)
        ok = len(set(counts.values())) == 1
        reports.append(f"maxparts: {counts} {'AGREE' if ok else 'DISAGREE'}")
        enum_counts = {}
        for param in ("vc", "cocluster", "cluster"):
            sub = RunConfig(command="enumerate", engine="oracle",
                            ell=config.ell, input_path=config.input_path,
                            param=param)
            sols = [c.cut_edges for c in _enumerate(graph, sub)]
            if len(sols) != len(set(sols)):
                ok = False
                reports.append(f"enumerate --param {param}: DUPLICATES")
            enum_counts[param] = frozenset(sols)
        want = {
            c.cut_edges for c in oracle.enumerate_all_multicuts(graph, config.ell)
        }
        for param, got in enum_counts.items():
            if got != want:
                ok = False
                reports.append(f"enumerate --param {param}: MISMATCH vs oracle")
            else:
                reports.append(
                    f"enumerate --param {param}: {len(got)} solutions AGREE"
                )
        for line in reports:
            out.write(line + "\n")
        out.write("PASS\n" if ok else "FAIL\n")
        return 0 if ok else 1
    if kind == "is2mmc":
        graph = _read_graph(config)
        report = generators.verify_is_reduction(
            graph, config.extra["k"], config.extra["variant"]
        )
    elif kind == "sp2mmc":
        inst = oracle.parse_set_packing(Path(config.input_path).read_text())
        report = generators.verify_sp_reduction(inst)
    elif kind == "xcompose":
        instances = [
            oracle.parse_set_packing(Path(path).read_text())
            for path in config.extra["inputs"]
        ]
        report = generators.verify_cross_composition(instances)
    else:
        raise ValueError(f"unknown verification {kind!r}")
    for line in report.checks:
        out.write(line + "\n")
    out.write("PASS\n" if report.ok else "FAIL\n")
    return 0 if report.ok else 1


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
            p.add_argument("--trace",
                           help="dump the successful search path's rule "
                                "applications as JSON lines (branching only)")
        if ell:
            p.add_argument("--ell", type=int, required=True,
                           help="required number of parts")

    p = sub.add_parser("solve", help="decide and print a witness")
    add_common(p, engine=True)

    p = sub.add_parser("maxparts", help="maximum number of parts")
    add_common(p, engine=True, ell=False)

    p = sub.add_parser("enumerate", help="stream all solutions as JSON lines")
    add_common(p)
    p.add_argument("--param", default="cluster",
                   choices=["vc", "cocluster", "cluster"])
    p.add_argument("--modulator",
                   help="1-based modulator vertices, space separated")
    p.add_argument("--stats", action="store_true",
                   help="emit per-solution delay timestamps on stderr")

    p = sub.add_parser("kernelize", help="subcubic win-win kernelization")
    add_common(p)
    p.add_argument("--subcubic", action="store_true", required=True)
    p.add_argument("--output", help="write the kernel graph here")

    p = sub.add_parser("generate", help="build reduction instances")
    gsub = p.add_subparsers(dest="kind", required=True)
    g = gsub.add_parser("is2mmc")
    g.add_argument("input", help="cubic graph file")
    g.add_argument("-k", type=int, required=True)
    g.add_argument("--variant", default="subcubic", choices=["subcubic", "cubic"])
    g.add_argument("--output", "-o")
    g.add_argument("--cert")
    g = gsub.add_parser("sp2mmc")
    g.add_argument("input", help="set packing file")
    g.add_argument("--output", "-o")
    g.add_argument("--cert")
    g = gsub.add_parser("xcompose")
    g.add_argument("inputs", nargs="+", help="set packing files")
    g.add_argument("--output", "-o")
    g.add_argument("--cert")

    p = sub.add_parser("verify", help="check reductions or engine agreement")
    vsub = p.add_subparsers(dest="kind", required=True)
    v = vsub.add_parser("agreement")
    v.add_argument("input")
    v.add_argument("--ell", type=int, default=1)
    v.add_argument("--format", default="auto",
                   choices=["auto", "pace-gr", "dimacs", "edge-list"])
    v = vsub.add_parser("is2mmc")
    v.add_argument("input", help="cubic graph file")
    v.add_argument("-k", type=int, required=True)
    v.add_argument("--variant", default="subcubic", choices=["subcubic", "cubic"])
    v = vsub.add_parser("sp2mmc")
    v.add_argument("input", help="set packing file")
    v = vsub.add_parser("xcompose")
    v.add_argument("inputs", nargs="+")
    return parser


def _config_from_args(args) -> RunConfig:
    config = RunConfig(command=args.command)
    for name in ("engine", "ell", "param", "stats"):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(config, name, getattr(args, name))
    if hasattr(args, "input"):
        config.input_path = args.input
    if getattr(args, "format", None):
        config.fmt = args.format
    if getattr(args, "td", None):
        config.td_path = args.td
    if getattr(args, "output", None):
        config.output_path = args.output
    if getattr(args, "modulator", None):
        config.modulator = tuple(int(x) for x in args.modulator.split())
    if getattr(args, "trace", None):
        config.extra["trace_path"] = args.trace
    if getattr(args, "kind", None):
        config.extra["kind"] = args.kind
        for name in ("k", "variant"):
            if hasattr(args, name):
                config.extra[name] = getattr(args, name)
        if hasattr(args, "cert"):
            config.extra["cert_path"] = args.cert
        if hasattr(args, "inputs"):
            config.extra["inputs"] = args.inputs
            config.input_path = args.inputs[0]
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _config_from_args(args)
    out, err = sys.stdout, sys.stderr
    try:
        if config.command == "solve":
            return cmd_solve(config, out)
        if config.command == "maxparts":
            return cmd_maxparts(config, out)
        if config.command == "enumerate":
            return cmd_enumerate(config, out, err)
        if config.command == "kernelize":
            return cmd_kernelize(config, out)
        if config.command == "generate":
            return cmd_generate(config, out)
        if config.command == "verify":
            return cmd_verify(config, out)
        parser.error(f"unknown command {config.command}")
    except (ValueError, OSError, oracle.OracleLimitError) as exc:
        err.write(f"error: {exc}\n")
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
