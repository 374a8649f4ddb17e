"""mmcut benchmark: run one workload in one single-threaded process.

    python3 bench/run.py --workload sample --seed 1 --seconds 20 --trace 0

The workload's corpus is generated from the seed, written as PACE text and
parsed with ``mmcut.graphs.parse_graph`` (set-up).  Its fixed operation list
is then run in whole rounds until ``--seconds`` have passed.  Outputs of the
first round are checked against independent references (``checks``,
``refs``); later rounds must reproduce them exactly.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Details go to ``bench/results/``.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with status 2.
"""

import time

_WALL0 = time.perf_counter()
_CPU0 = time.process_time()  # interpreter start-up, which is CPU-bound

import clock  # noqa: E402

_CAL0 = clock.calibrate()  # host speed at the start of set-up

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402
import refs  # noqa: E402
import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOADS = ("sample", "search", "large", "stream")
APPROX = {
    "cluster": "approx_cluster_modulator",
    "vc": "approx_vertex_cover",
    "cocluster": "approx_cocluster_modulator",
}
MAX_CHECK_ERRORS = 20


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_program():
    if not (SRC / "mmcut" / "__init__.py").is_file():
        raise SystemExit(f"error: program source not found at {SRC / 'mmcut'}")
    sys.path.insert(0, str(SRC))
    import mmcut

    if Path(mmcut.__file__).resolve().parent != SRC / "mmcut":
        raise SystemExit(f"error: imported mmcut from {mmcut.__file__}, not {SRC}")
    from mmcut import (branching, enum_cluster, enum_kernels, graphs,  # noqa: F401
                       modulators, oracle, subcubic, treewidth)
    return mmcut


class Op:
    """One timed call into the program.  Functions are looked up on their
    modules at call time, so the tracer's wrappers see every call."""

    def __init__(self, mm, index, item, graph, td, spec, ell):
        self.mm, self.index, self.item, self.graph, self.td = mm, index, item, graph, td
        self.kind = spec[0]
        self.spec = spec
        self.ell = ell
        self.param = spec[1] if self.kind == "enum" else None

    def label(self) -> str:
        extra = f":{self.param}" if self.param else ""
        return f"{self.item.name}:{self.kind}{extra}:ell={self.ell}"

    def run(self):
        mm, g = self.mm, self.graph
        if self.kind == "maxparts":
            return mm.branching.solve_max(g)
        if self.kind == "decide":
            return mm.branching.solve_decision(g, self.ell)
        if self.kind == "tw":
            if self.spec[1] == "given":
                td = self.td
                td.validate(g)  # as `mmcut maxparts --td` does
            else:
                td = mm.treewidth.heuristic_decomposition(g)
            return mm.treewidth.max_parts_tw(g, mm.treewidth.nicify(td))
        if self.kind == "kernelize":
            return mm.subcubic.kernelize_subcubic(g, self.ell)
        raise ValueError(self.kind)

    def drain(self):
        """Modulator approximation plus the whole stream, as ``mmcut
        enumerate`` does; returns (cuts, emission times, start)."""
        mm, g = self.mm, self.graph
        start = time.perf_counter()
        mod = getattr(mm.modulators, APPROX[self.param])(g)
        if self.param == "cluster":
            stream = mm.enum_cluster.enumerate_cluster(g, mod, self.ell)
        else:
            stream = mm.enum_kernels.enumerate_via_kernel(g, mod, self.ell)
        cuts, stamps = [], []
        for cut in stream:
            stamps.append(time.perf_counter())
            cuts.append(cut)
        return cuts, stamps, start


def plan_opt(mm, item, graph, td) -> int | None:
    """Maximum part count used to place the decision and kernel queries:
    a closed form where one exists, otherwise the treewidth DP."""
    needs = any(s[0] == "decide" or (s[0] == "kernelize" and s[1] >= 0) for s in item.ops)
    if not needs:
        return None
    opt = refs.closed_form_opt(item.family, item.n)
    if opt is None and refs.is_tree(item.n, item.edges):
        opt = refs.tree_max_matching(item.n, item.edges) + 1
    if opt is None:
        td = td or mm.treewidth.heuristic_decomposition(graph)
        opt = mm.treewidth.max_parts_tw(graph, mm.treewidth.nicify(td))
    return opt


def resolve_ell(spec, opt):
    kind = spec[0]
    if kind == "decide":
        return opt + spec[1]
    if kind == "kernelize":
        return opt + spec[1] if spec[1] >= 0 else -spec[1]
    if kind == "enum":
        return spec[2]
    return None


def run_round(ops):
    """Run every operation once, calibrating the host speed between
    operations.  Returns the outputs, failures and a record of raw and
    scaled (reference) seconds per operation plus the stream timestamps."""
    outputs, raw, streams, failures, marks = [], [], [], [], []
    begin = time.perf_counter()
    last_cal = float("-inf")
    for j, op in enumerate(ops):
        if time.perf_counter() - last_cal >= clock.INTERVAL_S:
            marks.append((j, clock.calibrate()))
            last_cal = time.perf_counter()
        t0 = time.perf_counter()
        try:
            if op.kind == "enum":
                cuts, stamps, start = op.drain()
                out = cuts
                streams.append((j, start, stamps, time.perf_counter()))
            else:
                out = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            out = None
            failures.append((op.label(), repr(exc)))
        raw.append(time.perf_counter() - t0)
        outputs.append(out)
    marks.append((len(ops), clock.calibrate()))
    wall = time.perf_counter() - begin
    scale = clock.scales(marks, len(ops))
    times = [t * f for t, f in zip(raw, scale)]
    record = {"wall": wall, "raw_s": sum(raw), "run_s": sum(times), "times": times,
              "calibrations": len(marks), "streams": {
                  j: [(t - start) * scale[j] for t in stamps]
                  for j, start, stamps, _end in streams}}
    return outputs, failures, record


def stream_stats(rounds, ops):
    """Stream metrics over the given rounds, in reference time.  Each
    stream pools its emissions over all rounds; rates and p99 gaps are per
    stream and the median over streams is reported, so that a few long
    streams do not decide the figure for a corpus of many small ones."""
    rates, p99s, first, max_gap = [], [], 0.0, 0.0
    for j, op in enumerate(ops):
        if op.kind != "enum":
            continue
        emitted = [r["streams"][j] for r in rounds if j in r["streams"]]
        if not emitted or not emitted[0]:
            continue
        first += median([e[0] for e in emitted])
        rates.append(sum(len(e) for e in emitted) / sum(r["times"][j] for r in rounds))
        gaps = [b - a for e in emitted for a, b in zip(e, e[1:])]
        if len(gaps) >= 2:
            p99s.append(statistics.quantiles(gaps, n=100)[98])
            max_gap = max(max_gap, max(gaps))
    return {
        "solutions_per_s": median(rates),
        "first_solution_ms": first * 1e3,
        "delay_p99_us": median(p99s) * 1e6,
        "max_gap_ms": max_gap * 1e3,
    }


def check_outputs(mm, workload, items, graphs, tds, ops, outputs):
    """Check round-one outputs against the references; returns errors."""
    errors = []
    truths = [checks.build_truth(it) for it in items]
    for it, truth in zip(items, truths):
        errors += [f"{it.name}: {note}" for note in truth.notes]
    by_item: dict[int, dict] = {}
    for op, out in zip(ops, outputs):
        by_item.setdefault(op.index, {})[(op.kind, op.param, op.ell)] = out
    agreed = {}
    for i, it in enumerate(items):
        mine = by_item.get(i, {})
        tw = next((v for (k, _p, _e), v in mine.items() if k == "tw" and v is not None), None)
        value = truths[i].opt if truths[i].opt is not None else tw
        if tds[i] is not None:  # supplied decomposition vs min-fill
            heuristic = mm.treewidth.heuristic_decomposition(graphs[i])
            other = mm.treewidth.max_parts_tw(graphs[i], mm.treewidth.nicify(heuristic))
            err = checks.check_value("supplied-decomposition DP", tw, other)
            if err:
                errors.append(f"{it.name}: {err} (min-fill decomposition)")
        if workload == "sample":  # the oracle, with an explicit size limit
            g = graphs[i]
            got = {c.cut_edges: c.p for c in mm.oracle.enumerate_all_multicuts(g, 1, limit=g.n)}
            if got != truths[i].solutions:
                errors.append(f"{it.name}: oracle enumeration differs from the reference")
            if mm.oracle.max_parts(g, limit=g.n) != truths[i].opt:
                errors.append(f"{it.name}: oracle max_parts differs from the reference")
        agreed[i] = value
    for op, out in zip(ops, outputs):
        if out is None:
            continue  # counted as failed
        truth, value = truths[op.index], agreed[op.index]
        if op.kind == "maxparts":
            err = checks.check_maxparts(truth, out, value)
        elif op.kind == "decide":
            err = checks.check_decide(truth, out, op.ell, value)
        elif op.kind == "tw":
            err = checks.check_value("treewidth DP", out, value)
        elif op.kind == "kernelize":
            err = checks.check_kernelize(truth, op.graph, out, op.ell, value)
        else:
            others = [o for (k, p, e), o in by_item[op.index].items()
                      if k == "enum" and e == op.ell and p != op.param and o is not None]
            err = checks.check_stream(truth, out, op.ell, others[0] if others else None)
        if err:
            errors.append(f"{op.label()}: {err}")
    return errors


def median(values):
    return statistics.median(values) if values else float("nan")


def main(argv=None) -> int:
    args = parse_args(argv)
    mm = import_program()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.instrument(tracer)
        tracer.install()

    # Set-up: write the corpus as PACE text and parse it with the program.
    items = corpus.build(args.workload, args.seed)
    graphs, tds = [], []
    for it in items:
        graphs.append(mm.graphs.parse_graph(it.gr_text()))
        tds.append(mm.treewidth.parse_td(it.td_text()) if it.bags is not None else None)
    setup_raw = time.perf_counter() - _WALL0 - _CAL0 + _CPU0
    setup_s = setup_raw * clock.REF_S / ((_CAL0 + clock.calibrate()) / 2)
    parse_s = 0.0
    if tracer is not None:
        tracer.uninstall()
        parse_s = tracer.self_s["graphs.parse"]
        tracer.reset()

    ops = []
    for i, it in enumerate(items):
        opt = plan_opt(mm, it, graphs[i], tds[i])
        for spec in it.ops:
            ops.append(Op(mm, i, it, graphs[i], tds[i], spec, resolve_ell(spec, opt)))

    # Measurement: whole rounds until the time is up.  With tracing,
    # untraced and traced rounds alternate so both run times are known.
    deadline = time.perf_counter() + args.seconds
    rounds = []
    first_outputs = None
    mismatches = []
    failures = []
    layer_rounds = []
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        gc.collect()
        if traced:
            tracer.reset()
            tracer.log_spans = not layer_rounds
            tracer.install()
        outputs, fails, record = run_round(ops)
        record["traced"] = traced
        if traced:
            tracer.uninstall()
            tracer.log_spans = False
            factor = record["run_s"] / record["raw_s"]
            layer_rounds.append({
                name: (value * factor if unit == "s" else value, unit)
                for name, (value, unit) in spans.layer_metrics(tracer).items()
            })
        rounds.append(record)
        failures += fails
        if first_outputs is None:
            first_outputs = outputs
        elif outputs != first_outputs:
            bad = [ops[j].label() for j, (a, b) in enumerate(zip(outputs, first_outputs)) if a != b]
            mismatches.append(f"round {len(rounds)} differs from round 1 at {bad[:3]}")
        del outputs
        enough = tracer is None or layer_rounds
        if time.perf_counter() >= deadline and enough:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors = check_outputs(mm, args.workload, items, graphs, tds, ops, first_outputs)
    errors += mismatches
    missed = checks.selftest()
    errors += [f"self-test: corruption not flagged: {m}" for m in missed]

    # Times are in reference seconds (see clock.py); each operation's time
    # is its median over the untraced rounds.
    plain = [r for r in rounds if not r["traced"]]
    by_kind: dict[str, list[float]] = {}
    for j, op in enumerate(ops):
        key = f"{op.param}_enumerate_ms" if op.kind == "enum" else KIND_METRIC[op.kind]
        by_kind.setdefault(key, []).append(median([r["times"][j] for r in plain]) * 1e3)
    run_s = median([r["run_s"] for r in plain])
    if tracer is None:
        values = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb}
        for key in KIND_METRIC.values():
            values[key] = median(by_kind.get(key, []))
        for param in APPROX:
            values[f"{param}_enumerate_ms"] = median(by_kind.get(f"{param}_enumerate_ms", []))
        stream = stream_stats(plain, ops)
        for key in ("solutions_per_s", "first_solution_ms", "delay_p99_us"):
            values[key] = stream[key]
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    else:
        metrics = {}
        for name, (_v, unit) in layer_rounds[0].items():
            samples = [lr[name][0] for lr in layer_rounds]
            if unit == "count":
                if len(set(samples)) != 1:
                    errors.append(f"per-layer count {name} differs between rounds: {samples}")
                value = samples[0]
            else:
                value = median(samples)
            metrics[name] = {"value": value, "unit": unit}
        metrics["graphs.parse_s"] = {"value": parse_s * setup_s / setup_raw, "unit": "s"}
        traced_s = median([r["run_s"] for r in rounds if r["traced"]])
        metrics["trace.overhead_s"] = {"value": traced_s - run_s, "unit": "s"}

    attempted = len(ops) * len(rounds)
    failed = len(failures)
    write_details(args, items, ops, rounds, metrics, errors, failures, tracer)
    summary = (f"{args.workload} seed={args.seed}: {len(rounds)} rounds x {len(ops)} ops, "
               f"{failed} failed, {len(errors)} check errors, setup {setup_raw:.3f}s "
               f"({setup_s:.3f} ref), run {median([r['raw_s'] for r in plain]):.3f}s "
               f"({run_s:.3f} ref)")
    print(summary, file=sys.stderr)
    for err in errors[:MAX_CHECK_ERRORS]:
        print("CHECK FAILED:", err, file=sys.stderr)
    for label, exc in failures[:MAX_CHECK_ERRORS]:
        print("OPERATION FAILED:", label, exc, file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


KIND_METRIC = {
    "maxparts": "branching_maxparts_ms",
    "decide": "solve_ms",
    "tw": "treewidth_maxparts_ms",
    "kernelize": "kernelize_ms",
}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "branching_maxparts_ms": "ms",
    "treewidth_maxparts_ms": "ms",
    "solve_ms": "ms",
    "kernelize_ms": "ms",
    "cluster_enumerate_ms": "ms",
    "vc_enumerate_ms": "ms",
    "cocluster_enumerate_ms": "ms",
    "solutions_per_s": "1/s",
    "first_solution_ms": "ms",
    "delay_p99_us": "us",
}


def write_details(args, items, ops, rounds, metrics, errors, failures, tracer):
    """Per-run record (and, when traced, the spans of the first traced
    round) under bench/results/."""
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "items": [{"name": it.name, "n": it.n, "m": len(it.edges)} for it in items],
        "ops": [op.label() for op in ops],
        "rounds": [{k: v for k, v in r.items() if k not in ("times", "streams")}
                   for r in rounds],
        "streams": stream_stats([r for r in rounds if not r["traced"]], ops),
        "op_median_ms": {
            op.label(): median([r["times"][j] * 1e3 for r in rounds if not r["traced"]])
            for j, op in enumerate(ops)
        },
        "metrics": metrics,
        "errors": errors,
        "failures": failures,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with open(RESULTS / f"{stem}.spans.jsonl", "w") as fh:
            for span_id, name, start, end, parent in tracer.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
