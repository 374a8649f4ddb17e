"""Search trees of the branching engine, pinned by a fixture.

For each graph, ``solve_decision`` at the optimum and one above it must
keep its node count, its (rule, moves) journal and its witness.  A change
to a rule scan that alters which rule fires, or where, changes one of
them.  ``python tests/test_search_golden.py`` rewrites the fixture from
the current code."""

import json
import pathlib
import random

import pytest

from mmcut.branching import solve_decision, solve_max
from mmcut.graphs import cycle_graph, parse_graph, path_graph

from conftest import random_graph

INSTANCES = pathlib.Path(__file__).resolve().parents[1] / "instances"
GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "search_golden.json"

CASES = {
    "petersen": lambda: parse_graph((INSTANCES / "petersen.gr").read_text()),
    "caterpillar": lambda: parse_graph((INSTANCES / "caterpillar.gr").read_text()),
    "cycle9": lambda: cycle_graph(9),
    "path10": lambda: path_graph(10),
    "random3-n20": lambda: random_graph(random.Random(3), 20, 0.13),
    "random4-n20": lambda: random_graph(random.Random(4), 20, 0.13),
}


def capture(graph) -> dict:
    """The optimum, then nodes, journal and witness at opt and opt + 1."""
    opt = solve_max(graph)[0]
    out = {"opt": opt}
    for ell in (opt, opt + 1):
        stats, trace = {}, []
        cut = solve_decision(graph, ell, stats_out=stats, trace_out=trace)
        out[str(ell)] = {
            "nodes": stats["nodes"],
            "trace": [[rule, [list(move) for move in moves]] for rule, moves in trace],
            "witness": None if cut is None else list(cut.part_of),
        }
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_search_matches_fixture(name):
    want = json.loads(GOLDEN.read_text())[name]
    assert capture(CASES[name]()) == want


def test_fixture_covers_every_case():
    assert set(json.loads(GOLDEN.read_text())) == set(CASES)


if __name__ == "__main__":
    golden = {name: capture(make()) for name, make in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
