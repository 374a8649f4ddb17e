"""Reduction compilers and their certificates."""

import itertools
import os
import pathlib
import subprocess
import sys

import pytest

from mmcut import generators
from mmcut.branching import solve_decision
from mmcut.cuts import ViolationReport, validate_multicut
from mmcut.generators import (
    cross_compose_set_packing,
    cubic_test_graphs,
    indivisible_pendant_gadget,
    reduce_is_to_mmc,
    reduce_set_packing_to_mmc,
    verify_cross_composition,
    verify_is_reduction,
    verify_sp_reduction,
)
from mmcut.graphs import Graph, InvariantError, complete_graph
from mmcut.oracle import (
    SetPackingInstance,
    enumerate_all_multicuts,
    has_packing_of_size,
    max_independent_set,
    max_parts,
)


class TestGadgets:
    def test_pendant_gadget_indivisible(self):
        gadget = indivisible_pendant_gadget()
        assert list(enumerate_all_multicuts(gadget, 2)) == []

    def test_triangle_indivisible(self):
        assert list(enumerate_all_multicuts(complete_graph(3), 2)) == []

    def test_pendant_rigidity_small(self):
        # Two pendant triangles on a path: every multicut with more than
        # two parts isolates each pendant triangle.
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                 (0, 6), (6, 7), (7, 3)]
        g = Graph.from_edges(8, edges)
        tri = [frozenset({0, 1, 2}), frozenset({3, 4, 5})]
        for cut in enumerate_all_multicuts(g, 3):
            parts = {frozenset(p) for p in cut.parts}
            assert tri[0] in parts and tri[1] in parts


class TestIsToMmc:
    def test_k4_sizes(self):
        target, ell, _cert = reduce_is_to_mmc(cubic_test_graphs()["K4"], 1)
        assert ell == 2 * 6 + 1 + 1
        assert target.n == 3 * 4 + 6 * 6
        assert target.max_degree <= 3

    def test_cubic_variant_three_regular(self):
        target, _ell, _cert = reduce_is_to_mmc(cubic_test_graphs()["K4"], 1, "cubic")
        assert all(target.degree(v) == 3 for v in range(target.n))

    def test_forward_backward(self):
        graphs = cubic_test_graphs()
        target, ell, cert = reduce_is_to_mmc(graphs["K33"], 3)
        cut = cert.forward([0, 1, 2])
        assert cut.p >= ell
        assert validate_multicut(target, cut.part_of, ell) is None
        assert cert.backward(cut) == [0, 1, 2]

    def test_forward_requires_enough_vertices(self):
        target, _ell, cert = reduce_is_to_mmc(cubic_test_graphs()["K4"], 2)
        with pytest.raises(ValueError):
            cert.forward([0])
        del target

    def test_non_cubic_rejected(self):
        with pytest.raises(ValueError):
            reduce_is_to_mmc(complete_graph(3), 1)

    def test_verify_yes_and_no(self):
        g = cubic_test_graphs()["K4"]
        assert verify_is_reduction(g, 1).ok
        assert verify_is_reduction(g, 2).ok  # agree on "no"

    def test_verify_cubic_variant(self):
        # The cubic targets are decided by the treewidth DP.
        g = cubic_test_graphs()["K4"]
        assert verify_is_reduction(g, 1, "cubic").ok
        assert verify_is_reduction(g, 2, "cubic").ok

    def test_solver_agreement_all_small_cubic(self):
        # Every cubic graph with at most 9 edges, all k up to alpha + 1.
        for name, g in cubic_test_graphs().items():
            alpha = max_independent_set(g)
            for k in range(1, alpha + 2):
                target, ell, _ = reduce_is_to_mmc(g, k)
                got = solve_decision(target, ell) is not None
                assert got == (alpha >= k), (name, k)


class TestSpToMmc:
    def test_solvable_pair(self):
        inst = SetPackingInstance(3, (frozenset({0}), frozenset({1, 2})), 2)
        target, ell, cert = reduce_set_packing_to_mmc(inst)
        assert ell == 3
        assert max_parts(target, limit=target.n) >= ell
        cut = cert.forward([0, 1])
        assert cert.backward(cut) == [0, 1]

    def test_intersecting_pair_unsolvable(self):
        inst = SetPackingInstance(3, (frozenset({0, 1}), frozenset({1, 2})), 2)
        target, ell, _ = reduce_set_packing_to_mmc(inst)
        assert max_parts(target, limit=target.n) < ell

    def test_k_zero_trivial(self):
        inst = SetPackingInstance(3, (frozenset({0}),), 0)
        target, ell, _ = reduce_set_packing_to_mmc(inst)
        assert ell == 1 and max_parts(target, limit=target.n) >= 1

    def test_ground_too_small(self):
        with pytest.raises(ValueError):
            reduce_set_packing_to_mmc(SetPackingInstance(2, (), 1))

    def test_verify_reports(self):
        inst = SetPackingInstance(3, (frozenset({0}), frozenset({1, 2})), 2)
        assert verify_sp_reduction(inst).ok


class TestCrossComposition:
    def test_single_instance_padded(self):
        inst = SetPackingInstance(2, (frozenset({0}),), 1)
        composed, _cert = cross_compose_set_packing([inst])
        assert composed.k == 2
        assert has_packing_of_size(composed, composed.k)

    def test_exact_ground_size(self):
        insts = [
            SetPackingInstance(3, (frozenset({0}), frozenset({1})), 2)
        ] * 3
        composed, cert = cross_compose_set_packing(insts)
        tau = cert.bookkeeping["tau"]
        assert composed.ground_size == 3 + (2 + 1) + 2 * tau * 2

    def test_selector_structure(self):
        insts = [SetPackingInstance(2, (frozenset({0}),), 1)] * 2
        composed, cert = cross_compose_set_packing(insts)
        sel = cert.bookkeeping["selector_index"]
        pack = cert.bookkeeping["packing_index"]
        s0 = {next(iter(composed.family[i] & composed.family[j]))
              for i in sel.values() for j in sel.values() if i < j}
        assert len(s0) == 1  # every selector pair shares exactly s_0
        for (a, _i, _j), idx in pack.items():
            assert not (composed.family[sel[a]] & composed.family[idx])

    def test_or_semantics_exhaustive_pairs(self):
        yes = SetPackingInstance(2, (frozenset({0}), frozenset({1})), 2)
        no = SetPackingInstance(2, (frozenset({0, 1}), frozenset({0, 1})), 2)
        for pair in itertools.product([yes, no], repeat=2):
            report = verify_cross_composition(list(pair))
            assert report.ok, report.checks

    def test_backward_names_solvable_instance(self):
        yes = SetPackingInstance(2, (frozenset({0}), frozenset({1})), 2)
        no = SetPackingInstance(2, (frozenset({0, 1}), frozenset({0, 1})), 2)
        composed, cert = cross_compose_set_packing([no, yes])
        sol = cert.forward(1, [0, 1])
        a, sets = cert.backward(sol)
        assert a == 1 and sets == [0, 1]

    def test_heterogeneous_rejected(self):
        a = SetPackingInstance(2, (frozenset({0}),), 1)
        b = SetPackingInstance(3, (frozenset({0}),), 1)
        with pytest.raises(ValueError):
            cross_compose_set_packing([a, b])


class TestInvariants:
    """The constructions' guarantees are checked explicitly and raise
    InvariantError, also under ``python -O``."""

    @staticmethod
    def rejecting(graph, part_of, ell):
        return ViolationReport("too-few-parts", ())

    def test_cubic_target_not_cubic(self, monkeypatch):
        # A gadget without its last edge leaves degree-2 vertices.
        monkeypatch.setattr(generators, "_INDIVISIBLE_EDGES",
                            generators._INDIVISIBLE_EDGES[:-1])
        with pytest.raises(InvariantError, match="not cubic"):
            reduce_is_to_mmc(cubic_test_graphs()["K4"], 1, "cubic")

    def test_subcubic_target_degree_four(self, monkeypatch):
        # Two pendant units per anchor raise the gadget stems to degree 4.
        attach = generators._Builder.pendant_unit

        def twice(self, anchor, cubic):
            attach(self, anchor, cubic)
            return attach(self, anchor, cubic)

        monkeypatch.setattr(generators._Builder, "pendant_unit", twice)
        with pytest.raises(InvariantError, match="degree above 3"):
            reduce_is_to_mmc(cubic_test_graphs()["K4"], 1)

    def test_is_forward_image_invalid(self, monkeypatch):
        _target, _ell, cert = reduce_is_to_mmc(cubic_test_graphs()["K4"], 1)
        monkeypatch.setattr(generators, "validate_multicut", self.rejecting)
        with pytest.raises(InvariantError, match="is-to-mmc"):
            cert.forward([0])

    def test_sp_forward_image_invalid(self, monkeypatch):
        inst = SetPackingInstance(3, (frozenset({0}), frozenset({1, 2})), 2)
        _target, _ell, cert = reduce_set_packing_to_mmc(inst)
        monkeypatch.setattr(generators, "validate_multicut", self.rejecting)
        with pytest.raises(InvariantError, match="sp-to-mmc"):
            cert.forward([0, 1])

    @staticmethod
    def tamper(monkeypatch, change):
        """Let the composed instance pass through ``change`` first."""
        build = generators.SetPackingInstance
        monkeypatch.setattr(generators, "SetPackingInstance",
                            lambda ground, family, k: build(*change(ground, family), k))

    INSTANCES = [SetPackingInstance(2, (frozenset({0}), frozenset({1})), 2)] * 2

    def test_composed_ground_size(self, monkeypatch):
        self.tamper(monkeypatch, lambda ground, family: (ground + 1, family))
        with pytest.raises(InvariantError, match="ground set"):
            cross_compose_set_packing(self.INSTANCES)

    def test_selector_size(self, monkeypatch):
        # Selector 0 also takes ground element 0.
        self.tamper(monkeypatch, lambda ground, family:
                    (ground, (family[0] | {0},) + family[1:]))
        with pytest.raises(InvariantError, match="selector set has the wrong size"):
            cross_compose_set_packing(self.INSTANCES)

    def test_selector_without_s0(self, monkeypatch):
        # Selector 0 trades s_0 (element 2 here) for ground element 0.
        self.tamper(monkeypatch, lambda ground, family:
                    (ground, (family[0] - {2} | {0},) + family[1:]))
        with pytest.raises(InvariantError, match="misses s_0"):
            cross_compose_set_packing(self.INSTANCES)

    def test_checks_run_under_optimize(self):
        code = (
            "from mmcut import generators\n"
            "from mmcut.graphs import InvariantError\n"
            "generators._INDIVISIBLE_EDGES = generators._INDIVISIBLE_EDGES[:-1]\n"
            "k4 = generators.cubic_test_graphs()['K4']\n"
            "try:\n"
            "    generators.reduce_is_to_mmc(k4, 1, 'cubic')\n"
            "except InvariantError:\n"
            "    print('raised')\n"
        )
        # Import the package under test, wherever it was found.
        env = {**os.environ,
               "PYTHONPATH": str(pathlib.Path(generators.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout == "raised\n"
