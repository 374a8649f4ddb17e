"""Checks shared by the library entry points."""

import pytest

from mmcut.branching import solve_decision
from mmcut.enum_cluster import enumerate_cluster
from mmcut.enum_kernels import enumerate_via_kernel
from mmcut.graphs import cycle_graph
from mmcut.modulators import (
    approx_cluster_modulator,
    approx_cocluster_modulator,
    approx_vertex_cover,
)
from mmcut.subcubic import kernelize_subcubic

ENTRY_POINTS = {
    "solve_decision": solve_decision,
    "kernelize_subcubic": kernelize_subcubic,
    "enumerate_cluster": lambda g, ell: list(
        enumerate_cluster(g, approx_cluster_modulator(g), ell)
    ),
    "enumerate_via_kernel-vc": lambda g, ell: list(
        enumerate_via_kernel(g, approx_vertex_cover(g), ell)
    ),
    "enumerate_via_kernel-cocluster": lambda g, ell: list(
        enumerate_via_kernel(g, approx_cocluster_modulator(g), ell)
    ),
}


@pytest.mark.parametrize("ell", [0, -1])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_ell_must_be_positive(name, ell):
    with pytest.raises(ValueError, match="ell must be positive"):
        ENTRY_POINTS[name](cycle_graph(6), ell)
