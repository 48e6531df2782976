"""Counting nowhere-zero group-valued flows of multigraphs.

Given a multigraph, a finite Abelian group A, and a vertex function b whose
per-component sums vanish, the package computes the one-variable polynomial
whose value at |A'| counts the nowhere-zero flows with boundary b' for any
group A' and boundary b' inducing the same assigning.  Two independent
algorithms (spanning-subgraph expansion and broken-bond counting) are
provided, together with brute-force oracles and a verification harness that
cross-checks them on exhaustive catalogs of small multigraphs.
"""

from . import abelian, assigning, flows, graphs
from .abelian import GroupElement, GroupSpec, parse_group
from .assigning import (
    Assigning,
    CoefficientComparison,
    EdgeOrder,
    b_compatible_bonds,
    broken_bonds,
    compare_coefficients,
    induced_assigning,
    is_A_connected,
    poly_nbb,
    poly_subset_expansion,
)
from .errors import (
    BudgetError,
    ConsistencyError,
    FlowPolyError,
    IncompatibleError,
    InputError,
    ParseError,
)
from .flows import (
    BFunction,
    EdgeFunction,
    boundary,
    count_flows,
    count_flows_bruteforce,
    count_nz_flows_bruteforce,
    decomposition_check,
    enumerate_zero_sum,
    is_b_compatible,
    nz_flow_boundary_counts,
    nz_flow_index_counts,
)
from .graphs import (
    Edge,
    EdgeSet,
    MultiGraph,
    VertexSet,
    bonds,
    bridges,
    component_count,
    components,
    cycle_rank,
    delete_edges,
    induced_subgraph,
    lambda_family,
    reverse_edge,
)
from .polynomial import IntPolynomial

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every cache the package keeps, so the next call starts cold."""
    for cache in (
        abelian.index_tables,
        abelian.residue_strides,
        graphs.components,
        graphs._lambda_family_cached,
        graphs.bond_sides,
        flows._boundary_histogram,
        assigning._structure,
    ):
        cache.cache_clear()


__all__ = [
    "Assigning",
    "BFunction",
    "BudgetError",
    "CoefficientComparison",
    "ConsistencyError",
    "Edge",
    "EdgeFunction",
    "EdgeOrder",
    "EdgeSet",
    "FlowPolyError",
    "GroupElement",
    "GroupSpec",
    "IncompatibleError",
    "InputError",
    "IntPolynomial",
    "MultiGraph",
    "ParseError",
    "VertexSet",
    "b_compatible_bonds",
    "bonds",
    "boundary",
    "bridges",
    "broken_bonds",
    "clear_caches",
    "compare_coefficients",
    "component_count",
    "components",
    "count_flows",
    "count_flows_bruteforce",
    "count_nz_flows_bruteforce",
    "cycle_rank",
    "decomposition_check",
    "delete_edges",
    "enumerate_zero_sum",
    "induced_assigning",
    "induced_subgraph",
    "is_A_connected",
    "is_b_compatible",
    "lambda_family",
    "nz_flow_boundary_counts",
    "nz_flow_index_counts",
    "parse_group",
    "poly_nbb",
    "poly_subset_expansion",
    "reverse_edge",
]
