"""Shared builders and hypothesis strategies."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from flowpoly import flows
from flowpoly.abelian import GroupSpec, parse_group
from flowpoly.graphs import MultiGraph, reverse_edge


def triangle() -> MultiGraph:
    return MultiGraph.from_pairs(3, [(0, 1), (1, 2), (2, 0)])


def single_edge() -> MultiGraph:
    return MultiGraph.from_pairs(2, [(0, 1)])


def single_loop() -> MultiGraph:
    return MultiGraph.from_pairs(1, [(0, 0)])


def k4() -> MultiGraph:
    return MultiGraph.from_pairs(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def petersen() -> MultiGraph:
    return MultiGraph.from_pairs(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    )


@pytest.fixture
def c3() -> MultiGraph:
    return triangle()


@pytest.fixture
def k2() -> MultiGraph:
    return single_edge()


@st.composite
def multigraphs(draw, max_vertices: int = 5, max_edges: int = 7) -> MultiGraph:
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    if n == 0:
        return MultiGraph.from_pairs(0, [])
    m = draw(st.integers(min_value=0, max_value=max_edges))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=m,
            max_size=m,
        )
    )
    return MultiGraph.from_pairs(n, pairs)


@st.composite
def group_specs(draw, max_order: int = 6, max_factors: int = 2) -> GroupSpec:
    factors = draw(
        st.lists(st.integers(min_value=1, max_value=max_order), min_size=1, max_size=max_factors)
    )
    return GroupSpec(tuple(factors))


SMALL_GROUPS = tuple(parse_group(name) for name in ("Z2", "Z3", "Z4", "Z2xZ2"))

# The acceptance groups plus larger and non-cyclic ones of orders 5 to 9.
WIDE_GROUPS = SMALL_GROUPS + tuple(
    parse_group(name) for name in ("Z5", "Z6", "Z2xZ3", "Z3xZ3")
)


def reversals_changing_histogram(g: MultiGraph, spec: GroupSpec) -> tuple[int, ...]:
    """The non-loop edges whose reversed copy of g has another nowhere-zero
    boundary histogram than g, by tallying each copy in full."""
    base = flows.nz_flow_index_counts(g, spec)
    return tuple(
        edge.id
        for edge in g.edges
        if not edge.is_loop
        and flows.nz_flow_index_counts(reverse_edge(g, edge.id), spec) != base
    )


# Over Z4 this table sends 1 -> 2 -> 3 -> 1, which is no involution, so
# reversing any edge changes the step that edge takes.
WRONG_Z4_NEGATION = (0, 2, 3, 1)


@pytest.fixture
def wrong_z4_negation(monkeypatch):
    """Every boundary tally over Z4 negates through WRONG_Z4_NEGATION; other
    groups tally honestly.  The histogram cache is emptied on both sides."""
    real = flows._tally_start
    z4 = parse_group("Z4")

    def patched(g, spec, nowhere_zero):
        counts, values, add = real(g, spec, nowhere_zero)
        if spec == z4:
            values = [(a, WRONG_Z4_NEGATION[a]) for a, _ in values]
        return counts, values, add

    flows._boundary_histogram.cache_clear()
    monkeypatch.setattr(flows, "_tally_start", patched)
    yield
    flows._boundary_histogram.cache_clear()
