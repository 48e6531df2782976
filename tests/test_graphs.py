"""Graph structure: components, cycle rank, subgraphs, bonds, lambda family."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowpoly.catalog import all_multigraphs
from flowpoly.errors import InputError
from flowpoly.graphs import (
    MultiGraph,
    bond_sides,
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

from conftest import k4, multigraphs, petersen, single_edge, single_loop, triangle


# ---------------------------------------------------------------------------
# Brute-force oracles used to pin expected values.


def bonds_oracle(g: MultiGraph) -> set[frozenset[int]]:
    """Minimal nonempty edge sets whose removal raises the component count."""
    base = component_count(g)
    ids = list(g.edge_ids)
    raising = set()
    for r in range(1, len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            if component_count(delete_edges(g, combo)) > base:
                raising.add(frozenset(combo))
    minimal = set()
    for s in raising:
        if not any(t < s for t in raising):
            minimal.add(s)
    return minimal


def lambda_oracle(g: MultiGraph) -> set[frozenset[int]]:
    """Direct check of both defining conditions over all nonempty subsets."""
    base = component_count(g)
    out = set()
    for r in range(1, g.vertex_count + 1):
        for combo in itertools.combinations(range(g.vertex_count), r):
            inside = induced_subgraph(g, combo)
            if component_count(inside) != 1:
                continue
            rest = [v for v in range(g.vertex_count) if v not in combo]
            if component_count(induced_subgraph(g, rest)) == base:
                out.add(frozenset(combo))
    return out


# ---------------------------------------------------------------------------
# Components and cycle rank.


def test_components_triangle():
    assert components(triangle()) == (frozenset({0, 1, 2}),)


def test_components_edgeless():
    g = MultiGraph.from_pairs(3, [])
    assert components(g) == (frozenset({0}), frozenset({1}), frozenset({2}))


def test_components_two_disjoint_edges():
    g = MultiGraph.from_pairs(4, [(0, 1), (2, 3)])
    assert component_count(g) == 2


def test_components_empty_graph_is_zero():
    assert component_count(MultiGraph.from_pairs(0, [])) == 0


@pytest.mark.parametrize(
    "graph, expected",
    [(triangle(), 1), (single_loop(), 1), (k4(), 3)],
)
def test_cycle_rank(graph, expected):
    assert cycle_rank(graph) == expected


# ---------------------------------------------------------------------------
# Subgraphs.


def test_delete_edges_identity():
    g = triangle()
    assert delete_edges(g, []) == g


def test_delete_edges_keeps_ids():
    g = triangle()
    smaller = delete_edges(g, [0])
    assert smaller.edge_ids == (1, 2)
    assert component_count(smaller) == 1


def test_delete_all_edges():
    g = triangle()
    assert component_count(delete_edges(g, [0, 1, 2])) == 3


def test_delete_unknown_edge():
    with pytest.raises(InputError):
        delete_edges(triangle(), [7])


def test_induced_subgraph_edge():
    sub = induced_subgraph(triangle(), [0, 1])
    assert sub.vertex_count == 2
    assert sub.pairs() == ((0, 1),)


def test_induced_subgraph_single_vertex():
    sub = induced_subgraph(triangle(), [0])
    assert sub.vertex_count == 1
    assert sub.edge_count == 0


def test_induced_subgraph_keeps_loop():
    g = MultiGraph.from_pairs(2, [(0, 0), (0, 1)])
    sub = induced_subgraph(g, [0])
    assert sub.pairs() == ((0, 0),)
    assert sub.edge_ids == (0,)


def test_induced_subgraph_unknown_vertex():
    with pytest.raises(InputError):
        induced_subgraph(triangle(), [5])


# ---------------------------------------------------------------------------
# Bonds.


def test_bonds_triangle_all_pairs():
    assert bonds_oracle(triangle()) == {
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({1, 2}),
    }
    assert set(bonds(triangle())) == bonds_oracle(triangle())


def test_bridge_is_a_bond():
    assert bonds(single_edge()) == [frozenset({0})]


def test_loop_never_in_a_bond():
    assert bonds(single_loop()) == []
    g = MultiGraph.from_pairs(2, [(0, 0), (0, 1)])
    assert bonds(g) == [frozenset({1})]


def test_bonds_beyond_thirteen_vertices():
    # Long cycles and paths: few of their anchored sides are connected, and
    # the walk grows only those.
    cycle16 = MultiGraph.from_pairs(16, [(i, (i + 1) % 16) for i in range(16)])
    assert bonds(cycle16) == [frozenset(pair) for pair in itertools.combinations(range(16), 2)]
    path15 = MultiGraph.from_pairs(15, [(i, i + 1) for i in range(14)])
    assert bonds(path15) == [frozenset({i}) for i in range(14)]


def _w12_relabelled() -> MultiGraph:
    pairs = [(i, (i + 1) % 12) for i in range(12)] + [(i, 12) for i in range(12)]
    label = list(range(13))
    random.Random(12).shuffle(label)
    return MultiGraph.from_pairs(13, [(label[t], label[h]) for t, h in pairs])


def _grid4() -> MultiGraph:
    pairs = [(v, v + 1) for v in range(16) if (v + 1) % 4]
    pairs += [(v, v + 4) for v in range(12)]
    return MultiGraph.from_pairs(16, pairs)


@pytest.mark.parametrize(
    "g, count", [(_w12_relabelled(), 133), (_grid4(), 627), (petersen(), 191)]
)
def test_bond_sides_where_growth_prunes(g, count):
    # Most anchored sides of these graphs are disconnected; the counts were
    # taken from a walk over all 2^(n-1) of them.
    sides = bond_sides(g)
    assert len(sides) == count
    everything = frozenset(range(g.vertex_count))
    for bond, side in sides:
        assert 0 in side
        assert component_count(induced_subgraph(g, side)) == 1
        assert component_count(induced_subgraph(g, everything - side)) == 1
        assert bond == frozenset(
            e.id for e in g.edges if (e.tail in side) != (e.head in side)
        )


def _seeded_tree(n: int, seed: int) -> MultiGraph:
    """A random tree: each vertex after the first hangs from an earlier one,
    then the labels and the edge list are shuffled."""
    rng = random.Random(seed)
    pairs = [(rng.randrange(v), v) for v in range(1, n)]
    label = list(range(n))
    rng.shuffle(label)
    rng.shuffle(pairs)
    return MultiGraph.from_pairs(n, [(label[t], label[h]) for t, h in pairs])


@pytest.mark.parametrize(
    "g", [MultiGraph.from_pairs(301, [(0, v) for v in range(1, 301)]), _seeded_tree(300, 9)]
)
def test_tree_bonds_are_its_edges(g):
    # Most sides of a star or a tree leave W - X in pieces.  The walk takes
    # the pieces every larger bond side must hold in one step; growing into
    # them one vertex at a time costs cubic time.
    assert bonds(g) == [frozenset([edge_id]) for edge_id in g.edge_ids]
    assert len(lambda_family(g)) == 2 * (g.vertex_count - 1)


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_vertices=6, max_edges=10))
def test_bonds_match_bruteforce_minimal_cuts(g):
    assert set(bonds(g)) == bonds_oracle(g)


@settings(max_examples=40, deadline=None)
@given(multigraphs(max_vertices=5, max_edges=6))
def test_removing_a_bond_raises_c_by_one(g):
    base = component_count(g)
    for bond in bonds(g):
        assert component_count(delete_edges(g, bond)) == base + 1
        for r in range(1, len(bond)):
            for sub in itertools.combinations(sorted(bond), r):
                assert component_count(delete_edges(g, sub)) == base


def test_bridges_of_path():
    g = MultiGraph.from_pairs(3, [(0, 1), (1, 2)])
    assert bridges(g) == [0, 1]
    assert bridges(triangle()) == []


# ---------------------------------------------------------------------------
# Lambda family.


def test_lambda_triangle():
    fam = lambda_family(triangle())
    assert {frozenset(x) for x in fam} == lambda_oracle(triangle())
    assert len(fam) == 6
    assert fam == sorted(fam, key=sorted)


def test_lambda_single_edge():
    assert lambda_family(single_edge()) == [frozenset({0}), frozenset({1})]


def test_lambda_isolated_vertex():
    assert lambda_family(MultiGraph.from_pairs(1, [])) == []


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_vertices=5, max_edges=7))
def test_lambda_matches_definition(g):
    assert {frozenset(x) for x in lambda_family(g)} == lambda_oracle(g)


def test_lambda_closed_under_complement_exhaustive():
    for g in all_multigraphs(4, 5):
        fam = set(lambda_family(g))
        comps = components(g)
        for x in fam:
            home = next(c for c in comps if x <= c)
            if x != home:
                assert home - x in fam


def test_bond_lambda_duality_exhaustive():
    # A bond is exactly a crossing set between a lambda member and its
    # within-component complement.
    for g in all_multigraphs(4, 5):
        fam = set(lambda_family(g))
        expected = set()
        for comp in components(g):
            for x in fam:
                if x < comp and (comp - x) in fam:
                    cut = frozenset(
                        e.id for e in g.edges if (e.tail in x) != (e.head in x)
                    )
                    expected.add(cut)
        assert set(bonds(g)) == expected


# ---------------------------------------------------------------------------
# Monotonicity invariants.


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_vertices=5, max_edges=7), st.data())
def test_deletion_monotonicity(g, data):
    ids = list(g.edge_ids)
    subset = data.draw(st.sets(st.sampled_from(ids))) if ids else set()
    smaller = delete_edges(g, subset)
    assert component_count(smaller) >= component_count(g)
    assert cycle_rank(smaller) <= cycle_rank(g)


@settings(max_examples=40, deadline=None)
@given(multigraphs(max_vertices=5, max_edges=6))
def test_reverse_edge_keeps_structure(g):
    for edge in g.edges:
        flipped = reverse_edge(g, edge.id)
        assert flipped.edge_ids == g.edge_ids
        assert components(flipped) == components(g)


def test_equal_graphs_hash_equal():
    pairs = [(0, 1), (1, 2), (2, 0), (2, 2), (0, 1)]
    first = MultiGraph.from_pairs(3, pairs)
    second = MultiGraph.from_pairs(3, list(pairs))
    assert first is not second
    assert first == second
    assert hash(first) == hash(second) == hash(first)
    assert len({first, second}) == 1
    flipped = reverse_edge(first, 0)
    assert flipped != first
    assert reverse_edge(flipped, 0) == first
    assert hash(reverse_edge(flipped, 0)) == hash(first)
    assert MultiGraph.from_pairs(4, pairs) != first


def test_edge_ids_must_increase():
    from flowpoly.graphs import Edge

    with pytest.raises(InputError):
        MultiGraph(2, (Edge(1, 0, 1), Edge(0, 0, 1)))


def test_endpoint_range_checked():
    with pytest.raises(InputError):
        MultiGraph.from_pairs(2, [(0, 5)])
