"""Catalog generators: exhaustiveness, determinism, named families."""

from __future__ import annotations

import itertools
import math

from flowpoly.catalog import (
    all_multigraphs,
    bridged_triangles,
    complete,
    cycle,
    endpoint_slots,
    path,
    random_catalog,
)
from flowpoly.graphs import MultiGraph, bridges, component_count, cycle_rank


def _expected_count(max_n: int, max_m: int) -> int:
    # Multisets of size m drawn from the endpoint-pair slots of each n.
    total = 0
    for n in range(max_n + 1):
        slots = len(endpoint_slots(n))
        for m in range(max_m + 1):
            if slots == 0:
                total += 1 if m == 0 else 0
            else:
                total += math.comb(slots + m - 1, m)
    return total


def test_catalog_counts():
    assert _expected_count(2, 2) == 14
    assert len(list(all_multigraphs(2, 2))) == 14
    assert len(list(all_multigraphs(4, 6))) == _expected_count(4, 6) == 9024


def test_catalog_graphs_are_distinct():
    graphs = list(all_multigraphs(3, 4))
    assert len(set(graphs)) == len(graphs)


def test_catalog_graphs_match_their_pairs_in_order():
    graphs = list(all_multigraphs(3, 4))
    assert graphs == [MultiGraph.from_pairs(g.vertex_count, g.pairs()) for g in graphs]
    # Vertex count, then edge count, then multisets of slots in order.
    assert [(g.vertex_count, g.pairs()) for g in graphs] == [
        (n, combo)
        for n in range(4)
        for m in range(5)
        for combo in itertools.combinations_with_replacement(endpoint_slots(n), m)
    ]


def test_catalog_graphs_pass_the_constructor_checks():
    # The catalog builds its graphs unchecked; the checking constructor
    # must accept each one and give an equal graph with an equal hash.
    for g in all_multigraphs(3, 4):
        checked = MultiGraph(g.vertex_count, g.edges)
        assert g == checked
        assert hash(g) == hash(checked)


def test_catalog_graphs_share_edge_records():
    # One record per vertex count, edge position and endpoint slot:
    # 6 positions times 0 + 1 + 3 + 6 + 10 slots.
    records = {id(edge) for g in all_multigraphs(4, 6) for edge in g.edges}
    assert len(records) <= 120


def test_catalog_includes_loops_and_multiedges():
    pair_lists = {g.pairs() for g in all_multigraphs(2, 2)}
    assert ((0, 0),) in pair_lists  # loop
    assert ((0, 1), (0, 1)) in pair_lists  # parallel pair


def test_cycle_family():
    for n in range(3, 7):
        g = cycle(n)
        assert g.edge_count == n
        assert component_count(g) == 1
        assert cycle_rank(g) == 1
        assert bridges(g) == []


def test_complete_graph():
    g = complete(4)
    assert g.edge_count == 6
    assert cycle_rank(g) == 3


def test_path_and_bridged_triangles_have_bridges():
    assert bridges(path(3)) == [0, 1]
    assert bridges(bridged_triangles()) == [6]


def test_random_catalog_is_seed_deterministic():
    first = random_catalog(11, 20, 4, 6)
    second = random_catalog(11, 20, 4, 6)
    assert first == second
    assert random_catalog(12, 20, 4, 6) != first
