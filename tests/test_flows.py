"""Boundaries, zero-sum enumeration, and the brute-force counting oracles."""

from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowpoly import flows
from flowpoly.abelian import GroupSpec, parse_group
from flowpoly.catalog import all_multigraphs, cycle
from flowpoly.errors import BudgetError, InputError
from flowpoly.flows import (
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
    nz_orientation_walk,
)
from flowpoly.graphs import MultiGraph, reverse_edge

from conftest import (
    SMALL_GROUPS,
    WIDE_GROUPS,
    k4,
    multigraphs,
    reversals_changing_histogram,
    single_edge,
    single_loop,
    triangle,
)

Z2 = parse_group("Z2")
Z3 = parse_group("Z3")
Z4 = parse_group("Z4")


def all_vertex_functions(spec, n):
    for combo in itertools.product(spec.elements(), repeat=n):
        yield BFunction(spec, combo)


# ---------------------------------------------------------------------------
# Boundary.


def test_boundary_single_edge():
    g = single_edge()
    f = EdgeFunction(Z3, ((1,),))
    db = boundary(g, f)
    assert db.values == ((2,), (1,))  # minus at the tail, plus at the head


def test_boundary_of_zero_is_zero():
    g = k4()
    f = EdgeFunction(Z4, ((0,),) * 6)
    assert boundary(g, f).is_zero


def test_boundary_loop_cancels():
    g = single_loop()
    f = EdgeFunction(Z3, ((2,),))
    assert boundary(g, f).is_zero


def test_boundary_size_mismatch():
    with pytest.raises(InputError):
        boundary(single_edge(), EdgeFunction(Z3, ((1,), (1,))))


@settings(max_examples=50, deadline=None)
@given(multigraphs(max_vertices=4, max_edges=5), st.data())
def test_boundaries_are_locally_zero_sum(g, data):
    spec = data.draw(st.sampled_from(SMALL_GROUPS))
    values = tuple(
        data.draw(st.sampled_from(sorted(spec.elements()))) for _ in range(g.edge_count)
    )
    db = boundary(g, EdgeFunction(spec, values))
    assert is_b_compatible(g, db)


# ---------------------------------------------------------------------------
# Compatibility.


def test_zero_function_always_compatible():
    for g in (triangle(), single_loop(), MultiGraph.from_pairs(3, [])):
        assert is_b_compatible(g, BFunction.zero(Z2, g.vertex_count))


def test_compatible_pair_over_z2():
    g = single_edge()
    assert is_b_compatible(g, BFunction(Z2, ((1,), (1,))))
    assert not is_b_compatible(g, BFunction(Z2, ((1,), (0,))))


# ---------------------------------------------------------------------------
# Zero-sum enumeration.


def test_enumerate_zero_sum_single_edge():
    got = [b.values for b in enumerate_zero_sum(single_edge(), Z2)]
    assert got == [((0,), (0,)), ((1,), (1,))]


def test_enumerate_zero_sum_triangle_count():
    got = list(enumerate_zero_sum(triangle(), Z3))
    assert len(got) == 9
    brute = [b for b in all_vertex_functions(Z3, 3) if is_b_compatible(triangle(), b)]
    assert [b.values for b in got] == sorted(b.values for b in brute)


def test_enumerate_zero_sum_edgeless():
    g = MultiGraph.from_pairs(2, [])
    assert [b.values for b in enumerate_zero_sum(g, Z2)] == [((0,), (0,))]


@settings(max_examples=40, deadline=None)
@given(multigraphs(max_vertices=4, max_edges=5), st.data())
def test_enumerate_zero_sum_matches_filter(g, data):
    spec = data.draw(st.sampled_from(SMALL_GROUPS))
    from flowpoly.graphs import component_count

    got = {b.values for b in enumerate_zero_sum(g, spec)}
    assert len(got) == spec.order ** (g.vertex_count - component_count(g))
    expected = {
        b.values for b in all_vertex_functions(spec, g.vertex_count) if is_b_compatible(g, b)
    }
    assert got == expected


def test_enumerated_b_equal_validated_b():
    # Two components, a loop and a parallel pair; the 4-vertex component
    # has 3 free vertices and one forced by the negated sum.
    g = MultiGraph.from_pairs(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 0), (4, 5), (5, 4)])
    for spec in WIDE_GROUPS:
        count = 0
        for b in enumerate_zero_sum(g, spec):
            built = BFunction(spec, b.values)
            assert b == built and built == b
            assert hash(b) == hash(built)
            assert b.indices == built.indices
            assert b.indices == tuple(spec.index_of(v) for v in b.values)
            assert b.values == tuple(spec.element_at(i) for i in b.indices)
            count += 1
        assert count == spec.order ** 4


def test_zero_bfunction_equals_validated_zero_without_validating(monkeypatch):
    calls = Counter()
    real = GroupSpec.index_of
    monkeypatch.setattr(
        GroupSpec, "index_of", lambda spec, x: calls.update([spec]) or real(spec, x)
    )
    for spec in WIDE_GROUPS:
        for n in (0, 1, 5):
            zero = BFunction.zero(spec, n)
            assert calls[spec] == 0
            built = BFunction(spec, (spec.zero,) * n)
            assert calls[spec] == n  # the counter sees the validated constructor
            assert zero == built and hash(zero) == hash(built)
            assert zero.indices == built.indices
            calls.clear()


def test_bfunction_still_validates_residues():
    for values in (((3,), (0,)), ((-1,), (0,)), ((0, 0), (0,)), (("1",), (0,))):
        with pytest.raises(InputError):
            BFunction(Z3, values)
    with pytest.raises(InputError):
        BFunction(parse_group("Z2xZ2"), ((1, 2),))
    with pytest.raises(InputError):
        EdgeFunction(Z3, ((5,),))


def test_index_counts_match_residue_counts():
    g = MultiGraph.from_pairs(3, [(0, 0), (0, 1), (1, 2), (1, 2)])
    for spec in WIDE_GROUPS:
        by_index = nz_flow_index_counts(g, spec)
        by_values = nz_flow_boundary_counts(g, spec)
        assert len(by_index) == len(by_values)
        for key, count in by_index.items():
            assert by_values[tuple(spec.element_at(i) for i in key)] == count
        with pytest.raises(TypeError):
            by_index[(0, 0, 0)] = 1  # the cached histogram is shared read-only


# ---------------------------------------------------------------------------
# Counting.


def test_count_flows_examples():
    assert count_flows(triangle(), BFunction.zero(Z3, 3)) == 3
    assert count_flows(single_edge(), BFunction(Z2, ((1,), (0,)))) == 0
    assert count_flows(k4(), BFunction.zero(Z2, 4)) == 8


def test_count_nz_examples():
    assert count_nz_flows_bruteforce(single_loop(), BFunction.zero(Z3, 1)) == 2
    assert count_nz_flows_bruteforce(single_edge(), BFunction.zero(Z3, 2)) == 0
    assert count_nz_flows_bruteforce(single_edge(), BFunction(Z3, ((1,), (2,)))) == 1


def test_count_nz_rejects_trivial_group():
    with pytest.raises(InputError):
        count_nz_flows_bruteforce(single_loop(), BFunction.zero(parse_group("Z1"), 1))


def test_budget_guard():
    g = MultiGraph.from_pairs(2, [(0, 1)] * 8)
    with pytest.raises(BudgetError):
        count_nz_flows_bruteforce(g, BFunction.zero(Z4, 2), budget=100)


@settings(max_examples=40, deadline=None)
@given(multigraphs(max_vertices=4, max_edges=5), st.data())
def test_count_flows_matches_bruteforce(g, data):
    spec = data.draw(st.sampled_from(SMALL_GROUPS))
    for b in enumerate_zero_sum(g, spec):
        assert count_flows(g, b) == count_flows_bruteforce(g, b)
        break  # the zero function is representative and cheap
    b = BFunction.zero(spec, g.vertex_count)
    assert count_flows(g, b) == count_flows_bruteforce(g, b)


def test_count_flows_matches_bruteforce_exhaustive_small():
    for g in (triangle(), single_loop(), single_edge(), k4()):
        for spec in SMALL_GROUPS:
            for b in enumerate_zero_sum(g, spec):
                assert count_flows(g, b) == count_flows_bruteforce(g, b)


@settings(max_examples=30, deadline=None)
@given(multigraphs(max_vertices=4, max_edges=5), st.data())
def test_orientation_invariance(g, data):
    spec = data.draw(st.sampled_from((Z2, Z3, parse_group("Z5"))))
    base = nz_flow_boundary_counts(g, spec)
    for edge in g.edges:
        assert nz_flow_boundary_counts(reverse_edge(g, edge.id), spec) == base


def test_histogram_matches_per_b_counts():
    for g in (triangle(), k4(), MultiGraph.from_pairs(3, [(0, 0), (0, 1), (1, 2), (1, 2)])):
        for spec in SMALL_GROUPS:
            hist = nz_flow_boundary_counts(g, spec)
            assert sum(hist.values()) == (spec.order - 1) ** g.edge_count
            for b in enumerate_zero_sum(g, spec):
                assert hist.get(b.values, 0) == count_nz_flows_bruteforce(g, b)


# A loop and an antiparallel pair; two components, one with a loop; a
# parallel pair beside an isolated vertex.
DEFINITION_GRAPHS = (
    MultiGraph.from_pairs(3, [(0, 0), (0, 1), (1, 0), (1, 2)]),
    MultiGraph.from_pairs(5, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 3), (3, 3)]),
    MultiGraph.from_pairs(4, [(0, 1), (0, 1), (1, 2)]),
)


@pytest.mark.parametrize("g", DEFINITION_GRAPHS)
@pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "Z2xZ2", "Z5"])
def test_histogram_matches_definition(g, name):
    # Tally the boundary of every edge function, independently of the
    # cached histogram that the oracles read.
    spec = parse_group(name)
    every: Counter = Counter()
    nowhere_zero: Counter = Counter()
    for values in itertools.product(spec.elements(), repeat=g.edge_count):
        key = boundary(g, EdgeFunction(spec, values)).values
        every[key] += 1
        if spec.zero not in values:
            nowhere_zero[key] += 1
    assert nz_flow_boundary_counts(g, spec) == dict(nowhere_zero)
    for b in all_vertex_functions(spec, g.vertex_count):
        assert count_flows_bruteforce(g, b) == every[b.values]


def test_nz_flows_on_a_long_cycle():
    assert count_nz_flows_bruteforce(cycle(1001), BFunction.zero(Z2, 1001)) == 1


# ---------------------------------------------------------------------------
# The orientation walk.

WALK_GROUPS = tuple(parse_group(name) for name in ("Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z2xZ3"))


def test_orientation_walk_matches_reversed_copies():
    graphs = list(all_multigraphs(3, 5))
    assert len(graphs) > 500
    for g in graphs:
        for spec in WALK_GROUPS:
            hist, changed = nz_orientation_walk(g, spec)
            assert hist == nz_flow_index_counts(g, spec)
            assert changed == reversals_changing_histogram(g, spec) == ()


@pytest.mark.usefixtures("wrong_z4_negation")
def test_orientation_walk_sees_a_reversal_that_matters(monkeypatch):
    # Z3 steps each edge both ways and finds them equal, so it takes two
    # steps per edge; over the wrong Z4 table the two steps differ at every
    # edge, and each reversed tally runs on to the end.
    steps = [0]
    real = flows._tally_step

    def counting(*args):
        steps[0] += 1
        return real(*args)

    monkeypatch.setattr(flows, "_tally_step", counting)
    for g in (triangle(), k4(), MultiGraph.from_pairs(3, [(0, 0), (0, 1), (1, 0), (1, 2)])):
        r = sum(1 for edge in g.edges if not edge.is_loop)
        for spec, extra in ((Z3, 0), (Z4, r * (r - 1) // 2)):
            steps[0] = 0
            hist, changed = nz_orientation_walk(g, spec)
            assert steps[0] == 2 * r + extra
            assert hist == nz_flow_index_counts(g, spec)
            assert changed == reversals_changing_histogram(g, spec)
            assert bool(changed) == (spec == Z4)


@pytest.mark.usefixtures("wrong_z4_negation")
def test_orientation_walk_matches_reversed_copies_under_a_wrong_negation():
    for g in all_multigraphs(3, 4):
        hist, changed = nz_orientation_walk(g, Z4)
        assert hist == nz_flow_index_counts(g, Z4)
        assert changed == reversals_changing_histogram(g, Z4)


def test_orientation_walk_guards_before_tallying():
    g = MultiGraph.from_pairs(2, [(0, 1)] * 4)
    with pytest.raises(BudgetError, match="enumeration of 81 edge functions exceeds budget 80"):
        nz_orientation_walk(g, Z4, budget=80)
    with pytest.raises(InputError, match="order >= 2"):
        nz_orientation_walk(g, parse_group("Z1"))


# ---------------------------------------------------------------------------
# Decomposition identities.


@pytest.mark.parametrize(
    "graph, spec, expected",
    [
        (triangle(), Z2, (1, 8, True)),
        (single_edge(), Z3, (2, 3, True)),
        (single_loop(), Z4, (3, 4, True)),
    ],
)
def test_decomposition_examples(graph, spec, expected):
    assert decomposition_check(graph, spec) == expected


@settings(max_examples=30, deadline=None)
@given(multigraphs(max_vertices=4, max_edges=5), st.data())
def test_decomposition_property(g, data):
    spec = data.draw(st.sampled_from(SMALL_GROUPS))
    total_nz, total_all, ok = decomposition_check(g, spec)
    assert ok
    assert total_nz == (spec.order - 1) ** g.edge_count
    assert total_all == spec.order**g.edge_count
