"""Assignings, the two polynomial algorithms, and their agreement."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowpoly
from flowpoly import abelian, assigning, flows, graphs
from flowpoly.abelian import parse_group
from flowpoly.assigning import (
    EdgeOrder,
    b_compatible_bonds,
    broken_bonds,
    compare_coefficients,
    compat_signature,
    induced_assigning,
    is_A_connected,
    poly_nbb,
    poly_subset_expansion,
)
from flowpoly.catalog import complete
from flowpoly.errors import BudgetError, IncompatibleError, InputError
from flowpoly.flows import (
    BFunction,
    count_nz_flows_bruteforce,
    enumerate_zero_sum,
    is_b_compatible,
)
from flowpoly.graphs import (
    MultiGraph,
    bonds,
    components,
    cycle_rank,
    delete_edges,
    lambda_family,
)
from flowpoly.polynomial import IntPolynomial

from conftest import (
    SMALL_GROUPS,
    WIDE_GROUPS,
    k4,
    multigraphs,
    single_edge,
    single_loop,
    triangle,
)

Z2 = parse_group("Z2")
Z3 = parse_group("Z3")
Z2XZ2 = parse_group("Z2xZ2")

K_MINUS_1 = IntPolynomial((-1, 1))


# ---------------------------------------------------------------------------
# Induced assignings.


def test_zero_function_induces_zero_assigning():
    for g in (triangle(), k4(), single_edge()):
        alpha = induced_assigning(g, BFunction.zero(Z3, g.vertex_count))
        assert all(bit == 0 for _, bit in alpha.entries)


def test_induced_assigning_single_edge():
    alpha = induced_assigning(single_edge(), BFunction(Z2, ((1,), (1,))))
    assert alpha.as_dict() == {(0,): 1, (1,): 1}


def test_induced_assigning_triangle_all_ones():
    alpha = induced_assigning(triangle(), BFunction(Z3, ((1,), (1,), (1,))))
    assert set(alpha.as_dict().values()) == {1}
    assert len(alpha.entries) == 6


def test_pointwise_le():
    g = triangle()
    zero = induced_assigning(g, BFunction.zero(Z3, 3))
    ones = induced_assigning(g, BFunction(Z3, ((1,), (1,), (1,))))
    assert zero.pointwise_le(ones)
    assert not ones.pointwise_le(zero)


# ---------------------------------------------------------------------------
# Subset expansion.


def test_subset_expansion_triangle():
    assert poly_subset_expansion(triangle(), BFunction.zero(Z3, 3)) == K_MINUS_1


def test_subset_expansion_bridge_annihilates():
    assert poly_subset_expansion(single_edge(), BFunction.zero(Z2, 2)).is_zero


def test_subset_expansion_nonzero_pair():
    poly = poly_subset_expansion(single_edge(), BFunction(Z2, ((1,), (1,))))
    assert poly == IntPolynomial.constant(1)


def test_subset_expansion_rejects_incompatible():
    with pytest.raises(IncompatibleError) as exc:
        poly_subset_expansion(single_edge(), BFunction(Z2, ((1,), (0,))))
    assert "component" in str(exc.value)


def test_subset_expansion_edge_guard():
    g = MultiGraph.from_pairs(2, [(0, 1)] * 5)
    with pytest.raises(BudgetError):
        poly_subset_expansion(g, BFunction.zero(Z2, 2), max_edges=4)


def _literal_subsets(g: MultiGraph) -> list[tuple[MultiGraph, int, int]]:
    """(G - S, (-1)^|S|, m(G - S)) for every edge subset S, built one by one."""
    out = []
    for mask in range(1 << g.edge_count):
        removed = [e.id for i, e in enumerate(g.edges) if mask >> i & 1]
        rest = delete_edges(g, removed)
        out.append((rest, (-1) ** len(removed), cycle_rank(rest)))
    return out


def _expansion_by_definition(subsets, top: int, b: BFunction) -> IntPolynomial:
    """The paper's sum of (-1)^|S| k^m(G - S) over the b-compatible G - S."""
    coeffs = [0] * (top + 1)
    for rest, sign, rank in subsets:
        if is_b_compatible(rest, b):
            coeffs[rank] += sign
    return IntPolynomial(tuple(coeffs))


def test_subset_expansion_matches_literal_formula():
    rng = random.Random(7)
    order_rng = random.Random(8)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = rng.randint(0, 8)
        g = MultiGraph.from_pairs(
            n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
        )
        order = EdgeOrder.shuffled(g, order_rng)
        subsets = _literal_subsets(g)
        for spec in (Z2, Z2XZ2):
            for b in enumerate_zero_sum(g, spec):
                expected = _expansion_by_definition(subsets, cycle_rank(g), b)
                assert poly_subset_expansion(g, b) == expected
                assert poly_nbb(g, b, order) == expected


def _random_compatible_b(g: MultiGraph, spec, rng: random.Random) -> BFunction:
    """Random values, then each component's least vertex balances its sum."""
    values = [[rng.randrange(q) for q in spec.cyclic_orders] for _ in range(g.vertex_count)]
    for block in components(g):
        anchor, *rest = sorted(block)
        for i, q in enumerate(spec.cyclic_orders):
            values[anchor][i] = -sum(values[v][i] for v in rest) % q
    return BFunction(spec, tuple(tuple(v) for v in values))


def test_subset_table_matches_definition():
    # The sizes poly_small draws: n <= 7, m <= 10, loops and parallel edges.
    rng = random.Random(2024)
    seen_loop = seen_parallel = False
    for _ in range(60):
        n = rng.randint(1, 7)
        m = rng.randint(0, 10)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
        seen_loop |= any(t == h for t, h in pairs)
        seen_parallel |= len({frozenset(p) for p in pairs}) < m
        g = MultiGraph.from_pairs(n, pairs)
        table = assigning._structure(g)
        assert len(table.partition_id) == 1 << m
        subsets = _literal_subsets(g)
        first_seen: list[int] = []
        for mask, pid in enumerate(table.partition_id):
            if pid not in first_seen:
                assert pid == len(first_seen)
                first_seen.append(pid)
            expected = tuple(tuple(sorted(block)) for block in components(subsets[mask][0]))
            assert table.partitions[pid] == expected
        assert len(first_seen) == len(table.partitions)

        order = EdgeOrder.shuffled(g, rng)
        for spec in WIDE_GROUPS:
            b = _random_compatible_b(g, spec, rng)
            expected = _expansion_by_definition(subsets, cycle_rank(g), b)
            assert poly_subset_expansion(g, b) == expected
            assert poly_nbb(g, b, order) == expected
            if (spec.order - 1) ** m <= 10**5:
                assert expected.eval(spec.order) == count_nz_flows_bruteforce(g, b)
    assert seen_loop and seen_parallel


# Two 12-edge graphs, beyond the verification harness's 10-edge reach.
W6 = MultiGraph.from_pairs(7, [(i, (i + 1) % 6) for i in range(6)] + [(i, 6) for i in range(6)])
K34 = MultiGraph.from_pairs(7, [(i, 3 + j) for i in range(3) for j in range(4)])


def test_large_wheel_zero_boundary_closed_form():
    b = BFunction.zero(Z3, 7)
    wheel = IntPolynomial((62, -191, 240, -160, 60, -12, 1))  # (k - 2)^6 + (k - 2)
    assert poly_subset_expansion(W6, b) == wheel
    assert poly_nbb(W6, b) == wheel
    assert wheel.eval(3) == count_nz_flows_bruteforce(W6, b)


def test_large_bipartite_zero_boundary_matches_bruteforce():
    b = BFunction.zero(Z3, 7)
    poly = poly_subset_expansion(K34, b)
    assert poly_nbb(K34, b) == poly
    assert poly.eval(3) == count_nz_flows_bruteforce(K34, b) > 0


@pytest.mark.parametrize("g", [W6, K34], ids=["W6", "K3,4"])
@pytest.mark.parametrize(
    "b",
    [
        BFunction(Z3, ((1,), (2,), (0,), (0,), (1,), (2,), (0,))),
        BFunction(Z2XZ2, ((1, 0), (0, 1), (1, 1), (0, 0), (0, 0), (0, 0), (0, 0))),
    ],
    ids=["Z3", "Z2xZ2"],
)
def test_large_nonzero_boundary_algorithms_agree(g, b):
    expected = poly_subset_expansion(g, b)
    rng = random.Random(3)
    orders = [None, EdgeOrder.shuffled(g, rng), EdgeOrder.shuffled(g, rng)]
    for order in orders:
        assert poly_nbb(g, b, order) == expected
    assert expected.eval(b.spec.order) == count_nz_flows_bruteforce(g, b) > 0


# ---------------------------------------------------------------------------
# Bonds and broken bonds relative to b.


def test_b_compatible_bonds_triangle_zero():
    g = triangle()
    assert b_compatible_bonds(g, BFunction.zero(Z2, 3)) == [
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({1, 2}),
    ]


def test_b_compatible_bonds_filtered():
    assert b_compatible_bonds(single_edge(), BFunction(Z2, ((1,), (1,)))) == []
    assert b_compatible_bonds(single_edge(), BFunction.zero(Z2, 2)) == [frozenset({0})]


def test_broken_bonds_triangle():
    got = broken_bonds(triangle(), BFunction.zero(Z2, 3))
    assert got == [frozenset({0}), frozenset({1})]


def test_broken_bonds_bridge_gives_empty_set():
    assert broken_bonds(single_edge(), BFunction.zero(Z2, 2)) == [frozenset()]
    assert broken_bonds(single_edge(), BFunction(Z2, ((1,), (1,)))) == []


@settings(max_examples=50, deadline=None)
@given(multigraphs(max_vertices=5, max_edges=8), st.data())
def test_side_sums_match_definitions(g, data):
    # The side-sum shortcut against the definitions: a bond is compatible
    # when deleting it leaves G compatible, and an assigning bit is the
    # group sum of b over its member.
    spec = data.draw(st.sampled_from(WIDE_GROUPS))
    b = data.draw(st.sampled_from(list(enumerate_zero_sum(g, spec))))
    assert b_compatible_bonds(g, b) == [
        bond for bond in bonds(g) if is_b_compatible(delete_edges(g, bond), b)
    ]
    for member, bit in induced_assigning(g, b).entries:
        total = spec.zero
        for v in member:
            total = spec.add(total, b.values[v])
        assert bit == (0 if spec.is_zero(total) else 1)


def test_broken_bonds_respect_order():
    g = triangle()
    b = BFunction.zero(Z2, 3)
    reversed_order = EdgeOrder((2, 1, 0))
    assert broken_bonds(g, b, reversed_order) == [frozenset({1}), frozenset({2})]


# ---------------------------------------------------------------------------
# Broken-bond counting.


def test_poly_nbb_triangle():
    poly = poly_nbb(triangle(), BFunction.zero(Z2, 3))
    assert poly == K_MINUS_1
    assert poly.signless_coefficients(1) == (1, 1)


def test_poly_nbb_bridge_is_zero():
    assert poly_nbb(single_edge(), BFunction.zero(Z2, 2)).is_zero


def test_poly_nbb_loop():
    assert poly_nbb(single_loop(), BFunction.zero(Z2, 1)) == K_MINUS_1


def test_poly_nbb_order_validation():
    with pytest.raises(InputError):
        poly_nbb(triangle(), BFunction.zero(Z2, 3), EdgeOrder((0, 1)))


@settings(max_examples=50, deadline=None)
@given(multigraphs(max_vertices=4, max_edges=6), st.data())
def test_algorithm_equivalence(g, data):
    spec = data.draw(st.sampled_from(WIDE_GROUPS))
    b = data.draw(st.sampled_from([b for b in enumerate_zero_sum(g, spec)]))
    expected = poly_subset_expansion(g, b)
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    for _ in range(3):
        order = EdgeOrder.shuffled(g, rng)
        assert poly_nbb(g, b, order) == expected


@settings(max_examples=50, deadline=None)
@given(multigraphs(max_vertices=4, max_edges=5), st.data())
def test_oracle_equivalence(g, data):
    spec = data.draw(st.sampled_from(WIDE_GROUPS))
    b = data.draw(st.sampled_from([b for b in enumerate_zero_sum(g, spec)]))
    assert poly_subset_expansion(g, b).eval(spec.order) == count_nz_flows_bruteforce(g, b)


def test_same_assigning_same_polynomial_across_groups():
    # Boundary functions inducing equal assignings produce the same
    # polynomial, even across groups of different orders.
    for g in (triangle(), k4(), MultiGraph.from_pairs(3, [(0, 1), (0, 1), (1, 2), (1, 2)])):
        by_alpha = {}
        for spec in SMALL_GROUPS:
            for b in enumerate_zero_sum(g, spec):
                alpha = induced_assigning(g, b)
                poly = poly_subset_expansion(g, b)
                assert by_alpha.setdefault(alpha, poly) == poly


def test_signature_groups_boundary_functions():
    g = triangle()
    by_sigma = {}
    for b in enumerate_zero_sum(g, Z3):
        by_sigma.setdefault(compat_signature(g, b), []).append(b)
    for sigma, members in by_sigma.items():
        polys = {poly_subset_expansion(g, b) for b in members}
        assert len(polys) == 1


# ---------------------------------------------------------------------------
# Structural lemmas, literal subset-pair form at small scale.


@settings(max_examples=25, deadline=None)
@given(multigraphs(max_vertices=3, max_edges=4), st.data())
def test_compatibility_inherited_by_subsets(g, data):
    import itertools

    from flowpoly.flows import is_b_compatible
    from flowpoly.graphs import delete_edges

    spec = data.draw(st.sampled_from(SMALL_GROUPS))
    ids = list(g.edge_ids)
    for b in enumerate_zero_sum(g, spec):
        for r in range(len(ids) + 1):
            for big in itertools.combinations(ids, r):
                if not is_b_compatible(delete_edges(g, big), b):
                    continue
                for q in range(r + 1):
                    for small in itertools.combinations(big, q):
                        assert is_b_compatible(delete_edges(g, small), b)


@settings(max_examples=25, deadline=None)
@given(multigraphs(max_vertices=3, max_edges=4), st.data())
def test_broken_bond_pairing_literal(g, data):
    import itertools

    from flowpoly.flows import is_b_compatible
    from flowpoly.graphs import delete_edges

    spec = data.draw(st.sampled_from(SMALL_GROUPS))
    order = EdgeOrder.default(g)
    rank = order.rank_map()
    for b in enumerate_zero_sum(g, spec):
        for bond in b_compatible_bonds(g, b):
            greatest = max(bond, key=rank.__getitem__)
            base = bond - {greatest}
            others = [e for e in g.edge_ids if e not in bond]
            for r in range(len(others) + 1):
                for extra in itertools.combinations(others, r):
                    subset = base | set(extra)
                    if is_b_compatible(delete_edges(g, subset), b):
                        assert is_b_compatible(
                            delete_edges(g, subset | {greatest}), b
                        )


# ---------------------------------------------------------------------------
# Coefficient comparison.


def test_compare_zero_versus_anything():
    g = triangle()
    report = compare_coefficients(
        g, BFunction.zero(Z3, 3), BFunction(Z3, ((1,), (1,), (1,)))
    )
    assert report.pointwise_le
    assert report.signless_first == (1, 1)
    assert report.signless_second == (1, 3)
    assert report.coefficientwise_le
    assert report.consistent


def test_compare_equal_functions():
    g = k4()
    b = BFunction.zero(Z2, 4)
    report = compare_coefficients(g, b, b)
    assert report.signless_first == report.signless_second == (1, 6, 11, 6)


def test_compare_across_groups():
    g = triangle()
    report = compare_coefficients(
        g, BFunction.zero(parse_group("Z2xZ2"), 3), BFunction(Z3, ((1,), (2,), (0,)))
    )
    assert report.consistent


def test_compare_rejects_incompatible():
    with pytest.raises(IncompatibleError):
        compare_coefficients(
            single_edge(), BFunction(Z2, ((1,), (0,))), BFunction.zero(Z2, 2)
        )


# ---------------------------------------------------------------------------
# Group connectivity.


def test_bridge_graph_never_connected():
    ok, witness = is_A_connected(single_edge(), Z3)
    assert not ok
    assert witness is not None and witness.is_zero


def test_loop_is_z2_connected():
    assert is_A_connected(single_loop(), Z2) == (True, None)


def test_triangle_not_z2_connected():
    ok, witness = is_A_connected(triangle(), Z2)
    assert not ok
    assert witness is not None
    assert count_nz_flows_bruteforce(triangle(), witness) == 0


def test_k4_connectivity_over_small_groups():
    # No nowhere-zero flow exists over order 2, so K4 cannot be Z2-connected;
    # over order >= 6 the leading-coefficient argument forces connectivity.
    ok, _ = is_A_connected(k4(), Z2)
    assert not ok
    ok, _ = is_A_connected(k4(), parse_group("Z6"))
    assert ok


# ---------------------------------------------------------------------------
# Caches.


def test_clear_caches_empties_every_cache():
    caches = (
        abelian.index_tables,
        abelian.residue_strides,
        graphs.components,
        graphs._lambda_family_cached,
        graphs.bond_sides,
        flows._boundary_histogram,
        assigning._structure,
    )
    lambda_family(complete(4))
    bonds(complete(4))
    abelian.index_tables(Z3)
    b = BFunction.zero(Z3, 3)
    compat_signature(triangle(), b)
    count_nz_flows_bruteforce(triangle(), b)
    assert all(cache.cache_info().currsize > 0 for cache in caches)
    flowpoly.clear_caches()
    assert [cache.cache_info().currsize for cache in caches] == [0] * len(caches)
