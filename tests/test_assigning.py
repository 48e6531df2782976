"""Assignings, the two polynomial algorithms, and their agreement."""

from __future__ import annotations

import itertools
import math
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
    class_polynomials,
    compare_coefficients,
    compat_signature,
    induced_assigning,
    is_A_connected,
    poly_nbb,
    poly_nbb_orders,
    poly_subset_expansion,
    poly_subset_expansions,
)
from flowpoly.catalog import all_multigraphs, complete, cycle, path
from flowpoly.errors import BudgetError, ConsistencyError, IncompatibleError, InputError
from flowpoly.flows import (
    BFunction,
    block_sums,
    count_flows,
    count_nz_flows_bruteforce,
    enumerate_zero_sum,
    incompatible_component,
    is_b_compatible,
)
from flowpoly.graphs import (
    MultiGraph,
    bond_sides,
    bonds,
    component_count,
    components,
    cycle_rank,
    delete_edges,
    induced_subgraph,
    lambda_family,
    side_cuts,
)
from flowpoly.polynomial import IntPolynomial

from conftest import (
    SMALL_GROUPS,
    WIDE_GROUPS,
    k4,
    multigraphs,
    petersen,
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
        assert induced_assigning(g, BFunction.zero(Z3, g.vertex_count)) == 0


def test_induced_assigning_single_edge():
    g = single_edge()
    alpha = induced_assigning(g, BFunction(Z2, ((1,), (1,))))
    assert [sorted(member) for member in lambda_family(g)] == [[0], [1]]
    assert alpha == 0b11


def test_induced_assigning_triangle_all_ones():
    g = triangle()
    alpha = induced_assigning(g, BFunction(Z3, ((1,), (1,), (1,))))
    assert len(lambda_family(g)) == 6
    assert alpha == (1 << 6) - 1


def test_pointwise_le():
    g = triangle()
    zero = induced_assigning(g, BFunction.zero(Z3, 3))
    ones = induced_assigning(g, BFunction(Z3, ((1,), (1,), (1,))))
    assert not zero & ~ones
    assert ones & ~zero


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


def test_plan_states_guard_both_routes():
    # Both routes count the states they build, not the 2^28 edge subsets.
    g = complete(8)
    b = BFunction.zero(Z3, 8)
    with pytest.raises(BudgetError, match="plan states"):
        poly_subset_expansion(g, b, budget=1000)
    with pytest.raises(BudgetError, match="plan states"):
        poly_nbb(g, b, budget=1000)
    assert poly_subset_expansion(g, b) == poly_nbb(g, b)


@pytest.mark.parametrize("route", [poly_subset_expansion, poly_nbb], ids=["subset", "nbb"])
def test_block_labels_must_fit_one_character(monkeypatch, route):
    # A block's label is 1 + root * q + its b-sum, at most n * q.  543
    # vertices over Z2048 fit below sys.maxunicode; 544 do not, and the
    # route stops before it builds any group table.
    class TableBuilt(Exception):
        pass

    def no_tables(spec):
        raise TableBuilt

    monkeypatch.setattr(assigning, "index_tables", no_tables)
    monkeypatch.setattr(flows, "index_tables", no_tables)
    spec = parse_group("Z2048")
    with pytest.raises(TableBuilt):
        route(path(543), BFunction.zero(spec, 543))
    with pytest.raises(BudgetError, match="block labels"):
        route(path(544), BFunction.zero(spec, 544))


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
        assert len(table.holders) == len(table.blocks)
        subsets = _literal_subsets(g)
        first_seen: list[tuple[int, ...]] = []
        for mask, (rest, _, _) in enumerate(subsets):
            expected = sorted(tuple(sorted(block)) for block in components(rest))
            held = [block for block, masks in zip(table.blocks, table.holders) if masks >> mask & 1]
            assert sorted(held) == expected, (g, mask)
            first_seen += [block for block in expected if block not in first_seen]
        # Every block listed once, in the order the masks first hold it.
        assert list(table.blocks) == first_seen
        assert all(masks >> (1 << m) == 0 for masks in table.holders)

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
# The edge program behind poly_subset_expansion, on shapes it treats apart.

# An isolated vertex (4), a vertex with only loops (3), a doubled edge as its
# own component (5-6) and a triangle with a parallel edge and a loop.
SCATTERED = MultiGraph.from_pairs(
    7, [(5, 6), (3, 3), (0, 1), (2, 0), (3, 3), (1, 2), (6, 5), (1, 0), (2, 2)]
)
ONLY_LOOPS = MultiGraph.from_pairs(3, [(1, 1), (0, 0), (1, 1)])
# K2,5 with vertex 0 on the 2 side and the 5 side listed out of label order.
K25 = MultiGraph.from_pairs(7, [(v, a) for v in (4, 1, 5, 3, 2) for a in (6, 0)])
# K5: under any vertex order all five vertices are open at once, while the
# last one's edges are decided.
K5 = complete(5)
# Runs of parallel edges, decided one edge at a time.
PARALLEL = MultiGraph.from_pairs(4, [(0, 1)] * 4 + [(1, 2)] * 3 + [(2, 0), (2, 3), (3, 2)])
# Mostly vertices that never close: 3 and 7 with only loops, 25 isolated.
SPARSE = MultiGraph.from_pairs(30, [(0, 1), (1, 2), (2, 0), (3, 3), (7, 7), (7, 7), (2, 2)])


@pytest.mark.parametrize(
    "g",
    [SCATTERED, ONLY_LOOPS, K25, K5, PARALLEL, SPARSE],
    ids=["scattered", "only-loops", "K2,5", "K5", "parallel", "sparse"],
)
def test_subset_program_matches_definition(g):
    subsets = _literal_subsets(g)
    rng = random.Random(5)
    for spec in WIDE_GROUPS:
        for b in [BFunction.zero(spec, g.vertex_count)] + [
            _random_compatible_b(g, spec, rng) for _ in range(4)
        ]:
            expected = _expansion_by_definition(subsets, cycle_rank(g), b)
            assert poly_subset_expansion(g, b) == expected


def test_subset_expansion_ignores_isolated_vertices():
    # Padding a triangle with two loops on a vertex of its own by 1,000
    # isolated vertices, which carry b = 0, leaves every polynomial alone.
    pairs = [(0, 1), (1, 2), (2, 0)]
    small = MultiGraph.from_pairs(4, pairs + [(3, 3)] * 2)
    large = MultiGraph.from_pairs(1004, pairs + [(500, 500)] * 2)
    for spec in (Z3, Z2XZ2):
        for b in enumerate_zero_sum(small, spec):
            values = b.values[:3] + (spec.zero,) * 497 + b.values[3:] + (spec.zero,) * 503
            assert poly_subset_expansion(large, BFunction(spec, values)) == (
                poly_subset_expansion(small, b)
            )


def test_subset_expansion_unpacks_only_the_digits_it_keeps(monkeypatch):
    # The packed total is shifted down by the closed vertices before it is
    # unpacked, so the vertices that never close cost no digits.
    real = assigning._unpack
    lengths = []

    def recording(packed, w):
        digits = real(packed, w)
        lengths.append(len(digits))
        return digits

    monkeypatch.setattr(assigning, "_unpack", recording)
    g = MultiGraph.from_pairs(1003, [(0, 1), (1, 2), (2, 0)])
    b = BFunction(Z3, ((1,), (1,), (1,)) + ((0,),) * 1000)
    assert poly_subset_expansion(g, b) == IntPolynomial((-3, 1))
    assert poly_subset_expansion(g, BFunction.zero(Z3, 1003)) == K_MINUS_1
    assert lengths and max(lengths) <= cycle_rank(g) + 1


def test_subset_expansion_ignores_labels_and_edge_order():
    # The program picks its own vertex order, so relabelling the vertices and
    # permuting the edge list must give the same polynomial.
    rng = random.Random(11)
    wheel = MultiGraph.from_pairs(
        9, [(i, (i + 1) % 8) for i in range(8)] + [(i, 8) for i in range(8)]
    )
    graphs_ = [wheel, SCATTERED, K25]
    for _ in range(30):
        n = rng.randint(1, 7)
        graphs_.append(
            MultiGraph.from_pairs(
                n, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 10))]
            )
        )
    for g in graphs_:
        spec = rng.choice(WIDE_GROUPS)
        b = _random_compatible_b(g, spec, rng)
        expected = poly_subset_expansion(g, b)
        for _ in range(3):
            label = list(range(g.vertex_count))
            rng.shuffle(label)
            pairs = [(label[t], label[h]) for t, h in g.pairs()]
            rng.shuffle(pairs)
            values = [None] * g.vertex_count
            for v, value in enumerate(b.values):
                values[label[v]] = value
            moved = MultiGraph.from_pairs(g.vertex_count, pairs)
            assert poly_subset_expansion(moved, BFunction(spec, tuple(values))) == expected


def test_w12_zero_boundary_closed_form():
    # 24 edges: 2^24 subsets, but few open vertices at a time.
    w12 = MultiGraph.from_pairs(
        13, [(i, (i + 1) % 12) for i in range(12)] + [(i, 12) for i in range(12)]
    )
    shifted = [math.comb(12, i) * (-2) ** (12 - i) for i in range(13)]  # (k - 2)^12
    shifted[0] += -2
    shifted[1] += 1
    closed_form = IntPolynomial(tuple(shifted))
    assert poly_subset_expansion(w12, BFunction.zero(Z3, 13)) == closed_form
    assert poly_nbb(w12, BFunction.zero(Z3, 13)) == closed_form


# ---------------------------------------------------------------------------
# Closed forms, at sizes the catalogs never reach.

CLOSED_FORM_GROUPS = tuple(parse_group(name) for name in ("Z5", "Z2xZ3", "Z3xZ3"))


def _cycle_with_partial_sums(n: int, spec, rng: random.Random) -> BFunction:
    """A zero-sum b on C_n whose partial sums take few distinct values."""
    pool = [spec.element_at(i) for i in rng.sample(range(spec.order), rng.randint(1, 3))]
    sums = [spec.zero] + [rng.choice(pool) for _ in range(n - 1)] + [spec.zero]
    values = [spec.add(sums[v], spec.negate(sums[v - 1])) for v in range(1, n)]
    return BFunction(spec, tuple([spec.negate(sums[n - 1])] + values))


def _distinct_partial_sums(b: BFunction) -> int:
    spec = b.spec
    total, seen = spec.zero, {spec.zero}
    for value in b.values:
        total = spec.add(total, value)
        seen.add(total)
    return len(seen)


@pytest.mark.parametrize("spec", CLOSED_FORM_GROUPS, ids=str)
def test_cycles_count_k_minus_the_distinct_partial_sums(spec):
    # On C_n an (A, b)-flow is f_0 shifted by the partial sums of b, and it
    # is nowhere zero unless f_0 cancels one of them.
    rng = random.Random(f"cycles {spec}")
    for n in range(1, 41):
        g = cycle(n)
        b = _cycle_with_partial_sums(n, spec, rng)
        expected = IntPolynomial((-_distinct_partial_sums(b), 1))
        assert poly_subset_expansion(g, b) == expected
        assert poly_nbb(g, b) == expected


def test_long_cycle_labels_pass_the_surrogate_block():
    # C250 over Z256 labels its blocks up to 250 * 256, past U+D800-U+DFFF.
    spec = parse_group("Z256")
    b = _cycle_with_partial_sums(250, spec, random.Random(5))
    d = _distinct_partial_sums(b)
    assert d > 1
    assert poly_subset_expansion(cycle(250), b) == IntPolynomial((-d, 1))


@pytest.mark.parametrize("spec", CLOSED_FORM_GROUPS, ids=str)
def test_dipoles_match_their_closed_form(spec):
    # m parallel edges between two vertices, with b = (beta, -beta).
    beta = spec.element_at(1)
    for m in range(1, 151):
        g = MultiGraph.from_pairs(2, [(0, 1) if i % 3 else (1, 0) for i in range(m)])
        for value in (spec.zero, beta):
            b = BFunction(spec, (value, spec.negate(value)))
            polys = (poly_subset_expansion(g, b), poly_nbb(g, b))
            for k in (2, 3, 7, 11, 1000):
                if value == spec.zero:
                    expected = ((k - 1) ** m + (-1) ** m * (k - 1)) // k
                else:
                    expected = ((k - 1) ** m - (-1) ** m) // k
                assert [poly.eval(k) for poly in polys] == [expected, expected]


@pytest.mark.parametrize("spec", CLOSED_FORM_GROUPS, ids=str)
def test_wheels_at_zero_boundary_match_their_closed_form(spec):
    for n in range(3, 31):
        wheel = MultiGraph.from_pairs(
            n + 1, [(i, (i + 1) % n) for i in range(n)] + [(i, n) for i in range(n)]
        )
        # (k - 2)^n + (-1)^n (k - 2)
        coefficients = [math.comb(n, i) * (-2) ** (n - i) for i in range(n + 1)]
        coefficients[1] += (-1) ** n
        coefficients[0] -= 2 * (-1) ** n
        expected = IntPolynomial(tuple(coefficients))
        b = BFunction.zero(spec, n + 1)
        assert poly_subset_expansion(wheel, b) == expected
        assert poly_nbb(wheel, b) == expected


# ---------------------------------------------------------------------------
# Several b of one group in one subset-expansion loop.


def test_batch_matches_per_b_calls_on_the_differential_graphs():
    rng = random.Random(31)
    for g in DIFFERENTIAL:
        for spec in WIDE_GROUPS:
            batch = [BFunction.zero(spec, g.vertex_count)]
            batch += [_random_compatible_b(g, spec, rng) for _ in range(3)]
            expected = [poly_subset_expansion(g, b) for b in batch]
            assert poly_subset_expansions(g, batch) == expected, (g, spec)


@pytest.mark.parametrize("loop_bits", [None, 1, 1 << 30], ids=["default", "per-b", "unsplit"])
def test_every_class_of_k5_over_z5_in_one_batch(monkeypatch, loop_bits):
    # 107 classes of 204-bit slots: by default three loops of at most 40,
    # else one loop per b or one loop for all.
    if loop_bits is not None:
        monkeypatch.setattr(assigning, "_LOOP_BITS", loop_bits)
    g = complete(5)
    spec = parse_group("Z5")
    firsts = {}
    for indices, alpha, compatible in assigning.zero_sum_assignings(g, spec):
        assert compatible
        firsts.setdefault(alpha, BFunction.from_indices(spec, indices))
    batch = list(firsts.values())
    assert len(batch) == 107
    polys = poly_subset_expansions(g, batch)
    assert polys == [poly_subset_expansion(g, b) for b in batch]
    assert batch[0] == BFunction.zero(spec, 5)
    assert polys[0] == IntPolynomial((51, -147, 175, -115, 45, -10, 1))  # K5's flow polynomial
    assert len(set(polys)) > 1


def test_batch_holds_a_zero_polynomial_next_to_nonzero_ones():
    # BRIDGED's bridge is compatible exactly when b sums to zero on either
    # triangle, which zeroes the polynomial; the zero one also sits on top.
    spec = parse_group("Z5")
    one, four = spec.element_at(1), spec.element_at(4)
    zero_b = BFunction.zero(spec, 6)
    across = BFunction(spec, (one,) + (spec.zero,) * 2 + (four,) + (spec.zero,) * 2)
    batch = [across, zero_b, across, zero_b]
    polys = poly_subset_expansions(BRIDGED, batch)
    assert [poly.is_zero for poly in polys] == [False, True, False, True]
    assert polys[0] == poly_subset_expansion(BRIDGED, across)
    assert polys[0] == polys[2]


def test_batch_repeats_a_repeated_b():
    g = k4()
    spec = parse_group("Z3")
    b = BFunction(spec, ((1,), (2,), (1,), (2,)))
    zero = BFunction.zero(spec, 4)
    polys = poly_subset_expansions(g, [b, b, zero, b])
    assert polys == [poly_subset_expansion(g, x) for x in (b, b, zero, b)]
    assert polys[0] != polys[2]


def test_empty_batch_returns_no_polynomials():
    assert poly_subset_expansions(k4(), []) == []


def test_batch_rejects_mixed_groups():
    with pytest.raises(InputError, match="mixes"):
        poly_subset_expansions(triangle(), [BFunction.zero(Z3, 3), BFunction.zero(Z2XZ2, 3)])


def test_batch_names_its_first_incompatible_b():
    g = single_edge()
    bad = BFunction(Z3, ((1,), (0,)))
    with pytest.raises(IncompatibleError) as single:
        poly_subset_expansion(g, bad)
    fine = BFunction(Z3, ((1,), (2,)))
    worse = BFunction(Z3, ((2,), (0,)))
    with pytest.raises(IncompatibleError) as batched:
        poly_subset_expansions(g, [fine, BFunction.zero(Z3, 2), bad, worse])
    assert str(batched.value) == str(single.value)


def test_batch_slots_keep_large_coefficients_of_either_sign_apart():
    # Written out for m = 6 edges on n = 4 vertices: digits of w = 8 bits,
    # slots of W = 8 * (6 + 4 + 2) = 96 bits.  Before the final shift a
    # value has degree at most m + n = 10, and every coefficient is at most
    # 2^6 = 64 < 2^7 in size, so the extreme values are every coefficient
    # -64 or every coefficient +64.  Side by side, a negative slot borrows
    # from the one above it, and the balanced digits give that back.
    m, n = 6, 4
    w = m + 2
    slot = w * (m + n + 2)
    assert slot == 96
    low = sum(-(1 << m) << w * i for i in range(m + n + 1))
    assert abs(low) < 1 << slot - 1
    values = [low, -low, low, low, -low, 0, low]
    packed = sum(value << i * slot for i, value in enumerate(values))
    assert list(assigning._unpack(packed, slot)) == values
    assert assigning._unpack(low, w) == (-(1 << m),) * (m + n + 1)
    # The same on real values: dipoles of 40 edges have coefficients up to
    # C(40, 20) > 2^37 in size, of alternating sign, next to each other.
    spec = parse_group("Z5")
    g = MultiGraph.from_pairs(2, [(0, 1)] * 40)
    beta = spec.element_at(2)
    zero_b, moved = BFunction.zero(spec, 2), BFunction(spec, (beta, spec.negate(beta)))
    signed = [math.comb(40, i) * (-1) ** (40 - i) for i in range(41)]
    at_zero, off_zero = list(signed), list(signed)
    at_zero[0] -= 1  # ((k - 1)^40 + (k - 1)) / k
    at_zero[1] += 1
    off_zero[0] -= 1  # ((k - 1)^40 - 1) / k
    assert at_zero[0] == off_zero[0] == 0
    fixed, shifted = IntPolynomial(tuple(at_zero[1:])), IntPolynomial(tuple(off_zero[1:]))
    batch = [zero_b, moved, moved, zero_b, moved]
    expected = [fixed, shifted, shifted, fixed, shifted]
    assert poly_subset_expansions(g, batch) == expected


# ---------------------------------------------------------------------------
# The edge program behind poly_nbb, against the count it makes.


def _nbb_by_definition(subsets, g: MultiGraph, b: BFunction, order: EdgeOrder) -> list[int]:
    """a_i tallied literally: the i-edge S with G - S compatible and no
    broken bond inside S, for every mask S."""
    broken = broken_bonds(g, b, order)
    counts = [0] * (g.edge_count + 1)
    for rest, _, _ in subsets:
        removed = frozenset(g.edge_ids) - frozenset(rest.edge_ids)
        if is_b_compatible(rest, b) and not any(bond <= removed for bond in broken):
            counts[len(removed)] += 1
    return counts


def _check_nbb_counts(g: MultiGraph, b: BFunction, order: EdgeOrder, subsets) -> None:
    top = cycle_rank(g)
    counts = _nbb_by_definition(subsets, g, b, order)
    assert not any(counts[top + 1 :])
    assert poly_nbb(g, b, order).signless_coefficients(top) == tuple(counts[: top + 1])


def test_nbb_counts_match_definition():
    rng = random.Random(909)
    seen_loop = seen_parallel = False
    for _ in range(60):
        n = rng.randint(1, 5)
        m = rng.randint(0, 9)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
        seen_loop |= any(t == h for t, h in pairs)
        seen_parallel |= len({frozenset(p) for p in pairs}) < m
        g = MultiGraph.from_pairs(n, pairs)
        subsets = _literal_subsets(g)
        for spec in WIDE_GROUPS:
            b = _random_compatible_b(g, spec, rng)
            _check_nbb_counts(g, b, EdgeOrder.shuffled(g, rng), subsets)
    assert seen_loop and seen_parallel


# Two triangles joined by a bridge, and by a parallel pair: the pair is a
# 2-edge bond, so b = 0 gives it a 1-edge broken bond.
BRIDGED = MultiGraph.from_pairs(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
PAIR_BOND = MultiGraph.from_pairs(
    6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 3), (3, 0)]
)


@pytest.mark.parametrize(
    "g",
    [BRIDGED, PAIR_BOND, SCATTERED, ONLY_LOOPS, K25],
    ids=["bridge", "pair-bond", "scattered", "only-loops", "K2,5"],
)
def test_nbb_shapes_match_definition(g):
    subsets = _literal_subsets(g)
    rng = random.Random(6)
    for spec in WIDE_GROUPS:
        for b in [BFunction.zero(spec, g.vertex_count)] + [
            _random_compatible_b(g, spec, rng) for _ in range(3)
        ]:
            _check_nbb_counts(g, b, EdgeOrder.shuffled(g, rng), subsets)


def test_nbb_bridge_and_one_edge_broken_bond():
    b = BFunction.zero(Z3, 6)
    # A compatible bridge is a broken bond with no edges: the zero polynomial.
    assert broken_bonds(BRIDGED, b)[0] == frozenset()
    assert poly_nbb(BRIDGED, b).is_zero
    # With nonzero sums on the triangles, the bridge is no compatible bond.
    one_side = BFunction(Z3, ((1,), (0,), (0,), (2,), (0,), (0,)))
    assert poly_nbb(BRIDGED, one_side) == poly_subset_expansion(BRIDGED, one_side)
    assert not poly_nbb(BRIDGED, one_side).is_zero
    assert frozenset({3}) in broken_bonds(PAIR_BOND, b)
    assert poly_nbb(PAIR_BOND, b) == poly_subset_expansion(PAIR_BOND, b)


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
    alpha = induced_assigning(g, b)
    assert alpha >> len(lambda_family(g)) == 0
    for i, member in enumerate(lambda_family(g)):
        total = spec.zero
        for v in member:
            total = spec.add(total, b.values[v])
        assert alpha >> i & 1 == (0 if spec.is_zero(total) else 1)


def test_broken_bonds_respect_order():
    g = triangle()
    b = BFunction.zero(Z2, 3)
    reversed_order = EdgeOrder((2, 1, 0))
    assert broken_bonds(g, b, reversed_order) == [frozenset({1}), frozenset({2})]


def _relabelled(g: MultiGraph) -> MultiGraph:
    """g with its vertices relabelled and its edges shuffled, from one seed."""
    rng = random.Random(3)
    label = list(range(g.vertex_count))
    rng.shuffle(label)
    pairs = [(label[t], label[h]) for t, h in g.pairs()]
    rng.shuffle(pairs)
    return MultiGraph.from_pairs(g.vertex_count, pairs)


def _prism_relabelled() -> MultiGraph:
    """The prism C10 x K2 with its vertices relabelled and its edges shuffled."""
    pairs = [(i, (i + 1) % 10) for i in range(10)]
    pairs += [(10 + i, 10 + (i + 1) % 10) for i in range(10)]
    pairs += [(i, 10 + i) for i in range(10)]
    return _relabelled(MultiGraph.from_pairs(20, pairs))


def _plan_order(g: MultiGraph) -> EdgeOrder:
    """The non-loop edge ids by their step in the edge plan, then the loops."""
    edge_bit = graphs._edge_plan(g)[0]
    loops = tuple(edge.id for edge in g.edges if edge.is_loop)
    return EdgeOrder(tuple(sorted(edge_bit, key=edge_bit.__getitem__)) + loops)


def test_broken_bonds_default_to_the_edge_ids():
    # poly_nbb counts under the plan's order when given none, but the broken
    # bonds that flowpoly bonds reports stay those of the edge-id order.
    g = _prism_relabelled()
    b = BFunction.zero(Z3, 20)
    default = broken_bonds(g, b, EdgeOrder.default(g))
    assert broken_bonds(g, b) == default
    assert broken_bonds(g, b, _plan_order(g)) != default


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


def _counting_states(monkeypatch) -> list[int]:
    """A list whose last entry takes the states summed by the route running."""
    summed = [0]
    guard = assigning._guard

    def counting(work, budget, what):
        summed[-1] = work
        guard(work, budget, what)

    monkeypatch.setattr(assigning, "_guard", counting)
    return summed


def test_poly_nbb_counts_under_the_plan_order_by_default(monkeypatch):
    # A broken bond stays live in the state from its first step to its last,
    # so the edge-id order of a relabelled graph multiplies the states.
    g = _prism_relabelled()
    b = BFunction.zero(Z3, 20)
    summed = _counting_states(monkeypatch)
    polys = [poly_nbb(g, b)]
    summed.append(0)
    polys.append(poly_nbb(g, b, EdgeOrder.default(g)))
    assert summed == [230, 70965]
    assert polys[0] == polys[1]


def test_subset_expansion_plan_ignores_grid_labels(monkeypatch):
    # The plan picks each next vertex by the vertices it leaves open, not by
    # label, so relabelling the 5 x 5 grid keeps its states few.
    pairs = []
    for v in range(25):
        if v % 5 < 4:
            pairs.append((v, v + 1))
        if v < 20:
            pairs.append((v, v + 5))
    built = MultiGraph.from_pairs(25, pairs)
    b = BFunction.zero(Z3, 25)
    expected = poly_subset_expansion(built, b)
    summed = _counting_states(monkeypatch)
    assert poly_subset_expansion(_relabelled(built), b) == expected
    assert summed == [2448]


def test_poly_nbb_order_validation():
    with pytest.raises(InputError):
        poly_nbb(triangle(), BFunction.zero(Z2, 3), EdgeOrder((0, 1)))


def test_poly_nbb_validates_the_order_before_compatibility():
    incompatible = BFunction(Z2, ((1,), (0,), (0,)))
    with pytest.raises(InputError):
        poly_nbb(triangle(), incompatible, EdgeOrder((0, 1)))
    with pytest.raises(IncompatibleError):
        poly_nbb(triangle(), incompatible, EdgeOrder((2, 0, 1)))


def _counting_loops(monkeypatch) -> list[int]:
    """A list that takes the states summed by each state loop run.  Within
    a loop the sum grows at every step that keeps a state, so a sum that
    does not grow marks the start of the next loop."""
    loops: list[int] = []
    guard = assigning._guard

    def counting(work, budget, what):
        if loops and work > loops[-1]:
            loops[-1] = work
        else:
            loops.append(work)
        guard(work, budget, what)

    monkeypatch.setattr(assigning, "_guard", counting)
    return loops


def test_orders_sharing_a_family_share_one_state_loop(monkeypatch):
    # The plan's own order gives the broken bonds of no order at all, so
    # those three orders run one loop; the edge ids give another family.
    g = _prism_relabelled()
    b = BFunction.zero(Z3, 20)
    plan = _plan_order(g)
    loops = _counting_loops(monkeypatch)
    polys = poly_nbb_orders(g, b, (None, plan, plan), budget=230)
    assert loops == [230]
    assert polys == [poly_nbb(g, b)] * 3
    loops.clear()
    # Each loop counts its own states against the budget.
    polys = poly_nbb_orders(g, b, (None, EdgeOrder.default(g), plan), budget=70965)
    assert loops == [230, 70965]
    assert len(set(polys)) == 1


def test_orders_with_a_compatible_bridge_run_no_state_loop(monkeypatch):
    # b = 0 makes the bridge compatible: its broken bond is empty and lies
    # in every S, whatever the order.
    b = BFunction.zero(Z3, 6)
    orders = (None, EdgeOrder.default(BRIDGED), EdgeOrder.shuffled(BRIDGED, random.Random(2)))
    loops = _counting_loops(monkeypatch)
    polys = poly_nbb_orders(BRIDGED, b, orders)
    assert [poly.is_zero for poly in polys] == [True] * 3
    assert loops == []
    one_side = BFunction(Z3, ((1,), (0,), (0,), (2,), (0,), (0,)))
    assert not any(poly.is_zero for poly in poly_nbb_orders(BRIDGED, one_side, orders))
    assert loops


def test_poly_nbb_orders_validates_every_order_before_compatibility():
    incompatible = BFunction(Z2, ((1,), (0,), (0,)))
    with pytest.raises(InputError):
        poly_nbb_orders(triangle(), incompatible, (None, EdgeOrder((0, 1))))
    with pytest.raises(IncompatibleError):
        poly_nbb_orders(triangle(), incompatible, (None, EdgeOrder((2, 0, 1))))
    assert poly_nbb_orders(triangle(), BFunction.zero(Z2, 3), ()) == []


def _orders_for(g: MultiGraph, rng: random.Random) -> tuple[EdgeOrder | None, ...]:
    """No order, the edge ids, their reverse, two shuffles and a repeat."""
    default = EdgeOrder.default(g)
    shuffled = EdgeOrder.shuffled(g, rng)
    reverse = EdgeOrder(default.sequence[::-1])
    return (None, default, reverse, shuffled, EdgeOrder.shuffled(g, rng), shuffled)


def test_poly_nbb_orders_matches_poly_nbb_over_a_small_catalog():
    rng = random.Random(31)
    for i, g in enumerate(all_multigraphs(3, 5)):
        spec = SMALL_GROUPS[i % len(SMALL_GROUPS)]
        orders = _orders_for(g, rng)
        for b in (BFunction.zero(spec, g.vertex_count), _random_compatible_b(g, spec, rng)):
            expected = [poly_nbb(g, b, order) for order in orders]
            assert poly_nbb_orders(g, b, orders) == expected, (g, b)


def test_poly_nbb_orders_matches_poly_nbb_over_wide_groups():
    rng = random.Random(32)
    for g, b, _ in _differential_cases(79):
        orders = _orders_for(g, rng)
        expected = [poly_nbb(g, b, order) for order in orders]
        assert poly_nbb_orders(g, b, orders) == expected, (g, b)


def test_poly_nbb_reads_no_edge_id_sets(monkeypatch):
    # poly_nbb takes its bonds as plan-bit masks, never through the
    # frozenset layer of bond_sides and broken_bonds.
    g = _prism_relabelled()
    b = _random_compatible_b(g, Z3, random.Random(4))
    expected = poly_subset_expansion(g, b)
    flowpoly.clear_caches()

    def refuse(*args):
        raise AssertionError("the frozenset layer was called")

    monkeypatch.setattr(graphs, "bond_sides", refuse)
    monkeypatch.setattr(assigning, "broken_bonds", refuse)
    assert poly_nbb(g, b) == expected
    assert poly_nbb(g, b, EdgeOrder.shuffled(g, random.Random(5))) == expected


def test_every_bond_reader_shares_one_walk():
    # bonds, the lambda family, the assigning, both bond lists and poly_nbb
    # all read the one cached side walk.
    g = _prism_relabelled()
    b = _random_compatible_b(g, Z3, random.Random(6))
    flowpoly.clear_caches()
    bonds(g)
    lambda_family(g)
    induced_assigning(g, b)
    b_compatible_bonds(g, b)
    broken_bonds(g, b)
    broken_bonds(g, b, EdgeOrder.shuffled(g, random.Random(7)))
    poly_nbb(g, b)
    assert graphs.side_cuts.cache_info().misses == 1


def _seeded_multigraphs(seed: int, count: int) -> list[MultiGraph]:
    """Random multigraphs with n <= 7 and m <= 12; about a third lose an edge
    afterwards, so that their edge ids are sparse."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 7)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 12))]
        g = MultiGraph.from_pairs(n, pairs)
        if pairs and rng.random() < 0.3:
            g = delete_edges(g, [rng.choice(g.edge_ids)])
        out.append(g)
    return out


DIFFERENTIAL = _seeded_multigraphs(1818, 40)


def _differential_cases(seed: int):
    """(g, b, orders) over DIFFERENTIAL and every wide group: b = 0 and one
    random compatible b, under no order, the edge ids, their reverse and a
    shuffle."""
    rng = random.Random(seed)
    for g in DIFFERENTIAL:
        default = EdgeOrder.default(g)
        orders = (None, default, EdgeOrder(default.sequence[::-1]), EdgeOrder.shuffled(g, rng))
        for spec in WIDE_GROUPS:
            for b in (BFunction.zero(spec, g.vertex_count), _random_compatible_b(g, spec, rng)):
                yield g, b, orders


def test_differential_graphs_cover_the_shapes():
    loops = parallel = isolated = split = sparse = False
    for g in DIFFERENTIAL:
        pairs = g.pairs()
        loops |= any(t == h for t, h in pairs)
        parallel |= len({frozenset(p) for p in pairs if p[0] != p[1]}) < len(
            [p for p in pairs if p[0] != p[1]]
        )
        touched = {v for p in pairs for v in p}
        isolated |= len(touched) < g.vertex_count
        split |= sum(1 for comp in components(g) if len(comp) > 1) > 1
        sparse |= g.edge_ids != tuple(range(g.edge_count))
    assert loops and parallel and isolated and split and sparse


def test_poly_nbb_matches_subset_expansion_under_every_order():
    for g, b, orders in _differential_cases(77):
        expected = poly_subset_expansion(g, b)
        for order in orders:
            assert poly_nbb(g, b, order) == expected, (g, b, order)


def test_bond_lists_match_their_definition():
    for g, b, orders in _differential_cases(78):
        compatible = [bond for bond, side in bond_sides(g) if not block_sums(b, [side])[0]]
        assert b_compatible_bonds(g, b) == compatible
        for order in orders:
            rank = (order or EdgeOrder.default(g)).rank_map()
            broken = {bond - {max(bond, key=rank.__getitem__)} for bond in compatible}
            assert broken_bonds(g, b, order) == sorted(broken, key=sorted), (g, b, order)


def _residue_sum(b: BFunction, vertices) -> tuple[int, ...]:
    total = b.spec.zero
    for v in vertices:
        total = b.spec.add(total, b.values[v])
    return total


def test_block_sum_readers_match_residue_arithmetic():
    # Each reader of block_sums against its definition, with the sums taken
    # in residues; b need not be compatible.
    rng = random.Random(79)
    for g in DIFFERENTIAL:
        comps = components(g)
        members = lambda_family(g)
        # The blocks of G - S for every subset mask S, while compat_signature
        # covers the graph.
        splits = (
            [components(rest) for rest, _, _ in _literal_subsets(g)] if g.edge_count <= 10 else ()
        )
        for spec in WIDE_GROUPS:
            elems = list(spec.elements())
            free = BFunction(spec, tuple(rng.choice(elems) for _ in range(g.vertex_count)))
            for b in (free, _random_compatible_b(g, spec, rng)):
                zero = spec.zero
                alpha = induced_assigning(g, b)
                for i, member in enumerate(members):
                    assert alpha >> i & 1 == (_residue_sum(b, member) != zero), (g, b, i)
                sums = [(comp, _residue_sum(b, comp)) for comp in comps]
                offender = next(((comp, s) for comp, s in sums if s != zero), None)
                assert incompatible_component(g, b) == offender, (g, b)
                expected = 0 if offender else spec.order ** cycle_rank(g)
                assert count_flows(g, b) == expected, (g, b)
                if not splits:
                    continue  # compat_signature stops at 10 edges
                compat = compat_signature(g, b)
                assert compat >> len(splits) == 0, (g, b)
                for mask, blocks in enumerate(splits):
                    compatible = all(_residue_sum(b, block) == zero for block in blocks)
                    assert compat >> mask & 1 == compatible, (g, b, mask)


# The wide groups, whose columns add by a byte translate, plus groups with
# q * q > 256, whose columns add by a map: bytes for Z17 and Z4xZ5, tuples
# for Z257.
COLUMN_GROUPS = WIDE_GROUPS + tuple(parse_group(name) for name in ("Z17", "Z4xZ5", "Z257"))

# DIFFERENTIAL plus n = 0, isolated vertices only (no free vertex), loops
# alone, and two components, one of them with a loop.
COLUMN_GRAPHS = DIFFERENTIAL + [
    MultiGraph.from_pairs(0, []),
    MultiGraph.from_pairs(3, []),
    MultiGraph.from_pairs(2, [(0, 0), (1, 1), (1, 1)]),
    MultiGraph.from_pairs(5, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 4)]),
]

COLUMN_ROWS_CHECKED = 200


def _zero_sum_by_definition(g: MultiGraph, spec):
    """The zero-sum b as index tuples, by residue arithmetic: the vertices
    other than each component's largest range over the elements in
    lexicographic order, and each largest vertex takes the negated sum of
    its component's others."""
    pins = {max(comp): comp - {max(comp)} for comp in components(g)}
    free = [v for v in range(g.vertex_count) if v not in pins]
    for combo in itertools.product(list(spec.elements()), repeat=len(free)):
        values = dict(zip(free, combo))
        for pin, others in pins.items():
            total = spec.zero
            for v in others:
                total = spec.add(total, values[v])
            values[pin] = spec.negate(total)
        yield tuple(spec.index_of(values[v]) for v in range(g.vertex_count))


def test_zero_sum_assignings_written_out():
    # The path 0-1-2 and an isolated vertex 3 over Z3: 0 and 1 are free, 2
    # and 3 are pins, and bit i of the assigning is member i of Λ(G).
    g = MultiGraph.from_pairs(4, [(0, 1), (1, 2)])
    assert lambda_family(g) == [{0}, {0, 1}, {1, 2}, {2}]
    expected = [
        ((0, 0, 0, 0), 0b0000, True),
        ((0, 1, 2, 0), 0b1010, True),
        ((0, 2, 1, 0), 0b1010, True),
        ((1, 0, 2, 0), 0b1111, True),
        ((1, 1, 1, 0), 0b1111, True),
        ((1, 2, 0, 0), 0b0101, True),
        ((2, 0, 1, 0), 0b1111, True),
        ((2, 1, 0, 0), 0b0101, True),
        ((2, 2, 2, 0), 0b1111, True),
    ]
    assert list(assigning.zero_sum_assignings(g, Z3)) == expected
    assert [b.indices for b in enumerate_zero_sum(g, Z3)] == [row[0] for row in expected]


@pytest.mark.parametrize("column_bytes", [None, 8])
def test_zero_sum_assignings_match_the_per_b_readers(monkeypatch, column_bytes):
    # At 8 bytes a column chunk holds 8 b over Z2, 3 over Z3, 4 over order 4
    # and one b over larger groups, so the rows checked span many chunks.
    if column_bytes is not None:
        monkeypatch.setattr(flows, "_COLUMN_BYTES", column_bytes)
    for g in COLUMN_GRAPHS:
        for spec in COLUMN_GROUPS:
            # Only the first rows are read, so the budget need not cover all.
            total = spec.order ** (g.vertex_count - component_count(g))
            count = min(total, COLUMN_ROWS_CHECKED)
            reader = assigning.zero_sum_assignings(g, spec, budget=total)
            rows = list(itertools.islice(reader, count + 1))
            assert len(rows) == min(total, count + 1), (g, spec)
            rows = rows[:count]
            bs = list(itertools.islice(enumerate_zero_sum(g, spec, budget=total), count))
            expected = list(itertools.islice(_zero_sum_by_definition(g, spec), count))
            assert [row[0] for row in rows] == [b.indices for b in bs] == expected
            for (indices, alpha, compatible), b in zip(rows, bs):
                assert alpha == induced_assigning(g, b), (g, spec, indices)
                assert compatible is is_b_compatible(g, b) is True, (g, spec, indices)


def test_edge_plan_decides_each_edge_once_and_closes_each_vertex_once():
    for g in DIFFERENTIAL + [petersen()]:
        edge_bit, loops, order, steps = graphs._edge_plan(g)
        ends = {e.id: {e.tail, e.head} for e in g.edges if not e.is_loop}
        assert loops == g.edge_count - len(ends)
        assert set(edge_bit) == set(ends)
        assert sorted(edge_bit.values()) == [1 << r for r in range(len(steps))]
        # The closing order is a permutation of the vertices.  Each step's
        # ends are positions in what remains of it, and the step closes the
        # first k of those.
        assert sorted(order) == list(range(g.vertex_count))
        remaining = list(order)
        decided, closed = [], []
        for x, y, k in steps:
            assert 0 <= x < len(remaining) and 0 <= y < len(remaining)
            decided.append({remaining[x], remaining[y]})
            closed.extend((v, len(decided) - 1) for v in remaining[:k])
            remaining = remaining[k:]
        last = {}
        for edge_id, bit in edge_bit.items():
            r = bit.bit_length() - 1
            assert decided[r] == ends[edge_id]
            for v in ends[edge_id]:
                last[v] = max(last.get(v, r), r)
        assert sorted(closed) == sorted(last.items()), g
        # The vertices that never close come last, by label.
        assert remaining == sorted(set(range(g.vertex_count)) - set(last)), g


# Several components, with isolated and loop-only vertices at the first,
# a middle and the last label, and components whose labels interleave: the
# places where numbering by closing rank could slip.
PADDED = (
    MultiGraph.from_pairs(8, [(1, 2), (2, 3), (3, 1), (2, 1), (4, 4), (6, 5), (5, 6)]),
    MultiGraph.from_pairs(8, [(0, 0), (5, 1), (2, 6), (1, 5), (6, 4), (4, 2), (7, 7)]),
    MultiGraph.from_pairs(9, [(1, 5), (5, 3), (4, 4), (3, 2), (2, 1), (7, 6), (6, 7), (8, 8)]),
    MultiGraph.from_pairs(6, [(0, 0), (1, 2), (4, 5), (2, 3), (3, 1)]),
    MultiGraph.from_pairs(7, [(4, 5), (1, 2), (3, 3), (2, 4), (5, 1), (1, 4), (2, 5)]),
    MultiGraph.from_pairs(7, [(5, 1), (4, 5), (3, 3), (5, 4), (1, 5), (2, 5), (5, 2)]),
)


def test_routes_count_flows_on_padded_graphs():
    rng = random.Random(23)
    for built in PADDED:
        pairs = list(built.pairs())
        rng.shuffle(pairs)
        for g in (built, MultiGraph.from_pairs(built.vertex_count, pairs)):
            for spec in (parse_group("Z2xZ3"), parse_group("Z3xZ3")):
                for b in (BFunction.zero(spec, g.vertex_count), _random_compatible_b(g, spec, rng)):
                    expected = count_nz_flows_bruteforce(g, b)
                    assert poly_subset_expansion(g, b).eval(spec.order) == expected, (g, b)
                    for order in (None, _plan_order(g), EdgeOrder.shuffled(g, rng)):
                        assert poly_nbb(g, b, order).eval(spec.order) == expected, (g, b, order)


def test_side_cuts_match_their_definition():
    for g in DIFFERENTIAL + [petersen()]:
        edge_bit = graphs._edge_plan(g)[0]
        expected = []
        for comp in components(g):
            anchor, others = min(comp), sorted(comp - {min(comp)})
            for r in range(len(others)):
                for taken in itertools.combinations(others, r):
                    side = {anchor, *taken}
                    if all(
                        component_count(induced_subgraph(g, part)) == 1
                        for part in (side, comp - side)
                    ):
                        cut = sum(
                            edge_bit[e.id]
                            for e in g.edges
                            if (e.tail in side) != (e.head in side)
                        )
                        expected.append((sum(1 << v for v in side), cut))
        found = side_cuts(g)
        assert sorted(found) == sorted(expected), g


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


@pytest.mark.parametrize(
    "second, batches",
    [(BFunction(Z3, ((1,), (1,), (1,))), [2]), (BFunction.zero(Z2XZ2, 3), [1, 1])],
    ids=["one-group", "two-groups"],
)
def test_compare_batches_one_group_and_splits_two(monkeypatch, second, batches):
    # poly_subset_expansion runs a batch of one, so the wrapper sees both.
    real = assigning.poly_subset_expansions
    seen = []

    def recording(g, bs, **kwargs):
        seen.append(len(bs))
        return real(g, bs, **kwargs)

    monkeypatch.setattr(assigning, "poly_subset_expansions", recording)
    g = triangle()
    first = BFunction.zero(Z3, 3)
    top = cycle_rank(g)
    report = compare_coefficients(g, first, second)
    assert seen == batches
    monkeypatch.undo()
    assert report.signless_first == poly_subset_expansion(g, first).signless_coefficients(top)
    assert report.signless_second == poly_subset_expansion(g, second).signless_coefficients(top)


def test_compare_honours_the_budget():
    # Five parallel edges: the subset expansions build more than 4 plan states.
    g = MultiGraph.from_pairs(2, [(0, 1)] * 5)
    b = BFunction.zero(Z2, 2)
    with pytest.raises(BudgetError, match="plan states"):
        compare_coefficients(g, b, b, budget=4)
    assert compare_coefficients(g, b, b).consistent


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


@pytest.mark.parametrize("spec", WIDE_GROUPS, ids=str)
def test_cycles_are_connected_exactly_over_groups_above_their_length(spec):
    # C_n is A-connected exactly when |A| >= n + 1.
    for n in range(2, 6):
        assert is_A_connected(cycle(n), spec)[0] == (spec.order >= n + 1), n


def _first_compatible_of_each_assigning(spec, rows):
    firsts = {}
    for indices, alpha, compatible in rows:
        if compatible:
            firsts.setdefault(alpha, BFunction.from_indices(spec, indices))
    return firsts


def test_class_polynomials_take_the_first_compatible_b_of_each_assigning():
    g, spec = k4(), Z3
    rows = list(assigning.zero_sum_assignings(g, spec))
    # Only b = 0 has the zero assigning, so that class goes; the class of
    # row 1 is represented by its next compatible row instead.
    assert all(compatible for _, _, compatible in rows)
    assert [alpha for _, alpha, _ in rows].count(rows[0][1]) == 1
    rows[0] = (rows[0][0], rows[0][1], False)
    rows[1] = (rows[1][0], rows[1][1], False)
    firsts = _first_compatible_of_each_assigning(spec, rows)
    classes = class_polynomials(g, spec, iter(rows))
    assert list(classes) == list(firsts)
    assert rows[0][1] not in classes
    assert classes[rows[1][1]][0] != BFunction.from_indices(spec, rows[1][0])
    for alpha, (b, poly) in classes.items():
        assert b == firsts[alpha]
        assert poly == poly_subset_expansion(g, b)
    assert class_polynomials(g, spec, []) == {}


def test_connectivity_expands_the_classes_up_to_its_witness_in_one_batch(monkeypatch):
    batches, singles = [], []
    batched = assigning.poly_subset_expansions

    def counted(g, bs, **kwargs):
        batches.append(list(bs))
        return batched(g, bs, **kwargs)

    monkeypatch.setattr(assigning, "poly_subset_expansions", counted)
    monkeypatch.setattr(
        assigning, "poly_subset_expansion", lambda *args, **kwargs: singles.append(args)
    )
    empty = MultiGraph.from_pairs(0, [])
    for g in (triangle(), k4(), cycle(4), BRIDGED, PARALLEL, single_loop(), empty):
        for spec in SMALL_GROUPS + (parse_group("Z5"),):
            batches.clear()
            connected, witness = is_A_connected(g, spec)
            assert len(batches) == 1 and not singles, (g, spec)
            rows = list(assigning.zero_sum_assignings(g, spec))
            if witness is not None:
                read = [indices for indices, _, _ in rows].index(witness.indices) + 1
                rows = rows[:read]
            assert batches[0] == list(_first_compatible_of_each_assigning(spec, rows).values())
    # With a bridge no b has a flow, so b = 0, the first row, is the witness.
    for g, spec in ((single_edge(), Z3), (BRIDGED, parse_group("Z5"))):
        batches.clear()
        zero = BFunction.zero(spec, g.vertex_count)
        assert is_A_connected(g, spec) == (False, zero)
        assert batches == [[zero]]


def test_connectivity_rejects_a_zero_sum_b_read_as_incompatible(monkeypatch):
    rows = assigning.zero_sum_assignings

    def first_incompatible(g, spec, **kwargs):
        for i, (indices, alpha, compatible) in enumerate(rows(g, spec, **kwargs)):
            yield indices, alpha, compatible and i != 0

    assert is_A_connected(triangle(), parse_group("Z4")) == (True, None)
    monkeypatch.setattr(assigning, "zero_sum_assignings", first_incompatible)
    with pytest.raises(ConsistencyError, match="not compatible"):
        is_A_connected(triangle(), parse_group("Z4"))


def test_connectivity_checks_every_count_against_its_class(monkeypatch):
    g, spec = triangle(), parse_group("Z4")
    rows = list(assigning.zero_sum_assignings(g, spec))
    counts = dict(assigning.nz_flow_index_counts(g, spec))
    alpha = rows[1][1]
    members = [indices for indices, other, _ in rows if other == alpha]
    assert len(members) > 1
    # One later b of a class counts differently from the class's first b.
    skewed = dict(counts)
    skewed[members[-1]] += 1
    monkeypatch.setattr(assigning, "nz_flow_index_counts", lambda *args, **kwargs: skewed)
    with pytest.raises(ConsistencyError, match="differ in one class"):
        is_A_connected(g, spec)
    # Every b of a class counts the same, but not the class polynomial's value.
    skewed = dict(counts)
    for indices in members:
        skewed[indices] += 1
    with pytest.raises(ConsistencyError, match="disagrees with brute force"):
        is_A_connected(g, spec)


# ---------------------------------------------------------------------------
# Caches.


def test_clear_caches_empties_every_cache():
    caches = (
        abelian.index_tables,
        graphs.components,
        graphs._lambda_family_cached,
        graphs.bond_sides,
        graphs.side_cuts,
        graphs._edge_plan,
        flows._boundary_histogram,
        assigning._structure,
    )
    lambda_family(complete(4))
    bonds(complete(4))
    abelian.index_tables(Z3)
    b = BFunction.zero(Z3, 3)
    compat_signature(triangle(), b)
    induced_assigning(triangle(), b)
    poly_subset_expansion(triangle(), b)
    poly_nbb(triangle(), b)
    count_nz_flows_bruteforce(triangle(), b)
    assert all(cache.cache_info().currsize > 0 for cache in caches)
    flowpoly.clear_caches()
    assert [cache.cache_info().currsize for cache in caches] == [0] * len(caches)
