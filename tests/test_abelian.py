"""Group arithmetic, element iteration, and the group-string grammar."""

from __future__ import annotations

import itertools

import pytest

from flowpoly.abelian import GroupSpec, index_tables, parse_group
from flowpoly.errors import BudgetError, InputError, ParseError


def test_add_klein():
    spec = GroupSpec((2, 2))
    assert spec.add((1, 1), (1, 0)) == (0, 1)


def test_add_cyclic():
    spec = GroupSpec((6,))
    assert spec.add((4,), (5,)) == (3,)


def test_add_identity():
    spec = GroupSpec((3, 4))
    x = (2, 3)
    assert spec.add(x, spec.zero) == x


def test_negate():
    assert GroupSpec((5,)).negate((2,)) == (3,)
    assert GroupSpec((2, 2)).negate((1, 1)) == (1, 1)
    spec = GroupSpec((3, 5))
    assert spec.negate(spec.zero) == spec.zero


def test_elements_order_and_count():
    assert list(GroupSpec((3,)).elements()) == [(0,), (1,), (2,)]
    assert list(GroupSpec((2, 2)).elements()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert list(GroupSpec((1,)).elements()) == [(0,)]


def test_element_index_round_trip():
    spec = GroupSpec((2, 3, 2))
    for i, x in enumerate(spec.elements()):
        assert spec.index_of(x) == i
        assert spec.element_at(i) == x


def test_shape_mismatch_rejected():
    spec = GroupSpec((2, 2))
    with pytest.raises(InputError):
        spec.add((1,), (0, 0))
    with pytest.raises(InputError):
        spec.negate((0, 2))


@pytest.mark.parametrize(
    "text, orders",
    [("Z4", (4,)), ("Z2xZ2", (2, 2)), ("Z2xZ3", (2, 3)), ("Z1", (1,))],
)
def test_parse_group(text, orders):
    assert parse_group(text).cyclic_orders == orders


@pytest.mark.parametrize("text", ["", "Z", "Z0", "Z2x", "Z2yZ3", "2", "Z-1", "Z2 x Z3"])
def test_parse_group_rejects(text):
    with pytest.raises(ParseError):
        parse_group(text)


def _specs_up_to_order(limit: int) -> list[GroupSpec]:
    """All factor tuples (length <= 3, factors >= 1) with product <= limit."""
    found = []
    for length in range(1, 4):
        for factors in itertools.product(range(1, limit + 1), repeat=length):
            product = 1
            for f in factors:
                product *= f
            if product <= limit:
                found.append(GroupSpec(factors))
    return found


def test_group_axioms_exhaustive():
    for spec in _specs_up_to_order(16):
        elems = list(spec.elements())
        assert len(elems) == spec.order
        assert len(set(elems)) == spec.order
        assert elems[0] == spec.zero
        for x in elems:
            assert spec.add(x, spec.negate(x)) == spec.zero
            assert spec.add(x, spec.zero) == x
        if spec.order <= 8:
            for x, y in itertools.product(elems, repeat=2):
                assert spec.add(x, y) == spec.add(y, x)
            for x, y, z in itertools.product(elems, repeat=3):
                assert spec.add(spec.add(x, y), z) == spec.add(x, spec.add(y, z))


def test_index_tables_match_residue_arithmetic():
    for spec in _specs_up_to_order(24):
        add, neg = index_tables(spec)
        assert len(add) == len(neg) == spec.order
        for i in range(spec.order):
            x = spec.element_at(i)
            assert neg[i] == spec.index_of(spec.negate(x))
            assert add[i] == tuple(
                spec.index_of(spec.add(x, spec.element_at(j))) for j in range(spec.order)
            )


def test_index_tables_of_the_trivial_group():
    assert index_tables(GroupSpec((1,))) == (((0,),), (0,))


def test_index_tables_refuse_groups_above_the_limit():
    with pytest.raises(BudgetError, match="too large for table-based enumeration"):
        index_tables(GroupSpec((2049,)))


def test_structural_groups_stay_distinct():
    assert parse_group("Z2xZ3") != parse_group("Z6")
    assert parse_group("Z2xZ3").order == parse_group("Z6").order
    assert parse_group("Z4").order == parse_group("Z2xZ2").order


def test_equal_specs_share_one_table():
    # The hash is computed once per spec, from the cyclic orders alone.
    first, second = parse_group("Z2xZ3"), GroupSpec([2, 3])
    assert first == second and hash(first) == hash(second)
    assert {first: 1}[second] == 1
    assert index_tables(first) is index_tables(second)


def test_str_round_trip():
    for text in ("Z4", "Z2xZ2", "Z2xZ3"):
        assert str(parse_group(text)) == text
