"""Finite Abelian groups as direct products of cyclic groups.

A group is described structurally by the tuple of cyclic orders; two
descriptions with the same order but different factors (say Z4 and Z2xZ2)
are deliberately kept distinct.  Elements are tuples of reduced residues,
one per cyclic factor.

``GroupSpec.validate`` is for outside input: ``add``, ``negate`` and
``index_of`` check their arguments, which makes them the slow path.  Inside
the package an element is its index, its position in ``elements()``, and
``index_tables`` adds and negates indices with no check at all; values
read back from ``elements()`` are valid by construction.  The tables are
composed factor by factor from rotations of the cyclic groups' index
ranges, so building them does no residue arithmetic.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

from .errors import BudgetError, InputError, ParseError

GroupElement = tuple[int, ...]

# Index-level add/negate tables are only built for groups small enough that a
# quadratic table is sane; brute-force enumeration is hopeless beyond this.
_TABLE_ORDER_LIMIT = 2048

_FACTOR_RE = re.compile(r"Z(\d+)")


@dataclass(frozen=True)
class GroupSpec:
    """A finite Abelian group given as a product of cyclic groups Z_n."""

    cyclic_orders: tuple[int, ...]
    order: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        orders = tuple(self.cyclic_orders)
        if not orders:
            raise InputError("a group needs at least one cyclic factor")
        if any(not isinstance(o, int) or o < 1 for o in orders):
            raise InputError(f"cyclic orders must be integers >= 1, got {orders!r}")
        object.__setattr__(self, "cyclic_orders", orders)
        object.__setattr__(self, "order", math.prod(orders))
        # Every index_tables lookup hashes the spec: compute it once per instance.
        object.__setattr__(self, "_hash", hash(orders))

    def __hash__(self) -> int:
        return self._hash

    @property
    def rank(self) -> int:
        return len(self.cyclic_orders)

    @property
    def zero(self) -> GroupElement:
        return (0,) * len(self.cyclic_orders)

    def validate(self, x: GroupElement) -> None:
        """Raise InputError unless x is a reduced element of this group."""
        if len(x) != len(self.cyclic_orders):
            raise InputError(
                f"element {x!r} has {len(x)} residues, expected {len(self.cyclic_orders)}"
            )
        for residue, order in zip(x, self.cyclic_orders):
            if not isinstance(residue, int) or not 0 <= residue < order:
                raise InputError(f"residue {residue!r} out of range for Z{order}")

    def add(self, x: GroupElement, y: GroupElement) -> GroupElement:
        self.validate(x)
        self.validate(y)
        return tuple((a + b) % o for a, b, o in zip(x, y, self.cyclic_orders))

    def negate(self, x: GroupElement) -> GroupElement:
        self.validate(x)
        return tuple((-a) % o for a, o in zip(x, self.cyclic_orders))

    def is_zero(self, x: GroupElement) -> bool:
        return all(a == 0 for a in x)

    def elements(self) -> Iterator[GroupElement]:
        """All elements exactly once, zero first, lexicographic on residues."""
        return itertools.product(*(range(o) for o in self.cyclic_orders))

    def index_of(self, x: GroupElement) -> int:
        """Position of x in the elements() stream (zero maps to 0)."""
        self.validate(x)
        index = 0
        for residue, order in zip(x, self.cyclic_orders):
            index = index * order + residue
        return index

    def element_at(self, index: int) -> GroupElement:
        if not 0 <= index < self.order:
            raise InputError(f"element index {index} out of range for group of order {self.order}")
        residues = []
        for order in reversed(self.cyclic_orders):
            residues.append(index % order)
            index //= order
        return tuple(reversed(residues))

    def __str__(self) -> str:
        return "x".join(f"Z{o}" for o in self.cyclic_orders)


@lru_cache(maxsize=64)
def index_tables(spec: GroupSpec) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Addition and negation tables on element indices.

    add_table[i][j] is the index of element_at(i) + element_at(j), and
    neg_table[i] the index of the inverse.  Built once per spec and shared;
    the hot enumeration loops run entirely on these small integers.

    The tables are composed factor by factor.  Z_o's rows are the o
    rotations of range(o).  In G x Z_o, (i, r) has index i*o + r; its row
    joins, for each entry a of G's row i, the block a*o .. a*o + o - 1
    rotated left by r, and it negates to neg[i]*o + (-r mod o).  All entries
    come from one tuple(range(order)), so the rows share their int objects.
    """
    order = spec.order
    if order > _TABLE_ORDER_LIMIT:
        raise BudgetError(f"group of order {order} is too large for table-based enumeration")
    ints = tuple(range(order))
    first, *rest = spec.cyclic_orders
    add = [ints[r:first] + ints[:r] for r in range(first)]
    neg = [ints[-r % first] for r in range(first)]
    for o in rest:
        starts = range(0, len(add) * o, o)
        rotated = [[ints[s + r : s + o] + ints[s : s + r] for s in starts] for r in range(o)]
        add = [
            tuple(itertools.chain.from_iterable(map(rotated[r].__getitem__, row)))
            for row in add
            for r in range(o)
        ]
        neg = [ints[n * o + (-r % o)] for n in neg for r in range(o)]
    return tuple(add), tuple(neg)


def parse_group(text: str) -> GroupSpec:
    """Parse a group description such as "Z4" or "Z2xZ2".

    The grammar is Z<int> separated by literal lowercase "x"; factors are
    kept verbatim, so "Z2xZ3" and "Z6" give distinct specs of equal order.
    """
    parts = text.split("x")
    orders = []
    for part in parts:
        match = _FACTOR_RE.fullmatch(part)
        if match is None:
            raise ParseError(f"bad group {text!r}: expected Z<int> factors joined by 'x'")
        order = int(match.group(1))
        if order < 1:
            raise ParseError(f"bad group {text!r}: cyclic order must be >= 1")
        orders.append(order)
    return GroupSpec(tuple(orders))
