"""Vertex and edge functions over a group, boundaries, and brute-force counting.

The counting functions here are the definitional oracles of the package:
they enumerate edge functions exhaustively and tally boundaries.  One full
enumeration per (graph, group) is cached as a boundary histogram, so
repeated per-b queries against the same graph cost a dictionary lookup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Collection, Iterator

from .abelian import GroupElement, GroupSpec, index_tables
from .errors import BudgetError, IncompatibleError, InputError
from .graphs import MultiGraph, VertexSet, components, cycle_rank

DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class BFunction:
    """A vertex-indexed assignment of group elements."""

    spec: GroupSpec
    values: tuple[GroupElement, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(tuple(v) for v in self.values))
        for value in self.values:
            self.spec.validate(value)

    @classmethod
    def zero(cls, spec: GroupSpec, vertex_count: int) -> "BFunction":
        return cls(spec, (spec.zero,) * vertex_count)

    def value(self, vertex: int) -> GroupElement:
        return self.values[vertex]

    @property
    def is_zero(self) -> bool:
        return all(self.spec.is_zero(v) for v in self.values)


@dataclass(frozen=True)
class EdgeFunction:
    """An edge-indexed assignment of group elements, aligned with g.edges."""

    spec: GroupSpec
    values: tuple[GroupElement, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(tuple(v) for v in self.values))
        for value in self.values:
            self.spec.validate(value)


def _check_vertex_function(g: MultiGraph, b: BFunction) -> None:
    if len(b.values) != g.vertex_count:
        raise InputError(
            f"b has {len(b.values)} values but the graph has {g.vertex_count} vertices"
        )


def boundary(g: MultiGraph, f: EdgeFunction) -> BFunction:
    """The boundary of f: at v, the sum of f over edges with head v minus the
    sum over edges with tail v.  A loop contributes f(e) - f(e) = 0."""
    if len(f.values) != g.edge_count:
        raise InputError(
            f"f has {len(f.values)} values but the graph has {g.edge_count} edges"
        )
    spec = f.spec
    acc = [spec.zero] * g.vertex_count
    for edge, value in zip(g.edges, f.values):
        acc[edge.head] = spec.add(acc[edge.head], value)
        acc[edge.tail] = spec.add(acc[edge.tail], spec.negate(value))
    return BFunction(spec, tuple(acc))


def vertex_sum(b: BFunction, vertices: Collection[int]) -> GroupElement:
    """The sum of b over a vertex set.

    Residues are added as plain integers and reduced once: b's values were
    validated when b was built, so nothing is checked again here.
    """
    values = b.values
    return tuple(
        sum(values[v][i] for v in vertices) % order
        for i, order in enumerate(b.spec.cyclic_orders)
    )


def incompatible_component(g: MultiGraph, b: BFunction) -> tuple[VertexSet, GroupElement] | None:
    """The first component whose b-values do not sum to zero, with that sum."""
    _check_vertex_function(g, b)
    for comp in components(g):
        total = vertex_sum(b, comp)
        if any(total):
            return comp, total
    return None


def is_b_compatible(g: MultiGraph, b: BFunction) -> bool:
    """True when b restricted to every component sums to zero."""
    return incompatible_component(g, b) is None


def require_compatible(g: MultiGraph, b: BFunction) -> None:
    offender = incompatible_component(g, b)
    if offender is not None:
        comp, total = offender
        raise IncompatibleError(
            f"component {sorted(comp)} sums to {total}, expected the group zero"
        )


def enumerate_zero_sum(g: MultiGraph, spec: GroupSpec) -> Iterator[BFunction]:
    """All locally zero-sum vertex functions, |A|^(|V| - c(G)) of them.

    Values on all vertices except the largest id of each component range
    freely in lexicographic order; the remaining value per component is
    forced to the negated sum of the others.
    """
    comps = components(g)
    forced = {max(comp) for comp in comps}
    free = [v for v in range(g.vertex_count) if v not in forced]
    elems = list(spec.elements())
    for combo in itertools.product(elems, repeat=len(free)):
        values: list[GroupElement | None] = [None] * g.vertex_count
        for v, value in zip(free, combo):
            values[v] = value
        for comp in comps:
            total = spec.zero
            pin = max(comp)
            for v in comp:
                if v != pin:
                    total = spec.add(total, values[v])  # type: ignore[arg-type]
            values[pin] = spec.negate(total)
        yield BFunction(spec, tuple(values))  # type: ignore[arg-type]


def count_flows(g: MultiGraph, b: BFunction) -> int:
    """Number of (A, b)-flows with zeros allowed: |A|^m(G) when the graph is
    b-compatible, otherwise 0."""
    _check_vertex_function(g, b)
    if not is_b_compatible(g, b):
        return 0
    return b.spec.order ** cycle_rank(g)


@lru_cache(maxsize=4096)
def _boundary_histogram(
    g: MultiGraph, spec: GroupSpec, nowhere_zero: bool
) -> dict[tuple[GroupElement, ...], int]:
    """Tally of boundaries over all edge functions (nonzero-valued if asked).

    Loops never move the boundary, so they contribute a constant weight of
    (#values)^loops per leaf instead of explicit branches.  States are kept
    as per-vertex element indices and decoded once at the end.
    """
    add, neg = index_tables(spec)
    order = spec.order
    values = list(range(1, order)) if nowhere_zero else list(range(order))
    loops = sum(1 for e in g.edges if e.is_loop)
    nonloop = [(e.tail, e.head) for e in g.edges if not e.is_loop]
    weight = len(values) ** loops
    counts: dict[tuple[int, ...], int] = {}
    state = [0] * g.vertex_count

    def descend(i: int) -> None:
        if i == len(nonloop):
            key = tuple(state)
            counts[key] = counts.get(key, 0) + weight
            return
        t, h = nonloop[i]
        old_t, old_h = state[t], state[h]
        row_h = add[old_h]
        for a in values:
            state[h] = row_h[a]
            state[t] = add[old_t][neg[a]]
            descend(i + 1)
        state[t], state[h] = old_t, old_h

    if weight:
        descend(0)
    return {
        tuple(spec.element_at(i) for i in key): count for key, count in counts.items()
    }


def _guard(steps: int, budget: int) -> None:
    if steps > budget:
        raise BudgetError(f"enumeration of {steps} edge functions exceeds budget {budget}")


def nz_flow_boundary_counts(
    g: MultiGraph, spec: GroupSpec, *, budget: int = DEFAULT_BUDGET
) -> dict[tuple[GroupElement, ...], int]:
    """Fresh mapping from boundary value tuples to nowhere-zero flow counts."""
    if spec.order < 2:
        raise InputError("nowhere-zero flows need a group of order >= 2")
    _guard((spec.order - 1) ** g.edge_count, budget)
    return dict(_boundary_histogram(g, spec, True))


def count_nz_flows_bruteforce(g: MultiGraph, b: BFunction, *, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of nowhere-zero (A, b)-flows by exhaustive enumeration."""
    _check_vertex_function(g, b)
    spec = b.spec
    if spec.order < 2:
        raise InputError("nowhere-zero flows need a group of order >= 2")
    _guard((spec.order - 1) ** g.edge_count, budget)
    return _boundary_histogram(g, spec, True).get(b.values, 0)


def count_flows_bruteforce(g: MultiGraph, b: BFunction, *, budget: int = DEFAULT_BUDGET) -> int:
    """Zeros-allowed counterpart of count_nz_flows_bruteforce."""
    _check_vertex_function(g, b)
    spec = b.spec
    _guard(spec.order ** g.edge_count, budget)
    return _boundary_histogram(g, spec, False).get(b.values, 0)


def decomposition_check(
    g: MultiGraph, spec: GroupSpec, *, budget: int = DEFAULT_BUDGET
) -> tuple[int, int, bool]:
    """Sums of flow counts over all locally zero-sum b, with their targets.

    Returns (sum of nowhere-zero counts, sum of zeros-allowed counts, flag);
    the flag holds exactly when the sums equal (|A|-1)^m and |A|^m.
    """
    if spec.order < 2:
        raise InputError("nowhere-zero flows need a group of order >= 2")
    _guard((spec.order - 1) ** g.edge_count, budget)
    m = g.edge_count
    total_nz = 0
    total_all = 0
    for b in enumerate_zero_sum(g, spec):
        total_nz += count_nz_flows_bruteforce(g, b, budget=budget)
        total_all += count_flows(g, b)
    ok = total_nz == (spec.order - 1) ** m and total_all == spec.order**m
    return total_nz, total_all, ok
