"""Vertex and edge functions over a group, boundaries, and brute-force counting.

The counting functions here are the definitional oracles of the package:
they tally the boundaries of all edge functions, one edge at a time, as a
count per partial boundary.  One tally per (graph, group) is cached as a
boundary histogram, so repeated per-b queries against the same graph cost
a dictionary lookup.  ``nz_orientation_walk`` runs the same tally steps
once more, uncached, for the verification harness: it returns the
nowhere-zero histogram together with the edges whose reversal would change
it, found by stepping the shared tally both ways at each edge instead of
tallying a reversed copy of the graph per edge.

Residues are validated once, where a BFunction or EdgeFunction is built
from outside input.  A BFunction also carries its values as element
indices (positions in ``spec.elements()``), and the package runs on those:
zero-sum enumeration adds and negates through the group's index tables and
builds its BFunctions from ``spec.elements()`` values without checking them
again, and histograms are keyed by index tuples, decoded to residues only
by ``nz_flow_boundary_counts``.

Both central notions ask whether b sums to zero on a vertex set: on every
component for compatibility, on each member of Λ(G) for the assigning.
``block_sums`` takes those sums for one b.  Its column form,
``block_sum_columns``, takes them for many b at once: ``zero_sum_columns``
lays the zero-sum b of one (graph, group) out in enumeration order as one
column per vertex, a byte string whose t-th byte is the element index of
the t-th b at that vertex, and a block's sums are then added column by
column with C-level bytes and int operations instead of b by b.
``enumerate_zero_sum`` reads its b from those columns too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from operator import getitem
from types import MappingProxyType
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .abelian import GroupElement, GroupSpec, index_tables
from .errors import BudgetError, IncompatibleError, InputError
from .graphs import MultiGraph, VertexSet, components

DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class BFunction:
    """A vertex-indexed assignment of group elements.

    ``indices`` holds each value's position in ``spec.elements()``; it is
    derived from ``values`` and takes no part in equality or hashing.
    """

    spec: GroupSpec
    values: tuple[GroupElement, ...]
    indices: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = tuple(tuple(v) for v in self.values)
        object.__setattr__(self, "values", values)
        # index_of validates each value before it reads the residues.
        object.__setattr__(self, "indices", tuple(map(self.spec.index_of, values)))

    @classmethod
    def _trusted(
        cls, spec: GroupSpec, values: tuple[GroupElement, ...], indices: tuple[int, ...]
    ) -> "BFunction":
        """A BFunction of values taken from spec.elements(), with their
        indices; valid by construction, so nothing is checked."""
        b = object.__new__(cls)
        object.__setattr__(b, "spec", spec)
        object.__setattr__(b, "values", values)
        object.__setattr__(b, "indices", indices)
        return b

    @classmethod
    def from_indices(cls, spec: GroupSpec, indices: Iterable[int]) -> "BFunction":
        """The BFunction whose value at v is ``spec.element_at(indices[v])``,
        such as one row of ``zero_sum_columns``."""
        indices = tuple(indices)
        if indices and not 0 <= min(indices) <= max(indices) < spec.order:
            raise InputError(f"element indices {indices} out of range for {spec}")
        elems = _elements(spec)
        return cls._trusted(spec, tuple([elems[i] for i in indices]), indices)

    @classmethod
    def zero(cls, spec: GroupSpec, vertex_count: int) -> "BFunction":
        return cls._trusted(spec, (spec.zero,) * vertex_count, (0,) * vertex_count)

    @property
    def is_zero(self) -> bool:
        return not any(self.indices)


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


def block_sums(b: BFunction, blocks: Iterable[Collection[int]]) -> list[int]:
    """The element index of b's sum over each vertex set, in order; 0 is the
    zero.  b was validated when built, so the sums run on its indices
    through the group's addition table and check nothing."""
    add, _ = index_tables(b.spec)
    indices = b.indices
    sums = []
    for block in blocks:
        total = 0
        for v in block:
            total = add[total][indices[v]]
        sums.append(total)
    return sums


def incompatible_component(g: MultiGraph, b: BFunction) -> tuple[VertexSet, GroupElement] | None:
    """The first component whose b-values do not sum to zero, with that sum."""
    _check_vertex_function(g, b)
    comps = components(g)
    for comp, total in zip(comps, block_sums(b, comps)):
        if total:
            return comp, b.spec.element_at(total)
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


@lru_cache(maxsize=64)
def _elements(spec: GroupSpec) -> tuple[GroupElement, ...]:
    """``spec.elements()`` as a tuple, position i holding element_at(i)."""
    return tuple(spec.elements())


# The b of one column chunk differ only in their last free vertices, and
# each column of a chunk stays within this many bytes.
_COLUMN_BYTES = 1 << 16


@lru_cache(maxsize=64)
def _column_tables(spec: GroupSpec) -> tuple[bytes, bytes] | None:
    """Translate tables for byte columns over spec, or None when q * q > 256.

    pair[u * q + v] is the index of u + v and neg[u] that of -u.  Where
    q * q <= 256, the columns of u and v read as little-endian ints pack
    u * q + v into each byte with no carry, so one translate adds them.
    """
    q = spec.order
    if q * q > 256:
        return None
    add, neg = index_tables(spec)
    pair = bytes(itertools.chain.from_iterable(add))
    return pair.ljust(256, b"\0"), bytes(neg).ljust(256, b"\0")


def _column_type(spec: GroupSpec) -> type:
    """The column type: bytes, or tuples of ints above 256 elements."""
    return bytes if spec.order <= 256 else tuple


def block_sum_columns(
    spec: GroupSpec, size: int, columns: Sequence, blocks: Iterable[Collection[int]]
) -> list:
    """The column form of ``block_sums``: for each vertex set, the column of
    its sums, entry t the element index of row t's sum over it.

    Column v holds vertex v and row t of the columns is one b, so each of
    the size entries of a column belongs to one b.  Where q * q <= 256 two
    columns are added by packing u * q + v into one int and translating its
    bytes through the pair table of ``_column_tables``; above that, by an
    elementwise map over the addition table of ``index_tables``.
    """
    make = _column_type(spec)
    tables = _column_tables(spec)
    add, _ = index_tables(spec)
    q = spec.order
    ints: dict[int, int] = {}
    sums = []
    for block in blocks:
        members = iter(block)
        first = next(members, None)
        if first is None:
            sums.append(make([0]) * size)
            continue
        total = columns[first]
        if tables is None:
            for v in members:
                total = make(map(getitem, map(add.__getitem__, total), columns[v]))
        else:
            pair = tables[0]
            for v in members:
                x = ints.get(v)
                if x is None:
                    x = ints[v] = int.from_bytes(columns[v], "little")
                total = (int.from_bytes(total, "little") * q + x).to_bytes(size, "little")
                total = total.translate(pair)
        sums.append(total)
    return sums


_NONZERO = bytes([0] + [1] * 255)


def nonzero_bits(column, bit: int) -> int:
    """The int whose byte t, little-endian, is 1 << bit where entry t of the
    column is nonzero and 0 where it is zero (bit at most 7)."""
    if isinstance(column, bytes):
        flags = column.translate(_NONZERO)
    else:
        flags = bytes(map(bool, column))
    return int.from_bytes(flags, "little") << bit


def column_rows(size: int, columns: Sequence) -> Iterator[tuple[int, ...]]:
    """The rows of a chunk of size entries per column, as index tuples."""
    return zip(*columns) if columns else itertools.repeat((), size)


def zero_sum_columns(
    g: MultiGraph, spec: GroupSpec, *, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[int, list]]:
    """The locally zero-sum vertex functions as chunks of columns, in the
    order of ``enumerate_zero_sum``.

    Each chunk is (size, columns): column v is a byte string of size entries
    (a tuple of ints over groups of more than 256 elements), entry t
    the element index of the chunk's t-th b at vertex v.  The largest id of
    each component is its pin and every other vertex is free.  The last free
    vertices vary inside a chunk, each column a repeated digit pattern, and
    as many of them as keep a column within ``_COLUMN_BYTES``; the others
    are constant there and step from chunk to chunk.  Each pin's column is
    the negated column sum of its component's other vertices.  BudgetError
    is raised before any column is built when |A|^(|V| - c(G)) exceeds the
    budget.  The columns list is fresh per chunk.
    """
    comps = components(g)
    n = g.vertex_count
    q = spec.order
    _guard(q ** (n - len(comps)), budget, "zero-sum boundary functions")
    make = _column_type(spec)
    tables = _column_tables(spec)
    _, neg = index_tables(spec)
    pins = [(max(comp), comp - {max(comp)}) for comp in comps]
    forced = {pin for pin, _ in pins}
    free = [v for v in range(n) if v not in forced]
    rows = _COLUMN_BYTES // (1 if make is bytes else 8)  # a tuple holds 8-byte pointers
    inner = 0
    while inner < len(free) and q ** (inner + 1) <= rows:
        inner += 1
    size = q**inner
    split = len(free) - inner
    columns: list = [None] * n
    for p, v in enumerate(reversed(free[split:])):
        stride = q**p
        columns[v] = make([d for d in range(q) for _ in range(stride)]) * (size // (stride * q))
    for prefix in itertools.product(range(q), repeat=split):
        for v, d in zip(free, prefix):
            columns[v] = make([d]) * size
        totals = block_sum_columns(spec, size, columns, [others for _, others in pins])
        for (pin, _), total in zip(pins, totals):
            if tables is None:
                columns[pin] = make(map(neg.__getitem__, total))
            else:
                columns[pin] = total.translate(tables[1])
        yield size, list(columns)


def enumerate_zero_sum(
    g: MultiGraph, spec: GroupSpec, *, budget: int = DEFAULT_BUDGET
) -> Iterator[BFunction]:
    """All locally zero-sum vertex functions, |A|^(|V| - c(G)) of them.

    Values on all vertices except the largest id of each component range
    freely in lexicographic order; the remaining value per component is
    forced to the negated sum of the others.  The b are the rows of
    ``zero_sum_columns``, so memory stays within one chunk; every value is
    taken from spec.elements(), and the BFunctions are not validated again.
    BudgetError is raised before the first yield when |A|^(|V| - c(G))
    exceeds the budget.
    """
    elems = _elements(spec)
    for size, columns in zero_sum_columns(g, spec, budget=budget):
        for idx in column_rows(size, columns):
            yield BFunction._trusted(spec, tuple([elems[i] for i in idx]), idx)


def count_flows(g: MultiGraph, b: BFunction) -> int:
    """Number of (A, b)-flows with zeros allowed: |A|^m(G) when the graph is
    b-compatible, otherwise 0."""
    _check_vertex_function(g, b)
    comps = components(g)
    if any(block_sums(b, comps)):
        return 0
    return b.spec.order ** (g.edge_count - g.vertex_count + len(comps))


@lru_cache(maxsize=4096)
def _boundary_histogram(
    g: MultiGraph, spec: GroupSpec, nowhere_zero: bool
) -> dict[tuple[int, ...], int]:
    """Tally of boundaries over all edge functions (nonzero-valued if asked),
    keyed by per-vertex element-index tuples, the form of BFunction.indices.

    One pass over the non-loop edges carries a dict from partial boundaries
    to the number of edge functions on the edges so far that reach them,
    extended one edge at a time by ``_tally_step``.  Loops never move the
    boundary, so they enter as one starting weight of (#values)^loops.
    """
    counts, values, add = _tally_start(g, spec, nowhere_zero)
    for e in g.edges:
        if not e.is_loop:
            counts = _tally_step(counts, e.tail, e.head, values, add)
    return counts


def _tally_start(
    g: MultiGraph, spec: GroupSpec, nowhere_zero: bool
) -> tuple[dict[tuple[int, ...], int], list[tuple[int, int]], tuple[tuple[int, ...], ...]]:
    """The tally before any non-loop edge, the allowed (a, -a) index pairs,
    and the group's addition table."""
    add, neg = index_tables(spec)
    values = [(a, neg[a]) for a in range(1 if nowhere_zero else 0, spec.order)]
    loops = sum(1 for e in g.edges if e.is_loop)
    weight = len(values) ** loops
    counts = {(0,) * g.vertex_count: weight} if weight else {}
    return counts, values, add


def _tally_step(
    counts: dict[tuple[int, ...], int],
    t: int,
    h: int,
    values: list[tuple[int, int]],
    add: tuple[tuple[int, ...], ...],
) -> dict[tuple[int, ...], int]:
    """The tally after one more edge from t to h: each allowed value a adds
    a at h and -a at t.  Empties counts as it goes, which frees each key
    once it is extended."""
    step: dict[tuple[int, ...], int] = {}
    while counts:
        key, count = counts.popitem()
        row_t, row_h = add[key[t]], add[key[h]]
        state = list(key)
        for a, minus_a in values:
            state[h] = row_h[a]
            state[t] = row_t[minus_a]
            new = tuple(state)
            step[new] = step.get(new, 0) + count
    return step


def _guard(steps: int, budget: int, what: str = "edge functions") -> None:
    if steps > budget:
        raise BudgetError(f"enumeration of {steps} {what} exceeds budget {budget}")


def nz_flow_index_counts(
    g: MultiGraph, spec: GroupSpec, *, budget: int = DEFAULT_BUDGET
) -> Mapping[tuple[int, ...], int]:
    """Read-only mapping from boundaries, as element-index tuples (the form
    of BFunction.indices), to nowhere-zero flow counts; shared, not copied."""
    if spec.order < 2:
        raise InputError("nowhere-zero flows need a group of order >= 2")
    _guard((spec.order - 1) ** g.edge_count, budget)
    return MappingProxyType(_boundary_histogram(g, spec, True))


def nz_orientation_walk(
    g: MultiGraph, spec: GroupSpec, *, budget: int = DEFAULT_BUDGET
) -> tuple[dict[tuple[int, ...], int], tuple[int, ...]]:
    """The nowhere-zero boundary histogram of g, as ``nz_flow_index_counts``
    gives it, and the ids of the non-loop edges whose reversal changes it.

    Reversing an edge changes only that edge's step of the tally, so at each
    non-loop edge the tally so far is stepped both ways.  When the two steps
    agree, every later step repeats the same computation and the reversed
    graph's histogram equals g's.  When they differ, the reversed tally runs
    on to the end and the two final histograms are compared.  The result is
    fresh and not cached.
    """
    if spec.order < 2:
        raise InputError("nowhere-zero flows need a group of order >= 2")
    _guard((spec.order - 1) ** g.edge_count, budget)
    counts, values, add = _tally_start(g, spec, True)
    edges = [e for e in g.edges if not e.is_loop]
    reversed_tallies = []
    for i, e in enumerate(edges):
        backward = _tally_step(dict(counts), e.head, e.tail, values, add)
        counts = _tally_step(counts, e.tail, e.head, values, add)
        if backward != counts:
            for later in edges[i + 1 :]:
                backward = _tally_step(backward, later.tail, later.head, values, add)
            reversed_tallies.append((e.id, backward))
    changed = tuple(edge_id for edge_id, final in reversed_tallies if final != counts)
    return counts, changed


def nz_flow_boundary_counts(
    g: MultiGraph, spec: GroupSpec, *, budget: int = DEFAULT_BUDGET
) -> dict[tuple[GroupElement, ...], int]:
    """Fresh mapping from boundary value tuples to nowhere-zero flow counts."""
    elems = list(spec.elements())
    return {
        tuple([elems[i] for i in key]): count
        for key, count in nz_flow_index_counts(g, spec, budget=budget).items()
    }


def count_nz_flows_bruteforce(g: MultiGraph, b: BFunction, *, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of nowhere-zero (A, b)-flows, read from the boundary
    histogram of all nowhere-zero edge functions."""
    _check_vertex_function(g, b)
    return nz_flow_index_counts(g, b.spec, budget=budget).get(b.indices, 0)


def count_flows_bruteforce(g: MultiGraph, b: BFunction, *, budget: int = DEFAULT_BUDGET) -> int:
    """Zeros-allowed counterpart of count_nz_flows_bruteforce."""
    _check_vertex_function(g, b)
    spec = b.spec
    _guard(spec.order ** g.edge_count, budget)
    return _boundary_histogram(g, spec, False).get(b.indices, 0)


def decomposition_check(
    g: MultiGraph, spec: GroupSpec, *, budget: int = DEFAULT_BUDGET
) -> tuple[int, int, bool]:
    """Sums of flow counts over all locally zero-sum b, with their targets.

    Returns (sum of nowhere-zero counts, sum of zeros-allowed counts, flag);
    the flag holds exactly when the sums equal (|A|-1)^m and |A|^m.  The
    budget caps both the (|A|-1)^m edge functions and the |A|^(n-c) b.
    """
    if spec.order < 2:
        raise InputError("nowhere-zero flows need a group of order >= 2")
    _guard((spec.order - 1) ** g.edge_count, budget)
    m = g.edge_count
    total_nz = 0
    total_all = 0
    for b in enumerate_zero_sum(g, spec, budget=budget):
        total_nz += count_nz_flows_bruteforce(g, b, budget=budget)
        total_all += count_flows(g, b)
    ok = total_nz == (spec.order - 1) ** m and total_all == spec.order**m
    return total_nz, total_all, ok
