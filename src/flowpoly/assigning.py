"""Assignings and the two polynomial algorithms built on them.

The polynomial that counts nowhere-zero flows with boundary b is computed
two independent ways:

* ``poly_subset_expansion``: sum (-1)^|S| k^m(G-S) over edge subsets S whose
  removal leaves the graph compatible with b;
* ``poly_nbb``: signless coefficients a_i counted as the compatible i-edge
  subsets containing no compatible broken bond for a chosen edge order.

Both walk the edge subsets in one depth-first scan: edges are deleted or
kept one at a time, a union-find undone on backtrack carries each block's
b-sum, and a subtree whose deleted edges already contain a compatible
broken bond is skipped whole.  A bond E[X, W - X] of a b-compatible graph is
compatible exactly when b sums to zero on its side X, so the broken bonds
come from the graph's cached bond sides and one vertex sum each.

Whether G - S is compatible with b depends only on the connected partition
of G - S.  The verification harness groups the boundary functions of a
graph of at most 10 edges by that dependence: ``_structure`` tabulates the
partition of G - S for every subset S, and ``compat_signature`` records
which partitions b makes compatible.  No polynomial route reads the table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .abelian import GroupSpec, index_tables
from .errors import BudgetError, ConsistencyError, InputError
from .flows import (
    BFunction,
    _check_vertex_function,
    count_nz_flows_bruteforce,
    enumerate_zero_sum,
    require_compatible,
    vertex_sum,
)
from .graphs import EdgeSet, MultiGraph, bond_sides, cycle_rank, lambda_family
from .polynomial import IntPolynomial

DEFAULT_MAX_EDGES = 24
_TABLE_MAX_EDGES = 10


@dataclass(frozen=True)
class Assigning:
    """A {0,1} label for every member of the graph's lambda family.

    Entries are (sorted vertex tuple, bit) pairs in lexicographic key order,
    so equal assignings compare equal regardless of the group they came from.
    """

    entries: tuple[tuple[tuple[int, ...], int], ...]

    @classmethod
    def from_dict(cls, mapping: dict[tuple[int, ...], int]) -> "Assigning":
        return cls(tuple(sorted(mapping.items())))

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return dict(self.entries)

    @property
    def domain(self) -> tuple[tuple[int, ...], ...]:
        return tuple(key for key, _ in self.entries)

    def value(self, members: Iterable[int]) -> int:
        key = tuple(sorted(members))
        for entry_key, bit in self.entries:
            if entry_key == key:
                return bit
        raise InputError(f"{key} is not in the lambda family of this assigning")

    def pointwise_le(self, other: "Assigning") -> bool:
        if self.domain != other.domain:
            raise InputError("assignings live on different lambda families")
        return all(a <= b for (_, a), (_, b) in zip(self.entries, other.entries))


@dataclass(frozen=True)
class EdgeOrder:
    """A total order on edge ids, listed from least to greatest."""

    sequence: tuple[int, ...]

    @classmethod
    def default(cls, g: MultiGraph) -> "EdgeOrder":
        return cls(g.edge_ids)

    @classmethod
    def shuffled(cls, g: MultiGraph, rng: random.Random) -> "EdgeOrder":
        ids = list(g.edge_ids)
        rng.shuffle(ids)
        return cls(tuple(ids))

    def validate_for(self, g: MultiGraph) -> None:
        if sorted(self.sequence) != list(g.edge_ids):
            raise InputError(
                f"order {self.sequence} is not a permutation of the edge ids {g.edge_ids}"
            )

    def rank_map(self) -> dict[int, int]:
        return {edge_id: rank for rank, edge_id in enumerate(self.sequence)}


def induced_assigning(g: MultiGraph, b: BFunction) -> Assigning:
    """The assigning of b: a member X gets 0 exactly when b sums to zero on X."""
    _check_vertex_function(g, b)
    entries = tuple(
        (tuple(sorted(member)), 1 if vertex_sum(b, member) else 0)
        for member in lambda_family(g)
    )
    return Assigning(entries)


# ---------------------------------------------------------------------------
# Per-subset partition tables, the harness's signature classes.


@dataclass(frozen=True)
class _SubsetStructure:
    partitions: tuple[tuple[tuple[int, ...], ...], ...]  # partitions[0] = components of G
    partition_id: tuple[int, ...]  # per edge-subset mask


@lru_cache(maxsize=4096)
def _structure(g: MultiGraph) -> _SubsetStructure:
    """The partition of G - S for every mask S (bit i is the edge at position i).

    Read by the verification harness, for its signature classes and its
    per-subset lemma suites.  The walk needs no union-find: it carries each
    partition as a tuple of least-vertex block labels, and a kept edge
    between two blocks relabels the higher label to the lower.  Edges are
    decided from the last position down, keep before delete, so leaves
    arrive in increasing mask order.  Ids follow first occurrence.
    """
    n, m = g.vertex_count, g.edge_count
    pairs = g.pairs()
    leaves: list[tuple[int, ...]] = []

    def descend(i: int, labels: tuple[int, ...]) -> None:
        x, y = pairs[i]
        lx, ly = labels[x], labels[y]
        kept = labels
        if lx != ly:
            low, high = (lx, ly) if lx < ly else (ly, lx)
            kept = tuple([low if label == high else label for label in labels])
        if i:
            descend(i - 1, kept)
            descend(i - 1, labels)
        else:  # the children of the first edge are leaves
            leaves.extend((kept, labels))

    if m:
        descend(m - 1, tuple(range(n)))
    else:
        leaves.append(tuple(range(n)))
    index: dict[tuple[int, ...], int] = {}
    partition_id = tuple([index.setdefault(labels, len(index)) for labels in leaves])
    partitions: list[tuple[tuple[int, ...], ...]] = []
    for labels in index:  # first occurrence order; blocks by least member
        members: dict[int, list[int]] = {}
        for v, label in enumerate(labels):
            members.setdefault(label, []).append(v)
        partitions.append(tuple(map(tuple, members.values())))
    return _SubsetStructure(tuple(partitions), partition_id)


def compat_signature(g: MultiGraph, b: BFunction) -> int:
    """Bitmask recording which subset partitions of g are compatible with b.

    Bit j is set when every block of the j-th partition (as enumerated by the
    cached subset table) sums to zero under b.  The polynomial algorithms
    depend on b only through this value, so the verification harness keys
    its classes of boundary functions by it and reads per-mask
    compatibility from it.  Only available while the subset table fits
    (edge count at most 10).
    """
    if g.edge_count > _TABLE_MAX_EDGES:
        raise BudgetError("compat signatures need the per-subset table (at most 10 edges)")
    _check_vertex_function(g, b)
    st = _structure(g)
    add, _ = index_tables(b.spec)
    idx = b.indices
    bits = 0
    for j, partition in enumerate(st.partitions):
        for block in partition:
            total = 0
            for v in block:
                total = add[total][idx[v]]
            if total:
                break
        else:
            bits |= 1 << j
    return bits


def _guard_edges(g: MultiGraph, max_edges: int | None) -> None:
    if max_edges is not None and g.edge_count > max_edges:
        raise BudgetError(
            f"graph has {g.edge_count} edges, above the subset-enumeration guard {max_edges}"
        )


def poly_subset_expansion(
    g: MultiGraph, b: BFunction, *, max_edges: int | None = DEFAULT_MAX_EDGES
) -> IntPolynomial:
    """The counting polynomial via the compatible spanning-subgraph expansion.

    Evaluated at the order of any finite Abelian group A' admitting a b' with
    the same induced assigning, it gives the number of nowhere-zero
    (A', b')-flows; in particular at |A| it counts the nowhere-zero
    (A, b)-flows themselves.  The compatible subsets come from the
    depth-first scan, tallied by size and component count, at every edge
    count.
    """
    _check_vertex_function(g, b)
    _guard_edges(g, max_edges)
    require_compatible(g, b)
    n, m = g.vertex_count, g.edge_count
    coeffs = [0] * (cycle_rank(g) + 1)
    for s, row in enumerate(_scan(g, b, ())):
        sign = 1 if s % 2 == 0 else -1
        for c, count in enumerate(row):
            if count:
                coeffs[m - s - n + c] += sign * count
    return IntPolynomial(tuple(coeffs))


def _scan(
    g: MultiGraph, b: BFunction, broken_masks: Iterable[int]
) -> list[list[int]]:
    """hist[|S|][c(G - S)] over the deleted sets S with G - S compatible with b
    and containing none of the broken masks (bit i is the edge at position i).

    A depth-first walk decides the edges in position order, deleting or
    keeping each.  Kept edges are joined in a union-find with union by size
    and no path compression, so every union is undone exactly on backtrack.
    Each root holds its block's b-sum as a group-element index, and two
    running counters (blocks, blocks with a nonzero sum) make the leaf test
    O(1).  A mask is checked when its highest edge is deleted; once a mask is
    fully deleted, every leaf below contains it and the subtree is skipped.
    """
    n, m = g.vertex_count, g.edge_count
    hist = [[0] * (n + 1) for _ in range(m + 1)]
    ends: list[list[int]] = [[] for _ in range(m)]
    for mask in broken_masks:
        if not mask:  # the empty set lies in every S
            return hist
        ends[mask.bit_length() - 1].append(mask)
    add, _ = index_tables(b.spec)
    total = list(b.indices)
    parent = list(range(n))
    size = [1] * n
    pairs = g.pairs()
    last = m - 1

    def descend(i: int, deleted: int, s: int, blocks: int, nonzero: int) -> None:
        # The children of the last edge are leaves: tallied here, not called.
        leaf = i == last
        gone = deleted | 1 << i
        for mask in ends[i]:
            if gone & mask == mask:
                break
        else:
            if not leaf:
                descend(i + 1, gone, s + 1, blocks, nonzero)
            elif not nonzero:
                hist[s + 1][blocks] += 1
        x, y = pairs[i]
        while parent[x] != x:
            x = parent[x]
        while parent[y] != y:
            y = parent[y]
        if x == y:
            if not leaf:
                descend(i + 1, deleted, s, blocks, nonzero)
            elif not nonzero:
                hist[s][blocks] += 1
            return
        if size[x] < size[y]:
            x, y = y, x
        sx, sy = total[x], total[y]
        joined = add[sx][sy]
        nonzero += (joined != 0) - (sx != 0) - (sy != 0)
        if leaf:
            if not nonzero:
                hist[s][blocks - 1] += 1
            return
        parent[y] = x
        size[x] += size[y]
        total[x] = joined
        descend(i + 1, deleted, s, blocks - 1, nonzero)
        parent[y] = y
        size[x] -= size[y]
        total[x] = sx

    nonzero = sum(1 for t in total if t)
    if m:
        descend(0, 0, 0, n, nonzero)
    elif not nonzero:
        hist[0][n] = 1
    return hist


def b_compatible_bonds(g: MultiGraph, b: BFunction) -> list[EdgeSet]:
    """Bonds whose removal leaves the graph compatible with b.

    In a compatible graph, removing E[X, W - X] leaves every component but
    X and W - X alone, and b sums to zero on W, so the bond is compatible
    exactly when b sums to zero on its side X.
    """
    _check_vertex_function(g, b)
    require_compatible(g, b)
    return [bond for bond, side in bond_sides(g) if not vertex_sum(b, side)]


def broken_bonds(
    g: MultiGraph, b: BFunction, order: EdgeOrder | None = None
) -> list[EdgeSet]:
    """Each compatible bond minus its greatest edge, duplicates merged."""
    if order is None:
        order = EdgeOrder.default(g)
    order.validate_for(g)
    rank = order.rank_map()
    out = {
        bond - {max(bond, key=rank.__getitem__)}
        for bond in b_compatible_bonds(g, b)
    }
    return sorted(out, key=sorted)


def poly_nbb(
    g: MultiGraph,
    b: BFunction,
    order: EdgeOrder | None = None,
    *,
    max_edges: int | None = DEFAULT_MAX_EDGES,
) -> IntPolynomial:
    """The counting polynomial via broken-bond-free subset counting.

    The signless coefficient a_i is the number of i-edge subsets S such that
    G - S stays compatible with b and S contains no compatible broken bond
    for the given edge order; the polynomial is sum (-1)^i a_i k^(m(G)-i).
    The subsets are counted by the depth-first scan at every edge count,
    which skips each subtree whose deleted edges contain a broken bond.
    """
    _check_vertex_function(g, b)
    _guard_edges(g, max_edges)
    pos_of = {edge.id: i for i, edge in enumerate(g.edges)}
    # broken_bonds validates the order and requires g to be compatible with b.
    broken = [
        sum(1 << pos_of[edge_id] for edge_id in bond)
        for bond in broken_bonds(g, b, order)
    ]
    top = cycle_rank(g)
    counts = [0] * (top + 1)
    for size, row in enumerate(_scan(g, b, broken)):
        count = sum(row)
        if not count:
            continue
        if size > top:
            raise ConsistencyError(
                f"a {size}-edge subset survived although m(G) = {top}"
            )
        counts[size] = count
    return IntPolynomial.from_signless(counts, top)


@dataclass(frozen=True)
class CoefficientComparison:
    """Side-by-side signless coefficients of two boundary functions."""

    pointwise_le: bool
    signless_first: tuple[int, ...]
    signless_second: tuple[int, ...]
    coefficientwise_le: bool

    @property
    def consistent(self) -> bool:
        """Pointwise-ordered assignings must have ordered coefficients."""
        return not self.pointwise_le or self.coefficientwise_le


def compare_coefficients(
    g: MultiGraph,
    b: BFunction,
    b2: BFunction,
    *,
    max_edges: int | None = DEFAULT_MAX_EDGES,
) -> CoefficientComparison:
    """Compare the signless coefficient vectors induced by b and b2.

    The two functions may live over different groups; assignings are compared
    bit by bit.  Both polynomials are computed independently rather than
    assuming the monotonicity theorem, so a violation shows up as an
    inconsistent report.
    """
    require_compatible(g, b)
    require_compatible(g, b2)
    alpha1 = induced_assigning(g, b)
    alpha2 = induced_assigning(g, b2)
    top = cycle_rank(g)
    signless1 = poly_subset_expansion(g, b, max_edges=max_edges).signless_coefficients(top)
    signless2 = poly_subset_expansion(g, b2, max_edges=max_edges).signless_coefficients(top)
    return CoefficientComparison(
        pointwise_le=alpha1.pointwise_le(alpha2),
        signless_first=signless1,
        signless_second=signless2,
        coefficientwise_le=all(x <= y for x, y in zip(signless1, signless2)),
    )


def is_A_connected(
    g: MultiGraph,
    spec: GroupSpec,
    *,
    budget: int = 10**8,
    max_edges: int | None = DEFAULT_MAX_EDGES,
) -> tuple[bool, BFunction | None]:
    """Whether every locally zero-sum b admits a nowhere-zero flow.

    Counts via the subset-expansion polynomial evaluated at |A| and
    cross-checks each count against the brute-force oracle; on failure the
    witness b with count zero is returned.  The budget caps both the
    brute-force enumeration and the |A|^(n-c) boundary functions tried.
    """
    if spec.order < 2:
        raise InputError("connectivity needs a group of order >= 2")
    for b in enumerate_zero_sum(g, spec, budget=budget):
        via_poly = poly_subset_expansion(g, b, max_edges=max_edges).eval(spec.order)
        via_brute = count_nz_flows_bruteforce(g, b, budget=budget)
        if via_poly != via_brute:
            raise ConsistencyError(
                f"polynomial count {via_poly} disagrees with brute force {via_brute}"
            )
        if via_poly == 0:
            return False, b
    return True, None
