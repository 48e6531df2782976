"""Assignings and the two polynomial algorithms built on them.

The polynomial that counts nowhere-zero flows with boundary b is computed
two independent ways.  Both run edge by edge over the same cached plan,
``_edge_plan``, and carry the same state: the blocks of the kept edges as
one character per vertex, each root holding its block's b-sum.  They share
no other code.

* ``poly_subset_expansion``: sum (-1)^|S| k^m(G-S) over edge subsets S whose
  removal leaves the graph compatible with b.  The terms depend on S only
  through the blocks of G - S and their b-sums, so the sum runs over those
  states (the transfer-matrix method for Tutte-type polynomials) instead of
  over the 2^m subsets.
* ``poly_nbb``: signless coefficients a_i counted as the compatible i-edge
  subsets containing no compatible broken bond for a chosen edge order.
  Whether a partial S can still be completed depends only on its blocks and
  on which broken bonds it has wholly deleted so far, so the subsets are
  counted by size over those states.  A bond E[X, W - X] of a b-compatible
  graph is compatible exactly when b sums to zero on its side X, so the
  broken bonds come from the graph's cached bond sides and one vertex sum
  each.

Both polynomials depend on b only through its assigning α, which
``alpha_bits`` packs into an int; the verification harness keys its
classes of boundary functions by it.  Whether G - S is compatible with b
depends only on the connected partition of G - S: for graphs of at most 10
edges, ``_structure`` tabulates that partition for every subset S and
``compat_signature`` records which partitions b makes compatible.  Only
the harness's per-subset lemma suites read the table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .abelian import GroupSpec, index_tables
from .errors import BudgetError, ConsistencyError, InputError
from .flows import (
    DEFAULT_BUDGET,
    BFunction,
    _check_vertex_function,
    _guard,
    count_nz_flows_bruteforce,
    enumerate_zero_sum,
    require_compatible,
    vertex_sum,
)
from .graphs import EdgeSet, MultiGraph, bond_sides, cycle_rank, lambda_members
from .polynomial import IntPolynomial

_TABLE_MAX_EDGES = 10


@dataclass(frozen=True)
class Assigning:
    """A {0,1} label for every member of the graph's lambda family.

    Entries are (sorted vertex tuple, bit) pairs in lexicographic key order,
    so equal assignings compare equal regardless of the group they came from.
    """

    entries: tuple[tuple[tuple[int, ...], int], ...]

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return dict(self.entries)

    @property
    def domain(self) -> tuple[tuple[int, ...], ...]:
        return tuple(key for key, _ in self.entries)

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
    bits = alpha_bits(g, b)
    return Assigning(
        tuple((member, bits >> i & 1) for i, member in enumerate(lambda_members(g)))
    )


def alpha_bits(g: MultiGraph, b: BFunction) -> int:
    """The assigning of b as an int: bit i is set when b sums to nonzero on
    the i-th member of ``lambda_members(g)``.  b must have g's vertex count."""
    add, _ = index_tables(b.spec)
    idx = b.indices
    bits = 0
    for i, member in enumerate(lambda_members(g)):
        total = 0
        for v in member:
            total = add[total][idx[v]]
        if total:
            bits |= 1 << i
    return bits


# ---------------------------------------------------------------------------
# Per-subset partition tables, for the harness's lemma suites.


@dataclass(frozen=True)
class _SubsetStructure:
    partitions: tuple[tuple[tuple[int, ...], ...], ...]  # partitions[0] = components of G
    partition_id: tuple[int, ...]  # per edge-subset mask


@lru_cache(maxsize=4096)
def _structure(g: MultiGraph) -> _SubsetStructure:
    """The partition of G - S for every mask S (bit i is the edge at position i).

    Read by the verification harness, for its per-subset lemma suites.  The
    walk needs no union-find: it carries each partition as a tuple of
    least-vertex block labels, and a kept edge between two blocks relabels
    the higher label to the lower.  Edges are decided from the last position
    down, keep before delete, so leaves arrive in increasing mask order.  Ids
    follow first occurrence.
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
    cached subset table) sums to zero under b.  It and ``alpha_bits``
    determine each other on one graph.  The verification harness reads
    per-mask compatibility from it, once per assigning class, and does not
    key by it.  Only available while the subset table fits (edge count at
    most 10).
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


def poly_subset_expansion(
    g: MultiGraph, b: BFunction, *, budget: int = DEFAULT_BUDGET
) -> IntPolynomial:
    """The counting polynomial via the compatible spanning-subgraph expansion.

    Evaluated at the order of any finite Abelian group A' admitting a b' with
    the same induced assigning, it gives the number of nowhere-zero
    (A', b')-flows; in particular at |A| it counts the nowhere-zero
    (A, b)-flows themselves.

    The sum over S runs edge by edge, in the order of ``_edge_plan``, over
    states instead of subsets.  The kept edges split the vertices into
    blocks, each rooted at its least open vertex (one with edges still to
    decide).  A state is a string with one character per vertex, with q the
    group's order: a root holds its block's b-sum as a group-element index,
    any other open vertex q plus its root, and a closed vertex 0.  Its value
    is the sum of (-1)^|S| k^(kept edges + closed blocks) over the decided
    edges that reach it: deleting an edge negates, keeping one multiplies by
    k and merges the blocks of its ends.  A block whose last open vertex
    closes with a nonzero b-sum leaves G - S incompatible and drops the
    state; a zero sum is one more component, a factor k.  Vertices with no
    edge but loops never close and are one component each.  Since
    m(G - S) = kept + components - n, the final value is shifted down by n.
    Loops join no blocks, so each multiplies by k - 1.  Values are
    polynomials packed into one int, in balanced base-2^(m + 2) digits,
    which hold every partial coefficient (at most 2^m in size).  The work
    is the states built, summed over the steps; BudgetError is raised once
    that sum exceeds the budget.
    """
    _check_vertex_function(g, b)
    require_compatible(g, b)
    _, loops, steps = _edge_plan(g)
    add, _ = index_tables(b.spec)
    q = b.spec.order
    n = g.vertex_count
    w = g.edge_count + 2
    closed = work = 0
    # Before its first edge every vertex is a block of its own.
    states = {"".join(map(chr, b.indices)): 1}
    for x, y, closing in steps:
        out: dict[str, int] = {}
        get = out.get
        for codes, value in states.items():
            out[codes] = get(codes, 0) - value
            a = ord(codes[x])
            a = x if a < q else a - q
            c = ord(codes[y])
            c = y if c < q else c - q
            if a != c:
                if a > c:
                    a, c = c, a
                codes = codes.replace(chr(q + c), chr(q + a))
                joined = chr(add[ord(codes[a])][ord(codes[c])])
                codes = codes[:a] + joined + codes[a + 1 : c] + chr(q + a) + codes[c + 1 :]
            out[codes] = get(codes, 0) + (value << w)
        work += len(out)
        _guard(work, budget, "plan states")
        if not closing:
            states = out
            continue
        closed += len(closing)
        states = {}
        for codes, value in out.items():
            for v in closing:
                code = codes[v]
                if ord(code) >= q:
                    codes = codes[:v] + "\0" + codes[v + 1 :]
                    continue
                # v roots its block
                mark = chr(q + v)
                r = codes.find(mark)
                if r >= 0:  # the block goes on, rooted at its least open vertex r
                    codes = codes.replace(mark, chr(q + r))
                    codes = codes[:v] + "\0" + codes[v + 1 : r] + code + codes[r + 1 :]
                elif code != "\0":
                    break  # the block closes with a nonzero b-sum
                else:
                    value <<= w
            else:
                states[codes] = states.get(codes, 0) + value
    total = sum(states.values()) << w * (n - closed)
    for _ in range(loops):
        total = (total << w) - total
    return IntPolynomial(_unpack(total, w)[n:])


def _unpack(packed: int, w: int) -> tuple[int, ...]:
    """The balanced base-2^w digits of packed, least significant first."""
    digits = []
    base, half = 1 << w, 1 << (w - 1)
    while packed:
        digit = packed & (base - 1)
        if digit >= half:
            digit -= base
        digits.append(digit)
        packed = (packed - digit) >> w
    return tuple(digits)


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
    budget: int = DEFAULT_BUDGET,
) -> IntPolynomial:
    """The counting polynomial via broken-bond-free subset counting.

    The signless coefficient a_i is the number of i-edge subsets S such that
    G - S stays compatible with b and S contains no compatible broken bond
    for the given edge order; the polynomial is sum (-1)^i a_i k^(m(G)-i).

    The subsets are counted edge by edge, in the order of ``_edge_plan``,
    over states instead of subsets.  The kept edges split the vertices into
    blocks, each rooted at its least open vertex (one with edges still to
    decide).  A state is a pair.  Its string has one character per vertex,
    with q the group's order: a root holds its block's b-sum as a
    group-element index, any other open vertex q plus its root, and a closed
    vertex 0.  Its int, live, has the bits of the broken bonds whose first
    edge is decided and whose edges so far are all deleted.  Deleting the
    last edge of a live bond would put the bond inside S, so that branch is
    dropped; keeping an edge of a bond clears its bit.  A block whose last
    open vertex closes with a nonzero b-sum leaves G - S incompatible and
    drops the state.  A value counts the subsets reaching its state by |S|,
    packed into one int in base-2^(m + 2) digits, so deleting an edge shifts
    it one digit up.  Loops lie in no bond and change no block, so each
    doubles the count: S holds it or not.  The budget caps the states built,
    summed over the steps, as in ``poly_subset_expansion``; the bond sides
    walked for the broken bonds are not counted.
    """
    _check_vertex_function(g, b)
    edge_bit, loops, steps = _edge_plan(g)
    # broken_bonds validates the order and requires g to be compatible with b.
    broken = [sum(map(edge_bit.__getitem__, bond)) for bond in broken_bonds(g, b, order)]
    top = cycle_rank(g)
    counts = [0] * (top + 1)
    if 0 in broken:  # the empty set lies in every S
        return IntPolynomial.from_signless(counts, top)
    # Bond j has bit j: in start at its first step, in end at its last, and
    # in inside at each of its steps.
    start = [0] * len(steps)
    end = [0] * len(steps)
    inside = [0] * len(steps)
    for j, mask in enumerate(broken):
        bit = 1 << j
        start[(mask & -mask).bit_length() - 1] |= bit
        end[mask.bit_length() - 1] |= bit
        while mask:
            low = mask & -mask
            inside[low.bit_length() - 1] |= bit
            mask ^= low
    add, _ = index_tables(b.spec)
    q = b.spec.order
    w = g.edge_count + 2
    work = 0
    # Before its first edge every vertex is a block of its own.
    states = {("".join(map(chr, b.indices)), 0): 1}
    for (x, y, closing), first, last, within in zip(steps, start, end, inside):
        out: dict[tuple[str, int], int] = {}
        get = out.get
        for (codes, live), value in states.items():
            if not last & (live | first):
                key = (codes, (live | first) & ~last)
                out[key] = get(key, 0) + (value << w)
            a = ord(codes[x])
            a = x if a < q else a - q
            c = ord(codes[y])
            c = y if c < q else c - q
            if a != c:
                if a > c:
                    a, c = c, a
                codes = codes.replace(chr(q + c), chr(q + a))
                joined = chr(add[ord(codes[a])][ord(codes[c])])
                codes = codes[:a] + joined + codes[a + 1 : c] + chr(q + a) + codes[c + 1 :]
            key = (codes, live & ~within)
            out[key] = get(key, 0) + value
        work += len(out)
        _guard(work, budget, "plan states")
        if not closing:
            states = out
            continue
        states = {}
        for (codes, live), value in out.items():
            for v in closing:
                code = codes[v]
                if ord(code) >= q:
                    codes = codes[:v] + "\0" + codes[v + 1 :]
                    continue
                # v roots its block
                mark = chr(q + v)
                r = codes.find(mark)
                if r >= 0:  # the block goes on, rooted at its least open vertex r
                    codes = codes.replace(mark, chr(q + r))
                    codes = codes[:v] + "\0" + codes[v + 1 : r] + code + codes[r + 1 :]
                elif code != "\0":
                    break  # the block closes with a nonzero b-sum
            else:
                key = (codes, live)
                states[key] = states.get(key, 0) + value
    total = sum(states.values())
    for _ in range(loops):
        total += total << w
    digit = (1 << w) - 1
    for size in range(g.edge_count + 1):
        count = total >> size * w & digit
        if not count:
            continue
        if size > top:
            raise ConsistencyError(
                f"a {size}-edge subset survived although m(G) = {top}"
            )
        counts[size] = count
    return IntPolynomial.from_signless(counts, top)


# (x, y, closing) per decided edge; see _edge_plan.
_Decision = tuple[int, int, tuple[int, ...]]


@lru_cache(maxsize=4096)
def _edge_plan(g: MultiGraph) -> tuple[dict[int, int], int, tuple[_Decision, ...]]:
    """(2^rank for each non-loop edge id, loop count, steps) for both routes.

    Vertices are discovered breadth first, each component from its least
    vertex, and a discovered vertex brings its edges to the vertices
    discovered before it, in edge-list order.  Step r decides the edge of
    rank r, between vertices x and y; afterwards the vertices in closing
    have no edge left to decide.
    """
    n = g.vertex_count
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    loops = 0
    for edge in g.edges:
        x, y = edge.tail, edge.head
        if x == y:
            loops += 1
        else:
            adj[x].append((y, edge.id))
            adj[y].append((x, edge.id))
    left = [len(ends) for ends in adj]
    seen = [False] * n
    edge_bit: dict[int, int] = {}
    steps: list[_Decision] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        for x in queue:  # the loop also reads the vertices it appends
            for v, _ in adj[x]:
                if seen[v]:
                    continue
                seen[v] = True
                queue.append(v)
                for u, edge_id in adj[v]:
                    if seen[u]:
                        edge_bit[edge_id] = 1 << len(steps)
                        left[u] -= 1
                        left[v] -= 1
                        closing = tuple([z for z in (u, v) if not left[z]])
                        steps.append((u, v, closing))
    return edge_bit, loops, tuple(steps)


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
    signless1 = poly_subset_expansion(g, b).signless_coefficients(top)
    signless2 = poly_subset_expansion(g, b2).signless_coefficients(top)
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
    budget: int = DEFAULT_BUDGET,
) -> tuple[bool, BFunction | None]:
    """Whether every locally zero-sum b admits a nowhere-zero flow.

    Counts via the subset-expansion polynomial evaluated at |A| and
    cross-checks each count against the brute-force oracle; on failure the
    witness b with count zero is returned.  The budget caps the |A|^(n-c)
    boundary functions tried and, for each of them, the brute-force
    enumeration and the plan states of the subset expansion.
    """
    if spec.order < 2:
        raise InputError("connectivity needs a group of order >= 2")
    for b in enumerate_zero_sum(g, spec, budget=budget):
        via_poly = poly_subset_expansion(g, b, budget=budget).eval(spec.order)
        via_brute = count_nz_flows_bruteforce(g, b, budget=budget)
        if via_poly != via_brute:
            raise ConsistencyError(
                f"polynomial count {via_poly} disagrees with brute force {via_brute}"
            )
        if via_poly == 0:
            return False, b
    return True, None
