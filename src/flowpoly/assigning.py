"""Assignings and the two polynomial algorithms built on them.

The polynomial that counts nowhere-zero flows with boundary b is computed
two independent ways.  Both run edge by edge over the same cached plan,
``graphs._edge_plan``, and carry the same state: the blocks of the kept
edges as one character per vertex not yet closed, in the plan's closing
order, every vertex of a block holding one label that names both the
block's root (the member that closes last) and its b-sum.  A step closes
the next vertices of that order, so closing drops a prefix of the string.
They share no other code.

* ``poly_subset_expansion``: sum (-1)^|S| k^m(G-S) over edge subsets S whose
  removal leaves the graph compatible with b.  The terms depend on S only
  through the blocks of G - S and their b-sums, so the sum runs over those
  states (the transfer-matrix method for Tutte-type polynomials) instead of
  over the 2^m subsets.  ``poly_subset_expansions`` runs several b of one
  group through one loop, one slot of each state's value per b, so a
  state that several b reach is stepped once.
* ``poly_nbb``: signless coefficients a_i counted as the compatible i-edge
  subsets containing no compatible broken bond for a chosen edge order.
  Whether a partial S can still be completed depends only on its blocks and
  on which broken bonds it has wholly deleted so far, so the subsets are
  counted by size over those states.  The bonds come from the one cached
  walk of ``graphs.side_cuts`` as pairs of masks: the side X holding its
  component's least vertex, and the cut E[X, W - X] in the plan's edge
  bits.  A bond of a b-compatible graph is compatible exactly when b sums
  to zero on X, and its broken bond is the cut minus its top-ranked bit.
  ``b_compatible_bonds`` and ``broken_bonds`` apply the same rule and turn
  the masks into edge ids.  ``poly_nbb_orders`` counts under several orders
  from one compatibility check and one pass of bond sums, and runs one
  state loop per distinct family of broken bonds.

Both polynomials depend on b only through its assigning α, which
``induced_assigning`` returns as an int with one bit per member of
``lambda_family(g)``, set where ``flows.block_sums`` is nonzero.
``zero_sum_assignings`` gives the same bits for every zero-sum b of one
(graph, group), with each b's index tuple and its compatibility verdict,
from one pass of ``flows.block_sum_columns`` per chunk of b; the
verification harness and ``is_A_connected`` key their classes of boundary
functions by it.
Whether G - S is compatible with b depends only on the blocks of G - S:
for graphs of at most 10 edges, ``_structure`` lists each distinct block
of every G - S with the set of subsets S whose G - S has it, and
``compat_signature`` returns the compatible subsets as one int, bit S for
subset mask S, from one ``block_sums`` call over those blocks.  Only the
harness's per-subset lemma suites read it.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import not_
from typing import Iterator, Sequence

from .abelian import GroupSpec, index_tables
from .errors import BudgetError, ConsistencyError, InputError
from .flows import (
    DEFAULT_BUDGET,
    BFunction,
    _check_vertex_function,
    _guard,
    block_sum_columns,
    block_sums,
    column_rows,
    nonzero_bits,
    nz_flow_index_counts,
    require_compatible,
    zero_sum_columns,
)
from .graphs import (
    EdgeSet,
    MultiGraph,
    _edge_plan,
    _lambda_family_cached,
    _plan_edge_sets,
    components,
    cycle_rank,
    side_cuts,
)
from .polynomial import IntPolynomial

_TABLE_MAX_EDGES = 10
_LOOP_BITS = 1 << 13  # the most bits of slots one subset-expansion loop packs into a value


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


def induced_assigning(g: MultiGraph, b: BFunction) -> int:
    """The assigning of b as an int: bit i is set when b sums to nonzero on
    the i-th member of ``lambda_family(g)``.  An assigning a is pointwise at
    most a2 exactly when ``a & ~a2 == 0``."""
    _check_vertex_function(g, b)
    bits = 0
    for i, total in enumerate(block_sums(b, _lambda_family_cached(g))):
        if total:
            bits |= 1 << i
    return bits


def zero_sum_assignings(
    g: MultiGraph, spec: GroupSpec, *, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[tuple[int, ...], int, bool]]:
    """For each locally zero-sum b, in the order of ``enumerate_zero_sum``:
    its element indices (the form of ``BFunction.indices``), its assigning
    as ``induced_assigning`` gives it, and whether b sums to zero on every
    component, as ``is_b_compatible`` decides.

    Each chunk of ``flows.zero_sum_columns`` costs one ``block_sum_columns``
    pass over Λ(G) and the components.  The nonzero flags of members 8j to
    8j + 7 are packed into the bits of one byte column, so row t's bytes
    across those columns, read little-endian, are its assigning.  The
    verdict is read from the component-sum columns, not assumed from how
    the b were built.  The budget caps the |A|^(|V| - c(G)) b, and
    BudgetError is raised before any column is built.
    """
    for size, columns in zero_sum_columns(g, spec, budget=budget):
        # Read after the budget guard, from the caches, once per chunk.
        family = _lambda_family_cached(g)
        comps = components(g)
        sums = block_sum_columns(spec, size, columns, family + comps)
        packed = [0] * (len(family) + 7 >> 3)
        for i, column in enumerate(sums[: len(family)]):
            packed[i >> 3] |= nonzero_bits(column, i & 7)
        bytes_columns = [bits.to_bytes(size, "little") for bits in packed]
        if len(bytes_columns) == 1:
            alphas = bytes_columns[0]
        elif bytes_columns:
            alphas = map(int.from_bytes, zip(*bytes_columns), repeat("little"))
        else:
            alphas = repeat(0, size)
        bad = 0
        for column in sums[len(family) :]:
            bad |= nonzero_bits(column, 0)
        verdicts = map(not_, bad.to_bytes(size, "little"))
        yield from zip(column_rows(size, columns), alphas, verdicts)


# ---------------------------------------------------------------------------
# Per-subset compatibility, for the harness's lemma suites.


@dataclass(frozen=True)
class _SubsetStructure:
    blocks: tuple[tuple[int, ...], ...]  # each distinct block of every G - S
    holders: tuple[int, ...]  # per block: bit S set when G - S has it


@lru_cache(maxsize=4096)
def _structure(g: MultiGraph) -> _SubsetStructure:
    """Each distinct block of G - S over all masks S (bit i is the edge at
    position i), with the masks whose G - S has it.

    Read by ``compat_signature``.  The walk needs no union-find: it carries
    each partition as a tuple of least-vertex block labels, and a kept edge
    between two blocks relabels the higher label to the lower.  Edges are
    decided from the last position down, keep before delete, so leaves
    arrive in increasing mask order.  Blocks list their vertices in
    increasing order and follow first occurrence.
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
    partitions: dict[tuple[int, ...], int] = {}
    for mask, labels in enumerate(leaves):
        partitions[labels] = partitions.get(labels, 0) | 1 << mask
    holders: dict[tuple[int, ...], int] = {}
    for labels, masks in partitions.items():
        members: dict[int, list[int]] = {}
        for v, label in enumerate(labels):
            members.setdefault(label, []).append(v)
        for block in map(tuple, members.values()):
            holders[block] = holders.get(block, 0) | masks
    return _SubsetStructure(tuple(holders), tuple(holders.values()))


def compat_signature(g: MultiGraph, b: BFunction) -> int:
    """The edge subsets whose removal leaves g compatible with b, as an int:
    bit S is set exactly when every block of G - S sums to zero under b,
    for S the mask with bit i for the edge at position i.

    A subset is incompatible when some block of G - S has a nonzero sum, so
    the result is the complement of the masks holding such a block.  Only
    available while the subsets fit (edge count at most 10); above that,
    BudgetError.  It and ``induced_assigning`` determine each other on one
    graph.
    """
    if g.edge_count > _TABLE_MAX_EDGES:
        raise BudgetError("compat signatures hold one bit per edge subset (at most 10 edges)")
    _check_vertex_function(g, b)
    table = _structure(g)
    bad = 0
    for masks, total in zip(table.holders, block_sums(b, table.blocks)):
        if total:
            bad |= masks
    return ~bad & (1 << (1 << g.edge_count)) - 1


def poly_subset_expansion(
    g: MultiGraph, b: BFunction, *, budget: int = DEFAULT_BUDGET
) -> IntPolynomial:
    """The counting polynomial via the compatible spanning-subgraph expansion.

    Evaluated at the order of any finite Abelian group A' admitting a b' with
    the same induced assigning, it gives the number of nowhere-zero
    (A', b')-flows; in particular at |A| it counts the nowhere-zero
    (A, b)-flows themselves.

    The sum over S runs edge by edge, in the order of ``_edge_plan``, over
    states instead of subsets.  The plan numbers the vertices by closing
    rank (a vertex closes once its last edge is decided), and the kept
    edges split them into blocks, each rooted at the member that closes
    last.  A state is a string with one character per vertex not yet
    closed, by closing rank, with q the group's order: every vertex of a
    block holds its label, chr(1 + root * q + s) for the root's closing rank
    and the block's b-sum s as a group-element index.  Keeping an edge
    between two blocks replaces both labels with the merged one, whose root
    the greater label names.  A step that closes k vertices drops the first
    k characters: a vertex whose label is below chr(1 + (rank + 1) * q) is
    its block's root, and the whole block closes with it.  Labels reach
    n * q, so BudgetError is raised before any table is built when that
    passes ``sys.maxunicode``.  A state's value is the sum of
    (-1)^kept k^(kept edges + closed blocks) over the decided edges that
    reach it: deleting an edge copies the value, keeping one multiplies it
    by -k and merges the blocks of its ends.  Since |S| = steps - kept, the
    total is negated once at the end when the steps are odd.  A block that
    closes with a nonzero b-sum leaves G - S incompatible and drops the
    state; a zero sum is one more component, a factor k.  Vertices with no
    edge but loops never close and are one component each, so
    m(G - S) = kept + components - n = kept + closed blocks - closed, and
    the final value is shifted down one digit per closed vertex.  No term
    falls below that: a closed block of s vertices keeps at least s - 1
    edges.  Loops join no blocks, so each multiplies by k - 1.  Values are
    polynomials packed into one int, in balanced base-2^(m + 2) digits,
    which hold every partial coefficient (at most 2^m in size).  The work
    is the states built, summed over the steps; BudgetError is raised once
    that sum exceeds the budget.  This is ``poly_subset_expansions`` with
    one b, which runs the loop.
    """
    return poly_subset_expansions(g, (b,), budget=budget)[0]


def poly_subset_expansions(
    g: MultiGraph, bs: Sequence[BFunction], *, budget: int = DEFAULT_BUDGET
) -> list[IntPolynomial]:
    """``poly_subset_expansion`` of each b in turn, several b to one state loop.

    The b must share one group and have one value per vertex, else
    InputError; an empty batch returns [].  Then, as in
    ``poly_subset_expansion``, BudgetError is raised when the labels
    overflow, and each b's compatibility is checked in the batch's order,
    so the first incompatible b raises IncompatibleError.  A state is the
    string of ``poly_subset_expansion``, and every b starts from its own.
    Its value packs one signed polynomial per b, the i-th b's in slot i of
    W = w * (m + n + 2) bits, w = m + 2, so adding two values adds their
    slots, and shifting one shifts every slot by the same digits.  A state
    that several b reach is stored and stepped once.  A block that closes
    with a nonzero sum drops the state for every b packed in it: they all
    share its labels, and so the sums the labels name.  The slots stay
    apart: before the final shift, a b's value has degree at most m + n
    (one digit per kept edge and per closed block), and each coefficient is
    at most 2^m < 2^(w - 1) in size, so the value is below 2^(w(m + n + 1)
    - 1) < 2^(W - 1) in size and the balanced base-2^W digits of the total
    are the slots.  A batch of one builds exactly the states a single loop
    built.  A value of s slots costs s * W bits in every add and shift, so
    a batch wider than ``_LOOP_BITS`` runs one loop per run of b that fits:
    unsplit, the 428 classes of K6 over Z4 took twice as long as 428
    single loops.  The budget caps the states built, summed over the steps
    of every loop: a state that several b of one loop share counts once.
    """
    if not bs:
        return []
    spec = bs[0].spec
    for b in bs:
        if b.spec is not spec and b.spec != spec:
            raise InputError(f"one batch mixes the groups {spec} and {b.spec}")
        _check_vertex_function(g, b)
    q = spec.order
    if g.vertex_count * q > sys.maxunicode:
        raise BudgetError(f"{g.vertex_count} vertices over {spec} overflow the block labels")
    for b in bs:
        require_compatible(g, b)
    _, loops, ranked, steps = _edge_plan(g)
    add, _ = index_tables(spec)
    w = g.edge_count + 2
    slot = w * (w + g.vertex_count)
    per_loop = _LOOP_BITS // slot or 1
    if len(bs) > per_loop:
        runs = [bs[first : first + per_loop] for first in range(0, len(bs), per_loop)]
    else:  # spares every single-b call the comprehension
        runs = [bs]
    work = 0
    polys = []
    for run in runs:
        closed = 0
        # Before its first edge every vertex is a block of its own.
        states: dict[str, int] = {}
        one = 1  # the unit of the next b's slot
        for b in run:
            idx = b.indices
            codes = "".join([chr(1 + p * q + idx[v]) for p, v in enumerate(ranked)])
            states[codes] = states.get(codes, 0) + one
            one <<= slot
        for x, y, k in steps:
            out = states.copy()
            get = out.get
            for codes, value in states.items():
                la = codes[x]
                lc = codes[y]
                if la != lc:
                    if la < lc:  # lc's block has the greater root
                        la, lc = lc, la
                    sa = (ord(la) - 1) % q
                    joined = chr(ord(la) - sa + add[sa][(ord(lc) - 1) % q])
                    codes = codes.replace(la, joined).replace(lc, joined)
                out[codes] = get(codes, 0) - (value << w)
            work += len(out)
            _guard(work, budget, "plan states")
            if not k:
                states = out
                continue
            # The vertex of rank r roots its block, which then closes, when
            # its label is below chr(1 + (r + 1) * q); chr(1 + r * q) is a
            # zero sum.
            states = {}
            if k == 1:
                zero = chr(1 + closed * q)
                shut = chr(1 + closed * q + q)
                for codes, value in out.items():
                    label = codes[0]
                    if label < shut:
                        if label != zero:
                            continue  # the block closes with a nonzero b-sum
                        value <<= w
                    codes = codes[1:]
                    states[codes] = states.get(codes, 0) + value
            else:
                bounds = [(chr(1 + r * q), chr(1 + r * q + q)) for r in range(closed, closed + k)]
                for codes, value in out.items():
                    for label, (zero, shut) in zip(codes, bounds):
                        if label < shut:
                            if label != zero:
                                break  # the block closes with a nonzero b-sum
                            value <<= w
                    else:
                        codes = codes[k:]
                        states[codes] = states.get(codes, 0) + value
            closed += k
        # Every slot's value is a multiple of k^closed, so the shift, the
        # sign and the loops act on all of them at once.
        packed = sum(states.values()) >> w * closed
        if len(steps) % 2:
            packed = -packed
        for _ in range(loops):
            packed = (packed << w) - packed
        for _ in range(len(run) - 1):
            half = 1 << slot - 1
            total = (packed + half & (half << 1) - 1) - half  # the balanced base-2^W digit
            polys.append(IntPolynomial(_unpack(total, w)))
            packed = (packed - total) >> slot
        polys.append(IntPolynomial(_unpack(packed, w)))  # the top slot is what is left
    return polys


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
    """Bonds whose removal leaves the graph compatible with b, in bonds() order.

    In a compatible graph, removing E[X, W - X] leaves every component but
    X and W - X alone, and b sums to zero on W, so the bond is compatible
    exactly when b sums to zero on its side X.
    """
    _check_vertex_function(g, b)
    require_compatible(g, b)
    return sorted(_plan_edge_sets(g, _compatible_cuts(g, b)), key=sorted)


def broken_bonds(
    g: MultiGraph, b: BFunction, order: EdgeOrder | None = None
) -> list[EdgeSet]:
    """Each compatible bond minus its greatest edge, duplicates merged.

    With no order given, the edge ids are the order (``poly_nbb`` takes its
    plan's own order instead).
    """
    rank = _plan_ranks(g, order or EdgeOrder.default(g))
    _check_vertex_function(g, b)
    require_compatible(g, b)
    (masks,) = _broken_families(_compatible_cuts(g, b), [rank])
    return sorted(_plan_edge_sets(g, masks), key=sorted)


def _plan_ranks(g: MultiGraph, order: EdgeOrder) -> list[int]:
    """The rank of each plan bit's edge in a validated order."""
    order.validate_for(g)
    edge_bit, _, _, steps = _edge_plan(g)
    rank = [0] * len(steps)
    for r, edge_id in enumerate(order.sequence):
        bit = edge_bit.get(edge_id)  # loops have no bit
        if bit:
            rank[bit.bit_length() - 1] = r
    return rank


def _compatible_cuts(g: MultiGraph, b: BFunction) -> list[int]:
    """The cut in plan bits of each bond compatible with b.

    b must be compatible with g.  A bond is compatible when b sums to zero
    on its side.
    """
    add, _ = index_tables(b.spec)
    nonzero = [(1 << v, i) for v, i in enumerate(b.indices) if i]
    out = []
    for side, cut in side_cuts(g):
        # Summed by hand, not by block_sums: the sides are vertex masks,
        # and only b's nonzero vertices need scanning.
        total = 0
        for bit, i in nonzero:
            if side & bit:
                total = add[total][i]
        if not total:
            out.append(cut)
    return out


def _broken_families(
    cuts: list[int], ranks: Sequence[list[int] | None]
) -> list[frozenset[int]]:
    """The broken bonds of the cuts in plan bits, one family per rank.

    A broken bond is its cut minus the top-ranked bit: the highest bit when
    the rank is None, else the bit of greatest rank.
    """
    families = []
    for rank in ranks:
        if rank is None:
            families.append(frozenset([cut ^ 1 << cut.bit_length() - 1 for cut in cuts]))
            continue
        broken = []
        for cut in cuts:
            best = -1
            rest = cut
            while rest:
                low = rest & -rest
                r = rank[low.bit_length() - 1]
                if r > best:
                    best, top = r, low
                rest ^= low
            broken.append(cut ^ top)
        families.append(frozenset(broken))
    return families


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
    The a_i do not depend on the order.  With no order given, the count runs
    under the plan's own order: the non-loop edges by their step, then the
    loops.  ``broken_bonds`` with no order still takes the edge ids.  This
    is ``poly_nbb_orders`` with one order, which runs the count below.

    The bonds come from ``side_cuts``: a side mask, and a cut mask with bit
    r for the edge of step r.  A bond is compatible when b sums to zero
    on its side, and its broken bond is the cut minus its top-ranked bit:
    the highest bit under the plan's order, else the bit whose edge comes
    last in the given order.  Duplicates merge as ints; no edge-id set is
    built.  A broken bond is live from the step of its first edge to the
    step of its last, and under the plan's order it drops its last-decided
    edge, which keeps those windows short and few at once.

    The subsets are counted edge by edge, in the order of ``_edge_plan``,
    over states instead of subsets.  A state is a pair.  Its string is the
    one of ``poly_subset_expansion``: a character per vertex not yet closed,
    by closing rank, holding its block's label chr(1 + root * q + s), where
    the root is the member that closes last; labels reach n * q, and
    BudgetError is raised before any table is built when that passes
    ``sys.maxunicode``.  Its int, live, has the bits of the broken bonds
    whose first edge is decided and whose edges so far are all deleted.
    Deleting the last edge of a live bond would put the bond inside S, so
    that branch is dropped; keeping an edge of a bond clears its bit.  A
    step that closes k vertices drops the first k characters, and a block
    that closes with its root with a nonzero b-sum leaves G - S
    incompatible and drops the state.  A value counts the subsets reaching
    its state by |S|, packed into one int in base-2^(m + 2) digits, so
    deleting an edge shifts it one digit up.  Loops lie in no bond and change no block, so each
    doubles the count: S holds it or not.  The budget caps the states built,
    summed over the steps, as in ``poly_subset_expansion``; the bond sides
    walked for the broken bonds are not counted.
    """
    return poly_nbb_orders(g, b, (order,), budget=budget)[0]


def poly_nbb_orders(
    g: MultiGraph,
    b: BFunction,
    orders: Sequence[EdgeOrder | None],
    *,
    budget: int = DEFAULT_BUDGET,
) -> list[IntPolynomial]:
    """``poly_nbb`` under each order in turn, None standing for the plan's own.

    Every order is validated before compatibility is checked, and that is
    checked once.  The compatible cuts come from one pass of bond sums.  If
    one of them is a single edge, its broken bond is empty and lies in every
    S, so the polynomial is zero under every order and no state loop runs.
    Otherwise the count reads the order only through the family of broken
    bonds, so orders with equal families share one state loop; the result
    lives for this call alone.  Each loop counts its own states against the
    budget, as a ``poly_nbb`` call does.
    """
    _check_vertex_function(g, b)
    q = b.spec.order
    if g.vertex_count * q > sys.maxunicode:
        raise BudgetError(f"{g.vertex_count} vertices over {b.spec} overflow the block labels")
    _, loops, ranked, steps = _edge_plan(g)
    ranks = [None if order is None else _plan_ranks(g, order) for order in orders]
    require_compatible(g, b)
    cuts = _compatible_cuts(g, b)
    top = cycle_rank(g)
    for cut in cuts:
        if not cut & cut - 1:  # a single-edge bond: its broken bond, empty, lies in every S
            return [IntPolynomial.from_signless([0] * (top + 1), top)] * len(ranks)
    families = _broken_families(cuts, ranks)
    add, _ = index_tables(b.spec)
    idx = b.indices
    w = g.edge_count + 2
    polys: dict[frozenset[int], IntPolynomial] = {}
    for family in families:
        if family in polys:
            continue
        broken = list(family)
        # Bond j has bit j: in start at its first step, in end at its last,
        # and in inside at each of its steps.
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
        closed = work = 0
        # Before its first edge every vertex is a block of its own.
        states = {("".join([chr(1 + p * q + idx[v]) for p, v in enumerate(ranked)]), 0): 1}
        for (x, y, k), first, last, within in zip(steps, start, end, inside):
            out: dict[tuple[str, int], int] = {}
            get = out.get
            for (codes, live), value in states.items():
                if not last & (live | first):
                    key = (codes, (live | first) & ~last)
                    out[key] = get(key, 0) + (value << w)
                la = codes[x]
                lc = codes[y]
                if la != lc:
                    if la < lc:  # lc's block has the greater root
                        la, lc = lc, la
                    sa = (ord(la) - 1) % q
                    joined = chr(ord(la) - sa + add[sa][(ord(lc) - 1) % q])
                    codes = codes.replace(la, joined).replace(lc, joined)
                key = (codes, live & ~within)
                out[key] = get(key, 0) + value
            work += len(out)
            _guard(work, budget, "plan states")
            if not k:
                states = out
                continue
            # As in poly_subset_expansion: the vertex of rank r closes its
            # block when its label is below chr(1 + (r + 1) * q).
            states = {}
            if k == 1:
                zero = chr(1 + closed * q)
                shut = chr(1 + closed * q + q)
                for (codes, live), value in out.items():
                    label = codes[0]
                    if label < shut and label != zero:
                        continue  # the block closes with a nonzero b-sum
                    key = (codes[1:], live)
                    states[key] = states.get(key, 0) + value
            else:
                bounds = [(chr(1 + r * q), chr(1 + r * q + q)) for r in range(closed, closed + k)]
                for (codes, live), value in out.items():
                    for label, (zero, shut) in zip(codes, bounds):
                        if label < shut and label != zero:
                            break  # the block closes with a nonzero b-sum
                    else:
                        key = (codes[k:], live)
                        states[key] = states.get(key, 0) + value
            closed += k
        total = sum(states.values())
        for _ in range(loops):
            total += total << w
        digit = (1 << w) - 1
        counts = [0] * (top + 1)
        for size in range(g.edge_count + 1):
            count = total >> size * w & digit
            if not count:
                continue
            if size > top:
                raise ConsistencyError(
                    f"a {size}-edge subset survived although m(G) = {top}"
                )
            counts[size] = count
        polys[family] = IntPolynomial.from_signless(counts, top)
    return [polys[family] for family in families]


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
    budget: int = DEFAULT_BUDGET,
) -> CoefficientComparison:
    """Compare the signless coefficient vectors induced by b and b2.

    The two functions may live over different groups; their assignings are
    ints over the same lambda family, compared bit by bit.  Both polynomials
    are computed independently rather than assuming the monotonicity
    theorem, so a violation shows up as an inconsistent report.  When b and
    b2 share a group, one ``poly_subset_expansions`` call computes both,
    each in its own slot from its own b; otherwise each gets its own call.
    The budget caps the plan states of each state loop.
    """
    require_compatible(g, b)
    require_compatible(g, b2)
    alpha1 = induced_assigning(g, b)
    alpha2 = induced_assigning(g, b2)
    top = cycle_rank(g)
    if b.spec == b2.spec:
        polys = poly_subset_expansions(g, (b, b2), budget=budget)
    else:
        polys = [poly_subset_expansion(g, x, budget=budget) for x in (b, b2)]
    signless1, signless2 = (poly.signless_coefficients(top) for poly in polys)
    return CoefficientComparison(
        pointwise_le=not alpha1 & ~alpha2,
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

    The b come from ``zero_sum_assignings``.  The count of b depends only
    on its assigning α, so the subset expansion is shared per α: it runs
    once for each distinct α, from the first b that has it, and its value
    at |A| is the count of every b with that α.  Each b's brute-force count,
    read from the nowhere-zero boundary histogram, is still checked against
    that value, and on failure the first b in enumeration order with count
    zero is returned as the witness.  The budget caps the |A|^(n-c)
    boundary functions tried, the brute-force enumeration and the plan
    states of each subset expansion.
    """
    if spec.order < 2:
        raise InputError("connectivity needs a group of order >= 2")
    values: dict[int, int] = {}
    counts = None
    for indices, alpha, _ in zero_sum_assignings(g, spec, budget=budget):
        via_poly = values.get(alpha)
        if via_poly is None:
            b = BFunction.from_indices(spec, indices)
            via_poly = values[alpha] = poly_subset_expansion(g, b, budget=budget).eval(spec.order)
        if counts is None:  # after the first expansion, whose guards come first
            counts = nz_flow_index_counts(g, spec, budget=budget)
        via_brute = counts.get(indices, 0)
        if via_poly != via_brute:
            raise ConsistencyError(
                f"polynomial count {via_poly} disagrees with brute force {via_brute}"
            )
        if via_poly == 0:
            return False, BFunction.from_indices(spec, indices)
    return True, None
