"""Multigraph values and the component/cut machinery built on them.

Graphs are immutable: a vertex count plus an ordered tuple of oriented
edges.  Loops and parallel edges are allowed.  Edge ids double as the
default total order on edges, so subgraph operations preserve the original
ids (they stay strictly increasing but may become sparse).  ``broken_bonds``
takes that order when given none; ``poly_nbb`` counts under its edge plan's
order instead, since its coefficients do not depend on the order.

The edge plan that both polynomial routes run over, ``_edge_plan``, lives
here, as does ``side_cuts``: the one cached walk over bond sides, which
every reader of bonds shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import InputError

VertexSet = frozenset[int]
EdgeSet = frozenset[int]


@dataclass(frozen=True)
class Edge:
    id: int
    tail: int
    head: int

    @property
    def is_loop(self) -> bool:
        return self.tail == self.head


@dataclass(frozen=True)
class MultiGraph:
    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise InputError("vertex count must be >= 0")
        object.__setattr__(self, "edges", tuple(self.edges))
        previous = -1
        for edge in self.edges:
            if edge.id <= previous:
                raise InputError("edge ids must be strictly increasing")
            previous = edge.id
            for endpoint in (edge.tail, edge.head):
                if not 0 <= endpoint < self.vertex_count:
                    raise InputError(
                        f"edge {edge.id} endpoint {endpoint} out of range for n={self.vertex_count}"
                    )

    def __hash__(self) -> int:
        # Every lru_cache lookup hashes the graph: compute it once per instance.
        try:
            return self._hash
        except AttributeError:
            value = hash((self.vertex_count, self.edges))
            object.__setattr__(self, "_hash", value)
            return value

    @classmethod
    def from_pairs(cls, vertex_count: int, pairs: Iterable[tuple[int, int]]) -> "MultiGraph":
        """Build a graph with dense edge ids from (tail, head) pairs."""
        edges = tuple(Edge(i, t, h) for i, (t, h) in enumerate(pairs))
        return cls(vertex_count, edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def edge_ids(self) -> tuple[int, ...]:
        # Read by every EdgeOrder built or validated: computed once, as the hash is.
        try:
            return self._edge_ids
        except AttributeError:
            ids = tuple(e.id for e in self.edges)
            object.__setattr__(self, "_edge_ids", ids)
            return ids

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((e.tail, e.head) for e in self.edges)

    def position_of(self, edge_id: int) -> int:
        for pos, edge in enumerate(self.edges):
            if edge.id == edge_id:
                return pos
        raise InputError(f"unknown edge id {edge_id}")


@lru_cache(maxsize=4096)
def components(g: MultiGraph) -> tuple[VertexSet, ...]:
    """Connected-component vertex partition, blocks sorted by least member."""
    adj = _adjacency(g)
    seen = [False] * g.vertex_count
    blocks: list[VertexSet] = []
    for start in range(g.vertex_count):
        if seen[start]:
            continue
        seen[start] = True
        block = [start]
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    block.append(w)
                    stack.append(w)
        blocks.append(frozenset(block))
    return tuple(blocks)


def component_count(g: MultiGraph) -> int:
    """c(G); zero for the graph with no vertices."""
    return len(components(g))


def cycle_rank(g: MultiGraph) -> int:
    """|E| - |V| + c(G), the exponent governing flow counts."""
    return g.edge_count - g.vertex_count + component_count(g)


def delete_edges(g: MultiGraph, edge_ids: Iterable[int]) -> MultiGraph:
    """Spanning subgraph G - S; surviving edges keep their original ids."""
    doomed = frozenset(edge_ids)
    known = set(g.edge_ids)
    for edge_id in doomed:
        if edge_id not in known:
            raise InputError(f"unknown edge id {edge_id}")
    return MultiGraph(g.vertex_count, tuple(e for e in g.edges if e.id not in doomed))


def induced_subgraph(g: MultiGraph, vertices: Iterable[int]) -> MultiGraph:
    """G[X]: the kept vertices (relabelled by rank in sorted order) and every
    edge of G with both endpoints in X, loops included.  Edge ids survive."""
    kept = sorted(set(vertices))
    for v in kept:
        if not 0 <= v < g.vertex_count:
            raise InputError(f"unknown vertex id {v}")
    relabel = {v: i for i, v in enumerate(kept)}
    edges = tuple(
        Edge(e.id, relabel[e.tail], relabel[e.head])
        for e in g.edges
        if e.tail in relabel and e.head in relabel
    )
    return MultiGraph(len(kept), edges)


def reverse_edge(g: MultiGraph, edge_id: int) -> MultiGraph:
    """The same graph with one edge's orientation flipped."""
    pos = g.position_of(edge_id)
    edges = list(g.edges)
    old = edges[pos]
    edges[pos] = Edge(old.id, old.head, old.tail)
    return MultiGraph(g.vertex_count, tuple(edges))


def _adjacency(g: MultiGraph) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for edge in g.edges:
        if not edge.is_loop:
            adj[edge.tail].append(edge.head)
            adj[edge.head].append(edge.tail)
    return adj


# (x, y, k) per decided edge; see _edge_plan.
_Decision = tuple[int, int, int]


@lru_cache(maxsize=4096)
def _edge_plan(
    g: MultiGraph,
) -> tuple[dict[int, int], int, tuple[int, ...], tuple[_Decision, ...]]:
    """(2^rank for each non-loop edge id, by rank, loop count, closing order,
    steps) for both routes.

    Vertices are placed one at a time, each component from its least vertex,
    and a placed vertex brings its edges to the vertices placed before it, in
    edge-list order.  Both routes build more states the more vertices are
    open (placed, with edges still to decide), so the next vertex is the
    unplaced neighbour of the placed ones that leaves the fewest open: +1 if
    it keeps edges to unplaced vertices, -1 for each placed neighbour with
    one edge left, which it closes.  That misses a neighbour whose last edges
    are all parallel edges to it, which costs width, never correctness.  Ties
    go to the most edges back to placed vertices, then the least label.

    A vertex closes at the step that decides its last edge.  The closing
    order lists the vertices by closing rank: those that close, in step
    order, then those that never close (no edge but loops), by label.  Step
    r decides the edge of rank r and closes k vertices, the next k in the
    closing order; its ends x and y are positions in the closing order less
    the vertices closed before step r, so the routes can index a state
    string that holds only the vertices not yet closed.
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
    left = [len(ends) for ends in adj]  # edges still to decide
    back = [0] * n  # edges to placed vertices
    placed = [False] * n
    edge_bit: dict[int, int] = {}
    ends: list[tuple[int, int, int, int]] = []  # (u, v, closed before, closed after)
    order: list[int] = []  # the closing order so far
    for root in range(n):
        if placed[root]:
            continue
        frontier = [root]  # unplaced vertices next to placed ones
        while frontier:
            v = frontier[0]
            if len(frontier) > 1:
                best = None
                for z in frontier:
                    opened = left[z] > back[z]
                    for u, _ in adj[z]:
                        if placed[u] and left[u] == 1:
                            opened -= 1
                    key = (opened, -back[z], z)
                    if best is None or key < best:
                        v, best = z, key
            frontier.remove(v)
            placed[v] = True
            for u, edge_id in adj[v]:
                if placed[u]:
                    edge_bit[edge_id] = 1 << len(ends)
                    before = len(order)
                    left[u] -= 1
                    left[v] -= 1
                    if not left[u]:
                        order.append(u)
                    if not left[v]:
                        order.append(v)
                    ends.append((u, v, before, len(order)))
                else:
                    if not back[u]:
                        frontier.append(u)
                    back[u] += 1
    order += [v for v in range(n) if not adj[v]]
    rank = [0] * n
    for p, v in enumerate(order):
        rank[v] = p
    steps = tuple(
        [(rank[u] - before, rank[v] - before, after - before) for u, v, before, after in ends]
    )
    return edge_bit, loops, tuple(order), steps


def bonds(g: MultiGraph) -> list[EdgeSet]:
    """All bonds (minimal nonempty edge cuts), each once, lexicographic.

    A bond lives inside a single component W and is the crossing edge set
    E[X, W - X] of a split of W into two connected halves; loops never
    appear.
    """
    return [bond for bond, _ in bond_sides(g)]


@lru_cache(maxsize=4096)
def bond_sides(g: MultiGraph) -> tuple[tuple[EdgeSet, VertexSet], ...]:
    """Every bond E[X, W - X] with its anchored side X, in bonds() order.

    X is the half holding the least vertex of W, which also deduplicates the
    two halves; every such X is a member of the lambda family.  This is the
    frozenset view of ``side_cuts``, the one walk over bond sides that the
    broken-bond route reads as masks.
    """
    cuts = side_cuts(g)
    edge_sets = _plan_edge_sets(g, [cut for _, cut in cuts])
    found = [(bond, frozenset(_bits(side))) for bond, (side, _) in zip(edge_sets, cuts)]
    return tuple(sorted(found, key=lambda pair: sorted(pair[0])))


@lru_cache(maxsize=4096)
def side_cuts(g: MultiGraph) -> tuple[tuple[int, int], ...]:
    """(X, E[X, W - X]) as masks for every bond, in no particular order.

    X is a vertex mask: the connected side holding the least vertex of its
    component W, with W - X connected too.  The cut has bit r for the edge
    that step r of ``_edge_plan`` decides, and is grown by XOR-ing in each
    vertex's mask of incident steps as the side takes it; loops have no bit.

    The walk grows connected sides from the anchor, and each side it grows
    costs one reach through W - X: from the least vertex the side may not
    take, or from the least vertex of W - X when it may take them all.  If
    the reach covers W - X, X is a bond's side.  If it misses a vertex the
    side may not take, no larger side leaves a connected complement, since
    those vertices stay outside every larger side, and the walk goes no
    further from X.  If it starts from a vertex the side may not take and
    misses only vertices the side may take, every larger side with a
    connected complement takes those, so X takes them in one step.
    """
    near = [0] * g.vertex_count  # neighbour bitmasks
    incidence = [0] * g.vertex_count  # incident steps
    _, _, order, steps = _edge_plan(g)
    closed = 0
    for r, (x, y, k) in enumerate(steps):
        x, y = order[closed + x], order[closed + y]
        closed += k
        near[x] |= 1 << y
        near[y] |= 1 << x
        incidence[x] |= 1 << r
        incidence[y] |= 1 << r

    def reach(start: int, mask: int) -> int:
        """The vertices of mask connected to the vertex bit start within mask."""
        reached = grown = start
        while grown:
            step = 0
            while grown:
                low = grown & -grown
                step |= near[low.bit_length() - 1]
                grown ^= low
            grown = step & mask & ~reached
            reached |= grown
        return reached

    found: list[tuple[int, int]] = []
    for comp in components(g):
        if len(comp) < 2:
            continue
        anchor = min(comp)
        whole = sum(1 << v for v in comp)
        # Grow the connected sides that hold the anchor.  An entry is a
        # side, the neighbours it may still take, the vertices it may not
        # take and its cut.  The branch that takes one neighbour may not
        # take those of the branches before it, so each side comes once.
        stack = [(1 << anchor, near[anchor], 0, incidence[anchor])]
        while stack:
            side, ext, banned, cut = stack.pop()
            rest = whole ^ side
            if not rest:
                continue
            start = banned or rest
            reached = reach(start & -start, rest)
            if banned and reached != rest:
                if banned & ~reached:
                    continue
                # The missed parts of W - X touch only X, so taking them
                # adds no neighbour to ext.
                for v in _bits(rest ^ reached):
                    cut ^= incidence[v]
                side |= rest ^ reached
                ext &= reached
                rest = reached
            if reached == rest:
                found.append((side, cut))
            while ext:
                low = ext & -ext
                ext ^= low
                v = low.bit_length() - 1
                grown = side | low
                stack.append(
                    (grown, ext | near[v] & ~grown & ~banned, banned, cut ^ incidence[v])
                )
                banned |= low
    return tuple(found)


def _plan_edge_sets(g: MultiGraph, masks: Iterable[int]) -> list[EdgeSet]:
    """Masks in the bits of ``_edge_plan`` as edge-id sets, in the given order."""
    ids = tuple(_edge_plan(g)[0])  # edge ids by plan bit
    return [frozenset([ids[i] for i in _bits(mask)]) for mask in masks]


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bridges(g: MultiGraph) -> list[int]:
    """Edge ids whose removal raises the component count."""
    base = component_count(g)
    return [e.id for e in g.edges if component_count(delete_edges(g, [e.id])) > base]


def lambda_family(g: MultiGraph) -> list[VertexSet]:
    """All nonempty X with G[X] connected and c(G - X) = c(G).

    These are exactly the sides of bonds: proper connected subsets of a
    component whose within-component complement is connected too.  So the
    family is each anchored side from ``bond_sides`` plus its complement in
    its component, sorted lexicographically by sorted member list.
    """
    return list(_lambda_family_cached(g))


@lru_cache(maxsize=4096)
def _lambda_family_cached(g: MultiGraph) -> tuple[VertexSet, ...]:
    component_of = {v: comp for comp in components(g) for v in comp}
    out: list[VertexSet] = []
    for _, side in bond_sides(g):
        out.append(side)
        out.append(component_of[min(side)] - side)
    return tuple(sorted(out, key=sorted))
