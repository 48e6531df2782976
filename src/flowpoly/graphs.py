"""Multigraph values and the component/cut machinery built on them.

Graphs are immutable: a vertex count plus an ordered tuple of oriented
edges.  Loops and parallel edges are allowed.  Edge ids double as the
default total order on edges, so subgraph operations preserve the original
ids (they stay strictly increasing but may become sparse).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

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
        return tuple(e.id for e in self.edges)

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


def _is_connected_subset(adj: Sequence[Sequence[int]], subset: frozenset[int]) -> bool:
    """True when the induced subgraph on subset is connected (and nonempty)."""
    if not subset:
        return False
    start = next(iter(subset))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w in subset and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(subset)


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
    two halves; every such X is a member of the lambda family.
    """
    adj = _adjacency(g)
    found: list[tuple[EdgeSet, VertexSet]] = []
    for comp in components(g):
        if len(comp) < 2:
            continue
        members = sorted(comp)
        anchor, rest = members[0], members[1:]
        for bits in range(1 << len(rest)):
            side = {anchor}
            for i, v in enumerate(rest):
                if bits >> i & 1:
                    side.add(v)
            if len(side) == len(members):
                continue
            side_f = frozenset(side)
            other_f = comp - side_f
            if not _is_connected_subset(adj, side_f):
                continue
            if not _is_connected_subset(adj, other_f):
                continue
            cut = frozenset(
                e.id for e in g.edges if (e.tail in side_f) != (e.head in side_f)
            )
            found.append((cut, side_f))
    return tuple(sorted(found, key=lambda pair: sorted(pair[0])))


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
