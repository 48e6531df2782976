"""Graph generators: exhaustive small catalogs and named families."""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from .graphs import MultiGraph


def endpoint_slots(vertex_count: int) -> list[tuple[int, int]]:
    """All unordered endpoint pairs on the given vertices, loops included."""
    return [(i, j) for i in range(vertex_count) for j in range(i, vertex_count)]


def all_multigraphs(max_vertices: int, max_edges: int) -> Iterator[MultiGraph]:
    """Every labelled multigraph with at most the given vertices and edges.

    Edges are multisets of endpoint pairs, so loops and parallel edges are
    covered; each edge is oriented low-to-high by default.
    """
    for n in range(max_vertices + 1):
        slots = endpoint_slots(n)
        for m in range(max_edges + 1):
            for combo in itertools.combinations_with_replacement(slots, m):
                yield MultiGraph.from_pairs(n, combo)


def cycle(length: int) -> MultiGraph:
    """The cycle C_n; C_2 is a pair of parallel edges, C_1 a loop."""
    if length < 1:
        raise ValueError("cycle length must be >= 1")
    return MultiGraph.from_pairs(length, [(i, (i + 1) % length) for i in range(length)])


def complete(vertex_count: int) -> MultiGraph:
    return MultiGraph.from_pairs(
        vertex_count, [(i, j) for i in range(vertex_count) for j in range(i + 1, vertex_count)]
    )


def path(vertex_count: int) -> MultiGraph:
    return MultiGraph.from_pairs(vertex_count, [(i, i + 1) for i in range(vertex_count - 1)])


def bridged_triangles() -> MultiGraph:
    """Two triangles joined by a single bridge edge."""
    return MultiGraph.from_pairs(
        6,
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)],
    )


def random_multigraph(rng: random.Random, max_vertices: int, max_edges: int) -> MultiGraph:
    n = rng.randint(1, max_vertices)
    m = rng.randint(0, max_edges)
    pairs = []
    for _ in range(m):
        t = rng.randrange(n)
        h = rng.randrange(n)
        pairs.append((t, h))
    return MultiGraph.from_pairs(n, pairs)


def random_catalog(
    seed: int, count: int, max_vertices: int, max_edges: int
) -> list[MultiGraph]:
    rng = random.Random(seed)
    return [random_multigraph(rng, max_vertices, max_edges) for _ in range(count)]
