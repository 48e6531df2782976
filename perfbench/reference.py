"""Reference computations the benchmark checks flowpoly's outputs against.

Nothing here imports flowpoly.  Groups, components, flow counts and the
wheel polynomial are computed from their definitions with code of this
module's own, so a fault in a flowpoly layer cannot hide itself by also
corrupting the value it is checked against.

Graphs are plain data: a vertex count and a list of (tail, head) pairs.
Polynomials are lists of integer coefficients in ascending powers of k.
"""

from __future__ import annotations

import math
import re
from collections import deque

_FACTOR = re.compile(r"Z([1-9][0-9]*)")


def group_orders(name: str) -> tuple[int, ...]:
    """Cyclic orders of a group written like "Z4" or "Z2xZ3"."""
    orders = []
    for part in name.split("x"):
        match = _FACTOR.fullmatch(part)
        if match is None:
            raise ValueError(f"bad group name {name!r}")
        orders.append(int(match.group(1)))
    return tuple(orders)


class Group:
    """A product of cyclic groups; elements are mixed-radix indices, zero is 0."""

    def __init__(self, orders: tuple[int, ...]) -> None:
        self.orders = tuple(orders)
        self.order = math.prod(self.orders)
        residues = [self.residues(i) for i in range(self.order)]
        self.add = [
            [self.index(tuple((a + b) % o for a, b, o in zip(x, y, self.orders))) for y in residues]
            for x in residues
        ]
        self.neg = [self.index(tuple(-a % o for a, o in zip(x, self.orders))) for x in residues]

    def index(self, residues: tuple[int, ...]) -> int:
        value = 0
        for residue, order in zip(residues, self.orders):
            value = value * order + residue
        return value

    def residues(self, index: int) -> tuple[int, ...]:
        out = []
        for order in reversed(self.orders):
            out.append(index % order)
            index //= order
        return tuple(reversed(out))


def components(n: int, pairs) -> list[list[int]]:
    """Vertex sets of the components, each sorted, by union-find."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for t, h in pairs:
        rt, rh = find(t), find(h)
        if rt != rh:
            parent[rh] = rt
    blocks: dict[int, list[int]] = {}
    for v in range(n):
        blocks.setdefault(find(v), []).append(v)
    return list(blocks.values())


def component_count(n: int, pairs) -> int:
    return len(components(n, pairs))


def cycle_rank(n: int, pairs) -> int:
    return len(pairs) - n + component_count(n, pairs)


def count_nz_flows(n: int, pairs, group: Group, b: list[int], max_steps: int) -> int | None:
    """Number of nowhere-zero flows with boundary b, or None above max_steps.

    The boundary at v is the inflow minus the outflow, b holds element
    indices.  Edge functions are enumerated edge by edge; partial functions
    with the same partial boundary are merged, and a vertex is settled
    (its boundary compared with b) once its last edge has been assigned.
    The count is exact.  max_steps caps the number of state extensions.
    """
    k = group.order
    add, neg = group.add, group.neg
    loops = sum(1 for t, h in pairs if t == h)
    edges = _frontier_order(n, [(t, h) for t, h in pairs if t != h])
    last = [-1] * n
    for i, (t, h) in enumerate(edges):
        last[t] = last[h] = i
    if any(last[v] < 0 and b[v] != 0 for v in range(n)):
        return 0
    states = {(0,) * n: 1}
    steps = 0
    for i, (t, h) in enumerate(edges):
        steps += len(states) * (k - 1)
        if steps > max_steps:
            return None
        grown: dict[tuple[int, ...], int] = {}
        for state, count in states.items():
            row_h, row_t = add[state[h]], add[state[t]]
            for a in range(1, k):
                s = list(state)
                s[h] = row_h[a]
                s[t] = row_t[neg[a]]
                key = tuple(s)
                grown[key] = grown.get(key, 0) + count
        for v in {t, h}:
            if last[v] != i:
                continue
            settled: dict[tuple[int, ...], int] = {}
            for state, count in grown.items():
                if state[v] == b[v]:
                    s = list(state)
                    s[v] = 0
                    key = tuple(s)
                    settled[key] = settled.get(key, 0) + count
            grown = settled
        states = grown
    return sum(states.values()) * (k - 1) ** loops


def _frontier_order(n: int, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Edges sorted by the later breadth-first rank of their endpoints, which
    keeps few vertices unsettled at a time."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for t, h in edges:
        adj[t].append(h)
        adj[h].append(t)
    rank = [-1] * n
    position = 0
    for root in range(n):
        if rank[root] >= 0:
            continue
        rank[root] = position
        position += 1
        queue = deque([root])
        while queue:
            for w in adj[queue.popleft()]:
                if rank[w] < 0:
                    rank[w] = position
                    position += 1
                    queue.append(w)
    return sorted(edges, key=lambda e: (max(rank[e[0]], rank[e[1]]), min(rank[e[0]], rank[e[1]])))


def wheel_flow_poly(rim: int) -> list[int]:
    """F(W_n; k) = (k - 2)^n + (-1)^n (k - 2) for the wheel with n rim vertices."""
    coeffs = [math.comb(rim, j) * (-2) ** (rim - j) for j in range(rim + 1)]
    sign = -1 if rim % 2 else 1
    coeffs[0] += sign * -2
    coeffs[1] += sign
    return coeffs


def poly_eval(coeffs, k: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * k + c
    return value


def from_signless(signless, top: int) -> list[int]:
    """Ascending coefficients of sum_i (-1)^i a_i k^(top - i)."""
    coeffs = [0] * (top + 1)
    for i, a in enumerate(signless):
        coeffs[top - i] = -a if i % 2 else a
    return coeffs


def degree(coeffs) -> int:
    """Degree of the polynomial, -1 for zero."""
    d = len(coeffs) - 1
    while d >= 0 and coeffs[d] == 0:
        d -= 1
    return d
