"""Event graphs, acyclicity checks, and the write index.

All consistency questions in this package reduce to the acyclicity of
graphs over event ids built from unions of edge lists.  This module holds
the graph container, Kahn's algorithm with deterministic tie-breaking,
the dense bit positions of the writes, and the two order-free base graphs
the solver's subset search starts from.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterable

from .events import History

if TYPE_CHECKING:
    from .models import DerivedModel


class EventGraph:
    """A directed graph over event ids: adjacency lists plus in-degrees.

    Edges are not deduplicated.  Kahn's algorithm, cycle extraction and
    reachability give the same answers with or without duplicate edges.
    """

    __slots__ = ("n", "adj", "in_degree")

    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.in_degree: list[int] = [0] * n

    def add_pairs(self, pairs: Iterable[tuple[int, int]]) -> None:
        adj = self.adj
        degree = self.in_degree
        for u, v in pairs:
            adj[u].append(v)
            degree[v] += 1


def kahn_acyclic(g: EventGraph) -> tuple[bool, list[int] | None]:
    """Topologically sort `g` if possible.

    Returns (True, order) when the graph is acyclic and (False, None)
    otherwise.  The zero-in-degree frontier pops the smallest event id
    first, so the returned order is deterministic.
    """
    degree = list(g.in_degree)
    heap = [v for v in range(g.n) if degree[v] == 0]
    heapq.heapify(heap)
    order: list[int] = []
    adj = g.adj
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in adj[v]:
            degree[w] -= 1
            if degree[w] == 0:
                heapq.heappush(heap, w)
    if len(order) == g.n:
        return True, order
    return False, None


def find_cycle(g: EventGraph) -> list[int] | None:
    """Extract one directed cycle, or None if the graph is acyclic.

    Used for diagnostics only.  The cycle is reported as a vertex list
    [v0, v1, ..., vm] with edges v0 -> v1 -> ... -> vm -> v0.
    """
    degree = list(g.in_degree)
    stack = [v for v in range(g.n) if degree[v] == 0]
    while stack:
        v = stack.pop()
        for w in g.adj[v]:
            degree[w] -= 1
            if degree[w] == 0:
                stack.append(w)
    residual = {v for v in range(g.n) if degree[v] > 0}
    if not residual:
        return None
    preds: dict[int, list[int]] = {v: [] for v in residual}
    for u in residual:
        for v in g.adj[u]:
            if v in residual:
                preds[v].append(u)
    # Every residual vertex keeps a residual predecessor, so walking
    # predecessors must revisit a vertex; that revisit closes a cycle.
    start = min(residual)
    path = [start]
    seen = {start: 0}
    cur = start
    while True:
        cur = min(preds[cur])
        if cur in seen:
            cycle = path[seen[cur]:]
            cycle.reverse()
            return cycle
        seen[cur] = len(path)
        path.append(cur)


class WriteIndex:
    """Dense bit positions for the write events of one history.

    Bit i corresponds to `ids[i]`; ids are ascending, so masks order the
    same way fixtures do.
    """

    __slots__ = ("ids", "bit_of", "k", "full_mask")

    def __init__(self, h: History):
        self.ids: tuple[int, ...] = h.writes
        self.bit_of: dict[int, int] = {w: i for i, w in enumerate(self.ids)}
        self.k = len(self.ids)
        self.full_mask = (1 << self.k) - 1

    def mask_of(self, write_ids: Iterable[int]) -> int:
        mask = 0
        for w in write_ids:
            mask |= 1 << self.bit_of[w]
        return mask

    def ids_of(self, mask: int) -> list[int]:
        out = []
        while mask:
            bit = mask & -mask
            mask ^= bit
            out.append(self.ids[bit.bit_length() - 1])
        return out


def conflict_edges(
    h: History, order_pairs: Iterable[tuple[int, int]]
) -> set[tuple[int, int]]:
    """Read-to-write edges induced by a write order.

    For each same-variable order pair (w', w), every read sourced by w'
    gains an edge to w: the read observed a value that `w` overwrites, so
    it must come first.
    """
    events = h.events
    out = set()
    for wa, wb in order_pairs:
        if events[wa].var != events[wb].var:
            continue
        for r in h.readers_of(wa):
            out.add((r, wb))
    return out


def build_base_graphs(
    h: History, derived: "DerivedModel"
) -> tuple[EventGraph, EventGraph]:
    """The two order-free graphs whose acyclicity anchors the recursion.

    First the per-location graph (effective same-variable program order
    plus full reads-from), then the model graph (preserved program order
    plus visible reads-from).
    """
    g_loc = EventGraph(h.n)
    g_loc.add_pairs(derived.po_loc_effective)
    g_loc.add_pairs(h.rf)
    g_mm = EventGraph(h.n)
    g_mm.add_pairs(derived.po_mm)
    g_mm.add_pairs(derived.rf_mm)
    return g_loc, g_mm
