"""Event graphs, acyclicity checks, and the base graphs.

All consistency questions in this package reduce to the acyclicity of
graphs over event ids built from unions of edge lists.  This module holds
the graph container, one Kahn peel that both sorts a graph and isolates
its cycles, and the two order-free base graphs the solver's subset search
starts from.  The peel is FIFO, so its order is deterministic; nothing
depends on which topological order it returns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .events import History

if TYPE_CHECKING:
    from .models import DerivedModel


class EventGraph:
    """A directed graph over event ids: adjacency lists plus in-degrees.

    `EventGraph(n, *edge_lists)` holds the union of the edge lists.
    Edges are not deduplicated.  Kahn's algorithm, cycle extraction and
    reachability give the same answers with or without duplicate edges.
    """

    __slots__ = ("n", "adj", "in_degree")

    def __init__(self, n: int, *edge_lists: Iterable[tuple[int, int]]):
        self.n = n
        adj: list[list[int]] = [[] for _ in range(n)]
        degree = [0] * n
        for edges in edge_lists:
            for u, v in edges:
                adj[u].append(v)
                degree[v] += 1
        self.adj = adj
        self.in_degree = degree


def _peel(g: EventGraph) -> tuple[list[int], list[int]]:
    """Kahn's peel: the peeled vertices in topological order, and the
    in-degrees left.

    The frontier is the order itself, appended to while it is walked.  A
    vertex stays unpeeled exactly when it keeps a positive in-degree,
    which happens exactly when a cycle reaches it; that set does not
    depend on the order of the peel.
    """
    degree = list(g.in_degree)
    order = [v for v in range(g.n) if not degree[v]]
    adj = g.adj
    for v in order:
        for w in adj[v]:
            degree[w] -= 1
            if not degree[w]:
                order.append(w)
    return order, degree


def kahn_acyclic(g: EventGraph) -> tuple[bool, list[int] | None]:
    """Topologically sort `g` if possible.

    Returns (True, order) when the graph is acyclic and (False, None)
    otherwise.  The order is deterministic: equal graphs give equal
    orders.
    """
    order, _ = _peel(g)
    if len(order) == g.n:
        return True, order
    return False, None


def find_cycle(g: EventGraph) -> list[int] | None:
    """Extract one directed cycle, or None if the graph is acyclic.

    Used for diagnostics only.  The cycle is reported as a vertex list
    [v0, v1, ..., vm] with edges v0 -> v1 -> ... -> vm -> v0.
    """
    _, degree = _peel(g)
    residual = {v for v in range(g.n) if degree[v]}
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
    return (
        EventGraph(h.n, derived.po_loc_effective, h.rf),
        EventGraph(h.n, derived.po_mm, derived.rf_mm),
    )
