"""Event graphs, acyclicity checks, and graph contraction.

All consistency questions in this package reduce to the acyclicity of
graphs over event ids built from unions of edge lists.  This module holds
the graph container, one Kahn peel that both sorts a graph and isolates
its cycles, and the contraction that builds a graph on the events that
branch from full edge lists.  It knows no memory model; which edges a
model's graphs hold is decided in `models`.  The peel is FIFO, so its
order is deterministic; nothing depends on which topological order it
returns.
"""

from __future__ import annotations

from itertools import repeat
from typing import Collection, Iterable, Sequence

from .events import History


class EventGraph:
    """A directed graph: adjacency lists plus in-degrees over `n` vertices.

    `EventGraph(n, *edge_lists)` holds the union of the edge lists over one
    vertex per event.  Edges are not deduplicated.  Kahn's algorithm,
    cycle extraction and reachability give the same answers with or
    without duplicate edges.

    A base graph also places a history's writes and their reads, for the
    solver's tables and its witness re-check.  `write_vertex[j]` is the
    vertex of write `h.writes[j]`.  `tag_sites[j]` holds vertices of
    reads sourced by write j, such that each read sourced by j that has an
    in-edge reaches one of them.  So an event reaches some read of j
    exactly when it reaches a tag site, and a read-to-write edge from a
    read of j that lies on a cycle is implied by the same edge from a tag
    site.  Both are empty on a graph built from edge lists alone.
    """

    __slots__ = ("n", "adj", "in_degree", "write_vertex", "tag_sites")

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
        self.write_vertex: Sequence[int] = ()
        self.tag_sites: Sequence[Sequence[int]] = ()

    def extended(self, *edge_lists: Iterable[tuple[int, int]]) -> EventGraph:
        """A new graph with the edge lists, over vertices, added; it shares
        the rows that gain no edge and copies the others, so `self` is
        never mutated."""
        adj, degree = list(self.adj), list(self.in_degree)
        for edges in edge_lists:
            for u, v in edges:
                adj[u] = [*adj[u], v]
                degree[v] += 1
        g = EventGraph.__new__(EventGraph)
        g.n, g.adj, g.in_degree = self.n, adj, degree
        g.write_vertex, g.tag_sites = self.write_vertex, self.tag_sites
        return g


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


def contracted(
    h: History, *edge_lists: Collection[tuple[int, int]]
) -> EventGraph:
    """The graph of the edge lists, each single-entry read merged away.

    The edge lists are walked twice: once to count each event's
    in-edges, once to add the edges that stay.  A read with exactly one
    in-edge joins the vertex of that edge's source; writes never merge
    and take vertices 0..k-1 in `h.writes` order.  Reads are visited in
    id order.  Every edge a derivation emits into a read comes from a
    write or from an event earlier in program order, so the source's
    vertex is known by then; a read whose source is not yet placed keeps
    a vertex of its own, which is always exact.  The merge edge itself
    vanishes; any other edge between two events of one vertex stays as a
    self-loop, which is the cycle it closes.

    The contraction is exact.  Every path into a merged read passes
    through its source, so an event reaches a vertex's events exactly
    when it reaches the vertex, and per-vertex tags can be OR-ed; a
    cycle keeps at least one edge that is not a merge edge (those form a
    forest), so cycles stay cycles.  The witness re-check adds no edge
    into a read: order edges join writes, and conflict edges leave reads.
    Each write's tag sites are the vertices of all its reads.
    """
    writes = h.writes
    n = len(writes)
    entries = [0] * h.n
    source = list(entries)
    vertex_of = [-1] * len(entries)
    for edges in edge_lists:
        for u, v in edges:
            entries[v] += 1
            source[v] = u
    for j, w in enumerate(writes):
        vertex_of[w] = j
        entries[w] = 0
    sites: list[list[int]] = [[] for _ in writes]
    writer = h.rf_source
    for r in h.reads:
        if entries[r] == 1 and vertex_of[source[r]] >= 0:
            v = vertex_of[source[r]]
        else:
            entries[r] = 0
            v = n
            n += 1
        vertex_of[r] = v
        s = sites[vertex_of[writer(r)]]
        if not s or s[-1] != v:
            s.append(v)
    adj: list[list[int]] = [[] for _ in repeat(None, n)]
    degree = [0] * n
    for edges in edge_lists:
        for u, v in edges:
            if entries[v] != 1:
                b = vertex_of[v]
                adj[vertex_of[u]].append(b)
                degree[b] += 1
    g = EventGraph.__new__(EventGraph)
    g.n, g.adj, g.in_degree = n, adj, degree
    g.write_vertex = range(len(writes))
    g.tag_sites = sites
    return g
