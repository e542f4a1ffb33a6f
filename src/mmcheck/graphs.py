"""Event graphs, acyclicity checks, and the base graphs.

All consistency questions in this package reduce to the acyclicity of
graphs over event ids built from unions of edge lists.  This module holds
the graph container, one Kahn peel that both sorts a graph and isolates
its cycles, and the two order-free base graphs the solver's subset search
starts from, contracted to the events that branch.  The peel is FIFO, so
its order is deterministic; nothing depends on which topological order
it returns.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import repeat
from typing import TYPE_CHECKING, Collection, Iterable, Sequence

from .events import History

if TYPE_CHECKING:
    from .models import DerivedModel


class EventGraph:
    """A directed graph: adjacency lists plus in-degrees over `n` vertices.

    `EventGraph(n, *edge_lists)` holds the union of the edge lists over one
    vertex per event.  Edges are not deduplicated.  Kahn's algorithm,
    cycle extraction and reachability give the same answers with or
    without duplicate edges.  `vertex_of` maps each event to its vertex:
    the identity here, many-to-one on the base graphs that
    `build_base_graphs` contracts.  Consumers place events through it.
    """

    __slots__ = ("n", "adj", "in_degree", "vertex_of")

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
        self.vertex_of: Sequence[int] = range(n)

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
        g.vertex_of = self.vertex_of
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


def conflict_edges(
    h: History,
    order_pairs: Iterable[tuple[int, int]],
    vertex_of: Sequence[int] | None = None,
) -> set[tuple[int, int]]:
    """Read-to-write edges induced by a write order.

    For each same-variable order pair (w', w), every read sourced by w'
    gains an edge to w: the read observed a value that `w` overwrites, so
    it must come first.  With `vertex_of`, the edges join the vertices it
    maps the events to.
    """
    events = h.events
    vertex = range(h.n) if vertex_of is None else vertex_of
    return {
        (vertex[r], vertex[wb])
        for wa, wb in order_pairs
        if events[wa].var == events[wb].var
        for r in h.readers_of(wa)
    }


def build_base_graphs(
    h: History, derived: "DerivedModel"
) -> tuple[EventGraph, EventGraph]:
    """The two order-free graphs whose acyclicity anchors the recursion.

    First the per-location graph (effective same-variable program order
    plus reads-from), then the model graph (preserved program order plus
    visible reads-from).  Each has the reachability between events, and
    the cycles, of the graph of its full relations, on far fewer vertices
    and edges:

    - Reads-from edges that program order implies are left out, when the
      derivation names its model and both graphs keep the program order
      of two reads of one thread and variable (every model but rmo).  A
      write then needs an edge only to the po-first read of each thread
      that it feeds, and none when it precedes that read in program
      order: an initial write, or an earlier write of the read's thread.
      Each edge left out lies on a path the graph keeps: both graphs
      order a thread's reads of one variable, `po_loc_effective` (and
      sc's `po_mm`) orders a write before the later events of its thread
      on its variable and an initial write before every event on its
      variable, and the visible reads-from of the other models holds no
      same-thread or initial pair.  A same-thread read ahead of its write
      keeps its edge, which closes a cycle.  Without a model, or under
      rmo, every edge is kept.
    - Each read entered by exactly one edge joins the vertex of that
      edge's source; `_contracted` gives the rule and why it is exact.
    """
    spec = derived.spec
    if spec is not None and spec.keeps_read_order:
        rf_loc, rf_mm = _first_reads(h, spec.sees_internal_rf)
    else:
        rf_loc, rf_mm = h.rf, derived.rf_mm
    return (
        _contracted(h, derived.po_loc_effective, rf_loc),
        _contracted(h, derived.po_mm, rf_mm),
    )


def _first_reads(
    h: History, internal: bool
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The reads-from edges each base graph needs beyond program order.

    For each program write and each thread it feeds, the edge to the
    thread's first read of it, unless the write comes earlier in that
    thread.  The model graph takes the same-thread ones only when
    `internal` (its model sees same-thread reads-from).  A thread's
    events hold consecutive ids in program order, and readers are sorted,
    so one bisection skips the rest of each thread's reads.
    """
    events = h.events
    loc: list[tuple[int, int]] = []
    mm: list[tuple[int, int]] = []
    for w in h.writes:
        readers = h.readers_of(w)
        if not readers:
            continue
        _, thread, pos, _, _, _, is_init = events[w]
        if is_init:
            continue
        i, end = 0, len(readers)
        while i < end:
            r = readers[i]
            _, t, p, _, _, _, _ = events[r]
            if t != thread:
                loc.append((w, r))
                mm.append((w, r))
            elif p < pos:
                loc.append((w, r))
                if internal:
                    mm.append((w, r))
            i += 1
            if i < end:
                last = r - p + len(h.thread_events(t)) - 1
                i = bisect_right(readers, last, i)
    return loc, mm


def _contracted(
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
    """
    writes = h.writes
    n = len(writes)
    entries = [0] * len(h.events)
    source = list(entries)
    vertex_of = [-1] * len(entries)
    for edges in edge_lists:
        for u, v in edges:
            entries[v] += 1
            source[v] = u
    for j, w in enumerate(writes):
        vertex_of[w] = j
        entries[w] = 0
    for r in h.reads:
        if entries[r] == 1 and vertex_of[source[r]] >= 0:
            vertex_of[r] = vertex_of[source[r]]
        else:
            entries[r] = 0
            vertex_of[r] = n
            n += 1
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
    g.vertex_of = vertex_of
    return g
