"""Event graphs and acyclicity checks.

All consistency questions in this package reduce to the acyclicity of
graphs over event ids built from unions of edge lists.  This module holds
the graph container, which can also place a history's writes and reads;
the one way a write order enters a graph, as chains of edges with the
closure of all its pairs and conflict edges (`EventGraph.with_order`);
and one Kahn peel that both sorts a graph and isolates its cycles.  It
knows no memory model; which edges a model's graphs hold, and which
events they keep, is decided in `models`.  The peel is FIFO, so its
order is deterministic; nothing depends on which topological order it
returns.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


class EventGraph:
    """A directed graph: adjacency lists plus in-degrees over `n` vertices.

    `EventGraph(n, *edge_lists)` holds the union of the edge lists over one
    vertex per event.  Edges are not deduplicated.  Kahn's algorithm,
    cycle extraction and reachability give the same answers with or
    without duplicate edges.

    A base graph also places a history's writes and their reads, for the
    solver's tables and its witness re-check.  Vertex j is write
    `h.writes[j]`.  `tag_sites[j]` holds vertices of reads sourced by
    write j, such that each read sourced by j that has an in-edge reaches
    one of them.  So an event reaches some read of j exactly when it
    reaches a tag site, and a read-to-write edge from a read of j that
    lies on a cycle is implied by the same edge from a tag site.
    `tag_sites` is empty on `EventGraph(n, *edge_lists)`.
    """

    __slots__ = ("n", "adj", "in_degree", "tag_sites")

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
        self.tag_sites: Sequence[Sequence[int]] = ()

    @classmethod
    def from_rows(
        cls,
        adj: list[list[int]],
        in_degree: list[int],
        tag_sites: Sequence[Sequence[int]],
    ) -> EventGraph:
        """The graph with these rows and in-degrees, which it takes as
        they are, without copying."""
        g = cls.__new__(cls)
        g.n, g.adj, g.in_degree = len(adj), adj, in_degree
        g.tag_sites = tag_sites
        return g

    def with_order(
        self,
        order: Sequence[int],
        var_of: Mapping[int, str] | Sequence[str],
        reads_of: Mapping[int, Sequence[int]] | Sequence[Sequence[int]],
    ) -> EventGraph:
        """A new graph with the write order `order`, over write vertices,
        added as chains; `self` is never mutated.

        Each write w in `order` gains an edge from the write before it,
        and one from each vertex in `reads_of[p]` for the write p before
        it on its variable, `var_of[w]`.  Each edge copies the row it
        leaves, and the rows that gain no edge are shared.

        Chains.  The order stands for every order pair (wᵢ, wⱼ), i < j,
        and every conflict edge (r, wⱼ) for a read r of an earlier write
        wᵢ on wⱼ's variable.  Every order pair is a path of chain edges,
        and every conflict edge is r → w followed by such a path, for the
        next write w after wᵢ on its variable; and the chain edges are
        themselves order pairs and conflict edges.  So both edge sets
        have the same transitive closure, and the graph is acyclic with
        one exactly when it is with the other.  This holds as well when
        `order` is one variable's writes alone, with that variable's
        order pairs and conflict edges.
        """
        adj, degree = list(self.adj), list(self.in_degree)
        last_on: dict[str, int] = {}
        sources: Sequence[int] = ()
        for w in order:
            var = var_of[w]
            if var in last_on:
                sources = [*sources, *reads_of[last_on[var]]]
            for u in sources:
                adj[u] = [*adj[u], w]
            degree[w] += len(sources)
            last_on[var] = w
            sources = (w,)
        return EventGraph.from_rows(adj, degree, self.tag_sites)


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
