"""Memory models as data, and per-history relation derivation.

A model is one row of data: its name and the same-thread program order
it keeps (`ModelSpec.kept_po`).  Everything else the checker needs of a
model is read from that row here, and nowhere else: which reads-from
edges are visible, whether load-load hazards are allowed, whether the
dependency/reads-from cycle test applies, and which reads-from edges the
base graphs need.  The four supported models:

  sc    keeps full program order and full reads-from.
  tso   drops write-to-read program-order pairs; only cross-thread
        reads-from is visible (store buffering with early reads).
  pso   additionally drops write-to-write pairs (a buffer per variable).
  rmo   keeps only the explicit dependency edges, permits load-load
        hazards, and requires the dependency/reads-from cycle test.

A derivation (`DerivedModel`) gives the model's relations as edge lists
of size O(n) whose transitive closures are the kept pair sets.  They are
built on first access, and `DerivedModel.graphs` joins them into the
model's two full graphs, for the cyclic-graph diagnostic, the oracles
and the tests; no other module decides which relation goes into which
graph.  The solver's search does not read them: under every model
`build_base_graphs` builds its two graphs straight from the history's
thread column, each write's variable, each write's sorted readers and,
under rmo, the dependency edges, at a cost that grows with the writes,
threads and dependency edges and only logarithmically with the events
(see its docstring).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Collection, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .errors import UnknownModelError
from .events import INIT_THREAD, READ, WRITE, History
from .graphs import EventGraph, find_cycle


KINDS = (WRITE, READ)


@dataclass(frozen=True)
class ModelSpec:
    """A memory model: its name and the program order it keeps.

    `kept_po` holds the (earlier kind, later kind) pairs whose same-thread
    program order the model keeps, or None when it keeps only the explicit
    dependency edges.  The properties below are read from it.
    """

    name: str
    kept_po: frozenset[tuple[str, str]] | None

    @cached_property
    def ahead(self) -> dict[str, tuple[str, ...]]:
        """For each later kind, the earlier kinds kept ahead of it.

        Computed once per model, not on every derivation.
        """
        kept = self.kept_po or frozenset()
        return {b: tuple(sorted(a for a, c in kept if c == b)) for b in KINDS}

    @cached_property
    def links(self) -> dict[str, tuple[str, tuple[str, ...], bool]]:
        """For each kind: the slot an event of that kind fills, the slots
        whose last earlier event it follows, and whether it is kept
        behind a write.

        A model that keeps every pair has one slot, so each event follows
        the one before it.  Otherwise each kind is a slot, and an event
        follows the last earlier event of each kind kept ahead of it.
        """
        if len(self.kept_po or ()) == len(KINDS) ** 2:
            return {kind: ("", ("",), True) for kind in KINDS}
        return {
            kind: (kind, self.ahead[kind], WRITE in self.ahead[kind])
            for kind in KINDS
        }

    @property
    def dp_only(self) -> bool:
        """Whether the model keeps only the explicit dependency edges.  It
        then allows load-load hazards (two reads of one variable may be
        reordered) and runs the dependency/reads-from cycle test."""
        return self.kept_po is None

    @property
    def sees_internal_rf(self) -> bool:
        """Whether same-thread reads-from is visible in the model graph:
        whether the write-read program order it would follow is kept."""
        return WRITE in self.ahead[READ]


_READ_FIRST = frozenset({(READ, READ), (READ, WRITE)})

MODELS: dict[str, ModelSpec] = {
    spec.name: spec
    for spec in (
        ModelSpec("sc", _READ_FIRST | {(WRITE, READ), (WRITE, WRITE)}),
        ModelSpec("tso", _READ_FIRST | {(WRITE, WRITE)}),
        ModelSpec("pso", _READ_FIRST),
        ModelSpec("rmo", None),
    )
}


def get_model(name: str) -> ModelSpec:
    """Look up a model by name, case-insensitively."""
    try:
        return MODELS[name.lower()]
    except KeyError:
        raise UnknownModelError(
            f"unknown model {name!r}; expected one of {', '.join(MODELS)}"
        ) from None


class DerivedModel:
    """The relations a model exposes for one history.

    `po_mm` and `po_loc_effective` are edge lists: their transitive
    closures, not the lists themselves, are the preserved program order
    and the effective same-variable program order.  `rf_mm` is the
    visible reads-from.  The three are built from `history` and `spec`
    together, on the first access to any of them, and then kept.
    `graphs()` joins them into the model's two full graphs.
    """

    __slots__ = ("spec", "history", "po_mm", "po_loc_effective", "rf_mm")
    po_mm: Collection[tuple[int, int]]
    po_loc_effective: list[tuple[int, int]]
    rf_mm: frozenset[tuple[int, int]]

    def __init__(self, spec: ModelSpec, history: History):
        self.spec = spec
        self.history = history

    def __getattr__(self, name: str) -> object:
        # Python calls this only for an attribute that is not set yet.
        if name not in DerivedModel.__slots__[2:]:
            raise AttributeError(name)
        h, spec = self.history, self.spec
        self.po_mm = h.dp if spec.dp_only else po_edges(h, spec)
        self.po_loc_effective = po_loc(h, spec)
        self.rf_mm = h.rf if spec.sees_internal_rf else rf_external(h)
        return getattr(self, name)

    def graphs(self) -> tuple[EventGraph, EventGraph]:
        """The per-location graph (effective same-variable program order
        plus reads-from) and the model graph (preserved program order plus
        visible reads-from), one vertex per event: the full graphs whose
        contractions `build_base_graphs` returns."""
        h = self.history
        return (
            EventGraph(h.n, self.po_loc_effective, h.rf),
            EventGraph(h.n, self.po_mm, self.rf_mm),
        )


def rf_external(h: History) -> frozenset[tuple[int, int]]:
    """Reads-from restricted to pairs unrelated by program order.

    Same-thread pairs vanish, and so do pairs sourced by initial writes,
    because initial writes precede everything in program order: kept are
    the pairs of a non-initial write and a read on another thread.
    """
    thread_of = h.thread_of
    pairs: list[tuple[int, int]] = []
    for w in h.writes:
        thread = thread_of[w]
        if thread != INIT_THREAD:
            pairs.extend(
                (w, r) for r in h.readers_of(w) if thread_of[r] != thread
            )
    return frozenset(pairs)


# A marked read's flags: a reads-from edge enters it in the per-location
# graph, one enters it in the model graph, and it is a tag site.
_RF_LOC, _RF_MM, _TAG = 1, 2, 4


def build_base_graphs(
    h: History, spec: ModelSpec
) -> tuple[EventGraph, EventGraph]:
    """The two order-free graphs whose acyclicity anchors the recursion.

    First the per-location graph (effective same-variable program order
    plus reads-from), then the model graph (preserved program order plus
    visible reads-from), for the model `spec`.  Each graph has the
    acyclicity of its full graph (`DerivedModel.graphs`), and the same
    reach between writes and tag sites (see `EventGraph`).

    The graphs come from `h.thread_of`, `h.write_vars`, each write's
    readers and, when the model keeps only the dependency edges, `h.dp`,
    without the edge lists or any other per-event column, on far fewer
    vertices; writes take vertices 0..k-1 in `h.writes` order, and a walked
    read takes its variable from its writer.  The walk reads the model's
    `ModelSpec` properties, never its name:

    - Reads-from.  Unless the model allows load-load hazards
      (`dp_only`), both graphs order the reads of one thread and
      variable.  A write then needs an edge only to the first read of
      each thread it feeds, and none when it precedes that read in
      program order: an initial write, or an earlier write of the read's
      thread.  `po_loc_effective` orders those, and so does `po_mm` when
      the model keeps write-read order; a model that drops it sees no
      same-thread or initial reads-from.  A read ahead of its own write
      keeps its edge, which closes a cycle.
    - Tag sites.  Then every read of write i in thread t reaches the last
      one.  So whatever reaches a read of i in t reaches the last one, and
      a conflict edge from a read of i in t is implied by the same edge
      from the last one.  The tag sites of i are its last read in each
      thread it feeds: they give the solver's tables and the witness
      re-check what all of i's reads would give them.  Tag sites merged
      into one vertex (see Merges) list it once.
    - Segments.  Under `dp_only`, effective same-variable order keeps
      no read-read pair: each event follows the last local write to its
      variable, or the initial write, and each write follows the reads of
      its variable since the previous local write.  A *segment* is the
      stretch of one thread between two consecutive local writes to a
      variable.  The reads of write i that thread t makes in one segment
      share their per-location in-edges (from the segment's head, the
      write or initial write before it, and from i, dropped as above when
      i precedes them) and their out-edge (to the local write that ends
      the segment).  The model then keeps only the dependency edges, so
      in the model graph each of them that no dependency edge touches has
      the same in-edge (from i, when i is a program write of another
      thread) and no out-edge.  So they reach and are reached by the same
      events, and one of them, the first, stands for all: it takes the
      reads-from edge and is the tag site.  Bisecting `h.writes_on(var)`
      for the next local write after a segment's first read, capped at
      the thread's last id, and then i's readers for that bound, finds
      each (writer, thread, segment) group in O(log n).  A walked read
      leaves its variable's head in place; when its vertex is not the
      head's, it goes on the variable's `since` list, and the next local
      write on that variable takes an edge from each vertex on the list,
      as `po_loc` links the reads since the previous write.
    - Dependencies.  When only the dependency edges are kept, each read a
      dp edge touches is walked on its own, with the flags of its group's
      first read, and each walked event takes model-graph edges from the
      vertices of its dp sources: reads of its own thread, walked before
      it.  A source merged into its writer stands at the writer's vertex,
      which its one in-edge leaves; a source with no vertex has no
      ancestor, and its edges are dropped (see Merges).  So every dp edge
      that a path can take is kept, and every other model-graph edge
      enters a walked read from its writer.
    - Walked events.  The program writes, the reads a reads-from edge
      enters, the tag sites and the reads a dp edge touches are walked; no
      other event is.  Bisecting each write's sorted readers against each
      thread's last id, or each segment's bound, gives the first and last
      read of each group, so finding them costs O(k·T·log n) for T
      threads, or O(k·(k + T)·log n) under `dp_only` and O(k·d·log n)
      more for d reads that dp edges touch.  One walk over them in id
      order, which is program order within each thread, builds both
      graphs.  Per thread and graph it keeps the vertex of the last walked
      event of each slot (`ModelSpec.links`) or the head of each variable,
      and links each walked event from them as `po_edges` and `po_loc`
      link events; the initial writes link to the first walked event kept
      behind a write, and to the first walked event on their variable.
      Kept program order is a set of pairs closed under composition, so
      those links keep it exact between walked events; an event left out
      is a read that stands with its group's first read; and every cycle
      takes a reads-from edge.  So reach between walked events, and every
      cycle, are those of the full graphs.
    - Merges.  A walked read entered by exactly one edge joins the vertex of
      that edge's source.  Writes never merge and hold their vertices before
      the walk, and a program-order or dp source is walked before the read,
      so the source's vertex is known.  The merge edge vanishes; any other
      edge between two events of one vertex stays as a self-loop, which is
      the cycle it closes.  Every path into a merged read passes through its
      source, so an event reaches a vertex's events exactly when it reaches
      the vertex, and one ancestor mask per vertex serves all its events.
      Merge edges form a forest, so a cycle keeps an edge that is not one,
      and cycles stay cycles.  The witness re-check adds no edge into a
      read, so this stays exact on its graphs: order edges join writes, and
      conflict edges leave reads.  A walked read entered by no edge has no
      ancestor: it gets no vertex, and the edges that would leave it are
      dropped.  No write reaches it, so it adds nothing to the tables.  No
      cycle passes through it, even on the re-check's graphs, whose added
      edges enter writes only; so its conflict edges close none, and it is
      no tag site.
    - Size.  A walked read takes a vertex of its own only when two or
      more edges enter it.  Unless the model allows load-load hazards, that is a read
      entered by program order and a reads-from edge, at most one per
      (program write, thread), or one that takes the initial writes'
      edges, at most one per thread: each graph has at most k + k·T + T
      vertices.  Under `dp_only` it is a group's first read, entered by
      its head and a reads-from edge, at most one per (writer, thread,
      segment) and so at most k + T per writer, or a read a dp edge
      touches: each graph has at most k + k·(k + T) + d vertices.
    """
    llh = spec.dp_only
    thread_of = h.thread_of
    writes = h.writes
    write_vars = h.write_vars
    k = len(writes)
    # Initial writes hold the first ids, so their bits are their ids.
    inits = h.thread_events(INIT_THREAD)
    internal = _RF_MM if spec.sees_internal_rf else 0

    # When only the dependency edges are kept: each dp target's sources,
    # each source's model-graph vertex once it is walked, and the reads a
    # dp edge touches, ascending.  Otherwise all are empty, and the walk
    # skips its dp lookups.
    dp_in: dict[int, list[int]] = {}
    mm_of: dict[int, int | None] = {}
    dp_reads: list[int] = []
    if spec.dp_only and h.dp:
        for a, b in h.dp:
            dp_in.setdefault(b, []).append(a)
            mm_of[a] = None
        dp_reads = sorted({*mm_of, *dp_in}.difference(writes))

    # Mark the reads each (writer, thread) pair, or under load-load hazards
    # each (writer, thread, segment) group, needs walked: its first and its
    # last read, or its first alone, and the reads a dp edge touches.  A
    # mark holds the writer's bit above the flags.
    end_of = {t: ids[-1] for t in h.threads if (ids := h.thread_events(t))}
    marks: dict[int, int] = {}
    for j, w in enumerate(writes):
        readers = h.readers_of(w)
        # Under load-load hazards: the writes to w's variable, then a
        # sentinel past every id.
        local = (*h.writes_on(write_vars[j]), h.n) if llh else ()
        own = thread_of[w]
        tag = j << 3 | _TAG
        i, end = 0, len(readers)
        while i < end:
            first = readers[i]
            t = thread_of[first]
            bound = end_of[t]
            if llh:
                bound = min(bound, local[bisect_right(local, first)])
            i = bisect_right(readers, bound, i + 1)
            final = first if llh else readers[i - 1]
            if own == INIT_THREAD or t == own and first > w:
                entry = 0
            else:
                entry = j << 3 | _RF_LOC | (internal if t == own else _RF_MM)
            marks[final] = tag
            if entry:
                marks[first] = marks.get(first, 0) | entry
            if dp_reads:
                lo = bisect_left(dp_reads, first)
                for r in dp_reads[lo:bisect_right(dp_reads, readers[i - 1])]:
                    if _holds(readers, r):
                        marks[r] = entry | tag

    # Walk the program writes and the marked reads in id order, which is
    # program order within each thread.  The per-location graph links
    # each event from its variable's head, the model graph from the last
    # event in each slot of `ModelSpec.links` and from its dp sources.
    link_w, link_r = spec.links[WRITE], spec.links[READ]
    init_on = dict(zip(write_vars, inits))
    adj_loc: list[list[int]] = [[] for _ in range(k)]
    adj_mm: list[list[int]] = [[] for _ in range(k)]
    deg_loc, deg_mm = [0] * k, [0] * k
    sites_loc: list[list[int]] = [[] for _ in range(k)]
    sites_mm: list[list[int]] = [[] for _ in range(k)]
    j = len(inits)
    thread = INIT_THREAD
    for e in sorted([*writes[j:], *marks]):
        if thread_of[e] != thread:
            thread = thread_of[e]
            last: dict[str, int | None] = {}
            last_on: dict[str, int | None] = dict(init_on)
            since: dict[str, list[int]] = {}
            pending = inits
        mark = marks.get(e)
        slot, ahead, behind = link_w if mark is None else link_r
        src = [u for a in ahead if (u := last.get(a)) is not None]
        if pending and behind:
            src += pending
            pending = ()
        if dp_reads and e in dp_in:
            src += [u for a in dp_in[e] if (u := mm_of[a]) is not None]
        var = write_vars[j if mark is None else mark >> 3]
        head = loc = last_on.get(var)
        if mark is None:
            if head is not None:
                adj_loc[head].append(j)
                deg_loc[j] += 1
            for u in since.pop(var, ()):
                adj_loc[u].append(j)
                deg_loc[j] += 1
            for u in src:
                adj_mm[u].append(j)
            deg_mm[j] += len(src)
            last[slot] = last_on[var] = j
            j += 1
            continue
        w = mark >> 3
        if mark & _RF_LOC:
            loc = w if loc is None else _join(adj_loc, deg_loc, (loc, w))
        if loc is not None and mark & _TAG and loc not in sites_loc[w]:
            sites_loc[w].append(loc)
        if not llh:
            last_on[var] = loc
        elif loc != head:
            since.setdefault(var, []).append(loc)
        if mark & _RF_MM:
            src.append(w)
        if len(src) == 1:
            mm = src[0]
        else:
            mm = _join(adj_mm, deg_mm, src) if src else None
        if mm is not None and mark & _TAG and mm not in sites_mm[w]:
            sites_mm[w].append(mm)
        last[slot] = mm
        if dp_reads and e in mm_of:
            mm_of[e] = mm
    return _graph(adj_loc, deg_loc, sites_loc), _graph(adj_mm, deg_mm, sites_mm)


def _holds(ids: Sequence[int], x: int) -> bool:
    """Whether the ascending `ids` hold `x`."""
    i = bisect_left(ids, x)
    return i < len(ids) and ids[i] == x


def _join(
    adj: list[list[int]], degree: list[int], sources: Sequence[int]
) -> int:
    """A new vertex, entered from each source."""
    v = len(adj)
    for u in sources:
        adj[u].append(v)
    adj.append([])
    degree.append(len(sources))
    return v


def _graph(
    adj: list[list[int]], degree: list[int], sites: list[list[int]]
) -> EventGraph:
    g = EventGraph.__new__(EventGraph)
    g.n, g.adj, g.in_degree = len(adj), adj, degree
    g.tag_sites = sites
    return g


def po_edges(h: History, spec: ModelSpec) -> list[tuple[int, int]]:
    """Edges whose closure is the program order a model keeps.

    Each event gets an edge from the last earlier event of each slot it
    follows (`ModelSpec.links`): the event before it when the model keeps
    every pair, and otherwise the last earlier event of each kind kept
    ahead of it; an earlier event of that kind reaches the last one
    because every model that keeps (K, L) also keeps (K, K).  The initial
    writes get an edge to the first event of each thread that is kept
    behind a write; the later such events follow that one, because the
    kinds a model keeps behind a write are kept behind each other.
    """
    links = spec.links
    access = h.access
    inits = h.thread_events(INIT_THREAD)
    edges: list[tuple[int, int]] = []
    for t in h.threads:
        last: dict[str, int] = {}
        pending = inits
        for b in h.thread_events(t):
            slot, ahead, behind_write = links[access[b][0]]
            for a in ahead:
                u = last.get(a)
                if u is not None:
                    edges.append((u, b))
            if pending and behind_write:
                edges.extend((i, b) for i in pending)
                pending = ()
            last[slot] = b
    return edges


def po_loc(h: History, spec: ModelSpec) -> list[tuple[int, int]]:
    """Edges whose closure is the same-variable program order a model
    keeps.

    Each (thread, variable) forms a chain headed by the variable's initial
    write.  When the model allows load-load hazards (`dp_only`),
    read-read pairs are removed: each event then follows the last write
    to its variable (or the initial write), and each write follows every
    read of its variable since the previous write.  A read-read pair with
    a write between stays in the closure, as it does in the closure of
    the pair set.
    """
    llh = spec.dp_only
    access = h.access
    init_of = {access[i][1]: i for i in h.thread_events(INIT_THREAD)}
    edges: list[tuple[int, int]] = []
    for t in h.threads:
        last = dict(init_of)
        reads_since: dict[str, list[int]] = {}
        for b in h.thread_events(t):
            kind, var, _ = access[b]
            a = last.get(var)
            if a is not None:
                edges.append((a, b))
            if not llh:
                last[var] = b
            elif kind == WRITE:
                edges.extend((r, b) for r in reads_since.pop(var, ()))
                last[var] = b
            else:
                reads_since.setdefault(var, []).append(b)
    return edges


def derive(h: History, spec: ModelSpec) -> DerivedModel:
    """The model's relations for `h`, each built on first access.

    Pure: equal inputs give identical relations.  Under rmo the
    dependency relation must be read-sourced and lie inside program
    order; it is not re-checked here, because every history is built by
    `assemble_history`, which rejects any other dp edge.
    """
    return DerivedModel(spec, h)


def oota_cycle(h: History) -> list[int] | None:
    """One cycle of the dependency/reads-from union, or None if acyclic.

    A cycle would mean some value justifies itself through a loop of
    dependencies and reads; models with explicit dependencies reject such
    histories outright.  Reads-from alone only joins writes to reads, so
    with no dependency edge there is no cycle and no graph is built.  A
    cycle leaves each read by a dependency edge, since reads-from leaves
    only writes, so it lies on the dependency edges and the reads-from
    edges into their sources.  The graph holds those, the reads-from
    edges into the other reads the dependency edges join, and the edge
    from each write a dependency edge enters to its first reader, over
    the events they join, numbered in id order.  That is every edge into
    those events, so they are reached from a cycle exactly as in the
    union of every edge.  An event left out that a cycle reaches is a
    read of a write in the graph, no less than that write's first reader.
    So `find_cycle` starts at the same event and steps to the same least
    predecessors as on the union, and reports the same cycle.  Each
    read's writer is found by bisecting each write's sorted readers.
    """
    if not h.dp:
        return None
    edges = [*h.dp]
    joined = set(chain(*edges))
    reads = joined.difference(h.writes)
    for w in h.writes:
        readers = h.readers_of(w)
        edges += [(w, r) for r in reads if _holds(readers, r)]
        if readers and w in joined:
            edges.append((w, readers[0]))
    ids = sorted(set(chain(*edges)))
    vertex = {e: v for v, e in enumerate(ids)}
    g = EventGraph(len(ids), [(vertex[a], vertex[b]) for a, b in edges])
    cycle = find_cycle(g)
    return None if cycle is None else [ids[v] for v in cycle]
