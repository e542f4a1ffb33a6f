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

A derivation (`DerivedModel`) pairs a model with a history.  Its
`graphs()` builds the model's two full graphs, on each call, from edge
lists of size O(n) whose transitive closures are the kept pair sets:
both program orders from one walk per thread (`program_orders`), and
the visible reads-from (`rf_external`).  They serve the cyclic-graph
diagnostic, the oracles and the tests; no other module decides which
relation goes into which graph.  The solver's search does not read
them: under every model `build_base_graphs` builds its two graphs
straight from the history's thread ranges, each write's variable, each
write's sorted readers and, under rmo, the dependency edges, at a cost
that grows with the writes, threads and dependency edges and only
logarithmically with the events (see its docstring).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

from .errors import UnknownModelError
from .events import INIT_THREAD, READ, WRITE, History, _holds
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
    def links(self) -> dict[str, tuple[str, tuple[str, ...], bool]]:
        """For each kind: the slot an event of that kind fills, the slots
        whose last earlier event it follows, and whether it is kept
        behind a write.  Computed once per model, not on every
        derivation.

        A model that keeps every pair has one slot, so each event follows
        the one before it.  Otherwise each kind is a slot, and an event
        follows the last earlier event of each kind kept ahead of it.
        """
        kept = self.kept_po or frozenset()
        if len(kept) == len(KINDS) ** 2:
            return {kind: ("", ("",), True) for kind in KINDS}
        ahead = {b: tuple(sorted(a for a, c in kept if c == b)) for b in KINDS}
        return {b: (b, ahead[b], WRITE in ahead[b]) for b in KINDS}

    @property
    def dp_only(self) -> bool:
        """Whether the model keeps only the explicit dependency edges.  It
        then allows load-load hazards (two reads of one variable may be
        reordered) and runs the dependency/reads-from cycle test."""
        return self.kept_po is None

    @property
    def sees_internal_rf(self) -> bool:
        """Whether same-thread reads-from is visible in the model graph:
        whether the write-read program order it would follow is kept,
        that is, whether a read is kept behind a write."""
        return self.links[READ][2]


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


class DerivedModel(NamedTuple):
    """A model's derivation for one history: the model and the history.

    `graphs()` builds the model's two full graphs from the relations
    that `program_orders`, `rf_external` and the history's `dp` and `rf`
    give, on every call; nothing is kept.
    """

    spec: ModelSpec
    history: History

    def graphs(self) -> tuple[EventGraph, EventGraph]:
        """The per-location graph (effective same-variable program order
        plus reads-from) and the model graph (preserved program order plus
        visible reads-from), one vertex per event: the full graphs whose
        contractions `build_base_graphs` returns.  A model keeping only the
        dependency edges takes `dp` as its preserved program order, and
        one that drops write-read order sees only `rf_external`."""
        h, spec = self.history, self.spec
        po, po_loc = program_orders(h, spec)
        rf = h.rf
        visible = rf if spec.sees_internal_rf else rf_external(h)
        return (
            EventGraph(h.n, po_loc, rf),
            EventGraph(h.n, h.dp if spec.dp_only else po, visible),
        )


def rf_external(h: History) -> frozenset[tuple[int, int]]:
    """Reads-from restricted to pairs unrelated by program order.

    Same-thread pairs vanish, and so do pairs sourced by initial writes,
    because initial writes precede everything in program order: kept are
    the pairs of a non-initial write and a read on another thread.
    """
    pairs: list[tuple[int, int]] = []
    for w in h.writes[len(h.thread_events(INIT_THREAD)):]:
        ids = h.thread_events(h.locate(w)[0])
        pairs.extend((w, r) for r in h.readers_of(w) if r not in ids)
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

    The graphs come from the threads' ranges, `h.write_vars`, each write's
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
      thread.  Effective same-variable program order orders those, and
      so does preserved program order when the model keeps write-read
      order; a model that drops it sees no same-thread or initial
      reads-from.  A read ahead of its own write keeps its edge, which
      closes a cycle.
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
      as `program_orders` links the reads since the previous write.
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
      and links each walked event from them as `program_orders` links
      events; the initial writes link to the first walked event kept
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

    This walk and `program_orders` each follow program order through
    `ModelSpec.links` in a loop of their own, on purpose.  This one walks
    only the events it keeps and links vertices of both graphs in one
    pass; that one walks every event and lists the full graphs' edges.
    One walk shared through a callback per link kept both graphs exact,
    but it made this function about 50% slower on long traces and on
    hard reductions, and `program_orders` 4× slower (ROADMAP, measured
    and not kept).
    """
    llh = spec.dp_only
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
    # mark holds the writer's bit above the flags.  A program event's
    # thread is the first whose stop lies past it.
    stops = [h.thread_events(t).stop for t in h.threads]
    marks: dict[int, int] = {}
    for j, w in enumerate(writes):
        readers = h.readers_of(w)
        # Under load-load hazards: the writes to w's variable, then a
        # sentinel past every id.
        local = (*h.writes_on(write_vars[j]), h.n) if llh else ()
        own = bisect_right(stops, w)
        tag = j << 3 | _TAG
        i, end = 0, len(readers)
        while i < end:
            first = readers[i]
            t = bisect_right(stops, first)
            bound = stops[t] - 1
            if llh:
                bound = min(bound, local[bisect_right(local, first)])
            i = bisect_right(readers, bound, i + 1)
            final = first if llh else readers[i - 1]
            if j < len(inits) or t == own and first > w:
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
    stop = 0
    for e in sorted([*writes[j:], *marks]):
        if e >= stop:
            stop = stops[bisect_right(stops, e)]
            last: dict[str, int | None] = {}
            last_on: dict[str, int | None] = dict(init_on)
            since: dict[str, list[int]] = {}
            pending = inits
        mark = marks.get(e)
        slot, ahead, behind = link_w if mark is None else link_r
        src = []
        for a in ahead:
            u = last.get(a)
            if u is not None:
                src.append(u)
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
            if loc is not None:
                adj_loc[loc].append(len(adj_loc))
                adj_loc[w].append(len(adj_loc))
                adj_loc.append([])
                deg_loc.append(2)
            loc = w if loc is None else len(adj_loc) - 1
        if loc is not None and mark & _TAG and loc not in sites_loc[w]:
            sites_loc[w].append(loc)
        if not llh:
            last_on[var] = loc
        elif loc != head:
            since.setdefault(var, []).append(loc)
        if mark & _RF_MM:
            src.append(w)
        mm = src[0] if len(src) == 1 else None
        if len(src) > 1:
            mm = len(adj_mm)
            for u in src:
                adj_mm[u].append(mm)
            adj_mm.append([])
            deg_mm.append(len(src))
        if mm is not None and mark & _TAG and mm not in sites_mm[w]:
            sites_mm[w].append(mm)
        last[slot] = mm
        if dp_reads and e in mm_of:
            mm_of[e] = mm
    return (
        EventGraph.from_rows(adj_loc, deg_loc, sites_loc),
        EventGraph.from_rows(adj_mm, deg_mm, sites_mm),
    )


def program_orders(
    h: History, spec: ModelSpec
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Edges whose closures are the program order a model keeps and its
    effective same-variable program order, from one walk per thread.

    Program order: each event gets an edge from the last earlier event of
    each slot it follows (`ModelSpec.links`): the event before it when the
    model keeps every pair, and otherwise the last earlier event of each
    kind kept ahead of it; an earlier event of that kind reaches the last
    one because every model that keeps (K, L) also keeps (K, K).  The
    initial writes get an edge to the first event of each thread that is
    kept behind a write; the later such events follow that one, because
    the kinds a model keeps behind a write are kept behind each other.  A
    model that keeps only the dependency edges keeps no pair here.

    Same-variable program order: each (thread, variable) forms a chain
    headed by the variable's initial write.  When the model allows
    load-load hazards (`dp_only`), read-read pairs are removed: each event
    then follows the last write to its variable (or the initial write),
    and each write follows every read of its variable since the previous
    write.  A read-read pair with a write between stays in the closure, as
    it does in the closure of the pair set.

    This walk and `build_base_graphs` each follow program order through
    `ModelSpec.links` in a loop of their own, on purpose: a walk shared
    through a callback per link made this one 4× slower and that one
    about 50% slower (see `build_base_graphs`).
    """
    links = spec.links
    llh = spec.dp_only
    access = h.access
    inits = h.thread_events(INIT_THREAD)
    init_of = {access[i][1]: i for i in inits}
    po: list[tuple[int, int]] = []
    loc: list[tuple[int, int]] = []
    for t in h.threads:
        last: dict[str, int] = {}
        last_on = dict(init_of)
        reads_since: dict[str, list[int]] = {}
        pending = inits
        for b in h.thread_events(t):
            kind, var, _ = access[b]
            slot, ahead, behind_write = links[kind]
            for a in ahead:
                u = last.get(a)
                if u is not None:
                    po.append((u, b))
            if pending and behind_write:
                po.extend((i, b) for i in pending)
                pending = ()
            last[slot] = b
            u = last_on.get(var)
            if u is not None:
                loc.append((u, b))
            if not llh:
                last_on[var] = b
            elif kind == WRITE:
                loc.extend((r, b) for r in reads_since.pop(var, ()))
                last_on[var] = b
            else:
                reads_since.setdefault(var, []).append(b)
    return po, loc


def derive(h: History, spec: ModelSpec) -> DerivedModel:
    """The model's derivation for `h`, whose `graphs()` builds its full
    graphs on each call.

    Pure: equal inputs give identical graphs.  Under rmo the
    dependency relation must be read-sourced and lie inside program
    order; it is not re-checked here, because every history passes
    through `assemble_history`, which rejects any other dp edge.
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
