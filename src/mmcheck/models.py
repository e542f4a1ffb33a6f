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
built on first access, for the cyclic-graph diagnostic, the oracles,
rmo and the tests.  Under sc, tso and pso the solver does not read them:
`build_base_graphs` builds its two graphs straight from the history's
thread column, each write's variable and each write's sorted readers,
at a cost that grows with the writes and threads and only
logarithmically with the events (see its docstring).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Collection, Sequence
from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidDpError, UnknownModelError
from .events import INIT_THREAD, READ, WRITE, History
from .graphs import EventGraph, event_graph, find_cycle


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
    def allows_llh(self) -> bool:
        """Whether two reads of one variable may be reordered (load-load
        hazards): exactly when only the dependency edges are kept."""
        return self.kept_po is None

    @property
    def requires_oota(self) -> bool:
        """Whether the dependency/reads-from cycle test applies: exactly
        when only the dependency edges are kept."""
        return self.kept_po is None

    @property
    def keeps_read_order(self) -> bool:
        """Whether both base graphs order two reads of one thread and
        variable: whether read-read program order is kept, which rules
        out load-load hazards as well."""
        return READ in self.ahead[READ]

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
    """The relations a model actually exposes for one history.

    `po_mm` and `po_loc_effective` are edge lists: their transitive
    closures, not the lists themselves, are the preserved program order
    and the effective same-variable program order.  `rf_mm` is the
    visible reads-from.  Each is built from `history` and `spec` on first
    access unless given.  `spec` is the model the relations were derived
    for.  Built without one, and then with all three relations, as the
    test-side reference derivation builds it, `build_base_graphs` takes
    the graphs of the given relations instead of reading the columns.
    """

    __slots__ = ("spec", "history", "_po_mm", "_po_loc", "_rf_mm")

    def __init__(
        self,
        *,
        po_mm: Collection[tuple[int, int]] | None = None,
        po_loc_effective: Collection[tuple[int, int]] | None = None,
        rf_mm: frozenset[tuple[int, int]] | None = None,
        spec: ModelSpec | None = None,
        history: History | None = None,
    ):
        self.spec = spec
        self.history = history
        self._po_mm = po_mm
        self._po_loc = po_loc_effective
        self._rf_mm = rf_mm

    @property
    def po_mm(self) -> Collection[tuple[int, int]]:
        if self._po_mm is None:
            self._po_mm = po_edges(self.history, self.spec)
        return self._po_mm

    @property
    def po_loc_effective(self) -> Collection[tuple[int, int]]:
        if self._po_loc is None:
            self._po_loc = po_loc(self.history, llh=self.spec.allows_llh)
        return self._po_loc

    @property
    def rf_mm(self) -> frozenset[tuple[int, int]]:
        if self._rf_mm is None:
            h = self.history
            internal = self.spec.sees_internal_rf
            self._rf_mm = h.rf if internal else rf_external(h)
        return self._rf_mm


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
    h: History, derived: DerivedModel
) -> tuple[EventGraph, EventGraph]:
    """The two order-free graphs whose acyclicity anchors the recursion.

    First the per-location graph (effective same-variable program order
    plus reads-from), then the model graph (preserved program order plus
    visible reads-from).  Each graph has the acyclicity of the graph of
    its full relations, and the same reach between writes and tag sites
    (see `EventGraph`).

    When the derivation names a model that keeps read-read program order
    (sc, tso and pso: `keeps_read_order`), the graphs come from
    `h.thread_of`, `h.write_vars` and each write's readers, without the
    edge lists or any other per-event column, on far fewer vertices;
    writes take vertices 0..k-1 in `h.writes` order, and a walked read
    takes its variable from its writer:

    - Reads-from.  Both graphs order the reads of one thread and
      variable.  A write then needs an edge only to the first read of
      each thread it feeds, and none when it precedes that read in
      program order: an initial write, or an earlier write of the read's
      thread.  `po_loc_effective` orders those, and so does `po_mm` when
      the model keeps write-read order; a model that drops it sees no
      same-thread or initial reads-from.  A read ahead of its own write
      keeps its edge, which closes a cycle.
    - Tag sites.  Every read of write i in thread t reaches the last one.
      So whatever reaches a read of i in t reaches the last one, and a
      conflict edge from a read of i in t is implied by the same edge
      from the last one.  The tag sites of i are its last read in each
      thread it feeds: they give the solver's tables and the witness
      re-check what all of i's reads would give them.
    - Walked events.  The program writes, the reads a reads-from edge
      enters and the tag sites are walked; no other event is.  Bisecting
      each write's sorted readers against each thread's last id gives
      the first and last read of each (writer, thread) pair, so finding
      them costs O(k·T·log n) for T threads.  One walk over them in id
      order, which is program order within each thread, builds both
      graphs.  Per thread and graph it keeps the vertex of the last
      walked event of each slot (`ModelSpec.links`) or of each variable,
      and links each walked event from them as `po_edges` and `po_loc`
      link events; the initial writes link to the first walked event
      kept behind a write, and to the first walked event on their
      variable.  Kept program order is a set of pairs closed under
      composition, so those links keep it exact between walked events;
      every reads-from edge joins two walked events; and every cycle
      takes a reads-from edge.  So reach between walked events, and every
      cycle, are those of the full graphs.
    - Merges.  A walked read entered by exactly one edge joins the vertex of
      that edge's source.  Writes never merge and hold their vertices before
      the walk, and a program-order source is walked before the read, so the
      source's vertex is known.  The merge edge vanishes; any other edge
      between two events of one vertex stays as a self-loop, which is the
      cycle it closes.  Every path into a merged read passes through its
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
    - Size.  A walked read takes a vertex of its own only when program
      order and a reads-from edge both enter it, at most one per
      (program write, thread), or when it takes the initial writes'
      edges, at most one per thread: each graph has at most k + k·T + T
      vertices.

    Otherwise (rmo, or a derivation without a model) the graphs are the
    `graphs.event_graph` graphs of the full relations: one vertex per
    event, every reads-from edge, and every read a tag site.
    """
    spec = derived.spec
    if spec is None or not spec.keeps_read_order:
        return (
            event_graph(h, derived.po_loc_effective, h.rf),
            event_graph(h, derived.po_mm, derived.rf_mm),
        )
    thread_of = h.thread_of
    writes = h.writes
    write_vars = h.write_vars
    k = len(writes)
    # Initial writes hold the first ids, so their bits are their ids.
    inits = h.thread_events(INIT_THREAD)
    internal = _RF_MM if spec.sees_internal_rf else 0

    # Mark the first and last read of each (writer, thread) pair: the
    # writer's bit above the flags.
    end_of = {t: ids[-1] for t in h.threads if (ids := h.thread_events(t))}
    marks: dict[int, int] = {}
    for j, w in enumerate(writes):
        readers = h.readers_of(w)
        own = thread_of[w]
        tag = j << 3 | _TAG
        i, end = 0, len(readers)
        while i < end:
            first = readers[i]
            t = thread_of[first]
            i = bisect_right(readers, end_of[t], i + 1)
            final = readers[i - 1]
            if own == INIT_THREAD or t == own and first > w:
                entry = 0
            else:
                entry = j << 3 | _RF_LOC | (internal if t == own else _RF_MM)
            if final == first:
                marks[first] = entry | tag
            else:
                if entry:
                    marks[first] = entry
                marks[final] = tag

    # Walk the program writes and the marked reads in id order, which is
    # program order within each thread.  The per-location graph links
    # each event from the last one on its variable, the model graph from
    # the last one in each slot of `ModelSpec.links`.
    slot_w, from_w, behind_w = spec.links[WRITE]
    slot_r, from_r, behind_r = spec.links[READ]
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
            pending = inits
        mark = marks.get(e)
        var = write_vars[j if mark is None else mark >> 3]
        loc = last_on.get(var)
        if mark is None:
            src = [u for a in from_w if (u := last.get(a)) is not None]
            if pending and behind_w:
                src += pending
                pending = ()
            if loc is not None:
                adj_loc[loc].append(j)
                deg_loc[j] += 1
            for u in src:
                adj_mm[u].append(j)
            deg_mm[j] += len(src)
            last[slot_w] = last_on[var] = j
            j += 1
            continue
        w = mark >> 3
        if mark & _RF_LOC:
            loc = w if loc is None else _join(adj_loc, deg_loc, (loc, w))
        if loc is not None and mark & _TAG:
            sites_loc[w].append(loc)
        last_on[var] = loc
        src = [u for a in from_r if (u := last.get(a)) is not None]
        if pending and behind_r:
            src += pending
            pending = ()
        if mark & _RF_MM:
            src.append(w)
        if len(src) == 1:
            mm = src[0]
        else:
            mm = _join(adj_mm, deg_mm, src) if src else None
        if mm is not None and mark & _TAG:
            sites_mm[w].append(mm)
        last[slot_r] = mm
    return _graph(adj_loc, deg_loc, sites_loc), _graph(adj_mm, deg_mm, sites_mm)


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
    g.write_vertex = range(len(sites))
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


def po_loc(h: History, llh: bool = False) -> list[tuple[int, int]]:
    """Edges whose closure is the same-variable program order.

    Each (thread, variable) forms a chain headed by the variable's initial
    write.  With `llh` set, read-read pairs are removed, which is the
    weakening used by models that permit load-load hazards: each event
    then follows the last write to its variable (or the initial write),
    and each write follows every read of its variable since the previous
    write.  A read-read pair with a write between stays in the closure,
    as it does in the closure of the pair set.
    """
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

    Pure: equal inputs give identical relations.  For rmo the dependency
    relation must be read-sourced and lie inside program order; histories
    built by this package guarantee that, but it is re-checked here.
    """
    if spec.kept_po is not None:
        return DerivedModel(spec=spec, history=h)
    for a, b in h.dp:
        if h.access[a][0] != READ or not h.po_before(a, b):
            raise InvalidDpError(
                f"dp edge {h.ref(a)} -> {h.ref(b)} is not a read-sourced "
                "program-order edge"
            )
    return DerivedModel(po_mm=h.dp, spec=spec, history=h)


def oota_cycle(h: History) -> list[int] | None:
    """One cycle of the dependency/reads-from union, or None if acyclic.

    A cycle would mean some value justifies itself through a loop of
    dependencies and reads; models with explicit dependencies reject such
    histories outright.  Reads-from alone only joins writes to reads, so
    with no dependency edge there is no cycle and no graph is built.
    """
    if not h.dp:
        return None
    return find_cycle(EventGraph(h.n, h.dp, h.rf))
