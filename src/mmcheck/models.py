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

Derived program order is emitted as edge lists of size O(n) whose
transitive closure is the kept pair set; acyclicity, reachability and the
solver's search tables depend on nothing else.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Collection
from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidDpError, UnknownModelError
from .events import INIT_THREAD, READ, WRITE, History
from .graphs import EventGraph, contracted, find_cycle


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
    and the effective same-variable program order.  `rf_mm`, the visible
    reads-from, is built from `history` on first access unless given; the
    solver reads it only under rmo and to report a cyclic model graph.
    `spec` is the model the relations were derived for.  Built without
    one, and then with `rf_mm`, as the test-side reference derivation
    builds it, `build_base_graphs` keeps every reads-from edge instead of
    thinning them by the model's program order.
    """

    __slots__ = ("po_mm", "po_loc_effective", "spec", "history", "_rf_mm")

    def __init__(
        self,
        *,
        po_mm: Collection[tuple[int, int]],
        po_loc_effective: Collection[tuple[int, int]],
        rf_mm: frozenset[tuple[int, int]] | None = None,
        spec: ModelSpec | None = None,
        history: History | None = None,
    ):
        self.po_mm = po_mm
        self.po_loc_effective = po_loc_effective
        self.spec = spec
        self.history = history
        self._rf_mm = rf_mm

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
    events = h.events
    pairs: list[tuple[int, int]] = []
    for w in h.writes:
        _, thread, _, _, _, _, is_init = events[w]
        if not is_init:
            pairs.extend(
                (w, r) for r in h.readers_of(w) if events[r][1] != thread
            )
    return frozenset(pairs)


def build_base_graphs(
    h: History, derived: DerivedModel
) -> tuple[EventGraph, EventGraph]:
    """The two order-free graphs whose acyclicity anchors the recursion.

    First the per-location graph (effective same-variable program order
    plus reads-from), then the model graph (preserved program order plus
    visible reads-from).  Each has the reachability between events, and
    the cycles, of the graph of its full relations, on far fewer vertices
    and edges:

    - Reads-from edges that program order implies are left out, when the
      derivation names its model and the model keeps read-read program
      order (`keeps_read_order`), so that both graphs order two reads of
      one thread and variable.  A write then needs an edge only to the
      po-first read of each thread that it feeds, and none when it
      precedes that read in program order: an initial write, or an
      earlier write of the read's thread.  Each edge left out lies on a
      path the graph keeps: both graphs order a thread's reads of one
      variable, `po_loc_effective` (and `po_mm`, when the model keeps
      write-read order) orders a write before the later events of its
      thread on its variable and an initial write before every event on
      its variable, and a model that drops write-read order sees no
      same-thread or initial reads-from.  A same-thread read ahead of
      its write keeps its edge, which closes a cycle.  Without a model,
      or when read-read order is not kept, every edge is kept.
    - Each read entered by exactly one edge joins the vertex of that
      edge's source; `graphs.contracted` gives the rule and why it is
      exact.
    """
    spec = derived.spec
    if spec is not None and spec.keeps_read_order:
        rf_loc, rf_mm = _first_reads(h, spec.sees_internal_rf)
    else:
        rf_loc, rf_mm = h.rf, derived.rf_mm
    return (
        contracted(h, derived.po_loc_effective, rf_loc),
        contracted(h, derived.po_mm, rf_mm),
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


def po_edges(h: History, spec: ModelSpec) -> list[tuple[int, int]]:
    """Edges whose closure is the program order a model keeps.

    A model that keeps every pair gets one chain per thread.  Otherwise
    each event gets an edge from the last earlier event of each kind kept
    ahead of it (`spec.ahead`); an earlier event of that kind reaches the
    last one because every model that keeps (K, L) also keeps (K, K).
    The initial writes get an edge to the first event of each thread that
    is kept behind a write; the later such events follow that one, because
    the kinds a model keeps behind a write are kept behind each other.
    """
    ahead = spec.ahead
    events = h.events
    inits = h.thread_events(INIT_THREAD)
    edges: list[tuple[int, int]] = []
    if len(spec.kept_po) == len(KINDS) ** 2:  # every pair is kept
        for t in h.threads:
            ids = h.thread_events(t)
            if ids:
                edges.extend((i, ids[0]) for i in inits)
                edges.extend(zip(ids, ids[1:]))
        return edges
    for t in h.threads:
        last: dict[str, int] = {}
        inits_pending = True
        for b in h.thread_events(t):
            kind = events[b][3]
            for earlier in ahead[kind]:
                a = last.get(earlier)
                if a is not None:
                    edges.append((a, b))
            if inits_pending and WRITE in ahead[kind]:
                edges.extend((i, b) for i in inits)
                inits_pending = False
            last[kind] = b
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
    events = h.events
    init_of = {events[i][4]: i for i in h.thread_events(INIT_THREAD)}
    edges: list[tuple[int, int]] = []
    for t in h.threads:
        last = dict(init_of)
        reads_since: dict[str, list[int]] = {}
        for b in h.thread_events(t):
            _, _, _, kind, var, _, _ = events[b]
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
    """Compute the preserved program order; visible reads-from follows on
    first access.

    Pure: equal inputs give identical relations.  For rmo the dependency
    relation must be read-sourced and lie inside program order; histories
    built by this package guarantee that, but it is re-checked here.
    """
    events = h.events
    if spec.kept_po is None:
        for a, b in h.dp:
            if not events[a].is_read or not h.po_before(a, b):
                raise InvalidDpError(
                    f"dp edge {h.ref(a)} -> {h.ref(b)} is not a read-sourced "
                    "program-order edge"
                )
        po_mm: Collection[tuple[int, int]] = h.dp
    else:
        po_mm = po_edges(h, spec)

    return DerivedModel(
        po_mm=po_mm,
        po_loc_effective=po_loc(h, llh=spec.allows_llh),
        spec=spec,
        history=h,
    )


def oota_cycle(h: History) -> list[int] | None:
    """One cycle of the dependency/reads-from union, or None if acyclic.

    A cycle would mean some value justifies itself through a loop of
    dependencies and reads; models with explicit dependencies reject such
    histories outright.
    """
    return find_cycle(EventGraph(h.n, h.dp, h.rf))
