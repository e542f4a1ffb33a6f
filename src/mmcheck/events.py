"""Core data model: events and histories.

A history is a collection of per-thread sequences of read/write events
plus a reads-from relation mapping each read to the write that supplied
its value.  Values follow a write-once discipline per variable (each
value is written to a variable at most once), which makes reads-from
reconstructible from values alone.  Program order is not stored: it is
a comparison of `(thread, pos)`, with initial writes before every other
event (see :meth:`History.po_before`).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Mapping, NamedTuple, Sequence

from .errors import (
    AmbiguousRfError,
    DanglingRefError,
    DuplicateValueError,
    InvalidDpError,
    TraceSyntaxError,
    UnsourcedReadError,
)

WRITE = "wr"
READ = "rd"

#: Name of the virtual thread holding initial writes.
INIT_THREAD = "init"

MAX_VALUE = 2**64 - 1


class Event(NamedTuple):
    """A single read or write access."""

    id: int
    thread: str
    pos: int
    kind: str
    var: str
    val: int
    is_init: bool = False

    @property
    def is_write(self) -> bool:
        return self.kind == WRITE

    @property
    def is_read(self) -> bool:
        return self.kind == READ

    @property
    def ref(self) -> str:
        """Stable textual reference, `<thread>:<pos>`."""
        return f"{self.thread}:{self.pos}"


def _po_before(a: Event, b: Event) -> bool:
    if a.is_init:
        return not b.is_init
    return a.thread == b.thread and a.pos < b.pos


class History:
    """Events plus reads-from and dependency relations.

    `rf` and `dp` are frozensets of `(source, target)` event-id pairs;
    `rf` is built on first access, as the solver reads reads-from through
    `readers_of` only.  Program order is answered by :meth:`po_before`
    from event positions.

    Instances are immutable after construction (the cached `rf` is the
    same value whoever builds it) and safe to share across threads.  Use
    :func:`assemble_history` (or the trace parser) to build one; the
    constructor neither validates nor walks the events, and takes its
    indexes, ids ascending, from the assembly pass.  `threads` maps each
    thread name, the virtual `init` thread first, to its event ids in
    program order, and `rf_source` maps each read to its writer.
    """

    __slots__ = (
        "events",
        "dp",
        "_rf",
        "threads",
        "_thread_ids",
        "_writes",
        "_reads",
        "_readers",
        "_rf_source",
        "_writes_on",
    )

    def __init__(
        self,
        events: Sequence[Event],
        dp: frozenset[tuple[int, int]],
        threads: Mapping[str, tuple[int, ...]],
        writes: Sequence[int],
        reads: Sequence[int],
        writes_on: Mapping[str, Sequence[int]],
        rf_source: dict[int, int],
        readers: Mapping[int, Sequence[int]],
    ):
        self.events: tuple[Event, ...] = tuple(events)
        self.dp = dp
        self._rf: frozenset[tuple[int, int]] | None = None
        self.threads: tuple[str, ...] = tuple(
            t for t in threads if t != INIT_THREAD
        )
        self._thread_ids = threads
        self._writes = tuple(writes)
        self._reads = tuple(reads)
        self._writes_on = {v: tuple(ws) for v, ws in writes_on.items()}
        self._readers = {w: tuple(rs) for w, rs in readers.items()}
        self._rf_source = rf_source

    @property
    def rf(self) -> frozenset[tuple[int, int]]:
        """Reads-from as `(write, read)` pairs."""
        if self._rf is None:
            source = self._rf_source
            self._rf = frozenset(zip(source.values(), source))
        return self._rf

    @property
    def n(self) -> int:
        """Total number of events."""
        return len(self.events)

    @property
    def k(self) -> int:
        """Number of write events, initial writes included."""
        return len(self._writes)

    @property
    def writes(self) -> tuple[int, ...]:
        return self._writes

    @property
    def reads(self) -> tuple[int, ...]:
        return self._reads

    @property
    def init_events(self) -> tuple[Event, ...]:
        return tuple(self.events[i] for i in self._thread_ids[INIT_THREAD])

    @property
    def variables(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for e in self.events:
            seen.setdefault(e.var)
        return tuple(seen)

    def po_before(self, a: int, b: int) -> bool:
        """Whether event `a` precedes event `b` in program order.

        Initial writes precede every other event and are unordered among
        themselves; otherwise `a` and `b` must share a thread and `a` must
        sit at an earlier position.  Irreflexive and transitive.
        """
        return _po_before(self.events[a], self.events[b])

    def resolve_ref(self, thread: str, pos: int) -> int:
        return _resolve(self._thread_ids, (thread, pos))

    def readers_of(self, write_id: int) -> tuple[int, ...]:
        return self._readers.get(write_id, ())

    def rf_source(self, read_id: int) -> int:
        return self._rf_source[read_id]

    def writes_on(self, var: str) -> tuple[int, ...]:
        return self._writes_on.get(var, ())

    def thread_events(self, thread: str) -> tuple[int, ...]:
        return self._thread_ids[thread]

    def ref(self, eid: int) -> str:
        return self.events[eid].ref

    def format_cycle(self, cycle: Sequence[int]) -> str:
        refs = [self.ref(e) for e in cycle]
        refs.append(refs[0])
        return " -> ".join(refs)


def _resolve(
    thread_ids: Mapping[str, tuple[int, ...]], ref: tuple[str, int]
) -> int:
    thread, pos = ref
    ids = thread_ids.get(thread, ())
    if not 0 <= pos < len(ids):
        raise DanglingRefError(f"no event {thread}:{pos}")
    return ids[pos]


def assemble_history(
    init: Sequence[tuple[str, int]] = (),
    threads: Sequence[tuple[str, Sequence[tuple[str, str, int]]]] = (),
    rf_refs: Sequence[tuple[tuple[str, int], tuple[str, int]]] | None = None,
    dp_refs: Sequence[tuple[tuple[str, int], tuple[str, int]]] = (),
) -> History:
    """Build and validate a history from structured pieces.

    `init` lists (var, value) initial writes.  `threads` lists
    (name, [(kind, var, value), ...]) blocks in declaration order; event
    ids are assigned document-first (initial writes, then threads in order,
    events in program order).  Event references are `(thread, pos)` pairs,
    initial writes on thread `init`.  `rf_refs` gives explicit reads-from
    edges as (writer, read) pairs; when None, reads-from is inferred from
    values.  `dp_refs` gives dependency edges, which must start at a read
    and follow program order.
    """
    seen_init_vars: set[str] = set()
    for var, _ in init:
        if var in seen_init_vars:
            raise DuplicateValueError(f"variable {var!r} initialized twice")
        seen_init_vars.add(var)

    # One pass: events, per-thread ids, the write and read indexes, and the
    # (var, value) -> writer map that both rejects duplicate values and
    # infers reads-from.  Events are built positionally, at under half the
    # cost of the NamedTuple constructor.
    new_event = tuple.__new__
    events: list[Event] = []
    thread_ids: dict[str, tuple[int, ...]] = {}
    writer_of: dict[tuple[str, int], int] = {}
    writes: list[int] = []
    writes_on: defaultdict[str, list[int]] = defaultdict(list)
    reads: list[int] = []
    init_block = [(WRITE, var, val) for var, val in init]
    for name, block in [(INIT_THREAD, init_block), *threads]:
        if name in thread_ids:
            raise TraceSyntaxError(
                f"thread name {INIT_THREAD!r} is reserved"
                if name == INIT_THREAD
                else f"duplicate thread {name!r}"
            )
        is_init = name == INIT_THREAD
        start = len(events)
        for pos, (kind, var, val) in enumerate(block):
            eid = start + pos
            if kind == READ:
                reads.append(eid)
            elif kind == WRITE:
                w = writer_of.setdefault((var, val), eid)
                if w != eid:
                    raise DuplicateValueError(
                        f"value {val} written twice to {var!r} "
                        f"({events[w].ref} and {name}:{pos})"
                    )
                writes.append(eid)
                writes_on[var].append(eid)
            else:
                raise TraceSyntaxError(f"unknown access kind {kind!r}")
            if not 0 <= val <= MAX_VALUE:
                raise TraceSyntaxError(
                    f"value {val} outside the unsigned 64-bit range"
                )
            events.append(
                new_event(Event, (eid, name, pos, kind, var, val, is_init))
            )
        thread_ids[name] = tuple(range(start, len(events)))

    # Readers are appended in read order, so each list comes out sorted
    # whatever the order of explicit rf lines.
    source: dict[int, int] = {}
    readers: defaultdict[int, list[int]] = defaultdict(list)
    if rf_refs is None:
        for r in reads:
            e = events[r]
            w = writer_of.get((e[4], e[5]))
            if w is None:
                raise UnsourcedReadError(
                    f"read {e.ref} of {e.var}={e.val} has no matching write"
                )
            source[r] = w
            readers[w].append(r)
    else:
        for wref, rref in rf_refs:
            ew = events[_resolve(thread_ids, wref)]
            er = events[_resolve(thread_ids, rref)]
            if not ew.is_write or not er.is_read:
                raise AmbiguousRfError(
                    f"rf {ew.ref} -> {er.ref} must connect a write to a read"
                )
            if ew.var != er.var:
                raise AmbiguousRfError(
                    f"rf {ew.ref} -> {er.ref} connects different variables"
                )
            if ew.val != er.val:
                raise AmbiguousRfError(
                    f"rf {ew.ref} -> {er.ref} has value {ew.val} feeding a "
                    f"read of {er.val}"
                )
            if er.id in source:
                raise AmbiguousRfError(f"read {er.ref} has two rf edges")
            source[er.id] = ew.id
        for r in reads:
            w = source.get(r)
            if w is None:
                raise UnsourcedReadError(
                    f"read {events[r].ref} is not covered by the explicit "
                    "rf edges"
                )
            readers[w].append(r)

    dp_pairs = set()
    for sref, tref in dp_refs:
        es = events[_resolve(thread_ids, sref)]
        et = events[_resolve(thread_ids, tref)]
        if not es.is_read:
            raise InvalidDpError(f"dp {es.ref} -> {et.ref} must start at a read")
        if not _po_before(es, et):
            raise InvalidDpError(
                f"dp {es.ref} -> {et.ref} does not follow program order"
            )
        dp_pairs.add((es.id, et.id))

    return History(
        events, frozenset(dp_pairs), thread_ids,
        writes, reads, writes_on, source, readers,
    )
