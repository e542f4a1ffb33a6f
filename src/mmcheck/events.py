"""Core data model: events and histories.

A history is a collection of per-thread sequences of read/write events
plus a reads-from relation mapping each read to the write that supplied
its value.  Values follow a write-once discipline per variable (each
value is written to a variable at most once), which makes reads-from
reconstructible from values alone.  Program order is not stored: it is
a comparison of `(thread, pos)`, with initial writes before every other
event (see :meth:`History.po_before`).

A `History` holds its events as columns indexed by event id: `access`,
each event's `(kind, var, value)` tuple, and `thread_of`, its thread's
name; each thread's ids are consecutive, so a position is the id minus
the thread's first id.  Equal access lines share one tuple, so a long
trace of few distinct accesses costs one pointer per event.  `Event`
records are a view, built on first access to `History.events`; the
solver reads the columns only.
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


def _po_before(thread_of: Sequence[str], a: int, b: int) -> bool:
    if thread_of[a] == INIT_THREAD:
        return thread_of[b] != INIT_THREAD
    return a < b and thread_of[a] == thread_of[b]


def _ref(
    thread_of: Sequence[str], thread_ids: Mapping[str, Sequence[int]], eid: int
) -> str:
    return f"{thread_of[eid]}:{eid - thread_ids[thread_of[eid]][0]}"


class History:
    """Events plus reads-from and dependency relations.

    The events are two columns indexed by event id: `access` holds each
    event's `(kind, var, value)` tuple, shared between equal accesses, and
    `thread_of` its thread's name.  `events`, the `Event` records, is a
    view built from them on first access and cached; the solver never
    builds it.  `rf` and `dp` are frozensets of `(source, target)` event-id
    pairs; `rf` is built on first access, as the solver reads reads-from
    through `readers_of` only.  Program order is answered by
    :meth:`po_before` from the columns.

    Instances are immutable after construction (the cached `rf` and
    `events` are the same value whoever builds them) and safe to share
    across threads.  Use :func:`assemble_history` (or the trace parser) to
    build one; the constructor neither validates nor walks the events, and
    takes its indexes, ids ascending, from the assembly pass.  `threads`
    maps each thread name, the virtual `init` thread first, to its event
    ids in program order, `rf_source` holds each read's writer at the
    read's id (None at a write's), and `readers` maps each write with
    readers to them, in id order.
    """

    __slots__ = (
        "access",
        "thread_of",
        "dp",
        "_events",
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
        access: Sequence[tuple[str, str, int]],
        thread_of: Sequence[str],
        dp: frozenset[tuple[int, int]],
        threads: Mapping[str, tuple[int, ...]],
        writes: Sequence[int],
        reads: Sequence[int],
        writes_on: Mapping[str, Sequence[int]],
        rf_source: Sequence[int | None],
        readers: Mapping[int, tuple[int, ...]],
    ):
        self.access: tuple[tuple[str, str, int], ...] = tuple(access)
        self.thread_of: tuple[str, ...] = tuple(thread_of)
        self.dp = dp
        self._events: tuple[Event, ...] | None = None
        self._rf: frozenset[tuple[int, int]] | None = None
        self.threads: tuple[str, ...] = tuple(threads)[1:]
        self._thread_ids = threads
        self._writes = tuple(writes)
        self._reads = tuple(reads)
        self._writes_on = {v: tuple(ws) for v, ws in writes_on.items()}
        self._readers = readers
        self._rf_source = tuple(rf_source)

    @property
    def events(self) -> tuple[Event, ...]:
        """Every event, in id order, built from the columns once."""
        if self._events is None:
            access = self.access
            self._events = tuple(
                Event(i, t, pos, *access[i], t == INIT_THREAD)
                for t, ids in self._thread_ids.items()
                for pos, i in enumerate(ids)
            )
        return self._events

    @property
    def rf(self) -> frozenset[tuple[int, int]]:
        """Reads-from as `(write, read)` pairs."""
        if self._rf is None:
            reads = self._reads
            writer = self._rf_source.__getitem__
            self._rf = frozenset(zip(map(writer, reads), reads))
        return self._rf

    @property
    def n(self) -> int:
        """Total number of events."""
        return len(self.access)

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
        access = self.access
        return tuple(
            Event(i, INIT_THREAD, i, *access[i], True)
            for i in self._thread_ids[INIT_THREAD]
        )

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(var for _, var, _ in self.access))

    def po_before(self, a: int, b: int) -> bool:
        """Whether event `a` precedes event `b` in program order.

        Initial writes precede every other event and are unordered among
        themselves; otherwise `a` and `b` must share a thread and `a` must
        sit at an earlier position.  Irreflexive and transitive.
        """
        return _po_before(self.thread_of, a, b)

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
        return _ref(self.thread_of, self._thread_ids, eid)

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
    and follow program order.  When the pieces hold several faults, the
    one at the earliest event is reported.
    """
    seen_init_vars: set[str] = set()
    for var, _ in init:
        if var in seen_init_vars:
            raise DuplicateValueError(f"variable {var!r} initialized twice")
        seen_init_vars.add(var)

    # The blocks extend the columns, and kinds and values are checked once
    # per distinct access, so Python code runs per block, per distinct
    # access and per write, and each event costs a few steps of list and
    # dict work.  `writer_of` maps the access that reads each write's value
    # to the write: it rejects duplicate values and infers reads-from.
    # Faults are compared by position, so the one at the earliest event
    # wins; a write's duplicate value is found before its range fault.
    access: list[tuple[str, str, int]] = []
    thread_of: list[str] = []
    thread_ids: dict[str, tuple[int, ...]] = {}

    def ref(eid: int) -> str:
        return _ref(thread_of, thread_ids, eid)

    name_fault = None
    init_block = [(WRITE, var, val) for var, val in init]
    for name, block in [(INIT_THREAD, init_block), *threads]:
        if name in thread_ids:
            name_fault = TraceSyntaxError(
                f"thread name {INIT_THREAD!r} is reserved"
                if name == INIT_THREAD
                else f"duplicate thread {name!r}"
            )
            break
        start = len(access)
        access.extend(block)
        thread_of += [name] * len(block)
        thread_ids[name] = tuple(range(start, len(access)))
    first_bad = len(access)
    for a in set(access):
        if a[0] not in (WRITE, READ) or not 0 <= a[2] <= MAX_VALUE:
            first_bad = min(first_bad, access.index(a))
    writer_of: dict[tuple[str, str, int], int] = {}
    writes: list[int] = []
    writes_on: defaultdict[str, list[int]] = defaultdict(list)
    for w in [i for i, a in enumerate(access) if a[0] == WRITE]:
        if w > first_bad:
            break
        _, var, val = access[w]
        first = writer_of.setdefault((READ, var, val), w)
        if first != w:
            raise DuplicateValueError(
                f"value {val} written twice to {var!r} "
                f"({ref(first)} and {ref(w)})"
            )
        writes.append(w)
        writes_on[var].append(w)
    if first_bad < len(access):
        kind, _, val = access[first_bad]
        raise TraceSyntaxError(
            f"unknown access kind {kind!r}"
            if kind not in (WRITE, READ)
            else f"value {val} outside the unsigned 64-bit range"
        )
    if name_fault is not None:
        raise name_fault

    # The writer of each read sits at the read's id; a write's entry is
    # None.
    reads = [i for i, a in enumerate(access) if a[0] == READ]
    source: list[int | None]
    if rf_refs is None:
        # A read's access is the key of its writer: one lookup each.
        source = list(map(writer_of.get, access))
        if source.count(None) > len(writes):
            r = next(r for r in reads if source[r] is None)
            _, var, val = access[r]
            raise UnsourcedReadError(
                f"read {ref(r)} of {var}={val} has no matching write"
            )
    else:
        source = [None] * len(access)
        for wref, rref in rf_refs:
            w = _resolve(thread_ids, wref)
            r = _resolve(thread_ids, rref)
            (wkind, wvar, wval), (rkind, rvar, rval) = access[w], access[r]
            if wkind != WRITE or rkind != READ:
                fault = "must connect a write to a read"
            elif wvar != rvar:
                fault = "connects different variables"
            elif wval != rval:
                fault = f"has value {wval} feeding a read of {rval}"
            elif source[r] is not None:
                raise AmbiguousRfError(f"read {ref(r)} has two rf edges")
            else:
                source[r] = w
                continue
            raise AmbiguousRfError(f"rf {ref(w)} -> {ref(r)} {fault}")
        r = next((r for r in reads if source[r] is None), None)
        if r is not None:
            raise UnsourcedReadError(
                f"read {ref(r)} is not covered by the explicit rf edges"
            )
    # Readers are appended in read order, so each tuple comes out sorted
    # whatever the order of explicit rf lines.
    readers_of: defaultdict[int, list[int]] = defaultdict(list)
    for r in reads:
        readers_of[source[r]].append(r)
    readers = {w: tuple(rs) for w, rs in readers_of.items()}

    dp_pairs = set()
    for sref, tref in dp_refs:
        s = _resolve(thread_ids, sref)
        t = _resolve(thread_ids, tref)
        if access[s][0] != READ:
            raise InvalidDpError(f"dp {ref(s)} -> {ref(t)} must start at a read")
        if not _po_before(thread_of, s, t):
            raise InvalidDpError(
                f"dp {ref(s)} -> {ref(t)} does not follow program order"
            )
        dp_pairs.add((s, t))

    return History(
        access, thread_of, frozenset(dp_pairs), thread_ids,
        writes, reads, writes_on, source, readers,
    )
