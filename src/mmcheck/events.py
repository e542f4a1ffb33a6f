"""Core data model: histories, held as columns.

A history is a collection of per-thread sequences of read/write events
plus a reads-from relation mapping each read to the write that supplied
its value.  Values follow a write-once discipline per variable (each
value is written to a variable at most once), which makes reads-from
reconstructible from values alone.  Program order is not stored: it is
a comparison of `(thread, pos)`, with initial writes before every other
event.

A `History` holds its events grouped by access: each distinct
`(kind, var, value)` tuple with its event ids.  Its two builders group
the ids as they meet the events, the trace parser line by line and
`history_from_blocks` block by block, and hand the groups and each
thread's event count to `assemble_history`, which alone makes a
`History`.  A long trace holds few distinct accesses, and assembly
works per distinct access, per thread and per write, with no loop over
the events: one walk over the groups copies each into a tuple that the
history keeps, and a read group's tuple is its writer's readers.
Assembly makes the `History` as soon as the threads are counted and
works through it: `h.ref` words each fault, `h._resolve` turns an
explicit edge's `(thread, pos)` reference into an id, and `h.access`
gives the access column that a trace's `rf` lines, and nothing else,
are checked against, which assembly drops; a `dp` line's source is a
read exactly when it is not a write, which the write ids answer.  The
history keeps no column indexed by event id.  Each thread's ids are
consecutive, so a thread is held as the `range` of its ids: an event's
thread is found by bisecting the threads' stops (`History.locate`), and
its position is its id minus the thread's first id.  `write_vars` holds each write's variable, and
each write's readers are the one record of reads-from.  The per-event
column `access` (each event's tuple, shared between equal accesses) and
the `(write, read)` pairs of `rf` are built from the groups and the
readers on each call, and neither is cached.  The solver reads the
threads, `write_vars`, each write's readers and the dependency edges,
and builds `access` only to word a diagnostic.  There is no per-event
record: every package path reads the groups and the indexes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from typing import Mapping, Sequence

from .errors import (
    AmbiguousRfError,
    DanglingRefError,
    DuplicateValueError,
    InvalidDpError,
    MmcheckError,
    TraceSyntaxError,
    UnsourcedReadError,
)

WRITE = "wr"
READ = "rd"

#: Name of the virtual thread holding initial writes.
INIT_THREAD = "init"

MAX_VALUE = 2**64 - 1


class History:
    """Events grouped by access, plus reads-from and dependency relations.

    `_groups` maps each distinct `(kind, var, value)` tuple to the tuple
    of its event ids, ascending, in the order of their first ids; the
    history is built with no column indexed by event id.  `write_vars`
    holds each write's variable, aligned with `writes`.  The per-event
    column `access` (each event's tuple, shared between equal accesses)
    is built from the groups on each call.  `rf`, built from each write's
    readers on each call, and `dp` are frozensets of `(source, target)`
    event-id pairs.  Program order is not stored: each thread's ids are
    consecutive, so it is read off the threads' ranges.

    Instances are immutable after construction, since no view fills a
    slot, and safe to share across threads.  Build one with
    :func:`history_from_blocks` or the trace parser, which both hand the
    events, grouped by access, to :func:`assemble_history`, the one
    builder: the class has no constructor of its own.  Assembly makes the
    instance once the threads are counted and works through it: `ref`
    words its faults, `_resolve` turns each explicit edge's
    `(thread, pos)` reference into an id, and `access` is what its
    explicit `rf` edges are checked against.  Assembly rejects any dp edge
    that is not read-sourced or not in program order, so `derive` and the
    solver trust `dp`.  `_thread_ids` maps each thread name, the virtual
    `init` thread first, to the range of its event ids, which is program
    order, and `_names` and `_stops` hold every block's name and stop in
    the same order, which `locate` bisects; `writes` holds the write ids,
    ascending, `write_vars` their variables, `_writes_on` each variable's
    writes, and `_readers` maps each write with readers to the tuple of
    its read group, the ids in order.
    """

    __slots__ = (
        "_groups",
        "dp",
        "threads",
        "_names",
        "_stops",
        "_thread_ids",
        "writes",
        "write_vars",
        "_readers",
        "_writes_on",
    )

    @property
    def access(self) -> tuple[tuple[str, str, int], ...]:
        """Each event's `(kind, var, value)` tuple, in id order, built from
        the groups on each call."""
        column: list = [None] * self.n
        for key, ids in self._groups.items():
            for i in ids:
                column[i] = key
        return tuple(column)

    @property
    def rf(self) -> frozenset[tuple[int, int]]:
        """Reads-from as `(write, read)` pairs, built on each call."""
        return frozenset((w, r) for w, rs in self._readers.items() for r in rs)

    @property
    def n(self) -> int:
        """Total number of events."""
        return self._stops[-1]

    @property
    def k(self) -> int:
        """Number of write events, initial writes included."""
        return len(self.writes)

    @property
    def variables(self) -> tuple[str, ...]:
        """The variables accessed, in the order of their first events."""
        return tuple(dict.fromkeys(var for _, var, _ in self._groups))

    def readers_of(self, write_id: int) -> tuple[int, ...]:
        return self._readers.get(write_id, ())

    def writes_on(self, var: str) -> tuple[int, ...]:
        return self._writes_on.get(var, ())

    def thread_events(self, thread: str) -> range:
        return self._thread_ids[thread]

    def locate(self, eid: int) -> tuple[str, int]:
        """The `(thread, pos)` reference of event `eid`.  Its thread is the
        first whose stop lies past it, so empty threads are passed over."""
        i = bisect_right(self._stops, eid)
        return self._names[i], eid - (self._stops[i - 1] if i else 0)

    def ref(self, eid: int) -> str:
        return "%s:%d" % self.locate(eid)

    def _resolve(self, ref: tuple[str, int]) -> int:
        """The id of the event that a `(thread, pos)` reference names."""
        thread, pos = ref
        ids = self._thread_ids.get(thread, ())
        if not 0 <= pos < len(ids):
            raise DanglingRefError(f"no event {thread}:{pos}")
        return ids[pos]

    def format_cycle(self, cycle: Sequence[int]) -> str:
        refs = [self.ref(e) for e in cycle]
        refs.append(refs[0])
        return " -> ".join(refs)


def _holds(ids: Sequence[int], x: int) -> bool:
    """Whether the ascending `ids` hold `x`."""
    i = bisect_left(ids, x)
    return i < len(ids) and ids[i] == x


def history_from_blocks(
    init: Sequence[tuple[str, int]] = (),
    threads: Sequence[tuple[str, Sequence[tuple[str, str, int]]]] = (),
    dp_refs: Sequence[tuple[tuple[str, int], tuple[str, int]]] = (),
) -> History:
    """Build and validate a history from per-thread blocks.

    `init` lists (var, value) initial writes.  `threads` lists
    (name, [(kind, var, value), ...]) blocks in declaration order; event
    ids are assigned document-first (initial writes, then threads in
    order, events in program order).  Reads-from is inferred from values,
    and `dp_refs` gives dependency edges as `(thread, pos)` pairs.  The
    one loop over the events groups their ids by access, at one hash of
    each event's tuple and one append; `assemble_history` does the rest.
    """
    groups: defaultdict[tuple[str, str, int], list[int]] = defaultdict(list)
    counts: list[tuple[str, int]] = []
    start = 0
    init_block = [(WRITE, var, val) for var, val in init]
    for name, block in [(INIT_THREAD, init_block), *threads]:
        for i, a in enumerate(block, start):
            groups[a].append(i)
        start += len(block)
        counts.append((name, len(block)))
    return assemble_history(groups, counts, dp_refs=dp_refs)


def assemble_history(
    groups: Mapping[tuple[str, str, int], Sequence[int]],
    threads: Sequence[tuple[str, int]],
    rf_refs: Sequence[tuple[tuple[str, int], tuple[str, int]]] | None = None,
    dp_refs: Sequence[tuple[tuple[str, int], tuple[str, int]]] = (),
) -> History:
    """Build and validate a history from its events grouped by access.

    `groups` maps each distinct (kind, var, value) access to its event
    ids, ascending, in the order of their first ids.  `threads` lists
    (name, event count) pairs in declaration order, the virtual `init`
    thread first: event ids are assigned document-first (initial writes,
    then threads in order, events in program order).  Event references
    are `(thread, pos)` pairs, initial writes on thread `init`.
    Reads-from is always inferred from values: each read's writer is the
    one write of its variable and value.  `rf_refs`, when given, lists
    explicit reads-from edges as (writer, read) pairs, which are checked,
    not used: each must join a write to a read of the same variable and
    value, no read may be named twice, and every read must be named.  An
    edge that passes names the read's inferred writer, since values are
    written once per variable.  They are the one thing checked against
    the access column, which is built only for them.  `dp_refs` gives
    dependency edges, which must start at a read (an event that is not a
    write) and follow program order.  A variable given two initial writes
    is reported first.  When the events hold several other faults (an
    unknown kind, a value out of range, a value written twice, a thread
    name taken twice, or, without `rf_refs`, a read no write matches),
    the one at the earliest event is reported: a value written
    twice sits at its second write, a thread name at the first event of
    its second block.  After them come the faults of the `rf` edges in
    edge order, then the first read they leave uncovered (which is how a
    read no write matches is reported under `rf_refs`), then the faults
    of the `dp` edges in edge order.

    The work is per distinct access, per thread and per write, with no
    loop over the events.  One walk over the groups copies each into a
    tuple, in a dict of its own, so `groups` is left as it was passed; it
    records the initial writes' variables, each write with its variable,
    and each read group as the readers of the write of its (var, value),
    the same tuple.  A write's group holds one id unless its value is
    written twice.  Groups come in the order of their first ids, so the
    writes come in id order.  Only the earliest fault found is kept, so a
    document of many faults builds few errors.
    """
    thread_ids: dict[str, range] = {}
    stops: list[int] = []
    fault: MmcheckError | None = None
    n = 0
    for name, count in threads:
        if name not in thread_ids:
            thread_ids[name] = range(n, n + count)
        elif fault is None:
            fault_at, fault = n, TraceSyntaxError(
                f"thread name {INIT_THREAD!r} is reserved"
                if name == INIT_THREAD
                else f"duplicate thread {name!r}"
            )
        n += count
        stops.append(n)
    if fault is None:
        fault_at = n
    # `_names` and `_stops` list every block, repeated names included, so
    # `h.ref` places every event.
    h = History.__new__(History)
    h._names = tuple(name for name, _ in threads)
    h._stops = tuple(stops)
    h.threads = h._names[1:]
    h._thread_ids = thread_ids

    # One walk over the groups.  Each is copied once into a tuple, which a
    # read group's writer keeps as its readers.  Initial ids come first in
    # their groups, and a program id joins one only when a program write
    # repeats an initial value, a fault found here.
    init_count = threads[0][1]
    init_vars = [""] * init_count
    owned: dict[tuple[str, str, int], tuple[int, ...]] = {}
    writes: list[int] = []
    write_vars: list[str] = []
    writes_on: dict[str, list[int]] = {}
    readers: dict[int, tuple[int, ...]] = {}
    for key, ids in groups.items():
        kind, var, val = key
        ids = owned[key] = tuple(ids)
        if ids[0] < init_count:
            for i in ids:
                if i < init_count:
                    init_vars[i] = var
        if kind not in (WRITE, READ) or not 0 <= val <= MAX_VALUE:
            if ids[0] < fault_at:
                fault_at, fault = ids[0], TraceSyntaxError(
                    f"unknown access kind {kind!r}"
                    if kind not in (WRITE, READ)
                    else f"value {val} outside the unsigned 64-bit range"
                )
        elif kind == WRITE:
            if len(ids) > 1 and ids[1] < fault_at:
                fault_at, fault = ids[1], DuplicateValueError(
                    f"value {val} written twice to {var!r} "
                    f"({h.ref(ids[0])} and {h.ref(ids[1])})"
                )
            writes.append(ids[0])
            write_vars.append(var)
            writes_on.setdefault(var, []).append(ids[0])
        elif (writer := groups.get((WRITE, var, val))) is not None:
            readers[writer[0]] = ids
        elif rf_refs is None and ids[0] < fault_at:
            fault_at, fault = ids[0], UnsourcedReadError(
                f"read {h.ref(ids[0])} of {var}={val} has no matching write"
            )
    # Two initial writes of one variable are reported before every other
    # fault.
    seen_init_vars: set[str] = set()
    for var in init_vars:
        if var in seen_init_vars:
            raise DuplicateValueError(f"variable {var!r} initialized twice")
        seen_init_vars.add(var)
    if fault is not None:
        raise fault
    h._groups = owned

    if rf_refs is not None:
        # An `rf` edge names its events by position, so it is checked
        # against the access column.  An edge that passes names the read's
        # inferred writer, since each value is written once per variable;
        # so `readers` stands.
        access = h.access
        covered: set[int] = set()
        for wref, rref in rf_refs:
            w = h._resolve(wref)
            r = h._resolve(rref)
            (wkind, wvar, wval), (rkind, rvar, rval) = access[w], access[r]
            if wkind != WRITE or rkind != READ:
                why = "must connect a write to a read"
            elif wvar != rvar:
                why = "connects different variables"
            elif wval != rval:
                why = f"has value {wval} feeding a read of {rval}"
            elif r in covered:
                raise AmbiguousRfError(f"read {h.ref(r)} has two rf edges")
            else:
                covered.add(r)
                continue
            raise AmbiguousRfError(f"rf {h.ref(w)} -> {h.ref(r)} {why}")
        for r, (kind, _, _) in enumerate(access):
            if kind == READ and r not in covered:
                raise UnsourcedReadError(
                    f"read {h.ref(r)} is not covered by the explicit rf edges"
                )

    dp_pairs = set()
    for sref, tref in dp_refs:
        s = h._resolve(sref)
        t = h._resolve(tref)
        # Every event is a write or a read, so a source is a read exactly
        # when it is not a write.
        if _holds(writes, s):
            raise InvalidDpError(f"dp {h.ref(s)} -> {h.ref(t)} must start at a read")
        # `s` is a read, so not an initial write: program order puts it
        # before `t` when they share a thread and `s` comes first.  Both
        # refs resolved, and thread names are unique, so the refs' names
        # tell whether the events share a thread.
        if not (s < t and sref[0] == tref[0]):
            raise InvalidDpError(
                f"dp {h.ref(s)} -> {h.ref(t)} does not follow program order"
            )
        dp_pairs.add((s, t))

    h.dp = frozenset(dp_pairs)
    h.writes = tuple(writes)
    h.write_vars = tuple(write_vars)
    h._readers = readers
    h._writes_on = {var: tuple(ws) for var, ws in writes_on.items()}
    return h
