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

from dataclasses import dataclass
from typing import Mapping, Sequence

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


@dataclass(frozen=True, slots=True)
class Event:
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

    `rf` and `dp` are frozensets of `(source, target)` event-id pairs.
    Program order is answered by :meth:`po_before` from event positions.

    Instances are immutable after construction and safe to share across
    threads.  Use :func:`assemble_history` (or the trace parser) to build
    one; the constructor does not validate.
    """

    __slots__ = (
        "events",
        "rf",
        "dp",
        "threads",
        "_ref_to_id",
        "_writes",
        "_reads",
        "_writer_of",
        "_readers",
        "_rf_source",
        "_writes_on",
        "_thread_events",
    )

    def __init__(
        self,
        events: Sequence[Event],
        rf: frozenset[tuple[int, int]],
        dp: frozenset[tuple[int, int]],
        threads: Sequence[str],
    ):
        self.events: tuple[Event, ...] = tuple(events)
        self.rf = rf
        self.dp = dp
        self.threads: tuple[str, ...] = tuple(threads)

        self._ref_to_id = {(e.thread, e.pos): e.id for e in self.events}
        self._writes = tuple(e.id for e in self.events if e.is_write)
        self._reads = tuple(e.id for e in self.events if e.is_read)
        self._writer_of = {
            (e.var, e.val): e.id for e in self.events if e.is_write
        }
        readers: dict[int, list[int]] = {}
        source: dict[int, int] = {}
        for w, r in rf:
            readers.setdefault(w, []).append(r)
            source[r] = w
        self._readers = {w: tuple(sorted(rs)) for w, rs in readers.items()}
        self._rf_source = source
        writes_on: dict[str, list[int]] = {}
        for wid in self._writes:
            writes_on.setdefault(self.events[wid].var, []).append(wid)
        self._writes_on = {v: tuple(ws) for v, ws in writes_on.items()}
        per_thread: dict[str, list[int]] = {t: [] for t in self.threads}
        for e in self.events:
            if not e.is_init:
                per_thread[e.thread].append(e.id)
        self._thread_events = {t: tuple(ids) for t, ids in per_thread.items()}

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
        return tuple(e for e in self.events if e.is_init)

    @property
    def variables(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for e in self.events:
            seen.setdefault(e.var)
        return tuple(seen)

    def event(self, eid: int) -> Event:
        return self.events[eid]

    def po_before(self, a: int, b: int) -> bool:
        """Whether event `a` precedes event `b` in program order.

        Initial writes precede every other event and are unordered among
        themselves; otherwise `a` and `b` must share a thread and `a` must
        sit at an earlier position.  Irreflexive and transitive.
        """
        return _po_before(self.events[a], self.events[b])

    def resolve_ref(self, thread: str, pos: int) -> int:
        try:
            return self._ref_to_id[(thread, pos)]
        except KeyError:
            raise DanglingRefError(f"no event {thread}:{pos}") from None

    def writer_of(self, var: str, val: int) -> int | None:
        return self._writer_of.get((var, val))

    def readers_of(self, write_id: int) -> tuple[int, ...]:
        return self._readers.get(write_id, ())

    def rf_source(self, read_id: int) -> int:
        return self._rf_source[read_id]

    def writes_on(self, var: str) -> tuple[int, ...]:
        return self._writes_on.get(var, ())

    def thread_events(self, thread: str) -> tuple[int, ...]:
        return self._thread_events[thread]

    def ref(self, eid: int) -> str:
        return self.events[eid].ref

    def format_cycle(self, cycle: Sequence[int]) -> str:
        refs = [self.ref(e) for e in cycle]
        refs.append(refs[0])
        return " -> ".join(refs)


def _infer_rf_pairs(
    events: Sequence[Event], writer_of: Mapping[tuple[str, int], int]
) -> set[tuple[int, int]]:
    pairs = set()
    for e in events:
        if not e.is_read:
            continue
        w = writer_of.get((e.var, e.val))
        if w is None:
            raise UnsourcedReadError(
                f"read {e.ref} of {e.var}={e.val} has no matching write"
            )
        pairs.add((w, e.id))
    return pairs


def _parse_ref(ref: str) -> tuple[str, int]:
    thread, _, pos = ref.rpartition(":")
    if not thread or not pos.isdigit():
        raise DanglingRefError(f"malformed event reference {ref!r}")
    return thread, int(pos)


def assemble_history(
    init: Sequence[tuple[str, int]] = (),
    threads: Sequence[tuple[str, Sequence[tuple[str, str, int]]]] = (),
    rf_refs: Sequence[tuple[str, str]] | None = None,
    dp_refs: Sequence[tuple[str, str]] = (),
) -> History:
    """Build and validate a history from structured pieces.

    `init` lists (var, value) initial writes.  `threads` lists
    (name, [(kind, var, value), ...]) blocks in declaration order; event
    ids are assigned document-first (initial writes, then threads in order,
    events in program order).  `rf_refs` gives explicit reads-from edges as
    (`writer ref`, `read ref`) pairs; when None, reads-from is inferred
    from values.  `dp_refs` gives dependency edges, which must start at a
    read and follow program order.
    """
    events: list[Event] = []
    seen_init_vars: set[str] = set()
    for pos, (var, val) in enumerate(init):
        if var in seen_init_vars:
            raise DuplicateValueError(f"variable {var!r} initialized twice")
        seen_init_vars.add(var)
        _check_value(val)
        events.append(
            Event(len(events), INIT_THREAD, pos, WRITE, var, val, is_init=True)
        )

    thread_names: list[str] = []
    for name, block in threads:
        if name == INIT_THREAD:
            raise TraceSyntaxError(f"thread name {INIT_THREAD!r} is reserved")
        if name in thread_names:
            raise TraceSyntaxError(f"duplicate thread {name!r}")
        thread_names.append(name)
        for pos, (kind, var, val) in enumerate(block):
            if kind not in (WRITE, READ):
                raise TraceSyntaxError(f"unknown access kind {kind!r}")
            _check_value(val)
            events.append(Event(len(events), name, pos, kind, var, val))

    writer_of: dict[tuple[str, int], int] = {}
    for e in events:
        if not e.is_write:
            continue
        key = (e.var, e.val)
        if key in writer_of:
            other = events[writer_of[key]]
            raise DuplicateValueError(
                f"value {e.val} written twice to {e.var!r} "
                f"({other.ref} and {e.ref})"
            )
        writer_of[key] = e.id

    ref_to_id = {(e.thread, e.pos): e.id for e in events}

    def resolve(ref: str) -> int:
        key = _parse_ref(ref)
        if key not in ref_to_id:
            raise DanglingRefError(f"no event {ref}")
        return ref_to_id[key]

    if rf_refs is None:
        rf_pairs = _infer_rf_pairs(events, writer_of)
    else:
        rf_pairs = set()
        covered: set[int] = set()
        for wref, rref in rf_refs:
            w, r = resolve(wref), resolve(rref)
            ew, er = events[w], events[r]
            if not ew.is_write or not er.is_read:
                raise AmbiguousRfError(
                    f"rf {wref} -> {rref} must connect a write to a read"
                )
            if ew.var != er.var:
                raise AmbiguousRfError(
                    f"rf {wref} -> {rref} connects different variables"
                )
            if ew.val != er.val:
                raise AmbiguousRfError(
                    f"rf {wref} -> {rref} has value {ew.val} feeding a read "
                    f"of {er.val}"
                )
            if r in covered:
                raise AmbiguousRfError(f"read {rref} has two rf edges")
            covered.add(r)
            rf_pairs.add((w, r))
        for e in events:
            if e.is_read and e.id not in covered:
                raise UnsourcedReadError(
                    f"read {e.ref} is not covered by the explicit rf edges"
                )

    dp_pairs = set()
    for sref, tref in dp_refs:
        s, t = resolve(sref), resolve(tref)
        if not events[s].is_read:
            raise InvalidDpError(f"dp {sref} -> {tref} must start at a read")
        if not _po_before(events[s], events[t]):
            raise InvalidDpError(
                f"dp {sref} -> {tref} does not follow program order"
            )
        dp_pairs.add((s, t))

    return History(
        events, frozenset(rf_pairs), frozenset(dp_pairs), thread_names
    )


def _check_value(val: int) -> None:
    if not 0 <= val <= MAX_VALUE:
        raise TraceSyntaxError(f"value {val} outside the unsigned 64-bit range")
