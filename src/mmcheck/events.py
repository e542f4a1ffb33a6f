"""Core data model: histories, held as columns.

A history is a collection of per-thread sequences of read/write events
plus a reads-from relation mapping each read to the write that supplied
its value.  Values follow a write-once discipline per variable (each
value is written to a variable at most once), which makes reads-from
reconstructible from values alone.  Program order is not stored: it is
a comparison of `(thread, pos)`, with initial writes before every other
event (see :meth:`History.po_before`).

A `History` holds its events grouped by access: each distinct
`(kind, var, value)` tuple with its event ids.  A long trace holds few
distinct accesses, so assembly hashes each event's tuple once and does
the rest of its work per distinct access and per write.  `thread_of`,
each event's thread name, is the one column indexed by event id that
is built with the history; each thread's ids are consecutive, so a
position is the id minus the thread's first id.  `write_vars` holds
each write's variable.  The per-event column `access` (each event's
tuple, shared between equal accesses) is built on first access.  The
solver reads `thread_of`, `write_vars`, each write's readers and the
dependency edges, and builds it only to word a diagnostic.  There is no
per-event record: every package path reads the columns.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Mapping, Sequence, TypeVar

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

_T = TypeVar("_T")


def _po_before(thread_of: Sequence[str], a: int, b: int) -> bool:
    if thread_of[a] == INIT_THREAD:
        return thread_of[b] != INIT_THREAD
    return a < b and thread_of[a] == thread_of[b]


def _ref(
    thread_of: Sequence[str], thread_ids: Mapping[str, Sequence[int]], eid: int
) -> str:
    return f"{thread_of[eid]}:{eid - thread_ids[thread_of[eid]][0]}"


class History:
    """Per-event columns plus reads-from and dependency relations.

    `_groups` maps each distinct `(kind, var, value)` tuple to its event
    ids, ascending, in the order of their first ids.  `thread_of`, each
    event's thread name, is the one per-event column built with the
    history, and `write_vars` holds each write's variable, aligned with
    `writes`.  The per-event column `access` (each event's tuple, shared
    between equal accesses) is built from the groups on first access and
    cached, as is `rf`.  `rf` and `dp` are frozensets of
    `(source, target)` event-id pairs.  Program order is answered by
    :meth:`po_before` from `thread_of`.

    Instances are immutable after construction (each cached value is the
    same whoever builds it) and safe to share across threads.  Use
    :func:`assemble_history` (or the trace parser) to build one; the
    constructor neither validates nor walks the events, and takes its
    indexes from the assembly pass.  Assembly builds every history and
    rejects any dp edge that is not read-sourced or not in program order,
    so `derive` and the solver trust `dp`.  `threads` maps each thread
    name, the virtual `init` thread first, to its event ids in program
    order, `writes` holds the write ids, ascending, `write_vars` their
    variables, and `readers` maps each write with readers to them, in id
    order.
    """

    __slots__ = (
        "_groups",
        "thread_of",
        "dp",
        "_access",
        "_rf",
        "threads",
        "_thread_ids",
        "_writes",
        "write_vars",
        "_readers",
        "_writes_on",
    )

    def __init__(
        self,
        groups: Mapping[tuple[str, str, int], Sequence[int]],
        thread_of: Sequence[str],
        dp: frozenset[tuple[int, int]],
        threads: Mapping[str, tuple[int, ...]],
        writes: Sequence[int],
        write_vars: Sequence[str],
        readers: Mapping[int, tuple[int, ...]],
    ):
        self._groups = groups
        self.thread_of: tuple[str, ...] = tuple(thread_of)
        self.dp = dp
        self._access: tuple[tuple[str, str, int], ...] | None = None
        self._rf: frozenset[tuple[int, int]] | None = None
        self.threads: tuple[str, ...] = tuple(threads)[1:]
        self._thread_ids = threads
        self._writes = tuple(writes)
        self.write_vars: tuple[str, ...] = tuple(write_vars)
        writes_on: defaultdict[str, list[int]] = defaultdict(list)
        for w, var in zip(writes, write_vars):
            writes_on[var].append(w)
        self._writes_on = {var: tuple(ws) for var, ws in writes_on.items()}
        self._readers = readers

    @property
    def access(self) -> tuple[tuple[str, str, int], ...]:
        """Each event's `(kind, var, value)` tuple, in id order."""
        if self._access is None:
            self._access = tuple(_scatter(self._groups, self.n))
        return self._access

    @property
    def rf(self) -> frozenset[tuple[int, int]]:
        """Reads-from as `(write, read)` pairs."""
        if self._rf is None:
            self._rf = frozenset(
                (w, r) for w, rs in self._readers.items() for r in rs
            )
        return self._rf

    @property
    def n(self) -> int:
        """Total number of events."""
        return len(self.thread_of)

    @property
    def k(self) -> int:
        """Number of write events, initial writes included."""
        return len(self._writes)

    @property
    def writes(self) -> tuple[int, ...]:
        return self._writes

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(var for _, var, _ in self._groups))

    def po_before(self, a: int, b: int) -> bool:
        """Whether event `a` precedes event `b` in program order.

        Initial writes precede every other event and are unordered among
        themselves; otherwise `a` and `b` must share a thread and `a` must
        sit at an earlier position.  Irreflexive and transitive.
        """
        return _po_before(self.thread_of, a, b)

    def readers_of(self, write_id: int) -> tuple[int, ...]:
        return self._readers.get(write_id, ())

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


def _scatter(groups: Mapping[_T, Sequence[int]], n: int) -> list[_T | None]:
    """A column of `n` entries: each key of `groups` at its ids, None at
    the ids of no key."""
    column: list[_T | None] = [None] * n
    for key, ids in groups.items():
        for i in ids:
            column[i] = key
    return column


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
    and follow program order.  When the events hold several faults (an
    unknown kind, a value out of range, a value written twice, a read no
    write matches, a thread name taken twice), the one at the earliest
    event is reported: a value written twice sits at its second write, a
    thread name at the first event of its second block.  Faults of `rf`
    and `dp` edges are reported after them, in edge order.
    """
    seen_init_vars: set[str] = set()
    for var, _ in init:
        if var in seen_init_vars:
            raise DuplicateValueError(f"variable {var!r} initialized twice")
        seen_init_vars.add(var)

    # The one loop over events groups their ids by access, so each event
    # costs one hash of its tuple and one append.  Validation, duplicate
    # values, reads-from and the indexes then run once per distinct access
    # and once per write: a write's group holds one id unless its value is
    # written twice, and a read's is the readers of the write of its
    # (var, value).  Groups come in the order of their first ids, so the
    # writes come in id order.  Only the earliest fault found is kept, so a
    # document of many faults builds few errors.
    groups: defaultdict[tuple[str, str, int], list[int]] = defaultdict(list)
    thread_of: list[str] = []
    thread_ids: dict[str, tuple[int, ...]] = {}

    def ref(eid: int) -> str:
        return _ref(thread_of, thread_ids, eid)

    fault: MmcheckError | None = None
    init_block = [(WRITE, var, val) for var, val in init]
    for name, block in [(INIT_THREAD, init_block), *threads]:
        start = len(thread_of)
        ids = tuple(range(start, start + len(block)))
        if name not in thread_ids:
            thread_ids[name] = ids
        elif fault is None:
            fault_at, fault = start, TraceSyntaxError(
                f"thread name {INIT_THREAD!r} is reserved"
                if name == INIT_THREAD
                else f"duplicate thread {name!r}"
            )
        for i, a in zip(ids, block):
            groups[a].append(i)
        thread_of += [name] * len(block)
    if fault is None:
        fault_at = len(thread_of)

    writes: list[int] = []
    write_vars: list[str] = []
    readers: dict[int, tuple[int, ...]] = {}
    for (kind, var, val), ids in groups.items():
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
                    f"({ref(ids[0])} and {ref(ids[1])})"
                )
            writes.append(ids[0])
            write_vars.append(var)
        elif rf_refs is None:
            writer = groups.get((WRITE, var, val))
            if writer is not None:
                readers[writer[0]] = tuple(ids)
            elif ids[0] < fault_at:
                fault_at, fault = ids[0], UnsourcedReadError(
                    f"read {ref(ids[0])} of {var}={val} has no matching write"
                )
    if fault is not None:
        raise fault

    # Explicit edges name events by position, so they read the access
    # column.
    explicit = rf_refs is not None or dp_refs
    access = _scatter(groups, len(thread_of)) if explicit else []
    if rf_refs is not None:
        source: list[int | None] = [None] * len(access)
        for wref, rref in rf_refs:
            w = _resolve(thread_ids, wref)
            r = _resolve(thread_ids, rref)
            (wkind, wvar, wval), (rkind, rvar, rval) = access[w], access[r]
            if wkind != WRITE or rkind != READ:
                why = "must connect a write to a read"
            elif wvar != rvar:
                why = "connects different variables"
            elif wval != rval:
                why = f"has value {wval} feeding a read of {rval}"
            elif source[r] is not None:
                raise AmbiguousRfError(f"read {ref(r)} has two rf edges")
            else:
                source[r] = w
                continue
            raise AmbiguousRfError(f"rf {ref(w)} -> {ref(r)} {why}")
        # Readers are appended in read order, so each tuple comes out
        # sorted whatever the order of explicit rf lines.
        readers_of: defaultdict[int, list[int]] = defaultdict(list)
        for r, a in enumerate(access):
            if a[0] == READ:
                if source[r] is None:
                    raise UnsourcedReadError(
                        f"read {ref(r)} is not covered by the explicit rf edges"
                    )
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
        groups, thread_of, frozenset(dp_pairs), thread_ids,
        writes, write_vars, readers,
    )
