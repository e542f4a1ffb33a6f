"""Test-side reference implementations.

The reference solver below mirrors the production search but takes every
acyclicity decision on explicitly constructed graphs, so agreement with
`solve` exercises the production search tables end to end.  It follows
the search's safe-first rule, read off reach in the full graphs, and a
switch turns the rule off so that tests can check what the rule keeps.

The store-order reference below rebuilds both full graphs, with every
order pair and every conflict edge, for each store order.  It is a
deliberate duplicate of `oracle_store`, which builds its order-free
graphs once, adds chains and checks each variable apart: tests assert
that both give equal verdicts and witnesses.

The reference derivation keeps program order as the stored pair set the
package used before it switched to position comparisons and linear edge
lists.  It is a deliberate duplicate: differential tests compare the
closures of the production edge lists and the production witnesses
against it.

The full-graph reference `event_graph` places a history's writes and
reads on one vertex per event, writes first, with every read a tag
site.  It is a deliberate duplicate of what `build_base_graphs`
contracts: tests compare the contracted base graphs, their search tables
and their witness re-checks against it.

The event view `events` turns a history's columns into one `Event`
record per event, and `reads`, `rf_source` and `resolve_ref` answer from
the same columns.  It is test-only: the package reads the columns.

`structural_bound` gives the bound on the subsets the search evaluates
that the tests gate on, and `format_dimacs` the DIMACS text that
`parse_dimacs` round-trips.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable, NamedTuple

from mmcheck import Cnf3, History, Outcome, Verdict, derive, oota_cycle
from mmcheck.errors import DanglingRefError, MmcheckError
from mmcheck.events import INIT_THREAD, READ, WRITE
from mmcheck.graphs import EventGraph, kahn_acyclic
from mmcheck.models import build_base_graphs


class PreconditionViolatedError(MmcheckError):
    """A reference construction was called outside its precondition."""


class Event(NamedTuple):
    """One read or write access, as a record: a test-only view of a
    history's columns."""

    id: int
    thread: str
    pos: int
    kind: str
    var: str
    val: int
    is_init: bool

    @property
    def is_write(self) -> bool:
        return self.kind == WRITE

    @property
    def is_read(self) -> bool:
        return self.kind == READ


def events(h: History) -> tuple[Event, ...]:
    """Every event of `h`, in id order: each thread's ids are consecutive,
    the initial writes' first."""
    access = h.access
    return tuple(
        Event(i, t, pos, *access[i], t == INIT_THREAD)
        for t in (INIT_THREAD, *h.threads)
        for pos, i in enumerate(h.thread_events(t))
    )


def reads(h: History) -> tuple[int, ...]:
    """The read ids of `h`, ascending."""
    return tuple(i for i, a in enumerate(h.access) if a[0] == READ)


def rf_source(h: History, r: int) -> int | None:
    """The write that read `r` reads from, the one write of its variable
    and value; None at a write."""
    kind, var, val = h.access[r]
    if kind != READ:
        return None
    (w,) = [w for w in h.writes_on(var) if h.access[w][2] == val]
    return w


def resolve_ref(h: History, thread: str, pos: int) -> int:
    """The id of the event at `pos` in `thread`'s block."""
    known = thread == INIT_THREAD or thread in h.threads
    ids = h.thread_events(thread) if known else ()
    if not 0 <= pos < len(ids):
        raise DanglingRefError(f"no event {thread}:{pos}")
    return ids[pos]


class WriteIndex:
    """Dense bit positions for the write events of one history.

    Bit i corresponds to `ids[i]`; ids are ascending, so masks order the
    same way fixtures do.  The solver uses the same positions, indexing
    `h.writes` directly.
    """

    __slots__ = ("ids", "bit_of", "k", "full_mask")

    def __init__(self, h: History):
        self.ids: tuple[int, ...] = h.writes
        self.bit_of: dict[int, int] = {w: i for i, w in enumerate(self.ids)}
        self.k = len(self.ids)
        self.full_mask = (1 << self.k) - 1

    def mask_of(self, write_ids: Iterable[int]) -> int:
        mask = 0
        for w in write_ids:
            mask |= 1 << self.bit_of[w]
        return mask

    def ids_of(self, mask: int) -> list[int]:
        out = []
        while mask:
            bit = mask & -mask
            mask ^= bit
            out.append(self.ids[bit.bit_length() - 1])
        return out


@dataclass(frozen=True)
class WriteSubset:
    """A subset of a history's writes, encoded as a k-bit mask."""

    index: WriteIndex
    mask: int

    @classmethod
    def of(cls, index: WriteIndex, write_ids: Iterable[int]) -> "WriteSubset":
        return cls(index, index.mask_of(write_ids))

    def members(self) -> list[int]:
        return self.index.ids_of(self.mask)

    def complement(self) -> "WriteSubset":
        return WriteSubset(self.index, self.index.full_mask & ~self.mask)

    def __contains__(self, write_id: int) -> bool:
        bit = self.index.bit_of.get(write_id)
        return bit is not None and bool(self.mask >> bit & 1)

    def __len__(self) -> int:
        return bin(self.mask).count("1")


def conflict_edges(h, order_pairs):
    """Read-to-write edges induced by a write order.

    For each same-variable order pair (w', w), every read sourced by w'
    gains an edge to w: the read observed a value that `w` overwrites, so
    it must come first.
    """
    access = h.access
    return {
        (r, wb)
        for wa, wb in order_pairs
        if access[wa][1] == access[wb][1]
        for r in h.readers_of(wa)
    }


def build_r_snapshot(index, subset_mask, v):
    """Order pairs placing `v` between a subset and its complement.

    Every write outside subset ∪ {v} precedes every write inside it, and
    `v` additionally precedes every subset member.  `v` must not be a
    subset member.
    """
    vbit = index.bit_of[v]
    if subset_mask >> vbit & 1:
        raise PreconditionViolatedError(
            f"write {v} is already a member of the subset"
        )
    enlarged = subset_mask | (1 << vbit)
    inside = index.ids_of(enlarged)
    outside = index.ids_of(index.full_mask & ~enlarged)
    pairs = {(o, i) for o in outside for i in inside}
    pairs |= {(v, w) for w in index.ids_of(subset_mask)}
    return frozenset(pairs)


def order_free_edges(h, derived):
    """The edge lists of the two full graphs, joined once: the
    per-location graph's, then the model graph's."""
    return (
        [*derived.po_loc_effective, *h.rf],
        [*derived.po_mm, *derived.rf_mm],
    )


def build_coherence_graphs(h, static, index, subset_mask, v):
    """Order-augmented graphs testing `v` as minimum of subset ∪ {v}.

    Both order-free graphs, from the edge lists `static` of
    :func:`order_free_edges`, are built with the snapshot pairs of
    :func:`build_r_snapshot` and the conflict edges they induce.  Their
    joint acyclicity is exactly the condition under which the subset can
    sit on top of a valid write order with `v` at its bottom.  They come
    as an iterator, per-location graph first, each built when it is
    reached, so a test that stops at a cyclic one builds no more.
    """
    snapshot = build_r_snapshot(index, subset_mask, v)
    cf = conflict_edges(h, snapshot)
    return (EventGraph(h.n, edges, snapshot, cf) for edges in static)


def event_graph(h, *edge_lists):
    """The graph of the edge lists over one vertex per event of `h`, with
    each read as a tag site of its write.  Events are renumbered so that
    write `h.writes[j]` is vertex j, as on the base graphs, and the other
    events follow in id order."""
    writes = set(h.writes)
    ids = [*h.writes, *(e for e in range(h.n) if e not in writes)]
    vertex = {e: v for v, e in enumerate(ids)}
    g = EventGraph(
        h.n, *([(vertex[a], vertex[b]) for a, b in el] for el in edge_lists)
    )
    g.tag_sites = [[vertex[r] for r in h.readers_of(w)] for w in h.writes]
    return g


def solve_reference(h, spec, *, safe_first=True, sets=()):
    """Subset search over explicit graphs; returns (consistent, memo).

    A candidate of a set is a member j whose graphs, those of
    :func:`build_coherence_graphs` for the rest and j, are acyclic.  With
    `safe_first`, as in `solver._search`, the set's lowest candidate that
    is *safe* goes first and alone, and the set is orderable exactly when
    the rest is.  j is safe when no member of the rest on j's variable is
    left, or no member of the rest reaches a read of j in either
    order-free full graph (reach from :func:`closure`).  A set with no
    safe candidate, and every set with `safe_first` off, tries its members
    in bit order.  Each mask in `sets` is evaluated after the full set,
    into the same memo.

    A member whose rest the memo already marks unorderable fails whatever
    its graphs say, so the bit-order pass skips it without building them;
    the memo gains no entry either way.  The order-free edge lists are
    joined once per call.
    """
    dm = derive(h, spec)
    if spec.dp_only and oota_cycle(h) is not None:
        return False, {}
    g_loc, g_mm = build_base_graphs(h, spec)
    if not kahn_acyclic(g_loc)[0] or not kahn_acyclic(g_mm)[0]:
        return False, {}
    index = WriteIndex(h)
    memo = {0: index.k}
    static = order_free_edges(h, dm)
    reach = [closure(h.n, edges) for edges in static]
    ids, var = index.ids, h.write_vars
    varmask = [index.mask_of(w for w, y in zip(ids, var) if y == x) for x in var]
    pred_rd = [
        index.mask_of(
            w for w in ids
            if any(rg[w] >> r & 1 for rg in reach for r in h.readers_of(v))
        )
        for v in ids
    ]

    def candidate(rest, j):
        graphs = build_coherence_graphs(h, static, index, rest, ids[j])
        return all(kahn_acyclic(g)[0] for g in graphs)

    def orderable(mask):
        cached = memo.get(mask)
        if cached is not None:
            return cached >= 0
        members = [j for j in range(index.k) if mask >> j & 1]
        for j in members if safe_first else ():
            rest = mask ^ 1 << j
            if pred_rd[j] & rest and varmask[j] & rest:
                continue
            if candidate(rest, j):
                ok = orderable(rest)
                memo[mask] = j if ok else -1
                return ok
        for j in members:
            rest = mask ^ 1 << j
            if memo.get(rest) == -1:
                continue
            if candidate(rest, j) and orderable(rest):
                memo[mask] = j
                return True
        memo[mask] = -1
        return False

    consistent = orderable(index.full_mask)
    for mask in sets:
        orderable(mask)
    return consistent, memo


def structural_bound(h):
    """B = prod over variables x of (i_x + prod over threads t of
    (k_{t,x} + 1)), where i_x is 1 when x has an initial write and k_{t,x}
    counts t's writes to x: the bound on `subsets_evaluated` that
    `solver._search` proves."""
    bound = 1
    for var in h.variables:
        per_thread = Counter(h.thread_of[w] for w in h.writes_on(var))
        initial = per_thread.pop(INIT_THREAD, 0)
        bound *= initial + math.prod(n + 1 for n in per_thread.values())
    return bound


def format_dimacs(cnf: Cnf3) -> str:
    """The formula in DIMACS text, for round trips through `parse_dimacs`."""
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def closure(n, edges):
    """Transitive closure of an acyclic edge list, as per-vertex masks.

    Bit v of entry u is set when v is reachable from u by one or more
    edges.
    """
    g = EventGraph(n, edges)
    acyclic, topo = kahn_acyclic(g)
    assert acyclic, "closure() takes acyclic edge lists only"
    reach = [0] * n
    for u in reversed(topo):
        m = 0
        for v in g.adj[u]:
            m |= (1 << v) | reach[v]
        reach[u] = m
    return reach


def reference_po(h):
    """Program order as the full pair set: per-thread pairs, init first."""
    pairs = set()
    for t in h.threads:
        ids = h.thread_events(t)
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                pairs.add((ids[i], ids[j]))
    others = [e.id for e in events(h) if not e.is_init]
    for iw in h.thread_events(INIT_THREAD):
        pairs.update((iw, e) for e in others)
    return frozenset(pairs)


def reference_derive(h, spec):
    """The model's relations as pair sets filtered out of `reference_po`,
    with the attribute names of `derive`'s."""
    evs = events(h)
    po = reference_po(h)
    rf_ext = frozenset(
        (w, r) for w, r in h.rf if (w, r) not in po and (r, w) not in po
    )
    if spec.name == "sc":
        po_mm, rf_mm = po, h.rf
    elif spec.name == "tso":
        po_mm = frozenset(
            (a, b)
            for a, b in po
            if not (evs[a].is_write and evs[b].is_read)
        )
        rf_mm = rf_ext
    elif spec.name == "pso":
        po_mm = frozenset((a, b) for a, b in po if not evs[a].is_write)
        rf_mm = rf_ext
    else:
        po_mm, rf_mm = h.dp, rf_ext
    po_loc = frozenset(
        (a, b)
        for a, b in po
        if evs[a].var == evs[b].var
        and not (spec.dp_only and evs[a].is_read and evs[b].is_read)
    )
    return SimpleNamespace(
        po_mm=po_mm, rf_mm=rf_mm, po_loc_effective=po_loc
    )


@dataclass(frozen=True)
class StoreOrder:
    """Per-variable total write orders and their union."""

    per_var: tuple[tuple[str, tuple[int, ...]], ...]

    def pairs(self) -> set[tuple[int, int]]:
        out = set()
        for _, order in self.per_var:
            for i in range(len(order)):
                for j in range(i + 1, len(order)):
                    out.add((order[i], order[j]))
        return out


def iter_store_orders(h):
    """Yield every store order, per-variable permutations in lex order."""
    variables = [v for v in sorted(h.variables) if h.writes_on(v)]
    pools = [itertools.permutations(h.writes_on(v)) for v in variables]
    for combo in itertools.product(*pools):
        yield StoreOrder(tuple(zip(variables, combo)))


def store_order_passes(h, dm, order_pairs):
    """Whether both full graphs, rebuilt from every relation, every order
    pair and every conflict edge, are acyclic."""
    extra = conflict_edges(h, order_pairs)
    return all(
        kahn_acyclic(EventGraph(h.n, po, rf, order_pairs, extra))[0]
        for po, rf in ((dm.po_loc_effective, h.rf), (dm.po_mm, dm.rf_mm))
    )


def oracle_store_reference(h, spec):
    """`oracle_store` by rebuilding both graphs for each store order.

    The witness is the FIFO peel of the model graph with the first
    passing order's pairs and conflict edges, restricted to the writes.
    No size bound is enforced.
    """
    if spec.dp_only and oota_cycle(h) is not None:
        return Verdict(Outcome.INCONSISTENT)
    dm = derive(h, spec)
    for so in iter_store_orders(h):
        ww = so.pairs()
        if store_order_passes(h, dm, ww):
            g = EventGraph(
                h.n, dm.po_mm, dm.rf_mm, ww, conflict_edges(h, ww)
            )
            order = kahn_acyclic(g)[1]
            write_set = set(h.writes)
            return Verdict(
                Outcome.CONSISTENT,
                witness=[e for e in order if e in write_set],
            )
    return Verdict(Outcome.INCONSISTENT)
