"""Test-side reference implementations.

The reference solver below mirrors the production search but takes every
acyclicity decision on explicitly constructed graphs, so agreement with
`solve` exercises the production search tables end to end.  It follows
the search's safe-first and var-first rules, read off reach in the full
graphs, and a switch turns each rule off so that tests can check what
the rules keep.

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
record per event, and `reads`, `rf_source`, `resolve_ref` and
`po_before` answer from the same columns.  It is test-only: the package
reads the columns.

`check_dead_sets` checks the dead sets of an inconsistent search as a
certificate, one set at a time from the search's tables and lemmas,
without searching: each dead set must be refuted by rests that are dead
too or hold a cycle of waits.  It shares no code with the search.

`reference_mutate` is `mutate` as it was written with a map of every
read to its writer and a per-event copy of the accesses.  It is a
deliberate duplicate: a test asserts that `mutate`, which names the
current writer by the read's value, draws the same read and writer.

`structural_bound` gives the bound on the subsets the search evaluates
that the tests gate on, and `format_dimacs` the DIMACS text that
`parse_dimacs` round-trips.  `format_with_rf` spells a history's
reads-from out as `rf` lines, which the package reads and checks but
does not write.  `closure` and `closed_pairs` give the
transitive closure of an acyclic edge list, as per-vertex masks or as
pairs.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable, NamedTuple

from mmcheck import (
    Cnf3,
    History,
    Outcome,
    Verdict,
    derive,
    format_history,
    history_from_blocks,
    oota_cycle,
)
from mmcheck.errors import DanglingRefError, MmcheckError, NoAlternativeWriterError
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
    access = h.access
    kind, var, val = access[r]
    if kind != READ:
        return None
    (w,) = [w for w in h.writes_on(var) if access[w][2] == val]
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


def graph_edges(g):
    """The edges of `g`, row by row in vertex order.  A graph built from
    them over `g.n` vertices has `g`'s rows."""
    return [(u, v) for u, row in enumerate(g.adj) for v in row]


def order_free_edges(derived):
    """The edge lists of the two full graphs of `derived.graphs()`: the
    per-location graph's, then the model graph's."""
    return tuple(graph_edges(g) for g in derived.graphs())


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


def solve_reference(h, spec, *, safe_first=True, var_first=True, sets=()):
    """Subset search over explicit graphs; returns (consistent, memo).

    A candidate of a set is a member j whose graphs, those of
    :func:`build_coherence_graphs` for the rest and j, are acyclic.  With
    `safe_first`, as in `solver._search`, the set's lowest candidate that
    is *safe* goes first and alone, and the set is orderable exactly when
    the rest is.  j is safe when no member of the rest on j's variable is
    left, or no member of the rest reaches a read of j in either
    order-free full graph (reach from :func:`closure`).  A set with no
    safe candidate, and every set with `safe_first` off, tries its members
    in bit order.  With `var_first`, as in `solver._search`, it tries
    only its wait-free members on one variable x: that of its lowest
    wait-free member for which each member on x with a blocker in the
    set has one on x, if any.  Failing that, it tries those on a group
    of variables: starting from its lowest wait-free member's, while
    some member of the group waits for members of the set but for none
    in the group, the lowest such member brings in the variables of the
    members it waits for.  Blockers and waits are read off the same
    reach: t blocks j when t reaches j, or t is on j's variable and
    reaches a read of j; and j waits for its blockers in the set and for
    the members of the set that reach a read of a write on j's variable
    outside the set.  Each mask in `sets` is
    evaluated after the full set, into the same memo.

    A member whose rest the memo already marks unorderable fails whatever
    its graphs say, so the bit-order pass skips it without building them;
    the memo gains no entry either way.  The order-free edge lists are
    read once per call.
    """
    dm = derive(h, spec)
    if spec.dp_only and oota_cycle(h) is not None:
        return False, {}
    g_loc, g_mm = build_base_graphs(h, spec)
    if not kahn_acyclic(g_loc)[0] or not kahn_acyclic(g_mm)[0]:
        return False, {}
    index = WriteIndex(h)
    memo = {0: index.k}
    static = order_free_edges(dm)
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
    reach_to = [
        index.mask_of(w for w in ids if any(rg[w] >> v & 1 for rg in reach))
        for v in ids
    ]
    blockers = [
        (reach_to[j] | pred_rd[j] & varmask[j]) & ~(1 << j)
        for j in range(index.k)
    ]

    def one_variable(mask, members):
        # the members the var-first rule keeps: the wait-free ones on one
        # variable, or when no variable qualifies, on the group of
        # variables closed from the first wait-free member's
        placed = [p for p in range(index.k) if not mask >> p & 1]
        waits = {}
        for j in members:
            w = blockers[j]
            for p in placed:
                if varmask[p] >> j & 1:
                    w |= pred_rd[p]
            waits[j] = w & mask
        free = [j for j in members if not waits[j]]

        def open_members(group):
            # the members of the group that wait, but for none in it
            return [
                u for u in members
                if group >> u & 1 and waits[u] and not waits[u] & group
            ]

        for j in free:
            xs = varmask[j] & mask
            if not open_members(xs):
                return [u for u in free if xs >> u & 1]
        if not free:
            return members
        group = varmask[free[0]] & mask
        while left := open_members(group):
            for t in members:
                if waits[left[0]] >> t & 1:
                    group |= varmask[t] & mask
        return [u for u in free if group >> u & 1]

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
        for j in one_variable(mask, members) if var_first else members:
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


def _bits(mask):
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def set_waits(tables, k, mask):
    """What each member of the set `mask` waits for in it, with the other
    writes placed: its blockers, and the writes that reach a read of a
    placed write on its variable."""
    _, var_of, blockers, pred_rd = tables
    read = Counter()
    for p in _bits((1 << k) - 1 & ~mask):
        read[var_of[p]] |= pred_rd[p]
    return {j: (blockers[j] | read[var_of[j]]) & mask for j in _bits(mask)}


def has_wait_cycle(waits):
    """Whether the waits of `set_waits` hold a cycle: peeling the members
    that wait for no one left stops short of the set."""
    left = sum(1 << j for j in waits)
    while left:
        free = sum(1 << j for j in _bits(left) if not waits[j] & left)
        if not free:
            return True
        left ^= free
    return False


def check_dead_sets(tables, k, dead):
    """Whether `dead` proves that no write order exists: a certificate
    of an inconsistent search, checked without the search.

    `tables` are `(varmask, var_of, blockers, pred_rd)` over k writes,
    and `dead` holds sets of unplaced writes, with the others placed
    below.  A rest *fails* when it is in `dead`, or when its waits,
    recomputed from scratch, hold a cycle: the lowest member of the
    cycle in any order would still wait for the next.  The full set must
    be in `dead`, and each set D in `dead` must be refuted by one of the
    lemmas in `solver._search`'s docstring: a safe candidate of D whose
    rest fails, since D is then orderable exactly when the rest is; or a
    closed group of D, grown from some candidate's variable, whose
    candidates all fail, since the lowest member of the group in any
    order of D could have gone first.  A nonempty D with no candidate is
    refuted by the group of all its members.
    """
    varmask, _, _, pred_rd = tables
    if (1 << k) - 1 not in dead:
        return False

    def fails(rest):
        return rest in dead or has_wait_cycle(set_waits(tables, k, rest))

    def refuted(d):
        waits = set_waits(tables, k, d)
        cands = [v for v in _bits(d) if not waits[v]]
        for v in cands:
            rest = d ^ 1 << v
            if not (pred_rd[v] & rest and varmask[v] & rest) and fails(rest):
                return True
        for v in cands:
            group = varmask[v] & d
            while stuck := [
                u for u in _bits(group) if waits[u] and not waits[u] & group
            ]:
                for t in _bits(waits[stuck[0]]):
                    group |= varmask[t] & d
            if all(fails(d ^ 1 << u) for u in cands if group >> u & 1):
                return True
        return d != 0 and not cands

    return all(refuted(d) for d in dead)


def structural_bound(h):
    """B = prod over variables x of (i_x + prod over threads t of
    (k_{t,x} + 1)), where i_x is 1 when x has an initial write and k_{t,x}
    counts t's writes to x: the bound on `subsets_evaluated` that
    `solver._search` proves."""
    bound = 1
    for var in h.variables:
        per_thread = Counter(h.locate(w)[0] for w in h.writes_on(var))
        initial = per_thread.pop(INIT_THREAD, 0)
        bound *= initial + math.prod(n + 1 for n in per_thread.values())
    return bound


def format_dimacs(cnf: Cnf3) -> str:
    """The formula in DIMACS text, for round trips through `parse_dimacs`."""
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def format_with_rf(h: History) -> str:
    """`format_history(h)` with one `rf` line per read, in read order,
    before the `dp` lines: trace text from a producer that names each
    read's writer."""
    lines = format_history(h).splitlines()
    rf = [
        f"rf {h.ref(w)} -> {h.ref(r)}"
        for w, r in sorted(h.rf, key=lambda p: p[1])
    ]
    head = len(lines) - len(h.dp)
    lines[head:head] = rf
    return "".join(line + "\n" for line in lines)


def reference_mutate(h: History, seed: int) -> History:
    """`mutate` through a map of every read to its writer: the same draws
    from `random.Random(seed)`, the read from the sorted reads of
    multi-writer variables, then the new writer from the other writes of
    its variable."""
    rng = random.Random(seed)
    access = h.access
    writer_of = {
        r: w
        for w, var in zip(h.writes, h.write_vars)
        if len(h.writes_on(var)) >= 2
        for r in h.readers_of(w)
    }
    if not writer_of:
        raise NoAlternativeWriterError(
            "every read's variable has a single writer"
        )
    rid = rng.choice(sorted(writer_of))
    kind, var, _ = access[rid]
    current = writer_of[rid]
    new_writer = rng.choice([w for w in h.writes_on(var) if w != current])
    rewired = {rid: (kind, var, access[new_writer][2])}

    init = [access[i][1:] for i in h.thread_events(INIT_THREAD)]
    threads = [
        (t, [rewired.get(eid, access[eid]) for eid in h.thread_events(t)])
        for t in h.threads
    ]
    dp_refs = [(h.locate(a), h.locate(b)) for a, b in sorted(h.dp)]
    return history_from_blocks(init=init, threads=threads, dp_refs=dp_refs)


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


def closed_pairs(h: History, edges) -> set[tuple[int, int]]:
    """The pairs of the transitive closure of an acyclic edge list."""
    reach = closure(h.n, edges)
    return {(a, b) for a in range(h.n) for b in range(h.n) if reach[a] >> b & 1}


def po_before(h: History, a: int, b: int) -> bool:
    """Whether event `a` precedes event `b` in program order.

    Initial writes precede every other event and are unordered among
    themselves; otherwise `a` and `b` must share a thread and `a` must sit
    at an earlier position.  Irreflexive and transitive.
    """
    (ta, _), (tb, _) = h.locate(a), h.locate(b)
    if ta == INIT_THREAD:
        return tb != INIT_THREAD
    return a < b and ta == tb


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


def store_order_passes(h, static, order_pairs):
    """Whether both full graphs, rebuilt from the edge lists `static` of
    :func:`order_free_edges`, every order pair and every conflict edge,
    are acyclic."""
    extra = conflict_edges(h, order_pairs)
    return all(
        kahn_acyclic(EventGraph(h.n, edges, order_pairs, extra))[0]
        for edges in static
    )


def oracle_store_reference(h, spec):
    """`oracle_store` by rebuilding both graphs for each store order.

    The witness is the FIFO peel of the model graph with the first
    passing order's pairs and conflict edges, restricted to the writes.
    No size bound is enforced.
    """
    if spec.dp_only and oota_cycle(h) is not None:
        return Verdict(Outcome.INCONSISTENT)
    static = order_free_edges(derive(h, spec))
    for so in iter_store_orders(h):
        ww = so.pairs()
        if store_order_passes(h, static, ww):
            g = EventGraph(h.n, static[1], ww, conflict_edges(h, ww))
            order = kahn_acyclic(g)[1]
            write_set = set(h.writes)
            return Verdict(
                Outcome.CONSISTENT,
                witness=[e for e in order if e in write_set],
            )
    return Verdict(Outcome.INCONSISTENT)
