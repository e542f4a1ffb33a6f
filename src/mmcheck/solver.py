"""The subset decision procedure for trace consistency.

A history is consistent with a model when some strict total order on its
writes keeps two graphs acyclic: the per-location graph (effective
same-variable program order, reads-from, the order, and its induced
conflict edges) and the model graph (preserved program order, visible
reads-from, the order, conflict edges).

Instead of enumerating the factorially-many orders, `solve` builds the
order from the bottom.  A set of unplaced writes is orderable above the
placed ones when some member can sit at its bottom and the rest is
orderable.  Remembering the sets that have no order caps the search at
2^k states for k writes.  A member whose placement adds no read wait on
the rest is placed alone, since the set is then orderable exactly when
the rest is; so a search that would try every member tries one wherever
it can.  A set with no such member tries only its members on a group of
variables, one variable where one will do, closed so that the lowest
member of the group in any order of the set could have gone first (see
`_search`).

Whether a member can sit at the bottom is one rule over tables merged
over both base graphs: the writes that block each write (those that
reach it, and those on its variable that reach a read it sourced), and
the writes that reach a read each write sourced.  Both are read off
k-bit ancestor masks, pushed forward once along the topological order
that the acyclicity test of each base graph returns.  A member waits
for the members that must sit below it.  A set's candidates are its
members with no blocker and no read wait in it, and only the waits a
placement adds are tested for a cycle (see `_search`).  That takes the
decisions Kahn's algorithm takes on the order-augmented graphs, for a
few word operations per candidate; the test suite checks the sets
evaluated against an explicit-graph reference search.

The base graphs have the acyclicity, and the reach between writes and
the reads the tables use, of the full relations, so the tables come out
the same (see `build_base_graphs`).  Each graph places write j at
vertex j, and carries the vertices that stand for j's reads
(`tag_sites[j]`).  Under every model one walk builds both graphs, and
they keep only the events that branch.  The tag sites of j are its last
read in each thread it feeds; under rmo, where two reads of a thread
may be reordered, they are its first read in each stretch of a thread
between two writes to j's variable, and its reads that a dependency
edge touches.  The search runs on an explicit stack, so k is bounded
by neither a cap nor the interpreter's recursion limit.  It chooses the
members a set tries once, by one scan when it enters the set, and keeps
one table of read waits, which each placement changes in place and
which is restored when the search backs out of it.  Its memo is the set
of sets found dead, and its witness the stack at its success.  Memory
bounds it: `solve` refuses a history whose tables, or whose dead sets
with the tables and the search's stack, would pass `MEMORY_CEILING`.

A consistent verdict's witness is re-checked by `verify_witness` without
the search's tables: a Kahn peel of each base graph the search used,
with the order added into a new graph (`EventGraph.with_order`), so the
bases are never mutated.
A cyclic base graph is reported as a cycle of events, found on the
model's full graph (`DerivedModel.graphs`), built for that purpose.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import (
    InternalWitnessInvalidError,
    NotAPermutationError,
    ResourceBoundError,
)
from .events import History
from .graphs import EventGraph, find_cycle, kahn_acyclic
from .models import ModelSpec, build_base_graphs, derive, oota_cycle

#: The memory, in bytes, that one `solve` call may take: its memo, at
#: `MEMO_ENTRY_BYTES + k // 6` bytes per evaluated subset, its tables, at
#: the `table_bytes` their passes hold at their peak, and the search's
#: stack.  `solve` refuses tables past it, and the search admits the dead
#: sets that fit in what its tables and stack leave.  A search refused at
#: this ceiling, at k = 66 after 8,073,246 subsets (a few hundred more
#: than it now admits), peaked at 753 MB RSS in its own process, with a
#: dict for its memo.
MEMORY_CEILING = 1 << 30

#: Peak bytes per memo entry, besides the key's growth with k: a set slot
#: while the table resizes (old and new table both held) and a key int of
#: up to 60 bits (32 bytes).  The key then grows by 4 bytes per 30 bits,
#: within k // 6.  Measured as peak RSS per entry of sets of 1.4 and 2.7
#: million random k-bit ints, each size in its own process (CPython
#: 3.11.7, x86-64): 101-119 bytes at k <= 60, 115 at k = 120, 130-135 at
#: k = 216, 216 at k = 1000.  122 + k // 6 bounds each of these, and is
#: kept from when the memo was a dict.
MEMO_ENTRY_BYTES = 122


def table_bytes(k: int, vertices: int) -> int:
    """An upper bound on the bytes `_write_tables` holds at once, for k
    writes on base graphs of at most `vertices` vertices each.

    A k-bit int and the list slot that holds it take at most 48 + k // 7
    bytes (CPython stores 30 bits per 4-byte digit after a 24-byte head).
    The pass over one graph holds one k-bit ancestor mask per vertex, and
    drops them before the next graph's pass.  Across the graphs the
    tables hold four masks per write: `bits`, the variables' masks,
    `blockers` and `pred_rd`.  Two more units per write cover the slots
    of `varmask` and `var_of` and the variable numbering, which
    tracemalloc saw take at most 80 bytes per write (CPython 3.11,
    x86-64).  A fixed 1 KiB covers the heads of the lists.
    """
    return (vertices + 6 * k) * (48 + k // 7) + 1024


class Outcome(enum.Enum):
    CONSISTENT = "consistent"
    INCONSISTENT = "inconsistent"


@dataclass
class SolveStats:
    """Search-effort counters for one solve call.

    `subsets_evaluated` counts the subsets evaluated, and `gate_checks`
    the candidates tried: a set's lowest safe candidate alone when it has
    one, else the candidates in the group of variables the var-first
    rule picks (see `_search`), whether the rest then was dead, was
    empty, closed a cycle of read waits or was evaluated.
    """

    subsets_evaluated: int = 0
    gate_checks: int = 0


@dataclass
class Verdict:
    outcome: Outcome
    witness: list[int] | None = None
    diagnostics: str | None = None
    stats: SolveStats | None = None

    @property
    def consistent(self) -> bool:
        return self.outcome is Outcome.CONSISTENT


def solve(h: History, spec: ModelSpec) -> Verdict:
    """Decide whether `h` is consistent under the given model.

    On a consistent verdict the witness is the write order the search
    returns, lowest first, as event ids (`extract_witness`), re-verified
    against both graphs before being returned.  On an inconsistent
    verdict the diagnostics name the reason when one is cheap to state (a
    base-graph cycle or a dependency cycle).

    Any k is accepted.  `ResourceBoundError` is raised, before the tables
    are built, when their `table_bytes` would pass `MEMORY_CEILING`, and
    by the search when its dead sets, with the tables and its stack,
    would.
    """
    stats = SolveStats()

    if spec.dp_only:
        cyc = oota_cycle(h)
        if cyc is not None:
            return Verdict(
                Outcome.INCONSISTENT,
                diagnostics=(
                    "dependency/reads-from cycle: " + h.format_cycle(cyc)
                ),
                stats=stats,
            )

    dm = derive(h, spec)
    g_loc, g_mm = build_base_graphs(h, spec)
    ok_loc, topo_loc = kahn_acyclic(g_loc)
    ok_mm, topo_mm = kahn_acyclic(g_mm)
    if not (ok_loc and ok_mm):
        # Report the cycle on the first cyclic full graph, as events.
        label = "model-order" if ok_loc else "per-location"
        cyc = find_cycle(dm.graphs()[ok_loc])
        return Verdict(
            Outcome.INCONSISTENT,
            diagnostics=(
                f"base {label} graph is cyclic: " + h.format_cycle(cyc)
            ),
            stats=stats,
        )

    if h.k == 0:
        return Verdict(Outcome.CONSISTENT, witness=[], stats=stats)
    if table_bytes(h.k, max(g_loc.n, g_mm.n)) > MEMORY_CEILING:
        raise ResourceBoundError(
            f"k={h.k} writes on {g_loc.n + g_mm.n} base-graph vertices: "
            "memory ceiling"
        )

    tables = _write_tables(h, ((g_loc, topo_loc), (g_mm, topo_mm)))
    order = _search(set(), *tables, stats)
    if order is None:
        return Verdict(
            Outcome.INCONSISTENT,
            diagnostics=(
                "no write order keeps both graphs acyclic "
                f"({stats.subsets_evaluated} subsets explored)"
            ),
            stats=stats,
        )

    tw = extract_witness(h, order)
    if not verify_witness(h, (g_loc, g_mm), tw):
        raise InternalWitnessInvalidError(
            "extracted write order failed re-verification"
        )
    return Verdict(Outcome.CONSISTENT, witness=tw, stats=stats)


def _write_tables(
    h: History,
    bases: tuple[tuple[EventGraph, list[int]], ...],
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Per-write-bit tables: `varmask`, `var_of`, `blockers` and `pred_rd`.

    Bit j stands for write `h.writes[j]`.  Variables are numbered in the
    order their first write appears: `var_of[j]` is the number of j's
    variable, and `varmask[j]` holds the writes on it.  In either base
    graph, `blockers[j]` holds the writes that reach j and those on j's
    variable that reach a read of j: while unplaced, they keep j off the
    bottom.  `pred_rd[j]` holds the writes that reach a read of j.

    Each graph takes one forward pass over k-bit ancestor masks in the
    order `kahn_acyclic` returned: vertex j, write j, carries bit j, and
    each vertex ORs its mask into its successors'.  A vertex is walked
    after all its predecessors, so its mask is exact when it is pushed.
    A write reaches a read of j exactly when it reaches a tag site of j
    (see `EventGraph`), so `pred_rd[j]` is the OR of their masks.  Masks
    include the vertex's own write, so j's bit is dropped from
    `blockers[j]`.  ORing over both graphs merges them (see `_search`).
    Each graph's masks are dropped before the next graph's are built, so
    at most `table_bytes` are held at once.
    """
    k = h.k
    number: dict[str, int] = {}
    var_of = [number.setdefault(var, len(number)) for var in h.write_vars]
    var_writes = [0] * len(number)
    for j, x in enumerate(var_of):
        var_writes[x] |= 1 << j
    varmask = [var_writes[x] for x in var_of]
    bits = [1 << j for j in range(k)]
    blockers, pred_rd = [0] * k, [0] * k
    for g, topo in bases:
        adj = g.adj
        anc = bits + [0] * (g.n - k)
        for u in topo:
            m = anc[u]
            if m:
                for v in adj[u]:
                    anc[v] |= m
        for j, sites in enumerate(g.tag_sites):
            blockers[j] |= anc[j]
            for s in sites:
                pred_rd[j] |= anc[s]
        del anc
    for j, m in enumerate(blockers):
        blockers[j] = (m | pred_rd[j] & varmask[j]) & ~bits[j]
    return varmask, var_of, blockers, pred_rd


def _search(
    dead: set[int],
    varmask: list[int],
    var_of: list[int],
    blockers: list[int],
    pred_rd: list[int],
    stats: SolveStats,
) -> list[int] | None:
    """Evaluate the subset recursion top-down with memoization.

    The order grows from the bottom.  With the placed writes below, a
    member s of the unplaced set S *waits for* each member t that must
    sit below it:

    - t blocks s (t in `blockers[s]`): t reaches s, or t is on s's
      variable and reaches a read sourced by s, which would gain a
      conflict edge into t;
    - t reaches a read sourced by a placed write p on s's variable (t in
      `pred_rd[p]`): p sits below s, so that read gains a conflict edge
      into s.  These read waits depend only on s's variable x, so they
      are kept per variable: `wait_for[x]` holds the writes x's members
      wait for.  Placing v adds `rd = pred_rd[v] & rest` to `wait_for` of
      v's variable.

    A member that waits for no one can sit at the bottom of S: it is a
    *candidate*: s is one exactly when neither `blockers[s]` nor
    `wait_for` of s's variable meets S.  Each set tries its lowest safe
    candidate first and alone, and a set with none tries the candidates
    in one closed group of variables, in bit order (see below).

    If the waits placing v adds close a cycle of read waits, the rest
    has no order, and v is skipped with no call and no dead entry:
    building the augmented graphs rejects v at the parent and never
    reaches the rest, so the dead sets and `subsets_evaluated` stay
    equal to that construction's.  A dead rest is skipped first, and an
    empty rest ends the search before the test.  The test needs only the
    new waits.  The full set has no read waits, and every set evaluated
    passed the test, so the read waits inside S are acyclic, and so is
    their restriction to the rest.  The new waits run from the *start
    set* `varmask[v] & rest`, the rest's other members on v's variable,
    to rd.  So a new cycle takes a new wait out of the start set and
    comes back along old waits inside the rest: the rest stalls exactly
    when the forward closure of rd under the old waits meets the start
    set.  Leaving v out of the walk loses no path: v is a candidate, so
    it waits for no one in S, and as a sink of the waits inside S it
    lies on no path between two members of the rest.  So the test walks
    forward from rd.  Each step ORs `wait_for` over the variables of the
    members reached, once per variable, since the members of one
    variable wait for the same writes, and masks the result by `rest`.
    v is cut when the walk meets the start set, and most walks end at
    their first step.  An empty rd or start set adds no wait, so it
    needs no walk.  The test leaves out reach between writes.  Within
    one graph that closes no new cycle (whoever reaches t reaches what t
    reaches), but the union of the two graphs' reach can close one that
    neither graph has, on a subset the augmented graphs do evaluate.

    Merging the tables over both base graphs is exact.  The write waits
    and the candidate tests are ORs over the graphs.  A read wait taken
    from the per-location graph lies on one variable, since every
    per-location edge (same-variable program order or reads-from) joins
    two events of one variable: the write t that the wait names is then on p's
    variable and blocks p, so p is never placed while t is not.  So on
    every subset evaluated the merged read waits are the model graph's.

    The sets evaluated are bounded by the instance's structure.  Let
    k_{t,x} count thread t's writes to variable x, and let i_x be 1 when
    x has an initial write and 0 otherwise.  Then `subsets_evaluated` is
    at most B = prod over x of (i_x + prod over t of (k_{t,x} + 1)).
    Each set evaluated is distinct and is fixed by the writes placed
    below it.  A write is placed only when none of its `blockers` is
    left, so the placed writes are closed under `blockers`.
    Same-variable program order keeps every pair of one thread's writes
    to x under every model, so each reaches the next in the per-location
    graph, and the placed ones form a prefix of that chain: k_{t,x} + 1
    choices per thread.  An initial write of x reaches every program
    write of x, so either it is unplaced and so is every write of x, or
    it is placed and the threads choose their prefixes: i_x + prod over
    t of (k_{t,x} + 1) choices for x, and B for the placed set.

    Safe first.  A candidate v of S is *safe* when placing it adds no
    read wait: no member of the rest reaches a read of v (`pred_rd[v] &
    rest` is empty), or none is on v's variable (`varmask[v] & rest` is
    empty).  Then S is orderable exactly when the rest is.  If the rest
    is, v under it orders S.  If S is, move v to the bottom of any order
    of S.  v waits for no one in S, so it can go first.  Every later
    step places the same member as before, with v placed too, and its
    waits are a subset of the original's: its set has lost v, so its
    blockers and the read waits of the other placed writes can only
    shrink, and v adds no wait, since the waits it adds run from the
    members of the rest on v's variable to the members of `pred_rd[v]`
    in the rest, and one of those is empty.  So each member still waits
    for no one when it is placed, and the moved order is an order of the
    rest above v.  A safe candidate is tried alone: its rest decides S,
    and a dead rest fails S at once.  No other
    candidate of S is tried, and the sets its rest does not reach are
    never evaluated.  The safe candidate is never cut by the cycle test,
    which tests only the waits a placement adds, and the sets
    evaluated stay within B.

    Variable first.  Let S have candidates but no safe one.  A *group* M
    is S's members on some set of variables, and it is *closed* when each
    member of M that is not a candidate waits for a member of M.  S tries
    the candidates in one closed group that holds a candidate, in bit
    order, and no others.  It walks its candidates in bit order and takes
    the first whose variable x alone is closed (x *qualifies*: each
    member on x that is not a candidate has a blocker on x; none has a
    read wait, since x's members share theirs, and x has a candidate).
    With no such variable, it grows a group from the first candidate's
    variable: while some member u of M that is not a candidate waits for
    no one in M, it adds the variables of u's waits in S, taking the
    lowest such u first.  The group only grows, and the group of every
    variable is closed, so this ends, at worst trying every candidate.
    S is orderable exactly when one of those tried has an orderable
    rest.  The read waits at a set depend only on the set (x's members
    wait for the members that reach a read of a placed write on x), and
    so do the candidates.  Take any order of S and its lowest member u
    in M.  When u is placed, all of M is still unplaced, and u waits for
    no one.  Its waits then include its waits in S that are still
    unplaced: its blockers are the same, and its variable's read waits
    only grow as writes are placed.  So u waits for no one in M in S,
    and as M is closed, u is a candidate of S.  Move u to the bottom.  The
    writes it jumps over are not in M, so none is on u's variable.  The
    waits u adds are taken by the members on its variable alone, so none
    of those writes gains one; their blockers and their variables' read
    waits, at each of their steps, can only shrink, as their sets lose u
    and u's own waits are on its variable.  So each still waits for no
    one when it is placed.  The sets above u's old place, and their
    waits, are unchanged.  The moved order puts u, a tried candidate, at
    the bottom of S over an order of its rest.  The rule only drops
    trials, so verdicts stay, and the sets evaluated stay within B.  An
    orderable set may succeed through another candidate than without the
    rule, so the sets evaluated and the witness may differ.

    `dead` receives each set evaluated that has no order above the writes
    placed below it.  Sets never reached, cut by the cycle test, or on
    the path of a success stay out of it.  No set is found orderable
    before the search ends, since the first success ends it, so the dead
    sets are all the search needs to remember.  `_search` returns the
    order, as bit indices lowest first, or None when the full set is
    dead.  The dead sets of a failed search are a certificate that the
    test suite checks without searching.

    The recursion runs on an explicit stack of frames, so k is not
    bounded by the interpreter's recursion limit.  When the search
    enters a set, one scan in bit order chooses the members to try: it
    skips the members that are not candidates and stops at the first
    safe candidate, which is tried alone; if no candidate is safe, the
    var-first rule picks among the candidates the scan collected.  Those
    members are then tried in bit order, and none is tested for
    candidacy again.  A frame is four ints: the set, its members left to
    try, the candidate placed, and the waits of that candidate's
    variable before the placement.  A placement whose rest needs
    evaluating pushes the frame, ORs rd into its variable's `wait_for`
    entry in place, and enters the rest.  A failed set goes into `dead`
    and resumes its parent at its next member.  A placement whose rest is
    empty is the success: the pending frames' candidates, bottom first,
    and then the member placed are the order.

    One `wait_for` list serves the whole search.  A placement whose
    start set is empty records rd too, which changes nothing: no set
    below the rest holds a member of v's variable, and the entry is read
    only for members of the set at hand.  Popping a frame puts its entry
    back, so every frame above a set restores its own change before the
    set resumes: frames pop in the reverse order of their pushes, and
    each restores the value its variable had when it was pushed.  When a
    set resumes, `wait_for` holds the waits it was entered with.

    Each set evaluated may take an entry in `dead`, so the search raises
    `ResourceBoundError` once `subsets_evaluated` passes what the
    ceiling leaves over the bytes of one entry.  Besides its dead sets
    the search holds the tables, at `table_bytes(k, 0)` since the
    ancestor masks are dropped, `wait_for`, and at most k frames.  A
    remainder below one entry refuses the search before its first set.
    """
    k = len(varmask)
    # The current set and its members left to try; `stack` holds the
    # pending frames: set, members left, candidate, and the waits that
    # the candidate's variable had before its placement.
    s_mask, wait_for = (1 << k) - 1, [0] * len(set(var_of))
    stack: list[tuple[int, int, int, int]] = []
    # A k-bit int with its list slot takes `unit` bytes (see
    # `table_bytes`); a frame is a 4-tuple with its stack slot (88
    # bytes), the candidate's index (32) and three k-bit ints.
    unit = 48 + k // 7
    held = table_bytes(k, 0) + len(wait_for) * unit + k * (120 + 3 * unit)
    limit = max(0, (MEMORY_CEILING - held) // (MEMO_ENTRY_BYTES + k // 6))
    subsets, gates = 1, 0
    while True:
        if subsets > limit:
            raise ResourceBoundError(
                f"search passed {limit} subsets at k={k}: memory ceiling"
            )
        # Choose the members to try: the lowest safe candidate alone, else
        # the candidates on the first variable whose members that are not
        # candidates each have a blocker on it (var first), else those in
        # a closed group of variables.
        c, scan = 0, s_mask
        while scan:
            vb = scan & -scan
            scan ^= vb
            v = vb.bit_length() - 1
            if blockers[v] & s_mask or wait_for[var_of[v]] & s_mask:
                continue
            rest = s_mask ^ vb
            if not (pred_rd[v] & rest and varmask[v] & rest):
                c = vb
                break
            c |= vb
        else:
            d = c
            while d:
                xs = varmask[(d & -d).bit_length() - 1] & s_mask
                d &= ~xs
                stuck = xs & ~c
                while stuck:
                    u = stuck & -stuck
                    if not blockers[u.bit_length() - 1] & xs:
                        break
                    stuck ^= u
                if not stuck:
                    c &= xs
                    break
            else:
                # No variable qualifies: close a group over the first
                # candidate's variable.  A member of the group that is not
                # a candidate and waits for no one in it brings in the
                # variables it waits for.
                if c:
                    group = varmask[(c & -c).bit_length() - 1] & s_mask
                    stuck = group & ~c
                    while stuck:
                        u = (stuck & -stuck).bit_length() - 1
                        stuck &= stuck - 1
                        w = (blockers[u] | wait_for[var_of[u]]) & s_mask
                        if not w & group:
                            while w:
                                xs = varmask[w.bit_length() - 1] & s_mask
                                w &= ~xs
                                stuck |= xs & ~c
                                group |= xs
                    c &= group
        # Try them; a failed set resumes its parent here.  The loop ends
        # when a rest is entered, or returns: the rest is empty, or the
        # full set failed.
        while True:
            while c:
                vb = c & -c
                c ^= vb
                v = vb.bit_length() - 1
                rest = s_mask ^ vb
                gates += 1
                if rest in dead:
                    continue
                if not rest:
                    # v goes on top of the pending frames' candidates,
                    # which the stack holds bottom first.
                    stats.subsets_evaluated += subsets
                    stats.gate_checks += gates
                    return [frame[2] for frame in stack] + [v]
                rd, start = pred_rd[v] & rest, varmask[v] & rest
                if rd and start:
                    seen = reached = rd
                    while reached and not reached & start:
                        step = 0
                        while reached:
                            u = (reached & -reached).bit_length() - 1
                            reached &= ~varmask[u]
                            step |= wait_for[var_of[u]]
                        reached = step & rest & ~seen
                        seen |= reached
                    if reached:
                        continue
                # Enter the rest, with v's waits recorded in place.
                stack.append((s_mask, c, v, wait_for[var_of[v]]))
                wait_for[var_of[v]] |= rd
                s_mask = rest
                subsets += 1
                break
            else:
                # No member left: the set has no order.  Resume the parent
                # and restore the waits its candidate's placement changed
                # (the targets are assigned left to right, v first).
                dead.add(s_mask)
                if stack:
                    s_mask, c, v, wait_for[var_of[v]] = stack.pop()
                    continue
                stats.subsets_evaluated += subsets
                stats.gate_checks += gates
                return None
            break


def extract_witness(h: History, order: list[int]) -> list[int]:
    """The writes of `h` at the bit indices of a search's order."""
    return [h.writes[j] for j in order]


def verify_witness(
    h: History, bases: tuple[EventGraph, EventGraph], tw: list[int]
) -> bool:
    """Re-check a write order against both base graphs, with the order
    added to each (`EventGraph.with_order`).

    `bases` are the two graphs of `build_base_graphs`.  The order joins
    the writes' vertices, which are their indices in `h.writes`, and its
    conflict edges leave each write's tag sites, which imply those of its
    other reads on every cycle.  No added edge enters a read, so reads
    merged into their one source stay exact.  `with_order` builds new
    graphs and never mutates the bases, so `solve` passes the graphs it
    searched from.
    """
    if sorted(tw) != list(h.writes):
        raise NotAPermutationError(
            "witness must contain every write exactly once"
        )
    bit_of = dict(zip(h.writes, range(h.k)))
    order = [bit_of[w] for w in tw]
    return all(
        kahn_acyclic(g.with_order(order, h.write_vars, g.tag_sites))[0]
        for g in bases
    )
