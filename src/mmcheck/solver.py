"""The subset decision procedure for trace consistency.

A history is consistent with a model when some strict total order on its
writes keeps two graphs acyclic: the per-location graph (effective
same-variable program order, reads-from, the order, and its induced
conflict edges) and the model graph (preserved program order, visible
reads-from, the order, conflict edges).

Instead of enumerating the factorially-many orders, `solve` builds the
order from the bottom.  A set of unplaced writes is orderable above the
placed ones when some member can sit at its bottom and the rest is
orderable.  Memoizing the sets caps the search at 2^k states for k
writes.  A member whose placement adds no read wait on the rest is
placed alone, since the set is then orderable exactly when the rest is;
so a search that would try every member tries one wherever it can
(see `_search`).

Whether a member can sit at the bottom is one rule over tables merged
over both base graphs: the writes that block each write (those that
reach it, and those on its variable that reach a read it sourced), and
the writes that reach a read each write sourced.  Both are read off
k-bit ancestor masks, pushed forward once along the topological order
that the acyclicity test of each base graph returns.  A member waits
for the members that must sit below it.  The unblocked members are
carried from each set down to the next, and only the waits a placement
adds are tested for a cycle (see `_search`).  That takes the decisions
Kahn's algorithm takes on the order-augmented graphs, for a few word
operations per candidate; the test suite checks the memo against an
explicit-graph reference search.

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
by neither a cap nor the interpreter's recursion limit.  Memory bounds
it: `solve` refuses a history whose tables, or whose memo, would pass
`MEMORY_CEILING`.

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
#: `MEMO_ENTRY_BYTES + k // 6` bytes per evaluated subset, and its tables,
#: counted as one k-bit mask per base-graph vertex (the passes that build
#: them hold up to three such masks per vertex of one graph at a time).
#: A search refused at this ceiling, at k = 66 after 8,073,246 subsets,
#: peaked at 753 MB RSS in its own process.
MEMORY_CEILING = 1 << 30

#: Peak bytes per memo entry, besides the key's growth with k: a dict
#: slot while the table doubles (about 90 bytes, old and new table both
#: held) and a key int of up to 60 bits (32 bytes).  The key then grows
#: by 4 bytes per 30 bits, and past k = 256 most values are ints of their
#: own, hence k // 6.  Measured as peak RSS per entry of dicts of 1.4 and
#: 2.7 million random k-bit keys, each in its own process (CPython 3.11,
#: x86-64): 122 bytes at k <= 60, 154 at k = 216, 274 at k = 1000.
MEMO_ENTRY_BYTES = 122


class Outcome(enum.Enum):
    CONSISTENT = "consistent"
    INCONSISTENT = "inconsistent"


@dataclass
class SolveStats:
    """Search-effort counters for one solve call.

    `subsets_evaluated` counts the memoized subsets, and `gate_checks` the
    candidates tried: a set's lowest safe candidate alone when it has one
    (see `_search`), else every member that waits for no one, whether
    the rest then hit the memo, closed a cycle of read waits or was
    evaluated.
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

    On a consistent verdict the witness is the full write order found by
    the search (ascending), re-verified against both graphs before being
    returned.  On an inconsistent verdict the diagnostics name the reason
    when one is cheap to state (a base-graph cycle or a dependency cycle).

    Any k is accepted.  `ResourceBoundError` is raised, before the tables
    are built, when their ancestor masks (k bits per base-graph vertex)
    would pass `MEMORY_CEILING`, and by the search when its memo would.
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
    vertices = g_loc.n + g_mm.n
    if h.k * vertices // 8 > MEMORY_CEILING:
        raise ResourceBoundError(
            f"k={h.k} writes on {vertices} base-graph vertices: memory ceiling"
        )

    tables = _write_tables(h, ((g_loc, topo_loc), (g_mm, topo_mm)))
    memo: dict[int, int] = {}
    if not _search(h.k, memo, *tables, stats):
        return Verdict(
            Outcome.INCONSISTENT,
            diagnostics=(
                "no write order keeps both graphs acyclic "
                f"({stats.subsets_evaluated} subsets explored)"
            ),
            stats=stats,
        )

    tw = extract_witness(h, memo)
    if not verify_witness(h, (g_loc, g_mm), tw):
        raise InternalWitnessInvalidError(
            "extracted write order failed re-verification"
        )
    return Verdict(Outcome.CONSISTENT, witness=tw, stats=stats)


def _write_tables(
    h: History,
    bases: tuple[tuple[EventGraph, list[int]], ...],
) -> tuple[list[int], list[int], int, list[int], list[int], list[int]]:
    """Per-write-bit tables: `varmask`, `var_of`, the number of variables,
    `blocks`, `blockers` and `pred_rd`.

    Bit j stands for write `h.writes[j]`.  Variables are numbered in the
    order their first write appears: `var_of[j]` is the number of j's
    variable, and `varmask[j]` holds the writes on it.  In either base
    graph, `blockers[j]` holds the writes that reach j and those on j's
    variable that reach a read of j: while unplaced, they keep j off the
    bottom.  `blocks` is its transpose, and `pred_rd[j]` holds the writes
    that reach a read of j.

    Each graph takes one forward pass over k-bit ancestor masks in the
    order `kahn_acyclic` returned: vertex j, write j, carries bit j, and
    each vertex ORs its mask into its successors'.  A vertex is walked
    after all its predecessors, so its mask is exact when it is pushed.
    A write reaches a read of j exactly when it reaches a tag site of j
    (see `EventGraph`), so `pred_rd[j]` is the OR of their masks.  Masks
    include the vertex's own write, so j's bit is dropped from
    `blockers[j]`.  ORing over both graphs merges them (see `_search`).

    `blocks` comes from one backward pass along the same order, which
    ORs each vertex's successors' masks into its own.  These masks have
    2k bits: vertex j, write j, carries bit k + j, and each tag site of
    j carries bit j.  So write t's mask holds, from bit k up, the writes
    t reaches, and below bit k the writes with a read that t reaches.
    `blocks[t]` takes the former, and those of the latter on t's
    variable, without t itself.
    """
    k = h.k
    number: dict[str, int] = {}
    var_of = [number.setdefault(var, len(number)) for var in h.write_vars]
    var_writes = [0] * len(number)
    for j, x in enumerate(var_of):
        var_writes[x] |= 1 << j
    varmask = [var_writes[x] for x in var_of]
    bits = [1 << j for j in range(k)]
    blockers, pred_rd, blocks = [0] * k, [0] * k, [0] * k
    for g, topo in bases:
        adj = g.adj
        anc = bits + [0] * (g.n - k)
        for u in topo:
            m = anc[u]
            if m:
                for v in adj[u]:
                    anc[v] |= m
        desc = [b << k for b in bits] + [0] * (g.n - k)
        for j, sites in enumerate(g.tag_sites):
            blockers[j] |= anc[j]
            for s in sites:
                pred_rd[j] |= anc[s]
                desc[s] |= bits[j]
        for u in reversed(topo):
            for v in adj[u]:
                desc[u] |= desc[v]
        for j in range(k):
            blocks[j] |= desc[j]
    for j, m in enumerate(blocks):
        blockers[j] = (blockers[j] | pred_rd[j] & varmask[j]) & ~bits[j]
        blocks[j] = (m >> k | m & varmask[j]) & ~bits[j]
    return varmask, var_of, len(number), blocks, blockers, pred_rd


def _search(
    k: int,
    memo: dict[int, int],
    varmask: list[int],
    var_of: list[int],
    nvars: int,
    blocks: list[int],
    blockers: list[int],
    pred_rd: list[int],
    stats: SolveStats,
) -> bool:
    """Evaluate the subset recursion top-down with memoization.

    The order grows from the bottom.  With the placed writes below, a
    member s of the unplaced set S *waits for* each member t that must
    sit below it:

    - t blocks s (s in `blocks[t]`): t reaches s, or t is on s's variable
      and reaches a read sourced by s, which would gain a conflict edge
      into t;
    - t reaches a read sourced by a placed write p on s's variable (t in
      `pred_rd[p]`): p sits below s, so that read gains a conflict edge
      into s.  These read waits depend only on s's variable x, so they
      are kept per variable: `wait_for[x]` holds the writes x's members
      wait for.  Placing v adds `rd = pred_rd[v] & rest` to `wait_for` of
      v's variable.

    A member that waits for no one can sit at the bottom of S: it is a
    *candidate*.  The members no member blocks are carried down as
    `free`: placing v frees only members of `blocks[v]`, once none of
    their `blockers` is left.  Each set tries its lowest safe candidate
    first and alone (see below), and a set with none tries every
    candidate in bit order.

    If the waits placing v adds close a cycle of read waits, the rest has
    no order, and v is skipped with no call and no memo entry: building
    the augmented graphs rejects v at the parent and never reaches the
    rest, so the memo and `subsets_evaluated` stay equal to that
    construction's.  A memo hit on the rest is read first and wins.  The
    test needs only the new waits.  The full set has no read waits, and
    every set evaluated passed the test, so the read waits inside S are
    acyclic, and so is their restriction to the rest.  The new waits run
    from the *start set* `varmask[v] & rest`, the rest's other members on
    v's variable, to rd.  So a new cycle takes a new wait out of the
    start set and comes back along old waits inside the rest: the rest
    stalls exactly when the forward closure of rd under the old waits
    meets the start set.  Leaving v out of the walk loses no path: v is
    a candidate, so it waits for no one in S, and as a sink of the waits
    inside S it lies on no path between two members of the rest.  So the
    test walks forward from rd.  Each step ORs `wait_for` over the
    variables of the members reached, once per variable, since the
    members of one variable wait for the same writes, and masks the
    result by `rest`.  v is cut when the walk meets the start set, and
    most walks end at their first step.  An empty rd or start set adds
    no wait, so it needs no walk, and an empty start set's waits are not
    recorded: no set evaluated below the rest holds a member of v's
    variable, so they would never be read.  The list is copied only when
    a placement records waits.  The test leaves out reach between
    writes.  Within one graph that closes no new cycle (whoever reaches
    t reaches what t reaches), but the union of the two graphs' reach
    can close one that neither graph has, on a subset the augmented
    graphs do evaluate.

    Merging the tables over both base graphs is exact.  The write waits
    and the candidate tests are ORs over the graphs.  A read wait taken
    from the per-location graph lies on one variable, since every
    per-location edge (`po_loc_effective` and reads-from) joins two
    events of one variable: the write t that the wait names is then on p's
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

    Safe first.  A candidate v of S is *safe* when placing it records no
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
    and a memo entry of -1 on the rest fails S at once.  No other
    candidate of S is tried, and the sets its rest does not reach are
    never evaluated.  The safe candidate is never cut by the cycle test,
    which tests only the waits a placement records, and the sets
    evaluated stay within B.

    `memo[mask]` receives the bit index of the write placed lowest when
    the subset is orderable, or -1 when it is not; masks never reached,
    or cut by the cycle test, stay absent.

    The recursion runs on an explicit stack of frames (the set, its free
    members, its read waits, its untried candidates and the candidate
    tried last), so k is not bounded by the interpreter's recursion
    limit.  A frame whose rest needs evaluating is pushed and the rest
    becomes the current frame; a failed frame resumes its parent at the
    next candidate, and a success records each pending frame's candidate
    on the way up.  A new frame is first *scanned*: its members are taken
    in bit order, and each candidate that is not safe is deferred, until
    the first safe one, which is tried at once with its untried and
    deferred candidates dropped.  The new waits' two ends (`rd` and the
    start set) were computed for the safety test and serve the trial.
    If no candidate was safe, the deferred ones are tried in bit order.
    A resumed frame is past its scan.

    Each set evaluated takes a memo entry, so the search raises
    `ResourceBoundError` once `subsets_evaluated` passes
    `MEMORY_CEILING` over the bytes of one entry.
    """
    limit = MEMORY_CEILING // (MEMO_ENTRY_BYTES + k // 6)
    memo[0] = k  # sentinel: the empty subset is orderable
    full = free = (1 << k) - 1
    for b in blocks:
        free &= ~b
    # The current frame: its set, free members, read waits, untried
    # candidates, whether it is being scanned and the candidates its scan
    # deferred; `stack` holds the pending frames and their candidates.
    s_mask, wait_for, c = full, [0] * nvars, free
    stack: list[tuple[int, int, list[int], int, int]] = []
    subsets, gates = 1, 0
    scanning, deferred = True, 0
    while True:
        while c:
            vb = c & -c
            c ^= vb
            v = vb.bit_length() - 1
            if wait_for[var_of[v]] & s_mask:
                continue
            rest = s_mask ^ vb
            rd = pred_rd[v] & rest
            start = varmask[v] & rest
            if scanning:  # try the first safe candidate alone
                if rd and start:
                    deferred |= vb
                    continue
                c = deferred = 0
            gates += 1
            cached = memo.get(rest)
            if cached is not None:
                if cached < 0:
                    continue
                break  # the rest is orderable: place v
            child_for = wait_for
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
                child_for = wait_for[:]
                child_for[var_of[v]] |= rd
            freed = free ^ vb
            b = blocks[v] & rest
            while b:
                u = b & -b
                b ^= u
                if not blockers[u.bit_length() - 1] & rest:
                    freed |= u
            stack.append((s_mask, free, wait_for, c, v))
            s_mask, free, wait_for, c = rest, freed, child_for, freed
            subsets += 1
            if subsets > limit:
                raise ResourceBoundError(
                    f"search passed {limit} subsets at k={k}: memory ceiling"
                )
            scanning = True
        else:
            if deferred:  # no candidate was safe: try them in bit order
                c, deferred, scanning = deferred, 0, False
                continue
            # No candidate left: the set has no order; resume the parent.
            memo[s_mask] = -1
            if not stack:
                break
            s_mask, free, wait_for, c, v = stack.pop()
            scanning = False
            continue
        # v sits at the bottom of an orderable set, and so does each
        # pending frame's candidate.
        memo[s_mask] = v
        while stack:
            s_mask, _, _, _, v = stack.pop()
            memo[s_mask] = v
        break
    stats.subsets_evaluated += subsets
    stats.gate_checks += gates
    return memo[full] >= 0


def extract_witness(h: History, memo: dict[int, int]) -> list[int]:
    """Read the write order out of a successful search memo.

    Walking the recorded removals from the full set downward yields the
    writes in ascending order: the first removal was placed below
    everything else.
    """
    mask = (1 << h.k) - 1
    order: list[int] = []
    while mask:
        j = memo.get(mask, -1)
        if j < 0 or not mask >> j & 1:
            raise InternalWitnessInvalidError(
                f"memo has no removal recorded for mask {mask:#x}"
            )
        order.append(h.writes[j])
        mask ^= 1 << j
    return order


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
