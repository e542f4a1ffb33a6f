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
writes.

Whether a member can sit at the bottom is one rule over tables merged
over both base graphs: the writes each write blocks (those it reaches,
and those on its variable with a read it reaches), and the writes that
reach a read each write sourced.  A member waits for the members that
must sit below it.  The unblocked members are carried from each set down
to the next, and only the waits a placement adds are tested for a cycle
(see `_search`).  That takes the decisions Kahn's algorithm takes on the
order-augmented graphs, for a few word operations per candidate; the
test suite checks the memo against an explicit-graph reference search.

The base graphs keep only the events that branch (see
`build_base_graphs`), with reach between events and every cycle as on
the full relations, so the tables come out the same; each graph's
`vertex_of` places the events.  The search runs on an explicit stack, so
k is bounded by `max_k`, not by the interpreter's recursion limit.

A consistent verdict's witness is re-checked by `verify_witness` without
the search's tables: a Kahn peel of each base graph the search used,
extended by the order into a new graph, so the bases are never mutated.
A cyclic base graph is reported as a cycle of events, found on the full
relations rebuilt for that purpose.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import (
    InternalWitnessInvalidError,
    KTooLargeError,
    NotAPermutationError,
)
from .events import History
from .graphs import EventGraph, conflict_edges, find_cycle, kahn_acyclic
from .models import (
    DerivedModel,
    ModelSpec,
    build_base_graphs,
    derive,
    oota_cycle,
)

DEFAULT_MAX_K = 30


class Outcome(enum.Enum):
    CONSISTENT = "consistent"
    INCONSISTENT = "inconsistent"


@dataclass
class SolveStats:
    """Search-effort counters for one solve call.

    `subsets_evaluated` counts the memoized subsets, and `gate_checks` the
    candidates tried: members that waited for no one, whether the rest
    then hit the memo, closed a cycle of read waits or was evaluated.
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


def solve(
    h: History,
    spec: ModelSpec,
    derived: DerivedModel | None = None,
    *,
    max_k: int = DEFAULT_MAX_K,
) -> Verdict:
    """Decide whether `h` is consistent under the given model.

    On a consistent verdict the witness is the full write order found by
    the search (ascending), re-verified against both graphs before being
    returned.  On an inconsistent verdict the diagnostics name the reason
    when one is cheap to state (a base-graph cycle or a dependency cycle).
    """
    stats = SolveStats()

    if spec.requires_oota:
        cyc = oota_cycle(h)
        if cyc is not None:
            return Verdict(
                Outcome.INCONSISTENT,
                diagnostics=(
                    "dependency/reads-from cycle: " + h.format_cycle(cyc)
                ),
                stats=stats,
            )

    if h.k > max_k:
        raise KTooLargeError(
            f"history has k={h.k} writes, above the cap of {max_k}; "
            "raise the cap to proceed"
        )

    dm = derived if derived is not None else derive(h, spec)
    g_loc, g_mm = build_base_graphs(h, dm)
    ok_loc, topo_loc = kahn_acyclic(g_loc)
    ok_mm, topo_mm = kahn_acyclic(g_mm)
    if not (ok_loc and ok_mm):
        # Report the cycle on the full relations, as events.
        if not ok_loc:
            label, edges = "per-location", (dm.po_loc_effective, h.rf)
        else:
            label, edges = "model-order", (dm.po_mm, dm.rf_mm)
        cyc = find_cycle(EventGraph(h.n, *edges))
        return Verdict(
            Outcome.INCONSISTENT,
            diagnostics=(
                f"base {label} graph is cyclic: " + h.format_cycle(cyc)
            ),
            stats=stats,
        )

    if h.k == 0:
        return Verdict(Outcome.CONSISTENT, witness=[], stats=stats)

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
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Per-write-bit tables: `varmask`, `blocks`, `blockers` and `pred_rd`.

    Bit j stands for write `h.writes[j]`, and `varmask[j]` holds the
    writes on its variable.  In either base graph, `blocks[j]` holds the
    writes j reaches and those on j's variable with a read j reaches: j
    keeps them off the bottom while unplaced.  `blockers` is its inverse,
    and `pred_rd[j]` holds the writes that reach a read sourced by j.
    Each graph takes one pass over 2k-bit tags in reverse topological
    order (any such order gives the same reach): write i carries bit i,
    and a read sourced by write i carries bit k + i.  Tags go to the
    events' vertices (`vertex_of`) and are OR-ed there; on a contracted
    base graph a write reaches a vertex exactly when it reaches the
    vertex's events.  Reach starts from the vertex's own tag, so write
    j's holds bit j, which `blocks` drops.
    """
    k = h.k
    writes = h.writes
    var_writes: dict[str, int] = {}
    for j, w in enumerate(writes):
        var = h.events[w].var
        var_writes[var] = var_writes.get(var, 0) | (1 << j)
    varmask = [var_writes[h.events[w].var] for w in writes]
    readers = [h.readers_of(w) for w in writes]
    reach_of = [0] * k
    for g, topo in bases:
        adj = g.adj
        vertex_of = g.vertex_of
        reach = [0] * g.n
        for j, w in enumerate(writes):
            reach[vertex_of[w]] |= 1 << j
            bit = 1 << (k + j)
            for r in readers[j]:
                reach[vertex_of[r]] |= bit
        for u in reversed(topo):
            m = reach[u]
            for v in adj[u]:
                m |= reach[v]
            reach[u] = m
        for j, w in enumerate(writes):
            reach_of[j] |= reach[vertex_of[w]]
    full = (1 << k) - 1
    blocks, blockers, pred_rd = [0] * k, [0] * k, [0] * k
    for j, m in enumerate(reach_of):
        blocks[j] = b = (m & full | m >> k & varmask[j]) & ~(1 << j)
        m = m & ~full | b
        while m:
            b = m & -m
            m ^= b
            i = b.bit_length() - 1
            if i < k:
                blockers[i] |= 1 << j
            else:
                pred_rd[i - k] |= 1 << j
    return varmask, blocks, blockers, pred_rd


def _search(
    k: int,
    memo: dict[int, int],
    varmask: list[int],
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
      into s.  These read waits depend only on s's variable; `waits`
      maps each variable's write mask to them.

    A member that waits for no one can sit at the bottom of S.  The
    members no member blocks are carried down as `free`: placing v frees
    only members of `blocks[v]`, once none of their `blockers` is left.

    Placing v adds `pred_rd[v]` to the read waits of the rest's members
    on v's variable.  If that closes a cycle of read waits, the rest has
    no order, and v is skipped with no call and no memo entry: building
    the augmented graphs rejects v at the parent and never reaches the
    rest, so the memo and `subsets_evaluated` stay equal to that
    construction's.  A memo hit on the rest is read first and wins.  The
    test needs only the new waits.  The full set has no read waits, and
    every set evaluated passed the test, so the read waits inside S are
    acyclic, and so is their restriction to the rest.  A new cycle must
    then leave v's variable by a new wait and come back by old ones: the
    rest stalls exactly when the walk from `pred_rd[v] & rest` along the
    old waits inside the rest reaches a member on v's variable.  The test
    leaves out reach between writes.  Within one graph that closes no new
    cycle (whoever reaches t reaches what t reaches), but the union of
    the two graphs' reach can close one that neither graph has, on a
    subset the augmented graphs do evaluate.

    Merging the tables over both base graphs is exact.  The write waits
    and the candidate tests are ORs over the graphs.  A read wait taken
    from the per-location graph lies on one variable, since every
    per-location edge (`po_loc_effective` and reads-from) joins two
    events of one variable: the waited-for write t is then on p's
    variable and blocks p, so p is never placed while t is not.  So on
    every subset evaluated the merged read waits are the model graph's.

    `memo[mask]` receives the bit index of the write placed lowest when
    the subset is orderable, or -1 when it is not; masks never reached,
    or cut by the cycle test, stay absent.

    The recursion runs on an explicit stack of frames (the set, its free
    members, its read waits, its untried candidates and the candidate
    tried last), so k is not bounded by the interpreter's recursion
    limit.  A frame whose rest needs evaluating is pushed and the rest
    becomes the current frame; a failed frame resumes its parent at the
    next candidate, and a success records each pending frame's candidate
    on the way up.
    """
    memo[0] = k  # sentinel: the empty subset is orderable
    full = free = (1 << k) - 1
    for b in blocks:
        free &= ~b
    # The current frame: its set, free members, read waits and untried
    # candidates; `stack` holds the pending frames and their candidates.
    s_mask, waits, c = full, {}, free
    stack: list[tuple[int, int, dict[int, int], int, int]] = []
    subsets, gates = 1, 0
    while True:
        while c:
            vb = c & -c
            c ^= vb
            v = vb.bit_length() - 1
            vm = varmask[v]
            if waits.get(vm, 0) & s_mask:
                continue
            gates += 1
            rest = s_mask ^ vb
            cached = memo.get(rest)
            if cached is not None:
                if cached < 0:
                    continue
                break  # the rest is orderable: place v
            rd = pred_rd[v] & rest
            child = waits
            if rd:
                seen = reached = rd
                while reached and not reached & vm:
                    step = 0
                    for wm, w in waits.items():
                        if wm & reached:
                            step |= w
                    reached = step & rest & ~seen
                    seen |= reached
                if reached:
                    continue
                child = dict(waits)
                child[vm] = child.get(vm, 0) | rd
            freed = free ^ vb
            b = blocks[v] & rest
            while b:
                u = b & -b
                b ^= u
                if not blockers[u.bit_length() - 1] & rest:
                    freed |= u
            stack.append((s_mask, free, waits, c, v))
            s_mask, free, waits, c = rest, freed, child, freed
            subsets += 1
        else:
            # No candidate left: the set has no order; resume the parent.
            memo[s_mask] = -1
            if not stack:
                break
            s_mask, free, waits, c, v = stack.pop()
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
    """Re-check a write order against both base graphs, extended by it.

    `bases` are the two graphs of `build_base_graphs`.  The order enters
    as a chain, and the reads of each write gain conflict edges to the
    next write of the same variable; every other order pair and conflict
    edge is implied through the chain.  Both kinds of edge enter through
    each graph's `vertex_of`.  Neither enters a read, so the contraction
    of single-entry reads stays exact.  The bases are extended into new
    graphs, never mutated, so `solve` passes the graphs it searched from.
    """
    if sorted(tw) != list(h.writes):
        raise NotAPermutationError(
            "witness must contain every write exactly once"
        )
    chain = list(zip(tw, tw[1:]))
    next_on_var: list[tuple[int, int]] = []
    last_on: dict[str, int] = {}
    for w in tw:
        var = h.events[w].var
        if var in last_on:
            next_on_var.append((last_on[var], w))
        last_on[var] = w
    for g in bases:
        vertex_of = g.vertex_of
        order = [(vertex_of[a], vertex_of[b]) for a, b in chain]
        cf = conflict_edges(h, next_on_var, vertex_of)
        if not kahn_acyclic(g.extended(order, cf))[0]:
            return False
    return True
