"""The subset decision procedure for trace consistency.

A history is consistent with a model when some strict total order on its
writes keeps two graphs acyclic: the per-location graph (effective
same-variable program order, reads-from, the order, and its induced
conflict edges) and the model graph (preserved program order, visible
reads-from, the order, conflict edges).

Instead of enumerating the factorially-many orders, `solve` asks for each
subset of writes whether it can form the *top* of such an order.  The
answer for a subset follows from the answers of its one-smaller subsets:
some member must be placeable below the rest, which is a pair of
acyclicity tests on graphs that depend only on the subset and the chosen
member.  Memoizing subsets caps the search at 2^k states for k writes.

The per-candidate acyclicity tests are the hot path.  They are answered
here from reachability masks over 2k bits (the writes, and the reads each
write sourced), precomputed over the static part of each graph.  That is
equivalent to building the augmented graphs and running Kahn's algorithm
but costs a handful of word operations per candidate.  The equivalence is
cross-checked against an explicit-graph reference search in the test
suite.
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
from .graphs import (
    EventGraph,
    WriteIndex,
    build_base_graphs,
    conflict_edges,
    find_cycle,
    kahn_acyclic,
)
from .models import DerivedModel, ModelSpec, derive, oota_cycle

DEFAULT_MAX_K = 30


class Outcome(enum.Enum):
    CONSISTENT = "consistent"
    INCONSISTENT = "inconsistent"


@dataclass
class SolveStats:
    """Search-effort counters for one solve call."""

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


class _Gate:
    """Write-indexed reachability masks over one static graph.

    `ww[j]` holds the writes that write j reaches, and `rdr[j]` the writes
    one of whose reads write j reaches.  Both come from one reverse
    topological pass over 2k-bit tags: write i carries bit i, and a read
    sourced by write i carries bit k + i.
    """

    __slots__ = ("ww", "rdr", "rdr_own", "pred_ww", "pred_rd")

    def __init__(
        self,
        index: WriteIndex,
        base: EventGraph,
        topo: list[int],
        tags: list[int],
        varmask: list[int],
    ):
        k = index.k
        adj = base.adj
        reach = [0] * base.n
        for u in reversed(topo):
            m = 0
            for v in adj[u]:
                m |= tags[v] | reach[v]
            reach[u] = m
        low = index.full_mask
        self.ww = [reach[w] & low for w in index.ids]
        self.rdr = [reach[w] >> k for w in index.ids]
        self.rdr_own = [r & vm for r, vm in zip(self.rdr, varmask)]
        self.pred_ww = _transpose(self.ww, k)
        self.pred_rd = _transpose(self.rdr, k)


def _transpose(masks: list[int], k: int) -> list[int]:
    out = [0] * k
    for j, m in enumerate(masks):
        while m:
            b = m & -m
            m ^= b
            out[b.bit_length() - 1] |= 1 << j
    return out


def _peel_cyclic(nodes: int, edges: list[tuple[int, int]]) -> bool:
    """Cycle test over a write-bit graph given (source bit, target mask)."""
    pred: dict[int, int] = {}
    for src_bit, targets in edges:
        t = targets
        while t:
            b = t & -t
            t ^= b
            pred[b] = pred.get(b, 0) | src_bit
    alive = nodes
    while alive:
        removed = 0
        a = alive
        while a:
            b = a & -a
            a ^= b
            if pred.get(b, 0) & alive == 0:
                removed |= b
        if not removed:
            return True
        alive ^= removed
    return False


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
    for ok, g, label in (
        (ok_loc, g_loc, "per-location"),
        (ok_mm, g_mm, "model-order"),
    ):
        if not ok:
            cyc = find_cycle(g)
            return Verdict(
                Outcome.INCONSISTENT,
                diagnostics=(
                    f"base {label} graph is cyclic: " + h.format_cycle(cyc)
                ),
                stats=stats,
            )

    index = WriteIndex(h)
    if index.k == 0:
        return Verdict(Outcome.CONSISTENT, witness=[], stats=stats)

    varmask, tags = _write_tables(h, index)
    bases = ((g_loc, topo_loc), (g_mm, topo_mm))
    gates = [
        _Gate(index, *bases[i], tags, varmask)
        for i in _distinct_static(h, spec, dm)
    ]

    memo: dict[int, int] = {}
    found = _search(index, memo, gates, varmask, stats)
    if not found:
        return Verdict(
            Outcome.INCONSISTENT,
            diagnostics=(
                "no write order keeps both graphs acyclic "
                f"({stats.subsets_evaluated} subsets explored)"
            ),
            stats=stats,
        )

    tw = extract_witness(index, memo)
    if not verify_witness(h, dm, tw):
        raise InternalWitnessInvalidError(
            "extracted write order failed re-verification"
        )
    return Verdict(Outcome.CONSISTENT, witness=tw, stats=stats)


def _write_tables(
    h: History, index: WriteIndex
) -> tuple[list[int], list[int]]:
    """Per-write-bit same-variable write masks, and per-event 2k-bit tags."""
    k = index.k
    var_writes: dict[str, int] = {}
    for j, wid in enumerate(index.ids):
        var = h.events[wid].var
        var_writes[var] = var_writes.get(var, 0) | (1 << j)
    varmask = [var_writes[h.events[wid].var] for wid in index.ids]
    tags = [0] * h.n
    for j, wid in enumerate(index.ids):
        tags[wid] = 1 << j
        for r in h.readers_of(wid):
            tags[r] = 1 << (k + j)
    return varmask, tags


def _distinct_static(
    h: History, spec: ModelSpec, dm: DerivedModel
) -> tuple[int, ...]:
    """Which base graphs the search gates on: 0 per-location, 1 model.

    The order-dependent additions are identical for both graphs, so when
    one graph's static pairs are a subset of the other's, the larger
    graph's acyclicity subsumes the smaller one's.  The subset tests are
    on the pair sets the edge lists stand for, and one scan of the edges
    decides them:

    - the per-location pairs lie in the model graph when the model shows
      all of reads-from (the reads-from pairs it hides are never kept
      program order either) and keeps every per-location edge.  A
      kind-based kept order is transitive, so it then keeps the closure;
      under rmo a kept per-location edge is a dependency edge, which
      starts at a read, so no per-location pair lies beyond the edges;
    - otherwise the model pairs lie in the per-location graph when every
      model edge is same-variable (and, under rmo's load-load hazard
      rule, not read-to-read; the dependency edges are the pairs).
    """
    events = h.events
    kept = spec.kept_po
    if kept is None:
        loc_kept = all(pair in h.dp for pair in dm.po_loc_effective)
    else:
        loc_kept = all(
            (events[a].kind, events[b].kind) in kept
            for a, b in dm.po_loc_effective
        )
    if loc_kept and dm.rf_mm == h.rf:
        return (1,)
    llh = spec.allows_llh
    if all(
        events[a].var == events[b].var
        and not (llh and events[a].is_read and events[b].is_read)
        for a, b in dm.po_mm
    ):
        return (0,)
    return (0, 1)


def _search(
    index: WriteIndex,
    memo: dict[int, int],
    gates: list[_Gate],
    varmask: list[int],
    stats: SolveStats,
) -> bool:
    """Evaluate the subset recursion top-down with memoization.

    A subset is orderable when some member can be its minimum: nothing in
    the subset may depend (through the static graph, directly or via a
    read it sourced) on a write outside the subset or on the candidate,
    and the conflict edges the placement induces must not close a cycle
    among the subset's writes.

    `memo[mask]` receives the bit index of the write placed lowest when
    the subset is orderable, or -1 when it is not; masks never reached
    stay absent.
    """
    k = index.k
    full = index.full_mask
    memo[0] = k  # sentinel: the empty subset is orderable, nothing removed

    def orderable(s_mask: int) -> bool:
        cached = memo.get(s_mask)
        if cached is not None:
            return cached >= 0
        stats.subsets_evaluated += 1
        comp = full ^ s_mask

        # Candidate-independent screening per gate: a subset member that
        # statically reaches an outside write (or a read the outside write
        # sourced, on the member's own variable) can never sit above it.
        e3_lists: list[list[tuple[int, int]] | None] = []
        e3_unions: list[int] = []
        for g in gates:
            stats.gate_checks += 1
            ww = g.ww
            rdr = g.rdr
            rdr_own = g.rdr_own
            e3: list[tuple[int, int]] | None = None
            e3_union = 0
            s = s_mask
            while s:
                b = s & -s
                s ^= b
                j = b.bit_length() - 1
                if ww[j] & comp:
                    memo[s_mask] = -1
                    return False
                out = rdr[j] & comp
                if out:
                    if rdr_own[j] & comp:
                        memo[s_mask] = -1
                        return False
                    targets = 0
                    while out:
                        ub = out & -out
                        out ^= ub
                        targets |= varmask[ub.bit_length() - 1]
                    targets &= s_mask
                    if targets:
                        if e3 is None:
                            e3 = []
                        e3.append((b, targets))
                        e3_union |= targets
            if e3 is not None and _peel_cyclic(s_mask, e3):
                memo[s_mask] = -1
                return False
            e3_lists.append(e3)
            e3_unions.append(e3_union)

        s = s_mask
        while s:
            vb = s & -s
            s ^= vb
            vj = vb.bit_length() - 1
            rest = s_mask ^ vb
            ok = True
            for gi, g in enumerate(gates):
                stats.gate_checks += 1
                if g.pred_ww[vj] & rest:
                    ok = False
                    break
                vvar = varmask[vj]
                if g.pred_rd[vj] & rest & vvar:
                    ok = False
                    break
                e3 = e3_lists[gi]
                if e3 is None:
                    continue
                # The candidate's own placement edges (into every other
                # member) matter only when a conflict edge can enter it.
                enters_v = e3_unions[gi] & vb
                e4_src = g.pred_rd[vj] & s_mask
                e4_targets = vvar & rest
                has_e4 = e4_src and e4_targets
                if has_e4 or enters_v:
                    edges = list(e3)
                    if has_e4:
                        src = e4_src
                        while src:
                            sb = src & -src
                            src ^= sb
                            edges.append((sb, e4_targets))
                    if enters_v:
                        edges.append((vb, rest))
                    if _peel_cyclic(s_mask, edges):
                        ok = False
                        break
            if ok and orderable(rest):
                memo[s_mask] = vj
                return True
        memo[s_mask] = -1
        return False

    return orderable(full)


def extract_witness(index: WriteIndex, memo: dict[int, int]) -> list[int]:
    """Read the write order out of a successful search memo.

    Walking the recorded removals from the full set downward yields the
    writes in ascending order: the first removal was placed below
    everything else.
    """
    mask = index.full_mask
    order: list[int] = []
    while mask:
        j = memo.get(mask, -1)
        if j < 0 or not mask >> j & 1:
            raise InternalWitnessInvalidError(
                f"memo has no removal recorded for mask {mask:#x}"
            )
        order.append(index.ids[j])
        mask ^= 1 << j
    return order


def verify_witness(h: History, derived: DerivedModel, tw: list[int]) -> bool:
    """Re-check a write order against both graphs, built explicitly.

    The order enters as a chain, and the reads of each write gain conflict
    edges to the next write of the same variable; every other order pair
    and conflict edge is implied through the chain.
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
    cf = conflict_edges(h, next_on_var)
    for static in (
        (derived.po_loc_effective, h.rf),
        (derived.po_mm, derived.rf_mm),
    ):
        g = EventGraph(h.n)
        for rel in static:
            g.add_pairs(rel)
        g.add_pairs(chain)
        g.add_pairs(cf)
        acyclic, _ = kahn_acyclic(g)
        if not acyclic:
            return False
    return True
