"""Test-side reference implementations.

The reference solver below mirrors the production search but takes every
acyclicity decision on explicitly constructed graphs, so agreement with
`solve` exercises the production search tables end to end.

The reference derivation keeps program order as the stored pair set the
package used before it switched to position comparisons and linear edge
lists.  It is a deliberate duplicate: differential tests compare the
closures of the production edge lists and the production witnesses
against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from mmcheck import History, derive, oota_cycle
from mmcheck.errors import MmcheckError
from mmcheck.graphs import EventGraph, conflict_edges, kahn_acyclic
from mmcheck.models import DerivedModel, build_base_graphs


class PreconditionViolatedError(MmcheckError):
    """A reference construction was called outside its precondition."""


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


def build_coherence_graphs(h, derived, index, subset_mask, v):
    """Order-augmented graphs testing `v` as minimum of subset ∪ {v}.

    Both base graphs are extended with the snapshot pairs of
    :func:`build_r_snapshot` and the conflict edges they induce.  Their
    joint acyclicity is exactly the condition under which the subset can
    sit on top of a valid write order with `v` at its bottom.
    """
    snapshot = build_r_snapshot(index, subset_mask, v)
    cf = conflict_edges(h, snapshot)
    return (
        EventGraph(h.n, derived.po_loc_effective, h.rf, snapshot, cf),
        EventGraph(h.n, derived.po_mm, derived.rf_mm, snapshot, cf),
    )


def solve_reference(h, spec, derived=None):
    """Subset search over explicit graphs; returns (consistent, memo)."""
    dm = derived if derived is not None else derive(h, spec)
    if spec.requires_oota and oota_cycle(h) is not None:
        return False, {}
    g_loc, g_mm = build_base_graphs(h, dm)
    if not kahn_acyclic(g_loc)[0] or not kahn_acyclic(g_mm)[0]:
        return False, {}
    index = WriteIndex(h)
    memo = {0: index.k}

    def orderable(mask):
        cached = memo.get(mask)
        if cached is not None:
            return cached >= 0
        m = mask
        while m:
            bit = m & -m
            m ^= bit
            j = bit.bit_length() - 1
            rest = mask ^ bit
            gl, gm = build_coherence_graphs(h, dm, index, rest, index.ids[j])
            if kahn_acyclic(gl)[0] and kahn_acyclic(gm)[0] and orderable(rest):
                memo[mask] = j
                return True
        memo[mask] = -1
        return False

    return orderable(index.full_mask), memo


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
    for iw in h.init_events:
        for e in h.events:
            if not e.is_init:
                pairs.add((iw.id, e.id))
    return frozenset(pairs)


def reference_derive(h, spec):
    """The model's relations as pair sets filtered out of `reference_po`."""
    events = h.events
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
            if not (events[a].is_write and events[b].is_read)
        )
        rf_mm = rf_ext
    elif spec.name == "pso":
        po_mm = frozenset((a, b) for a, b in po if not events[a].is_write)
        rf_mm = rf_ext
    else:
        po_mm, rf_mm = h.dp, rf_ext
    po_loc = frozenset(
        (a, b)
        for a, b in po
        if events[a].var == events[b].var
        and not (spec.allows_llh and events[a].is_read and events[b].is_read)
    )
    return DerivedModel(po_mm=po_mm, rf_mm=rf_mm, po_loc_effective=po_loc)
