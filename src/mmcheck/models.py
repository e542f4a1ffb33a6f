"""Memory model definitions and per-history relation derivation.

A model is a pair of derivation rules: which part of program order the
memory is obliged to keep, and which reads-from edges are globally
visible.  The four supported models:

  sc    keeps full program order and full reads-from.
  tso   drops write-to-read program-order pairs; only cross-thread
        reads-from is visible (store buffering with early reads).
  pso   additionally drops write-to-write pairs (a buffer per variable).
  rmo   keeps only the explicit dependency edges, permits load-load
        hazards, and requires the dependency/reads-from cycle test.

Derived program order is emitted as edge lists of size O(n) whose
transitive closure is the kept pair set; acyclicity, reachability and the
solver's search tables depend on nothing else.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass

from .errors import InvalidDpError, UnknownModelError
from .events import READ, WRITE, History
from .graphs import EventGraph, find_cycle


@dataclass(frozen=True)
class ModelSpec:
    """A memory model name, its kept program order and auxiliary flags."""

    name: str
    allows_llh: bool
    requires_oota: bool
    #: (earlier kind, later kind) pairs whose same-thread program order the
    #: model keeps, or None when it keeps only the dependency edges.
    kept_po: frozenset[tuple[str, str]] | None


_READ_FIRST = frozenset({(READ, READ), (READ, WRITE)})

MODELS: dict[str, ModelSpec] = {
    "sc": ModelSpec(
        "sc", allows_llh=False, requires_oota=False,
        kept_po=_READ_FIRST | {(WRITE, READ), (WRITE, WRITE)},
    ),
    "tso": ModelSpec(
        "tso", allows_llh=False, requires_oota=False,
        kept_po=_READ_FIRST | {(WRITE, WRITE)},
    ),
    "pso": ModelSpec(
        "pso", allows_llh=False, requires_oota=False, kept_po=_READ_FIRST
    ),
    "rmo": ModelSpec("rmo", allows_llh=True, requires_oota=True, kept_po=None),
}


def get_model(name: str) -> ModelSpec:
    """Look up a model by name, case-insensitively."""
    try:
        return MODELS[name.lower()]
    except KeyError:
        raise UnknownModelError(
            f"unknown model {name!r}; expected one of {', '.join(MODELS)}"
        ) from None


@dataclass(frozen=True)
class DerivedModel:
    """The relations a model actually exposes for one history.

    `po_mm` and `po_loc_effective` are edge lists: their transitive
    closures, not the lists themselves, are the preserved program order
    and the effective same-variable program order.
    """

    po_mm: Collection[tuple[int, int]]
    rf_mm: frozenset[tuple[int, int]]
    po_loc_effective: Collection[tuple[int, int]]


def rf_external(h: History) -> frozenset[tuple[int, int]]:
    """Reads-from restricted to pairs unrelated by program order.

    Same-thread pairs vanish, and so do pairs sourced by initial writes,
    because initial writes precede everything in program order: kept are
    the pairs of a non-initial write and a read on another thread.
    """
    events = h.events
    pairs: list[tuple[int, int]] = []
    for w in h.writes:
        _, thread, _, _, _, _, is_init = events[w]
        if not is_init:
            pairs.extend(
                (w, r) for r in h.readers_of(w) if events[r][1] != thread
            )
    return frozenset(pairs)


def po_edges(
    h: History, kept: frozenset[tuple[str, str]]
) -> list[tuple[int, int]]:
    """Edges whose closure is the program order a model keeps.

    `kept` names the (earlier kind, later kind) pairs kept.  Each event
    gets an edge from the last earlier event of each kind kept ahead of
    it; an earlier event of that kind reaches the last one because every
    model that keeps (K, L) also keeps (K, K).  The initial writes get an
    edge to the first event of each thread that is kept behind a write;
    the later such events follow that one, because the kinds a model
    keeps behind a write are kept behind each other.
    """
    ahead = {b: sorted(a for a, c in kept if c == b) for b in (WRITE, READ)}
    events = h.events
    inits = [e.id for e in h.init_events]
    edges: list[tuple[int, int]] = []
    for t in h.threads:
        last: dict[str, int] = {}
        inits_pending = True
        for b in h.thread_events(t):
            kind = events[b][3]
            for earlier in ahead[kind]:
                a = last.get(earlier)
                if a is not None:
                    edges.append((a, b))
            if inits_pending and WRITE in ahead[kind]:
                edges.extend((i, b) for i in inits)
                inits_pending = False
            last[kind] = b
    return edges


def po_loc(h: History, llh: bool = False) -> list[tuple[int, int]]:
    """Edges whose closure is the same-variable program order.

    Each (thread, variable) forms a chain headed by the variable's initial
    write.  With `llh` set, read-read pairs are removed, which is the
    weakening used by models that permit load-load hazards: each event
    then follows the last write to its variable (or the initial write),
    and each write follows every read of its variable since the previous
    write.  A read-read pair with a write between stays in the closure,
    as it does in the closure of the pair set.
    """
    events = h.events
    init_of = {e.var: e.id for e in h.init_events}
    edges: list[tuple[int, int]] = []
    for t in h.threads:
        last = dict(init_of)
        reads_since: dict[str, list[int]] = {}
        for b in h.thread_events(t):
            _, _, _, kind, var, _, _ = events[b]
            a = last.get(var)
            if a is not None:
                edges.append((a, b))
            if not llh:
                last[var] = b
            elif kind == WRITE:
                edges.extend((r, b) for r in reads_since.pop(var, ()))
                last[var] = b
            else:
                reads_since.setdefault(var, []).append(b)
    return edges


def derive(h: History, spec: ModelSpec) -> DerivedModel:
    """Compute the preserved program order and visible reads-from.

    Pure: equal inputs give identical relations.  For rmo the dependency
    relation must be read-sourced and lie inside program order; histories
    built by this package guarantee that, but it is re-checked here.
    """
    events = h.events
    if spec.kept_po is None:
        for a, b in h.dp:
            if not events[a].is_read or not h.po_before(a, b):
                raise InvalidDpError(
                    f"dp edge {h.ref(a)} -> {h.ref(b)} is not a read-sourced "
                    "program-order edge"
                )
        po_mm: Collection[tuple[int, int]] = h.dp
    else:
        po_mm = po_edges(h, spec.kept_po)

    return DerivedModel(
        po_mm=po_mm,
        rf_mm=h.rf if spec.name == "sc" else rf_external(h),
        po_loc_effective=po_loc(h, llh=spec.allows_llh),
    )


def oota_cycle(h: History) -> list[int] | None:
    """One cycle of the dependency/reads-from union, or None if acyclic.

    A cycle would mean some value justifies itself through a loop of
    dependencies and reads; models with explicit dependencies reject such
    histories outright.
    """
    return find_cycle(EventGraph(h.n, h.dp, h.rf))
