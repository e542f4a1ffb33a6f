"""Brute-force ground-truth deciders.

Two deliberately naive routes to the same verdict as the solver: total
enumeration of write orders, and enumeration of per-variable store
orders.  Both build their graphs inline rather than sharing the solver's
machinery, so agreement between the three deciders is meaningful.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import KTooLargeForOracleError, SearchSpaceTooLargeError
from .events import History
from .graphs import EventGraph, kahn_acyclic
from .models import DerivedModel, ModelSpec, derive, oota_cycle
from .solver import Outcome, Verdict

#: Total-order enumeration walks k! permutations.
ORACLE_MAX_K = 8

#: Store-order enumeration walks the product of per-variable factorials.
ORACLE_MAX_STORE_ORDERS = 10**6


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


def _from_read_edges(
    h: History, order_pairs: set[tuple[int, int]]
) -> set[tuple[int, int]]:
    # rf-inverse composed with the same-variable part of the order: the
    # read saw a value a later write overwrites, so the read precedes it.
    # A deliberate duplicate of the conflict edges `verify_witness` adds,
    # kept so that the oracles share no decision code with the solver.
    access = h.access
    out = set()
    for wa, wb in order_pairs:
        if access[wa][1] != access[wb][1]:
            continue
        for r in h.readers_of(wa):
            out.add((r, wb))
    return out


def _both_acyclic(
    h: History,
    dm: DerivedModel,
    order_pairs: set[tuple[int, int]],
) -> bool:
    extra = _from_read_edges(h, order_pairs)
    return all(
        kahn_acyclic(EventGraph(h.n, po, rf, order_pairs, extra))[0]
        for po, rf in ((dm.po_loc_effective, h.rf), (dm.po_mm, dm.rf_mm))
    )


def oracle_total(h: History, spec: ModelSpec) -> Verdict:
    """Decide consistency by trying every total write order.

    Permutations are generated in lexicographic order of write ids and the
    first passing one is returned as witness.
    """
    if h.k > ORACLE_MAX_K:
        raise KTooLargeForOracleError(
            f"k={h.k} exceeds the oracle bound of {ORACLE_MAX_K}"
        )
    if spec.requires_oota and oota_cycle(h) is not None:
        return Verdict(Outcome.INCONSISTENT)
    dm = derive(h, spec)
    for perm in itertools.permutations(h.writes):
        order_pairs = set()
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                order_pairs.add((perm[i], perm[j]))
        if _both_acyclic(h, dm, order_pairs):
            return Verdict(Outcome.CONSISTENT, witness=list(perm))
    return Verdict(Outcome.INCONSISTENT)


def store_order_count(h: History) -> int:
    """Size of the store-order search space for `h`."""
    count = 1
    for var in sorted(h.variables):
        count *= math.factorial(len(h.writes_on(var)))
    return count


def iter_store_orders(h: History):
    """Yield every store order, per-variable permutations in lex order."""
    variables = [v for v in sorted(h.variables) if h.writes_on(v)]
    pools = [itertools.permutations(h.writes_on(v)) for v in variables]
    for combo in itertools.product(*pools):
        yield StoreOrder(tuple(zip(variables, combo)))


def oracle_store(h: History, spec: ModelSpec) -> Verdict:
    """Decide validity by trying every per-variable store order.

    A passing store order is linearized (through the model graph it keeps
    acyclic) into a full write order, returned as witness so that the
    verdict can be re-verified like any other.
    """
    count = store_order_count(h)
    if count > ORACLE_MAX_STORE_ORDERS:
        raise SearchSpaceTooLargeError(
            f"{count} store orders exceed the bound of "
            f"{ORACLE_MAX_STORE_ORDERS}"
        )
    if spec.requires_oota and oota_cycle(h) is not None:
        return Verdict(Outcome.INCONSISTENT)
    dm = derive(h, spec)
    for so in iter_store_orders(h):
        ww = so.pairs()
        if _both_acyclic(h, dm, ww):
            return Verdict(
                Outcome.CONSISTENT, witness=_linearize(h, dm, ww)
            )
    return Verdict(Outcome.INCONSISTENT)


def _linearize(
    h: History, dm: DerivedModel, ww: set[tuple[int, int]]
) -> list[int]:
    g = EventGraph(h.n, dm.po_mm, dm.rf_mm, ww, _from_read_edges(h, ww))
    acyclic, order = kahn_acyclic(g)
    assert acyclic, "caller guarantees the store-order graph is acyclic"
    write_set = set(h.writes)
    return [e for e in order if e in write_set]
