"""Brute-force ground-truth deciders.

Two deliberately naive routes to the same verdict as the solver: total
enumeration of write orders, and enumeration of per-variable store
orders.  They share with the solver only the graph container
(`EventGraph`), its Kahn peel (`kahn_acyclic`), the model's relations
(`derive`) and the out-of-thin-air check (`oota_cycle`).  They share
none of its decision code: not the reach tables, not the contracted
base graphs `build_base_graphs` returns, and not the subset search.
Each takes the model's two full graphs, one vertex per event, from the
derivation (`DerivedModel.graphs`), and extends them with the edges of
each order it tries, so agreement between the three deciders is
meaningful.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import KTooLargeForOracleError, SearchSpaceTooLargeError
from .events import History
from .graphs import kahn_acyclic
from .models import ModelSpec, derive, oota_cycle
from .solver import Outcome, Verdict

_T = TypeVar("_T")

#: A variable's write order as its chain's edge lists.
_Chained = list[list[tuple[int, int]]]

#: Total-order enumeration walks k! permutations.
ORACLE_MAX_K = 8

#: Store-order enumeration walks the product of per-variable factorials.
ORACLE_MAX_STORE_ORDERS = 10**6


def _from_read_edges(
    h: History, order_pairs: Iterable[tuple[int, int]]
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


def oracle_total(h: History, spec: ModelSpec) -> Verdict:
    """Decide consistency by trying every total write order.

    Permutations are generated in lexicographic order of write ids and the
    first passing one is returned as witness.  Each permutation extends
    both order-free graphs with all its pairs and every conflict edge.
    """
    if h.k > ORACLE_MAX_K:
        raise KTooLargeForOracleError(
            f"k={h.k} exceeds the oracle bound of {ORACLE_MAX_K}"
        )
    if spec.dp_only and oota_cycle(h) is not None:
        return Verdict(Outcome.INCONSISTENT)
    bases = derive(h, spec).graphs()
    for perm in itertools.permutations(h.writes):
        pairs = list(itertools.combinations(perm, 2))
        extra = _from_read_edges(h, pairs)
        if all(kahn_acyclic(g.extended(pairs, extra))[0] for g in bases):
            return Verdict(Outcome.CONSISTENT, witness=list(perm))
    return Verdict(Outcome.INCONSISTENT)


def store_order_count(h: History) -> int:
    """Size of the store-order search space for `h`: the product of each
    variable's write count factorial, exact up to
    `ORACLE_MAX_STORE_ORDERS` and past it some number above the bound.

    The product stops growing once it passes the bound, so a variable
    with many writes costs a few multiplications, not a factorial of
    thousands of digits.
    """
    count = 1
    for var in h.variables:
        for m in range(2, len(h.writes_on(var)) + 1):
            count *= m
            if count > ORACLE_MAX_STORE_ORDERS:
                return count
    return count


def oracle_store(h: History, spec: ModelSpec) -> Verdict:
    """Decide validity by trying every per-variable store order.

    Store orders are tried as `itertools.product` yields them over each
    variable's write permutations in lexicographic order, variables
    sorted by name.  The peel that accepts the first passing store order
    gives the witness: its writes, in peel order, are a full write order
    that the verdict can be re-verified with like any other.

    A store order passes when both order-free graphs stay acyclic with its
    order pairs (w, w') and its conflict edges (r, w'), for each read r of
    a write w that the order puts before w' on their variable.  Four
    facts make the check and its witness cheaper without changing any
    answer:

    - Bare graphs.  A store order only adds edges, so when either
      order-free graph is cyclic on its own no store order passes: both
      are peeled once, first.  When both are acyclic, a variable with one
      write has one order, which adds no order pair, conflict edge or
      chain edge, and so passes; the product order, the first passing
      store order and its witness are those of the variables with two or
      more writes alone.  Only those are enumerated, and each at least
      doubles the store-order count, so under the bound there are fewer
      than 20 of them.
    - Chains.  Each variable's order π₁ … πₘ adds only the edges
      πᵢ → πᵢ₊₁ and r → πᵢ₊₁ for each read r of πᵢ.  Every order pair
      (πᵢ, πⱼ), i < j, is a path of chain edges, and every conflict edge
      (r, πⱼ) is r → πᵢ₊₁ followed by such a path; and the chain edges
      are themselves order pairs and conflict edges.  So both edge sets
      have the same transitive closure, and each graph is acyclic with
      one exactly when it is with the other.
    - Witness.  The FIFO peel (`kahn_acyclic`) of the model graph with
      the chains is, step by step, its peel with every order pair and
      conflict edge, so the witness is the same under either edge set.
      Added edges enter only writes, so every other vertex has the same
      in-edges under both, and each vertex's added out-edges follow its
      model-graph row.  Under the chains each vertex has at most one
      added out-edge: πᵢ and its reads have one, to πᵢ₊₁.  With all pairs
      πⱼ also has in-edges from π₁ … πⱼ₋₂ and their reads, and these
      extra sources are ancestors of πⱼ₋₁ under the chains.  Say the two
      peels are equal up to the vertex u they walk next.  When an extra
      source of πⱼ is not walked before u, πⱼ₋₁, its descendant, is
      walked after u, so u frees πⱼ in neither peel; when all are, πⱼ
      waits on the same in-edges in both.  So u frees the same vertices
      in both, in the same order: those its model-graph row frees, then
      at most one write, πᵢ₊₁, by its chain edge.  The further edges all
      pairs add from u go to πᵢ₊₂ … πₘ, which wait on their predecessors,
      descendants of u, and free nothing.  The peels start from the same
      sources, so by induction they are equal.
    - Variables apart.  Every per-location edge joins two events of one
      variable: same-variable program order (with or without load-load
      hazards), reads-from, order pairs and conflict edges.  So the
      per-location graph is a disjoint union of one part per variable,
      and a store order adds to each part only that variable's edges.  A
      union is acyclic exactly when each of its parts is.  The order-free
      graph extended by variable x's edges alone is acyclic exactly when
      x's part with those edges, and every other part bare, are.  Every
      variable with an event has a write, since each read has a writer,
      so every part belongs to a variable the store order orders.  Hence
      the per-location graph is acyclic under a store order exactly when,
      for each variable, the order-free graph extended by that variable's
      edges alone is.

    So each variable order is tested on the per-location graph once,
    when the enumeration first reaches it.  A failing one skips every
    store order that holds it, and the model graph is peeled only for
    store orders whose every variable order passes.  Memory is bounded:
    the passing variable orders, at most Σₓ|Wₓ|! for the writes Wₓ of
    each variable x, each with |Wₓ| − 1 references to edge lists; and
    one edge list per ordered pair of same-variable writes, at most
    Σₓ|Wₓ|², each one longer than its first write's readers.  No whole
    store order is kept.
    """
    if store_order_count(h) > ORACLE_MAX_STORE_ORDERS:
        raise SearchSpaceTooLargeError(
            f"store orders exceed the bound of {ORACLE_MAX_STORE_ORDERS}"
        )
    if spec.dp_only and oota_cycle(h) is not None:
        return Verdict(Outcome.INCONSISTENT)
    loc, mm = derive(h, spec).graphs()
    if not (kahn_acyclic(loc)[0] and kahn_acyclic(mm)[0]):
        return Verdict(Outcome.INCONSISTENT)
    links: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def chained(order: tuple[int, ...]) -> _Chained:
        edge_lists = []
        for a, b in zip(order, order[1:]):
            edges = links.get((a, b))
            if edges is None:
                edges = [(a, b), *((r, b) for r in h.readers_of(a))]
                links[a, b] = edges
            edge_lists.append(edges)
        return edge_lists

    def loc_acyclic(item: _Chained) -> bool:
        return kahn_acyclic(loc.extended(*item))[0]

    pools = [
        map(chained, itertools.permutations(ws))
        for v in sorted(h.variables)
        if len(ws := h.writes_on(v)) > 1
    ]
    for combo in _product_of_passing(pools, loc_acyclic):
        acyclic, order = kahn_acyclic(mm.extended(*itertools.chain(*combo)))
        if acyclic:
            write_set = set(h.writes)
            witness = [e for e in order if e in write_set]
            return Verdict(Outcome.CONSISTENT, witness=witness)
    return Verdict(Outcome.INCONSISTENT)


def _product_of_passing(
    pools: Sequence[Iterable[_T]], passes: Callable[[_T], bool]
) -> Iterator[tuple[_T, ...]]:
    """The tuples `itertools.product(*pools)` yields whose every item
    passes, in the same order.

    Each item is tested once, when the walk first reaches it, and only the
    passing ones are kept.  A failing item skips every tuple that holds it
    without visiting them.
    """
    if not pools:
        yield ()
        return
    kept: list[list[_T]] = [[] for _ in pools]
    untested = [iter(pool) for pool in pools]

    # Pool i is walked once per tuple of items ahead of it, each walk to
    # its end before the next starts; so only the first walk tests items,
    # and every later one finds them all kept.
    def items(i: int) -> Iterator[_T]:
        yield from kept[i]
        for item in untested[i]:
            if passes(item):
                kept[i].append(item)
                yield item

    # The open walks, one per pool from the first to the deepest reached,
    # sit on a list rather than the call stack, so any number of pools
    # fits; `prefix` holds the item each walk but the deepest stands at.
    prefix: list[_T] = []
    walks = [items(0)]
    while walks:
        for item in walks[-1]:
            if len(walks) == len(pools):
                yield (*prefix, item)
            else:
                prefix.append(item)
                walks.append(items(len(walks)))
                break
        else:
            walks.pop()
            if prefix:
                prefix.pop()
