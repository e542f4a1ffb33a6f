"""Brute-force ground-truth deciders.

Two deliberately naive routes to the same verdict as the solver: total
enumeration of write orders, and enumeration of per-variable store
orders.  They share with the solver only the graph container
(`EventGraph`), the one way a write order enters a graph
(`EventGraph.with_order`, which the solver's witness re-check also
uses), its Kahn peel (`kahn_acyclic`), the model's relations (`derive`)
and the out-of-thin-air check (`oota_cycle`); the store oracle alone
also peels the part of a graph that some vertices reach
(`reach_acyclic`), which the solver never calls.  They share none of its
decision code: not the reach tables, not the contracted base graphs
`build_base_graphs` returns, and not the subset search.  Each takes the
model's two full graphs, one vertex per event, from the derivation
(`DerivedModel.graphs`), and adds to them each order it tries, so
agreement between the three deciders is meaningful.  `with_order` adds
an order as chains, not as every pair and conflict edge; the
construction with every pair lives in the tests, as the reference both
oracles are checked against.  `oracle_total` stays the plain
enumeration: it peels both graphs for every permutation and skips none,
the baseline the store oracle's pruning is checked against.
"""

from __future__ import annotations

import itertools

from .errors import KTooLargeForOracleError, SearchSpaceTooLargeError
from .events import History
from .graphs import EventGraph, kahn_acyclic, reach_acyclic
from .models import ModelSpec, derive, oota_cycle
from .solver import Outcome, Verdict

#: Total-order enumeration walks k! permutations.
ORACLE_MAX_K = 8

#: Store-order enumeration walks the product of per-variable factorials.
ORACLE_MAX_STORE_ORDERS = 10**6


def oracle_total(h: History, spec: ModelSpec) -> Verdict:
    """Decide consistency by trying every total write order.

    Permutations are generated in lexicographic order of write ids and the
    first passing one is returned as witness; none is skipped.  Each
    permutation is added to both order-free graphs by
    `EventGraph.with_order`, whose chains have the closure of all the
    permutation's pairs and conflict edges.
    """
    if h.k > ORACLE_MAX_K:
        raise KTooLargeForOracleError(
            f"k={h.k} exceeds the oracle bound of {ORACLE_MAX_K}"
        )
    if spec.dp_only and oota_cycle(h) is not None:
        return Verdict(Outcome.INCONSISTENT)
    bases = derive(h, spec).graphs()
    var_of = dict(zip(h.writes, h.write_vars))
    reads_of = {w: h.readers_of(w) for w in h.writes}
    for perm in itertools.permutations(h.writes):
        if all(
            kahn_acyclic(g.with_order(perm, var_of, reads_of))[0]
            for g in bases
        ):
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
    a write w that the order puts before w' on their variable.  Five
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
    - Chains.  Each variable's order π₁ … πₘ is added by
      `EventGraph.with_order`, as the edges πᵢ → πᵢ₊₁ and r → πᵢ₊₁ for
      each read r of πᵢ.  They have the transitive closure of the order
      pairs and conflict edges (see there), so each graph is acyclic
      with one exactly when it is with the other.
    - Witness.  The FIFO peel (`kahn_acyclic`) of the model graph with
      the chains is, step by step, its peel with every order pair and
      conflict edge, so the witness is the same under either edge set.
      Added edges enter only writes, so every other vertex has the same
      in-edges under both, and each vertex's added out-edges follow its
      model-graph row.  Every vertex is an event of one variable, so
      under the chains it has at most one added out-edge: πᵢ and its
      reads have one, to πᵢ₊₁.  With all pairs πⱼ also has in-edges from
      π₁ … πⱼ₋₂ and their reads, and these extra sources are ancestors
      of πⱼ₋₁ under the chains.  Say the two peels are equal up to the
      vertex u they walk next.  When an extra source of πⱼ is not walked
      before u, πⱼ₋₁, its descendant, is walked after u, so u frees πⱼ
      in neither peel; when all are, πⱼ waits on the same in-edges in
      both.  So u frees the same vertices in both, in the same order:
      those its model-graph row frees, then at most one write, πᵢ₊₁, by
      its chain edge.  The further edges all pairs add from u go to
      πᵢ₊₂ … πₘ, which wait on their predecessors, descendants of u, and
      free nothing.  The peels start from the same sources, so by
      induction they are equal.
    - Variables apart.  Every per-location edge joins two events of one
      variable: same-variable program order (with or without load-load
      hazards), reads-from, order pairs and conflict edges.  So the
      per-location graph is a disjoint union of one part per variable,
      and a store order adds to each part only that variable's edges.  A
      union is acyclic exactly when each of its parts is.  The order-free
      graph with variable x's order alone added is acyclic exactly when
      x's part with those edges, and every other part bare, are.  Every
      variable with an event has a write, since each read has a writer,
      so every part belongs to a variable the store order orders.  Hence
      the per-location graph is acyclic under a store order exactly when,
      for each variable, the order-free graph with that variable's order
      alone added is.
    - Prefixes.  Adding edges never removes a cycle.  So when the model
      graph with the chains of a prefix of variable orders is cyclic, it
      is cyclic with every store order that starts with that prefix, and
      none of them passes.  The store orders are walked depth first, in
      product order, by a recursion with one level per pool: level i
      holds level i − 1's graph with the order chosen for variable i
      added by `with_order`, and siblings add to the same parent, which
      `with_order` never mutates.  Each visit to level i walks its
      pool's permutations afresh, in lexicographic order, and looks each
      one up in a memo of the per-location tests taken so far before it
      peels.  An order enters level i only when that test passes and its
      level-i graph is acyclic; a cyclic one skips every store order
      holding its prefix without visiting them.  The first full store
      order reached is therefore the first passing one in product order.
      Below the last level only part of the graph is peeled.  Level
      i − 1's graph is acyclic, and every chain edge that `with_order`
      adds for the order π₁ … πₘ enters one of π₂ … πₘ.  So a cycle of
      the level-i graph takes a new edge, passes through one of π₂ … πₘ,
      and lies within the part of the graph they reach, which
      `reach_acyclic` peels alone.  The last level peels the whole graph
      with `kahn_acyclic`.  A full store order's graph holds each
      model-graph row followed by the one chain edge out of that vertex,
      if it has one, and the in-degrees of the model graph with every
      chain: the graph the Witness fact peels.  So the peel that accepts
      it, the last one taken, gives the witness, and with no variable to
      order the bare peel does.  The model graph is peeled, whole or in
      the part a new chain reaches, at most once per prefix reached.
      Every pool holds two or more orders, so a store-order count P has
      at most P / 2ʲ prefixes j levels short of full length, and the
      prefixes number under 2P: at worst twice the peels of one per
      store order.

    So each variable order is tested on the per-location graph once,
    when the walk first reaches it, and a failing one skips every store
    order that holds it; a later visit to its pool finds the verdict in
    the memo, whatever the walks in between did.  Memory is bounded: the
    variable orders tried with their verdicts, at most Σₓ|Wₓ|! for the
    writes Wₓ of each variable x, each a tuple of |Wₓ| writes; and one
    graph per level of the current prefix, fewer than 20, each sharing
    the rows its chains leave alone.  No whole store order, and no edge
    list, is kept: each visit to an order builds its chain edges again,
    in time linear in |Wₓ| and their readers, as `with_order` copies the
    graph's row list, in time linear in its vertices, anyway.
    """
    if store_order_count(h) > ORACLE_MAX_STORE_ORDERS:
        raise SearchSpaceTooLargeError(
            f"store orders exceed the bound of {ORACLE_MAX_STORE_ORDERS}"
        )
    if spec.dp_only and oota_cycle(h) is not None:
        return Verdict(Outcome.INCONSISTENT)
    loc, mm = derive(h, spec).graphs()
    acyclic, order = kahn_acyclic(mm)
    if not (kahn_acyclic(loc)[0] and acyclic):
        return Verdict(Outcome.INCONSISTENT)
    var_of = dict(zip(h.writes, h.write_vars))
    reads_of = {w: h.readers_of(w) for w in h.writes}
    pools = [ws for v in sorted(h.variables) if len(ws := h.writes_on(v)) > 1]
    # Each variable order tried, mapped to whether the per-location graph
    # stays acyclic with it; the orders of distinct variables never meet.
    passes: dict[tuple[int, ...], bool] = {}

    # `g` is the model graph with the first i variable orders chosen added,
    # all of which passed, and is acyclic; the result is the peel of the
    # first full store order that extends them, or None.  Fewer than 20
    # pools fit under the bound, so the recursion stays shallow.
    def walk(i: int, g: EventGraph) -> list[int] | None:
        last = i == len(pools) - 1
        for perm in itertools.permutations(pools[i]):
            if perm not in passes:
                g_loc = loc.with_order(perm, var_of, reads_of)
                passes[perm] = kahn_acyclic(g_loc)[0]
            if not passes[perm]:
                continue
            g_perm = g.with_order(perm, var_of, reads_of)
            if last:
                acyclic, order = kahn_acyclic(g_perm)
                if acyclic:
                    return order
            elif reach_acyclic(g_perm, perm[1:]) and (
                found := walk(i + 1, g_perm)
            ) is not None:
                return found
        return None

    if pools:
        order = walk(0, mm)
    if order is None:
        return Verdict(Outcome.INCONSISTENT)
    write_set = set(h.writes)
    return Verdict(
        Outcome.CONSISTENT, witness=[e for e in order if e in write_set]
    )
