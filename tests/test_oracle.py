"""Brute-force deciders: bounds, agreement, and linearization."""

from __future__ import annotations

import hashlib
import random

import pytest

from mmcheck import (
    Cnf3,
    build_base_graphs,
    derive,
    generate_program,
    get_model,
    mutate,
    oracle_store,
    oracle_total,
    parse_history,
    sat_brute_force,
    sat_to_history_relaxed,
    sat_to_history_sc,
    simulate,
    solve,
    verify_witness,
)
from mmcheck.errors import (
    KTooLargeForOracleError,
    NoAlternativeWriterError,
    SearchSpaceTooLargeError,
)
from mmcheck.oracle import store_order_count

from conftest import (
    PINNED_REDUCTIONS,
    SB,
    spread_writes_histories,
    with_random_dp,
)
from helpers import (
    conflict_edges,
    events,
    iter_store_orders,
    oracle_store_reference,
    order_free_edges,
    store_order_passes,
)

ALL_MODELS = ("sc", "tso", "pso", "rmo")


def test_empty_history():
    h = parse_history("")
    for m in ALL_MODELS:
        assert oracle_total(h, get_model(m)).consistent
        assert oracle_store(h, get_model(m)).consistent


def test_sb_exhausts_all_permutations_under_sc():
    h = parse_history(SB)
    assert h.k == 4
    assert not oracle_total(h, get_model("sc")).consistent
    assert oracle_total(h, get_model("tso")).consistent


def test_single_write_and_read_consistent_everywhere():
    h = parse_history("thread T0\nwr x 1\nrd x 1\n")
    for m in ALL_MODELS:
        assert oracle_total(h, get_model(m)).consistent
        assert oracle_store(h, get_model(m)).consistent


def test_total_oracle_bound():
    lines = ["thread T0"] + [f"wr v{i} 1" for i in range(9)]
    h = parse_history("\n".join(lines) + "\n")
    with pytest.raises(KTooLargeForOracleError):
        oracle_total(h, get_model("sc"))


def test_store_order_counts():
    lines = ["thread T0"] + [f"wr x {i}" for i in range(1, 5)]
    h = parse_history("\n".join(lines) + "\n")
    assert store_order_count(h) == 24
    assert sum(1 for _ in iter_store_orders(h)) == 24

    h = parse_history(
        "thread T0\nwr x 1\nwr y 1\nthread T1\nwr x 2\nwr y 2\n"
    )
    assert store_order_count(h) == 4
    assert sum(1 for _ in iter_store_orders(h)) == 4


def test_store_orders_have_no_cross_variable_pairs():
    h = parse_history(
        "thread T0\nwr x 1\nwr y 1\nthread T1\nwr x 2\nwr y 2\n"
    )
    evs = events(h)
    for so in iter_store_orders(h):
        for a, b in so.pairs():
            assert evs[a].var == evs[b].var


def test_store_oracle_bound():
    lines = ["thread T0"] + [f"wr x {i}" for i in range(1, 11)]
    h = parse_history("\n".join(lines) + "\n")
    assert store_order_count(h) > 10**6
    with pytest.raises(SearchSpaceTooLargeError):
        oracle_store(h, get_model("sc"))
    # the deepest walk under the bound: 19 variables of two writes each
    # give 19 pools and 2^19 store orders
    init = " ".join(f"v{i}=0" for i in range(19))
    writes = "".join(f"wr v{i} 1\n" for i in range(19))
    h = parse_history(f"init: {init}\nthread T0\n{writes}")
    assert store_order_count(h) == 2**19
    v = oracle_store(h, get_model("sc"))
    assert v.consistent
    assert verify_witness(h, build_base_graphs(h, get_model("sc")), v.witness)


def _counted_peels(monkeypatch):
    """The graphs `oracle_store` peels from here on, in peel order: whole,
    or only the part that some vertices reach."""
    import mmcheck.oracle as oracle_module

    peels = []
    for name in ("kahn_acyclic", "reach_acyclic"):
        peel = getattr(oracle_module, name)

        def counting_peel(g, *starts, peel=peel):
            peels.append(g)
            return peel(g, *starts)

        monkeypatch.setattr(oracle_module, name, counting_peel)
    return peels


@pytest.mark.parametrize("m", [50, 500])
def test_store_oracle_peels_do_not_grow_with_single_write_variables(
    monkeypatch, m
):
    # m variables written once each have one store order, which adds no
    # edge: the two bare graphs take a peel each, the model graph's gives
    # the witness, however many variables there are
    peels = _counted_peels(monkeypatch)
    lines = ["thread T0"] + [f"wr v{i} 1" for i in range(m)]
    h = parse_history("\n".join(lines) + "\n")
    v = oracle_store(h, get_model("sc"))
    assert v.consistent and v.witness == list(h.writes)
    assert len(peels) == 2


def test_store_oracle_skips_store_orders_with_a_cyclic_prefix(monkeypatch):
    # 512 store orders: peeling the model graph once for each took 532
    # peels with the 2 bare and 18 per-location ones
    peels = _counted_peels(monkeypatch)
    h = sat_to_history_sc(PINNED_REDUCTIONS[0][0])
    assert store_order_count(h) == 512
    assert not oracle_store(h, get_model("sc")).consistent
    assert len(peels) == 114


def test_store_oracle_peels_at_most_three_times_per_store_order(
    monkeypatch, small_corpus
):
    # 2 bare peels; one per-location peel per variable order, no more
    # than the store orders; and one model-graph peel per prefix reached,
    # under twice the store orders since every pool has two or more items
    peels = _counted_peels(monkeypatch)
    for h in small_corpus:
        for m in ALL_MODELS:
            peels.clear()
            oracle_store(h, get_model(m))
            assert len(peels) <= 2 + 3 * store_order_count(h)


def test_store_oracle_verdicts_and_witnesses_are_pinned():
    # Histories with two or more pools, so that the walk tests prefixes
    # below the last level: spread writes over three variables, and the
    # k = 18 reduction, strict and relaxed, under every model.
    cnf = PINNED_REDUCTIONS[0][0]
    histories = spread_writes_histories(20, 40, (3, 18, 10, 3))
    histories += [sat_to_history_sc(cnf), sat_to_history_relaxed(cnf)]
    rows = []
    for h in histories:
        assert sum(len(h.writes_on(x)) > 1 for x in h.variables) >= 2
        for m in ALL_MODELS:
            v = oracle_store(h, get_model(m))
            rows.append((v.outcome.name, v.witness))
    assert sum(row[0] == "INCONSISTENT" for row in rows) == 31
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "19f36e99c247f6637ef1a4d71b9f4281681d8f243dc20b4d7f020d324678d676"
    )


def test_total_witness_is_lexicographically_first():
    h = parse_history("thread T0\nwr x 1\nthread T1\nwr y 1\n")
    v = oracle_total(h, get_model("sc"))
    assert v.witness == list(h.writes)  # identity permutation passes first


def test_oracles_are_deterministic():
    h = parse_history(SB)
    spec = get_model("tso")
    assert oracle_total(h, spec).witness == oracle_total(h, spec).witness
    assert oracle_store(h, spec).witness == oracle_store(h, spec).witness


def test_oracle_agreement_on_corpus(small_corpus):
    for h in small_corpus:
        for m in ALL_MODELS:
            spec = get_model(m)
            t = oracle_total(h, spec)
            s = oracle_store(h, spec)
            assert t.outcome == s.outcome
            assert t.outcome == solve(h, spec).outcome


def test_store_witness_passes_verification(small_corpus):
    for h in small_corpus[:40]:
        for m in ALL_MODELS:
            spec = get_model(m)
            v = oracle_store(h, spec)
            if v.consistent:
                bases = build_base_graphs(h, spec)
                assert verify_witness(h, bases, v.witness)


def _random_linear_extensions(n, edges, rng, count):
    """Sample topological orders by randomized zero-in-degree choice."""
    out = []
    for _ in range(count):
        degree = [0] * n
        adj = [[] for _ in range(n)]
        for a, b in edges:
            adj[a].append(b)
            degree[b] += 1
        frontier = [v for v in range(n) if degree[v] == 0]
        order = []
        while frontier:
            v = frontier.pop(rng.randrange(len(frontier)))
            order.append(v)
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 0:
                    frontier.append(w)
        assert len(order) == n
        out.append(order)
    return out


def test_any_linearization_of_a_passing_store_order_passes(small_corpus):
    """Extending a passing store order to a total order preserves the
    per-location check (and the model check), sampled over extensions."""
    rng = random.Random(5150)
    checked = 0
    for h in small_corpus:
        if checked >= 25 or not h.writes:
            continue
        spec = get_model("tso")
        static = order_free_edges(derive(h, spec))
        bases = build_base_graphs(h, spec)
        for so in iter_store_orders(h):
            ww = so.pairs()
            if not store_order_passes(h, static, ww):
                continue
            # build the graph whose linear extensions we sample
            edges = set(static[1]) | ww
            edges |= conflict_edges(h, ww)
            write_set = set(h.writes)
            for order in _random_linear_extensions(h.n, edges, rng, 10):
                tw = [e for e in order if e in write_set]
                assert verify_witness(h, bases, tw)
            checked += 1
            break
    assert checked >= 10


def _assert_matches_per_order_construction(h, spec):
    got = oracle_store(h, spec)
    want = oracle_store_reference(h, spec)
    assert (got.outcome, got.witness) == (want.outcome, want.witness)
    return got


def test_store_oracle_matches_per_order_construction(small_corpus):
    rng = random.Random(1515)
    with_dp = [with_random_dp(h, rng) for h in small_corpus]
    histories = small_corpus + [g for g in with_dp if g is not None]
    assert len(histories) > len(small_corpus) + 30
    for h in histories:
        for m in ALL_MODELS:
            _assert_matches_per_order_construction(h, get_model(m))


def _three_variable_cnfs(rng, satisfiable, count):
    """Formulas over 3 variables that use all 6 literals: k = 18."""
    out = []
    while len(out) < count:
        clauses = tuple(
            tuple(v if rng.random() < 0.5 else -v for v in (1, 2, 3))
            for _ in range(rng.randint(3, 12))
        )
        cnf = Cnf3(3, clauses)
        if len(cnf.literals) == 6 and sat_brute_force(cnf) == satisfiable:
            out.append(cnf)
    return out


def test_store_oracle_matches_per_order_construction_on_reductions():
    rng = random.Random(1818)
    outcomes = set()
    for satisfiable in (True, False):
        for cnf in _three_variable_cnfs(rng, satisfiable, 2):
            for h, names in (
                (sat_to_history_sc(cnf), ("sc",)),
                (sat_to_history_relaxed(cnf), ("sc", "tso", "pso")),
            ):
                assert h.k == 18
                for name in names:
                    v = _assert_matches_per_order_construction(
                        h, get_model(name)
                    )
                    outcomes.add(v.outcome)
    assert len(outcomes) == 2
    h = sat_to_history_sc(PINNED_REDUCTIONS[1][0])
    assert h.k == 24
    _assert_matches_per_order_construction(h, get_model("sc"))


def test_store_oracle_agrees_with_solve_past_the_total_order_horizon():
    # oracle_total refuses k > 8.  Simulated 4-variable histories and rf
    # mutations of them at k = 9-14, with at most 10^5 store orders each,
    # compare the store oracle with the solver under every model.
    rng = random.Random(9090)
    checked = inconsistent = 0
    largest = 0
    for i in range(30):
        prog = generate_program(
            4, 6, 4, seed=rng.getrandbits(32), max_writes=rng.randint(5, 10)
        )
        h = simulate(prog, ("sc", "tso", "pso")[i % 3], seed=i)
        histories = [h]
        try:
            histories.append(mutate(h, seed=i))
        except NoAlternativeWriterError:
            pass
        for g in histories:
            if not 9 <= g.k <= 14 or store_order_count(g) > 10**5:
                continue
            largest = max(largest, store_order_count(g))
            for m in ALL_MODELS:
                spec = get_model(m)
                v = oracle_store(g, spec)
                assert v.outcome == solve(g, spec).outcome
                if v.consistent:
                    bases = build_base_graphs(g, spec)
                    assert verify_witness(g, bases, v.witness)
                else:
                    inconsistent += 1
                checked += 1
    assert checked >= 200
    assert inconsistent >= 20
    assert largest >= 10**4
