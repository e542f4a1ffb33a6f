"""Brute-force deciders: bounds, agreement, and linearization."""

from __future__ import annotations

import random

import pytest

from mmcheck import (
    build_base_graphs,
    derive,
    get_model,
    oracle_store,
    oracle_total,
    parse_history,
    solve,
    verify_witness,
)
from mmcheck.errors import KTooLargeForOracleError, SearchSpaceTooLargeError
from mmcheck.oracle import iter_store_orders, store_order_count

from conftest import SB

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
    for so in iter_store_orders(h):
        for a, b in so.pairs():
            assert h.events[a].var == h.events[b].var


def test_store_oracle_bound():
    lines = ["thread T0"] + [f"wr x {i}" for i in range(1, 11)]
    h = parse_history("\n".join(lines) + "\n")
    assert store_order_count(h) > 10**6
    with pytest.raises(SearchSpaceTooLargeError):
        oracle_store(h, get_model("sc"))


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
                bases = build_base_graphs(h, derive(h, spec))
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
        dm = derive(h, spec)
        bases = build_base_graphs(h, dm)
        from mmcheck.oracle import _both_acyclic, _from_read_edges

        for so in iter_store_orders(h):
            ww = so.pairs()
            if not _both_acyclic(h, dm, ww):
                continue
            # build the graph whose linear extensions we sample
            edges = set(dm.po_mm) | set(dm.rf_mm) | ww
            edges |= _from_read_edges(h, ww)
            write_set = set(h.writes)
            for order in _random_linear_extensions(h.n, edges, rng, 10):
                tw = [e for e in order if e in write_set]
                assert verify_witness(h, bases, tw)
            checked += 1
            break
    assert checked >= 10
