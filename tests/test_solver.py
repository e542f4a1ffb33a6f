"""The subset solver: litmus verdicts, witnesses, and memo behavior."""

from __future__ import annotations

import pytest

from mmcheck import (
    Cnf3,
    Outcome,
    build_base_graphs,
    derive,
    get_model,
    oracle_total,
    parse_history,
    sat_to_history_relaxed,
    sat_to_history_sc,
    solve,
    verify_witness,
)
from mmcheck.errors import KTooLargeError, NotAPermutationError
from mmcheck import solver as solver_module
from mmcheck.solver import extract_witness

from conftest import SB, MP, CORR, OOTA, with_random_dp
from helpers import solve_reference

ALL_MODELS = ("sc", "tso", "pso", "rmo")


def test_empty_history_consistent_everywhere():
    h = parse_history("")
    for m in ALL_MODELS:
        v = solve(h, get_model(m))
        assert v.outcome is Outcome.CONSISTENT and v.witness == []


def test_store_buffering_verdicts():
    h = parse_history(SB)
    assert not solve(h, get_model("sc")).consistent
    assert solve(h, get_model("tso")).consistent


def test_message_passing_verdicts():
    h = parse_history(MP)
    assert not solve(h, get_model("tso")).consistent
    assert solve(h, get_model("pso")).consistent


def test_load_load_hazard_verdicts():
    h = parse_history(CORR)
    assert not solve(h, get_model("sc")).consistent
    assert not solve(h, get_model("pso")).consistent
    assert solve(h, get_model("rmo")).consistent


def test_dependency_cycle_fails_closed_under_rmo():
    h = parse_history(OOTA)
    v = solve(h, get_model("rmo"))
    assert not v.consistent
    assert "cycle" in v.diagnostics


def test_base_case_diagnostics_name_a_cycle():
    # same-thread read observed before its po-earlier write: static cycle
    h = parse_history(
        "init: x=0\nthread T0\nrd x 1\nwr x 1\n"
    )
    v = solve(h, get_model("sc"))
    assert not v.consistent
    assert "cyclic" in v.diagnostics and "->" in v.diagnostics


def test_exhausted_search_diagnostics():
    h = parse_history(SB)
    v = solve(h, get_model("sc"))
    assert not v.consistent
    assert "no write order" in v.diagnostics


def test_witness_is_valid_and_deterministic():
    h = parse_history(SB)
    spec = get_model("tso")
    v1 = solve(h, spec)
    v2 = solve(h, spec)
    assert v1.witness == v2.witness
    assert sorted(v1.witness) == list(h.writes)
    bases = build_base_graphs(h, derive(h, spec))
    assert verify_witness(h, bases, v1.witness)


def test_witness_matches_total_oracle_validity():
    h = parse_history(MP)
    spec = get_model("pso")
    v = solve(h, spec)
    bases = build_base_graphs(h, derive(h, spec))
    assert verify_witness(h, bases, v.witness)
    assert oracle_total(h, spec).consistent


def test_single_write_history():
    h = parse_history("thread T0\nwr x 1\n")
    for m in ALL_MODELS:
        v = solve(h, get_model(m))
        assert v.consistent and v.witness == [0]


def test_memo_bound():
    for text in (SB, MP, CORR):
        h = parse_history(text)
        for m in ALL_MODELS:
            v = solve(h, get_model(m))
            assert v.stats.subsets_evaluated <= 2 ** h.k


# Unsatisfiable formulas over 3, 4 and 5 variables, with the search
# effort each instance takes: exact regression gates for the counters.
PINNED_REDUCTIONS = [
    (Cnf3(3, (
        (-1, 2, 3), (-2, -3, 1), (-2, -3, -1), (2, 1, 3), (-2, 1, 3),
        (-3, 1, 2), (2, 3, -1), (2, -3, 1), (-1, 2, -3), (1, 3, -2),
        (-1, -2, 3), (-3, 2, -1), (-1, 3, -2), (2, -1, 3), (3, -1, 2),
    )), 18, 965, 3714),
    (Cnf3(4, (
        (1, -2, 4), (-3, 4, 2), (-1, 2, -3), (2, 4, -1), (-3, 2, -1),
        (-2, 4, 1), (4, 3, 1), (2, -4, 1), (-4, 2, -1), (-3, 4, -1),
        (-1, 3, -2), (-3, 2, -4), (1, 2, -4), (4, 3, -1), (-3, -4, -2),
        (3, -1, -4), (2, -4, 1), (-3, 1, -4), (1, -2, 4), (1, -2, -4),
    )), 24, 10823, 54489),
    (Cnf3(5, (
        (3, -5, 4), (-1, -2, 4), (3, -2, 5), (-3, 5, -4), (-2, 1, -5),
        (3, -2, 1), (5, -2, 4), (5, 3, -4), (-3, 4, -2), (1, 4, -5),
        (-5, -4, 3), (4, 3, 5), (-5, 3, -1), (-5, 2, -4), (-2, -3, 1),
        (5, -1, -2), (1, -3, -5), (-2, -5, -4), (-1, 4, -3), (-2, 3, 4),
        (1, 5, 4), (-1, 5, 3), (3, 4, 5), (3, 4, -1), (1, -2, -5),
    )), 30, 95933, 608728),
]


@pytest.mark.parametrize(
    "cnf,k,subsets,gates",
    PINNED_REDUCTIONS,
    ids=[f"k{p[1]}" for p in PINNED_REDUCTIONS],
)
def test_search_counters_are_pinned(cnf, k, subsets, gates):
    instances = [(sat_to_history_sc(cnf), "sc")]
    if k < 30:  # the relaxed instance at k=30 would add about a second
        instances.append((sat_to_history_relaxed(cnf), "tso"))
    for h, name in instances:
        assert h.k == k
        v = solve(h, get_model(name))
        assert not v.consistent
        assert (v.stats.subsets_evaluated, v.stats.gate_checks) == (
            subsets,
            gates,
        )


def test_k_cap_is_an_error_not_truncation():
    h = parse_history(SB)
    with pytest.raises(KTooLargeError) as exc:
        solve(h, get_model("sc"), max_k=3)
    assert "3" in str(exc.value) and str(h.k) in str(exc.value)


def test_verify_witness_accepts_empty_on_empty_history():
    h = parse_history("")
    bases = build_base_graphs(h, derive(h, get_model("sc")))
    assert verify_witness(h, bases, [])


def test_verify_witness_rejects_non_permutations():
    h = parse_history(SB)
    bases = build_base_graphs(h, derive(h, get_model("sc")))
    with pytest.raises(NotAPermutationError):
        verify_witness(h, bases, [0, 0, 1, 2])
    with pytest.raises(NotAPermutationError):
        verify_witness(h, bases, [0])


def test_verify_witness_detects_reversed_coherence():
    # one write in program order after a read of a later-ordered write
    h = parse_history("thread T0\nwr x 1\nthread T1\nwr x 2\nrd x 1\n")
    bases = build_base_graphs(h, derive(h, get_model("sc")))
    w1, w2 = h.writes
    # placing w2 before w1 is fine; the read of w1 follows w2's overwrite
    assert verify_witness(h, bases, [w2, w1])
    # placing w1 before w2 makes the same-thread read of w1 precede w2,
    # but w2 precedes the read in program order: cycle
    assert not verify_witness(h, bases, [w1, w2])


def _graph_rows(graphs):
    return [([list(row) for row in g.adj], list(g.in_degree)) for g in graphs]


def test_witness_recheck_on_the_solve_graphs(small_corpus, monkeypatch):
    """`solve` re-checks its witness on the base graphs it searched from.

    On those shared graphs, `verify_witness` must agree with a re-check
    on freshly built graphs, for the witness and every adjacent swap of
    it, and leave every base graph's rows and in-degrees as built.
    """
    built = []

    def recording_build(h, dm):
        graphs = build_base_graphs(h, dm)
        built.append((graphs, _graph_rows(graphs)))
        return graphs

    monkeypatch.setattr(solver_module, "build_base_graphs", recording_build)
    witnesses = rejected = 0
    for h in small_corpus:
        for m in ALL_MODELS:
            spec = get_model(m)
            built.clear()
            v = solve(h, spec)
            if not v.consistent or not built:
                continue
            ((bases, rows),) = built
            tw = v.witness
            orders = [tw] + [
                tw[:i] + [tw[i + 1], tw[i]] + tw[i + 2:]
                for i in range(len(tw) - 1)
            ]
            for order in orders:
                fresh = build_base_graphs(h, derive(h, spec))
                shared_ok = verify_witness(h, bases, order)
                assert shared_ok == verify_witness(h, fresh, order)
                rejected += not shared_ok
            assert verify_witness(h, bases, tw)
            assert _graph_rows(bases) == rows
            witnesses += 1
    assert witnesses >= 200 and rejected > 0


def test_extract_witness_small_cases():
    h = parse_history("thread T0\nwr x 1\n")
    v = solve(h, get_model("sc"))
    assert v.witness == [0]

    h = parse_history("")
    assert solve(h, get_model("sc")).witness == []


def test_extract_witness_rejects_incomplete_table():
    h = parse_history(SB)
    from mmcheck.errors import InternalWitnessInvalidError

    with pytest.raises(InternalWitnessInvalidError):
        extract_witness(h, {})


def test_matches_reference_search_exactly(small_corpus):
    """Verdict, reached subsets, and recorded removals all coincide.

    The reference takes every decision on explicitly built graphs, so this
    pins the production search tables to the graph semantics.
    """
    for h in small_corpus[:60]:
        for m in ALL_MODELS:
            spec = get_model(m)
            ref_ok, ref_memo = solve_reference(h, spec)
            v = solve(h, spec)
            assert v.consistent == ref_ok
            if h.k == 0 or not ref_memo:
                continue
            table_memo = _production_memo(h, spec)
            assert table_memo == ref_memo


def _production_memo(h, spec):
    # re-run the production search and capture its memo
    from mmcheck.graphs import kahn_acyclic
    from mmcheck.models import build_base_graphs
    from mmcheck.solver import SolveStats, _search, _write_tables

    dm = derive(h, spec)
    g_loc, g_mm = build_base_graphs(h, dm)
    ok_loc, topo_loc = kahn_acyclic(g_loc)
    ok_mm, topo_mm = kahn_acyclic(g_mm)
    if not (ok_loc and ok_mm):
        return {}
    tables = _write_tables(h, ((g_loc, topo_loc), (g_mm, topo_mm)))
    memo = {}
    _search(h.k, memo, *tables, SolveStats())
    return memo


def test_rmo_with_random_dependencies_matches_reference(small_corpus):
    import random

    rng = random.Random(1717)
    spec = get_model("rmo")
    checked = 0
    for h in small_corpus:
        if not h.reads or checked >= 40:
            continue
        augmented = with_random_dp(h, rng)
        if augmented is None:
            continue
        v = solve(augmented, spec)
        ref_ok, ref_memo = solve_reference(augmented, spec)
        assert v.consistent == ref_ok
        if ref_memo:
            assert _production_memo(augmented, spec) == ref_memo
        assert v.outcome == oracle_total(augmented, spec).outcome
        checked += 1
    assert checked >= 20


def test_monotonicity_across_models(small_corpus):
    for h in small_corpus:
        sc_ok = solve(h, get_model("sc")).consistent
        tso_ok = solve(h, get_model("tso")).consistent
        pso_ok = solve(h, get_model("pso")).consistent
        rmo_ok = solve(h, get_model("rmo")).consistent
        if sc_ok:
            assert tso_ok and rmo_ok
        if tso_ok:
            assert pso_ok
