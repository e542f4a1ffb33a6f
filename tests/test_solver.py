"""The subset solver: litmus verdicts, witnesses, and memo behavior."""

from __future__ import annotations

import random

import pytest

from mmcheck import (
    Cnf3,
    History,
    Outcome,
    build_base_graphs,
    derive,
    format_history,
    get_model,
    kahn_acyclic,
    mutate,
    oracle_store,
    oracle_total,
    parse_history,
    sat_to_history_relaxed,
    sat_to_history_sc,
    solve,
    verify_witness,
)
from mmcheck.errors import NotAPermutationError, ResourceBoundError
from mmcheck import models as models_module
from mmcheck import solver as solver_module
from mmcheck.solver import extract_witness

from conftest import (
    CORR,
    MP,
    OOTA,
    PINNED_REDUCTIONS,
    SB,
    TRACES,
    build_corpus,
    spread_writes_histories,
    with_random_dp,
)
from helpers import events, reads, solve_reference, structural_bound

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


class _CycleSearched(Exception):
    pass


def test_dependency_free_histories_search_no_cycle(small_corpus, monkeypatch):
    # Reads-from alone only joins writes to reads, so with no dependency
    # edge `oota_cycle` answers without building a graph.
    rmo = get_model("rmo")
    long = parse_history((TRACES / "long.mmh").read_text())
    histories = [*small_corpus, long]
    assert not any(h.dp for h in histories)
    expected = [solve(h, rmo) for h in histories]

    def searched(g):
        raise _CycleSearched

    monkeypatch.setattr(models_module, "find_cycle", searched)
    assert [solve(h, rmo) for h in histories] == expected
    with pytest.raises(_CycleSearched):
        solve(parse_history(OOTA), rmo)
    monkeypatch.undo()
    v = solve(parse_history(OOTA), rmo)
    assert v.diagnostics.startswith("dependency/reads-from cycle: ")


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
    bases = build_base_graphs(h, spec)
    assert verify_witness(h, bases, v1.witness)


def test_witness_matches_total_oracle_validity():
    h = parse_history(MP)
    spec = get_model("pso")
    v = solve(h, spec)
    bases = build_base_graphs(h, spec)
    assert verify_witness(h, bases, v.witness)
    assert oracle_total(h, spec).consistent


def test_single_write_history():
    h = parse_history("thread T0\nwr x 1\n")
    for m in ALL_MODELS:
        v = solve(h, get_model(m))
        assert v.consistent and v.witness == [0]


def _assert_within_bounds(h, v):
    assert v.stats.subsets_evaluated <= min(structural_bound(h), 2 ** h.k)


def test_memo_bound(small_corpus):
    # The structural bound that `_search`'s docstring proves, as an exact
    # gate next to 2^k.
    histories = [*small_corpus]
    histories += [parse_history(p.read_text()) for p in TRACES.glob("*.mmh")]
    assert len(histories) == len(small_corpus) + 7
    for h in histories:
        for m in ALL_MODELS:
            _assert_within_bounds(h, solve(h, get_model(m)))


@pytest.mark.parametrize(
    "cnf,k,subsets,gates",
    PINNED_REDUCTIONS,
    ids=[f"k{p[1]}" for p in PINNED_REDUCTIONS],
)
def test_search_counters_are_pinned(cnf, k, subsets, gates):
    for h, name in (
        (sat_to_history_sc(cnf), "sc"),
        (sat_to_history_relaxed(cnf), "tso"),
    ):
        assert h.k == k
        v = solve(h, get_model(name))
        assert not v.consistent
        assert not oracle_store(h, get_model(name)).consistent
        _assert_within_bounds(h, v)
        assert (v.stats.subsets_evaluated, v.stats.gate_checks) == (
            subsets,
            gates,
        )


def test_memory_ceiling_bounds_the_search(monkeypatch):
    # The first pinned reduction under sc: k = 18, 366 subsets.  A
    # ceiling of exactly 366 memo entries admits the search, and one byte
    # less refuses it at its 366th subset.
    cnf, k, subsets, _ = PINNED_REDUCTIONS[0]
    h, spec = sat_to_history_sc(cnf), get_model("sc")
    entry = solver_module.MEMO_ENTRY_BYTES + k // 6
    monkeypatch.setattr(solver_module, "MEMORY_CEILING", subsets * entry)
    assert solve(h, spec).stats.subsets_evaluated == subsets
    monkeypatch.setattr(solver_module, "MEMORY_CEILING", subsets * entry - 1)
    with pytest.raises(ResourceBoundError) as exc:
        solve(h, spec)
    assert f"passed {subsets - 1} subsets at k={k}:" in str(exc.value)


def test_memory_ceiling_bounds_the_tables(monkeypatch):
    # k-bit masks on every vertex of both base graphs: the tables are
    # refused before they are built once those bytes pass the ceiling.
    h, spec = parse_history(SB), get_model("tso")
    vertices = sum(g.n for g in build_base_graphs(h, spec))
    need = h.k * vertices // 8
    monkeypatch.setattr(solver_module, "MEMORY_CEILING", need - 1)
    with pytest.raises(ResourceBoundError) as exc:
        solve(h, spec)
    assert f"k={h.k} writes on {vertices} base-graph vertices" in str(
        exc.value
    )
    monkeypatch.setattr(solver_module, "MEMORY_CEILING", need)
    with pytest.raises(ResourceBoundError, match=f"subsets at k={h.k}:"):
        solve(h, spec)


def test_verify_witness_accepts_empty_on_empty_history():
    h = parse_history("")
    bases = build_base_graphs(h, get_model("sc"))
    assert verify_witness(h, bases, [])


def test_verify_witness_rejects_non_permutations():
    h = parse_history(SB)
    bases = build_base_graphs(h, get_model("sc"))
    with pytest.raises(NotAPermutationError):
        verify_witness(h, bases, [0, 0, 1, 2])
    with pytest.raises(NotAPermutationError):
        verify_witness(h, bases, [0])


def test_verify_witness_detects_reversed_coherence():
    # one write in program order after a read of a later-ordered write
    h = parse_history("thread T0\nwr x 1\nthread T1\nwr x 2\nrd x 1\n")
    bases = build_base_graphs(h, get_model("sc"))
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

    def recording_build(h, spec):
        graphs = build_base_graphs(h, spec)
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
                fresh = build_base_graphs(h, spec)
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

    g_loc, g_mm = build_base_graphs(h, spec)
    ok_loc, topo_loc = kahn_acyclic(g_loc)
    ok_mm, topo_mm = kahn_acyclic(g_mm)
    if not (ok_loc and ok_mm):
        return {}
    tables = _write_tables(h, ((g_loc, topo_loc), (g_mm, topo_mm)))
    memo = {}
    _search(h.k, memo, *tables, SolveStats())
    return memo


def test_rmo_with_random_dependencies_matches_reference(small_corpus):
    rng = random.Random(1717)
    spec = get_model("rmo")
    checked = 0
    for h in small_corpus:
        if not reads(h) or checked >= 40:
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


def test_blocks_is_the_transpose_of_blockers(small_corpus):
    # `_write_tables` builds `blocks` by a backward pass of its own, not
    # by transposing `blockers`: the two must agree bit for bit.
    histories = [*small_corpus]
    histories += spread_writes_histories(10, 40, (3, 18, 10, 3))
    histories += spread_writes_histories(2, 1, (4, 600, 100, 8))
    checked = 0
    for h in histories:
        for m in ALL_MODELS:
            bases = build_base_graphs(h, get_model(m))
            sorts = [kahn_acyclic(g) for g in bases]
            if not all(ok for ok, _ in sorts):
                continue
            tables = solver_module._write_tables(
                h, tuple((g, topo) for g, (_, topo) in zip(bases, sorts))
            )
            blocks, blockers = tables[3:5]
            assert blocks == [
                sum(1 << j for j, b in enumerate(blockers) if b >> t & 1)
                for t in range(h.k)
            ]
            checked += h.k > 0
    assert checked > 500


def _reductions_up_to_k14():
    # The unit-pair padding family (k = 8-14) and formulas over 2
    # variables with 2 or 3 clauses (k = 10-12), strict and relaxed.
    rng = random.Random(1414)
    formulas = [Cnf3(pad, ((1, 1, 1), (-1, -1, -1))) for pad in (2, 3, 4, 5)]
    for m in (2, 2, 3, 3):
        pool = [1, 2, -1, -2]
        formulas.append(Cnf3(2, tuple(
            tuple(rng.choice(pool) for _ in range(3)) for _ in range(m)
        )))
    histories = []
    for cnf in formulas:
        histories += (sat_to_history_sc(cnf), sat_to_history_relaxed(cnf))
    assert max(h.k for h in histories) <= 14
    return histories


def test_safe_first_rule_keeps_orderability(small_corpus):
    # `_search` tries a set's lowest safe candidate alone, since the set
    # is orderable exactly when the rest is (the lemma in its docstring).
    # The reference search with that rule off must find every set in the
    # production memo orderable exactly when the memo does.
    rng = random.Random(2525)
    histories = [*small_corpus]
    histories += filter(None, (with_random_dp(h, rng) for h in small_corpus))
    histories += spread_writes_histories(20, 40, (3, 18, 10, 3))
    histories += _reductions_up_to_k14()
    sets = moved = 0
    for h in histories:
        for m in ALL_MODELS:
            spec = get_model(m)
            memo = _production_memo(h, spec)
            _, ref = solve_reference(h, spec, safe_first=False, sets=memo)
            assert {s: ref[s] >= 0 for s in memo} == {
                s: j >= 0 for s, j in memo.items()
            }
            sets += len(memo)
            moved += sum(j != ref[s] for s, j in memo.items())
    assert sets > 5_000 and moved > 100


def test_witnesses_hold_on_the_full_graphs():
    # `verify_witness` re-checks a witness on the contracted base graphs
    # the search used, so a contraction error would pass it.  Here every
    # consistent witness is re-checked on the model's full graphs, with
    # the order added by `with_order`.
    rng = random.Random(3131)
    histories = []
    for seed in (1, 2):
        corpus = build_corpus(300, seed, max_writes=6)
        histories += corpus
        histories += filter(None, (with_random_dp(h, rng) for h in corpus))
    histories += spread_writes_histories(20, 1, (4, 60, 18, 8))
    assert max(h.k for h in histories) == 26
    checked = 0
    for h in histories:
        var_of = dict(zip(h.writes, h.write_vars))
        reads_of = {w: h.readers_of(w) for w in h.writes}
        for m in ALL_MODELS:
            spec = get_model(m)
            v = solve(h, spec)
            if not v.consistent:
                continue
            assert sorted(v.witness) == list(h.writes)
            for g in derive(h, spec).graphs():
                ordered = g.with_order(v.witness, var_of, reads_of)
                assert kahn_acyclic(ordered)[0]
            checked += 1
    assert checked > 2_500


@pytest.mark.parametrize(
    "seed,writes,k,subsets",
    [(2, 32, 40, 38), (21, 33, 41, 40), (8, 38, 46, 43)],
)
def test_spread_writes_rmo_mutants_in_about_k_subsets(
    seed, writes, k, subsets
):
    # rf mutants of spread-writes traces (4 threads, 600 events, 8
    # variables, simulated under tso for even seeds and pso for odd
    # ones), all inconsistent under rmo.  With no dependency edges rmo's
    # graphs join only events of one variable, so a search that tried
    # every candidate of every set would enumerate the product of the
    # other variables' states before failing; placing safe candidates
    # alone decides each in about k subsets.
    (h,) = spread_writes_histories(1, seed, (4, 600, writes, 8))[1:]
    assert h.k == k
    v = solve(h, get_model("rmo"))
    assert not v.consistent
    _assert_within_bounds(h, v)
    assert v.stats.subsets_evaluated == subsets


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


class _EdgeListBuilt(Exception):
    pass


def test_solve_builds_no_edge_list(monkeypatch):
    # Under every model the base graphs come from the columns: with the
    # O(n) edge-list builders disabled, `solve` gives the same verdicts,
    # witnesses and counters, rmo's dependency edges included.  A cyclic
    # base graph's diagnostic still reads the full relations.
    long = parse_history((TRACES / "long.mmh").read_text())
    small = parse_history(MP)
    spelled = parse_history((TRACES / "spelled.mmh").read_text())
    cyclic = parse_history("init: x=0\nthread T0\nrd x 1\nwr x 1\n")
    checks = [(h, m) for h in (long, small) for m in ALL_MODELS]
    checks += [(spelled, "rmo"), (parse_history(OOTA), "rmo")]
    expected = [solve(h, get_model(m)) for h, m in checks]
    assert all(v.consistent for v in expected[:4])
    assert [v.consistent for v in expected[4:]] == [
        False, False, True, True, True, False
    ]
    assert "cyclic" in solve(cyclic, get_model("sc")).diagnostics

    def built(*args, **kwargs):
        raise _EdgeListBuilt

    for name in ("program_orders", "rf_external"):
        monkeypatch.setattr(models_module, name, built)
    assert [solve(h, get_model(m)) for h, m in checks] == expected
    for m in ALL_MODELS:
        with pytest.raises(_EdgeListBuilt):
            solve(cyclic, get_model(m))


class _ColumnBuilt(Exception):
    pass


def _builds(name):
    def build(*args):
        raise _ColumnBuilt(name)

    return build


_COLUMNS = {"access": property(_builds("access"))}


def test_solve_builds_no_event_column(monkeypatch):
    # Under every model the solver reads the per-write variables,
    # `thread_of`, each write's readers and rmo's dependency edges: with
    # the per-event `access` column disabled, parsing and `solve` give the
    # same verdicts, witnesses and counters.  A cyclic base graph's
    # diagnostic, `format_history`, `mutate` and the test-only event view
    # still read it; the package keeps no other per-event column.
    texts = [(TRACES / "long.mmh").read_text(), MP]
    checks = [(text, m) for text in texts for m in ALL_MODELS]
    checks += [((TRACES / "spelled.mmh").read_text(), "rmo"), (OOTA, "rmo")]
    expected = [solve(parse_history(t), get_model(m)) for t, m in checks]
    cyclic = "init: x=0\nthread T0\nrd x 1\nwr x 1\n"
    uses = {
        "diagnostic": lambda: solve(parse_history(cyclic), get_model("sc")),
        "format_history": lambda: format_history(parse_history(texts[0])),
        "events": lambda: events(parse_history(texts[0])),
    }
    for use in uses.values():
        use()
    mutate(parse_history(texts[0]), seed=3)

    for name, column in _COLUMNS.items():
        monkeypatch.setattr(History, name, column)
    assert [solve(parse_history(t), get_model(m)) for t, m in checks] == expected
    for use in uses.values():
        with pytest.raises(_ColumnBuilt, match="access"):
            use()
    monkeypatch.undo()
    # mutate reads it
    for name, column in _COLUMNS.items():
        with monkeypatch.context() as patch:
            patch.setattr(History, name, column)
            with pytest.raises(_ColumnBuilt, match=name):
                mutate(parse_history(texts[0]), seed=3)
