"""The subset solver: litmus verdicts, witnesses, and memo behavior."""

from __future__ import annotations

import hashlib
import random
import tracemalloc

import pytest

from mmcheck import (
    Cnf3,
    History,
    Outcome,
    build_base_graphs,
    derive,
    format_history,
    generate_program,
    get_model,
    kahn_acyclic,
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
    NoAlternativeWriterError,
    NotAPermutationError,
    ResourceBoundError,
)
from mmcheck import models as models_module
from mmcheck import solver as solver_module

from conftest import (
    CORR,
    MP,
    OOTA,
    PINNED_REDUCTIONS,
    SB,
    TRACES,
    build_corpus,
    long_traces,
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


def _sha256(rows):
    return hashlib.sha256("\n".join(map(repr, rows)).encode()).hexdigest()


def _checks(v):
    # One check's outcome, witness and both counters.
    s = v.stats
    return (v.outcome.value, v.witness, s.subsets_evaluated, s.gate_checks)


@pytest.mark.parametrize(
    "cnf,memo_sha256",
    [
        (PINNED_REDUCTIONS[0][0], "dc443365e977adcdeb12667674d20f2f"
         "1d1a2dd81ad659520886c7fd96caa2da"),
        (PINNED_REDUCTIONS[1][0], "eca8e4d454251ed51e6bb70949209eaa"
         "38de502788423208f309b8f20f48c1fd"),
        (PINNED_REDUCTIONS[2][0], "b4ef27125f2265775bd01301e6d8efa3"
         "8b46bf34c5e9f409d7efa63a0d58dd8f"),
    ],
    ids=[f"k{p[1]}" for p in PINNED_REDUCTIONS],
)
def test_search_memos_are_pinned(cnf, memo_sha256):
    # The whole memo, not just its size, of each pinned reduction: the
    # reference search reaches k = 18 only, and these go to k = 30.  The
    # strict instance under sc and the relaxed one under tso share it.
    for h, name in (
        (sat_to_history_sc(cnf), "sc"),
        (sat_to_history_relaxed(cnf), "tso"),
    ):
        memo = _production_memo(h, get_model(name))
        assert _sha256(sorted(memo.items())) == memo_sha256


def _random_unsat_cnf(num_vars, seed):
    # Five random 3-literal clauses per variable, drawn until the formula
    # is unsatisfiable and uses every literal.
    rng = random.Random(seed)
    while True:
        clauses = tuple(
            tuple(
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, num_vars + 1), 3)
            )
            for _ in range(5 * num_vars)
        )
        cnf = Cnf3(num_vars, clauses)
        if len(cnf.literals) == 2 * num_vars and not sat_brute_force(cnf):
            return cnf


@pytest.mark.parametrize(
    "num_vars,k,subsets,gates",
    [(6, 36, 805, 868), (7, 42, 1_692, 1_819)],
    ids=["k36", "k42"],
)
def test_random_reductions_past_k30_are_pinned(num_vars, k, subsets, gates):
    # Random unsatisfiable formulas past the pinned reductions, under the
    # strict instance with sc and the relaxed one with tso.  A search that
    # tries every candidate where no single variable qualifies takes 7,967
    # and 33,641 subsets on them.
    cnf = _random_unsat_cnf(num_vars, seed=1)
    for h, name in (
        (sat_to_history_sc(cnf), "sc"),
        (sat_to_history_relaxed(cnf), "tso"),
    ):
        assert h.k == k
        v = solve(h, get_model(name))
        assert not v.consistent
        _assert_within_bounds(h, v)
        assert (v.stats.subsets_evaluated, v.stats.gate_checks) == (
            subsets,
            gates,
        )


def _search_held(k, variables):
    # What the search holds besides its dead sets: the tables without
    # their ancestor masks, `wait_for`, and k frames, each a 4-tuple with
    # its slot (88 bytes), an index int (32) and three k-bit ints, a k-bit
    # int with its slot at 48 + k // 7 bytes.
    unit = 48 + k // 7
    return solver_module.table_bytes(k, 0) + variables * unit + k * (
        120 + 3 * unit
    )


def test_memory_ceiling_bounds_the_search(monkeypatch):
    # The second pinned reduction under sc: k = 24 writes on 12 variables,
    # 158 subsets.  Besides its dead sets the search holds 15,532 bytes,
    # and each entry takes 126, so a ceiling of 15,532 + 158 * 126 =
    # 35,440 bytes admits the tables and the search, and one byte less
    # refuses it at its 158th subset.
    cnf, k, subsets, _ = PINNED_REDUCTIONS[1]
    h, spec = sat_to_history_sc(cnf), get_model("sc")
    entry = solver_module.MEMO_ENTRY_BYTES + k // 6
    held = _search_held(k, len(set(h.write_vars)))
    assert (held, entry) == (15_532, 126)
    monkeypatch.setattr(solver_module, "MEMORY_CEILING", 35_440)
    assert solve(h, spec).stats.subsets_evaluated == subsets
    monkeypatch.setattr(solver_module, "MEMORY_CEILING", 35_439)
    with pytest.raises(ResourceBoundError) as exc:
        solve(h, spec)
    assert f"passed {subsets - 1} subsets at k={k}:" in str(exc.value)


def test_memory_ceiling_counts_the_tables_against_the_search(monkeypatch):
    # The same reduction with a ceiling of 15,532 + 10 * 126 = 16,792
    # bytes: its tables, at 12,652 bytes by `table_bytes`, take three
    # quarters of it and are admitted, and the search is refused once it
    # passes the 10 entries the remainder holds, 9 at one byte less.
    cnf, k, _, _ = PINNED_REDUCTIONS[1]
    h, spec = sat_to_history_sc(cnf), get_model("sc")
    bases = build_base_graphs(h, spec)
    assert solver_module.table_bytes(k, max(g.n for g in bases)) == 12_652
    for ceiling, passed in ((16_792, 10), (16_791, 9)):
        monkeypatch.setattr(solver_module, "MEMORY_CEILING", ceiling)
        with pytest.raises(ResourceBoundError) as exc:
            solve(h, spec)
        assert f"search passed {passed} subsets at k={k}:" in str(exc.value)


def test_memory_ceiling_bounds_the_tables(monkeypatch):
    # The tables are refused before they are built once their
    # `table_bytes` pass the ceiling.  Sb under tso, k = 4 writes on 2
    # variables: at exactly its 2,368 table bytes the tables are admitted
    # and the search, which holds 3,328 bytes besides its dead sets, is
    # refused before its first set.  Its 4 memo entries of 122 bytes fit
    # at 3,328 + 4 * 122 = 3,816 bytes, and one byte less refuses the
    # fourth.
    h, spec = parse_history(SB), get_model("tso")
    bases = build_base_graphs(h, spec)
    need = solver_module.table_bytes(h.k, max(g.n for g in bases))
    assert need == 2_368
    assert _search_held(h.k, len(set(h.write_vars))) == 3_328
    monkeypatch.setattr(solver_module, "MEMORY_CEILING", need - 1)
    with pytest.raises(ResourceBoundError) as exc:
        solve(h, spec)
    vertices = sum(g.n for g in bases)
    assert f"k={h.k} writes on {vertices} base-graph vertices" in str(
        exc.value
    )
    monkeypatch.setattr(solver_module, "MEMORY_CEILING", need)
    with pytest.raises(ResourceBoundError) as exc:
        solve(h, spec)
    assert "search passed 0 subsets at k=4:" in str(exc.value)
    monkeypatch.setattr(solver_module, "MEMORY_CEILING", 3_816)
    assert solve(h, spec).consistent
    monkeypatch.setattr(solver_module, "MEMORY_CEILING", 3_815)
    with pytest.raises(ResourceBoundError) as exc:
        solve(h, spec)
    assert "search passed 3 subsets at k=4:" in str(exc.value)


def test_table_bytes_bound_the_traced_peak(small_corpus):
    # `table_bytes` must bound what `_write_tables` holds at its peak, as
    # tracemalloc sees it, from a few writes to k = 2,016 under every model.
    histories = [*small_corpus[:20], parse_history(SB)]
    histories += spread_writes_histories(1, 1, (4, 600, 100, 8))
    histories += spread_writes_histories(1, 1, (8, 4000, 2000, 16))[:1]
    assert max(h.k for h in histories) == 2016
    for h in histories:
        for m in ALL_MODELS:
            bases = build_base_graphs(h, get_model(m))
            sorts = [kahn_acyclic(g) for g in bases]
            if not h.k or not all(ok for ok, _ in sorts):
                continue
            pairs = tuple((g, topo) for g, (_, topo) in zip(bases, sorts))
            tracemalloc.start()
            try:
                solver_module._write_tables(h, pairs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            bound = solver_module.table_bytes(h.k, max(g.n for g in bases))
            assert peak <= bound


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


def test_witness_of_one_write_and_of_none():
    h = parse_history("thread T0\nwr x 1\n")
    v = solve(h, get_model("sc"))
    assert v.witness == [0]

    h = parse_history("")
    assert solve(h, get_model("sc")).witness == []


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
    # Re-run the production search, and rebuild from its dead sets and
    # order the memo of the reference search: the empty set maps to k,
    # each dead set to -1, and each set on the order's path from the full
    # set down to the bit placed at its bottom.
    from mmcheck.graphs import kahn_acyclic
    from mmcheck.models import build_base_graphs
    from mmcheck.solver import SolveStats, _search, _write_tables

    g_loc, g_mm = build_base_graphs(h, spec)
    ok_loc, topo_loc = kahn_acyclic(g_loc)
    ok_mm, topo_mm = kahn_acyclic(g_mm)
    if not (ok_loc and ok_mm):
        return {}
    tables = _write_tables(h, ((g_loc, topo_loc), (g_mm, topo_mm)))
    dead = set()
    order = _search(dead, *tables, SolveStats())
    memo = {0: h.k}
    memo.update(dict.fromkeys(dead, -1))
    mask = (1 << h.k) - 1
    for j in order or ():
        memo[mask] = j
        mask ^= 1 << j
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
            _, ref = solve_reference(
                h, spec, safe_first=False, var_first=False, sets=memo
            )
            assert {s: ref[s] >= 0 for s in memo} == {
                s: j >= 0 for s, j in memo.items()
            }
            sets += len(memo)
            moved += sum(j != ref[s] for s, j in memo.items())
    assert sets > 5_000 and moved > 100


def test_var_first_rule_keeps_orderability(small_corpus):
    # A set with no safe candidate tries the candidates of one variable
    # only (the lemma in `_search`'s docstring).  The reference search
    # with that rule off must find every set in the production memo
    # orderable exactly when the memo does.  An orderable set may succeed
    # through a candidate that search never reaches, so it evaluates the
    # memo's sets too, and the sets it evaluates beyond them are those
    # the rule drops.
    rng = random.Random(2727)
    histories = [*small_corpus]
    histories += filter(None, (with_random_dp(h, rng) for h in small_corpus))
    histories += spread_writes_histories(20, 40, (3, 18, 10, 3))
    histories += _reductions_up_to_k14()
    sets = dropped = 0
    for h in histories:
        for m in ALL_MODELS:
            spec = get_model(m)
            memo = _production_memo(h, spec)
            _, ref = solve_reference(h, spec, var_first=False, sets=memo)
            assert {s: ref[s] >= 0 for s in memo} == {
                s: j >= 0 for s, j in memo.items()
            }
            sets += len(memo)
            dropped += len(ref) - len(memo)
    assert sets > 5_000 and dropped > 50


def test_group_rule_matches_reference_and_keeps_orderability():
    # A set where no variable qualifies tries the candidates of a closed
    # group of variables only (the lemma in `_search`'s docstring).  The
    # corpus above never has such a set with two candidates.  These do:
    # reductions of formulas over 2 variables with 3-6 clauses,
    # spread-writes traces at k = 19-23, and simulated 4-variable
    # histories at k <= 14 and their rf mutants.  The memo must equal the
    # reference's with both rules, and the reference with var first off
    # must find each set in it orderable exactly when the memo does.  An
    # orderable set may succeed through a candidate that a search trying
    # every candidate never reaches, so the memo may hold sets that search
    # does not evaluate.  With one variable only, var first takes 3,362
    # sets here.
    rng = random.Random(3131)
    pool = [1, 2, -1, -2]
    histories = []
    for m in (3, 4, 5, 6) * 2:
        cnf = Cnf3(2, tuple(
            tuple(rng.choice(pool) for _ in range(3)) for _ in range(m)
        ))
        histories += (sat_to_history_sc(cnf), sat_to_history_relaxed(cnf))
    histories += spread_writes_histories(4, 5, (6, 80, 20, 3))
    rng = random.Random(9090)
    for i in range(20):
        prog = generate_program(
            4, 6, 4, seed=rng.getrandbits(32), max_writes=rng.randint(5, 10)
        )
        h = simulate(prog, ("sc", "tso", "pso")[i % 3], seed=i)
        histories.append(h)
        try:
            histories.append(mutate(h, seed=i))
        except NoAlternativeWriterError:
            pass
    assert max(h.k for h in histories) == 23
    sets = 0
    for h in histories:
        for m in ALL_MODELS:
            spec = get_model(m)
            memo = _production_memo(h, spec)
            assert solve_reference(h, spec)[1] == memo
            _, ref = solve_reference(h, spec, var_first=False, sets=memo)
            assert {s: ref[s] >= 0 for s in memo} == {
                s: j >= 0 for s, j in memo.items()
            }
            sets += len(memo)
    assert sets == 3_349


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


def test_spread_writes_at_k216_in_at_most_k_subsets():
    # Ten spread-writes traces (8 threads, 2,000 events, 16 variables,
    # k = 216) and their rf mutants.  Without the var-first rule, the
    # worst of them took 65,747 subsets under sc and 130,697 under pso;
    # with it, every check under every model takes at most k.  The totals
    # of the 80 checks, and each check's outcome, witness and counters,
    # are pinned exactly, past the reference search's reach.
    histories = spread_writes_histories(10, 1, (8, 2000, 200, 16))
    assert len(histories) == 20 and {h.k for h in histories} == {216}
    subsets = gates = inconsistent = 0
    rows = []
    for h in histories:
        for m in ALL_MODELS:
            v = solve(h, get_model(m))
            assert v.stats.subsets_evaluated <= h.k
            subsets += v.stats.subsets_evaluated
            gates += v.stats.gate_checks
            inconsistent += not v.consistent
            rows.append(_checks(v))
    assert (subsets, gates, inconsistent) == (11_307, 11_296, 38)
    assert _sha256(rows) == (
        "a15bc39ca6533edd903818055466caed5ee42c99f45e542c1ab9d1b71aff27d7"
    )


def test_spread_writes_at_k2016_are_pinned():
    # One spread-writes trace (8 threads, 4,000 events, 16 variables) at
    # k = 2,016: sc takes 288 subsets and tso 4,451, each placement on a
    # deep stack of frames.  Outcome, witness and counters are pinned.
    (h,) = spread_writes_histories(1, 1, (8, 4000, 2000, 16))[:1]
    assert h.k == 2016
    rows = [_checks(solve(h, get_model(m))) for m in ("sc", "tso")]
    assert [row[2:] for row in rows] == [(288, 356), (4_451, 4_727)]
    assert _sha256(rows) == (
        "41017cfe4f1e5d2c6b4686b870772bee1bddcbab9a735357c6eefcd29fe3fb7a"
    )


def test_monotonicity_across_models(small_corpus):
    # sc => tso => pso and sc => rmo, on the small corpus and past it:
    # spread-writes traces at k = 38-108 and the long simulated traces,
    # mutants included, and their dependency variants under rmo.
    larger = [
        h
        for size in ((4, 60, 18, 8), (4, 200, 30, 8), (4, 400, 60, 8),
                     (4, 600, 100, 8))
        for h in spread_writes_histories(10, 1, size)
    ]
    larger += long_traces()
    patterns = set()
    for h in (*small_corpus, *larger):
        sc_ok, tso_ok, pso_ok, rmo_ok = verdicts = tuple(
            solve(h, get_model(m)).consistent for m in ALL_MODELS
        )
        assert tso_ok >= sc_ok and pso_ok >= tso_ok and rmo_ok >= sc_ok
        patterns.add(verdicts)
    # Each weaker model admits a history its stronger neighbour refuses,
    # so a model that collapsed onto another would show.
    assert {
        (False, True, True, True),
        (False, False, True, True),
        (False, False, False, True),
    } <= patterns
    rng = random.Random(2828)
    for h in larger:
        if (d := with_random_dp(h, rng)) is not None:
            if solve(d, get_model("sc")).consistent:
                assert solve(d, get_model("rmo")).consistent


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
    # Under every model the solver reads the per-write variables, the
    # threads' ranges, each write's readers and rmo's dependency edges:
    # with the per-event `access` column disabled, parsing a document
    # without `rf` lines and `solve` give the same verdicts, witnesses and
    # counters.  A `dp` line's source is told a read by the write ids, so
    # the out-of-thin-air trace without its two `rf` lines is parsed with
    # the column disabled.  Assembly reads the column to check `rf` lines,
    # so the documents that carry them are parsed before it is disabled.
    # A cyclic base graph's diagnostic, `format_history`, `mutate` and the
    # test-only event view still read it; the package keeps no other
    # per-event column.
    dp_only = "".join(
        line for line in OOTA.splitlines(True) if not line.startswith("rf ")
    )
    assert "dp " in dp_only and "rf " not in dp_only
    texts = [(TRACES / "long.mmh").read_text(), MP]
    checks = [(text, m) for text in texts for m in ALL_MODELS]
    checks.append((dp_only, "rmo"))
    edged_texts = [(TRACES / "spelled.mmh").read_text(), OOTA]
    edged = [parse_history(t) for t in edged_texts]
    expected = [solve(parse_history(t), get_model(m)) for t, m in checks]
    expected += [solve(h, get_model("rmo")) for h in edged]
    # the same relations as the trace with its `rf` lines, and rejected
    bare = parse_history(dp_only)
    assert (bare.rf, bare.dp) == (edged[1].rf, edged[1].dp)
    assert not solve(bare, get_model("rmo")).consistent
    cyclic = "init: x=0\nthread T0\nrd x 1\nwr x 1\n"
    uses = {
        "diagnostic": lambda: solve(parse_history(cyclic), get_model("sc")),
        "format_history": lambda: format_history(parse_history(texts[0])),
        "events": lambda: events(parse_history(texts[0])),
        "spelled": lambda: parse_history(edged_texts[0]),
        "oota": lambda: parse_history(edged_texts[1]),
    }
    for use in uses.values():
        use()
    mutate(parse_history(texts[0]), seed=3)

    for name, column in _COLUMNS.items():
        monkeypatch.setattr(History, name, column)
    assert [
        solve(parse_history(t), get_model(m)) for t, m in checks
    ] + [solve(h, get_model("rmo")) for h in edged] == expected
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
