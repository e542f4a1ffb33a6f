"""Linear edge lists and merged search tables against the references.

The production derivation emits O(n) program-order edges per model.
These tests pin it to the pair-set reference derivation in `helpers`
(equal transitive closures, and the same verdict, witness and counters
from `solve`), and pin the search over tables merged from both base
graphs to the explicit-graph reference search (the same memo).
"""

from __future__ import annotations

import random
import time

import pytest

from mmcheck import (
    MODELS,
    Cnf3,
    assemble_history,
    build_base_graphs,
    derive,
    generate_program,
    get_model,
    parse_history,
    sat_to_history_relaxed,
    sat_to_history_sc,
    simulate,
    solve,
)

from conftest import CORR, MP, OOTA, SB, with_random_dp
from helpers import closure, reference_derive, solve_reference
from test_solver import _production_memo


def _assert_matches_reference(h, spec):
    dm = derive(h, spec)
    ref = reference_derive(h, spec)
    assert closure(h.n, dm.po_mm) == closure(h.n, ref.po_mm)
    assert closure(h.n, dm.po_loc_effective) == closure(
        h.n, ref.po_loc_effective
    )
    assert dm.rf_mm == ref.rf_mm
    v = solve(h, spec)
    v_ref = solve(h, spec, derived=ref)
    assert v.outcome == v_ref.outcome
    assert v.witness == v_ref.witness
    assert v.stats == v_ref.stats


def _assert_same_memo(h, spec):
    ref_ok, ref_memo = solve_reference(h, spec)
    assert solve(h, spec).consistent == ref_ok
    if ref_memo:
        assert _production_memo(h, spec) == ref_memo


def test_small_corpus_matches_reference(small_corpus):
    for h in small_corpus:
        for name in MODELS:
            _assert_matches_reference(h, get_model(name))


def test_rmo_with_random_dependencies_matches_reference_derivation(
    small_corpus,
):
    rng = random.Random(2929)
    checked = 0
    for h in small_corpus:
        augmented = with_random_dp(h, rng)
        if augmented is None:
            continue
        _assert_matches_reference(augmented, get_model("rmo"))
        checked += 1
    assert checked >= 40


def test_base_edges_join_one_variable(small_corpus):
    # The solver merges its tables over both base graphs; that is exact
    # because every per-location edge stays on one variable.
    rng = random.Random(3737)
    histories = list(small_corpus)
    histories += filter(None, (with_random_dp(h, rng) for h in small_corpus))
    for h in histories:
        for name in MODELS:
            dm = derive(h, get_model(name))
            for a, b in (*dm.po_loc_effective, *h.rf):
                assert h.events[a].var == h.events[b].var


# rmo keeps a same-variable read-write pair only as a dependency edge:
# with one of two such edges missing the per-location graph holds a pair
# the model graph lacks, with both present it does not.
_TWO_READS_THEN_WRITE = (
    "thread T0\nrd x 1\nrd x 2\nwr x 3\nthread T1\nwr x 1\n"
    "thread T2\nwr x 2\ndp T0:0 -> T0:2\n"
)
# Under rmo the per-location graph orders T0's writes one way and the
# model graph (dp, then reads-from through T1) the other; neither graph
# has a cycle on its own.  The reference evaluates {T0:1, T0:2, T1:1}
# after placing T2:0, so the search must not cut that subset early.
_MIXED_REACH = (
    "thread T0\nrd z 7\nwr x 1\nwr x 2\nthread T1\nrd x 2\nwr z 7\n"
    "thread T2\nwr y 5\ndp T0:0 -> T0:1\ndp T1:0 -> T1:1\n"
)
RMO_CASES = [
    _TWO_READS_THEN_WRITE,
    _TWO_READS_THEN_WRITE + "dp T0:1 -> T0:2\n",
    _MIXED_REACH,
]


@pytest.mark.parametrize("text", [SB, MP, CORR, OOTA, *RMO_CASES])
def test_litmus_traces_match_reference(text):
    h = parse_history(text)
    for name in MODELS:
        _assert_matches_reference(h, get_model(name))
        _assert_same_memo(h, get_model(name))


def _random_history(rng):
    """Any shape: optional initial writes, reads of any same-variable
    write (cyclic ones included), and on about half of the histories
    dependency edges from reads to half of their later events."""
    variables = ["x", "y", "z"][: rng.randint(1, 3)]
    init = [(v, 0) for v in variables if rng.random() < 0.5]
    threads = []
    writes = [(v, 0, ("init", i)) for i, (v, _) in enumerate(init)]
    for t in range(rng.randint(1, 3)):
        block = []
        for pos in range(rng.randint(1, 4)):
            kind = rng.choice(("wr", "rd"))
            var = rng.choice(variables)
            val = len(writes) + 1
            block.append([kind, var, val])
            if kind == "wr":
                writes.append((var, val, (f"T{t}", pos)))
        threads.append((f"T{t}", block))
    rf_refs = []
    for name, block in threads:
        for pos, event in enumerate(block):
            if event[0] != "rd":
                continue
            sources = [w for w in writes if w[0] == event[1]]
            if not sources:
                event[0] = "wr"
                writes.append((event[1], event[2], (name, pos)))
                continue
            _, event[2], ref = rng.choice(sources)
            rf_refs.append((ref, (name, pos)))
    dp_refs = []
    if rng.random() < 0.5:
        for name, block in threads:
            for pos, event in enumerate(block):
                if event[0] != "rd":
                    continue
                for later in range(pos + 1, len(block)):
                    if rng.random() < 0.5:
                        dp_refs.append(((name, pos), (name, later)))
    return assemble_history(
        init=init,
        threads=[(name, [tuple(e) for e in block]) for name, block in threads],
        rf_refs=rf_refs,
        dp_refs=dp_refs,
    )


def test_random_histories_match_reference():
    rng = random.Random(5353)
    for _ in range(400):
        h = _random_history(rng)
        for name in MODELS:
            spec = get_model(name)
            _assert_matches_reference(h, spec)
            _assert_same_memo(h, spec)


def test_reductions_match_reference():
    rng = random.Random(6161)
    for _ in range(12):
        n = rng.randint(2, 3)
        pool = list(range(1, n + 1)) + [-v for v in range(1, n + 1)]
        clauses = tuple(tuple(rng.sample(pool, 3)) for _ in range(n + 1))
        cnf = Cnf3(n, clauses)
        for h, names in (
            (sat_to_history_sc(cnf), ("sc",)),
            (sat_to_history_relaxed(cnf), ("sc", "tso", "pso", "rmo")),
        ):
            for name in names:
                _assert_matches_reference(h, get_model(name))


def test_two_variable_reductions_match_reference_memo():
    # 2 variables, 3 clauses drawn from all four literals: k = 12
    rng = random.Random(4242)
    pool = [1, 2, -1, -2]
    for _ in range(3):
        clauses = tuple(tuple(rng.sample(pool, 3)) for _ in range(3))
        cnf = Cnf3(2, clauses)
        for h, names in (
            (sat_to_history_sc(cnf), ("sc",)),
            (sat_to_history_relaxed(cnf), ("sc", "tso", "pso", "rmo")),
        ):
            assert h.k == 12
            for name in names:
                _assert_same_memo(h, get_model(name))


def test_long_simulated_trace_matches_reference():
    prog = generate_program(4, 150, 5, seed=6060, max_writes=10)
    h = simulate(prog, "tso", seed=6061)
    assert h.n == 605
    for name in MODELS:
        _assert_matches_reference(h, get_model(name))


def test_base_graphs_stay_linear_in_n():
    # At 4 x 2,500 events the stored program order would hold about 12.5
    # million pairs; the edge lists stay within a few edges per event.
    prog = generate_program(4, 2500, 5, seed=7070, max_writes=10)
    h = simulate(prog, "tso", seed=7071)
    assert h.n == 10_005 and h.k == 15
    spec = get_model("tso")
    start = time.perf_counter()
    v = solve(h, spec)
    elapsed = time.perf_counter() - start
    assert v.consistent
    g_loc, g_mm = build_base_graphs(h, derive(h, spec))
    edges = sum(len(row) for g in (g_loc, g_mm) for row in g.adj)
    assert edges <= 8 * h.n
    assert elapsed < 10.0
