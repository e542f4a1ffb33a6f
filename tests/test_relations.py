"""Linear edge lists and merged search tables against the references.

The production derivation emits O(n) program-order edges per model.
These tests pin it to the pair-set reference derivation in `helpers`
(equal transitive closures, and the verdict, witness and counters of
`solve` equal to those of its tables and search run on the full graphs
of the reference relations), and pin the search over tables merged from
both base graphs to the explicit-graph reference search (the same memo).
The dead sets of each inconsistent search are checked as a certificate
on tables read off the reference relations.
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mmcheck import (
    MODELS,
    Cnf3,
    build_base_graphs,
    derive,
    generate_program,
    get_model,
    history_from_blocks,
    kahn_acyclic,
    mutate,
    oota_cycle,
    parse_history,
    program_orders,
    rf_external,
    sat_to_history_relaxed,
    sat_to_history_sc,
    simulate,
    solve,
    verify_witness,
)
from mmcheck.errors import NoAlternativeWriterError
from mmcheck.simgen import RandomProgram
from mmcheck.solver import Outcome, SolveStats, _search, _write_tables
from mmcheck.solver import extract_witness

from conftest import (
    CORR,
    MP,
    OOTA,
    PINNED_REDUCTIONS,
    SB,
    long_traces,
    spread_writes_histories,
    with_random_dp,
)
from helpers import (
    check_dead_sets,
    closure,
    event_graph,
    events,
    graph_edges,
    has_wait_cycle,
    reference_derive,
    resolve_ref,
    set_waits,
    solve_reference,
)
from test_solver import _production_memo, _random_unsat_cnf


def _assert_matches_reference(h, spec):
    # the relations `DerivedModel.graphs` joins
    po, po_loc = program_orders(h, spec)
    po_mm = h.dp if spec.dp_only else po
    rf_mm = h.rf if spec.sees_internal_rf else rf_external(h)
    ref = reference_derive(h, spec)
    assert closure(h.n, po_mm) == closure(h.n, ref.po_mm)
    assert closure(h.n, po_loc) == closure(h.n, ref.po_loc_effective)
    assert rf_mm == ref.rf_mm
    v = solve(h, spec)
    full = (
        event_graph(h, ref.po_loc_effective, h.rf),
        event_graph(h, ref.po_mm, ref.rf_mm),
    )
    assert (v.outcome, v.witness, v.stats) == _solve_on_graphs(h, spec, full)


def _solve_on_graphs(h, spec, graphs):
    # `solve`'s outcome, witness and counters, with its tables and search
    # run on the given base graphs and the witness re-checked on them
    stats = SolveStats()
    inconsistent = (Outcome.INCONSISTENT, None, stats)
    if spec.dp_only and oota_cycle(h) is not None:
        return inconsistent
    sorts = [kahn_acyclic(g) for g in graphs]
    if not all(ok for ok, _ in sorts):
        return inconsistent
    if not h.k:
        return Outcome.CONSISTENT, [], stats
    tables = _write_tables(h, tuple(zip(graphs, (order for _, order in sorts))))
    order = _search(set(), *tables, stats)
    if order is None:
        return inconsistent
    witness = extract_witness(h, order)
    assert verify_witness(h, graphs, witness)
    return Outcome.CONSISTENT, witness, stats


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
        evs = events(h)
        for name in MODELS:
            g_loc = derive(h, get_model(name)).graphs()[0]
            for a, b in graph_edges(g_loc):
                assert evs[a].var == evs[b].var


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
    drawn_rf = []
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
            drawn_rf.append((ref, (name, pos)))
    dp_refs = []
    if rng.random() < 0.5:
        for name, block in threads:
            for pos, event in enumerate(block):
                if event[0] != "rd":
                    continue
                for later in range(pos + 1, len(block)):
                    if rng.random() < 0.5:
                        dp_refs.append(((name, pos), (name, later)))
    h = history_from_blocks(
        init=init,
        threads=[(name, [tuple(e) for e in block]) for name, block in threads],
        dp_refs=dp_refs,
    )
    # Each read took its drawn source's value, which names that source.
    assert h.rf == {(resolve_ref(h, *w), resolve_ref(h, *r)) for w, r in drawn_rf}
    return h


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


_LITERALS = st.sampled_from([1, 2, -1, -2])


@settings(deadline=None, max_examples=40)
@given(
    clauses=st.lists(
        st.tuples(_LITERALS, _LITERALS, _LITERALS), min_size=2, max_size=3
    ),
    dp_seed=st.integers(0, 10**6),
)
def test_two_variable_formulas_match_reference_memo(clauses, dp_seed):
    # Formulas over 2 variables with repeated and mixed literals, k = 12.
    # Satisfiable ones are kept: their consistent instances take the
    # search's success path.  Both searches run on the same instance, so
    # whether it is the right verdict for the formula does not matter.
    cnf = Cnf3(2, tuple(clauses))
    rng = random.Random(dp_seed)
    rmo = get_model("rmo")
    for h, names in (
        (sat_to_history_sc(cnf), ("sc",)),
        (sat_to_history_relaxed(cnf), MODELS),
    ):
        for name in names:
            _assert_same_memo(h, get_model(name))
        augmented = with_random_dp(h, rng)
        if augmented is not None:
            _assert_same_memo(augmented, rmo)


def test_multi_step_read_wait_cycles_match_reference_memo():
    # An unsatisfiable formula over 3 variables, k = 18, on which some
    # placements close a cycle of read waits only through two or more old
    # waits: a cycle test that follows one step changes the memo.
    cnf = Cnf3(3, (
        (-2, 1, 3), (-2, 1, -3), (-3, 1, 2), (-2, 1, 3), (3, 1, 2),
        (-3, 1, -2), (-2, -3, -1), (2, 1, 3), (2, 3, -1), (2, 1, 3),
        (-3, -1, -2), (1, 3, 2), (2, -3, -1), (-2, -3, -1), (3, -1, -2),
    ))
    for h, name in (
        (sat_to_history_sc(cnf), "sc"),
        (sat_to_history_relaxed(cnf), "tso"),
    ):
        assert h.k == 18
        _assert_same_memo(h, get_model(name))


def test_memo_matches_reference_past_the_oracle_horizon():
    # The oracles refuse k > 8.  40 simulated tso/pso histories at
    # k = 10-12, each with an rf mutation and with random dependencies,
    # pin the production memo to the explicit-graph search under every
    # model; about a fifth of the checks are inconsistent.
    rng = random.Random(8181)
    checked = 0
    for i in range(40):
        prog = generate_program(
            3, 7, 3, seed=8200 + i, max_writes=rng.randint(8, 9)
        )
        h = simulate(prog, ("tso", "pso")[i % 2], seed=8300 + i)
        for g in (h, mutate(h, seed=8400 + i), with_random_dp(h, rng)):
            if g is None:
                continue
            assert 8 < g.k <= 12
            for name in MODELS:
                spec = get_model(name)
                assert _production_memo(g, spec) == solve_reference(g, spec)[1]
            checked += 1
    assert checked >= 100


_VARS = ("x0", "x1", "x2")


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_writes_spread_over_threads_match_reference_memo(data):
    # `generate_program` puts most writes in the first thread; here each
    # write and read takes a thread of its own draw, in a drawn program
    # order, for k = 9-14 with the initial writes.  The simulated
    # history, an rf mutation of it and a copy with random dependencies
    # pin the production memo to the explicit-graph search.
    nthreads = data.draw(st.integers(2, 4), label="threads")
    access = st.tuples(st.integers(0, nthreads - 1), st.sampled_from(_VARS))
    writes = data.draw(st.lists(access, min_size=6, max_size=11))
    reads = data.draw(st.lists(access, min_size=2, max_size=8))
    order = data.draw(st.permutations(range(len(writes) + len(reads))))
    seed = data.draw(st.integers(0, 10**6), label="seed")
    blocks: list[list[tuple]] = [[] for _ in range(nthreads)]
    fresh = dict.fromkeys(_VARS, 1)
    for i in order:
        if i < len(writes):
            t, var = writes[i]
            blocks[t].append(("wr", var, fresh[var]))
            fresh[var] += 1
        else:
            t, var = reads[i - len(writes)]
            blocks[t].append(("rd", var))
    prog = RandomProgram(tuple(map(tuple, blocks)), _VARS)
    h = simulate(prog, ("tso", "pso")[seed % 2], seed=seed)
    assume(9 <= h.k <= 14)
    rng = random.Random(seed)
    try:
        mutated = mutate(h, seed=seed)
    except NoAlternativeWriterError:
        mutated = None
    for g in (h, mutated, with_random_dp(h, rng)):
        if g is not None:
            for name in MODELS:
                _assert_same_memo(g, get_model(name))


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
    g_loc, g_mm = build_base_graphs(h, spec)
    edges = sum(len(row) for g in (g_loc, g_mm) for row in g.adj)
    assert edges <= 8 * h.n
    assert elapsed < 10.0
    for name in MODELS:
        spec = get_model(name)
        for g in build_base_graphs(h, spec):
            assert g.n <= _max_base_vertices(h, spec)


def _assert_contraction_exact(h, spec):
    # The thinned, contracted base graphs against the full graphs over
    # events: the same acyclicity, the same search tables, and the same
    # re-check of the witness (or the writes in id order when there is
    # none) and of each order one adjacent swap away from it.  The full
    # graphs come from the pair-set reference derivation.  The bases list
    # each tag site once per write.
    bases = build_base_graphs(h, spec)
    for g in bases:
        for sites in g.tag_sites:
            assert len(set(sites)) == len(sites)
    rel = reference_derive(h, spec)
    full = (
        event_graph(h, rel.po_loc_effective, h.rf),
        event_graph(h, rel.po_mm, rel.rf_mm),
    )
    sorted_bases = [kahn_acyclic(g) for g in bases]
    sorted_full = [kahn_acyclic(g) for g in full]
    assert [ok for ok, _ in sorted_bases] == [ok for ok, _ in sorted_full]
    if not all(ok for ok, _ in sorted_full) or not h.k:
        return
    tables = [
        _write_tables(h, tuple(zip(graphs, (order for _, order in sorts))))
        for graphs, sorts in ((bases, sorted_bases), (full, sorted_full))
    ]
    assert tables[0] == tables[1]
    v = solve(h, spec)
    tw = v.witness if v.consistent else list(h.writes)
    orders = [tw] + [
        tw[:i] + [tw[i + 1], tw[i]] + tw[i + 2:] for i in range(len(tw) - 1)
    ]
    for order in orders:
        assert verify_witness(h, bases, order) == verify_witness(
            h, full, order
        )


def _tables_from_definitions(h, spec):
    # The search tables read off the transitive closures of the reference
    # relations, one per graph: write i is in `blockers[j]` when it reaches
    # j, or is on j's variable and reaches a read of j, in either graph;
    # `pred_rd[j]` holds the writes that reach a read of j.  Variables are
    # numbered by first write.
    rel = reference_derive(h, spec)
    reach = (
        closure(h.n, [*rel.po_loc_effective, *h.rf]),
        closure(h.n, [*rel.po_mm, *rel.rf_mm]),
    )
    writes, var, k = h.writes, h.write_vars, h.k

    def mask(bits):
        return sum(1 << i for i in bits)

    def reaches(i, e):
        return any(r[writes[i]] >> e & 1 for r in reach)

    varmask = [mask(i for i in range(k) if var[i] == var[j]) for j in range(k)]
    names = list(dict.fromkeys(var))
    var_of = [names.index(var[j]) for j in range(k)]
    pred_rd = [
        mask(
            i for i in range(k)
            if any(reaches(i, r) for r in h.readers_of(writes[j]))
        )
        for j in range(k)
    ]
    blockers = [
        mask(
            i for i in range(k)
            if i != j
            and (
                reaches(i, writes[j])
                or var[i] == var[j] and pred_rd[j] >> i & 1
            )
        )
        for j in range(k)
    ]
    return varmask, var_of, blockers, pred_rd


def _assert_tables_match_definitions(h, spec):
    bases = build_base_graphs(h, spec)
    sorts = [kahn_acyclic(g) for g in bases]
    if not all(ok for ok, _ in sorts) or not h.k:
        return False
    tables = _write_tables(h, tuple(zip(bases, (order for _, order in sorts))))
    assert tables == _tables_from_definitions(h, spec)
    return True


def test_write_tables_match_their_definitions(small_corpus):
    rng = random.Random(6464)
    checks = [
        (h, get_model(name))
        for h in (*small_corpus, *long_traces())
        for name in MODELS
    ]
    rmo = get_model("rmo")
    checks += [
        (g, rmo)
        for g in (with_random_dp(h, rng) for h in small_corpus)
        if g is not None
    ]
    checked = sum(
        _assert_tables_match_definitions(h, spec) for h, spec in checks
    )
    assert checked >= 400


def _dead_sets(h, spec):
    # The production search's dead sets, or None when a base graph is
    # cyclic and the search does not run.
    memo = _production_memo(h, spec)
    return {s for s, j in memo.items() if j < 0} if memo else None


def test_dead_sets_certify_inconsistent_verdicts(small_corpus):
    # Each inconsistent search's dead sets are a certificate that
    # `check_dead_sets` accepts on tables read off the reference
    # relations, and rejects without the full set.  No certificate holds
    # for a consistent verdict, so the dead sets with the full set added
    # are rejected there.
    cnfs = [p[0] for p in PINNED_REDUCTIONS]
    cnfs += [_random_unsat_cnf(6, seed=1), _random_unsat_cnf(7, seed=1)]
    checks = [
        (to_history(cnf), get_model(name))
        for cnf in cnfs
        for to_history, name in (
            (sat_to_history_sc, "sc"),
            (sat_to_history_relaxed, "tso"),
        )
    ]
    histories = [*small_corpus]
    histories += spread_writes_histories(20, 40, (3, 18, 10, 3))
    checks += [(h, get_model(name)) for h in histories for name in MODELS]
    certified = refuted = sets = 0
    for h, spec in checks:
        dead = _dead_sets(h, spec)
        if dead is None:
            continue
        tables, full = _tables_from_definitions(h, spec), (1 << h.k) - 1
        if solve(h, spec).consistent:
            assert not check_dead_sets(tables, h.k, dead | {full})
            refuted += 1
        else:
            assert check_dead_sets(tables, h.k, dead)
            assert not check_dead_sets(tables, h.k, dead - {full})
            certified += 1
            sets += len(dead)
    assert (certified, refuted, sets) == (84, 530, 6_308)


def test_dead_sets_certify_inconsistent_verdicts_at_k216():
    # Past the oracles' reach: the inconsistent checks of three k = 216
    # spread-writes traces and their rf mutants, under every model, are
    # certified on the reference tables, and not without the full set.
    certified = sets = 0
    for h in spread_writes_histories(3, 1, (8, 2000, 200, 16)):
        assert h.k == 216
        for name in MODELS:
            spec = get_model(name)
            dead = _dead_sets(h, spec)
            if dead is None or solve(h, spec).consistent:
                continue
            tables, full = _tables_from_definitions(h, spec), (1 << h.k) - 1
            assert check_dead_sets(tables, h.k, dead)
            assert not check_dead_sets(tables, h.k, dead - {full})
            certified += 1
            sets += len(dead)
    assert (certified, sets) == (8, 624)


@pytest.mark.parametrize(
    "cnf,rejected",
    [(PINNED_REDUCTIONS[0][0], 37), (PINNED_REDUCTIONS[1][0], 81)],
    ids=["k18", "k24"],
)
def test_dead_set_certificates_without_a_needed_set_are_rejected(
    cnf, rejected
):
    # Drop one dead set D from a pinned reduction's certificate.  The
    # certificate stays whole when D's parent has another candidate whose
    # rest holds a cycle of waits: the parent fails through it.  When no
    # parent of D has one, the certificate is rejected.
    h, spec = sat_to_history_sc(cnf), get_model("sc")
    dead, tables = _dead_sets(h, spec), _tables_from_definitions(h, spec)
    k, dropped = h.k, 0
    for d in dead:
        cut = False
        for v in range(k):
            parent = d | 1 << v
            if parent == d or parent not in dead:
                continue
            waits = set_waits(tables, k, parent)
            cut |= any(
                not waits[u] and u != v
                and has_wait_cycle(set_waits(tables, k, parent ^ 1 << u))
                for u in waits
            )
        accepted = check_dead_sets(tables, k, dead - {d})
        assert cut or not accepted
        dropped += not accepted
    assert dropped == rejected


def test_contracted_base_graphs_match_full_graphs(small_corpus):
    rng = random.Random(5454)
    histories = list(small_corpus)
    histories += [_random_history(rng) for _ in range(150)]
    histories += long_traces()
    for _ in range(4):
        n = rng.randint(2, 3)
        pool = list(range(1, n + 1)) + [-v for v in range(1, n + 1)]
        cnf = Cnf3(n, tuple(tuple(rng.sample(pool, 3)) for _ in range(n + 1)))
        histories += [sat_to_history_sc(cnf), sat_to_history_relaxed(cnf)]
    for h in histories:
        for name in MODELS:
            _assert_contraction_exact(h, get_model(name))
    rmo = get_model("rmo")
    checked = 0
    for h in histories:
        augmented = with_random_dp(h, rng)
        if augmented is not None:
            _assert_contraction_exact(augmented, rmo)
            checked += 1
    assert checked >= 120


# Hand-written shapes for the column walk of `build_base_graphs`.
COLUMN_WALK_CASES = {
    # T0 starts with a read of an initial write that no reads-from edge
    # enters; under sc it takes the edges of both initial writes.
    "first read of the inits": (
        "init: x=0 y=0\nthread T0\nrd x 0\nwr y 1\n"
        "thread T1\nrd y 1\nwr x 1\nthread T2\nrd x 1\nrd y 0\n"
    ),
    # Under tso the initial writes' edges go to T0's first write, behind
    # two reads.
    "first write of the inits": (
        "init: x=0 y=0\nthread T0\nrd x 0\nrd y 0\nwr x 1\nwr y 1\n"
        "thread T1\nrd y 1\nrd x 0\n"
    ),
    # T0 reads its own write before making it: a per-location cycle.
    "read ahead of its own write": (
        "init: x=0\nthread T0\nrd x 1\nwr x 1\nrd x 1\n"
        "thread T1\nrd x 1\nrd x 0\n"
    ),
    "writes only, and an empty thread": (
        "thread T0\nwr x 1\nwr y 1\nthread T1\n"
        "thread T2\nrd y 1\nrd x 1\n"
    ),
    # T0's write of x is read only later in T0.
    "read only later in its own thread": (
        "init: x=0 y=0\nthread T0\nwr x 1\nrd y 0\nrd x 1\nrd x 1\n"
        "thread T1\nwr y 1\nrd x 0\n"
    ),
    # T1 reads T0's write of x on both sides of its own write of x.
    "readers split by a write": (
        "init: x=0\nthread T0\nwr x 1\nthread T1\nrd x 1\nwr x 2\n"
        "rd x 1\nthread T2\nrd x 1\nrd x 2\n"
    ),
    # T1's reads of x=1 fall in three segments of x, around reads of
    # other writers, and one segment has no head.
    "segments around other readers": (
        "thread T0\nwr x 1\nthread T1\nrd x 1\nrd x 1\nwr x 2\nrd x 1\n"
        "rd x 2\nrd x 1\nwr x 3\nrd x 1\nthread T2\nrd x 3\nrd x 2\n"
    ),
    # Dependency edges from reads merged into their writers, from a read
    # of its own thread's write, and into a read and a write.
    "dependencies into reads and writes": (
        "init: x=0 y=0\nthread T0\nwr x 1\nrd y 1\nwr y 2\n"
        "thread T1\nrd x 1\nrd x 1\nwr y 1\nrd y 1\nrd y 2\n"
        "dp T1:0 -> T1:2\ndp T1:1 -> T1:4\ndp T1:3 -> T1:4\n"
        "dp T0:1 -> T0:2\n"
    ),
}


@pytest.mark.parametrize("text", COLUMN_WALK_CASES.values(), ids=list(COLUMN_WALK_CASES))
def test_column_walk_edge_cases_match_full_graphs(text):
    h = parse_history(text)
    for name in MODELS:
        _assert_contraction_exact(h, get_model(name))
        _assert_matches_reference(h, get_model(name))


def test_first_read_of_several_inits_gets_its_own_vertex():
    h = parse_history(COLUMN_WALK_CASES["first read of the inits"])
    _, g_mm = build_base_graphs(h, get_model("sc"))
    # x's initial write has one reader, T0:0, and its tag site is a read
    # vertex entered by both initial writes
    (site,) = g_mm.tag_sites[0]
    assert site >= h.k and g_mm.in_degree[site] == 2
    assert site in g_mm.adj[0] and site in g_mm.adj[1]


def _max_base_vertices(h, spec):
    # The writes, and unless the model allows load-load hazards one read
    # per (program write, thread) entered by both program order and
    # reads-from, and one read per thread entered by the initial writes.
    # Under load-load hazards: one read per (writer, thread, segment),
    # at most k + T per writer, and one per read a dp edge touches.
    t = len(h.threads)
    if not spec.dp_only:
        return h.k + h.k * t + t
    return h.k + h.k * (h.k + t) + len({e for edge in h.dp for e in edge})


def test_base_graphs_keep_only_branching_events():
    # On a long simulated trace nearly every read joins the vertex of the
    # event before it, or under rmo the vertex of its segment: the graphs
    # keep about the writes and the reads with an incoming reads-from
    # edge.
    for h in long_traces()[::2]:
        for name in MODELS:
            spec = get_model(name)
            for g in build_base_graphs(h, spec):
                assert g.n < h.n // 8
                assert g.n <= _max_base_vertices(h, spec)
