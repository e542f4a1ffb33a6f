"""CNF parsing and the formula-to-history compilers."""

from __future__ import annotations

import itertools
import random
import tracemalloc

import pytest

from mmcheck import (
    Cnf3,
    format_history,
    get_model,
    history_from_blocks,
    oracle_store,
    parse_dimacs,
    parse_history,
    sat_brute_force,
    sat_to_history_relaxed,
    sat_to_history_sc,
    solve,
)
from mmcheck import reduction
from mmcheck.errors import (
    MalformedDimacsError,
    MmcheckError,
    NotThreeSatError,
    ResourceBoundError,
    TooManyVarsError,
)
from mmcheck.reduction import CLAUSE_EVENTS
from mmcheck.simgen import EVENT_BYTES

from conftest import NOT_LINE_ENDS, PINNED_REDUCTIONS
from helpers import events, format_dimacs, po_before


def test_parse_dimacs_examples():
    cnf = parse_dimacs("p cnf 1 1\n1 1 1 0\n")
    assert cnf.num_vars == 1
    assert cnf.clauses == ((1, 1, 1),)
    assert len(cnf.literals) == 1

    cnf = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
    assert len(cnf.literals) == 3


@pytest.mark.parametrize("sep", NOT_LINE_ENDS, ids=ascii)
def test_dimacs_comment_ends_only_at_newline(sep):
    # Neither a clause nor a problem line follows the separator.
    text = f"c a{sep}p cnf 9 9\np cnf 3 1\nc b{sep} 1 2 3 0\n1 2 3 0\n"
    cnf = parse_dimacs(text)
    assert (cnf.num_vars, cnf.clauses) == (3, ((1, 2, 3),))


def test_parse_dimacs_rejects_short_clause():
    with pytest.raises(NotThreeSatError):
        parse_dimacs("p cnf 2 1\n1 2 0\n")
    with pytest.raises(NotThreeSatError):
        Cnf3(1, ((1, 1),))


def test_parse_dimacs_malformed():
    with pytest.raises(MalformedDimacsError):
        parse_dimacs("1 2 3 0\n")  # no header
    with pytest.raises(MalformedDimacsError):
        parse_dimacs("p cnf 3 2\n1 2 3 0\n")  # clause count mismatch
    with pytest.raises(MalformedDimacsError):
        parse_dimacs("p cnf 3 1\n1 2 3\n")  # unterminated
    with pytest.raises(MalformedDimacsError):
        parse_dimacs("p cnf 2 1\n1 2 5 0\n")  # variable out of range
    with pytest.raises(MalformedDimacsError):
        parse_dimacs("p cnf x 1\n1 1 1 0\n")
    with pytest.raises(MalformedDimacsError, match="second problem line"):
        parse_dimacs("p cnf 1 1\np cnf 1 1\n1 1 1 0\n")
    for header in ("p dnf 1 1", "p cnf 1"):
        with pytest.raises(MalformedDimacsError, match="bad problem line"):
            parse_dimacs(f"{header}\n1 1 1 0\n")
    for header in ("p cnf -1 0", "p cnf 1 -1"):
        with pytest.raises(MalformedDimacsError, match="negative counts"):
            parse_dimacs(f"{header}\n")
    with pytest.raises(MalformedDimacsError, match="bad token 'a'"):
        parse_dimacs("p cnf 1 1\n1 a 1 0\n")


_TOO_LONG = "integer of 5000 digits is too long"


@pytest.mark.parametrize(
    "text, message",
    [
        ("px cnf 3 1\n1 2 3 0\n", "bad problem line 'px cnf 3 1'"),
        ("1 2 3 0\np cnf 3 1\n", "clause line before the problem line"),
        ("p cnf 3 1\n+1 2 3 0\n", "bad token '+1'"),
        ("p cnf +3 1\n1 2 3 0\n", "bad token '+3'"),
        ("p cnf 10 1\n1_0 2 3 0\n", "bad token '1_0'"),
        ("p cnf 3 1\n\u0661 2 3 0\n", "bad token '\u0661'"),
        ("p cnf 3 1\n1 2 3 \u0966\n", "bad token '\u0966'"),
        ("p cnf 3 \uff11\n1 2 3 0\n", "bad token '\uff11'"),
        (f"p cnf 3 1\n{'1' * 5000} 2 3 0\n", _TOO_LONG),
        (f"p cnf 3 1\n-{'1' * 5000} 2 3 0\n", _TOO_LONG),
        (f"p cnf {'9' * 5000} 1\n1 2 3 0\n", _TOO_LONG),
        ("", "missing problem line"),
        ("c only a comment\n", "missing problem line"),
        ("%\n1 2 3 0\n", "missing problem line"),
    ],
    ids=lambda v: ascii(v)[:40],
)
def test_parse_dimacs_grammar(text, message):
    # The problem line's first field is exactly `p`, it comes before the
    # first clause, and every integer is `-?[0-9]+` in ASCII digits.
    with pytest.raises(MalformedDimacsError) as exc:
        parse_dimacs(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text, error, message",
    [
        # a line's fault first, in line order, and a clause past the
        # promised count at that clause
        ("p cnf 2 1\n1 2 0\n1 a\n1 b\n", MalformedDimacsError, "bad token 'a'"),
        (
            "p cnf 3 1\n1 2 3 0\n1 2 3 0\n1 a\n",
            MalformedDimacsError,
            "problem line promises 1 clauses, found more",
        ),
        (
            "p cnf -1 2\n1 2 0\n1 a 2 0\n",
            MalformedDimacsError,
            "bad token 'a'",
        ),
        # then the document's
        (
            "p cnf -1 1\n1 2 0\n",
            MalformedDimacsError,
            "negative counts in problem line",
        ),
        (
            "p cnf 2 1\n1 2 0\n1",
            MalformedDimacsError,
            "unterminated clause at end of input",
        ),
        (
            "p cnf 2 2\n1 2 0\n",
            MalformedDimacsError,
            "problem line promises 2 clauses, found 1",
        ),
        # then Cnf3's, the one check of a clause's arity and literal range
        (
            "p cnf 2 2\n1 2 5 0\n1 2 0\n",
            MalformedDimacsError,
            "literal 5 outside 1..2",
        ),
        (
            "p cnf 2 1\n1 2 0\n",
            NotThreeSatError,
            "clause (1, 2) does not have exactly 3 literals",
        ),
        (
            "p cnf 2 1\n0\n",
            NotThreeSatError,
            "clause () does not have exactly 3 literals",
        ),
    ],
)
def test_parse_dimacs_fault_order(text, error, message):
    with pytest.raises(error) as exc:
        parse_dimacs(text)
    assert str(exc.value) == message


def test_parse_dimacs_comments_and_terminator():
    cnf = parse_dimacs("c comment\np cnf 2 1\nc mid\n1 -2 2 0\n%\n0\n")
    assert cnf.clauses == ((1, -2, 2),)


def test_format_dimacs_round_trip():
    cnf = Cnf3(3, ((1, -2, 3), (-1, 2, -3)))
    assert parse_dimacs(format_dimacs(cnf)) == cnf


def test_literal_ordering_and_distinctness():
    cnf = Cnf3(2, ((1, 1, -2), (-2, 1, 2)))
    # positives first per variable, each distinct literal once
    assert cnf.literals == ((1, False), (2, False), (2, True))


def test_sc_instance_shapes():
    cnf = Cnf3(1, ((1, 1, 1),))
    h = sat_to_history_sc(cnf)
    evs = events(h)
    # variable pair
    assert h.thread_events("T0_x1") and h.thread_events("T1_x1")
    # literal threads: guard, write, guard
    t0 = [evs[e] for e in h.thread_events("T0_p1")]
    assert [(e.kind, e.var, e.val) for e in t0] == [
        ("rd", "x1", 0),
        ("wr", "p1", 0),
        ("rd", "x1", 0),
    ]
    t1 = [evs[e] for e in h.thread_events("T1_p1")]
    assert [(e.kind, e.var, e.val) for e in t1] == [
        ("rd", "x1", 1),
        ("wr", "p1", 1),
        ("rd", "x1", 1),
    ]
    # clause reader threads pair the slots cyclically
    c1 = [evs[e] for e in h.thread_events("C1_1")]
    assert [(e.kind, e.var, e.val) for e in c1] == [
        ("rd", "p1", 0),
        ("rd", "p1", 1),
    ]
    # counts: k = 2n + 2|L|, events = 2n + 6|L| + 6m
    assert h.k == 4
    assert h.n == 14


def test_negated_literal_write_values():
    cnf = Cnf3(1, ((-1, -1, -1),))
    h = sat_to_history_sc(cnf)
    evs = events(h)
    t0 = [evs[e] for e in h.thread_events("T0_n1")]
    assert [(e.kind, e.var, e.val) for e in t0] == [
        ("rd", "x1", 0),
        ("wr", "n1", 1),
        ("rd", "x1", 0),
    ]


def test_clause_thread_slot_wiring():
    cnf = Cnf3(3, ((1, 2, 3),))
    h = sat_to_history_sc(cnf)
    evs = events(h)
    c1 = [evs[e] for e in h.thread_events("C1_1")]
    c2 = [evs[e] for e in h.thread_events("C1_2")]
    c3 = [evs[e] for e in h.thread_events("C1_3")]
    assert [(e.var, e.val) for e in c1] == [("p3", 0), ("p1", 1)]
    assert [(e.var, e.val) for e in c2] == [("p1", 0), ("p2", 1)]
    assert [(e.var, e.val) for e in c3] == [("p2", 0), ("p3", 1)]


def test_relaxed_instance_shapes():
    cnf = Cnf3(1, ((1, 1, 1),))
    h = sat_to_history_relaxed(cnf)
    evs = events(h)
    t0 = [evs[e] for e in h.thread_events("T0_p1")]
    assert [(e.kind, e.var, e.val) for e in t0] == [
        ("rd", "x1", 0),
        ("wr", "p1", 0),
    ]
    u0 = [evs[e] for e in h.thread_events("U0_p1")]
    assert [(e.kind, e.var, e.val) for e in u0] == [
        ("rd", "p1", 0),
        ("rd", "x1", 0),
    ]
    # same write count, two extra events per literal
    assert h.k == 4
    assert h.n == 16  # 2n + 8|L| + 6m


def test_relaxed_instance_has_no_relaxable_po_pairs():
    cnf = Cnf3(2, ((1, -2, 2), (-1, 2, -2)))
    h = sat_to_history_relaxed(cnf)
    evs = events(h)
    for a in range(h.n):
        for b in range(h.n):
            if po_before(h, a, b):
                assert not evs[a].is_write


def test_relaxed_instance_is_strict_with_trailing_guards_moved_out():
    """The relaxed instance is the strict one with each literal thread's
    last read moved out: after the literal's two threads T0 and T1 come
    U0 and U1, where U{side} reads the value T{side} writes and then the
    read T{side} dropped."""
    rng = random.Random(2015)
    cnfs = [cnf for cnf, *_ in PINNED_REDUCTIONS]
    for _ in range(200):
        n = rng.randint(1, 4)
        pool = list(range(1, n + 1)) + [-v for v in range(1, n + 1)]
        cnfs.append(Cnf3(n, tuple(
            tuple(rng.choice(pool) for _ in range(3))
            for _ in range(rng.randint(1, 6))
        )))
    for cnf in cnfs:
        strict = sat_to_history_sc(cnf)
        access = strict.access
        blocks, moved = [], []
        for t in strict.threads:
            block = [access[e] for e in strict.thread_events(t)]
            if len(block) < 3:  # a variable or clause thread
                blocks.append((t, block))
                continue
            blocks.append((t, block[:2]))
            (_, lit, val), dropped = block[1:]
            moved.append((f"U{t[1:]}", [("rd", lit, val), dropped]))
            if len(moved) == 2:
                blocks += moved
                moved = []
        assert not moved
        relaxed = history_from_blocks(threads=blocks)
        assert format_history(relaxed) == format_history(
            sat_to_history_relaxed(cnf)
        )


def test_write_count_formula():
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        pool = list(range(1, n + 1)) + [-v for v in range(1, n + 1)]
        clauses = tuple(
            tuple(rng.choice(pool) for _ in range(3)) for _ in range(m)
        )
        cnf = Cnf3(n, clauses)
        expected_k = 2 * n + 2 * len(cnf.literals)
        assert sat_to_history_sc(cnf).k == expected_k
        assert sat_to_history_relaxed(cnf).k == expected_k


def test_oversized_header_is_refused_before_building():
    # Every write is a base-graph vertex, so past the ceiling of
    # `table_bytes(k, k)` no check could build the instance's tables: the
    # compilers refuse it from the header's count, without building it.
    cnf = parse_dimacs("p cnf 100000000 1\n1 2 3 0\n")
    tracemalloc.start()
    try:
        for build in (sat_to_history_sc, sat_to_history_relaxed):
            with pytest.raises(ResourceBoundError, match="k=200000006 "):
                build(cnf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # k = 32,601 is the largest k within the ceiling; k is even here
    edge = "p cnf {} 1\n1 2 3 0\n"
    assert sat_to_history_sc(parse_dimacs(edge.format(16297))).k == 32600
    with pytest.raises(ResourceBoundError, match="k=32602 "):
        sat_to_history_relaxed(parse_dimacs(edge.format(16298)))


def test_too_many_clauses_are_refused_before_building():
    # Each clause adds six events that k does not count: past the ceiling
    # at `EVENT_BYTES` per event, the compilers refuse from the counts.
    cnf = Cnf3(3, ((1, 2, 3),) * 500_000)
    tracemalloc.start()
    try:
        for build, n in [
            (sat_to_history_sc, 3_000_024),
            (sat_to_history_relaxed, 3_000_030),
        ]:
            with pytest.raises(ResourceBoundError) as exc:
                build(cnf)
            assert str(exc.value) == f"{n} events: memory ceiling"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _parse_peak(text):
    """The error that parsing `text` raises, and the parse's tracemalloc
    peak in bytes."""
    tracemalloc.start()
    try:
        with pytest.raises(MmcheckError) as exc:
            parse_dimacs(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return exc.value, peak


def test_too_many_promised_clauses_are_refused_at_the_problem_line():
    # 600,000 clauses would compile to 3.6 million events, past the
    # ceiling: the problem line is refused before any clause is read, a
    # later line's fault included.
    text = "p cnf 3 600000\n" + "1 2 3 0\n" * 600_000 + "1 a\n"
    error, peak = _parse_peak(text)
    assert type(error) is ResourceBoundError
    assert str(error) == "600000 clauses: memory ceiling"
    assert peak < 1 << 20


def test_a_clause_past_the_promised_count_is_refused_at_its_clause():
    text = "p cnf 3 10\n" + "1 2 3 0\n" * 1_000_000
    error, peak = _parse_peak(text)
    assert type(error) is MalformedDimacsError
    assert str(error) == "problem line promises 10 clauses, found more"
    assert peak < 1 << 20


def test_promised_clauses_bound_edge(monkeypatch):
    # A ceiling of six events per promised clause admits the document;
    # one byte less refuses it at the problem line.
    cnf = Cnf3(3, ((1, 2, 3), (-1, 2, -3)) * 5)
    text = format_dimacs(cnf)
    edge = len(cnf.clauses) * CLAUSE_EVENTS * EVENT_BYTES
    monkeypatch.setattr(reduction, "MEMORY_CEILING", edge)
    assert parse_dimacs(text) == cnf
    monkeypatch.setattr(reduction, "MEMORY_CEILING", edge - 1)
    with pytest.raises(ResourceBoundError, match="^10 clauses: memory ceiling$"):
        parse_dimacs(text)


def test_event_bound_edge(monkeypatch):
    # The bound counts exactly the events built: a ceiling of n events
    # admits the instance, one byte less refuses it.
    cnf = Cnf3(3, ((1, 2, 3), (-1, 2, -3)) * 5)
    for build in (sat_to_history_sc, sat_to_history_relaxed):
        n = build(cnf).n
        monkeypatch.setattr(reduction, "MEMORY_CEILING", n * EVENT_BYTES)
        assert build(cnf).n == n
        monkeypatch.setattr(reduction, "MEMORY_CEILING", n * EVENT_BYTES - 1)
        with pytest.raises(ResourceBoundError) as exc:
            build(cnf)
        assert str(exc.value) == f"{n} events: memory ceiling"
        monkeypatch.undo()


def test_emitted_instances_round_trip():
    cnf = Cnf3(2, ((1, -2, 2), (-1, 2, -2)))
    for build in (sat_to_history_sc, sat_to_history_relaxed):
        h = build(cnf)
        text = format_history(h)
        assert format_history(parse_history(text)) == text


def test_relaxed_and_strict_instances_agree_under_sc():
    rng = random.Random(31337)
    sc = get_model("sc")
    for _ in range(25):
        n = rng.randint(2, 3)
        pool = list(range(1, n + 1)) + [-v for v in range(1, n + 1)]
        clauses = tuple(
            tuple(rng.sample(pool, 3)) for _ in range(rng.randint(1, 3))
        )
        cnf = Cnf3(n, clauses)
        strict = solve(sat_to_history_sc(cnf), sc).consistent
        relaxed = solve(sat_to_history_relaxed(cnf), sc).consistent
        assert strict == relaxed == sat_brute_force(cnf)


# A satisfiable formula whose compiled instances `solve` and `oracle_store`
# call inconsistent: a known defect of the reduction, not of the deciders.
SATISFIABLE_BUT_INCONSISTENT = Cnf3(
    3, ((1, -3, -2), (3, 1, 2), (-3, -2, -1), (2, 1, 3), (-1, -2, -3))
)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: the reduction maps this satisfiable formula to "
    "an inconsistent instance",
)
def test_satisfiable_counterexample_compiles_to_consistent_instances():
    cnf = SATISFIABLE_BUT_INCONSISTENT
    if not sat_brute_force(cnf):
        pytest.fail("the counterexample must be satisfiable")
    cases = [(sat_to_history_sc, "sc")] + [
        (sat_to_history_relaxed, name) for name in ("sc", "tso", "pso")
    ]
    for build, name in cases:
        h, spec = build(cnf), get_model(name)
        assert solve(h, spec).consistent
        assert oracle_store(h, spec).consistent


def test_sat_brute_force_examples():
    assert sat_brute_force(Cnf3(1, ((1, 1, 1),)))
    assert not sat_brute_force(Cnf3(1, ((1, 1, 1), (-1, -1, -1))))
    with pytest.raises(TooManyVarsError):
        sat_brute_force(Cnf3(21, ()))


def test_sat_brute_force_matches_truth_table():
    rng = random.Random(99)
    for _ in range(40):
        n = 3
        pool = list(range(1, 4)) + [-v for v in range(1, 4)]
        clauses = tuple(
            tuple(rng.choice(pool) for _ in range(3)) for _ in range(3)
        )
        cnf = Cnf3(n, clauses)
        expected = any(
            all(
                any(
                    (lit > 0) == bool(assign[abs(lit) - 1])
                    for lit in clause
                )
                for clause in clauses
            )
            for assign in itertools.product([0, 1], repeat=n)
        )
        assert sat_brute_force(cnf) == expected


def test_unit_clause_instances_track_satisfiability():
    # full unit clauses make the guard forcing coincide with the clause
    sc = get_model("sc")
    for clauses, expected in [
        (((1, 1, 1),), True),
        (((1, 1, 1), (-1, -1, -1)), False),
        (((2, 2, 2), (-1, -1, -1)), True),
    ]:
        cnf = Cnf3(2, clauses)
        assert sat_brute_force(cnf) == expected
        assert solve(sat_to_history_sc(cnf), sc).consistent == expected


def test_mixed_repeat_clauses_force_literals():
    """Pins a known defect, not intended behaviour: the guard pairing
    forces a literal repeated beside a different one true, so the
    satisfiable ``(1,1,2),(-1,-1,3)`` compiles to an sc-inconsistent
    instance. When ROADMAP item 1 lands this assertion fails and the test
    is restated to assert consistency."""
    cnf = Cnf3(3, ((1, 1, 2), (-1, -1, 3)))
    assert sat_brute_force(cnf)  # satisfiable as a formula
    # the defect: the instance forces both x1 and not-x1
    assert not solve(sat_to_history_sc(cnf), get_model("sc")).consistent
