"""Trace parsing, serialization, and history assembly."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmcheck import (
    Cnf3,
    assemble_history,
    format_history,
    generate_program,
    get_model,
    parse_history,
    sat_to_history_relaxed,
    sat_to_history_sc,
    simulate,
    solve,
)
from mmcheck.errors import (
    AmbiguousRfError,
    DanglingRefError,
    DuplicateValueError,
    InvalidDpError,
    MmcheckError,
    TraceSyntaxError,
    UnsourcedReadError,
)

from mmcheck.events import INIT_THREAD

from conftest import SB, MP, CORR, OOTA
from helpers import events, reads, resolve_ref, rf_source


def test_empty_document():
    h = parse_history("")
    assert h.n == 0 and h.k == 0
    assert not h.rf and not h.dp
    assert format_history(h) == ""


def test_unique_writer_forces_rf():
    h = parse_history("thread T0\nwr x 1\nthread T1\nrd x 1\n")
    w = resolve_ref(h, "T0", 0)
    r = resolve_ref(h, "T1", 0)
    assert h.rf == {(w, r)}
    assert not h.po_before(w, r)  # no init, different threads


def test_duplicate_value_rejected():
    with pytest.raises(DuplicateValueError):
        parse_history("thread T0\nwr x 1\nwr x 1\n")
    with pytest.raises(DuplicateValueError):
        parse_history("init: x=0\nthread T0\nwr x 0\n")
    with pytest.raises(DuplicateValueError):
        parse_history("init: x=0 x=1\n")


def test_event_ids_document_order():
    h = parse_history(SB)
    assert [(e.thread, e.pos) for e in events(h)] == [
        ("init", 0),
        ("init", 1),
        ("T0", 0),
        ("T0", 1),
        ("T1", 0),
        ("T1", 1),
    ]
    assert h.n == 6 and h.k == 4


def test_init_precedes_everything():
    h = parse_history(SB)
    for iw in (0, 1):
        for other in range(2, h.n):
            assert h.po_before(iw, other)
            assert not h.po_before(other, iw)
    # initial writes stay unordered among themselves
    assert not h.po_before(0, 1) and not h.po_before(1, 0)


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(TraceSyntaxError) as exc:
        parse_history("thread T0\nwr x\n")
    assert exc.value.lineno == 2
    with pytest.raises(TraceSyntaxError):
        parse_history("wr x 1\n")  # access outside a thread block
    with pytest.raises(TraceSyntaxError):
        parse_history("thread T0\nthread T0\n")
    with pytest.raises(TraceSyntaxError):
        parse_history("thread init\n")
    with pytest.raises(TraceSyntaxError):
        parse_history("init: x=0\ninit: y=0\n")
    with pytest.raises(TraceSyntaxError):
        parse_history("thread T0\ninit: x=0\n")
    with pytest.raises(TraceSyntaxError) as exc:
        parse_history("init: x=0y=1\n")  # no separator between assignments
    assert exc.value.lineno == 1
    with pytest.raises(TraceSyntaxError, match="empty init line") as exc:
        parse_history("init:\nthread T0\nwr x 1\n")
    assert exc.value.lineno == 1
    # integers beyond the unsigned 64-bit range, and integer literals
    # beyond int()'s 4,300-digit limit
    huge = "9" * 5000
    for doc, lineno in [
        (f"thread T0\nwr x 1\nwr x {2**64}\n", 3),
        ("thread T0\nwr x 1\nrd x 18446744073709551616  # 2^64\n", 3),
        (f"init: x={2**64}\n", 1),
        (f"thread T0\nrd x 0\nwr y 1\ndp T0:0 -> T0:{2**64}\n", 4),
        (f"thread T0\nwr x {huge}\n", 2),
        (f"init: x={huge}\n", 1),
        (f"thread T0\nwr x 1\nthread T1\nrd x 1\nrf T0:{huge} -> T1:0\n", 5),
        (f"thread T0\nrd x 0\nwr y 1\ndp T0:0 -> T0:{huge}\n", 4),
    ]:
        with pytest.raises(TraceSyntaxError) as exc:
            parse_history(doc)
        assert exc.value.lineno == lineno
    # values of up to 19 digits skip the range check; longer ones, zero
    # padding included, take it
    for digits, val in [
        ("9" * 19, 10**19 - 1),
        ("1" + "0" * 18, 10**18),
        ("0" * 18 + "7", 7),
        ("18446744073709551615", 2**64 - 1),
        ("0" * 24 + "7", 7),
    ]:
        h = parse_history(f"thread T0\nwr x {digits}\nrd x {digits}\n")
        assert [e.val for e in events(h)] == [val, val]
    # library callers keep the range check, with no line to name
    for val in (-1, 2**64):
        with pytest.raises(TraceSyntaxError) as exc:
            assemble_history(init=[], threads=[("T0", [("wr", "x", val)])])
        assert exc.value.lineno is None


def test_unsourced_read():
    with pytest.raises(UnsourcedReadError):
        parse_history("thread T0\nrd x 1\n")


def test_explicit_rf_must_cover_all_reads():
    text = (
        "thread T0\nwr x 1\nthread T1\nrd x 1\nrd x 1\n"
        "rf T0:0 -> T1:0\n"
    )
    with pytest.raises(UnsourcedReadError):
        parse_history(text)


def test_explicit_rf_contradictions():
    base = "thread T0\nwr x 1\nwr y 2\nthread T1\nrd x 1\n"
    with pytest.raises(AmbiguousRfError):
        parse_history(base + "rf T0:1 -> T1:0\n")  # different variables
    with pytest.raises(AmbiguousRfError):
        parse_history(base + "rf T1:0 -> T0:0\n")  # read as source
    with pytest.raises(DanglingRefError):
        parse_history(base + "rf T9:0 -> T1:0\n")
    two_writes = "thread T0\nwr x 1\nwr x 2\nthread T1\nrd x 1\n"
    with pytest.raises(AmbiguousRfError):
        parse_history(two_writes + "rf T0:1 -> T1:0\n")  # value mismatch
    with pytest.raises(AmbiguousRfError):
        parse_history(
            two_writes + "rf T0:0 -> T1:0\nrf T0:0 -> T1:0\n"
        )  # read covered twice


def test_dp_validation():
    ok = parse_history(
        "init: x=0\nthread T0\nrd x 0\nwr y 1\ndp T0:0 -> T0:1\n"
    )
    assert len(ok.dp) == 1
    with pytest.raises(InvalidDpError):
        parse_history(
            "init: x=0\nthread T0\nwr y 1\nrd x 0\ndp T0:0 -> T0:1\n"
        )  # write-sourced
    with pytest.raises(InvalidDpError):
        parse_history(
            "init: x=0\nthread T0\nrd x 0\nthread T1\nwr y 1\n"
            "dp T0:0 -> T1:0\n"
        )  # crosses threads, not in po
    with pytest.raises(DanglingRefError):
        parse_history("init: x=0\nthread T0\nrd x 0\ndp T0:0 -> T0:9\n")


def test_comments_and_blank_lines():
    h = parse_history("# header\n\ninit: x=0  # tail comment\n\nthread T0\nrd x 0\n")
    assert h.n == 2


@pytest.mark.parametrize("text", [SB, MP, CORR, OOTA])
def test_round_trip_byte_identity(text):
    h = parse_history(text)
    once = format_history(h, explicit_rf=bool(h.dp))
    again = format_history(parse_history(once), explicit_rf=bool(h.dp))
    assert once == again


def _assert_indexes_match_definitions(h):
    # Each value is written once per variable, and explicit rf edges must
    # match values, so a read's writer is the write of its (var, value)
    # whether reads-from was inferred or given.
    evs = events(h)
    assert h.writes == tuple(e.id for e in evs if e.is_write)
    assert h.write_vars == tuple(e.var for e in evs if e.is_write)
    read_ids = sorted(r for w in h.writes for r in h.readers_of(w))
    assert read_ids == [e.id for e in evs if e.is_read]
    writer = {(e.var, e.val): e.id for e in evs if e.is_write}
    rf = {(writer[e.var, e.val], e.id) for e in evs if e.is_read}
    assert h.rf == rf
    for e in evs:
        assert resolve_ref(h, e.thread, e.pos) == e.id
        if e.is_write:
            readers = sorted(r for w, r in rf if w == e.id)
            assert h.readers_of(e.id) == tuple(readers)
        else:
            assert rf_source(h, e.id) == writer[e.var, e.val]
    for v in h.variables:
        writes = [e.id for e in evs if e.is_write and e.var == v]
        assert h.writes_on(v) == tuple(writes)
    for t in (INIT_THREAD, *h.threads):
        assert h.thread_events(t) == tuple(e.id for e in evs if e.thread == t)


def test_round_trip_preserves_relations(small_corpus):
    litmus = [parse_history(text) for text in (SB, MP, CORR, OOTA)]
    for h1 in litmus + small_corpus[:40]:
        _assert_indexes_match_definitions(h1)
        text = format_history(h1, explicit_rf=True)
        lines = text.splitlines()
        rf_lines = [line for line in lines if line.startswith("rf ")]
        other = [line for line in lines if not line.startswith("rf ")]
        # inferred rf, explicit rf in read order, and explicit rf with the
        # readers of each write arriving out of read order
        for doc in (
            format_history(h1),
            text,
            "\n".join(other + rf_lines[::-1]) + "\n",
        ):
            h2 = parse_history(doc)
            assert events(h1) == events(h2) and h1.threads == h2.threads
            assert h1.rf == h2.rf and h1.dp == h2.dp
            _assert_indexes_match_definitions(h2)


def _assert_same_history(a, b):
    # every column and index of two histories
    assert a.access == b.access and a.thread_of == b.thread_of
    assert events(a) == events(b) and a.threads == b.threads
    assert a.writes == b.writes and a.write_vars == b.write_vars
    assert reads(a) == reads(b) and a.variables == b.variables
    assert a.rf == b.rf and a.dp == b.dp
    for t in ("init", *a.threads):
        assert a.thread_events(t) == b.thread_events(t)
    for v in a.variables:
        assert a.writes_on(v) == b.writes_on(v)
    for w in a.writes:
        assert a.readers_of(w) == b.readers_of(w)
    assert [rf_source(a, r) for r in reads(a)] == [
        rf_source(b, r) for r in reads(b)
    ]


def test_fresh_tuples_assemble_as_their_parse():
    # The parser passes one tuple per distinct access line; `simulate`, the
    # reductions and library callers pass a tuple per event.  Equal tuples
    # group alike either way.
    histories = [
        simulate(generate_program(3, 12, 2, seed=s, max_writes=4), m, seed=s)
        for s, m in enumerate(("sc", "tso", "pso") * 3)
    ]
    cnf = Cnf3(3, ((1, 2, -3), (-1, 2, 3), (1, -2, 3)))
    histories += [sat_to_history_sc(cnf), sat_to_history_relaxed(cnf)]
    for h in histories:
        evs = events(h)
        threads = [
            (t, [(e.kind, e.var, e.val) for e in evs if e.thread == t])
            for t in h.threads
        ]
        rebuilt = assemble_history(
            init=[(e.var, e.val) for e in evs if e.is_init], threads=threads
        )
        parsed = parse_history(format_history(h))
        _assert_same_history(h, parsed)
        _assert_same_history(rebuilt, parsed)
        _assert_indexes_match_definitions(rebuilt)


# Two faults in one document, one per piece: the earlier event's is
# reported, as it is alone.  A value written twice sits at its second
# write, a thread name taken twice at its second block.
_FAULTS = {
    "bad kind": [("K", [("xx", "k", 1)])],
    "out of range": [("R", [("rd", "r", 2**64)])],
    "duplicate value": [("D0", [("wr", "d", 1)]), ("D1", [("wr", "d", 1)])],
    "unsourced read": [("U", [("rd", "u", 1)])],
    "duplicate thread": [("N", [("wr", "n", 1)]), ("N", [("rd", "n", 1)])],
}


def _fault(threads):
    with pytest.raises(MmcheckError) as exc:
        assemble_history(init=[("z", 0)], threads=threads)
    return type(exc.value), str(exc.value)


@pytest.mark.parametrize("first", _FAULTS)
def test_earliest_of_two_faults_is_reported(first):
    alone = _fault(_FAULTS[first])
    for second, blocks in _FAULTS.items():
        if second != first:
            assert _fault(_FAULTS[first] + blocks) == alone, second


def test_refs_are_thread_position_pairs():
    threads = [
        ("T0", [("rd", "x", 0), ("wr", "y", 1)]),
        ("T1", [("rd", "y", 1)]),
    ]
    h = assemble_history(
        init=[("x", 0)],
        threads=threads,
        rf_refs=[(("init", 0), ("T0", 0)), (("T0", 1), ("T1", 0))],
        dp_refs=[(("T0", 0), ("T0", 1))],
    )
    parsed = parse_history(
        "init: x=0\nthread T0\nrd x 0\nwr y 1\nthread T1\nrd y 1\n"
        "dp T0:0 -> T0:1\n"
    )
    assert events(h) == events(parsed)
    assert h.rf == parsed.rf and h.dp == parsed.dp
    for bad in (("T0", 2), ("T0", -1), ("T9", 0)):
        with pytest.raises(DanglingRefError):
            assemble_history(
                init=[("x", 0)], threads=threads, dp_refs=[(("T0", 0), bad)]
            )
        with pytest.raises(DanglingRefError):
            resolve_ref(h, *bad)


def test_repeated_read_values_allowed():
    h = parse_history("thread T0\nwr x 1\nrd x 1\nrd x 1\n")
    assert h.n == 3 and len(h.rf) == 2


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=120))
def test_parser_raises_only_package_errors(text):
    try:
        parse_history(text)
    except MmcheckError:
        pass


# Repeated access lines: the parser keeps each line's parsed access by its
# raw text, so these pin that a repeat behaves as its first occurrence.


def test_repeated_access_line_before_any_thread():
    with pytest.raises(TraceSyntaxError) as exc:
        parse_history("# header\nwr x 1\nwr x 1\nthread T0\n")
    assert exc.value.lineno == 2
    assert "access outside a thread block" in str(exc.value)


def test_repeated_write_line_names_both_refs():
    with pytest.raises(DuplicateValueError) as exc:
        parse_history("thread T0\nwr x 1\nrd x 1\nthread T1\nwr x 1\n")
    assert "T0:0" in str(exc.value) and "T1:0" in str(exc.value)


def test_repeated_out_of_range_value_raises_at_first_line():
    line = f"rd x {2**64}\n"
    with pytest.raises(TraceSyntaxError) as exc:
        parse_history("thread T0\nwr x 1\n" + line + line)
    assert exc.value.lineno == 3


def test_access_spellings_parse_alike():
    plain = "init: x=0\nthread T0\nwr x 1\nrd x 0\nthread T1\nrd x 1\nrd x 1\n"
    h = parse_history(plain)
    for text in (
        plain.replace("rd x 1\n", "rd   x\t1  \n", 1),
        plain.replace("rd x 1\n", "rd x 1  # seen\n", 1),
        plain.replace("\n", "\r\n"),
    ):
        other = parse_history(text)
        assert events(other) == events(h)
        assert other.rf == h.rf and other.dp == h.dp


_ACCESS_LINE = re.compile(r"(wr|rd)\s+([A-Za-z_][A-Za-z0-9_]*)\s+(\d+)\s*")
# The documents open with `init: x=0 y=0` and a thread writing x=1 and
# y=2; reads of those values, spelled several ways, are drawn most often,
# and a repeated write or an unmatched read makes an invalid document.
_PREFIX = "init: x=0 y=0\nthread W\nwr x 1\nwr y 2\n"
_READS = [
    "rd x 0", "rd x 1", "rd  x 1", "rd x 1 # again", "rd y 0", "rd y 2",
    "rd y\t2",
]
_POOL = _READS * 4 + ["wr x 3", "rd x 3", "wr x 1", "rd y 5"]


def _reference_parse(text):
    """Each line matched on its own: the parse the line memo must match."""
    threads = []
    for raw in text.splitlines()[1:]:  # past the init line
        line = raw.split("#", 1)[0].strip()
        if line.startswith("thread "):
            threads.append((line.split()[1], []))
        elif line:
            kind, var, val = _ACCESS_LINE.fullmatch(line).groups()
            threads[-1][1].append((kind, var, int(val)))
    return assemble_history(init=[("x", 0), ("y", 0)], threads=threads)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(_POOL), max_size=12), min_size=1, max_size=4
    )
)
def test_repeated_lines_parse_as_each_line_alone(blocks):
    text = _PREFIX + "".join(
        f"thread T{t}\n" + "".join(line + "\n" for line in block)
        for t, block in enumerate(blocks)
    )
    try:
        expected = _reference_parse(text)
    except MmcheckError as exc:
        with pytest.raises(type(exc)) as got:
            parse_history(text)
        assert str(got.value) == str(exc)
        return
    h = parse_history(text)
    assert events(h) == events(expected)
    assert h.rf == expected.rf and h.dp == expected.dp
    _assert_indexes_match_definitions(h)


@pytest.mark.parametrize("model", ["sc", "tso", "pso", "rmo"])
def test_solve_builds_no_event_records(model):
    # the per-event `access` column and the reads-from pairs stay unbuilt
    # through a consistent check of a long trace (rmo has no simulator and
    # checks the tso trace, which it allows)
    prog = generate_program(4, 150, 5, seed=91, max_writes=10)
    simulated = simulate(prog, "tso" if model == "rmo" else model, seed=92)
    h = parse_history(format_history(simulated))
    assert h.n == 605 and h.k == 15
    assert solve(h, get_model(model)).consistent
    assert (h._access, h._rf) == (None, None)
    assert len(h.thread_events(INIT_THREAD)) == 5
