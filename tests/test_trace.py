"""Trace parsing, serialization, and history assembly."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmcheck import assemble_history, parse_history, format_history
from mmcheck.errors import (
    AmbiguousRfError,
    DanglingRefError,
    DuplicateValueError,
    InvalidDpError,
    MmcheckError,
    TraceSyntaxError,
    UnsourcedReadError,
)

from conftest import SB, MP, CORR, OOTA


def test_empty_document():
    h = parse_history("")
    assert h.n == 0 and h.k == 0
    assert not h.rf and not h.dp
    assert format_history(h) == ""


def test_unique_writer_forces_rf():
    h = parse_history("thread T0\nwr x 1\nthread T1\nrd x 1\n")
    w = h.resolve_ref("T0", 0)
    r = h.resolve_ref("T1", 0)
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
    assert [(e.thread, e.pos) for e in h.events] == [
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
        assert [e.val for e in h.events] == [val, val]
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
    events = h.events
    assert h.writes == tuple(e.id for e in events if e.is_write)
    assert h.reads == tuple(e.id for e in events if e.is_read)
    for e in events:
        assert h.resolve_ref(e.thread, e.pos) == e.id
        if e.is_write:
            readers = sorted(r for w, r in h.rf if w == e.id)
            assert h.readers_of(e.id) == tuple(readers)
        else:
            assert [w for w, r in h.rf if r == e.id] == [h.rf_source(e.id)]
    for v in h.variables:
        writes = [e.id for e in events if e.is_write and e.var == v]
        assert h.writes_on(v) == tuple(writes)
    for t in h.threads:
        assert h.thread_events(t) == tuple(e.id for e in events if e.thread == t)
    assert h.init_events == tuple(e for e in events if e.is_init)


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
            assert h1.events == h2.events and h1.threads == h2.threads
            assert h1.rf == h2.rf and h1.dp == h2.dp
            _assert_indexes_match_definitions(h2)


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
    assert h.events == parsed.events
    assert h.rf == parsed.rf and h.dp == parsed.dp
    for bad in (("T0", 2), ("T0", -1), ("T9", 0)):
        with pytest.raises(DanglingRefError):
            assemble_history(
                init=[("x", 0)], threads=threads, dp_refs=[(("T0", 0), bad)]
            )
        with pytest.raises(DanglingRefError):
            h.resolve_ref(*bad)


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
