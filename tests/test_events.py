"""Program-order invariants, reads-from indexes, and reads-from inference."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from mmcheck import (
    format_history,
    generate_program,
    get_model,
    parse_history,
    po_loc,
    simulate,
)

from conftest import SB
from helpers import closure, reads, rf_source


def _closed_pairs(h, edges):
    reach = closure(h.n, edges)
    return {(a, b) for a in range(h.n) for b in range(h.n) if reach[a] >> b & 1}


def test_transitive_closure():
    reach = closure(4, [(0, 1), (1, 2), (2, 3)])
    assert reach[0] >> 3 & 1
    assert not reach[3] >> 0 & 1
    assert reach[3] == 0


def test_adjacency_indexes_consistent():
    h = parse_history(SB)
    for w, r in h.rf:
        assert rf_source(h, r) == w
        assert r in h.readers_of(w)
    assert sum(len(h.readers_of(w)) for w in h.writes) == len(h.rf)
    assert h.readers_of(reads(h)[0]) == ()


def test_po_transitive_and_irreflexive_within_threads():
    h = parse_history("thread T0\nwr x 1\nrd x 1\nwr y 1\n")
    assert h.po_before(0, 1) and h.po_before(1, 2) and h.po_before(0, 2)
    for e in range(h.n):
        assert not h.po_before(e, e)
    ids = h.thread_events("T0")
    for i in range(len(ids)):
        for j in range(len(ids)):
            assert h.po_before(ids[i], ids[j]) == (i < j)


def test_po_loc_examples():
    sc, rmo = get_model("sc"), get_model("rmo")
    h = parse_history("thread T0\nwr x 1\nwr y 1\n")
    assert po_loc(h, sc) == []

    h = parse_history("thread T0\nwr x 1\nrd x 1\nrd x 1\n")
    assert (1, 2) in _closed_pairs(h, po_loc(h, sc))
    assert (1, 2) not in _closed_pairs(h, po_loc(h, rmo))
    assert (0, 1) in _closed_pairs(h, po_loc(h, rmo))  # write-read pair

    h = parse_history("init: x=0\nthread T0\nrd x 0\nwr x 1\n")
    assert _closed_pairs(h, po_loc(h, sc)) == {(0, 1), (0, 2), (1, 2)}


def test_infer_rf_examples():
    h = parse_history("thread T0\nwr x 1\nwr y 1\n")
    assert h.rf == frozenset()

    h = parse_history("init: x=0\nthread T0\nrd x 0\n")
    assert h.rf == {(0, 1)}

    h = parse_history("thread T0\nwr x 1\nthread T1\nwr x 2\nthread T2\nrd x 2\n")
    assert h.rf == {(1, 2)}


def test_infer_rf_idempotent_and_total():
    h = parse_history(SB)
    assert parse_history(format_history(h)).rf == h.rf
    assert len(h.rf) == len(reads(h))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6))
def test_infer_rf_reproduces_simulated_rf(seed):
    prog = generate_program(2, 3, 2, seed=seed, max_writes=4)
    h = simulate(prog, "tso", seed=seed + 1)
    assert parse_history(format_history(h, explicit_rf=False)).rf == h.rf
    assert len(h.rf) == len(reads(h))
