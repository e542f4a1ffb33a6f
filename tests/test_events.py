"""Program-order invariants, reads-from indexes and inference, and assembly."""

from __future__ import annotations

import copy
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from mmcheck import (
    History,
    format_history,
    generate_program,
    get_model,
    parse_history,
    program_orders,
    simulate,
)
from mmcheck.events import assemble_history

from conftest import SB, TRACES
from helpers import closed_pairs, closure, po_before, reads, rf_source


def _po_loc(h, spec):
    return program_orders(h, spec)[1]


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
    assert po_before(h, 0, 1) and po_before(h, 1, 2) and po_before(h, 0, 2)
    for e in range(h.n):
        assert not po_before(h, e, e)
    ids = h.thread_events("T0")
    for i in range(len(ids)):
        for j in range(len(ids)):
            assert po_before(h, ids[i], ids[j]) == (i < j)


def test_po_loc_examples():
    sc, rmo = get_model("sc"), get_model("rmo")
    h = parse_history("thread T0\nwr x 1\nwr y 1\n")
    assert _po_loc(h, sc) == []

    h = parse_history("thread T0\nwr x 1\nrd x 1\nrd x 1\n")
    assert (1, 2) in closed_pairs(h, _po_loc(h, sc))
    assert (1, 2) not in closed_pairs(h, _po_loc(h, rmo))
    assert (0, 1) in closed_pairs(h, _po_loc(h, rmo))  # write-read pair

    h = parse_history("init: x=0\nthread T0\nrd x 0\nwr x 1\n")
    assert closed_pairs(h, _po_loc(h, sc)) == {(0, 1), (0, 2), (1, 2)}


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
    assert parse_history(format_history(h)).rf == h.rf
    assert len(h.rf) == len(reads(h))


def test_assembly_leaves_the_groups_as_passed():
    groups = {
        ("wr", "x", 0): [0],
        ("wr", "x", 1): [1],
        ("rd", "x", 1): [2, 4],
        ("rd", "x", 0): [3],
    }
    passed = copy.deepcopy(groups)
    h = assemble_history(groups, [("init", 1), ("T0", 3), ("T1", 1)])
    assert groups == passed
    assert all(type(ids) is list for ids in groups.values())
    assert h.readers_of(1) == (2, 4) and h.readers_of(0) == (3,)
    assert h.writes_on("x") == (0, 1)


def test_views_fill_no_slot():
    # Every view is built from the slots on each call: reading each of
    # them, on a history with explicit rf and dp lines, leaves every slot
    # holding the very object that assembly put there.
    h = parse_history((TRACES / "spelled.mmh").read_text())
    before = {name: getattr(h, name) for name in History.__slots__}
    assert len(h.access) == h.n and h.rf and h.variables == ("x", "y")
    assert [h.readers_of(w) for w in h.writes]
    assert [h.writes_on(v) for v in h.variables]
    assert [h.thread_events(t) for t in ("init", *h.threads)]
    assert [h.locate(i) for i in range(h.n)]
    for name, value in before.items():
        assert getattr(h, name) is value, name


def test_history_memory_per_event():
    # A history keeps each event id once: its groups as tuples, each read
    # group shared as its writer's readers.  About 40 bytes per event
    # (a 32-byte id int and its 8-byte slot) by tracemalloc on CPython
    # 3.11, x86-64; the bound fails a history that copies each read
    # group (49 bytes per event).
    program = generate_program(4, 50_000, 5, seed=7, max_writes=10)
    text = format_history(simulate(program, "tso", seed=8))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        h = parse_history(text)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert h.n == 200_005
    assert held < 44 * h.n
