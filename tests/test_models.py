"""Model derivation: preserved program order, visible reads-from, checks."""

from __future__ import annotations

import random

import pytest

from mmcheck import (
    MODELS,
    EventGraph,
    derive,
    generate_program,
    get_model,
    oota_cycle,
    parse_history,
    program_orders,
    rf_external,
    simulate,
)
from mmcheck.errors import UnknownModelError
from mmcheck.graphs import find_cycle

from conftest import OOTA, long_traces, with_random_dp
from helpers import closed_pairs, graph_edges, reference_po, resolve_ref


def test_model_registry_flags():
    for name, spec in MODELS.items():
        expected = name == "rmo"
        assert spec.dp_only is expected
        assert spec.sees_internal_rf is (name == "sc")


def test_get_model_case_insensitive():
    assert get_model("TSO") is MODELS["tso"]
    with pytest.raises(UnknownModelError):
        get_model("xyz")


def test_rf_external_examples():
    h = parse_history("thread T0\nwr x 1\nrd x 1\n")
    assert rf_external(h) == frozenset()

    h = parse_history("thread T0\nwr x 1\nthread T1\nrd x 1\n")
    assert rf_external(h) == h.rf

    h = parse_history("init: x=0\nthread T0\nrd x 0\n")
    assert rf_external(h) == frozenset()


def test_derive_sc_is_identity():
    h = parse_history("init: x=0 y=0\nthread T0\nwr x 1\nrd y 0\n")
    sc = get_model("sc")
    po, _ = program_orders(h, sc)
    assert closed_pairs(h, po) == reference_po(h)
    mm = derive(h, sc).graphs()[1]
    assert sorted(graph_edges(mm)) == sorted([*po, *h.rf])


def test_sc_program_order_is_one_chain_per_thread():
    # 4 threads of 150 events and 5 initial writes: 149 chain edges per
    # thread, and an edge from each initial write to each thread's head
    prog = generate_program(4, 150, 5, seed=6060, max_writes=10)
    h = simulate(prog, "sc", seed=6061)
    assert h.n == 605 and len(h.thread_events("init")) == 5
    po, _ = program_orders(h, get_model("sc"))
    assert len(po) == 4 * 149 + 5 * 4 == 616
    assert closed_pairs(h, po) == reference_po(h)


def test_derive_tso_drops_write_read_pairs():
    h = parse_history("init: y=0\nthread T0\nwr x 1\nrd y 0\n")
    wx = resolve_ref(h, "T0", 0)
    ry = resolve_ref(h, "T0", 1)
    iy = resolve_ref(h, "init", 0)
    po_mm = closed_pairs(h, program_orders(h, get_model("tso"))[0])
    assert (wx, ry) not in po_mm
    assert (iy, ry) not in po_mm  # init writes are writes too
    assert (iy, wx) in po_mm  # write-write pairs survive tso


def test_derive_pso_drops_write_write_pairs():
    h = parse_history("thread T0\nwr x 1\nwr y 1\n")
    assert not program_orders(h, get_model("pso"))[0]


def test_derive_rmo_uses_dp():
    h = parse_history(OOTA)
    mm = derive(h, get_model("rmo")).graphs()[1]
    assert sorted(graph_edges(mm)) == sorted([*h.dp, *rf_external(h)])


def test_derive_rmo_empty_dp_default():
    h = parse_history("thread T0\nwr x 1\nrd x 1\n")
    mm = derive(h, get_model("rmo")).graphs()[1]
    assert not h.dp and not graph_edges(mm)


def test_po_loc_effective_matches_llh_flag():
    h = parse_history("init: x=0\nthread T0\nrd x 0\nrd x 0\n")
    r1 = resolve_ref(h, "T0", 0)
    r2 = resolve_ref(h, "T0", 1)
    sc = program_orders(h, get_model("sc"))[1]
    rmo = program_orders(h, get_model("rmo"))[1]
    assert (r1, r2) in closed_pairs(h, sc)
    assert (r1, r2) not in closed_pairs(h, rmo)


def test_strength_chain(small_corpus):
    for h in small_corpus:
        sc, tso, pso = (
            closed_pairs(h, program_orders(h, get_model(name))[0])
            for name in ("sc", "tso", "pso")
        )
        assert pso <= tso <= sc
        # tso and pso see `rf_external`, sc all of reads-from
        assert rf_external(h) <= h.rf


def test_derive_is_pure(small_corpus):
    h = small_corpus[0]
    spec = get_model("tso")
    a, b = derive(h, spec), derive(h, spec)
    rows = [(g.adj, g.in_degree) for g in a.graphs()]
    assert rows == [(g.adj, g.in_degree) for g in b.graphs()]
    assert rows == [(g.adj, g.in_degree) for g in a.graphs()]


def test_graphs_join_the_model_relations(small_corpus):
    # the rows of both full graphs are exactly those of the joined edge
    # lists of each relation, in this order, under every model
    rng = random.Random(3404)
    histories = [*small_corpus, *long_traces()]
    histories += filter(None, [with_random_dp(h, rng) for h in histories])
    for h in histories:
        for spec in MODELS.values():
            po, po_loc = program_orders(h, spec)
            rf_mm = h.rf if spec.sees_internal_rf else rf_external(h)
            want = (
                EventGraph(h.n, [*po_loc, *h.rf]),
                EventGraph(h.n, [*(h.dp if spec.dp_only else po), *rf_mm]),
            )
            for g, w in zip(derive(h, spec).graphs(), want, strict=True):
                assert (g.n, g.adj, g.in_degree) == (w.n, w.adj, w.in_degree)


def test_oota_examples():
    # no dependencies: reads-from alone cannot cycle
    h = parse_history("thread T0\nwr x 1\nrd x 1\n")
    assert oota_cycle(h) is None

    assert oota_cycle(parse_history(OOTA)) is not None

    h = parse_history(
        "thread T0\nrd x 1\nwr y 1\nthread T1\nwr x 1\ndp T0:0 -> T0:1\n"
    )
    assert oota_cycle(h) is None



def test_oota_cycle_matches_the_full_union(small_corpus):
    # The graph on the dependency endpoints reports the cycle that the
    # graph of every dependency and reads-from edge reports.  In the first
    # history the union's search starts at T0:1, a read that no
    # dependency edge touches.
    rng = random.Random(4545)
    histories = [
        parse_history(
            "init: x=0\nthread T0\nrd x 0\nrd x 1\n"
            "thread T1\nrd x 1\nwr x 1\ndp T1:0 -> T1:1\n"
        )
    ]
    for _ in range(4):
        histories += filter(None, (with_random_dp(h, rng) for h in small_corpus))
    cyclic = 0
    for h in histories:
        full = find_cycle(EventGraph(h.n, h.dp, h.rf))
        assert oota_cycle(h) == full
        cyclic += full is not None
    assert cyclic >= 10
