"""Model derivation: preserved program order, visible reads-from, checks."""

from __future__ import annotations

import pytest

from mmcheck import (
    MODELS,
    derive,
    generate_program,
    get_model,
    oota_cycle,
    parse_history,
    rf_external,
    simulate,
)
from mmcheck.errors import UnknownModelError

from conftest import OOTA
from helpers import closure, reference_po


def test_model_registry_flags():
    for name, spec in MODELS.items():
        expected = name == "rmo"
        assert spec.allows_llh is expected
        assert spec.requires_oota is expected
        assert spec.keeps_read_order is (name != "rmo")
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


def _closed(h, edges):
    reach = closure(h.n, edges)
    return {(a, b) for a in range(h.n) for b in range(h.n) if reach[a] >> b & 1}


def test_derive_sc_is_identity():
    h = parse_history("init: x=0 y=0\nthread T0\nwr x 1\nrd y 0\n")
    dm = derive(h, get_model("sc"))
    assert _closed(h, dm.po_mm) == reference_po(h) and dm.rf_mm == h.rf


def test_sc_program_order_is_one_chain_per_thread():
    # 4 threads of 150 events and 5 initial writes: 149 chain edges per
    # thread, and an edge from each initial write to each thread's head
    prog = generate_program(4, 150, 5, seed=6060, max_writes=10)
    h = simulate(prog, "sc", seed=6061)
    assert h.n == 605 and len(h.init_events) == 5
    dm = derive(h, get_model("sc"))
    assert len(dm.po_mm) == 4 * 149 + 5 * 4 == 616
    assert _closed(h, dm.po_mm) == reference_po(h)


def test_derive_tso_drops_write_read_pairs():
    h = parse_history("init: y=0\nthread T0\nwr x 1\nrd y 0\n")
    dm = derive(h, get_model("tso"))
    wx = h.resolve_ref("T0", 0)
    ry = h.resolve_ref("T0", 1)
    iy = h.resolve_ref("init", 0)
    po_mm = _closed(h, dm.po_mm)
    assert (wx, ry) not in po_mm
    assert (iy, ry) not in po_mm  # init writes are writes too
    assert (iy, wx) in po_mm  # write-write pairs survive tso


def test_derive_pso_drops_write_write_pairs():
    h = parse_history("thread T0\nwr x 1\nwr y 1\n")
    dm = derive(h, get_model("pso"))
    assert not dm.po_mm


def test_derive_rmo_uses_dp():
    h = parse_history(OOTA)
    dm = derive(h, get_model("rmo"))
    assert dm.po_mm == h.dp
    assert dm.rf_mm == rf_external(h)


def test_derive_rmo_empty_dp_default():
    h = parse_history("thread T0\nwr x 1\nrd x 1\n")
    dm = derive(h, get_model("rmo"))
    assert not dm.po_mm


def test_po_loc_effective_matches_llh_flag():
    h = parse_history("init: x=0\nthread T0\nrd x 0\nrd x 0\n")
    r1 = h.resolve_ref("T0", 0)
    r2 = h.resolve_ref("T0", 1)
    sc = derive(h, get_model("sc")).po_loc_effective
    rmo = derive(h, get_model("rmo")).po_loc_effective
    assert (r1, r2) in _closed(h, sc)
    assert (r1, r2) not in _closed(h, rmo)


def test_strength_chain(small_corpus):
    for h in small_corpus:
        sc = derive(h, get_model("sc"))
        tso = derive(h, get_model("tso"))
        pso = derive(h, get_model("pso"))
        assert (
            _closed(h, pso.po_mm)
            <= _closed(h, tso.po_mm)
            <= _closed(h, sc.po_mm)
        )
        assert pso.rf_mm == tso.rf_mm
        assert tso.rf_mm <= sc.rf_mm


def test_derive_is_pure(small_corpus):
    h = small_corpus[0]
    spec = get_model("tso")
    a, b = derive(h, spec), derive(h, spec)
    assert a.po_mm == b.po_mm and a.rf_mm == b.rf_mm
    assert a.po_loc_effective == b.po_loc_effective


def test_oota_examples():
    # no dependencies: reads-from alone cannot cycle
    h = parse_history("thread T0\nwr x 1\nrd x 1\n")
    assert oota_cycle(h) is None

    assert oota_cycle(parse_history(OOTA)) is not None

    h = parse_history(
        "thread T0\nrd x 1\nwr y 1\nthread T1\nwr x 1\ndp T0:0 -> T0:1\n"
    )
    assert oota_cycle(h) is None

