"""Operational simulators and mutation."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from mmcheck import (
    format_history,
    generate_program,
    get_model,
    mutate,
    parse_history,
    simulate,
    solve,
)
from mmcheck.errors import NoAlternativeWriterError, UnknownModelError
from mmcheck.simgen import RandomProgram

from conftest import SB, TRACES, with_random_dp
from helpers import events, resolve_ref, rf_source


def test_single_thread_resolves_locally():
    prog = RandomProgram(
        ((("wr", "x0", 1), ("rd", "x0"), ("rd", "x1")),),
        ("x0", "x1"),
    )
    for model in ("sc", "tso", "pso"):
        h = simulate(prog, model, seed=3)
        evs = events(h)
        r_own = resolve_ref(h, "T0", 1)
        r_init = resolve_ref(h, "T0", 2)
        assert evs[r_own].val == 1
        assert rf_source(h, r_own) == resolve_ref(h, "T0", 0)
        assert evs[r_init].val == 0
        assert evs[rf_source(h, r_init)].is_init


def test_simulation_deterministic_bytes():
    prog = generate_program(3, 3, 2, seed=11)
    a = format_history(simulate(prog, "tso", seed=42))
    b = format_history(simulate(prog, "tso", seed=42))
    assert a == b
    c = format_history(simulate(prog, "tso", seed=43))
    # a different schedule seed is allowed to differ (not required)
    assert isinstance(c, str)


def test_unknown_model_rejected():
    prog = generate_program(1, 1, 1, seed=0)
    with pytest.raises(UnknownModelError):
        simulate(prog, "rmo", seed=0)


def test_simulated_histories_accepted_by_generating_model(small_corpus):
    # the corpus mixes models; regenerate a focused sample per model
    for model in ("sc", "tso", "pso"):
        spec = get_model(model)
        for seed in range(40):
            prog = generate_program(2, 3, 2, seed=seed, max_writes=4)
            h = simulate(prog, model, seed=seed * 7 + 1)
            assert solve(h, spec).consistent, (model, seed)


def test_tso_buffering_can_produce_sb_outcome():
    # the store-buffering program: both reads may see the initial values
    prog = RandomProgram(
        (
            (("wr", "x0", 1), ("rd", "x1")),
            (("wr", "x1", 1), ("rd", "x0")),
        ),
        ("x0", "x1"),
    )
    tso, sc = get_model("tso"), get_model("sc")
    saw_relaxed = False
    for seed in range(200):
        h = simulate(prog, "tso", seed=seed)
        assert solve(h, tso).consistent
        evs = events(h)
        r0 = evs[resolve_ref(h, "T0", 1)].val
        r1 = evs[resolve_ref(h, "T1", 1)].val
        if r0 == 0 and r1 == 0:
            saw_relaxed = True
            assert not solve(h, sc).consistent
    assert saw_relaxed

    # the sc machine never produces it
    for seed in range(200):
        h = simulate(prog, "sc", seed=seed)
        assert solve(h, sc).consistent


def test_data_independence_of_emitted_histories():
    for seed in range(30):
        prog = generate_program(3, 3, 2, seed=seed)
        h = simulate(prog, "pso", seed=seed)
        # parse round trip revalidates the write-once discipline
        text = format_history(h)
        h2 = parse_history(text)
        assert h2.rf == h.rf
        assert format_history(h2) == text


def test_mutate_flips_to_the_only_alternative():
    h = parse_history(
        "thread T0\nwr x 1\nthread T1\nwr x 2\nthread T2\nrd x 1\n"
    )
    m = mutate(h, seed=0)
    r = resolve_ref(m, "T2", 0)
    assert events(m)[r].val == 2
    assert rf_source(m, r) == resolve_ref(m, "T1", 0)


def test_mutate_requires_an_alternative_writer():
    h = parse_history("thread T0\nwr x 1\nrd x 1\n")
    with pytest.raises(NoAlternativeWriterError):
        mutate(h, seed=0)


def test_mutate_keeps_dp_edges(small_corpus):
    rng = random.Random(1111)
    checked = 0
    for h in small_corpus:
        g = with_random_dp(h, rng)
        if g is None:
            continue
        try:
            m = mutate(g, seed=checked)
        except NoAlternativeWriterError:
            continue
        assert {(m.ref(a), m.ref(b)) for a, b in m.dp} == {
            (g.ref(a), g.ref(b)) for a, b in g.dp
        }
        back = parse_history(format_history(m, explicit_rf=True))
        assert (back.dp, back.rf) == (m.dp, m.rf)
        checked += 1
    assert checked >= 40


def test_mutate_emits_valid_explicit_rf():
    h = parse_history(SB)
    m = mutate(h, seed=4)
    text = format_history(m, explicit_rf=True)
    assert "rf " in text
    reparsed = parse_history(text)
    assert reparsed.rf == m.rf


def test_mutated_long_trace_matches_its_file():
    # traces/long_mutated.mmh is `mmcheck mutate traces/long.mmh --seed 1`
    h = parse_history((TRACES / "long.mmh").read_text())
    text = format_history(mutate(h, 1), explicit_rf=True)
    assert text == (TRACES / "long_mutated.mmh").read_text()


def test_mutated_sb_sometimes_sc_inconsistent():
    sc = get_model("sc")
    prog = RandomProgram(
        (
            (("wr", "x0", 1), ("rd", "x1")),
            (("wr", "x1", 1), ("rd", "x0")),
        ),
        ("x0", "x1"),
    )
    hits = 0
    for seed in range(100):
        h = simulate(prog, "sc", seed=seed)
        try:
            m = mutate(h, seed=9000 + seed)
        except NoAlternativeWriterError:
            continue
        if not solve(m, sc).consistent:
            hits += 1
    assert hits >= 1


#: (label, program) pairs for the simulator golden file: generated shapes,
#: the empty program, and two fixed programs whose pso runs buffer writes
#: to two variables at once.
GOLDEN_PROGRAMS = (
    ("no threads", generate_program(0, 3, 2, seed=1)),
    ("1x4, 1 var", generate_program(1, 4, 1, seed=2)),
    ("2x3, 2 vars", generate_program(2, 3, 2, seed=3)),
    ("3x4, 2 vars, 4 writes", generate_program(3, 4, 2, seed=4, max_writes=4)),
    ("4x6, 3 vars", generate_program(4, 6, 3, seed=5)),
    ("3x16, 3 vars, 8 writes", generate_program(3, 16, 3, seed=9, max_writes=8)),
    ("message passing", RandomProgram(
        (
            (("wr", "x0", 1), ("wr", "x1", 1), ("wr", "x0", 2), ("wr", "x1", 2)),
            (("rd", "x1"), ("rd", "x0"), ("rd", "x1"), ("rd", "x0")),
        ),
        ("x0", "x1"),
    )),
    ("store buffering", RandomProgram(
        (
            (("wr", "x0", 1), ("rd", "x1")),
            (("wr", "x1", 1), ("rd", "x0")),
        ),
        ("x0", "x1"),
    )),
)
GOLDEN_SEEDS = (0, 1, 2, 6, 7)


def simulate_report() -> str:
    """`simulate` under sc, tso and pso on `GOLDEN_PROGRAMS`, each run a
    header line and its history with explicit reads-from."""
    parts = []
    for label, prog in GOLDEN_PROGRAMS:
        for model in ("sc", "tso", "pso"):
            for seed in GOLDEN_SEEDS:
                h = simulate(prog, model, seed=seed)
                parts.append(f"# {label}, {model}, seed {seed}\n")
                parts.append(format_history(h, explicit_rf=True))
    return "".join(parts)


def test_simulate_output_matches_golden_file():
    golden = Path(__file__).with_name("simulate_golden.txt")
    assert simulate_report() == golden.read_text()


def test_golden_pso_runs_reorder_writes_to_two_variables():
    # some pso run of the message-passing program reads x1's new value
    # and then x0's old one, which no single-FIFO (tso) machine produces
    prog = dict(GOLDEN_PROGRAMS)["message passing"]
    tso = get_model("tso")
    assert any(
        not solve(simulate(prog, "pso", seed=seed), tso).consistent
        for seed in GOLDEN_SEEDS
    )
