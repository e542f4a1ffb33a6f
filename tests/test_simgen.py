"""Operational simulators and mutation."""

from __future__ import annotations

import random
import tracemalloc
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
from mmcheck import simgen
from mmcheck.errors import (
    NoAlternativeWriterError,
    ResourceBoundError,
    UnknownModelError,
)
from mmcheck.simgen import RandomProgram

from conftest import SB, TRACES, build_corpus, with_random_dp
from helpers import (
    events,
    format_with_rf,
    reference_mutate,
    resolve_ref,
    rf_source,
)


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


def test_generate_program_names_only_the_drawn_variables():
    # A declared variable costs nothing until it is drawn: one event over
    # 10^5 or 10^8 variables allocates under 1 MiB, and names one
    # variable.  Naming every declared variable takes about 113 bytes
    # each, so the smaller count fails first, before the larger one
    # would take about 11 GB.
    for num_vars in (10**5, 10**8):
        tracemalloc.start()
        try:
            prog = generate_program(1, 1, num_vars, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert len(prog.var_names) == 1 and prog.used_vars() == prog.var_names
    # `var_names` lists the drawn variables in index order.
    prog = generate_program(3, 8, 1000, seed=2)
    drawn = {instr[1] for block in prog.threads for instr in block}
    assert prog.var_names == tuple(sorted(drawn, key=lambda v: int(v[1:])))


def test_generate_program_refuses_past_the_memory_ceiling(monkeypatch):
    # 10^5 threads of 10^5 events are refused before anything is drawn.
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBoundError, match="memory ceiling"):
            generate_program(100_000, 100_000, 2, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # The bound counts one event more per thread: 2 threads of 3 events
    # fit a ceiling of 8 events, and not one byte less.
    ceiling = 2 * (3 + 1) * simgen.EVENT_BYTES
    monkeypatch.setattr(simgen, "MEMORY_CEILING", ceiling)
    assert len(generate_program(2, 3, 2, seed=1).threads) == 2
    monkeypatch.setattr(simgen, "MEMORY_CEILING", ceiling - 1)
    with pytest.raises(ResourceBoundError):
        generate_program(2, 3, 2, seed=1)


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
        back = parse_history(format_history(m))
        assert (back.dp, back.rf) == (m.dp, m.rf)
        checked += 1
    assert checked >= 40


def test_mutate_output_names_writers_by_value():
    m = mutate(parse_history(SB), seed=4)
    text = format_history(m)
    assert not any(line.startswith("rf ") for line in text.splitlines())
    reparsed = parse_history(text)
    assert (reparsed.access, reparsed.rf, reparsed.dp) == (m.access, m.rf, m.dp)


def _mutant_text(mutate_fn, h, seed):
    try:
        return format_history(mutate_fn(h, seed))
    except NoAlternativeWriterError as exc:
        return exc


def test_mutate_matches_its_reference():
    # `mutate` names the current writer by the read's value and copies no
    # event; the reference maps every read to its writer.  Both make the
    # same draws, so they give the same bytes or the same refusal, on the
    # corpora, their dependency-edge variants, every trace file and a
    # mutant's mutant.
    rng = random.Random(4343)
    corpora = build_corpus(300, 1) + build_corpus(300, 2)
    histories = corpora + [
        g for g in (with_random_dp(h, rng) for h in corpora) if g is not None
    ]
    histories += [parse_history(p.read_text()) for p in sorted(TRACES.glob("*.mmh"))]
    refused = mutated = 0
    for h in histories:
        for seed in range(10):
            got = _mutant_text(mutate, h, seed)
            want = _mutant_text(reference_mutate, h, seed)
            if isinstance(want, NoAlternativeWriterError):
                assert type(got) is type(want) and str(got) == str(want)
                refused += 1
                continue
            assert got == want
            mutated += 1
            again = parse_history(got)
            assert _mutant_text(mutate, again, seed + 10) == _mutant_text(
                reference_mutate, again, seed + 10
            )
    assert refused > 0 and mutated > 10 * len(corpora)


def test_mutated_long_trace_matches_its_file():
    # traces/long_mutated.mmh is `mmcheck mutate traces/long.mmh --seed 1`
    h = parse_history((TRACES / "long.mmh").read_text())
    text = format_history(mutate(h, 1))
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
                parts.append(format_with_rf(h))
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
