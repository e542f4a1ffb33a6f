"""Shared fixtures: litmus texts and seeded random corpora."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from mmcheck import (
    Cnf3,
    generate_program,
    history_from_blocks,
    mutate,
    simulate,
)
from mmcheck.errors import NoAlternativeWriterError
from mmcheck.simgen import RandomProgram

from helpers import events, reads

TRACES = Path(__file__).resolve().parent.parent / "traces"

# The characters other than `\n` at which `str.splitlines` breaks a line
# (`\r` aside): inside a comment, none may end it.
NOT_LINE_ENDS = [
    "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
]

SB = (TRACES / "sb.mmh").read_text()
MP = (TRACES / "mp.mmh").read_text()
CORR = (TRACES / "corr.mmh").read_text()
OOTA = (TRACES / "oota.mmh").read_text()

# Unsatisfiable formulas over 3, 4 and 5 variables, with the search
# effort (subsets, gate checks) that the strict instance under sc and the
# relaxed one under tso each take: exact regression gates for the
# counters.
PINNED_REDUCTIONS = [
    (Cnf3(3, (
        (-1, 2, 3), (-2, -3, 1), (-2, -3, -1), (2, 1, 3), (-2, 1, 3),
        (-3, 1, 2), (2, 3, -1), (2, -3, 1), (-1, 2, -3), (1, 3, -2),
        (-1, -2, 3), (-3, 2, -1), (-1, 3, -2), (2, -1, 3), (3, -1, 2),
    )), 18, 53, 60),
    (Cnf3(4, (
        (1, -2, 4), (-3, 4, 2), (-1, 2, -3), (2, 4, -1), (-3, 2, -1),
        (-2, 4, 1), (4, 3, 1), (2, -4, 1), (-4, 2, -1), (-3, 4, -1),
        (-1, 3, -2), (-3, 2, -4), (1, 2, -4), (4, 3, -1), (-3, -4, -2),
        (3, -1, -4), (2, -4, 1), (-3, 1, -4), (1, -2, 4), (1, -2, -4),
    )), 24, 158, 173),
    (Cnf3(5, (
        (3, -5, 4), (-1, -2, 4), (3, -2, 5), (-3, 5, -4), (-2, 1, -5),
        (3, -2, 1), (5, -2, 4), (5, 3, -4), (-3, 4, -2), (1, 4, -5),
        (-5, -4, 3), (4, 3, 5), (-5, 3, -1), (-5, 2, -4), (-2, -3, 1),
        (5, -1, -2), (1, -3, -5), (-2, -5, -4), (-1, 4, -3), (-2, 3, 4),
        (1, 5, 4), (-1, 5, 3), (3, 4, 5), (3, 4, -1), (1, -2, -5),
    )), 30, 332, 363),
]


def build_corpus(count: int, seed: int, max_writes: int = 4):
    """Seeded mix of simulated histories and rf mutations of them.

    Sizes stay within the small-instance envelope (<= 3 threads, <= 8
    program events, <= `max_writes` program writes, <= 2 variables), so
    every history is in range for both brute-force oracles.
    """
    rng = random.Random(seed)
    corpus = []
    sid = 0
    while len(corpus) < count:
        sid += 1
        threads = rng.randint(1, 3)
        epp = rng.randint(1, max(1, 8 // threads))
        nvars = rng.randint(1, 2)
        model = rng.choice(("sc", "tso", "pso"))
        prog = generate_program(
            threads, epp, nvars, seed=seed + 31 * sid, max_writes=max_writes
        )
        h = simulate(prog, model, seed=seed + 77 * sid)
        corpus.append(h)
        if len(corpus) < count and len(corpus) % 2 == 0:
            try:
                corpus.append(mutate(h, seed=seed + 131 * sid))
            except NoAlternativeWriterError:
                pass
    return corpus


def spread_writes_histories(count: int, seed: int, size: tuple[int, ...]):
    """`count` programs of `size` (threads, events, writes, variables),
    whose accesses each take a drawn thread and variable, simulated under
    tso and pso in turn, each followed by its rf mutation when it has
    one.  `generate_program` puts most writes in its first thread; these
    spread over all of them."""
    threads, events, writes, num_vars = size
    var_names = tuple(f"x{i}" for i in range(num_vars))
    histories = []
    for i in range(seed, seed + count):
        rng = random.Random(i)
        fresh = dict.fromkeys(var_names, 1)
        blocks: list[list[tuple]] = [[] for _ in range(threads)]
        chosen = set(rng.sample(range(events), writes))
        for e in range(events):
            var = rng.choice(var_names)
            block = blocks[rng.randrange(threads)]
            if e in chosen:
                block.append(("wr", var, fresh[var]))
                fresh[var] += 1
            else:
                block.append(("rd", var))
        prog = RandomProgram(tuple(map(tuple, blocks)), var_names)
        h = simulate(prog, ("tso", "pso")[i % 2], seed=i)
        histories.append(h)
        try:
            histories.append(mutate(h, seed=i))
        except NoAlternativeWriterError:
            pass
    return histories


def long_traces():
    """Three simulated traces of 4 threads and 600 events, one each under
    sc, tso and pso, each followed by its rf mutation."""
    histories = []
    for seed, model in ((6060, "sc"), (6161, "tso"), (6262, "pso")):
        prog = generate_program(4, 150, 5, seed=seed, max_writes=10)
        h = simulate(prog, model, seed=seed + 1)
        histories += [h, mutate(h, seed=seed + 2)]
    return histories


def with_random_dp(h, rng: random.Random):
    """`h` plus dependency edges from about half its reads to later
    same-thread events; None when no edge was drawn."""
    evs = events(h)
    access = h.access

    def ref(eid):
        return evs[eid].thread, evs[eid].pos

    dp_refs = []
    for rid in reads(h):
        later = [t for t in h.thread_events(evs[rid].thread) if t > rid]
        if later and rng.random() < 0.5:
            dp_refs.append((ref(rid), ref(rng.choice(later))))
    if not dp_refs:
        return None
    out = history_from_blocks(
        init=[(e.var, e.val) for e in evs if e.is_init],
        threads=[
            (t, [access[i] for i in h.thread_events(t)]) for t in h.threads
        ],
        dp_refs=dp_refs,
    )
    # The same events under the same ids: values name the same writers.
    assert out.rf == h.rf
    return out


@pytest.fixture(scope="session")
def small_corpus():
    return build_corpus(120, seed=20240)
