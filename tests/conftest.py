"""Shared fixtures: litmus texts and seeded random corpora."""

from __future__ import annotations

import random
import warnings
from pathlib import Path

import pytest

from mmcheck import assemble_history, generate_program, mutate, simulate
from mmcheck.errors import InitialReadVisibilityWarning, NoAlternativeWriterError

TRACES = Path(__file__).resolve().parent.parent / "traces"

SB = (TRACES / "sb.mmh").read_text()
MP = (TRACES / "mp.mmh").read_text()
CORR = (TRACES / "corr.mmh").read_text()
OOTA = (TRACES / "oota.mmh").read_text()


@pytest.fixture(autouse=True)
def _quiet_init_visibility_warnings():
    # Relaxed-model derivations on init-heavy corpora fire this constantly;
    # its behavior has a dedicated test.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InitialReadVisibilityWarning)
        yield


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


def with_random_dp(h, rng: random.Random):
    """`h` plus dependency edges from about half its reads to later
    same-thread events; None when no edge was drawn."""
    dp_refs = []
    for rid in h.reads:
        e = h.events[rid]
        later = [t for t in h.thread_events(e.thread) if t > rid]
        if later and rng.random() < 0.5:
            dp_refs.append((h.ref(rid), h.ref(rng.choice(later))))
    if not dp_refs:
        return None
    return assemble_history(
        init=[(e.var, e.val) for e in h.init_events],
        threads=[
            (
                t,
                [
                    (h.events[i].kind, h.events[i].var, h.events[i].val)
                    for i in h.thread_events(t)
                ],
            )
            for t in h.threads
        ],
        rf_refs=[(h.ref(w), h.ref(r)) for w, r in sorted(h.rf)],
        dp_refs=dp_refs,
    )


@pytest.fixture(scope="session")
def small_corpus():
    return build_corpus(120, seed=20240)
