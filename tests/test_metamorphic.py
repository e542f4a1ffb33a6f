"""Metamorphic tests: rewrites of a history that cannot change its verdict.

Each rewrite rebuilds the history through `assemble_history`, carrying
reads-from and dependency edges by event reference.  Renaming threads or
variables keeps every event id, so the search must also visit the same
number of subsets and return the same witness.  Reordering thread blocks
renumbers the events, and an added thread with one unread write to a
fresh variable adds a write; both keep the verdict only.
"""

from __future__ import annotations

import random

from mmcheck import MODELS, assemble_history, generate_program, simulate, solve

from conftest import with_random_dp


def _rebuilt(h, order=None, thread_name=None, var_name=None, extra=()):
    """`h` with its thread blocks in `order`, threads and variables renamed
    by the given maps, and the `extra` (name, block) threads appended."""
    tname = thread_name or {}
    vname = var_name or {}

    def ref(eid):
        e = h.events[eid]
        return tname.get(e.thread, e.thread), e.pos

    def access(eid):
        e = h.events[eid]
        return e.kind, vname.get(e.var, e.var), e.val

    return assemble_history(
        init=[(vname.get(e.var, e.var), e.val) for e in h.init_events],
        threads=[
            (tname.get(t, t), [access(i) for i in h.thread_events(t)])
            for t in (h.threads if order is None else order)
        ]
        + list(extra),
        rf_refs=[(ref(w), ref(r)) for w, r in sorted(h.rf)],
        dp_refs=[(ref(a), ref(b)) for a, b in sorted(h.dp)],
    )


def _renamed_threads(h):
    # reversed names, so that names trade places when there are several
    names = list(h.threads)
    return _rebuilt(
        h, thread_name={t: f"q{u}" for t, u in zip(names, reversed(names))}
    )


def _renamed_vars(h):
    names = sorted(h.variables)
    return _rebuilt(
        h, var_name={v: f"v_{u}" for v, u in zip(names, reversed(names))}
    )


def _reordered(h):
    return _rebuilt(h, order=list(reversed(h.threads)))


def _with_unread_write(h):
    return _rebuilt(h, extra=[("Tfresh", [("wr", "fresh", 1)])])


def _histories(small_corpus):
    rng = random.Random(8080)
    histories = list(small_corpus)
    histories += [
        d for d in (with_random_dp(h, rng) for h in small_corpus) if d
    ]
    for seed, model in ((6060, "sc"), (6161, "tso"), (6262, "pso")):
        prog = generate_program(4, 150, 5, seed=seed, max_writes=10)
        histories.append(simulate(prog, model, seed=seed + 1))
    return histories


def test_rewrites_keep_the_verdict(small_corpus):
    histories = _histories(small_corpus)
    assert sum(bool(h.dp) for h in histories) > 20
    assert max(h.n for h in histories) == 605
    inconsistent = 0
    for h in histories:
        renamed = (_renamed_threads(h), _renamed_vars(h))
        reshaped = (_reordered(h), _with_unread_write(h))
        for name, spec in MODELS.items():
            v = solve(h, spec)
            inconsistent += not v.consistent
            for r in renamed:
                w = solve(r, spec)
                assert w.outcome == v.outcome, (name, h)
                assert w.witness == v.witness, (name, h)
                assert (
                    w.stats.subsets_evaluated == v.stats.subsets_evaluated
                ), (name, h)
            for r in reshaped:
                assert solve(r, spec).outcome == v.outcome, (name, h)
    # both verdicts occur, so neither could pass by accident
    assert 0 < inconsistent < 4 * len(histories)
