"""Seeded inputs and reference verdicts for the three benchmark workloads.

Each builder takes the imported `mmcheck` package and a seed and returns
the checks of one pass: trace text, model name, and the reference
verdict.  Reference verdicts never come from `solve`: simulated traces
are consistent under the model that generated them, and corpus and
reduction instances are labelled by the store-order oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    text: str
    model: str
    consistent: bool
    #: Writes in the instance; the subset search may visit at most 2^k.
    k: int


# long-traces: 4 threads x 150 events, 5 variables, 10 program writes,
# so n = 605 and k = 15 (5 initial writes); 4 traces per simulated model.
LONG_THREADS = 4
LONG_EVENTS = 150
LONG_VARS = 5
LONG_WRITES = 10
LONG_PER_MODEL = 4

# hard-reductions: unsatisfiable random 3-CNF with 5 clauses per variable.
# Every literal occurs, so k = 6 * variables (18 and 24).  One formula is
# one check: its strict instance under sc, or its relaxed instance under
# tso or pso, in rotation.  All three instances of a formula take the same
# number of subsets, so drawing a new formula per check gives independent
# samples of the search cost at a third of the reference cost.
HARD_FORMULAS = ((3, 10), (4, 5))  # (variables, formulas)
CLAUSES_PER_VAR = 5

# small-corpus: the acceptance-corpus envelope (<= 3 threads, <= 8
# events, <= 2 variables, <= 4 program writes), checked under every model.
CORPUS_SIZE = 500
CORPUS_MAX_WRITES = 4
CORPUS_MODELS = ("sc", "tso", "pso", "rmo")


def long_traces(mm, seed: int) -> list[Check]:
    rng = random.Random(seed)
    checks = []
    for model in ("sc", "tso", "pso") * LONG_PER_MODEL:
        prog = mm.generate_program(
            LONG_THREADS, LONG_EVENTS, LONG_VARS,
            seed=rng.getrandbits(32), max_writes=LONG_WRITES,
        )
        h = mm.simulate(prog, model, seed=rng.getrandbits(32))
        if h.k != LONG_VARS + LONG_WRITES:
            raise ValueError(f"long trace has k={h.k}, expected 15")
        checks.append(Check(mm.format_history(h), model, True, h.k))
    return checks


def random_unsat_cnf(mm, rng: random.Random, num_vars: int):
    """Draw 3-CNF formulas until one is unsatisfiable and uses all literals."""
    while True:
        clauses = []
        for _ in range(CLAUSES_PER_VAR * num_vars):
            picked = rng.sample(range(1, num_vars + 1), 3)
            clauses.append(
                tuple(v if rng.random() < 0.5 else -v for v in picked)
            )
        cnf = mm.Cnf3(num_vars, tuple(clauses))
        if len(cnf.literals) == 2 * num_vars and not mm.sat_brute_force(cnf):
            return cnf


def hard_reductions(mm, seed: int) -> list[Check]:
    rng = random.Random(seed)
    checks = []
    for num_vars, count in HARD_FORMULAS:
        for j in range(count):
            cnf = random_unsat_cnf(mm, rng, num_vars)
            model = ("sc", "tso", "pso")[j % 3]
            if model == "sc":
                h = mm.sat_to_history_sc(cnf)
            else:
                h = mm.sat_to_history_relaxed(cnf)
            checks.append(_oracle_check(mm, h, model))
    return checks


def small_corpus(mm, seed: int) -> list[Check]:
    """Simulated histories and rf mutations of them, as in the test corpus."""
    rng = random.Random(seed)
    histories = []
    sid = 0
    while len(histories) < CORPUS_SIZE:
        sid += 1
        threads = rng.randint(1, 3)
        per_thread = rng.randint(1, max(1, 8 // threads))
        num_vars = rng.randint(1, 2)
        model = rng.choice(("sc", "tso", "pso"))
        prog = mm.generate_program(
            threads, per_thread, num_vars,
            seed=seed + 31 * sid, max_writes=CORPUS_MAX_WRITES,
        )
        h = mm.simulate(prog, model, seed=seed + 77 * sid)
        histories.append(h)
        if len(histories) < CORPUS_SIZE and len(histories) % 2 == 0:
            try:
                histories.append(mm.mutate(h, seed=seed + 131 * sid))
            except mm.errors.NoAlternativeWriterError:
                pass
    return [
        _oracle_check(mm, h, model)
        for h in histories
        for model in CORPUS_MODELS
    ]


def _oracle_check(mm, h, model: str) -> Check:
    verdict = mm.oracle_store(h, mm.get_model(model))
    return Check(mm.format_history(h), model, verdict.consistent, h.k)


BUILDERS = {
    "long-traces": long_traces,
    "hard-reductions": hard_reductions,
    "small-corpus": small_corpus,
}
