"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Heavy corpora are built once and cached module-wide; later criteria reuse
the recorded verdicts of earlier ones.
"""

from __future__ import annotations

import functools
import random
import time

from mmcheck import (
    Cnf3,
    build_base_graphs,
    derive,
    get_model,
    oota_cycle,
    oracle_store,
    oracle_total,
    parse_history,
    sat_brute_force,
    sat_to_history_relaxed,
    sat_to_history_sc,
    simulate,
    solve,
    verify_witness,
    generate_program,
)

from conftest import SB, MP, CORR, OOTA, build_corpus

MODELS = ("sc", "tso", "pso", "rmo")


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@functools.lru_cache(maxsize=None)
def _corpus_results():
    """Criterion-1 corpus: >= 1000 histories x 4 models x 3 deciders."""
    corpus = build_corpus(1000, seed=77001)
    start = time.perf_counter()
    mismatches = []
    witness_failures = 0
    consistent_verdicts = 0
    subset_violations = 0
    verdicts = []
    for i, h in enumerate(corpus):
        row = {}
        for m in MODELS:
            spec = get_model(m)
            v = solve(h, spec)
            t = oracle_total(h, spec)
            s = oracle_store(h, spec)
            if not (v.outcome == t.outcome == s.outcome):
                mismatches.append((i, m))
            if v.stats.subsets_evaluated > 2**h.k:
                subset_violations += 1
            row[m] = v.consistent
            if v.consistent:
                bases = build_base_graphs(h, derive(h, spec))
                for witness in (v.witness, t.witness, s.witness):
                    consistent_verdicts += 1
                    if witness is None or not verify_witness(
                        h, bases, witness
                    ):
                        witness_failures += 1
        verdicts.append(row)
    elapsed = time.perf_counter() - start
    return {
        "size": len(corpus),
        "mismatches": mismatches,
        "witness_failures": witness_failures,
        "consistent_verdicts": consistent_verdicts,
        "subset_violations": subset_violations,
        "verdicts": verdicts,
        "elapsed": elapsed,
    }


def _corpus_cnf(rng: random.Random) -> Cnf3:
    """Random 3-CNF within n <= 3, m <= 3.

    Clauses either take three distinct literals or repeat one literal
    thrice (a unit).  Units keep the unsatisfiable side reachable at tiny
    clause counts; mixed repetition is excluded because the guard pairing
    of the construction forces repeated literals true (see the reduction
    tests), which over-constrains such formulas.
    """
    n = rng.randint(1, 3)
    m = rng.randint(1, 3)
    pool = [v for v in range(1, n + 1)] + [-v for v in range(1, n + 1)]
    clauses = []
    for _ in range(m):
        if n >= 2 and rng.random() < 0.6:
            clauses.append(tuple(rng.sample(pool, 3)))
        else:
            lit = rng.choice(pool)
            clauses.append((lit, lit, lit))
    return Cnf3(n, tuple(clauses))


@functools.lru_cache(maxsize=None)
def _reduction_results():
    """Criterion-2 corpus: >= 200 formulas, three instances each."""
    rng = random.Random(88002)
    sc, tso, pso = get_model("sc"), get_model("tso"), get_model("pso")
    mismatches = []
    witness_failures = 0
    consistent_verdicts = 0
    sat_count = 0
    max_instance_seconds = 0.0
    count = 200
    for i in range(count):
        cnf = _corpus_cnf(rng)
        expected = sat_brute_force(cnf)
        sat_count += expected
        checks = (
            (sat_to_history_sc(cnf), sc),
            (sat_to_history_relaxed(cnf), tso),
            (sat_to_history_relaxed(cnf), pso),
        )
        for h, spec in checks:
            t0 = time.perf_counter()
            v = solve(h, spec)
            max_instance_seconds = max(
                max_instance_seconds, time.perf_counter() - t0
            )
            if v.consistent != expected:
                mismatches.append((i, spec.name))
            if v.consistent:
                consistent_verdicts += 1
                bases = build_base_graphs(h, derive(h, spec))
                if not verify_witness(h, bases, v.witness):
                    witness_failures += 1
    return {
        "count": count,
        "sat": sat_count,
        "mismatches": mismatches,
        "witness_failures": witness_failures,
        "consistent_verdicts": consistent_verdicts,
        "max_instance_seconds": max_instance_seconds,
    }


@functools.lru_cache(maxsize=None)
def _litmus_results():
    sb = parse_history(SB)
    mp = parse_history(MP)
    rows = []
    witness_failures = 0
    consistent_verdicts = 0
    for h, model, expect_consistent in (
        (sb, "sc", False),
        (sb, "tso", True),
        (mp, "tso", False),
        (mp, "pso", True),
    ):
        spec = get_model(model)
        v = solve(h, spec)
        t = oracle_total(h, spec)
        rows.append(
            v.consistent == expect_consistent
            and t.consistent == expect_consistent
        )
        if v.consistent:
            consistent_verdicts += 1
            bases = build_base_graphs(h, derive(h, spec))
            if not verify_witness(h, bases, v.witness):
                witness_failures += 1
    return {
        "ok": all(rows),
        "witness_failures": witness_failures,
        "consistent_verdicts": consistent_verdicts,
    }


def test_criterion_1_oracle_equivalence():
    data = _corpus_results()
    ok = (
        data["size"] >= 1000
        and not data["mismatches"]
        and data["elapsed"] <= 120.0
    )
    _report(
        1,
        ok,
        f"{data['size']} histories x 4 models, "
        f"{len(data['mismatches'])} disagreements, "
        f"{data['elapsed']:.1f}s (budget 120s)",
    )
    assert ok, data["mismatches"][:5]


def test_criterion_2_reduction_correctness():
    data = _reduction_results()
    ok = (
        data["count"] >= 200
        and not data["mismatches"]
        and data["max_instance_seconds"] <= 120.0
    )
    _report(
        2,
        ok,
        f"{data['count']} formulas ({data['sat']} sat), "
        f"{len(data['mismatches'])} disagreements, worst instance "
        f"{data['max_instance_seconds']:.2f}s (budget 120s)",
    )
    assert ok, data["mismatches"][:5]


def test_criterion_3_litmus_fixtures():
    data = _litmus_results()
    _report(
        3,
        data["ok"],
        "sb: sc-inconsistent/tso-consistent, "
        "mp: tso-inconsistent/pso-consistent, oracle-confirmed",
    )
    assert data["ok"]


def test_criterion_4_witness_soundness():
    c1 = _corpus_results()
    c2 = _reduction_results()
    c3 = _litmus_results()
    failures = (
        c1["witness_failures"]
        + c2["witness_failures"]
        + c3["witness_failures"]
    )
    total = (
        c1["consistent_verdicts"]
        + c2["consistent_verdicts"]
        + c3["consistent_verdicts"]
    )
    ok = failures == 0 and total > 0
    _report(4, ok, f"{total} consistent verdicts re-verified, {failures} failures")
    assert ok


def test_criterion_5_model_monotonicity():
    data = _corpus_results()
    violations = 0
    for row in data["verdicts"]:
        if row["sc"] and not (row["tso"] and row["rmo"]):
            violations += 1
        if row["tso"] and not row["pso"]:
            violations += 1
    # dependency-carrying fixtures: sc-consistent implies rmo-consistent
    fixtures = [
        "init: x=0\nthread T0\nrd x 0\nwr y 1\ndp T0:0 -> T0:1\n"
        "thread T1\nrd y 1\n",
        "init: x=0 y=0\nthread T0\nrd x 0\nwr y 1\ndp T0:0 -> T0:1\n"
        "thread T1\nrd y 1\nwr x 1\ndp T1:0 -> T1:1\n",
    ]
    for text in fixtures:
        h = parse_history(text)
        assert all(h.po_before(a, b) for a, b in h.dp)
        if solve(h, get_model("sc")).consistent:
            if not solve(h, get_model("rmo")).consistent:
                violations += 1
    ok = violations == 0
    _report(5, ok, f"{violations} monotonicity violations across corpus and fixtures")
    assert ok


def test_criterion_6_simulator_soundness():
    failures = 0
    per_model = 500
    for model in ("sc", "tso", "pso"):
        spec = get_model(model)
        for i in range(per_model):
            prog = generate_program(
                threads=(i % 3) + 1,
                events_per_thread=(i % 3) + 1,
                num_vars=(i % 2) + 1,
                seed=66000 + i,
                max_writes=4,
            )
            h = simulate(prog, model, seed=67000 + i)
            if not solve(h, spec).consistent:
                failures += 1
    ok = failures == 0
    _report(6, ok, f"{3 * per_model} simulated histories, {failures} rejected")
    assert ok


def test_criterion_7_complexity_accounting():
    c1 = _corpus_results()
    ok = c1["subset_violations"] == 0

    # scaling family: unsatisfiable unit pair plus padding variables,
    # k = 2*num_vars + 4 for num_vars = 2..5
    counts = []
    for pad in (2, 3, 4, 5):
        cnf = Cnf3(pad, ((1, 1, 1), (-1, -1, -1)))
        h = sat_to_history_sc(cnf)
        assert h.k == 2 * pad + 4
        v = solve(h, get_model("sc"))
        assert not v.consistent
        counts.append((h.k, v.stats.subsets_evaluated))
    bounded = all(c <= 2**k for k, c in counts)
    nondecreasing = all(
        counts[i][1] <= counts[i + 1][1] for i in range(len(counts) - 1)
    )
    ok = ok and bounded and nondecreasing
    _report(
        7,
        ok,
        "subsets <= 2^k on all runs; scaling family "
        + ", ".join(f"k={k}: {c}" for k, c in counts),
    )
    assert ok


def test_criterion_8_rmo_specifics():
    oota_h = parse_history(OOTA)
    oota_ok = oota_cycle(oota_h) is not None
    rmo = get_model("rmo")
    sc = get_model("sc")
    oota_verdict = not solve(oota_h, rmo).consistent

    corr = parse_history(CORR)
    corr_rmo = solve(corr, rmo).consistent
    corr_sc = not solve(corr, sc).consistent
    corr_rmo_oracle = oracle_total(corr, rmo).consistent
    corr_sc_oracle = not oracle_total(corr, sc).consistent

    ok = all(
        (oota_ok, oota_verdict, corr_rmo, corr_sc, corr_rmo_oracle, corr_sc_oracle)
    )
    _report(
        8,
        ok,
        "dependency cycle rejected; load-load hazard rmo-consistent but "
        "sc-inconsistent, oracle-confirmed",
    )
    assert ok
