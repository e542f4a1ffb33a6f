"""The benchmark's span contract: each function `bench/spans.py` wraps is
still looked up where it says, and a check calls each one that
`bench/run.py` requires of its workload."""

from __future__ import annotations

import importlib
from collections import Counter
from pathlib import Path

import pytest

from mmcheck import format_history, get_model, sat_to_history_sc, solver, trace

from conftest import PINNED_REDUCTIONS, SB, TRACES

BENCH = Path(__file__).resolve().parent.parent / "bench"

# One check of each workload's kind: a long consistent trace, an
# inconsistent reduction, and a consistent check under rmo.
CHECKS = {
    "long-traces": ((TRACES / "long.mmh").read_text(), "tso"),
    "hard-reductions": (
        format_history(sat_to_history_sc(PINNED_REDUCTIONS[0][0])), "sc"
    ),
    "small-corpus": (SB, "rmo"),
}


@pytest.mark.parametrize("workload", CHECKS)
def test_a_check_calls_what_its_benchmark_workload_requires(
    workload, monkeypatch
):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    run = importlib.import_module("run")
    calls: Counter[str] = Counter()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for modname, attr, _ in spans.WRAPPED:
        module = importlib.import_module(modname)
        fn = getattr(module, attr)
        monkeypatch.setattr(module, attr, counting(f"{modname}.{attr}", fn))
    # The benchmark's loop: the two calls, looked up on their modules.
    text, model = CHECKS[workload]
    solver.solve(trace.parse_history(text), get_model(model))
    missing = [f for f in run.REQUIRED_CALLS[workload] if not calls[f]]
    assert not missing
    assert calls["mmcheck.trace.parse_history"] == 1
    assert calls["mmcheck.trace.assemble_history"] == 1
