"""Consistency checking of shared-memory execution traces.

Decides whether a multi-threaded history of read/write events could have
been produced under a given memory model (sc, tso, pso, rmo), using a
subset search over write orders, cross-validated by brute-force oracles,
and fed by a 3-CNF instance compiler and operational simulators.
"""

from .errors import MmcheckError
from .events import History, history_from_blocks
from .graphs import EventGraph, kahn_acyclic
from .models import (
    MODELS,
    DerivedModel,
    ModelSpec,
    build_base_graphs,
    derive,
    get_model,
    oota_cycle,
    program_orders,
    rf_external,
)
from .oracle import oracle_store, oracle_total
from .reduction import (
    Cnf3,
    parse_dimacs,
    sat_brute_force,
    sat_to_history_relaxed,
    sat_to_history_sc,
)
from .simgen import RandomProgram, generate_program, mutate, simulate
from .solver import (
    Outcome,
    SolveStats,
    Verdict,
    solve,
    verify_witness,
)
from .trace import format_history, parse_history

__version__ = "0.1.0"

__all__ = [
    "Cnf3",
    "DerivedModel",
    "EventGraph",
    "History",
    "MODELS",
    "MmcheckError",
    "ModelSpec",
    "Outcome",
    "RandomProgram",
    "SolveStats",
    "Verdict",
    "build_base_graphs",
    "derive",
    "format_history",
    "generate_program",
    "get_model",
    "history_from_blocks",
    "kahn_acyclic",
    "mutate",
    "oota_cycle",
    "oracle_store",
    "oracle_total",
    "parse_dimacs",
    "parse_history",
    "program_orders",
    "sat_brute_force",
    "sat_to_history_relaxed",
    "sat_to_history_sc",
    "simulate",
    "solve",
    "verify_witness",
]
