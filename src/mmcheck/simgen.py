"""Operational simulators and corpus mutation.

The simulators execute random programs under machine models of sc, tso,
and pso with seeded uniform scheduling and emit the observed history,
which is consistent under the generating model by construction.  tso
gives each thread one FIFO store buffer, pso one FIFO per variable;
reads prefer the newest buffered own-thread write (early read) over
memory.  Mutation rewires one read to a different same-variable writer,
manufacturing candidate-inconsistent histories.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import NoAlternativeWriterError, UnknownModelError
from .events import History, assemble_history

SIMULATED_MODELS = ("sc", "tso", "pso")


@dataclass(frozen=True)
class RandomProgram:
    """Per-thread instruction lists: ("wr", var, val) or ("rd", var)."""

    threads: tuple[tuple[tuple, ...], ...]
    var_names: tuple[str, ...]
    seed: int

    def used_vars(self) -> tuple[str, ...]:
        used = {instr[1] for block in self.threads for instr in block}
        return tuple(v for v in self.var_names if v in used)


def generate_program(
    threads: int,
    events_per_thread: int,
    num_vars: int,
    seed: int,
    max_writes: int | None = None,
) -> RandomProgram:
    """Draw a random program; write values are globally fresh per variable."""
    rng = random.Random(seed)
    var_names = tuple(f"x{i}" for i in range(num_vars))
    fresh = {v: 1 for v in var_names}  # 0 is the initial value
    writes_left = max_writes if max_writes is not None else threads * events_per_thread
    blocks = []
    for _ in range(threads):
        block = []
        for _ in range(events_per_thread):
            var = rng.choice(var_names)
            if writes_left > 0 and rng.random() < 0.5:
                block.append(("wr", var, fresh[var]))
                fresh[var] += 1
                writes_left -= 1
            else:
                block.append(("rd", var))
        blocks.append(tuple(block))
    return RandomProgram(tuple(blocks), var_names, seed)


@dataclass
class MachineState:
    """Mutable execution state of one simulation run."""

    memory: dict[str, int]
    tso_buffers: list[list[tuple[str, int]]]
    pso_buffers: list[dict[str, list[int]]]
    pcs: list[int]
    rng: random.Random = field(repr=False, default_factory=random.Random)


def simulate(prog: RandomProgram, model: str, seed: int) -> History:
    """Execute `prog` under `model` with seeded scheduling.

    Every step uniformly picks an enabled action: advance some thread by
    one instruction, or flush the oldest eligible buffered write of some
    thread (per variable for pso).  Reads-from is recorded from the values
    actually observed.  Deterministic in (prog, model, seed).
    """
    model = model.lower()
    if model not in SIMULATED_MODELS:
        raise UnknownModelError(
            f"no operational machine for {model!r}; "
            f"expected one of {', '.join(SIMULATED_MODELS)}"
        )
    used_vars = prog.used_vars()
    nthreads = len(prog.threads)
    state = MachineState(
        memory={v: 0 for v in used_vars},
        tso_buffers=[[] for _ in range(nthreads)],
        pso_buffers=[{v: [] for v in used_vars} for _ in range(nthreads)],
        pcs=[0] * nthreads,
        rng=random.Random(seed),
    )

    init_pos = {v: i for i, v in enumerate(used_vars)}
    writer_ref = {(v, 0): f"init:{init_pos[v]}" for v in used_vars}
    out_events: list[list[tuple[str, str, int]]] = [[] for _ in range(nthreads)]
    rf_refs: list[tuple[str, str]] = []

    def enabled_actions():
        acts = []
        for t in range(nthreads):
            if state.pcs[t] < len(prog.threads[t]):
                acts.append(("step", t, None))
            if model == "tso" and state.tso_buffers[t]:
                acts.append(("flush", t, None))
            elif model == "pso":
                for v in used_vars:
                    if state.pso_buffers[t][v]:
                        acts.append(("flush", t, v))
        return acts

    def read_value(t: int, var: str) -> int:
        if model == "tso":
            for bvar, bval in reversed(state.tso_buffers[t]):
                if bvar == var:
                    return bval
        elif model == "pso":
            buf = state.pso_buffers[t][var]
            if buf:
                return buf[-1]
        return state.memory[var]

    while any(state.pcs[t] < len(prog.threads[t]) for t in range(nthreads)):
        kind, t, fvar = state.rng.choice(enabled_actions())
        if kind == "flush":
            if model == "tso":
                var, val = state.tso_buffers[t].pop(0)
            else:
                var = fvar
                val = state.pso_buffers[t][var].pop(0)
            state.memory[var] = val
            continue
        instr = prog.threads[t][state.pcs[t]]
        state.pcs[t] += 1
        pos = len(out_events[t])
        if instr[0] == "wr":
            _, var, val = instr
            writer_ref[(var, val)] = f"T{t}:{pos}"
            if model == "sc":
                state.memory[var] = val
            elif model == "tso":
                state.tso_buffers[t].append((var, val))
            else:
                state.pso_buffers[t][var].append(val)
            out_events[t].append(("wr", var, val))
        else:
            _, var = instr
            val = read_value(t, var)
            rf_refs.append((writer_ref[(var, val)], f"T{t}:{pos}"))
            out_events[t].append(("rd", var, val))

    return assemble_history(
        init=[(v, 0) for v in used_vars],
        threads=[(f"T{t}", out_events[t]) for t in range(nthreads)],
        rf_refs=rf_refs,
    )


def mutate(h: History, seed: int) -> History:
    """Rewire one random read to a different same-variable writer.

    The read's value is adjusted to the new writer's value, which keeps
    the write-once discipline intact.  The result carries an explicit
    reads-from relation.
    """
    rng = random.Random(seed)
    candidates = [
        rid for rid in h.reads if len(h.writes_on(h.events[rid].var)) >= 2
    ]
    if not candidates:
        raise NoAlternativeWriterError(
            "every read's variable has a single writer"
        )
    rid = rng.choice(candidates)
    read = h.events[rid]
    current = h.rf_source(rid)
    new_writer = rng.choice(
        [w for w in h.writes_on(read.var) if w != current]
    )
    new_val = h.events[new_writer].val

    init = [(e.var, e.val) for e in h.init_events]
    threads = []
    for t in h.threads:
        block = []
        for eid in h.thread_events(t):
            e = h.events[eid]
            val = new_val if eid == rid else e.val
            block.append((e.kind, e.var, val))
        threads.append((t, block))
    rf_refs = []
    for w, r in sorted(h.rf, key=lambda p: p[1]):
        if r == rid:
            w = new_writer
        rf_refs.append((h.ref(w), h.ref(r)))
    dp_refs = [(h.ref(a), h.ref(b)) for a, b in sorted(h.dp)]
    return assemble_history(
        init=init, threads=threads, rf_refs=rf_refs, dp_refs=dp_refs
    )
