"""Operational simulators and corpus mutation.

The simulators execute random programs under machine models of sc, tso,
and pso with seeded uniform scheduling and emit the observed history,
which is consistent under the generating model by construction.  The
three machines differ only in their FIFO store buffers, one row each of
`SIMULATED_MODELS`: none under sc, one per thread under tso, one per
thread and variable under pso.  Reads prefer the newest buffered
own-thread write (early read) over memory.  Mutation rewires one read to
a different same-variable writer, manufacturing candidate-inconsistent
histories.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import NoAlternativeWriterError, UnknownModelError
from .events import INIT_THREAD, History, assemble_history

#: Each simulated machine's store buffers, as the key of the FIFO that a
#: thread's write to a variable queues in; sc has none and writes straight
#: to memory.  tso is the x86-TSO machine of Sewell et al. (CACM 2010),
#: one FIFO per thread; pso keeps one FIFO per thread and variable.
SIMULATED_MODELS = {
    "sc": None,
    "tso": lambda var: None,
    "pso": lambda var: var,
}


@dataclass(frozen=True)
class RandomProgram:
    """Per-thread instruction lists: ("wr", var, val) or ("rd", var)."""

    threads: tuple[tuple[tuple, ...], ...]
    var_names: tuple[str, ...]

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
    return RandomProgram(tuple(blocks), var_names)


def simulate(prog: RandomProgram, model: str, seed: int) -> History:
    """Execute `prog` under `model` with seeded scheduling.

    Every step uniformly picks an enabled action: advance some thread by
    one instruction, or flush the oldest write of one of its non-empty
    store buffers to memory.  The actions are listed thread by thread,
    each thread's step first, then its buffers in the order of their
    variables in `prog`.  Write values are fresh per variable, so the
    history's reads-from is inferred from the values read.  Deterministic
    in (prog, model, seed).
    """
    model = model.lower()
    if model not in SIMULATED_MODELS:
        raise UnknownModelError(
            f"no operational machine for {model!r}; "
            f"expected one of {', '.join(SIMULATED_MODELS)}"
        )
    buffer_of = SIMULATED_MODELS[model]
    used_vars = prog.used_vars()
    threads = prog.threads
    nthreads = len(threads)
    rng = random.Random(seed)
    memory = {v: 0 for v in used_vars}
    # Each thread's FIFOs of buffered (var, val) writes, by key.
    buffers = [
        {buffer_of(v): [] for v in used_vars} if buffer_of else {}
        for _ in range(nthreads)
    ]
    pcs = [0] * nthreads
    steps_left = sum(map(len, threads))

    out_events: list[list[tuple[str, str, int]]] = [[] for _ in range(nthreads)]

    while steps_left:
        # (thread, None) steps the thread; (thread, fifo) flushes the fifo.
        actions = []
        for t in range(nthreads):
            if pcs[t] < len(threads[t]):
                actions.append((t, None))
            for fifo in buffers[t].values():
                if fifo:
                    actions.append((t, fifo))
        t, fifo = rng.choice(actions)
        if fifo is not None:
            var, val = fifo.pop(0)
            memory[var] = val
            continue
        instr = threads[t][pcs[t]]
        pcs[t] += 1
        steps_left -= 1
        var = instr[1]
        if instr[0] == "wr":
            val = instr[2]
            if buffer_of:
                buffers[t][buffer_of(var)].append((var, val))
            else:
                memory[var] = val
            out_events[t].append(("wr", var, val))
        else:
            val = memory[var]
            if buffer_of:
                for bvar, bval in reversed(buffers[t][buffer_of(var)]):
                    if bvar == var:
                        val = bval
                        break
            out_events[t].append(("rd", var, val))

    return assemble_history(
        init=[(v, 0) for v in used_vars],
        threads=[(f"T{t}", block) for t, block in enumerate(out_events)],
    )


def mutate(h: History, seed: int) -> History:
    """Rewire one random read to a different same-variable writer.

    The read's value is set to the new writer's value, which keeps the
    write-once discipline intact and names the new writer, so reads-from
    is inferred from values; dependency edges are carried over.
    """
    rng = random.Random(seed)
    access = h.access
    writer_of = {
        r: w
        for w, var in zip(h.writes, h.write_vars)
        if len(h.writes_on(var)) >= 2
        for r in h.readers_of(w)
    }
    if not writer_of:
        raise NoAlternativeWriterError(
            "every read's variable has a single writer"
        )
    rid = rng.choice(sorted(writer_of))
    kind, var, _ = access[rid]
    current = writer_of[rid]
    new_writer = rng.choice([w for w in h.writes_on(var) if w != current])
    rewired = {rid: (kind, var, access[new_writer][2])}

    init = [access[i][1:] for i in h.thread_events(INIT_THREAD)]
    threads = [
        (t, [rewired.get(eid, access[eid]) for eid in h.thread_events(t)])
        for t in h.threads
    ]

    def ref(eid: int) -> tuple[str, int]:
        thread = h.thread_of[eid]
        return thread, eid - h.thread_events(thread)[0]

    dp_refs = [(ref(a), ref(b)) for a, b in sorted(h.dp)]
    return assemble_history(init=init, threads=threads, dp_refs=dp_refs)
