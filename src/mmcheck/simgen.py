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

import bisect
import random
from dataclasses import dataclass

from .errors import (
    NoAlternativeWriterError,
    ResourceBoundError,
    UnknownModelError,
)
from .events import INIT_THREAD, History, history_from_blocks
from .solver import MEMORY_CEILING

#: Each simulated machine's store buffers, as the key of the FIFO that a
#: thread's write to a variable queues in; sc has none and writes straight
#: to memory.  tso is the x86-TSO machine of Sewell et al. (CACM 2010),
#: one FIFO per thread; pso keeps one FIFO per thread and variable.
SIMULATED_MODELS = {
    "sc": None,
    "tso": lambda var: None,
    "pso": lambda var: var,
}

#: Peak bytes per event of drawing a program, simulating it and
#: formatting the trace.  Measured by tracemalloc at n = 200,005
#: (`generate_program(4, 50000, 5, seed=7)`): 380-381 bytes per event
#: under sc, tso and pso alike (CPython 3.11.7, x86-64).  `gen sat`
#: bounds its gadgets with it too: reading a 200,000-clause formula over
#: 3 variables, building either instance (n = 1,200,042 or 1,200,054)
#: and formatting it peaked at 362 bytes per event.
EVENT_BYTES = 384


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
    """Draw a random program; write values are globally fresh per variable.

    Only the variables drawn are named, so `num_vars` costs nothing until
    a variable is drawn; `var_names` lists them in index order.  A
    program is refused with `ResourceBoundError`, before anything is
    drawn, when `threads * (events_per_thread + 1)` events (one more per
    thread, so that empty threads count) at `EVENT_BYTES` each would pass
    `MEMORY_CEILING`.
    """
    if threads * (events_per_thread + 1) * EVENT_BYTES > MEMORY_CEILING:
        raise ResourceBoundError(
            f"{threads} threads of {events_per_thread} events: memory ceiling"
        )
    rng = random.Random(seed)
    names: dict[int, str] = {}
    fresh: dict[str, int] = {}
    writes_left = max_writes if max_writes is not None else threads * events_per_thread
    blocks = []
    for _ in range(threads):
        block = []
        for _ in range(events_per_thread):
            i = rng.randrange(num_vars)
            var = names.setdefault(i, f"x{i}")
            if writes_left > 0 and rng.random() < 0.5:
                fresh[var] = fresh.get(var, 0) + 1  # 0 is the initial value
                block.append(("wr", var, fresh[var]))
                writes_left -= 1
            else:
                block.append(("rd", var))
        blocks.append(tuple(block))
    return RandomProgram(tuple(blocks), tuple(names[i] for i in sorted(names)))


def simulate(prog: RandomProgram, model: str, seed: int) -> History:
    """Execute `prog` under `model` with seeded scheduling.

    Every step uniformly picks an enabled action: advance some thread by
    one instruction, or flush the oldest write of one of its non-empty
    store buffers to memory.  The actions are listed thread by thread,
    each thread's step first, then its buffers in the order of their
    variables in `prog`.  The list is kept across steps: a step inserts
    or deletes at most two actions at places found by bisection, and
    walks no thread or buffer.  Write values are fresh per variable, so
    the history's reads-from is inferred from the values read.
    Deterministic in (prog, model, seed).
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
    # Each thread's FIFOs of buffered (var, val) writes, by key, and each
    # key's place among a thread's FIFOs.
    keys = dict.fromkeys(map(buffer_of, used_vars)) if buffer_of else {}
    place = {key: i for i, key in enumerate(keys)}
    buffers = [{key: [] for key in keys} for _ in range(nthreads)]
    pcs = [0] * nthreads
    steps_left = sum(map(len, threads))

    out_events: list[list[tuple[str, str, int]]] = [[] for _ in range(nthreads)]

    # The enabled actions, sorted: (t, -1, None) steps thread t, and
    # (t, place, fifo) flushes t's non-empty FIFO at that place.  An action
    # enters when it becomes enabled and leaves when it stops being so;
    # no two share (t, place), so sorting never compares two FIFOs.
    actions = [(t, -1, None) for t in range(nthreads) if threads[t]]
    while steps_left:
        action = rng.choice(actions)
        t, _, fifo = action
        if fifo is not None:
            var, val = fifo.pop(0)
            memory[var] = val
            if not fifo:
                del actions[bisect.bisect_left(actions, action)]
            continue
        instr = threads[t][pcs[t]]
        pcs[t] += 1
        steps_left -= 1
        if pcs[t] == len(threads[t]):
            del actions[bisect.bisect_left(actions, action)]
        var = instr[1]
        if instr[0] == "wr":
            val = instr[2]
            if buffer_of:
                key = buffer_of(var)
                if not (fifo := buffers[t][key]):
                    bisect.insort(actions, (t, place[key], fifo))
                fifo.append((var, val))
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

    return history_from_blocks(
        init=[(v, 0) for v in used_vars],
        threads=[(f"T{t}", block) for t, block in enumerate(out_events)],
    )


def mutate(h: History, seed: int) -> History:
    """Rewire one random read to a different same-variable writer.

    The read is drawn from the sorted readers of the writes of variables
    with two writes or more, and the new writer from its variable's
    writes other than the one its value names.  The read's value is set
    to the new writer's value, which keeps the write-once discipline
    intact and names the new writer, so reads-from is inferred from
    values; dependency edges are carried over.
    """
    rng = random.Random(seed)
    reads = sorted(
        r
        for w, var in zip(h.writes, h.write_vars)
        if len(h.writes_on(var)) >= 2
        for r in h.readers_of(w)
    )
    if not reads:
        raise NoAlternativeWriterError("every read's variable has a single writer")
    rid = rng.choice(reads)
    column = list(h.access)
    kind, var, val = column[rid]
    new_writer = rng.choice([w for w in h.writes_on(var) if column[w][2] != val])
    column[rid] = (kind, var, column[new_writer][2])

    def block(t: str) -> list[tuple[str, str, int]]:
        ids = h.thread_events(t)
        return column[ids.start:ids.stop]

    return history_from_blocks(
        init=[a[1:] for a in block(INIT_THREAD)],
        threads=[(t, block(t)) for t in h.threads],
        dp_refs=[(h.locate(a), h.locate(b)) for a, b in sorted(h.dp)],
    )
