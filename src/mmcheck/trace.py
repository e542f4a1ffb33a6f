"""Parsing and serialization of the `.mmh` trace format.

Line-oriented, UTF-8, `#` starts a comment.  A line ends at `\\n` alone,
and a `\\r` right before it is dropped with the other trailing blanks; no
other character, a lone `\\r` included, ends a line, so none can carry
text out of a comment.  A document looks like::

    init: x=0 y=0
    thread T0
    wr x 1
    rd y 0
    thread T1
    wr y 1
    rd x 0
    rf T0:0 -> T1:1      # optional; if present, must cover every read
    dp T1:1 -> T1:2      # optional; read-sourced program-order edges

Event references are `<thread>:<0-based position>`; initial writes live
on the virtual thread `init`, positions in declaration order.

A trace with k writes holds at most k distinct write lines, and a
variable's reads see only its written values, so a long trace repeats a
few distinct access lines many times.  The parser reads each line once.
It keeps, by each access line's raw text, the id list of its
`(kind, var, value)` access, so a repeated line costs one dict lookup
and one append, and two spellings of one access share one list.  A
thread header records the thread's name and its first id.  The grouped
ids then go to `events.assemble_history`, which works per distinct
access and per thread, with no loop over the events.
"""

from __future__ import annotations

import re

from .errors import TraceSyntaxError
from .events import INIT_THREAD, MAX_VALUE, WRITE, History, assemble_history

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_ASSIGN_RE = re.compile(rf"({_IDENT})=([0-9]+)")
#: An access line or a thread header.
_LINE_RE = re.compile(
    rf"(?:(wr|rd)\s+({_IDENT})\s+([0-9]+)|thread\s+({_IDENT}))\s*$"
)
_EDGE_RE = re.compile(
    rf"(rf|dp)\s+({_IDENT}):([0-9]+)\s*->\s*({_IDENT}):([0-9]+)\s*$"
)


def _int(digits: str, lineno: int) -> int:
    # int() refuses literals longer than the interpreter's digit limit
    # (4,300 digits by default) with a ValueError.
    try:
        val = int(digits)
    except ValueError:
        raise TraceSyntaxError(
            f"integer of {len(digits)} digits is too long", lineno
        ) from None
    if val > MAX_VALUE:
        raise TraceSyntaxError(
            f"{val} is outside the unsigned 64-bit range", lineno
        )
    return val


def parse_history(text: str) -> History:
    """Parse a trace document into a validated history.

    Program order is taken from thread blocks, initial writes precede every
    other event, and reads-from is inferred from values.  Explicit `rf`
    lines, when any are present, are checked against the values and must
    cover every read.
    """
    groups: dict[tuple[str, str, int], list[int]] = {}
    starts: list[tuple[str, int]] = []
    rf_lines: list[tuple[tuple[str, int], tuple[str, int]]] = []
    dp_lines: list[tuple[tuple[str, int], tuple[str, int]]] = []
    ids_of: dict[str, list[int]] = {}
    eid = 0
    seen_init = False

    # A line seen before as an access line is looked up by its raw text;
    # its first occurrence raised nothing and found a thread block open.
    # Access lines, the common case, and thread headers cannot start with
    # `init:`, so they are tried first.
    for lineno, raw in enumerate(text.split("\n"), start=1):
        ids = ids_of.get(raw)
        if ids is not None:
            ids.append(eid)
            eid += 1
            continue
        line = raw.split("#", 1)[0].strip()
        m = _LINE_RE.fullmatch(line)
        if m:
            kind, var, val, thread = m.groups()
            if thread is not None:
                starts.append((thread, eid))
                continue
            if not starts:
                raise TraceSyntaxError("access outside a thread block", lineno)
            access = (kind, var, _int(val, lineno))
            ids_of[raw] = ids = groups.setdefault(access, [])
            ids.append(eid)
            eid += 1
            continue
        if not line:
            continue
        if line.startswith("init:"):
            if seen_init:
                raise TraceSyntaxError("second init line", lineno)
            if starts:
                raise TraceSyntaxError("init must precede threads", lineno)
            seen_init = True
            tokens = line[len("init:"):].split()
            if not tokens:
                raise TraceSyntaxError("empty init line", lineno)
            for token in tokens:
                m = _ASSIGN_RE.fullmatch(token)
                if not m:
                    raise TraceSyntaxError("malformed init assignments", lineno)
                access = (WRITE, m.group(1), _int(m.group(2), lineno))
                groups.setdefault(access, []).append(eid)
                eid += 1
            continue
        m = _EDGE_RE.fullmatch(line)
        if m:
            kind, st, sp, tt, tp = m.groups()
            edge = ((st, _int(sp, lineno)), (tt, _int(tp, lineno)))
            (rf_lines if kind == "rf" else dp_lines).append(edge)
            continue
        raise TraceSyntaxError(f"cannot parse {line!r}", lineno)

    # Each block ends where the next begins, and the last at the end.
    ends = [start for _, start in starts[1:]] + [eid]
    threads = [(INIT_THREAD, starts[0][1] if starts else eid)]
    threads += [(t, end - start) for (t, start), end in zip(starts, ends)]
    return assemble_history(
        groups, threads, rf_lines if rf_lines else None, dp_lines
    )


def format_history(h: History, explicit_rf: bool = False) -> str:
    """Serialize a history back to trace text.

    The output is canonical (threads in declaration order, events in
    program order), so parse/format round-trips are byte-stable.  With
    `explicit_rf`, every reads-from edge is written out; otherwise the
    relation is left to value inference.
    """
    lines: list[str] = []
    access = h.access
    inits = [access[i][1:] for i in h.thread_events(INIT_THREAD)]
    if inits:
        lines.append("init: " + " ".join("%s=%s" % a for a in inits))
    for t in h.threads:
        lines.append(f"thread {t}")
        lines.extend("%s %s %s" % access[i] for i in h.thread_events(t))
    if explicit_rf:
        for w, r in sorted(h.rf, key=lambda p: p[1]):
            lines.append(f"rf {h.ref(w)} -> {h.ref(r)}")
    for s, t in sorted(h.dp):
        lines.append(f"dp {h.ref(s)} -> {h.ref(t)}")
    if not lines:
        return ""
    return "\n".join(lines) + "\n"
