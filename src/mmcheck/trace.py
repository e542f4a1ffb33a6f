"""Parsing and serialization of the `.mmh` trace format.

Line-oriented, UTF-8, `#` starts a comment.  A document looks like::

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
"""

from __future__ import annotations

import re

from .errors import TraceSyntaxError
from .events import MAX_VALUE, History, assemble_history

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_ASSIGN_RE = re.compile(rf"({_IDENT})=(\d+)")
_THREAD_RE = re.compile(rf"thread\s+({_IDENT})\s*$")
_ACCESS_RE = re.compile(rf"(wr|rd)\s+({_IDENT})\s+(\d+)\s*$")
_EDGE_RE = re.compile(
    rf"(rf|dp)\s+({_IDENT}):(\d+)\s*->\s*({_IDENT}):(\d+)\s*$"
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
    other event, and reads-from comes from explicit `rf` lines when any are
    present, otherwise from value inference.
    """
    init: list[tuple[str, int]] = []
    threads: list[tuple[str, list[tuple[str, str, int]]]] = []
    rf_lines: list[tuple[tuple[str, int], tuple[str, int]]] = []
    dp_lines: list[tuple[tuple[str, int], tuple[str, int]]] = []
    current: list[tuple[str, str, int]] | None = None
    seen_init = False

    # Access lines, the common case, cannot start with `init:`, so they are
    # tried first.  A value under 20 digits is below 2^64: no range check.
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        m = _ACCESS_RE.fullmatch(line)
        if m:
            if current is None:
                raise TraceSyntaxError("access outside a thread block", lineno)
            kind, var, val = m.groups()
            current.append(
                (kind, var, int(val) if len(val) < 20 else _int(val, lineno))
            )
            continue
        if not line:
            continue
        if line.startswith("init:"):
            if seen_init:
                raise TraceSyntaxError("second init line", lineno)
            if threads:
                raise TraceSyntaxError("init must precede threads", lineno)
            seen_init = True
            tokens = line[len("init:"):].split()
            if not tokens:
                raise TraceSyntaxError("empty init line", lineno)
            for token in tokens:
                m = _ASSIGN_RE.fullmatch(token)
                if not m:
                    raise TraceSyntaxError("malformed init assignments", lineno)
                init.append((m.group(1), _int(m.group(2), lineno)))
            continue
        m = _THREAD_RE.fullmatch(line)
        if m:
            current = []
            threads.append((m.group(1), current))
            continue
        m = _EDGE_RE.fullmatch(line)
        if m:
            kind, st, sp, tt, tp = m.groups()
            edge = ((st, _int(sp, lineno)), (tt, _int(tp, lineno)))
            (rf_lines if kind == "rf" else dp_lines).append(edge)
            continue
        raise TraceSyntaxError(f"cannot parse {line!r}", lineno)

    return assemble_history(
        init=init,
        threads=threads,
        rf_refs=rf_lines if rf_lines else None,
        dp_refs=dp_lines,
    )


def format_history(h: History, explicit_rf: bool = False) -> str:
    """Serialize a history back to trace text.

    The output is canonical (threads in declaration order, events in
    program order), so parse/format round-trips are byte-stable.  With
    `explicit_rf`, every reads-from edge is written out; otherwise the
    relation is left to value inference.
    """
    lines: list[str] = []
    inits = h.init_events
    if inits:
        lines.append("init: " + " ".join(f"{e.var}={e.val}" for e in inits))
    for t in h.threads:
        lines.append(f"thread {t}")
        for eid in h.thread_events(t):
            e = h.events[eid]
            lines.append(f"{e.kind} {e.var} {e.val}")
    if explicit_rf:
        for w, r in sorted(h.rf, key=lambda p: p[1]):
            lines.append(f"rf {h.ref(w)} -> {h.ref(r)}")
    for s, t in sorted(h.dp):
        lines.append(f"dp {h.ref(s)} -> {h.ref(t)}")
    if not lines:
        return ""
    return "\n".join(lines) + "\n"
