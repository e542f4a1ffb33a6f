"""Compile 3-CNF formulas into consistency-checking instances.

A formula becomes a history whose threads mimic an evaluation: a pair of
single-write threads per variable chooses its value (the later write in
the order wins), guarded literal threads forward variable values to
literal variables, and per-clause reader threads make an all-false clause
close an order cycle.  One builder writes this gadget for both
instances.  The strict instance keeps each literal thread's trailing
guard read inside the thread.  The relaxed instance is the strict one
with those trailing guards moved out: each literal thread ends at its
write, and after the literal's two threads come two reader threads, each
reading one side's write and then the guard that side's thread dropped.
So the relaxed history has no write-to-read or write-to-write
program-order pairs at all, which makes it equally hard for
store-buffering models.

Each write of the gadget is a vertex of the base graphs that `solve`
builds, so an instance whose tables would pass `MEMORY_CEILING` is
refused with `ResourceBoundError` before any thread is built: a header
declaring about 16,300 variables or more.  So is an instance whose
events, at `simgen.EVENT_BYTES` each to build and print, would pass the
ceiling: about 466,000 clauses or more.  `parse_dimacs` applies the
clauses' share of that bound at the problem line, so a document that
promises that many is refused before its clauses are read.

A tiny exhaustive SAT decider provides ground-truth labels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    MalformedDimacsError,
    NotThreeSatError,
    ResourceBoundError,
    TooManyVarsError,
)
from .events import History, history_from_blocks
from .simgen import EVENT_BYTES
from .solver import MEMORY_CEILING, table_bytes

SAT_BRUTE_FORCE_MAX_VARS = 20

#: The events `_gadget` builds for each clause: a formula of c clauses
#: compiles to at least 6c events.
CLAUSE_EVENTS = 6


@dataclass(frozen=True)
class Cnf3:
    """A 3-CNF formula over variables 1..num_vars, DIMACS-signed literals."""

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        for clause in self.clauses:
            if len(clause) != 3:
                raise NotThreeSatError(
                    f"clause {clause} does not have exactly 3 literals"
                )
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise MalformedDimacsError(
                        f"literal {lit} outside 1..{self.num_vars}"
                    )

    @property
    def literals(self) -> tuple[tuple[int, bool], ...]:
        """Distinct (variable, negated) pairs, positives first per variable."""
        seen = {
            (abs(lit), lit < 0) for clause in self.clauses for lit in clause
        }
        return tuple(sorted(seen))


def parse_dimacs(text: str) -> Cnf3:
    """Parse DIMACS CNF with every clause of length exactly three.

    Lines end at `\\n` alone, as in the trace format, so a `c` line
    ends there too, and a `%` line ends the document.  The problem line
    is `p cnf <variables> <clauses>` and comes before every clause line,
    and every integer is `-?[0-9]+` in ASCII digits.  One pass over the
    lines, each matched in place with no list of the lines and no copy of
    the text, converts each token as it meets it and closes a clause at
    each `0`.  Two bounds hold what the pass keeps to what the document
    promises.  A problem line whose clauses, at the six events that
    `_gadget` builds for each and `simgen.EVENT_BYTES` an event, would
    pass `MEMORY_CEILING` raises `ResourceBoundError` at that line:
    about 466,000 clauses or more.  And the first clause past the
    promised count is reported at its clause.  Otherwise faults are
    reported in this order: a line's own fault, in line order; then the
    document's (no problem line, negative counts, an unterminated clause,
    fewer clauses than promised); then `Cnf3`'s, the one check of each
    clause's arity and literal range, whose messages the reader passes on
    as they are (`clause (1, 2) does not have exactly 3 literals`).  So a
    problem line that promises too many clauses is refused before any
    later line's fault, and so is a clause past the promised count.
    """
    header: tuple[int, int] | None = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    # `.` matches every character but `\n`, so each match is a line.
    for match in re.finditer(".+", text):
        line = match.group().strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            if header is not None:
                raise MalformedDimacsError("second problem line")
            parts = line.split()
            if len(parts) != 4 or parts[:2] != ["p", "cnf"]:
                raise MalformedDimacsError(f"bad problem line {line!r}")
            header = (_int(parts[2]), _int(parts[3]))
            if header[1] * CLAUSE_EVENTS * EVENT_BYTES > MEMORY_CEILING:
                raise ResourceBoundError(f"{header[1]} clauses: memory ceiling")
            continue
        if header is None:
            raise MalformedDimacsError("clause line before the problem line")
        for tok in line.split():
            lit = _int(tok)
            if lit:
                current.append(lit)
            elif len(clauses) == header[1]:
                raise MalformedDimacsError(
                    f"problem line promises {header[1]} clauses, found more"
                )
            else:
                clauses.append(tuple(current))
                current = []
    if header is None:
        raise MalformedDimacsError("missing problem line")
    num_vars, num_clauses = header
    if num_vars < 0 or num_clauses < 0:
        raise MalformedDimacsError("negative counts in problem line")
    if current:
        raise MalformedDimacsError("unterminated clause at end of input")
    if len(clauses) != num_clauses:
        raise MalformedDimacsError(
            f"problem line promises {num_clauses} clauses, found {len(clauses)}"
        )
    return Cnf3(num_vars, tuple(clauses))


def _int(token: str) -> int:
    # A DIMACS integer is `-?[0-9]+`.  int() alone would also take `+1`,
    # `1_0` and any Unicode decimal digit, and it refuses a literal past
    # the interpreter's digit limit (4,300 digits by default).
    digits = token.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise MalformedDimacsError(f"bad token {token!r}")
    try:
        return int(token)
    except ValueError:
        raise MalformedDimacsError(
            f"integer of {len(digits)} digits is too long"
        ) from None


def _lit_name(lit: int) -> str:
    return f"p{lit}" if lit > 0 else f"n{-lit}"


def sat_to_history_sc(cnf: Cnf3) -> History:
    """The strict-model instance: inconsistent under sc if unsatisfiable.

    The converse fails on at least one formula: the satisfiable
    `((1,-3,-2),(3,1,2),(-3,-2,-1),(2,1,3),(-1,-2,-3))` compiles to an
    instance that `solve` and `oracle_store` both call inconsistent.
    """
    return _gadget(cnf, relaxed=False)


def sat_to_history_relaxed(cnf: Cnf3) -> History:
    """The buffer-proof instance: no write-to-read/write-to-write po pairs.

    Equi-satisfiable with the strict instance under sc, and its verdict is
    identical under sc, tso, and pso.
    """
    return _gadget(cnf, relaxed=True)


def _gadget(cnf: Cnf3, relaxed: bool) -> History:
    # Two writes per variable and per literal, each a base-graph vertex:
    # refuse an instance whose tables no check could build.
    literals = cnf.literals
    k = 2 * cnf.num_vars + 2 * len(literals)
    if table_bytes(k, k) > MEMORY_CEILING:
        raise ResourceBoundError(f"k={k} writes: memory ceiling")
    # Two events per variable, six per clause, and six per literal, or
    # eight with the relaxed instance's readers: refuse an instance that
    # could not be built and printed within the ceiling.  A variable's or
    # a literal's events cost more than a clause's (8,000 variables and
    # 2,000 clauses took about 620 bytes an event), but the bound on k
    # caps them at 4k, about 130,000.
    n = 2 * cnf.num_vars + CLAUSE_EVENTS * len(cnf.clauses)
    n += (8 if relaxed else 6) * len(literals)
    if n * EVENT_BYTES > MEMORY_CEILING:
        raise ResourceBoundError(f"{n} events: memory ceiling")
    threads: list[tuple[str, list[tuple[str, str, int]]]] = []
    for i in range(1, cnf.num_vars + 1):
        threads.append((f"T0_x{i}", [("wr", f"x{i}", 0)]))
        threads.append((f"T1_x{i}", [("wr", f"x{i}", 1)]))
    for var, negated in literals:
        name, x = _lit_name(-var if negated else var), f"x{var}"
        # Side s guards on x = s and writes s to the literal variable, or
        # 1 - s for a negated literal.  The relaxed instance moves each
        # trailing guard into a reader of the side's write.
        for s in (0, 1):
            guard, write = ("rd", x, s), ("wr", name, s ^ negated)
            block = [guard, write] if relaxed else [guard, write, guard]
            threads.append((f"T{s}_{name}", block))
        if relaxed:
            for s in (0, 1):
                block = [("rd", name, s ^ negated), ("rd", x, s)]
                threads.append((f"U{s}_{name}", block))
    for j, clause in enumerate(cnf.clauses, start=1):
        n1, n2, n3 = map(_lit_name, clause)
        threads.append((f"C{j}_1", [("rd", n3, 0), ("rd", n1, 1)]))
        threads.append((f"C{j}_2", [("rd", n1, 0), ("rd", n2, 1)]))
        threads.append((f"C{j}_3", [("rd", n2, 0), ("rd", n3, 1)]))
    return history_from_blocks(threads=threads)


def sat_brute_force(cnf: Cnf3) -> bool:
    """Exhaustive satisfiability over all assignments."""
    if cnf.num_vars > SAT_BRUTE_FORCE_MAX_VARS:
        raise TooManyVarsError(
            f"{cnf.num_vars} variables exceed the brute-force bound of "
            f"{SAT_BRUTE_FORCE_MAX_VARS}"
        )
    for assignment in range(1 << cnf.num_vars):
        if all(
            any(
                (assignment >> (abs(lit) - 1) & 1) == (lit > 0)
                for lit in clause
            )
            for clause in cnf.clauses
        ):
            return True
    return False
