"""Compile 3-CNF formulas into consistency-checking instances.

A formula becomes a history whose threads mimic an evaluation: a pair of
single-write threads per variable chooses its value (the later write in
the order wins), guarded literal threads forward variable values to
literal variables, and per-clause reader threads make an all-false clause
close an order cycle.  The strict variant keeps the guards inside the
literal threads; the relaxed variant moves the trailing guards into
separate reader threads so the emitted history has no write-to-read or
write-to-write program-order pairs at all, making it equally hard for
store-buffering models.

A tiny exhaustive SAT decider provides ground-truth labels.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedDimacsError, NotThreeSatError, TooManyVarsError
from .events import History, assemble_history

SAT_BRUTE_FORCE_MAX_VARS = 20


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
    """Parse DIMACS CNF with every clause of length exactly three."""
    tokens: list[str] = []
    header: tuple[int, int] | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            if header is not None:
                raise MalformedDimacsError("second problem line")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise MalformedDimacsError(f"bad problem line {line!r}")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise MalformedDimacsError(
                    f"bad problem line {line!r}"
                ) from None
            continue
        tokens.extend(line.split())
    if header is None:
        raise MalformedDimacsError("missing problem line")
    num_vars, num_clauses = header
    if num_vars < 0 or num_clauses < 0:
        raise MalformedDimacsError("negative counts in problem line")

    clauses: list[tuple[int, int, int]] = []
    current: list[int] = []
    for tok in tokens:
        try:
            lit = int(tok)
        except ValueError:
            raise MalformedDimacsError(f"bad token {tok!r}") from None
        if lit == 0:
            if len(current) != 3:
                raise NotThreeSatError(
                    f"clause {tuple(current)} has {len(current)} literals, "
                    "expected 3"
                )
            clauses.append((current[0], current[1], current[2]))
            current = []
        else:
            current.append(lit)
    if current:
        raise MalformedDimacsError("unterminated clause at end of input")
    if len(clauses) != num_clauses:
        raise MalformedDimacsError(
            f"problem line promises {num_clauses} clauses, found {len(clauses)}"
        )
    return Cnf3(num_vars, tuple(clauses))


def format_dimacs(cnf: Cnf3) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def _lit_name(lit: int) -> str:
    return f"p{lit}" if lit > 0 else f"n{-lit}"


def _lit_cd(negated: bool) -> tuple[int, int]:
    # The low-guard thread writes c, the high-guard thread writes d; a
    # positive literal copies the variable value, a negated one flips it.
    return (1, 0) if negated else (0, 1)


def sat_to_history_sc(cnf: Cnf3) -> History:
    """The strict-model instance: inconsistent under sc if unsatisfiable.

    The converse fails on at least one formula: the satisfiable
    `((1,-3,-2),(3,1,2),(-3,-2,-1),(2,1,3),(-1,-2,-3))` compiles to an
    instance that `solve` and `oracle_store` both call inconsistent.
    """
    threads: list[tuple[str, list[tuple[str, str, int]]]] = []
    for i in range(1, cnf.num_vars + 1):
        threads.append((f"T0_x{i}", [("wr", f"x{i}", 0)]))
        threads.append((f"T1_x{i}", [("wr", f"x{i}", 1)]))
    for var, negated in cnf.literals:
        lit = -var if negated else var
        name = _lit_name(lit)
        x = f"x{var}"
        c, d = _lit_cd(negated)
        threads.append(
            (f"T0_{name}", [("rd", x, 0), ("wr", name, c), ("rd", x, 0)])
        )
        threads.append(
            (f"T1_{name}", [("rd", x, 1), ("wr", name, d), ("rd", x, 1)])
        )
    _append_clause_threads(threads, cnf)
    return assemble_history(threads=threads)


def sat_to_history_relaxed(cnf: Cnf3) -> History:
    """The buffer-proof instance: no write-to-read/write-to-write po pairs.

    Equi-satisfiable with the strict instance under sc, and its verdict is
    identical under sc, tso, and pso.
    """
    threads: list[tuple[str, list[tuple[str, str, int]]]] = []
    for i in range(1, cnf.num_vars + 1):
        threads.append((f"T0_x{i}", [("wr", f"x{i}", 0)]))
        threads.append((f"T1_x{i}", [("wr", f"x{i}", 1)]))
    for var, negated in cnf.literals:
        lit = -var if negated else var
        name = _lit_name(lit)
        x = f"x{var}"
        c, d = _lit_cd(negated)
        threads.append((f"T0_{name}", [("rd", x, 0), ("wr", name, c)]))
        threads.append((f"T1_{name}", [("rd", x, 1), ("wr", name, d)]))
        threads.append((f"U0_{name}", [("rd", name, c), ("rd", x, 0)]))
        threads.append((f"U1_{name}", [("rd", name, d), ("rd", x, 1)]))
    _append_clause_threads(threads, cnf)
    return assemble_history(threads=threads)


def _append_clause_threads(
    threads: list[tuple[str, list[tuple[str, str, int]]]], cnf: Cnf3
) -> None:
    for j, (l1, l2, l3) in enumerate(cnf.clauses, start=1):
        n1, n2, n3 = _lit_name(l1), _lit_name(l2), _lit_name(l3)
        threads.append((f"C{j}_1", [("rd", n3, 0), ("rd", n1, 1)]))
        threads.append((f"C{j}_2", [("rd", n1, 0), ("rd", n2, 1)]))
        threads.append((f"C{j}_3", [("rd", n2, 0), ("rd", n3, 1)]))


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
