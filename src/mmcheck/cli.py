"""Command-line front-end.

One binary, subcommand style:

    mmcheck check  <trace.mmh> --model sc [--witness] [--stats]
    mmcheck oracle <trace.mmh> --model sc [--oracle-mode total|store] ...
    mmcheck gen sat --variant sc|relaxed <file.cnf> [-o out.mmh]
    mmcheck gen random --model sc --threads N --events N --vars N --seed S
    mmcheck mutate --seed S <trace.mmh> [-o out.mmh]

Exit codes are the API: 0 consistent, 1 inconsistent, 2 usage/parse/model
error, 3 resource bound exceeded.  Machine-readable output goes to
stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import sys
import time

from .errors import MmcheckError, ResourceBoundError
from .events import History
from .models import MODELS, get_model
from .oracle import oracle_store, oracle_total
from .reduction import parse_dimacs, sat_to_history_relaxed, sat_to_history_sc
from .simgen import SIMULATED_MODELS, generate_program, mutate, simulate
from .solver import Verdict, solve
from .trace import format_history, parse_history

EXIT_CONSISTENT = 0
EXIT_INCONSISTENT = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

#: `gen sat --variant`: the strict-model or the buffer-proof construction.
SAT_VARIANTS = {"sc": sat_to_history_sc, "relaxed": sat_to_history_relaxed}

#: `oracle --oracle-mode`: total write orders or per-variable store orders.
ORACLES = {"total": oracle_total, "store": oracle_store}


def _read_text(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MmcheckError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _report(
    verdict: Verdict, model: str, h: History, elapsed_ms: float,
    args: argparse.Namespace,
) -> int:
    """Print the line-oriented `key: value` report; return the exit code."""
    lines = [
        f"verdict: {verdict.outcome.value}",
        f"model: {model}",
        f"k: {h.k}",
        f"n: {h.n}",
    ]
    if args.witness:
        if verdict.consistent:
            lines.append("tw: " + " < ".join(h.ref(w) for w in verdict.witness))
        elif verdict.diagnostics:
            lines.append(f"diagnostics: {verdict.diagnostics}")
    if args.stats:
        if verdict.stats is not None:
            lines.append(f"subsets: {verdict.stats.subsets_evaluated}")
            lines.append(f"gate_checks: {verdict.stats.gate_checks}")
        lines.append(f"elapsed_ms: {elapsed_ms:.1f}")
    print("\n".join(lines))
    return EXIT_CONSISTENT if verdict.consistent else EXIT_INCONSISTENT


def cmd_check(args: argparse.Namespace) -> int:
    """`check` runs the subset solver, `oracle` a brute-force decider."""
    start = time.perf_counter()
    h = parse_history(_read_text(args.trace))
    spec = get_model(args.model)
    if args.command == "check":
        verdict = solve(h, spec)
    else:
        verdict = ORACLES[args.oracle_mode](h, spec)
    elapsed = (time.perf_counter() - start) * 1000.0
    return _report(verdict, spec.name, h, elapsed, args)


def cmd_gen_sat(args: argparse.Namespace) -> int:
    cnf = parse_dimacs(_read_text(args.cnf))
    h = SAT_VARIANTS[args.variant](cnf)
    _write_output(format_history(h), args.output)
    return EXIT_CONSISTENT


def cmd_gen_random(args: argparse.Namespace) -> int:
    prog = generate_program(
        args.threads, args.events, args.vars, args.seed
    )
    h = simulate(prog, args.model, args.seed)
    _write_output(format_history(h), args.output)
    return EXIT_CONSISTENT


def cmd_mutate(args: argparse.Namespace) -> int:
    h = parse_history(_read_text(args.trace))
    mutated = mutate(h, args.seed)
    _write_output(format_history(mutated, explicit_rf=True), args.output)
    return EXIT_CONSISTENT


def _count_arg(low: int):
    def count(value: str) -> int:
        n = int(value)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return n

    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmcheck",
        description="Consistency checking of shared-memory traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_check_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("trace", help="trace file (.mmh)")
        p.add_argument(
            "--model",
            required=True,
            type=str.lower,
            choices=sorted(MODELS),
            help="memory model to check against",
        )
        p.add_argument(
            "--witness",
            action="store_true",
            help="print the write order (or failure diagnostics)",
        )
        p.add_argument(
            "--stats", action="store_true", help="print search statistics"
        )

    p_check = sub.add_parser("check", help="run the subset solver")
    add_check_flags(p_check)
    p_check.set_defaults(func=cmd_check)

    p_oracle = sub.add_parser("oracle", help="run a brute-force decider")
    add_check_flags(p_oracle)
    p_oracle.add_argument(
        "--oracle-mode",
        choices=ORACLES,
        default="total",
        help="enumerate total write orders or per-variable store orders",
    )
    p_oracle.set_defaults(func=cmd_check)

    p_gen = sub.add_parser("gen", help="generate traces")
    gen_sub = p_gen.add_subparsers(dest="generator", required=True)

    p_sat = gen_sub.add_parser("sat", help="compile a 3-CNF formula")
    p_sat.add_argument("cnf", help="DIMACS CNF file")
    p_sat.add_argument(
        "--variant",
        choices=SAT_VARIANTS,
        default="sc",
        help="strict-model or buffer-proof construction",
    )
    p_sat.add_argument("-o", "--output", default=None)
    p_sat.set_defaults(func=cmd_gen_sat)

    p_rand = gen_sub.add_parser("random", help="simulate a random program")
    p_rand.add_argument(
        "--model",
        required=True,
        type=str.lower,
        choices=SIMULATED_MODELS,
    )
    p_rand.add_argument("--threads", type=_count_arg(0), default=2)
    p_rand.add_argument(
        "--events", type=_count_arg(0), default=3, help="events per thread"
    )
    p_rand.add_argument("--vars", type=_count_arg(1), default=2)
    p_rand.add_argument("--seed", type=int, default=0)
    p_rand.add_argument("-o", "--output", default=None)
    p_rand.set_defaults(func=cmd_gen_random)

    p_mut = sub.add_parser("mutate", help="rewire one read's writer")
    p_mut.add_argument("trace", help="trace file (.mmh)")
    p_mut.add_argument("--seed", type=int, default=0)
    p_mut.add_argument("-o", "--output", default=None)
    p_mut.set_defaults(func=cmd_mutate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceBoundError as exc:
        print(f"mmcheck: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (MmcheckError, OSError) as exc:
        print(f"mmcheck: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
