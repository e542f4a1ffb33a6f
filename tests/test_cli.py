"""Exit codes and report formats of the command-line front-end."""

from __future__ import annotations

import contextlib
import io
import time
import tracemalloc
from pathlib import Path

import pytest

from mmcheck import (
    format_history,
    get_model,
    mutate,
    parse_dimacs,
    parse_history,
    sat_to_history_sc,
    solve,
)
from mmcheck import reduction as reduction_module
from mmcheck import solver as solver_module
from mmcheck.cli import main
from mmcheck.errors import InternalWitnessInvalidError
from mmcheck.simgen import EVENT_BYTES

from conftest import PINNED_REDUCTIONS, SB, TRACES, spread_writes_histories


@pytest.fixture()
def sb_path(tmp_path):
    p = tmp_path / "sb.mmh"
    p.write_text(SB)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_exit_codes(capsys, sb_path):
    code, out, _ = run(capsys, "check", sb_path, "--model", "sc")
    assert code == 1
    assert "verdict: inconsistent" in out
    code, out, err = run(capsys, "check", sb_path, "--model", "tso")
    assert code == 0
    assert "verdict: consistent" in out
    assert "model: tso" in out and "k: 4" in out and "n: 6" in out
    assert err == ""


def test_check_empty_trace(capsys, tmp_path):
    p = tmp_path / "empty.mmh"
    p.write_text("")
    code, out, _ = run(capsys, "check", str(p), "--model", "rmo")
    assert code == 0


def test_model_is_case_insensitive(capsys, sb_path):
    code, _, _ = run(capsys, "check", sb_path, "--model", "TSO")
    assert code == 0


def test_unknown_model_usage_error(sb_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", sb_path, "--model", "xyz"])
    assert exc.value.code == 2


def test_parse_error_exit_code(capsys, tmp_path):
    p = tmp_path / "bad.mmh"
    for doc in ("thread T0\nwr x\n", f"thread T0\nwr x {'1' * 5000}\n"):
        p.write_text(doc)
        code, _, err = run(capsys, "check", str(p), "--model", "sc")
        assert code == 2
        assert "line 2" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "check", "/nonexistent.mmh", "--model", "sc")
    assert code == 2


def test_malformed_dimacs_exit_code(capsys, tmp_path):
    p = tmp_path / "bad.cnf"
    p.write_text("p cnf 1 1\n1 a 1 0\n")
    code, out, err = run(capsys, "gen", "sat", str(p))
    assert (code, out) == (2, "")
    assert err == "mmcheck: bad token 'a'\n"


@pytest.mark.parametrize("variant", ["sc", "relaxed"])
def test_oversized_dimacs_header_exit_code(capsys, tmp_path, variant):
    p = tmp_path / "big.cnf"
    p.write_text("p cnf 100000000 1\n1 2 3 0\n")
    out_path = tmp_path / "big.mmh"
    code, out, err = run(
        capsys, "gen", "sat", "--variant", variant, str(p), "-o", str(out_path)
    )
    assert (code, out) == (3, "") and not out_path.exists()
    assert err == "mmcheck: k=200000006 writes: memory ceiling\n"


@pytest.mark.parametrize("variant", ["sc", "relaxed"])
def test_too_many_clauses_exit_code(capsys, tmp_path, monkeypatch, variant):
    # A ceiling of 25 events refuses the 26 or 30 events this formula
    # compiles to; the unpatched ceiling refuses about 466,000 clauses.
    monkeypatch.setattr(reduction_module, "MEMORY_CEILING", 25 * EVENT_BYTES)
    p = tmp_path / "many.cnf"
    p.write_text("p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n")
    out_path = tmp_path / "many.mmh"
    code, out, err = run(
        capsys, "gen", "sat", "--variant", variant, str(p), "-o", str(out_path)
    )
    assert (code, out) == (3, "") and not out_path.exists()
    n = 26 if variant == "sc" else 30
    assert err == f"mmcheck: {n} events: memory ceiling\n"


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (("check", "{}", "--model", "sc"), "thread T0\nwr x \u0661\n", "line 2: "),
        (("gen", "sat", "{}"), "p cnf 3 1\n\u0661 2 3 0\n", "bad token "),
    ],
    ids=["check", "gen-sat"],
)
def test_non_ascii_digits_exit_code(capsys, tmp_path, argv, text, message):
    p = tmp_path / "digits.txt"
    p.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *(a.format(p) for a in argv))
    assert (code, out) == (2, "") and err.startswith(f"mmcheck: {message}")


@pytest.mark.parametrize(
    "argv",
    [("check", "{}", "--model", "sc"), ("gen", "sat", "{}")],
    ids=["check", "gen-sat"],
)
def test_non_utf8_input_exit_code(capsys, tmp_path, argv):
    p = tmp_path / "latin1.txt"
    p.write_bytes("thread T0\nwr x 1 # caf\xe9\n".encode("latin-1"))
    code, out, err = run(capsys, *(a.format(p) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith(f"mmcheck: {p}: ") and "UTF-8" in err


def test_leading_byte_order_mark_is_skipped(capsys, tmp_path):
    bom = "\ufeff".encode()
    trace = tmp_path / "bom.mmh"
    trace.write_bytes(bom + SB.encode())
    code, out, err = run(capsys, "check", str(trace), "--model", "tso")
    assert code == 0 and "verdict: consistent" in out and err == ""
    dimacs = "p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n"
    cnf = tmp_path / "bom.cnf"
    cnf.write_bytes(bom + dimacs.encode())
    code, out, err = run(capsys, "gen", "sat", str(cnf))
    plain = format_history(sat_to_history_sc(parse_dimacs(dimacs)))
    assert code == 0 and out == plain and err == ""
    # An invalid byte's offset counts the mark's three bytes.
    trace.write_bytes(bom + "thread T0\nwr x 1 # caf\xe9".encode("latin-1"))
    code, out, err = run(capsys, "check", str(trace), "--model", "sc")
    assert code == 2 and out == "" and "at byte 25)" in err


@pytest.mark.parametrize(
    "text, ceiling, needle",
    [
        (SB, 2_367, "k=4 writes on 8 base-graph vertices"),
        (
            format_history(sat_to_history_sc(PINNED_REDUCTIONS[1][0])),
            35_439,
            "search passed 157 subsets at k=24",
        ),
        (
            format_history(sat_to_history_sc(PINNED_REDUCTIONS[1][0])),
            16_792,
            "search passed 10 subsets at k=24",
        ),
    ],
    ids=["tables", "search", "search-after-tables"],
)
def test_memory_ceiling_is_exit_3(
    capsys, tmp_path, monkeypatch, text, ceiling, needle
):
    # Under sc.  sb has k = 4 writes on 8 base-graph vertices, whose
    # tables take 2,368 bytes by `table_bytes`: a byte less refuses them.
    # The second pinned reduction takes 158 subsets at k = 24, whose memo
    # entries take MEMO_ENTRY_BYTES + 4 = 126 bytes each; its tables take
    # 12,652, and besides its dead sets its search holds 15,532 (tables
    # without their ancestor masks, read waits and stack).  A byte short
    # of 15,532 + 158 * 126 admits the tables and 157 subsets, and the
    # 158th passes the ceiling.  At 15,532 + 10 * 126 the tables take
    # three quarters of the ceiling, and the search is refused past the
    # 10 entries that the rest holds.
    p = tmp_path / "trace.mmh"
    p.write_text(text)
    monkeypatch.setattr(solver_module, "MEMORY_CEILING", ceiling)
    code, out, err = run(capsys, "check", str(p), "--model", "sc")
    assert code == 3 and out == ""
    assert err.startswith("mmcheck: ") and needle in err


def test_out_of_memory_is_exit_3(capsys, sb_path, monkeypatch):
    # Running out of memory is a resource bound, not a verdict.
    def exhausted(text):
        raise MemoryError

    monkeypatch.setattr("mmcheck.cli.parse_history", exhausted)
    code, out, err = run(capsys, "check", sb_path, "--model", "sc")
    assert code == 3 and out == ""
    assert err == "mmcheck: out of memory\n"


def test_witness_failing_its_recheck_is_no_verdict(capsys, monkeypatch):
    # A consistent verdict's witness is re-checked on the base graphs.  A
    # witness that fails the re-check is an internal error: `solve`
    # raises, and `check` reports it with exit 2 and prints no verdict.
    path = TRACES / "sb.mmh"
    monkeypatch.setattr(solver_module, "verify_witness", lambda *a: False)
    with pytest.raises(InternalWitnessInvalidError):
        solve(parse_history(path.read_text()), get_model("tso"))
    code, out, err = run(capsys, "check", str(path), "--model", "tso")
    assert code == 2 and "verdict:" not in out
    assert "failed re-verification" in err


# Two spread-writes programs per size and their rf mutants (k = 38, 68
# and 108): the exit code and the subsets evaluated under sc, tso, pso
# and rmo.
SPREAD_WRITES_CHECKS = {
    (4, 200, 30, 8): [
        ((0, 38), (0, 38), (0, 38), (0, 38)),
        ((1, 8), (1, 8), (1, 14), (0, 38)),
        ((0, 38), (0, 38), (0, 38), (0, 38)),
        ((1, 8), (1, 8), (0, 38), (0, 38)),
    ],
    (4, 400, 60, 8): [
        ((0, 68), (0, 68), (0, 68), (0, 68)),
        ((1, 34), (1, 35), (1, 35), (1, 62)),
        ((1, 5), (0, 68), (0, 68), (0, 68)),
        ((1, 5), (0, 68), (0, 68), (0, 68)),
    ],
    (4, 600, 100, 8): [
        ((0, 108), (0, 108), (0, 108), (0, 108)),
        ((1, 0), (1, 0), (1, 0), (0, 108)),
        ((1, 23), (0, 108), (0, 108), (0, 108)),
        ((1, 8), (1, 8), (1, 12), (1, 98)),
    ],
}


@pytest.mark.parametrize("size", SPREAD_WRITES_CHECKS)
def test_spread_writes_are_decided_at_any_k(capsys, tmp_path, size):
    # k well past 30, with no option: the work follows the instance's
    # structure, and memory alone bounds it
    histories = spread_writes_histories(2, 1, size)
    p = tmp_path / "spread.mmh"
    for h, expected in zip(histories, SPREAD_WRITES_CHECKS[size], strict=True):
        p.write_text(format_history(h))
        for model, (exit_code, subsets) in zip(
            ("sc", "tso", "pso", "rmo"), expected
        ):
            code, out, err = run(
                capsys, "check", str(p), "--model", model, "--stats"
            )
            assert (code, err) == (exit_code, "")
            assert f"k: {h.k}" in out and f"subsets: {subsets}\n" in out


def test_k_beyond_recursion_limit_is_checked(capsys, tmp_path):
    # one write per level of the subset search, past the interpreter's
    # default recursion limit of 1,000: the search runs on its own stack
    p = tmp_path / "chain.mmh"
    p.write_text("thread T0\n" + "".join(f"wr x {i}\n" for i in range(1200)))
    code, out, err = run(capsys, "check", str(p), "--model", "sc")
    assert code == 0 and err == ""
    assert "verdict: consistent" in out
    # as many written variables, one write each: the store-order walk
    # enumerates none of them, so the oracle stays linear in them
    p.write_text("thread T0\n" + "".join(f"wr v{i} 1\n" for i in range(1200)))
    code, out, err = run(
        capsys, "oracle", str(p), "--model", "sc", "--oracle-mode", "store"
    )
    assert code == 0 and err == ""
    assert "verdict: consistent" in out


@pytest.mark.parametrize("command", ["check", "oracle"])
def test_elapsed_ms_covers_parsing(capsys, sb_path, monkeypatch, command):
    # `--stats` times the run from trace text to verdict
    def slow_parse(text):
        time.sleep(0.06)
        return parse_history(text)

    monkeypatch.setattr("mmcheck.cli.parse_history", slow_parse)
    code, out, _ = run(
        capsys, command, sb_path, "--model", "tso", "--stats"
    )
    assert code == 0
    (line,) = [l for l in out.splitlines() if l.startswith("elapsed_ms: ")]
    assert float(line.split()[1]) >= 50


def test_witness_line_format(capsys, sb_path):
    code, out, _ = run(
        capsys, "check", sb_path, "--model", "tso", "--witness"
    )
    assert code == 0
    tw_lines = [l for l in out.splitlines() if l.startswith("tw: ")]
    assert len(tw_lines) == 1
    assert " < " in tw_lines[0]
    # inconsistent run prints diagnostics instead
    code, out, _ = run(capsys, "check", sb_path, "--model", "sc", "--witness")
    assert code == 1
    assert "tw:" not in out
    assert any(l.startswith("diagnostics: ") for l in out.splitlines())


def test_stats_output(capsys, sb_path):
    code, out, _ = run(capsys, "check", sb_path, "--model", "tso", "--stats")
    assert code == 0
    subsets = [l for l in out.splitlines() if l.startswith("subsets: ")]
    assert len(subsets) == 1
    h = parse_history(SB)
    assert int(subsets[0].split(":")[1]) <= 2 ** h.k
    gate_checks = [l for l in out.splitlines() if l.startswith("gate_checks: ")]
    assert len(gate_checks) == 1 and int(gate_checks[0].split(":")[1]) > 0
    assert not any(l.startswith(("graphs:", "kahn:")) for l in out.splitlines())


def test_oracle_agrees_with_check(capsys, sb_path):
    for mode in ("total", "store"):
        code, out, _ = run(
            capsys, "oracle", sb_path, "--model", "sc", "--oracle-mode", mode
        )
        assert code == 1
        code, out, _ = run(
            capsys, "oracle", sb_path, "--model", "tso",
            "--oracle-mode", mode, "--witness",
        )
        assert code == 0
        assert any(l.startswith("tw: ") for l in out.splitlines())


def test_oracle_report_lines(capsys):
    # the oracle prints the check report, without search counters or
    # diagnostics, which only the subset search keeps
    sb = str(TRACES / "sb.mmh")
    code, out, _ = run(
        capsys, "oracle", sb, "--model", "tso", "--oracle-mode", "store",
        "--witness", "--stats",
    )
    assert code == 0
    lines = out.splitlines()
    (elapsed,) = [l for l in lines if l.startswith("elapsed_ms: ")]
    lines.remove(elapsed)
    assert lines == [
        "verdict: consistent",
        "model: tso",
        "k: 4",
        "n: 6",
        "tw: init:0 < init:1 < T1:0 < T0:0",
    ]
    code, out, _ = run(
        capsys, "oracle", sb, "--model", "sc", "--oracle-mode", "total",
        "--witness", "--stats",
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "verdict: inconsistent"
    assert not any(
        l.startswith(("diagnostics:", "subsets:", "gate_checks:", "tw:"))
        for l in lines
    )
    assert sum(l.startswith("elapsed_ms: ") for l in lines) == 1


def test_gen_sat_round_trip(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 1\n1 1 1 0\n")
    out_path = tmp_path / "out.mmh"
    code, _, _ = run(
        capsys, "gen", "sat", str(cnf), "--variant", "sc", "-o", str(out_path)
    )
    assert code == 0
    h = parse_history(out_path.read_text())
    assert h.k == 4 and h.n == 14

    code, out, _ = run(capsys, "gen", "sat", str(cnf), "--variant", "relaxed")
    assert code == 0
    assert parse_history(out).n == 16


def test_gen_random_deterministic(capsys):
    args = (
        "gen", "random", "--model", "tso", "--threads", "2",
        "--events", "3", "--vars", "2", "--seed", "7",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert parse_history(out1).n > 0


def test_gen_random_takes_many_declared_variables(capsys):
    # Only the variables drawn are named, so 10^8 declared ones are cheap.
    # The 10^5 run goes first: naming every declared variable would fail
    # it at about 11 MB, before the 10^8 run would take about 11 GB.
    for num_vars in ("100000", "100000000"):
        tracemalloc.start()
        try:
            code, out, _ = run(
                capsys, "gen", "random", "--model", "sc", "--threads", "1",
                "--events", "1", "--vars", num_vars,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 2**20
        assert parse_history(out).n == 2


def test_gen_random_refuses_oversized_runs(capsys):
    # 10^10 events would pass the memory ceiling: refused before drawing.
    code, out, err = run(
        capsys, "gen", "random", "--model", "sc", "--threads", "100000",
        "--events", "100000",
    )
    assert code == 3 and out == ""
    assert err.startswith("mmcheck: ") and "memory ceiling" in err


@pytest.mark.parametrize(
    "flag, value", [("--vars", "0"), ("--threads", "-1"), ("--events", "-1")]
)
def test_gen_random_rejects_bad_counts(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "random", "--model", "sc", flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_mutate_round_trip(capsys, tmp_path, sb_path):
    # the value names each read's writer, so no rf line is written
    code, out, _ = run(capsys, "mutate", sb_path, "--seed", "1")
    assert code == 0
    assert not any(line.startswith("rf ") for line in out.splitlines())
    back, m = parse_history(out), mutate(parse_history(SB), 1)
    assert (back.access, back.rf, back.dp) == (m.access, m.rf, m.dp)


def test_mutate_without_alternative_is_usage_error(capsys, tmp_path):
    p = tmp_path / "single.mmh"
    p.write_text("thread T0\nwr x 1\nrd x 1\n")
    code, _, err = run(capsys, "mutate", str(p), "--seed", "1")
    assert code == 2


def test_oracle_bound_resource_error(capsys, tmp_path):
    lines = ["thread T0"] + [f"wr v{i} 1" for i in range(9)]
    p = tmp_path / "wide.mmh"
    p.write_text("\n".join(lines) + "\n")
    code, _, err = run(
        capsys, "oracle", str(p), "--model", "sc", "--oracle-mode", "total"
    )
    assert code == 3
    # 2,000! store orders has more digits than an int prints by default:
    # the bound check stops counting at the bound
    p.write_text("thread T0\n" + "".join(f"wr x {i}\n" for i in range(2000)))
    code, out, err = run(
        capsys, "oracle", str(p), "--model", "sc", "--oracle-mode", "store"
    )
    assert code == 3 and out == ""
    assert "exceed the bound of 1000000" in err
    # 20 variables of two writes each: 2^20 store orders, one pool past
    # the deepest walk the bound allows
    init = " ".join(f"v{i}=0" for i in range(20))
    writes = "".join(f"wr v{i} 1\n" for i in range(20))
    p.write_text(f"init: {init}\nthread T0\n{writes}")
    code, out, err = run(
        capsys, "oracle", str(p), "--model", "sc", "--oracle-mode", "store"
    )
    assert code == 3 and out == ""
    assert "exceed the bound of 1000000" in err


def test_litmus_files_ship_with_expected_verdicts(capsys):
    expectations = [
        ("sb.mmh", "sc", 1),
        ("sb.mmh", "tso", 0),
        ("mp.mmh", "tso", 1),
        ("mp.mmh", "pso", 0),
        ("corr.mmh", "sc", 1),
        ("corr.mmh", "rmo", 0),
        ("oota.mmh", "rmo", 1),
    ]
    for name, model, expected in expectations:
        code, _, _ = run(
            capsys, "check", str(TRACES / name), "--model", model
        )
        assert code == expected, (name, model)


def check_report() -> str:
    """`check --witness --stats` on every shipped trace under every model.

    The `elapsed_ms:` lines are dropped; everything else (verdicts,
    witnesses, diagnostics and search counters) is deterministic.
    """
    lines = []
    for path in sorted(TRACES.glob("*.mmh")):
        for model in ("sc", "tso", "pso", "rmo"):
            flags = ["--model", model, "--witness", "--stats"]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["check", str(path), *flags])
            cmd = f"check traces/{path.name} {' '.join(flags)}"
            lines.append(f"$ mmcheck {cmd} -> exit {code}")
            lines += [
                line
                for line in out.getvalue().splitlines()
                if not line.startswith("elapsed_ms:")
            ]
    return "\n".join(lines) + "\n"


def test_check_output_matches_golden_file():
    golden = Path(__file__).with_name("check_golden.txt")
    assert check_report() == golden.read_text()
