"""End-to-end and per-layer benchmark of `mmcheck check`.

Usage (from the repository root):

    python3 bench/run.py --workload long-traces --seed 1 --seconds 10 --trace 0

One process runs one workload: a closed loop with a single caller and no
extra threads.  Each check is the `mmcheck check` path in-process,
`parse_history(text)` then `solve(h, get_model(model))`, compared with a
reference verdict made during set-up.  The loop runs whole passes over
the workload's checks until `--seconds` have passed and at least 40
checks are done, enough for a 75th-percentile tail.

Every time reported is scaled to a host of fixed speed: a timer signal
samples a reference unit every 50 ms (see hostspeed.py), and each check's
latency, and each set-up, less the time spent sampling, is scaled by the
samples taken during it.

With `--trace 0` the last line of output holds the end-to-end metrics.
With `--trace 1` passes with spans wrapped around each layer's public
functions (see spans.py) alternate with untraced passes, until the traced
ones have taken half the time; the last line holds the per-layer metrics,
each per pass.
NOTES.md describes the workloads and the measured share of each layer.
"""

from __future__ import annotations

import argparse
import array
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

import hostspeed
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 3

#: A tail percentile needs at least this many inputs of a pass beyond it.
#: Inputs, not checks: repeats of one input on later passes add no
#: information about the tail of the workload's costs.
TAIL_BEYOND = 10
#: Tail percentiles, highest first, with the inputs beyond each per 1000.
TAIL_GRID = {99.9: 1, 99.0: 10, 95.0: 50, 90.0: 100, 75.0: 250}

#: An untraced run makes at least this many checks, so that ten or more
#: lie beyond the p75 tail even on a workload of few inputs.
MIN_CHECKS = 4 * TAIL_BEYOND

#: Wrapped functions each workload must call (see spans.WRAPPED).  Only
#: consistent checks reach the witness, only rmo checks the dependency
#: cycle test, and `find_cycle` runs only on a cyclic base graph.
EVERY_CHECK = (
    "mmcheck.trace.parse_history",
    "mmcheck.trace.assemble_history",
    "mmcheck.solver.derive",
    "mmcheck.solver.build_base_graphs",
    "mmcheck.solver.kahn_acyclic",
    "mmcheck.solver.solve",
)
WITNESS = ("mmcheck.solver.extract_witness", "mmcheck.solver.verify_witness")
REQUIRED_CALLS = {
    "long-traces": EVERY_CHECK + WITNESS,
    "hard-reductions": EVERY_CHECK,
    "small-corpus": EVERY_CHECK + WITNESS + ("mmcheck.solver.oota_cycle",),
}


def import_mmcheck():
    """Import the package anew from this checkout's `src/`, never elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m.split(".")[0] == "mmcheck"]:
        del sys.modules[name]
    mm = importlib.import_module("mmcheck")
    if Path(mm.__file__).resolve().parent != SRC / "mmcheck":
        sys.exit(f"bench: imported mmcheck from {mm.__file__}, not {SRC}")
    warnings.simplefilter("ignore", mm.errors.InitialReadVisibilityWarning)
    return mm


def set_up(workload: str, seed: int, repeats: int):
    """Import, generate inputs, label them by reference, format to text.

    Repeated `repeats` times; returns the last package and inputs and the
    median scaled set-up time.  Every repeat must produce the same inputs.
    """
    times = []
    first = None
    for _ in range(repeats):
        gc.collect()
        host = hostspeed.HostSpeed()
        host.start()
        try:
            start = time.perf_counter()
            busy = host.busy_s
            mm = import_mmcheck()
            checks = workloads.BUILDERS[workload](mm, seed)
            end = time.perf_counter()
            own = end - start - (host.busy_s - busy)
        finally:
            host.stop()
        times.append(own * host.factor(start, end))
        if first is None:
            first = checks
        elif checks != first:
            sys.exit("bench: set-up is not deterministic in the seed")
    # Collections during the loop then skip the inputs and the package.
    gc.collect()
    gc.freeze()
    return mm, checks, statistics.median(times)


class Loop:
    """Runs checks, keeping per-check latency, counters and failures."""

    def __init__(self, mm, checks, host: hostspeed.HostSpeed):
        self.host = host
        self.trace_mod = mm.trace
        self.solver_mod = mm.solver
        self.specs = {m: mm.get_model(m) for m in mm.MODELS}
        self.checks = checks
        # Plain arrays of doubles, so that what the benchmark keeps per
        # check adds little to the process's peak memory.
        self.latencies = array.array("d")
        #: perf_counter() at the start of each check.
        self.starts = array.array("d")
        self.attempted = 0
        self.failed = 0
        self.subsets = 0
        self.gate_checks = 0
        #: Subset count of each check's first run; later runs must match.
        self.subsets_of: dict[int, int] = {}

    def run_one(self, i: int) -> None:
        check = self.checks[i]
        spec = self.specs[check.model]
        self.attempted += 1
        # Each check starts with no garbage and fresh collector counts, as
        # in a one-shot `mmcheck check` process; this is not timed.
        gc.collect()
        busy = self.host.busy_s
        start = time.perf_counter()
        self.starts.append(start)
        try:
            h = self.trace_mod.parse_history(check.text)
            verdict = self.solver_mod.solve(h, spec)
        except Exception as exc:  # a check that raises is a failed check
            self.latencies.append(self._since(start, busy))
            self._fail(i, f"raised {exc!r}")
            return
        self.latencies.append(self._since(start, busy))

        count = verdict.stats.subsets_evaluated
        self.subsets += count
        self.gate_checks += verdict.stats.gate_checks
        first = self.subsets_of.setdefault(i, count)
        if verdict.consistent != check.consistent:
            self._fail(i, f"verdict {verdict.outcome.value}")
        elif verdict.consistent and sorted(verdict.witness) != list(h.writes):
            self._fail(i, "witness is not a permutation of the writes")
        elif count > 2**check.k:
            self._fail(i, f"{count} subsets exceed 2^{check.k}")
        elif count != first:
            self._fail(i, f"{count} subsets, {first} on an earlier run")

    def _since(self, start: float, busy: float) -> float:
        """Time since `start`, less the time spent sampling since then."""
        return time.perf_counter() - start - (self.host.busy_s - busy)

    def _fail(self, i: int, why: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            check = self.checks[i]
            ref = "consistent" if check.consistent else "inconsistent"
            print(
                f"bench: check {i} ({check.model}, reference {ref}): {why}",
                file=sys.stderr,
            )

    def run_pass(self) -> slice:
        """Check every input once; returns the slice of its checks."""
        before = len(self.latencies)
        for i in range(len(self.checks)):
            self.run_one(i)
        return slice(before, len(self.latencies))

    def run_for(self, seconds: float, min_checks: int) -> list[slice]:
        """Whole passes until `seconds` of wall time and `min_checks` have
        both passed; returns the slice of each pass."""
        passes: list[slice] = []
        end = time.perf_counter() + seconds
        while time.perf_counter() < end or len(self.latencies) < min_checks:
            passes.append(self.run_pass())
        return passes

    def scaled(self) -> list[float]:
        """Each check's latency, scaled by the host's speed around it."""
        factor = self.host.factor
        return [
            t * factor(s, s + t) for s, t in zip(self.starts, self.latencies)
        ]

    def subsets_digest(self) -> str:
        """Fingerprint of every check's subset count, equal across runs."""
        counts = [self.subsets_of[i] for i in sorted(self.subsets_of)]
        return hashlib.sha256(repr(counts).encode()).hexdigest()[:16]


def tail_percentile(count: int) -> float:
    """The highest grid percentile with at least ten of `count` inputs
    beyond it; p75, the lowest, when there are fewer than 40 inputs."""
    return next(
        (p for p, beyond in TAIL_GRID.items()
         if count * beyond >= 1000 * TAIL_BEYOND),
        min(TAIL_GRID),
    )


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile, in integer arithmetic."""
    ordered = sorted(values)
    rank = -(-len(ordered) * round(p * 10) // 1000)
    return ordered[max(rank, 1) - 1]


def git_revision() -> str:
    """HEAD of the checkout, read from `.git` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float):
    mm, checks, setup_s = set_up(workload, seed, SETUP_REPEATS)
    host = hostspeed.HostSpeed()
    host.start()
    try:
        Loop(mm, checks, host).run_one(0)  # warm-up, not counted
        loop = Loop(mm, checks, host)
        passes = loop.run_for(seconds, MIN_CHECKS)
    finally:
        host.stop()
    # Read before the figures below allocate a float per check.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    scaled = loop.scaled()
    pass_s = [sum(scaled[p]) for p in passes]
    lat_ms = [t * 1000 for t in scaled]
    tail_p = tail_percentile(len(checks))
    unit_ms = [d * 1000 for _, d in host.samples]
    print(
        f"loop: {len(checks)} checks per pass, {len(passes)} passes, "
        f"{len(lat_ms)} checks in {sum(loop.latencies):.2f} s unscaled "
        f"(median {statistics.median(loop.latencies) * 1000:.4g} ms); "
        f"reference unit {min(unit_ms):.3f}/{statistics.median(unit_ms):.3f}"
        f"/{max(unit_ms):.3f} ms min/median/max over {len(unit_ms)} samples; "
        f"latency_tail_ms is p{tail_p:g} of {len(lat_ms)} checks of "
        f"{len(checks)} inputs; "
        f"failed_share {loop.failed / loop.attempted:.4f}; subsets digest "
        f"{loop.subsets_digest()}"
    )
    return loop, {
        # Median over passes, so that a pass slowed by the machine weighs
        # as one pass, not by its length.
        "checks_per_s": metric(
            statistics.median(len(checks) / t for t in pass_s), "1/s"
        ),
        "latency_p50_ms": metric(statistics.median(lat_ms), "ms"),
        "latency_tail_ms": metric(percentile(lat_ms, tail_p), "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "setup_s": metric(setup_s, "s"),
    }


def traced(workload: str, seed: int, seconds: float):
    mm, checks, _ = set_up(workload, seed, 1)
    host = hostspeed.HostSpeed()
    host.start()
    try:
        Loop(mm, checks, host).run_one(0)  # warm-up, not counted
        tracer = spans.Tracer(sys.modules, lambda: host.busy_s)
        loop = Loop(mm, checks, host)
        replay = Loop(mm, checks, host)
        replay.subsets_of = loop.subsets_of

        def traced_pass() -> float:
            tracer.install()
            try:
                return sum(loop.latencies[loop.run_pass()])
            finally:
                tracer.remove()

        # Traced and untraced passes alternate in order, so that neither
        # side alone pays for the process warming up.
        passes = 0
        traced_s = untraced_s = 0.0
        while traced_s < seconds / 2:
            if passes % 2:
                traced_s += traced_pass()
                untraced_s += sum(replay.latencies[replay.run_pass()])
            else:
                untraced_s += sum(replay.latencies[replay.run_pass()])
                traced_s += traced_pass()
            passes += 1
    finally:
        host.stop()
    tracer.require(REQUIRED_CALLS[workload], workload)

    shares = ", ".join(
        f"{s} {tracer.self_s[s] / traced_s:.1%}" for s in spans.SPANS
    )
    print(f"loop: {passes} passes traced in {traced_s:.2f} s, "
          f"untraced in {untraced_s:.2f} s, unscaled")
    print(f"share of traced time: {shares}")

    # Every per-layer figure is per pass: one check of each input.  Span
    # times are scaled by the host's median speed over the run, loop times
    # check by check.
    unit_s = host.median_unit_s()
    scale = hostspeed.NOMINAL_S / unit_s
    out = {}
    for s in spans.SPANS:
        out[f"{s}_s"] = metric(tracer.self_s[s] * scale / passes, "s")
        out[f"{s}.calls"] = metric(tracer.calls[s] / passes, "count")
    out["solver.subsets"] = metric(loop.subsets / passes, "count")
    out["solver.gate_checks"] = metric(loop.gate_checks / passes, "count")
    out["solver.us_per_subset"] = metric(
        tracer.self_s["solver.search"] * scale / max(loop.subsets, 1) * 1e6,
        "us",
    )
    out["graphs.base_edges"] = metric(tracer.base_edges / passes, "count")
    traced_s, untraced_s = sum(loop.scaled()), sum(replay.scaled())
    out["traced_loop_s"] = metric(traced_s / passes, "s")
    out["tracing_overhead_s"] = metric((traced_s - untraced_s) / passes, "s")
    out["host.unit_ms"] = metric(unit_s * 1000, "ms")

    loop.attempted += replay.attempted
    loop.failed += replay.failed
    return loop, out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.BUILDERS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "mmcheck" / "__init__.py").is_file():
        sys.exit(f"bench: no mmcheck sources under {SRC}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    print("run: " + json.dumps(record))
    run = traced if args.trace else end_to_end
    loop, metrics = run(args.workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
