"""Per-layer spans recorded from outside the package.

`Tracer.install` replaces each layer's public function, at the name its
caller looks it up under, with a wrapper that records the call count and
self time (the call's duration minus the time of spans nested inside
it, and minus the time the host-speed sampler ran during it).  Nothing in `mmcheck` is edited; `Tracer.remove` puts the original
functions back.
"""

from __future__ import annotations

import time

#: (module, attribute, span).  Attributes are patched in the module whose
#: code calls them, because `from x import f` binds the name there.
WRAPPED = (
    ("mmcheck.trace", "parse_history", "trace.parse"),
    ("mmcheck.trace", "assemble_history", "events.assemble"),
    ("mmcheck.solver", "derive", "models.derive"),
    ("mmcheck.solver", "oota_cycle", "models.derive"),
    ("mmcheck.solver", "build_base_graphs", "graphs.base_graphs"),
    ("mmcheck.solver", "kahn_acyclic", "graphs.kahn"),
    ("mmcheck.solver", "find_cycle", "graphs.kahn"),
    ("mmcheck.solver", "extract_witness", "solver.witness"),
    ("mmcheck.solver", "verify_witness", "solver.witness"),
    ("mmcheck.solver", "solve", "solver.search"),
)

SPANS = tuple(dict.fromkeys(span for _, _, span in WRAPPED))


class SpanGuardError(RuntimeError):
    """A wrapped function is gone, or one the workload needs never ran."""


class Tracer:
    def __init__(self, modules: dict, busy):
        self.modules = modules
        #: Returns the sampler's total time so far (HostSpeed.busy_s).
        self.busy = busy
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.calls = dict.fromkeys(SPANS, 0)
        #: Calls per wrapped function, keyed `module.attribute`.
        self.calls_of = {f"{m}.{a}": 0 for m, a, _ in WRAPPED}
        self.base_edges = 0
        self._stack: list[float] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for modname, attr, span in WRAPPED:
            module = self.modules[modname]
            fn = getattr(module, attr, None)
            if not callable(fn):
                raise SpanGuardError(
                    f"{modname}.{attr} no longer exists; span {span!r} "
                    "cannot be recorded, update bench/spans.py"
                )
            self._originals.append((module, attr, fn))
            wrapper = self._wrap(span, f"{modname}.{attr}", fn)
            if attr == "build_base_graphs":
                wrapper = self._count_edges(wrapper)
            setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def require(self, functions, workload: str) -> None:
        """Fail unless every named wrapped function was called."""
        missing = [f for f in functions if self.calls_of[f] == 0]
        if missing:
            raise SpanGuardError(
                f"{', '.join(missing)} recorded no calls on {workload}; "
                "the time of its layer would be counted in its caller"
            )

    def _wrap(self, span: str, key: str, fn):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        calls_of = self.calls_of
        clock = time.perf_counter
        busy = self.busy

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            sampling = busy()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start - (busy() - sampling)
                nested = stack.pop()
                self_s[span] += elapsed - nested
                calls[span] += 1
                calls_of[key] += 1
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def _count_edges(self, fn):
        def wrapper(*args, **kwargs):
            graphs = fn(*args, **kwargs)
            self.base_edges += sum(len(row) for g in graphs for row in g.adj)
            return graphs

        return wrapper
