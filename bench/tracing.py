"""Per-layer tracing of hassewitt from outside the package.

``Tracer.install`` rebinds each public function in ``LAYERS`` to a timing
wrapper in every ``hassewitt.*`` namespace that binds it.  Module globals
are looked up at call time, so calls from inside the package are caught
too.  ``uninstall`` puts the originals back.

Each wrapped call is a span (name, start, end, parent span, request).  A
span's self time is its duration minus the time its wrapped children
cover.  Aggregates are kept for every call; the spans themselves are kept
in memory up to ``SPAN_CAP`` and written out at the end.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter_ns

# module -> public functions timed; the benchmark's layers
LAYERS = {
    "arith": ("factor", "is_prime", "squarefree_part", "padic_split", "legendre"),
    "cohomology": ("hilbert_symbol", "cup", "cup_sum", "relevant_places", "localize"),
    "forms": ("diagonalize", "invariants", "isometric"),
    "numberfield": ("power_sums", "trace_gram", "discriminant", "resultant", "count_real_roots",
                    "trace_form_report", "factor_pattern_mod_p"),
    "obstructions": ("lifting_decisions", "sp2_permutation", "delta_comparison", "jehanne_local"),
    "motives": ("motive_report", "euler_characteristic", "betti_w_invariants"),
    "cli": ("parse_gram", "parse_poly", "execute", "dump_report"),
}

SPAN_CAP = 200_000


def span_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.factor_args: set[int] = set()
        self.request = -1
        self._stack: list[list[int]] = []  # [span index or -1, child ns] per open call
        self._span_name = array("H")
        self._span_start = array("q")
        self._span_end = array("q")
        self._span_parent = array("l")
        self._span_request = array("l")
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import hassewitt  # noqa: F401 - loads every submodule

        package = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hassewitt" or name.startswith("hassewitt."))]
        for ident, name in enumerate(self.names):
            module_name, fn_name = name.split(".")
            original = getattr(sys.modules[f"hassewitt.{module_name}"], fn_name)
            wrapper = self._wrap(ident, original, fn_name == "factor")
            for module in package:
                if getattr(module, fn_name, None) is original:
                    self._restore.append((module, fn_name, original))
                    setattr(module, fn_name, wrapper)

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._restore):
            setattr(module, fn_name, original)
        self._restore.clear()

    def _wrap(self, ident: int, fn, is_factor: bool):
        stack = self._stack
        calls, self_ns = self.calls, self.self_ns
        names, starts, ends = self._span_name, self._span_start, self._span_end
        parents, requests = self._span_parent, self._span_request
        factor_args = self.factor_args

        def wrapper(*args, **kwargs):
            if is_factor and args:
                factor_args.add(abs(args[0]))
            span = len(starts)
            if span < SPAN_CAP:
                names.append(ident)
                starts.append(0)
                ends.append(0)
                parents.append(stack[-1][0] if stack else -1)
                requests.append(self.request)
            else:
                span = -1
            frame = [span, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                calls[ident] += 1
                self_ns[ident] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if span >= 0:
                    starts[span] = start
                    ends[span] = end

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def unwind(self) -> None:
        """Forget calls left open by an interrupted request."""
        self._stack.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        factor_calls = self.calls[self.names.index("arith.factor")]
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_ns": dict(zip(self.names, self.self_ns)),
            "factor_distinct": len(self.factor_args),
            "factor_calls": factor_calls,
            "spans_kept": len(self._span_start),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i in range(len(self._span_start)):
                f.write(json.dumps([self.names[self._span_name[i]], self._span_start[i], self._span_end[i],
                                    self._span_parent[i], self._span_request[i]]) + "\n")
