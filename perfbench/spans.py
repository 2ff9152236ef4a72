"""Span tracer for the traced benchmark run.

Spans are recorded only in the traced run, by wrapping the program's public
functions at the module attribute their callers look up at call time (for
example ``subdiff.harness.solve`` or ``subdiff.cli.check_psd``).  Nothing
inside ``src/`` is edited: the real call path runs, with a timer around each
call into a layer.  Spans (name, start, end, parent, pass id) stay in memory
and are written out once, when the run ends.

A layer's self time is its span's duration minus the durations of its direct
child spans, so the self times of one pass add up to the pass span.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

# (module, attribute, span name) for every call site the tracer wraps.  A
# name the program no longer has stops the traced run (``MissingSite``):
# skipping it would move that layer's time silently into its caller's layer,
# which reads as a gain or a shift.  Update this table with the program.
_SITES = (
    ("subdiff.cli", "dispatch", "cli.dispatch"),
    ("subdiff.cli", "reproduce_tables", "harness.run"),
    ("subdiff.cli", "run_stability_soak", "harness.run"),
    ("subdiff.cli", "read_mesh", "meshes.io"),
    ("subdiff.cli", "certify_mesh", "meshes.certify"),
    ("subdiff.cli", "check_psd", "analysis.psd"),
    ("subdiff.cli", "check_properties_P", "analysis.props_p"),
    ("subdiff.cli", "check_properties_Q", "analysis.props_q"),
    ("subdiff.cli", "positivity_certificate", "analysis.certificate"),
    ("subdiff.cli", "build_complementary_kernel", "analysis.complementary"),
    ("subdiff.cli", "build_kernel_table", "kernel.table"),
    ("subdiff.harness", "make_uniform_mesh", "meshes.build"),
    ("subdiff.harness", "make_graded_mesh", "meshes.build"),
    ("subdiff.harness", "make_r_variable_mesh", "meshes.build"),
    ("subdiff.harness", "make_graded_then_uniform", "meshes.build"),
    ("subdiff.harness", "read_mesh", "meshes.io"),
    ("subdiff.harness", "certify_mesh", "meshes.certify"),
    ("subdiff.harness", "solve", "solver.solve"),
    ("subdiff.harness", "discrete_norms", "solver.norms"),
    ("subdiff.analysis", "certify_mesh", "meshes.certify"),
    ("subdiff.analysis", "positivity_certificate", "analysis.certificate"),
    ("subdiff.analysis", "build_kernel_table", "kernel.table"),
    ("subdiff.analysis", "closed_coefficient_tables", "kernel.table"),
    ("subdiff.solver", "build_kernel_table", "kernel.table"),
    ("subdiff.solver", "step", "solver.step"),
    # the library calls the decay-2d workload makes itself
    ("subdiff", "make_graded_mesh", "meshes.build"),
    ("subdiff", "solve", "solver.solve"),
    ("subdiff", "discrete_norms", "solver.norms"),
)


class MissingSite(LookupError):
    """A call site in ``_SITES`` that the program no longer has."""


class Tracer:
    """In-memory span recorder plus the per-pass counters the spans feed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, pass id]
        self.pass_id = -1
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._largest_closed: tuple = (0, None, (), {})
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._injected: list[object] = []

    # -- spans ------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_id])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        if self._stack and self._stack[-1] == index:
            self._stack.pop()
        elif index in self._stack:
            self._stack.remove(index)

    def count(self, name: str, value: float) -> None:
        self.counts[self.pass_id][name] += value

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every call site in ``_SITES`` and trace file writes.

        Raises ``MissingSite``, before wrapping anything, when a site is gone.
        """
        missing = [
            f"{module_name}.{attr}" for module_name, attr, _ in _SITES
            if getattr(sys.modules.get(module_name), attr, None) is None
        ]
        if missing:
            raise MissingSite(", ".join(missing))
        for module_name, attr, span in _SITES:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            if span == "kernel.table":
                traced = self._kernel_wrapper(original)
            elif span == "solver.solve":
                traced = self._solve_wrapper(original)
            else:
                traced = self._plain_wrapper(original, span)
            setattr(module, attr, traced)
            self._patches.append((module, attr, original))
        # Module-level ``open`` shadows the builtin for code in that module,
        # which times every output file from open to close.
        for name, module in list(sys.modules.items()):
            if (name == "subdiff" or name.startswith("subdiff.")) and module is not None:
                if "open" not in vars(module):
                    module.open = self._traced_open
                    self._injected.append(module)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        for module in self._injected:
            del module.open
        self._injected.clear()

    def _plain_wrapper(self, original, span: str):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.begin(span)
            try:
                return original(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def _kernel_wrapper(self, original):
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            closed = bound.arguments.get("backend", "closed") == "closed"
            index = self.begin("kernel.table_closed" if closed else "kernel.table_quadrature")
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(index)
            levels = _table_levels(result)
            self.count("kernel.coeffs", levels * (levels + 1) // 2)
            if closed and levels > self._largest_closed[0]:
                self._largest_closed = (levels, original, args, kwargs)
            return result

        return traced

    def table_peak_mb(self) -> float:
        """Peak memory of the largest closed table build seen, rebuilt once.

        Allocation tracing slows every allocation, so it runs on an untimed
        repeat of that one build rather than inside the timed passes.  Only
        closed builds are measured: their O(K^2) vectorized temporaries are
        what this figure tracks.
        """
        levels, original, args, kwargs = self._largest_closed
        if original is None:
            return 0.0
        tracemalloc.start()
        try:
            original(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def _solve_wrapper(self, original):
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.begin("solver.solve")
            try:
                state = original(*args, **kwargs)
            finally:
                self.end(index)
            bound = signature.bind(*args, **kwargs)
            dofs = int(bound.arguments["problem"].initial.size)
            levels = int(bound.arguments["mesh"].num_steps)
            self.count("solver.level_dofs", levels * dofs)
            # bytes the history term reads: 8 * N * sum_{k=1..K} k (computed)
            self.count("solver.history_bytes", 8 * dofs * levels * (levels + 1) // 2)
            return state

        return traced

    def _traced_open(self, file, mode="r", *args, **kwargs):
        handle = open(file, mode, *args, **kwargs)
        if not any(flag in mode for flag in "wax+"):
            return handle
        return _TracedFile(self, handle, self.begin("io.write"))

    # -- reduction --------------------------------------------------------

    def pass_self_times(self) -> dict[int, dict[str, float]]:
        """Self time per span name, for each pass."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, pass_id) in enumerate(self.spans):
            if end is not None:
                out[pass_id][name] += (end - start) - child_time[i]
        return out

    def pass_inclusive_times(self, prefix: str) -> dict[int, float]:
        """Time inside any span named ``prefix*``, children included, per pass."""
        out: dict[int, float] = defaultdict(float)
        for name, start, end, parent, pass_id in self.spans:
            if name.startswith(prefix) and end is not None:
                if parent < 0 or not self.spans[parent][0].startswith(prefix):
                    out[pass_id] += end - start
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name and end is not None]

    def dump(self, path) -> None:
        """Write every span as JSON (called once, when the run ends)."""
        with open(path, "w") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "pass"], "spans": self.spans},
                handle,
            )


class PassClock:
    """Times the program's part of one pass; in a traced run, its root span.

    Checks of the outputs run outside the clock, so they count neither in
    ``pass_s`` nor in any layer.
    """

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.elapsed = 0.0

    def __enter__(self) -> "PassClock":
        self._index = self.tracer.begin("pass") if self.tracer else None
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed += time.perf_counter() - self._started
        if self.tracer:
            self.tracer.end(self._index)


class _TracedFile:
    """File handle whose lifetime is an ``io.write`` span."""

    def __init__(self, tracer: Tracer, handle, index: int) -> None:
        self._tracer = tracer
        self._handle = handle
        self._index = index

    def write(self, text):
        return self._handle.write(text)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()
            self._tracer.end(self._index)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __getattr__(self, name):
        return getattr(self._handle, name)


def _table_levels(result) -> int:
    """Level count of a kernel table or of a pair of dense 1-based tables."""
    if hasattr(result, "n"):
        return int(result.n)
    return int(result[0].shape[0]) - 1
