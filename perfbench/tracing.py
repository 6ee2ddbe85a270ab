"""The traced run: spans kept in memory, and layer tables built from them.

A :class:`Tracer` records intervals from three sources while it is
active, all on the ``perf_counter`` clock:

- the program's own op records, by hooking the profiler that
  ``repro.utils.profiler.profiled()`` installs (every ``op_end`` —
  ``compiled.*`` steps, ``conv2d.*``, ``im2col``, ``optim.step``,
  ``ams.inject``, ``eval.pass`` — becomes one interval);
- the program's trace spans, collected by
  ``repro.obs.trace.capture_spans()`` (``train.epoch``,
  ``compile.model``, ``sweep.points``, ``serve.batch``, ...);
- wrappers the benchmark puts around public functions of the layers
  (``ModelRegistry.get``, ``ServeCluster.start``/``warm``,
  ``FrontDoor.submit``, ``sweep_map``, ``AMSErrorInjector.sample_noise``,
  ``RunJournal.event``, data generation) for as long as the tracer is
  active; the originals are restored on exit.

Nothing is written while tracing; the tables are computed at the end.
A layer's self time is its intervals' time minus the part covered by
intervals nested inside them, on the main thread only — replica and
pool-worker processes report through the totals the program ships back.
"""

from __future__ import annotations

import contextlib
import functools
import threading
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Tuple

#: Interval name -> row of the layer table.
LAYER_OF = {
    "data.generate": "data",
    "registry.get": "registry",
    "train.epoch": "train.other",
    "conv2d.forward": "train.forward",
    "conv2d.grad_x": "train.backward",
    "conv2d.grad_w": "train.backward",
    "im2col": "train.im2col",
    "col2im": "train.im2col",
    "optim.step": "train.optim",
    "compile.model": "compile.compile",
    "compile.realize": "compile.compile",
    "compiled.conv": "compile.conv",
    "compiled.fast_conv": "compile.conv",
    "compiled.block": "compile.block",
    "compiled.im2col": "compile.im2col",
    "compiled.linear": "compile.linear",
    "compiled.gap": "compile.gap",
    "compiled.input_quant": "compile.input_quant",
    "compiled.act": "compile.other_steps",
    "compiled.flatten": "compile.other_steps",
    "compiled.fallback": "compile.other_steps",
    "ams.inject": "ams.inject",
    "ams.sample_noise": "ams.inject",
    "eval.pass": "evaluate",
    "serve.batch": "serve.executor",
    "frontdoor.submit": "frontdoor",
    "cluster.submit_batch": "cluster.dispatch",
    "cluster.start": "cluster.spawn",
    "cluster.warm": "cluster.warm",
    "cluster.stop": "cluster.spawn",
    "sweep_map": "parallel",
    "sweep.prelude": "parallel",
    "sweep.points": "parallel",
    "run_explore": "explore",
    "journal.event": "journal",
}

#: Rows plus ``other`` must sum to the section wall within this share.
SUM_TOLERANCE = 0.01

#: Default-registry metrics a tracer reads at entry and exit.
WATCHED = (
    "compile.seconds",
    "compile.execute_seconds",
    "compile.interpreter_fallback",
    "sweep.point_seconds",
)

Interval = Tuple[str, float, float, str]


class Tracer:
    """Collects intervals while active (a context manager)."""

    def __init__(self):
        self._own: List[Interval] = []
        self._ops: List[Interval] = []
        self._spans: list = []
        self._patches: list = []
        self._stack = None
        self._before: Dict[str, Tuple[float, float]] = {}
        self._after: Dict[str, Tuple[float, float]] = {}
        self.sections: List[Tuple[str, float, float]] = []
        #: Per-call records of the wrapped layers, keyed by layer.
        self.calls: Dict[str, list] = defaultdict(list)

    # ------------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        from repro.obs.trace import capture_spans
        from repro.utils import profiler

        self._stack = contextlib.ExitStack()
        prof = self._stack.enter_context(profiler.profiled())
        record_op = prof.add
        ops = self._ops

        def add(op, seconds, allocs=0):
            end = perf_counter()
            ops.append((op, end - seconds, end, threading.current_thread().name))
            record_op(op, seconds, allocs)

        prof.add = add
        self._spans = self._stack.enter_context(capture_spans())
        self._install()
        self._before = _watched()
        return self

    def __exit__(self, *exc) -> None:
        self._after = _watched()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._stack.close()

    # ------------------------------------------------------------------
    def record(self, name: str, start: float, end: float) -> None:
        self._own.append((name, start, end, threading.current_thread().name))

    @contextlib.contextmanager
    def span(self, name: str):
        start = perf_counter()
        try:
            yield
        finally:
            self.record(name, start, perf_counter())

    @contextlib.contextmanager
    def section(self, name: str):
        """One traced stretch of the run; gets its own layer table."""
        start = perf_counter()
        try:
            yield
        finally:
            self.sections.append((name, start, perf_counter()))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _timed(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self._patch(owner, attr, timed)

    def _install(self) -> None:
        import repro.experiments.common as common
        import repro.explore.runner as explore_runner
        from repro.ams.models import AMSErrorInjector
        from repro.compile.runtime import CompiledModel
        from repro.obs.journal import RunJournal
        from repro.registry import ModelRegistry, layout
        from repro.serve.cluster import ServeCluster
        from repro.serve.frontdoor import FrontDoor

        self._timed(common, "SynthImageNet", "data.generate")
        self._timed(ServeCluster, "start", "cluster.start")
        self._timed(ServeCluster, "warm", "cluster.warm")
        self._timed(ServeCluster, "stop", "cluster.stop")
        self._timed(AMSErrorInjector, "sample_noise", "ams.sample_noise")
        self._timed(RunJournal, "event", "journal.event")

        calls = self.calls
        registry_get = ModelRegistry.get

        def get(registry, spec, *args, **kwargs):
            config = registry.workbench.config
            resolved = spec.resolved(config)
            cached = layout.artifact_exists(config, resolved.cache_name())
            start = perf_counter()
            try:
                return registry_get(registry, spec, *args, **kwargs)
            finally:
                end = perf_counter()
                self.record("registry.get", start, end)
                calls["registry"].append(("load" if cached else "train", end - start))

        self._patch(ModelRegistry, "get", get)

        sweep_map = explore_runner.sweep_map

        def timed_sweep(bench, *args, **kwargs):
            start = perf_counter()
            try:
                return sweep_map(bench, *args, **kwargs)
            finally:
                end = perf_counter()
                self.record("sweep_map", start, end)
                calls["sweep"].append((max(bench.jobs, 1), end - start))

        self._patch(explore_runner, "sweep_map", timed_sweep)

        run = CompiledModel.run

        def counted_run(compiled, images):
            calls["compiled_images"].append(len(images))
            return run(compiled, images)

        self._patch(CompiledModel, "run", counted_run)

        submit = FrontDoor.submit

        async def timed_submit(door, spec, image, request_id):
            start = perf_counter()
            try:
                return await submit(door, spec, image, request_id)
            finally:
                end = perf_counter()
                self.record("frontdoor.submit", start, end)
                calls["submit"].append((int(request_id), start))

        self._patch(FrontDoor, "submit", timed_submit)

    def delta(self, name: str) -> Tuple[float, float]:
        """Change of a watched metric over the tracer's lifetime, as
        ``(value or count, sum)``."""
        (v0, s0), (v1, s1) = self._before[name], self._after[name]
        return v1 - v0, s1 - s0

    # ------------------------------------------------------------------
    def intervals(self) -> List[Interval]:
        """Every interval recorded on the main thread."""
        spans = [
            (s.name, s.start_s, s.start_s + s.duration_s, s.thread)
            for s in self._spans
        ]
        span_names = {s[0] for s in spans}
        ops = [op for op in self._ops if op[0] not in span_names]
        main = threading.main_thread().name
        return [i for i in self._own + spans + ops if i[3] == main]

    def self_times(self) -> Dict[str, float]:
        """Self seconds per interval name, summed over the sections."""
        seconds: Dict[str, float] = defaultdict(float)
        intervals = self.intervals()
        for _, start, end in self.sections:
            for name, value in self_time_split(intervals, start, end)[0].items():
                seconds[name] += value
        return seconds

    def inclusive(self, name: str) -> Tuple[float, int]:
        """Total seconds and count of ``name`` intervals in the sections."""
        total, count = 0.0, 0
        for interval in self.intervals():
            if interval[0] == name and any(
                s <= interval[1] and interval[2] <= e
                for _, s, e in self.sections
            ):
                total += interval[2] - interval[1]
                count += 1
        return total, count

    def layer_tables(self) -> List[dict]:
        """One layer table per section: rows + other == wall."""
        intervals = self.intervals()
        tables = []
        for name, start, end in self.sections:
            own, uncovered = self_time_split(intervals, start, end)
            rows: Dict[str, float] = defaultdict(float)
            for op, seconds in own.items():
                rows[LAYER_OF.get(op, op)] += seconds
            wall = end - start
            total = sum(rows.values()) + uncovered
            tables.append(
                {
                    "section": name,
                    "wall_s": wall,
                    "rows": dict(sorted(rows.items(), key=lambda kv: -kv[1])),
                    "other_s": uncovered,
                    "sum_s": total,
                    "ok": abs(total - wall) <= SUM_TOLERANCE * wall
                    and min(rows.values(), default=0.0) >= -SUM_TOLERANCE * wall,
                }
            )
        return tables


def _watched() -> Dict[str, Tuple[float, float]]:
    from common import metric_totals
    from repro.obs.metrics import default_registry
    from repro.tensor.pool import default_pool

    registry = default_registry()
    snapshot = {name: metric_totals(registry, name) for name in WATCHED}
    snapshot["pool.allocations"] = (default_pool().stats.allocations, 0.0)
    return snapshot


def self_time_split(
    intervals: List[Interval], start: float, end: float
) -> Tuple[Dict[str, float], float]:
    """Self time per name inside ``[start, end]`` and the uncovered rest.

    Intervals are clipped to the window and to their enclosing interval,
    so partial overlaps are never counted twice: the self times plus the
    uncovered time equal ``end - start``.
    """
    items = sorted(
        (
            (max(s, start), min(e, end), name)
            for name, s, e, _ in intervals
            if min(e, end) > max(s, start)
        ),
        key=lambda item: (item[0], -item[1]),
    )
    own: Dict[str, float] = defaultdict(float)
    stack: list = []
    covered = 0.0
    for s, e, name in items:
        while stack and stack[-1][1] <= s:
            frame = stack.pop()
            own[frame[2]] += frame[3]
        if stack:
            parent = stack[-1]
            e = min(e, parent[1])
            parent[3] -= e - s
        else:
            covered += e - s
        stack.append([s, e, name, e - s])
    while stack:
        frame = stack.pop()
        own[frame[2]] += frame[3]
    return dict(own), (end - start) - covered


def format_tables(tables: List[dict]) -> str:
    """The layer tables as text."""
    lines = []
    for table in tables:
        wall = table["wall_s"] or 1.0
        lines.append(
            f"layer table [{table['section']}] "
            f"wall {table['wall_s']:.4f} s"
        )
        lines.append(f"  {'layer':<24}{'self s':>12}{'share':>9}")
        for row, seconds in table["rows"].items():
            lines.append(
                f"  {row:<24}{seconds:>12.4f}{100 * seconds / wall:>8.1f}%"
            )
        lines.append(
            f"  {'other':<24}{table['other_s']:>12.4f}"
            f"{100 * table['other_s'] / wall:>8.1f}%"
        )
        verdict = "ok" if table["ok"] else "MISMATCH"
        lines.append(
            f"  rows + other = {table['sum_s']:.4f} s vs wall "
            f"{table['wall_s']:.4f} s (tolerance "
            f"{100 * SUM_TOLERANCE:.0f}%): {verdict}"
        )
    return "\n".join(lines)
