"""Unified observability: metrics, run journal, trace spans.

One subsystem answers "what ran, how fast, with which config, and what
did it emit" for every layer of the stack:

- :mod:`repro.obs.metrics` — a process-wide :class:`MetricRegistry` of
  counters, gauges and fixed-bucket histograms with labeled children
  (``obs.counter("serve.requests_executed", spec=...)``); lock-guarded,
  numpy-free, cheap enough for per-batch hot paths.
- :mod:`repro.obs.journal` — a :class:`RunJournal` writing one JSONL
  event stream per run under ``results/runs/<run_id>/``: a run-start
  manifest (git SHA, config hash, seed, argv), periodic metric
  snapshots, subsystem events, and a run-end summary.  Atomic
  write-then-rename for manifest/summary; the reader tolerates the
  torn final line a crash leaves.
- :mod:`repro.obs.trace` — nestable, thread-aware :func:`span` brackets
  on the monotonic clock that forward into the op profiler
  (``--profile-ops``).
- :class:`EvalResult` — the one evaluation result shape (accuracy,
  logits hash, wall time, noise seed); a float subclass, so legacy
  call sites are untouched.

The instrumented subsystems — trainer, sweep engine, serving engine
and service, compiled-executor cache — publish through this package
unconditionally; with no active run journal and no profiler the cost
is a global read and a None check.  ``python -m repro.experiments obs
{list,tail,summary,diff}`` renders recorded journals.  See
``docs/observability.md`` for the event schema and the metric naming
convention.
"""

from repro.obs.journal import (
    EVENT_SCHEMAS,
    RunJournal,
    current_journal,
    end_run,
    journal_event,
    list_runs,
    read_events,
    start_run,
    to_jsonable,
    validate_event,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    counter,
    default_registry,
    gauge,
    histogram,
    parse_metric_key,
)
from repro.obs.result import EvalResult
from repro.obs.summary import diff_runs, summarize_run, tail_run
from repro.obs.trace import Span, capture_spans, current_span, span

__all__ = [
    "Counter",
    "EVENT_SCHEMAS",
    "EvalResult",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "RunJournal",
    "Span",
    "capture_spans",
    "counter",
    "current_journal",
    "current_span",
    "default_registry",
    "diff_runs",
    "end_run",
    "gauge",
    "histogram",
    "journal_event",
    "list_runs",
    "read_events",
    "parse_metric_key",
    "span",
    "start_run",
    "summarize_run",
    "tail_run",
    "to_jsonable",
    "validate_event",
]
