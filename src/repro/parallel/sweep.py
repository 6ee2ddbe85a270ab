"""Workbench-aware parallel sweep execution.

:func:`sweep_map` is what the experiment modules call to evaluate a
grid of independent points (ENOB values, freeze groups, layer indices):

1. The :mod:`~repro.parallel.scheduler` plans a serial *prelude* of
   shared artifacts (trained baselines), which is built once in the
   parent process so the disk cache is warm before any fan-out.
2. With ``bench.jobs <= 1`` every point runs in the calling process on
   the caller's own workbench — byte-for-byte the behaviour of the old
   serial loops.
3. With ``bench.jobs > 1`` the points fan out over a process pool.
   Each worker constructs its own :class:`~repro.experiments.common.
   Workbench` from the (picklable) experiment config once, then serves
   points from it.  Because every stochastic input is derived
   deterministically from the config (data generation, weight init,
   per-point noise seeds) and shared models are loaded from the warmed
   cache, the results are bit-identical to the serial run regardless of
   worker count or completion order.

Point functions must be module-level functions of signature
``fn(bench, *args, **kwargs)`` returning picklable values.

**Failure contract.**  A point that raises does not abort the sweep
mid-grid (the old behaviour: ``pool.map`` re-raised the first worker
exception and every other point's outcome — done or not — was thrown
away).  Instead each point's exception is captured with its traceback,
every remaining point still runs, the failures are journaled as
``sweep.point_failed`` events, and :func:`sweep_map` then raises
:class:`~repro.errors.SweepError` carrying all ``(key, traceback)``
pairs — which the CLI turns into a non-zero exit.  Completed points
are journaled as ``sweep.point_done`` with their result payloads, so a
partially-failed sweep is fully reconstructible from its run journal.

**Fault tolerance** (see ``docs/fault_tolerance.md``).  When a run
journal is active, every completed point's value is also persisted
under ``<run_dir>/sweep/<ordinal>/``; ``bench.resume_run`` (set by the
CLI's ``--resume <run_id>``) replays the old run's journal, reuses
those values (journaled as ``sweep.point_skipped``), and re-executes
only failed/missing points.  A worker process that dies mid-point is
retried with backoff (``bench.retries`` / ``bench.retry_backoff``,
journaled as ``sweep.point_retry``); retries exhausted become an
ordinary failed point.  A pending SIGINT/SIGTERM is honored between
points on the serial path (``run.interrupted`` +
:class:`~repro.errors.RunInterrupted`), after the current round on the
pooled path.
"""

from __future__ import annotations

import traceback as _traceback
from time import perf_counter
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from repro.ckpt.resume import load_sweep_results, store_sweep_result
from repro.ckpt.signals import interrupt_requested
from repro.errors import RunInterrupted, SweepError
from repro.obs.journal import current_journal, journal_event, to_jsonable
from repro.obs.metrics import default_registry
from repro.obs.trace import span
from repro.parallel.runner import SweepRunner
from repro.parallel.scheduler import Artifact, SweepPoint, plan

#: Worker-process-local workbench, built once by :func:`_init_worker`.
_WORKER_BENCH = None

#: Default extra attempts for a point whose worker process died.
DEFAULT_RETRIES = 2

#: Default base backoff (seconds) between such attempts.
DEFAULT_BACKOFF_S = 0.5


def _init_worker(config) -> None:
    global _WORKER_BENCH
    from repro.experiments.common import Workbench

    _WORKER_BENCH = Workbench(config)


def _call_point(fn, bench, point: SweepPoint, index: int) -> Tuple:
    """Run one point, capturing any exception as a status tuple.

    Returns ``(status, index, key, value, seconds, traceback_text)``
    with ``status`` in ``{"ok", "failed"}`` — picklable either way, so
    a worker failure travels back to the parent instead of poisoning
    the pool.
    """
    started = perf_counter()
    try:
        value = fn(bench, *point.args, **point.kwargs)
    except Exception:  # noqa: BLE001 - the parent re-raises as SweepError
        return (
            "failed",
            index,
            point.key,
            None,
            perf_counter() - started,
            _traceback.format_exc(),
        )
    return ("ok", index, point.key, value, perf_counter() - started, None)


def _run_point(task):
    fn, point, index = task
    return _call_point(fn, _WORKER_BENCH, point, index)


def _lost_point(task_index: int, task) -> Tuple:
    """Stand-in outcome for a point whose worker died beyond retries."""
    _, point, index = task
    return (
        "failed",
        index,
        point.key,
        None,
        0.0,
        "WorkerLostError: worker process died while running this point "
        "and retries were exhausted (OOM kill? see docs/"
        "fault_tolerance.md for the retry knobs)\n",
    )


def _resume_skips(bench, points: Sequence[SweepPoint], ordinal: int) -> dict:
    """``{index: value}`` for points reusable from ``bench.resume_run``.

    A stored point is reused only when its journaled key matches the
    current grid's key at that index — a changed grid re-runs.
    """
    source = getattr(bench, "resume_run", None)
    if not source:
        return {}
    results_dir = getattr(bench.config, "results_dir", "results")
    stored = load_sweep_results(source, results_dir, ordinal)
    skips = {}
    for index, point in enumerate(points):
        if index in stored:
            key, value = stored[index]
            if key == to_jsonable(point.key):
                skips[index] = value
    journal_event("sweep.resume", source_run=source, reused=len(skips))
    return skips


def _drain_if_requested(completed: int) -> None:
    signal_name = interrupt_requested()
    if signal_name is not None:
        journal_event(
            "run.interrupted",
            signal=signal_name,
            phase="sweep",
            completed=completed,
        )
        raise RunInterrupted(
            f"sweep drained after {completed} point(s) on {signal_name}; "
            "re-run with --resume <run_id> to finish the grid",
            signal_name=signal_name,
        )


def sweep_map(
    bench,
    fn: Callable,
    points: Sequence[SweepPoint],
    artifacts: Optional[Mapping[str, Artifact]] = None,
) -> List:
    """Evaluate ``fn(bench, *point.args, **point.kwargs)`` per point.

    Results are returned in point order.  See the module docstring for
    the serial/parallel execution contract, the failure contract (all
    points always run; any failures surface afterwards as one
    :class:`~repro.errors.SweepError`), and the fault-tolerance
    contract (resume / retry / drain).
    """
    schedule = plan(points, artifacts or {})
    with span("sweep.prelude"):
        for name in schedule.prelude:
            artifacts[name].build(bench)

    jobs = getattr(bench, "jobs", 1)
    registry = default_registry()
    journal = current_journal()
    ordinal = journal.next_sweep_ordinal() if journal is not None else 0
    journal_event("sweep.start", points=len(schedule.points))
    registry.gauge("sweep.jobs").set(max(jobs, 1))

    skips = _resume_skips(bench, schedule.points, ordinal)
    todo = [
        (index, point)
        for index, point in enumerate(schedule.points)
        if index not in skips
    ]

    def _journal_retry(runner_index, task, attempt, delay):
        _, point, index = task
        registry.counter("sweep.points_retried").inc()
        journal_event(
            "sweep.point_retry",
            index=index,
            key=to_jsonable(point.key),
            attempt=attempt,
            delay_s=delay,
        )

    results: List = [None] * len(schedule.points)
    failures: List[Tuple[str, str]] = []

    def _record(outcome) -> None:
        """Journal + persist one outcome the moment it is known.

        Recording eagerly (not after the whole grid) is what makes a
        drained or crashed sweep resumable: every point finished before
        the interruption is already on disk.
        """
        status, index, key, value, seconds, tb_text = outcome
        if status == "ok":
            results[index] = value
            registry.counter("sweep.points_completed").inc()
            registry.histogram("sweep.point_seconds").observe(seconds)
            journal_event(
                "sweep.point_done",
                index=index,
                key=to_jsonable(key),
                seconds=seconds,
                result=to_jsonable(value),
            )
            if journal is not None:
                store_sweep_result(
                    journal.run_dir, ordinal, index, to_jsonable(key), value
                )
        else:
            failures.append((str(key), tb_text))
            registry.counter("sweep.points_failed").inc()
            error_line = tb_text.strip().splitlines()[-1]
            journal_event(
                "sweep.point_failed",
                index=index,
                key=to_jsonable(key),
                error=error_line,
                traceback=tb_text,
            )

    for index, value in skips.items():
        results[index] = value
        key = to_jsonable(schedule.points[index].key)
        registry.counter("sweep.points_skipped").inc()
        journal_event("sweep.point_skipped", index=index, key=key)
        if journal is not None:
            store_sweep_result(journal.run_dir, ordinal, index, key, value)

    with span("sweep.points"):
        if jobs <= 1:
            completed = len(skips)
            for index, point in todo:
                _drain_if_requested(completed=completed)
                _record(_call_point(fn, bench, point, index))
                completed += 1
        else:
            runner = SweepRunner(
                jobs=jobs,
                initializer=_init_worker,
                initargs=(bench.config,),
                retries=getattr(bench, "retries", DEFAULT_RETRIES),
                backoff_s=getattr(bench, "retry_backoff", DEFAULT_BACKOFF_S),
                on_retry=_journal_retry,
                on_lost=_lost_point,
            )
            tasks = [(fn, point, index) for index, point in todo]
            for outcome in runner.map(_run_point, tasks):
                _record(outcome)

    journal_event(
        "sweep.end",
        completed=len(schedule.points) - len(failures),
        failed=len(failures),
    )
    if failures:
        raise SweepError(
            f"{len(failures)} of {len(schedule.points)} sweep points "
            f"failed: {', '.join(key for key, _ in failures)}",
            failures=failures,
        )
    return results
