"""Command-line entry point for the experiment harness.

Examples::

    python -m repro.experiments list
    python -m repro.experiments run table1
    python -m repro.experiments run fig8 --profile quick --seed 7
    python -m repro.experiments all --profile quick
    python -m repro.experiments explore examples/explore_grid.yaml --jobs 4
    python -m repro.experiments serve --spec ams:e5.5:n8 --requests 256
    python -m repro.experiments registry list
    python -m repro.experiments registry evict --spec quant:bw8:bx8
    python -m repro.experiments errmodels
    python -m repro.experiments obs list
    python -m repro.experiments obs summary <run_id>
    python -m repro.experiments obs diff <runA> <runB>

Every ``run`` / ``all`` / ``serve`` invocation records a run journal
under ``<results_dir>/runs/<run_id>/`` (manifest, JSONL event stream,
summary); the ``obs`` subcommands render those journals afterwards.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.experiments.common import Workbench
from repro.experiments.config import make_config
from repro.registry.layout import DEFAULT_CACHE_DIR
from repro.experiments.registry import (
    DEFAULT_ORDER,
    EXPERIMENTS,
    run_experiment,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the tables and figures of Rekhi et al., "
            "'Analog/Mixed-Signal Hardware Error Modeling for Deep "
            "Learning Inference' (DAC 2019)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    sub.add_parser(
        "errmodels",
        help="list registered AMS error models (see docs/error_models.md)",
    )

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    _add_common(run)

    everything = sub.add_parser("all", help="run every experiment in order")
    _add_common(everything)

    explore = sub.add_parser(
        "explore",
        help="search an (ENOB, Nmult) design space from a hardware-knob "
        "spec file (see docs/explore.md)",
    )
    explore.add_argument(
        "spec_file", help="YAML or JSON exploration spec (examples/)"
    )
    explore.add_argument(
        "--strategy",
        choices=("cheap-first", "exhaustive"),
        default=None,
        help="override the spec's search.strategy",
    )
    _add_common(explore)

    registry_cmd = sub.add_parser(
        "registry",
        help="manage the model-artifact registry "
        "(list|evict|warm|stats; see docs/registry.md)",
    )
    registry_cmd.add_argument(
        "action",
        nargs="?",
        help="list (cold-tier artifacts), evict (--name/--spec/--all), "
        "warm (--spec), or stats",
    )
    registry_cmd.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    registry_cmd.add_argument(
        "--name",
        default=None,
        help="artifact stem (file name without .state) to evict",
    )
    registry_cmd.add_argument(
        "--spec",
        default=None,
        help="model spec (e.g. ams:e5.5:n8) to evict or warm",
    )
    registry_cmd.add_argument(
        "--all",
        action="store_true",
        dest="evict_all",
        help="evict every cold-tier artifact",
    )
    _add_common(registry_cmd)

    export = sub.add_parser(
        "export", help="flatten results/<id>.json records into CSV files"
    )
    export.add_argument("--results-dir", default="results")
    export.add_argument("--out-dir", default="results/csv")

    serve = sub.add_parser(
        "serve",
        help="serve classify requests through the front door over a "
        "trained model",
    )
    serve.add_argument(
        "--spec",
        default="quant:bw8:bx8",
        help="model spec, e.g. ams:e5.5:n8 (see repro.serve.ModelSpec)",
    )
    serve.add_argument(
        "--requests", type=int, default=256, help="requests to serve"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="replica processes for the multi-process cluster; omit to "
        "serve in-process (one executor thread)",
    )
    serve.add_argument(
        "--shard-by",
        default="none",
        help="cluster request routing: 'none' (least-loaded) or 'model' "
        "(pin each spec to one replica); needs --workers",
    )
    serve.add_argument(
        "--max-batch", type=int, default=16, help="micro-batch size cap"
    )
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="micro-batcher coalescing window: the longest a partial "
        "batch waits while every replica is busy (it goes at once to "
        "an idle replica)",
    )
    serve.add_argument(
        "--queue-size",
        type=int,
        default=128,
        help="admission queue bound; also the most requests the bulk "
        "client keeps outstanding",
    )
    serve.add_argument(
        "--timeout-s", type=float, default=60.0, help="per-request deadline"
    )
    serve.add_argument(
        "--fallback-spec",
        default=None,
        help="cheaper spec served when the queue saturates (degradation)",
    )
    _add_common(serve)

    obs = sub.add_parser("obs", help="inspect recorded run journals")
    obs_sub = obs.add_subparsers(dest="action", required=True)
    obs_list = obs_sub.add_parser("list", help="list recorded runs")
    obs_tail = obs_sub.add_parser("tail", help="last events of one run")
    obs_tail.add_argument("run", help="run id or run directory")
    obs_tail.add_argument("-n", "--lines", type=int, default=20)
    obs_summary = obs_sub.add_parser(
        "summary", help="reconstruct a run's tables from its journal"
    )
    obs_summary.add_argument("run", help="run id or run directory")
    obs_diff = obs_sub.add_parser(
        "diff", help="compare two runs' manifests, sweeps and metrics"
    )
    obs_diff.add_argument("run", help="first run id or directory")
    obs_diff.add_argument("run_b", help="second run id or directory")
    for obs_cmd in (obs_list, obs_tail, obs_summary, obs_diff):
        obs_cmd.add_argument("--results-dir", default="results")
    return parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        default="full",
        choices=("full", "quick"),
        help="full = EXPERIMENTS.md numbers; quick = smoke-test scale",
    )
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument(
        "--results-dir",
        default="results",
        help="where to write <experiment>.json records",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for sweep fan-out (1 = serial; results "
            "are bit-identical either way)"
        ),
    )
    parser.add_argument(
        "--profile-ops",
        action="store_true",
        help="record per-op wall time / allocations and print a table",
    )
    parser.add_argument(
        "--no-compile",
        action="store_true",
        help=(
            "evaluate through the interpreted forward pass instead of "
            "the fused compiled executor (results are bit-identical; "
            "this is a speed/debugging knob)"
        ),
    )
    parser.add_argument(
        "--run-id",
        default=None,
        help=(
            "journal run id under <results-dir>/runs/ (default: a "
            "timestamp-pid id)"
        ),
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="RUN_ID",
        help=(
            "resume a killed/interrupted run: training continues from "
            "its epoch checkpoints and sweeps reuse RUN_ID's completed "
            "grid points, re-running only failed/missing ones (see "
            "docs/fault_tolerance.md)"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        help=(
            "extra attempts for a sweep point whose worker process "
            "died (default 2; the pool is rebuilt between attempts)"
        ),
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=None,
        help=(
            "base seconds between such attempts, doubling each time "
            "(default 0.5)"
        ),
    )


def _run_one(
    name: str,
    bench: Workbench,
    results_dir: str,
    profile_ops: bool = False,
) -> None:
    from repro.utils import profiler

    start = time.time()
    if profile_ops:
        with profiler.profiled() as prof:
            result = run_experiment(name, bench)
    else:
        result = run_experiment(name, bench)
    elapsed = time.time() - start
    print(result.table())
    if profile_ops:
        print()
        print(prof.report())
    path = result.save(results_dir)
    print(f"[{name}] done in {elapsed:.1f}s -> {path}\n")


#: Recognized ``registry`` actions (sorted; did-you-mean on a miss).
_REGISTRY_ACTIONS = ("evict", "list", "stats", "warm")


def _registry_list(cache_dir: str) -> int:
    """Print the cold tier: complete artifacts plus tmp-file health."""
    import os

    from repro.registry.layout import scan_artifacts

    if not os.path.isdir(cache_dir):
        print(f"no cache at {cache_dir}")
        return 0
    entries, stale, live = scan_artifacts(cache_dir)
    if not entries:
        print(f"cache at {cache_dir} is empty")
    for entry in entries:
        print(f"{entry.size_bytes // 1024:6d} KB  {entry.name}")
    if stale:
        print(
            f"({len(stale)} stale tmp file(s) from crashed workers; "
            "'registry evict' removes them)"
        )
    if live:
        print(
            f"({len(live)} live tmp file(s): writers still publishing, "
            "left alone)"
        )
    return 0


def _registry_stats(cache_dir: str) -> int:
    """Cold-tier totals (the warm tier is per-process, see stats())."""
    from repro.registry.layout import scan_artifacts

    entries, stale, live = scan_artifacts(cache_dir)
    total_kb = sum(entry.size_bytes for entry in entries) // 1024
    print(
        f"cold tier at {cache_dir}: {len(entries)} artifact(s), "
        f"{total_kb} KB"
    )
    print(f"stale tmp files: {len(stale)}; live tmp files: {len(live)}")
    return 0


def _registry_evict(
    cache_dir: str, names=None, everything: bool = False
) -> int:
    """Evict cold artifacts; stale tmps are swept, live tmps kept."""
    from repro.registry.layout import evict_artifacts, scan_artifacts

    _entries, stale, _live = scan_artifacts(cache_dir)
    removed, live_kept = evict_artifacts(
        cache_dir, names=names, everything=everything
    )
    print(
        f"removed {removed} cache files from {cache_dir}"
        + (f" (including {len(stale)} stale tmp)" if stale else "")
    )
    if live_kept:
        print(
            f"kept {len(live_kept)} live tmp file(s) "
            "(writers still publishing)"
        )
    return 0


def _registry_warm_body(args, config, spec) -> int:
    """Train-or-load ``spec`` and admit it to this run's warm tier."""
    bench = Workbench(config, jobs=args.jobs)
    registry = bench.registry
    registry.warm(spec)
    stats = registry.stats()
    print(f"warmed {spec.resolved(config).token()}")
    print(f"warm tier now: {', '.join(stats['warm'])}")
    return 0


def _handle_registry(args, argv: List[str]) -> int:
    """Dispatch ``registry list|evict|warm|stats`` (exit 2 on misuse)."""
    import difflib

    action = args.action
    if action not in _REGISTRY_ACTIONS:
        close = difflib.get_close_matches(
            action or "", _REGISTRY_ACTIONS, n=1
        )
        hint = f" (did you mean {close[0]!r}?)" if close else ""
        print(
            f"error: unknown registry action {action!r}; options: "
            f"{', '.join(_REGISTRY_ACTIONS)}{hint}",
            file=sys.stderr,
        )
        return 2
    if action == "list":
        return _registry_list(args.cache_dir)
    if action == "stats":
        return _registry_stats(args.cache_dir)

    from repro.errors import ReproError
    from repro.serve.spec import ModelSpec

    if action == "evict":
        chosen = sum(
            1 for flag in (args.name, args.spec, args.evict_all) if flag
        )
        if chosen != 1:
            print(
                "error: registry evict needs exactly one of "
                "--name, --spec, or --all",
                file=sys.stderr,
            )
            return 2
        if args.evict_all:
            return _registry_evict(args.cache_dir, everything=True)
        if args.name:
            return _registry_evict(args.cache_dir, names=[args.name])
        try:
            config = make_config(profile=args.profile, seed=args.seed)
            spec = ModelSpec.parse(args.spec).resolved(config)
            stem = f"{config.cache_key_prefix()}-{spec.cache_name()}"
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return _registry_evict(args.cache_dir, names=[stem])
    # warm: journaled like run/serve — the promote events and tier
    # metrics land in the run journal for obs summary.
    if not args.spec:
        print("error: registry warm needs --spec", file=sys.stderr)
        return 2
    try:
        spec = ModelSpec.parse(args.spec)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = make_config(
        profile=args.profile,
        seed=args.seed,
        results_dir=args.results_dir,
        cache_dir=args.cache_dir,
    )
    return _journaled(
        args, config, argv, lambda: _registry_warm_body(args, config, spec)
    )


def _handle_errmodels() -> int:
    """Print every registered error model with params and declarations."""
    from repro.ams.models import get_model, list_models, model_params

    for name in list_models():
        model = get_model(name)
        params = ", ".join(
            f"{key}={getattr(model, key)!r}"
            if hasattr(model, key)
            else key
            for key in model_params(type(model))
        )
        flags = []
        if model.data_dependent:
            flags.append("data-dependent")
        if not model.compiled_safe:
            flags.append("interpreter-only")
        if model.extra_streams:
            flags.append("streams=" + ",".join(model.extra_streams))
        suffix = f"  [{', '.join(flags)}]" if flags else ""
        print(f"{name:18s} {model.describe()}{suffix}")
        print(f"{'':18s} params: {params or '(none)'}")
    return 0


def _handle_obs(args) -> int:
    """Render recorded run journals (list / tail / summary / diff)."""
    from repro.errors import ReproError
    from repro.obs.summary import (
        diff_runs,
        render_run_list,
        summarize_run,
        tail_run,
    )

    try:
        if args.action == "list":
            print(render_run_list(args.results_dir))
        elif args.action == "tail":
            print(tail_run(args.run, args.results_dir, n=args.lines))
        elif args.action == "summary":
            print(summarize_run(args.run, args.results_dir))
        else:
            print(diff_runs(args.run, args.run_b, args.results_dir))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _journaled(args, config, argv: List[str], body) -> int:
    """Run ``body()`` under a run journal; non-zero exit on SweepError.

    The journal opens before and closes after the command: manifest at
    start, a final default-registry metrics snapshot, and a run_end
    whose status reflects how the command finished.  A
    :class:`~repro.errors.SweepError` (grid points failed — they were
    all journaled as ``sweep.point_failed`` already) becomes exit code
    1 instead of a traceback.

    The body runs under :func:`repro.ckpt.graceful_shutdown`: SIGINT/
    SIGTERM requests a drain, the trainer/sweep engine writes a final
    checkpoint and journals ``run.interrupted`` at the next boundary,
    and the resulting :class:`~repro.errors.RunInterrupted` becomes
    exit code 130 with a resume hint.
    """
    from repro.ckpt import graceful_shutdown
    from repro.errors import RunInterrupted, SweepError
    from repro.obs.journal import end_run, journal_event, start_run
    from repro.obs.metrics import default_registry

    journal = start_run(
        results_dir=config.results_dir,
        run_id=getattr(args, "run_id", None),
        argv=argv,
        config=config,
        seed=args.seed,
    )
    print(f"[journal] run {journal.run_id} -> {journal.run_dir}")
    resume = getattr(args, "resume", None)
    if resume:
        journal_event("note", message=f"resuming from run {resume}")
    try:
        with graceful_shutdown():
            code = body()
    except SweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        journal.metrics_snapshot(default_registry(), scope="default")
        end_run(status="failed", error=str(exc))
        return 1
    except RunInterrupted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        print(
            f"resume with: --resume {journal.run_id}",
            file=sys.stderr,
        )
        journal.metrics_snapshot(default_registry(), scope="default")
        end_run(status="interrupted", error=str(exc))
        return 130
    except BaseException:
        end_run(status="failed")
        raise
    journal.metrics_snapshot(default_registry(), scope="default")
    end_run(status="ok" if code == 0 else "failed")
    return code


def _handle_explore(args, argv: List[str]) -> int:
    """Run a design-space exploration spec (see docs/explore.md).

    The spec is parsed and validated *before* the run journal opens, so
    a typo'd knob fails fast with exit 2 and no empty run directory.
    """
    from dataclasses import replace as dc_replace

    from repro.errors import ReproError
    from repro.explore import load_spec

    try:
        spec = load_spec(args.spec_file)
        if args.strategy:
            spec = dc_replace(spec, strategy=args.strategy)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = make_config(
        profile=args.profile, seed=args.seed, results_dir=args.results_dir
    )
    return _journaled(
        args, config, argv, lambda: _explore_body(args, config, spec)
    )


def _explore_body(args, config, spec) -> int:
    from repro.explore import render_explore, run_explore
    from repro.obs.journal import current_journal, read_events

    bench = Workbench(
        config,
        jobs=args.jobs,
        resume_run=args.resume,
        retries=args.retries,
        retry_backoff=args.retry_backoff,
    )
    result = run_explore(bench, spec)
    counts = result.counts
    print(
        f"[{spec.name}] {len(result.plans)} points: "
        f"{counts['evaluated']} evaluated, {counts['pruned']} pruned, "
        f"{counts['merged']} merged\n"
    )
    # Render from the journal, not the in-memory result: the report is
    # a pure function of the event stream, so what this prints is what
    # 'obs summary' will reconstruct later, byte for byte.
    journal = current_journal()
    print(render_explore(read_events(journal.run_dir, config.results_dir)))
    return 0


def _handle_serve(args, argv: List[str]) -> int:
    """Drive the batched inference service end to end from the CLI."""
    # Fail fast on cluster flags before any training or journaling.
    from repro.serve.cluster import SHARD_POLICIES

    if args.shard_by not in SHARD_POLICIES:
        import difflib

        close = difflib.get_close_matches(args.shard_by, SHARD_POLICIES, n=1)
        hint = f" (did you mean {close[0]!r}?)" if close else ""
        print(
            f"error: unknown --shard-by {args.shard_by!r}; options: "
            f"{', '.join(SHARD_POLICIES)}{hint}",
            file=sys.stderr,
        )
        return 2
    if args.workers is not None and args.workers < 1:
        print(
            f"error: --workers must be >= 1, got {args.workers}",
            file=sys.stderr,
        )
        return 2
    if args.workers is None and args.shard_by != "none":
        print(
            "error: --shard-by needs the multi-process cluster; "
            "add --workers N",
            file=sys.stderr,
        )
        return 2
    config = make_config(
        profile=args.profile, seed=args.seed, results_dir=args.results_dir
    )
    return _journaled(args, config, argv, lambda: _serve_body(args, config))


def _serve_body(args, config) -> int:
    """Serve ``--requests`` through the front door over one executor.

    The executor is in-process, or ``--workers N`` replica processes.
    At most ``--queue-size`` requests are outstanding at once: the
    loop waits on the oldest before it submits the next, so a bulk run
    applies backpressure instead of overflowing the admission queue.

    Interrupt contract matches sweeps: the first SIGINT/SIGTERM drains
    — outstanding requests finish, replicas stop cleanly, the journal
    records what was served — and the run exits 130 with a resume hint.
    """
    from collections import deque

    import numpy as np

    from repro.ckpt import interrupt_requested
    from repro.errors import RunInterrupted
    from repro.obs.journal import current_journal, journal_event
    from repro.obs.result import EvalResult
    from repro.serve import (
        ClusterService,
        InProcessExecutor,
        ModelSpec,
        ServeCluster,
    )
    from repro.utils import profiler

    bench = Workbench(config, jobs=args.jobs)
    spec = ModelSpec.parse(args.spec)
    fallback = (
        ModelSpec.parse(args.fallback_spec) if args.fallback_spec else None
    )
    if args.workers is None:
        executor = InProcessExecutor(bench)
    else:
        print(
            f"starting cluster: {args.workers} replica processes, "
            f"shard_by={args.shard_by}"
        )
        executor = ServeCluster(
            bench, workers=args.workers, shard_by=args.shard_by
        )
    images = bench.data.val.images
    labels = bench.data.val.labels
    count = args.requests
    interrupted = False
    prof_ctx = profiler.profiled() if args.profile_ops else None
    prof = prof_ctx.__enter__() if prof_ctx else None
    try:
        with executor:
            print(
                f"warming {spec}"
                + (f" (fallback {fallback})" if fallback else "")
            )
            executor.warm(spec, *([fallback] if fallback else []))
            with ClusterService(
                executor,
                queue_size=args.queue_size,
                max_batch=args.max_batch,
                max_wait_s=args.max_wait_ms / 1e3,
                timeout_s=args.timeout_s,
                fallback_spec=fallback,
            ) as service:
                start = time.time()
                outstanding = deque()
                predictions = []
                for i in range(count):
                    if interrupt_requested():
                        interrupted = True
                        break
                    if len(outstanding) >= args.queue_size:
                        oldest = outstanding.popleft()
                        predictions.append(
                            oldest.result(timeout=args.timeout_s)
                        )
                    outstanding.append(
                        service.submit(spec, images[i % len(images)], i)
                    )
                predictions.extend(
                    f.result(timeout=args.timeout_s) for f in outstanding
                )
                elapsed = time.time() - start
            if args.workers is not None:
                executor.flush_worker_stats()
            stats = executor.stats()
            journal_event("serve.stats", stats=stats.snapshot())
            journal = current_journal()
            if journal is not None:
                journal.metrics_snapshot(stats.registry, scope="serve")
            print(stats.report())
    finally:
        if prof_ctx:
            prof_ctx.__exit__(None, None, None)
    served = len(predictions)
    if served:
        result = EvalResult.from_predictions(
            predictions,
            [labels[i % len(labels)] for i in range(served)],
            wall_time_s=elapsed,
            noise_seed=args.seed,
        )
        degraded = sum(p.degraded for p in predictions)
        journal_event("note", message=f"serve eval result: {result!r}")
        print(
            f"\nserved {served} requests in {elapsed:.2f}s "
            f"({served / elapsed:.1f} req/s), accuracy {result:.4f}"
            + (f", {degraded} degraded" if degraded else "")
        )
        if prof is not None:
            print()
            print(prof.report())
        batch_sizes = [p.batch_size for p in predictions]
        print(
            f"batch sizes: min {min(batch_sizes)}, "
            f"mean {np.mean(batch_sizes):.2f}, max {max(batch_sizes)}"
        )
    if interrupted:
        raise RunInterrupted(
            f"serve drained after {served}/{count} requests"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    cli_argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if getattr(args, "no_compile", False):
        from repro import compile as repro_compile

        repro_compile.set_enabled(False)
    if args.command == "list":
        for name in DEFAULT_ORDER:
            doc = (EXPERIMENTS[name].__doc__ or "").strip().splitlines()[0]
            print(f"{name:12s} {doc}")
        return 0
    if args.command == "errmodels":
        return _handle_errmodels()
    if args.command == "registry":
        return _handle_registry(args, cli_argv)
    if args.command == "obs":
        return _handle_obs(args)
    if args.command == "serve":
        return _handle_serve(args, cli_argv)
    if args.command == "explore":
        return _handle_explore(args, cli_argv)
    if args.command == "export":
        from repro.experiments.export import export_all

        for path in export_all(args.results_dir, args.out_dir):
            print(path)
        return 0

    config = make_config(
        profile=args.profile, seed=args.seed, results_dir=args.results_dir
    )
    bench = Workbench(
        config,
        jobs=args.jobs,
        resume_run=args.resume,
        retries=args.retries,
        retry_backoff=args.retry_backoff,
    )

    def _body() -> int:
        if args.command == "run":
            _run_one(
                args.experiment, bench, args.results_dir, args.profile_ops
            )
        else:
            for name in DEFAULT_ORDER:
                _run_one(name, bench, args.results_dir, args.profile_ops)
        return 0

    return _journaled(args, config, cli_argv, _body)


if __name__ == "__main__":
    sys.exit(main())
