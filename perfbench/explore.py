"""The ``explore`` workload: the design-space sweep.

``run_explore`` with ``jobs=1`` on the 27-point (ENOB, Nmult) spec
and the benchmark-scale config that ``benchmarks/test_bench_explore.py``
uses, each call from a fresh cache and under a run journal opened with
``start_run`` inside ``graceful_shutdown``, the way the CLI runs it.
Training (conv forward and backward, SGD), the noise draw and cold-tier
registry writes dominate; the serving layers do nothing, and the
compile and evaluate layers run at batch 32 on 8x8 images.  A run
repeats calls for ``--seconds``; each call's counts and frontier must
equal the values recorded in ``expected.json`` and the journal's
``explore.end`` event.
"""

from __future__ import annotations

import contextlib
import os
from time import perf_counter
from typing import List

from repro.ckpt import graceful_shutdown
from repro.experiments.common import Workbench
from repro.explore import run_explore, spec_from_dict
from repro.obs.journal import end_run, read_events, start_run
from repro.obs.metrics import default_registry

from common import (
    explore_config,
    median,
    peak_rss_mb,
    percentile,
    reap_children,
    scratch_dir,
)
from layers import add, compute_layers, setup_layers
from tracing import Tracer

#: The spec of ``benchmarks/test_bench_explore.py``: 9 ENOBs x 3 Nmults.
SPEC_DATA = {
    "name": "bench-explore",
    "hardware": {
        "enob": {"start": 4.0, "stop": 8.0, "step": 0.5},
        "nmult": [8, 32, 64],
        "adc": {
            "library": "custom",
            "knee_enob": 5.5,
            "intercept_db": 38.34,
        },
    },
    "search": {"strategy": "cheap-first"},
}
POINTS = 27
#: One, not nproc: on the recording host two pool workers (two OpenBLAS
#: pools on two CPUs) make a call take anywhere from 3 to 10 s; see
#: README.md.
JOBS = 1
#: Calls per run at least, so the median has three samples.
MIN_CALLS = 3
#: The config seed of every call.  Other seeds change the plan (how
#: many points are retrained) and when training stops early, so they
#: change the amount of work; the workload seed therefore selects
#: nothing here.
CONFIG_SEED = 123


def _call(root: str, seed: int, tracer=None) -> dict:
    """Set up, run one ``run_explore``, read its journal back."""
    section = tracer.section if tracer is not None else _untraced
    span = tracer.span if tracer is not None else _untraced
    with section("setup"):
        start = perf_counter()
        spec = spec_from_dict(SPEC_DATA)
        config = explore_config(root, seed)
        journal = start_run(
            results_dir=config.results_dir,
            argv=["explore", "--jobs", str(JOBS)],
            config=config,
            seed=seed,
        )
        bench = Workbench(config, jobs=JOBS)
        bench.data
        setup_s = perf_counter() - start
    try:
        with section("run_explore"), span("run_explore"), graceful_shutdown():
            start = perf_counter()
            result = run_explore(bench, spec)
            wall = perf_counter() - start
    except BaseException:
        end_run(status="failed")
        raise
    journal.metrics_snapshot(default_registry(), scope="default")
    end_run(status="ok")
    reap_children()
    events_path = os.path.join(journal.run_dir, "events.jsonl")
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "result": result,
        "events": read_events(journal.run_dir),
        "journal_bytes": os.path.getsize(events_path),
    }


@contextlib.contextmanager
def _untraced(_name):
    yield


def outcome_record(result) -> dict:
    """The JSON form of an ExploreResult, as ``expected.json`` stores it."""
    return {
        "counts": dict(result.counts),
        "frontier": [
            [cell.enob, cell.nmult, cell.eq_enob, cell.emac_pj, cell.loss]
            for cell in result.frontier
        ],
    }


def _check(call: dict, expected: dict) -> List[str]:
    problems = []
    got = outcome_record(call["result"])
    if got != expected:
        problems.append(f"counts/frontier {got} != recorded {expected}")
    ends = [e for e in call["events"] if e["event"] == "explore.end"]
    counts = got["counts"]
    if len(ends) != 1 or any(
        ends[0][key] != counts[key] for key in ("evaluated", "pruned", "merged")
    ) or ends[0]["frontier_size"] != len(got["frontier"]):
        problems.append(f"journal explore.end {ends} disagrees with {counts}")
    return problems


def record(seed: int) -> dict:
    """The outputs ``expected.json`` records for config seed ``seed``."""
    with scratch_dir() as root:
        return outcome_record(_call(root, seed)["result"])


def run(seed: int, seconds: float, expected: dict) -> dict:
    expected = expected[str(CONFIG_SEED)]
    calls = []
    problems: List[str] = []
    failed = 0
    deadline = perf_counter() + seconds
    while (
        len(calls) < MIN_CALLS
        or perf_counter() + median(c["wall_s"] for c in calls) <= deadline
    ):
        with scratch_dir() as root:
            call = _call(root, CONFIG_SEED)
        found = _check(call, expected)
        problems.extend(found)
        failed += bool(found)
        calls.append(call)
    walls = [c["wall_s"] for c in calls]
    details = {
        "setup_s": median(c["setup_s"] for c in calls),
        "peak_rss_mb": peak_rss_mb(),
        "failed_ratio": failed / len(calls),
        "wall_s": median(walls),
    }
    return {
        "attempted": len(calls),
        "failed": failed,
        "problems": problems,
        "config_seed": CONFIG_SEED,
        "invalid": [],
        "details": details,
        "samples": {"run_explore calls": len(calls), "jobs": JOBS},
        "metrics": {
            "setup_s": details["setup_s"],
            "peak_rss_mb": details["peak_rss_mb"],
            "latency_p50_ms": 1e3 * median(walls),
            "latency_p95_ms": 1e3 * percentile(walls, 95),
            "throughput_per_s": POINTS / median(walls),
        },
    }


def trace(seed: int, seconds: float, expected: dict) -> dict:
    """One call untraced, then one traced."""
    expected = expected[str(CONFIG_SEED)]
    with scratch_dir() as root:
        untraced = _call(root, CONFIG_SEED)
    with scratch_dir() as root, Tracer() as tracer:
        traced = _call(root, CONFIG_SEED, tracer)
    found = [_check(untraced, expected), _check(traced, expected)]
    problems = found[0] + found[1]
    layers = add(setup_layers(tracer), compute_layers(tracer))
    sweeps = tracer.calls["sweep"]
    sweep_s = sum(s for _, s in sweeps)
    points, point_s = tracer.delta("sweep.point_seconds")
    jobs = max((j for j, _ in sweeps), default=1)
    end = next(e for e in traced["events"] if e["event"] == "explore.end")
    layers.update(
        {
            "evaluate.pass_s": tracer.inclusive("eval.pass")[0],
            "parallel.sweep_s": sweep_s,
            "parallel.point_s_mean": point_s / points if points else 0.0,
            "parallel.efficiency": (
                point_s / (jobs * sweep_s) if sweep_s else 0.0
            ),
            "explore.evaluated": end["evaluated"],
            "explore.pruned": end["pruned"],
            "explore.merged": end["merged"],
            "explore.frontier_share": (
                end["frontier_size"] / end["evaluated"]
                if end["evaluated"]
                else 0.0
            ),
            "journal.events": len(traced["events"]),
            "journal.bytes": traced["journal_bytes"],
            "trace.overhead_ratio": traced["wall_s"] / untraced["wall_s"],
        }
    )
    return {
        "attempted": 2,
        "failed": sum(bool(f) for f in found),
        "problems": problems,
        "config_seed": CONFIG_SEED,
        "invalid": [],
        "layers": layers,
        "tables": tracer.layer_tables(),
        "breakdown": [],
    }
