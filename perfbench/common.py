"""Plumbing shared by the workloads: imports, isolation, host block, stats.

Everything here reads or writes only inside the checkout the benchmark
runs from (``ROOT``): the program is imported from ``ROOT/src`` and every
run works in a fresh directory under ``ROOT/.perfbench_tmp`` that is
deleted when the run ends.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, Iterable, List, Optional, Tuple

#: The checkout the benchmark lives in (the parent of this directory).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Where per-run scratch directories are made (and removed).
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

#: Thread-count variables that change what BLAS does; recorded, never set.
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Config seeds the workloads train with; ``expected.json`` holds the
#: recorded outputs for each.  Every one gives the explore spec the same
#: plan (6 evaluated, 6 pruned, 15 merged), so the amount of work does
#: not depend on which one a run draws.
CONFIG_SEEDS = (123, 307, 7)


def import_repro() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; exit if absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(
            f"error: no repro package under {src}; run the benchmark from "
            "the root of a checkout of the repository"
        )
    sys.path.insert(0, src)


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def config_seed(seed: int) -> int:
    """The training config seed a workload seed selects."""
    return CONFIG_SEEDS[seed % len(CONFIG_SEEDS)]


# ----------------------------------------------------------------------
# host block
# ----------------------------------------------------------------------
def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha() -> Optional[str]:
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def host_block() -> Dict[str, object]:
    """What a result was measured on; results are comparable only when
    every field but ``git_sha`` matches (see ``compare.py``)."""
    import numpy as np

    from repro.parallel.runner import start_method

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
        "mp_start_method": start_method(),
        "git_sha": _git_sha(),
    }


# ----------------------------------------------------------------------
# isolation
# ----------------------------------------------------------------------
@contextlib.contextmanager
def scratch_dir():
    """A fresh directory inside the checkout, removed afterwards."""
    os.makedirs(SCRATCH, exist_ok=True)
    path = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def remove_scratch_root() -> None:
    """Drop ``SCRATCH`` itself once no run directory is left in it."""
    with contextlib.suppress(OSError):
        os.rmdir(SCRATCH)


def reap_children(timeout_s: float = 60.0) -> None:
    """Wait until every child process has exited (kill after timeout).

    Pool workers exit shortly after their executor shuts down without
    waiting; ``active_children`` joins the finished ones, which also
    lets ``RUSAGE_CHILDREN`` count them.
    """
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join(5.0)
            break
        time.sleep(0.02)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ----------------------------------------------------------------------
# configs
# ----------------------------------------------------------------------
def serving_config(root: str, seed: int):
    """The full profile's shape (16x16 images, 20 classes, 800 validation
    images) with a tiny training budget: serving and evaluation cost
    depend on shape, not on accuracy."""
    from repro.experiments.config import make_config

    return make_config(
        profile="full",
        seed=seed,
        train_per_class=10,
        pretrain_epochs=1,
        retrain_epochs=1,
        cache_dir=os.path.join(root, "cache"),
        results_dir=os.path.join(root, "results"),
    )


def explore_config(root: str, seed: int):
    """The benchmark-scale config of ``benchmarks/conftest.py``."""
    from repro.experiments.config import make_config

    return make_config(
        profile="quick",
        seed=seed,
        num_classes=4,
        image_size=8,
        train_per_class=24,
        val_per_class=10,
        pretrain_epochs=3,
        retrain_epochs=2,
        batch_size=32,
        patience=2,
        eval_passes=2,
        enob_sweep=(4.0, 6.0),
        table2_enob=4.0,
        fig6_enobs=(4.0, 6.0),
        cache_dir=os.path.join(root, "cache"),
        results_dir=os.path.join(root, "results"),
    )


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default); 0.0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Iterable[float]) -> float:
    return percentile(values, 50.0)


def metric_totals(registry, name: str) -> Tuple[float, float]:
    """``(value, sum)`` of a metric summed over its label children.

    Counters and gauges report their value (sum 0); histograms report
    their observation count and the sum of observations.
    """
    value, total = 0.0, 0.0
    for metric in registry.children(name).values():
        if hasattr(metric, "buckets"):
            value += metric.count
            total += metric.sum
        else:
            value += metric.value
    return value, total


def histogram_counts(registry, name: str) -> Tuple[Tuple[float, ...], List[int]]:
    """Bucket bounds and counts of a histogram, summed over labels."""
    bounds: Tuple[float, ...] = ()
    counts: List[int] = []
    for metric in registry.children(name).values():
        bounds = metric.buckets
        child = metric.counts()
        counts = child if not counts else [a + b for a, b in zip(counts, child)]
    return bounds, counts


def bucket_percentile(
    bounds: Tuple[float, ...], counts: List[int], q: float
) -> float:
    """Percentile of a fixed-bucket histogram, interpolated in-bucket."""
    total = sum(counts)
    if not total:
        return 0.0
    target = q / 100.0 * total
    seen = 0
    lower = 0.0
    for upper, count in zip(bounds + (bounds[-1],), counts):
        if count and seen + count >= target:
            return lower + (upper - lower) * (target - seen) / count
        seen += count
        lower = upper
    return bounds[-1]
