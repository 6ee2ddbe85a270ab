#!/usr/bin/env python
"""Compare a fresh benchmark run against the checked-in baseline.

Usage::

    python tools/bench_compare.py                 # run + compare
    python tools/bench_compare.py --update        # run + rewrite baseline
    python tools/bench_compare.py --current out.json   # compare existing run
    python tools/bench_compare.py --threshold 0.3

Runs ``pytest benchmarks/ --benchmark-json=...`` (unless ``--current``
points at an existing pytest-benchmark JSON), then compares each
benchmark's median against ``BENCH_baseline.json``.  Exits non-zero if
any benchmark regressed by more than ``--threshold`` (default 20%).

Benchmarks present only on one side are reported but never fail the
run, so adding or retiring a bench does not require touching the
baseline in the same change.  Speedups beyond the threshold are flagged
as a hint to refresh the baseline with ``--update``.

Hand-recorded medians (``BENCH_serve.json``, ``BENCH_parallel_sweep
.json``, ``BENCH_compiled.json``, ``BENCH_explore.json``) are diffed
too: their ``median_seconds`` entries are matched against the current
run by bare test name and gated by the same threshold.  A recorded
file may carry its own ``budget`` (fractional slowdown tolerated,
e.g. ``0.75`` for 1.75x) sized to the measured run-to-run noise of
what it times — sub-100ms multi-process benches on a contended host
need more headroom than second-scale single-process ones.  ``--update``
never rewrites them — re-record by hand (see docs/performance.md for
the multicore caveat).

Recorded files carry the ``host`` they were measured on.  When the
recorded ``host.cpus`` differs from this machine's CPU count, absolute
medians are not comparable (thread counts, BLAS parallelism and batch
overlap all change), so regressions beyond the threshold are
*downgraded to warnings* naming both hosts instead of failing the run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(REPO_ROOT, "BENCH_baseline.json")

#: Hand-recorded median files compared (when present) in addition to
#: the pytest-benchmark baseline.
DEFAULT_RECORDED = (
    os.path.join(REPO_ROOT, "BENCH_serve.json"),
    os.path.join(REPO_ROOT, "BENCH_parallel_sweep.json"),
    os.path.join(REPO_ROOT, "BENCH_compiled.json"),
    os.path.join(REPO_ROOT, "BENCH_explore.json"),
)


def run_benchmarks(json_path: str, pytest_args=()) -> None:
    """Run the benchmark suite, writing pytest-benchmark JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        "benchmarks/",
        "-q",
        f"--benchmark-json={json_path}",
        *pytest_args,
    ]
    print("$", " ".join(cmd), flush=True)
    result = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
    if result.returncode != 0:
        sys.exit(f"benchmark run failed (exit {result.returncode})")


def load_medians(path: str) -> dict:
    """``{benchmark fullname: median seconds}`` from pytest-benchmark JSON."""
    with open(path) as fh:
        payload = json.load(fh)
    return {
        bench["fullname"]: bench["stats"]["median"]
        for bench in payload.get("benchmarks", [])
    }


def load_recorded_medians(path: str) -> dict:
    """``{bare test name: median seconds}`` from a hand-recorded file."""
    with open(path) as fh:
        payload = json.load(fh)
    return dict(payload.get("median_seconds", {}))


def recorded_host(path: str) -> dict:
    """The ``host`` block of a hand-recorded file (may be empty)."""
    with open(path) as fh:
        payload = json.load(fh)
    host = payload.get("host")
    return dict(host) if isinstance(host, dict) else {}


def recorded_budget(path: str):
    """The file's own ``budget`` (fractional slowdown), or ``None``."""
    with open(path) as fh:
        payload = json.load(fh)
    budget = payload.get("budget")
    return float(budget) if budget is not None else None


def host_mismatch(host: dict) -> str:
    """A human-readable mismatch description, or "" when comparable.

    Only ``cpus`` gates comparability: a different core count changes
    the absolute medians (thread pools, BLAS parallelism, batch
    overlap), while e.g. a different hostname alone does not.  Records
    without a ``cpus`` field are treated as comparable — failing open
    here would let every legacy record dodge the gate.
    """
    recorded_cpus = host.get("cpus")
    if recorded_cpus is None:
        return ""
    current_cpus = os.cpu_count()
    if int(recorded_cpus) == current_cpus:
        return ""
    recorded_name = host.get("machine") or host.get("hostname") or "recorded"
    return (
        f"recorded on {recorded_name} with {recorded_cpus} cpus, "
        f"running on {os.uname().nodename} with {current_cpus} cpus"
    )


def bare_medians(medians: dict) -> dict:
    """Re-key pytest-benchmark fullnames by bare test name.

    Hand-recorded files use bare names so they stay valid when a bench
    file moves; ``benchmarks/test_bench_serve.py::test_serve_direct``
    matches the recorded ``test_serve_direct``.
    """
    return {name.split("::")[-1]: median for name, median in medians.items()}


def compare(baseline: dict, current: dict, threshold: float):
    """Partition benches into (regressions, improvements, only-one-side)."""
    regressions, improvements = [], []
    for name in sorted(set(baseline) & set(current)):
        old, new = baseline[name], current[name]
        ratio = new / old if old > 0 else float("inf")
        if ratio > 1.0 + threshold:
            regressions.append((name, old, new, ratio))
        elif ratio < 1.0 - threshold:
            improvements.append((name, old, new, ratio))
    added = sorted(set(current) - set(baseline))
    removed = sorted(set(baseline) - set(current))
    return regressions, improvements, added, removed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail if any benchmark regressed vs the baseline."
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help="checked-in pytest-benchmark JSON (default: BENCH_baseline.json)",
    )
    parser.add_argument(
        "--current",
        default=None,
        help="existing run to compare; omit to run pytest benchmarks/ now",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="fractional slowdown tolerated per bench (default 0.20)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="write the current run over the baseline instead of comparing",
    )
    parser.add_argument(
        "--recorded",
        action="append",
        default=None,
        help=(
            "hand-recorded median_seconds JSON to diff against the "
            "current run (repeatable; default: BENCH_serve.json and "
            "BENCH_parallel_sweep.json when present)"
        ),
    )
    parser.add_argument(
        "pytest_args",
        nargs="*",
        help="extra args forwarded to pytest (after --)",
    )
    args = parser.parse_args(argv)

    if args.current is None:
        tmp = tempfile.NamedTemporaryFile(
            suffix=".json", prefix="bench-", delete=False
        )
        tmp.close()
        run_benchmarks(tmp.name, args.pytest_args)
        current_path = tmp.name
    else:
        current_path = args.current

    if args.update:
        with open(current_path) as fh:
            payload = json.load(fh)
        with open(args.baseline, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    if not os.path.exists(args.baseline):
        sys.exit(
            f"no baseline at {args.baseline}; create one with --update"
        )
    baseline = load_medians(args.baseline)
    current = load_medians(current_path)
    regressions, improvements, added, removed = compare(
        baseline, current, args.threshold
    )

    for name in added:
        print(f"NEW       {name} ({current[name] * 1e3:.3f} ms)")
    for name in removed:
        print(f"GONE      {name}")
    for name, old, new, ratio in improvements:
        print(
            f"FASTER    {name}: {old * 1e3:.3f} -> {new * 1e3:.3f} ms "
            f"({ratio:.2f}x) — consider --update"
        )
    for name, old, new, ratio in regressions:
        print(
            f"REGRESSED {name}: {old * 1e3:.3f} -> {new * 1e3:.3f} ms "
            f"({ratio:.2f}x > 1.{int(args.threshold * 100):02d}x budget)"
        )
    compared = len(set(baseline) & set(current))
    print(
        f"\n{compared} benches compared: {len(regressions)} regressed, "
        f"{len(improvements)} faster, {len(added)} new, {len(removed)} gone"
    )

    recorded_paths = (
        args.recorded
        if args.recorded is not None
        else [p for p in DEFAULT_RECORDED if os.path.exists(p)]
    )
    recorded_regressions = 0
    bare = bare_medians(current)
    for path in recorded_paths:
        recorded = load_recorded_medians(path)
        shared = sorted(set(recorded) & set(bare))
        label = os.path.basename(path)
        if not shared:
            print(f"\n{label}: no matching benches in this run, skipped")
            continue
        budget = recorded_budget(path)
        threshold = budget if budget is not None else args.threshold
        reg, imp, _, _ = compare(
            {name: recorded[name] for name in shared},
            {name: bare[name] for name in shared},
            threshold,
        )
        mismatch = host_mismatch(recorded_host(path))
        budget_note = (
            f" (file budget {1.0 + threshold:.2f}x)"
            if budget is not None else ""
        )
        print(
            f"\n{label}: {len(shared)} recorded benches "
            f"compared{budget_note}"
        )
        if mismatch and reg:
            # Absolute medians from a different core count are not
            # comparable — report, but do not fail the run on them.
            print(f"HOST MISMATCH: {mismatch}; regressions are warnings")
        for name, old, new, ratio in imp:
            print(
                f"FASTER    {name}: {old * 1e3:.3f} -> {new * 1e3:.3f} ms "
                f"({ratio:.2f}x) — consider re-recording {label}"
            )
        for name, old, new, ratio in reg:
            verdict = "WARNING  " if mismatch else "REGRESSED"
            print(
                f"{verdict} {name}: {old * 1e3:.3f} -> {new * 1e3:.3f} ms "
                f"({ratio:.2f}x > {1.0 + threshold:.2f}x budget)"
            )
        if not mismatch:
            recorded_regressions += len(reg)

    return 1 if (regressions or recorded_regressions) else 0


if __name__ == "__main__":
    sys.exit(main())
