"""Compare saved benchmark results of two commits.

Usage::

    python3 perfbench/compare.py --base a1.json a2.json ... --new b1.json ...

Each file is one ``run.py --out`` result.  Results are compared only
when every host block matches in all fields but ``git_sha`` — the BLAS
thread count alone moves ``explore`` several-fold, so numbers from
different hosts or environments say nothing about a change.  For each
workload and end-to-end metric it prints both medians and flags a
metric whose new median is worse than the base median by more than the
metric's ``bound`` in ``BENCHMARK.json``.  Exit code: 0 when nothing
regressed, 1 when something did, 2 when the results cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _host_key(result: dict) -> dict:
    return {k: v for k, v in result["host"].items() if k != "git_sha"}


def _load(paths):
    results = []
    for path in paths:
        with open(path) as fh:
            result = json.load(fh)
        if result.get("trace"):
            raise SystemExit(f"error: {path} is a traced run; compare untraced runs")
        results.append(result)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = _load(args.base), _load(args.new)
    hosts = {json.dumps(_host_key(r), sort_keys=True) for r in base + new}
    if len(hosts) != 1:
        print("refusing to compare: the host blocks differ", file=sys.stderr)
        for host in sorted(hosts):
            print(f"  {host}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["end_to_end"]
    regressed = False
    workloads = sorted({r["workload"] for r in base} | {r["workload"] for r in new})
    print(f"{'workload':<10}{'metric':<20}{'base':>14}{'new':>14}"
          f"{'change':>9}{'bound':>8}")
    for workload in workloads:
        for metric in declared:
            name = metric["name"]
            sides = [
                [r["metrics"][name]["value"] for r in runs if r["workload"] == workload]
                for runs in (base, new)
            ]
            if not all(sides):
                continue
            old, cur = (statistics.median(side) for side in sides)
            change = (cur - old) / old if old else 0.0
            worse = change if metric["better"] == "lower" else -change
            flag = worse > metric["bound"]
            regressed |= flag
            print(
                f"{workload:<10}{name:<20}{old:>14.4f}{cur:>14.4f}"
                f"{100 * change:>8.1f}%{100 * metric['bound']:>7.0f}%"
                + ("  REGRESSED" if flag else "")
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
