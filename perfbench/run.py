"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload online --seed 1 --seconds 30 --trace 0

Workloads are ``online`` (FrontDoor over a ServeCluster), ``offline``
(``repeated_evaluate`` on three models) and ``explore`` (``run_explore``
on the 27-point spec); ``perfbench/README.md`` says why each exists and
what every metric means.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` is a separate traced run that prints a layer table per
traced section and the per-layer metrics.  The names and units printed
are those of ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
1 when any output check fails or the run is invalid (the result is still
printed), and non-zero without a result when the benchmark cannot run.

``--out FILE`` also writes the full result, with its host block, for
``perfbench/compare.py``.  ``--record`` re-measures the outputs that
``perfbench/expected.json`` holds and rewrites it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import tempfile

from common import (
    CONFIG_SEEDS,
    ROOT,
    SCRATCH,
    host_block,
    import_repro,
    reap_children,
    remove_scratch_root,
)

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ("online", "offline", "explore")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result here")
    parser.add_argument(
        "--record",
        action="store_true",
        help="rewrite expected.json from fresh runs",
    )
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _record() -> int:
    import explore
    import offline

    recorded = {
        "offline": {str(seed): offline.record(seed) for seed in CONFIG_SEEDS},
        "explore": {
            str(explore.CONFIG_SEED): explore.record(explore.CONFIG_SEED)
        },
    }
    with open(EXPECTED, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(recorded, indent=1, sort_keys=True))
    return 0


def _measure(args) -> dict:
    module = importlib.import_module(args.workload)
    runner = module.trace if args.trace else module.run
    if args.workload == "online":
        return runner(args.seed, args.seconds)
    with open(EXPECTED) as fh:
        expected = json.load(fh)[args.workload]
    return runner(args.seed, args.seconds, expected)


def _report(args, spec: dict, result: dict, host: dict) -> dict:
    """Print the human-readable report; return the final JSON line."""
    print(f"workload {args.workload}, seed {args.seed} "
          f"(config seed {result['config_seed']}), "
          f"{args.seconds:g} s, trace {args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    if args.trace:
        from tracing import format_tables

        print(format_tables(result["tables"]))
        for row in result["breakdown"]:
            print(
                f"request latency [{row['phase']}] mean "
                f"{row['latency_ms']:.3f} ms over {row['requests']} requests"
            )
            for stage, value in row["stages_ms"].items():
                print(f"  {stage:<26}{value:>10.3f} ms")
        declared = spec["per_layer"]
        values = result["layers"]
    else:
        print("workload metrics")
        for name, value in result["details"].items():
            print(f"  {name:<26}{value:>14.4f}")
        for name, value in result["samples"].items():
            print(f"  samples: {name} = {value}")
        declared = spec["end_to_end"]
        values = result["metrics"]
    unknown = sorted(set(values) - {m["name"] for m in declared})
    if unknown:
        raise SystemExit(f"error: metrics missing from BENCHMARK.json: {unknown}")
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }
    print("metrics")
    for name, metric in metrics.items():
        print(f"  {name:<34}{metric['value']:>16.6f} {metric['unit']}")
    for line in result["problems"][:20]:
        print(f"FAILED {line}")
    for line in result["invalid"]:
        print(f"INVALID {line}")
    bad_tables = [t["section"] for t in result.get("tables", ()) if not t["ok"]]
    for section in bad_tables:
        print(f"INVALID layer table [{section}] does not sum to its wall")
    correct = not result["failed"] and not result["invalid"] and not bad_tables
    return {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    import_repro()
    os.makedirs(SCRATCH, exist_ok=True)
    tempfile.tempdir = SCRATCH
    try:
        if args.record:
            return _record()
        spec = _spec()
        host = host_block()
        result = _measure(args)
        line = _report(args, spec, result, host)
    finally:
        reap_children()
        remove_scratch_root()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(
                dict(line, workload=args.workload, seed=args.seed,
                     trace=args.trace, seconds=args.seconds, host=host),
                fh, indent=1, sort_keys=True,
            )
    sys.stdout.flush()
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
