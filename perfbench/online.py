"""The ``online`` workload: requests through FrontDoor to a ServeCluster.

The model is ``ams:e5.5:n8`` (lumped Gaussian, retrained) at the full
profile's shape.  One asyncio loop in this process generates all load,
in three phases:

- ``light`` — open loop, Poisson arrivals at ``LIGHT_RPS``.  The latency
  floor: the 5 ms coalescing window, the pipe and one small batch.
- ``busy`` — open loop, Poisson arrivals at ``BUSY_RPS``, below the
  highest rate the recording host sustains under a 50 ms p99:
  queueing behind the coalescer and the replica.
- ``capacity`` — closed loop with 2 x replicas x ``max_batch`` requests
  outstanding, which stays under the front door's ``queue_size`` so
  nothing is shed by design.

Open-loop latency runs from each request's scheduled send time, so a
stall also charges the requests it delays.  The FrontDoor defaults are
kept; the only addition is a thin recorder between FrontDoor and the
cluster that notes which requests rode in which batch, so the output
check can replay those exact batches in-process.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import os
from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.experiments.common import Workbench
from repro.serve import FrontDoor, ModelSpec, ServeCluster
from repro.serve.executor import forward_with_request_noise

from common import (
    bucket_percentile,
    config_seed,
    histogram_counts,
    median,
    metric_totals,
    peak_rss_mb,
    percentile,
    reap_children,
    scratch_dir,
    serving_config,
)
from layers import setup_layers
from tracing import Tracer

SPEC = "ams:e5.5:n8"
#: Replica processes.  One, not nproc: on the recording host two
#: replicas (two OpenBLAS pools on two CPUs) serve less and swing 2x
#: between runs; see README.md.
REPLICAS = 1
LIGHT_RPS = 25.0
#: About two thirds of the ~450 req/s the recording host sustains under
#: a 50 ms p99: close enough to queue, far enough to stay steady.
BUSY_RPS = 300.0
#: Load-generator lag (p99) above which a run is invalid.  Sends run
#: ~4 ms late at p99 on the recording host; a machine stall can push
#: that past 20 ms, but only a generator that cannot keep its schedule
#: reaches this.
LAG_LIMIT_MS = 100.0
#: Setups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Batches carrying a request whose id is a multiple of this are
#: replayed in-process and checked bit for bit.
SAMPLE_EVERY = 50
#: Shares of ``--seconds`` spent in light, busy and capacity.  Capacity
#: gets the most: on the recording host its rate drifts with the
#: machine over seconds, and a longer phase averages more of that.
PHASE_SHARES = (0.2, 0.3, 0.5)
#: Stretches a phase's tail percentile is taken over (see ``_tail_ms``).
WINDOWS = 5
#: Replies per block of the capacity rate (see ``_capacity_rps``).
BLOCK = 400


@dataclass
class Outcome:
    request_id: int
    due: float
    sent: float
    done: float
    prediction: object = None
    error: Optional[str] = None


class RecordingCluster:
    """The cluster as FrontDoor sees it, plus a record of each batch.

    Every batch's request ids and dispatch time are kept; batches that
    carry a sampled request also keep their images and reply future, so
    the check can run exactly those batches again in-process.  With a
    tracer it also times each ``submit_batch`` call and each round trip
    until the reply resolves the future.
    """

    def __init__(self, cluster, tracer=None):
        self._cluster = cluster
        self._tracer = tracer
        #: ``[request ids, dispatch time, reply time or None]`` per batch.
        self.batches: List[list] = []
        self.sampled: list = []

    def __getattr__(self, name):
        return getattr(self._cluster, name)

    def submit_batch(self, spec, images, request_ids):
        start = perf_counter()
        future = self._cluster.submit_batch(spec, images, request_ids)
        ids = tuple(int(rid) for rid in request_ids)
        entry = [ids, start, None]
        self.batches.append(entry)
        if any(rid % SAMPLE_EVERY == 0 for rid in ids):
            self.sampled.append((ids, np.array(images), future))
        if self._tracer is not None:
            self._tracer.record("cluster.submit_batch", start, perf_counter())
            future.add_done_callback(
                lambda _f, e=entry: e.__setitem__(2, perf_counter())
            )
        return future


# ----------------------------------------------------------------------
# load generation (one asyncio thread)
# ----------------------------------------------------------------------
async def _request(door, spec, images, index, request_id, due) -> Outcome:
    sent = perf_counter()
    try:
        prediction = await door.classify(spec, images[index], request_id)
    except ReproError as exc:
        return Outcome(
            request_id, due, sent, perf_counter(),
            error=f"{type(exc).__name__}: {exc}",
        )
    return Outcome(request_id, due, sent, perf_counter(), prediction)


async def _open_loop(door, spec, images, rate, seconds, rng, ids):
    """Poisson arrivals at ``rate`` for ``seconds``; awaits every reply."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 2) + 16)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < seconds]
    picks = rng.integers(len(images), size=len(offsets))
    origin = perf_counter() + 0.005
    tasks = []
    for offset, index in zip(offsets, picks):
        due = origin + float(offset)
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(
            asyncio.create_task(
                _request(door, spec, images, int(index), next(ids), due)
            )
        )
    return list(await asyncio.gather(*tasks))


async def _closed_loop(door, spec, images, window, rng, ids, seconds=None,
                       total=None):
    """``window`` clients, each sending its next request on a reply.

    Stops after ``seconds`` or after ``total`` requests; returns the
    outcomes and the wall time from the first send to the last reply.
    """
    picks = rng.integers(len(images), size=4096)
    started = perf_counter()
    deadline = None if seconds is None else started + seconds
    budget = itertools.count()
    outcomes: List[Outcome] = []

    async def client():
        while True:
            if deadline is not None and perf_counter() >= deadline:
                return
            if total is not None and next(budget) >= total:
                return
            request_id = next(ids)
            index = int(picks[request_id % len(picks)])
            outcomes.append(
                await _request(
                    door, spec, images, index, request_id, perf_counter()
                )
            )

    await asyncio.gather(*(client() for _ in range(window)))
    return outcomes, perf_counter() - started


async def _with_door(cluster, body):
    """Run ``body(door)`` against a fresh FrontDoor, then drain it."""
    door = FrontDoor(cluster)
    try:
        return await body(door)
    finally:
        await door.drain()


# ----------------------------------------------------------------------
# setup, checks, teardown
# ----------------------------------------------------------------------
def _warm_tapes(cluster, spec, images) -> None:
    """One batch of every size up to ``max_batch`` on every replica, so
    no timed request pays for recording a compiled buffer tape."""
    max_batch = FrontDoor.__init__.__kwdefaults__["max_batch"]
    request_id = itertools.count(10**9)
    for size in range(1, max_batch + 1):
        futures = [
            cluster.submit_batch(
                spec,
                images[:size],
                [next(request_id) for _ in range(size)],
            )
            for _ in range(cluster.replica_count())
        ]
        for future in futures:
            future.result(timeout=120)


def _setup(root: str, seed: int):
    """Workbench, data, train-or-load, spawn, warm: up to the first
    timed request.  Returns ``(bench, cluster, seconds)``."""
    start = perf_counter()
    bench = Workbench(serving_config(root, seed))
    images = bench.data.val.images
    cluster = ServeCluster(
        bench, workers=REPLICAS, share_dir=os.path.join(root, "share")
    )
    try:
        cluster.start()
        spec = ModelSpec.parse(SPEC)
        cluster.warm(spec)
        _warm_tapes(cluster, spec, images)
    except BaseException:
        cluster.stop()
        raise
    return bench, cluster, perf_counter() - start


def _window(cluster) -> int:
    max_batch = FrontDoor.__init__.__kwdefaults__["max_batch"]
    return 2 * cluster.replica_count() * max_batch


def _check(cluster, spec, outcomes: List[Outcome], recorder):
    """Request ids whose reply was missing or wrong, and why.

    Every reply must carry its request id, be undegraded and have its
    label at the argmax of its logits.  Each sampled batch is run again
    through ``forward_with_request_noise`` in this process, on the
    published model with the cluster's seed and the same request ids,
    and must match the replica's logits bit for bit — as must the rows
    FrontDoor handed back for the sampled requests.
    """
    failed = {}
    by_id = {}
    for outcome in outcomes:
        by_id[outcome.request_id] = outcome
        pred = outcome.prediction
        if outcome.error is not None:
            failed[outcome.request_id] = outcome.error
        elif (
            pred.request_id != outcome.request_id
            or pred.degraded
            or pred.label != int(np.argmax(pred.logits))
        ):
            failed[outcome.request_id] = "malformed reply"
    model, _ = cluster.registry.get(spec)
    for ids, images, future in recorder.sampled:
        served = future.result(timeout=120)
        reference = forward_with_request_noise(
            model, images, list(ids), cluster.seed
        )
        same = np.array_equal(served, reference)
        for row, rid in enumerate(ids):
            outcome = by_id.get(rid)
            if outcome is None or outcome.error is not None:
                continue
            if not same:
                failed[rid] = "replica logits differ from in-process"
            elif not np.array_equal(outcome.prediction.logits, served[row]):
                failed[rid] = "reply row differs from replica logits"
    return failed


def _problems(failed: dict) -> List[str]:
    return [f"request {rid}: {why}" for rid, why in sorted(failed.items())]


def _latency_ms(outcomes: List[Outcome], q: float) -> float:
    return 1e3 * percentile(
        [o.done - o.due for o in outcomes if o.error is None], q
    )


def _tail_ms(outcomes: List[Outcome], q: float) -> float:
    """The ``q`` percentile of the calmest of ``WINDOWS`` equal stretches
    of the phase.  Stalls of the recording host last seconds and only
    ever add latency, so the calmest stretch is the program's own tail;
    a stalled stretch shows in the plain p99 the report also prints."""
    ordered = sorted(outcomes, key=lambda o: o.due)
    size = max(1, len(ordered) // WINDOWS)
    return min(
        _latency_ms(ordered[i : i + size], q)
        for i in range(0, size * WINDOWS, size)
    )


def _lag_ms(outcomes: List[Outcome]) -> List[float]:
    return [1e3 * (o.sent - o.due) for o in outcomes]


def _capacity_rps(outcomes: List[Outcome]) -> float:
    """Completion rate over the whole blocks of ``BLOCK`` replies, which
    leaves out the ramp-up and the drain of the last partial block."""
    done = sorted(o.done for o in outcomes if o.error is None)
    blocks = (len(done) - 1) // BLOCK
    return BLOCK * blocks / (done[BLOCK * blocks] - done[0])


# ----------------------------------------------------------------------
# the untraced run
# ----------------------------------------------------------------------
def run(seed: int, seconds: float) -> dict:
    cseed = config_seed(seed)
    rng = np.random.default_rng(seed)
    setups = []
    with contextlib.ExitStack() as stack:
        for rep in range(SETUP_REPS):
            root = stack.enter_context(scratch_dir())
            bench, cluster, setup_s = _setup(root, cseed)
            setups.append(setup_s)
            if rep < SETUP_REPS - 1:
                cluster.stop()
        stack.callback(cluster.stop)
        spec = cluster.resolve(ModelSpec.parse(SPEC))
        images = bench.data.val.images
        recorder = RecordingCluster(cluster)
        ids = itertools.count()
        light_s, busy_s, capacity_s = (share * seconds for share in PHASE_SHARES)
        window = _window(cluster)

        async def phases(door):
            light = await _open_loop(
                door, spec, images, LIGHT_RPS, light_s, rng, ids
            )
            busy = await _open_loop(
                door, spec, images, BUSY_RPS, busy_s, rng, ids
            )
            capacity, _ = await _closed_loop(
                door, spec, images, window, rng, ids, seconds=capacity_s
            )
            return light, busy, capacity

        light, busy, capacity = asyncio.run(_with_door(recorder, phases))
        outcomes = light + busy + capacity
        failed = _check(cluster, spec, outcomes, recorder)
    reap_children()
    lag_p99 = percentile(_lag_ms(light + busy), 99)
    invalid = []
    if lag_p99 > LAG_LIMIT_MS:
        invalid.append(
            f"load generator lag p99 {lag_p99:.2f} ms exceeds "
            f"{LAG_LIMIT_MS} ms: the run is invalid"
        )
    details = {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "failed_ratio": len(failed) / len(outcomes),
        "light.latency_p50_ms": _latency_ms(light, 50),
        "light.latency_p99_ms": _latency_ms(light, 99),
        "busy.latency_p50_ms": _latency_ms(busy, 50),
        "busy.latency_p99_ms": _latency_ms(busy, 99),
        "capacity_rps": _capacity_rps(capacity),
    }
    return {
        "attempted": len(outcomes),
        "failed": len(failed),
        "problems": _problems(failed),
        "config_seed": cseed,
        "invalid": invalid,
        "details": details,
        "samples": {
            "setups": len(setups),
            "light requests": len(light),
            "busy requests": len(busy),
            "capacity requests": len(capacity),
            "loadgen lag p99 ms": lag_p99,
        },
        "metrics": {
            "setup_s": details["setup_s"],
            "peak_rss_mb": details["peak_rss_mb"],
            "latency_p50_ms": details["light.latency_p50_ms"],
            "latency_p95_ms": _tail_ms(busy, 95),
            "throughput_per_s": details["capacity_rps"],
        },
    }


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def trace(seed: int, seconds: float) -> dict:
    """Setup and the three phases traced, then a capacity unit of the
    same request count untraced: the two capacity walls give the
    tracing overhead.

    Replica compute is read from ``serve.worker_batch_ms`` with one
    ``flush_worker_stats`` after the traced phases: a replica binds that
    histogram once and ``drain()`` unregisters it, so observations after
    a replica's first flush are lost.  The window therefore also holds
    the set-up's warm-up batches (one of each size up to ``max_batch``).
    """
    cseed = config_seed(seed)
    rng = np.random.default_rng(seed)
    ids = itertools.count()
    light_s, busy_s, capacity_s = (share * seconds for share in PHASE_SHARES)
    with scratch_dir() as root:
        with Tracer() as setup_tracer:
            with setup_tracer.section("setup"):
                bench, cluster, _ = _setup(root, cseed)
        try:
            spec = cluster.resolve(ModelSpec.parse(SPEC))
            images = bench.data.val.images
            window = _window(cluster)
            unit = int(200 * capacity_s)

            async def capacity_unit(door):
                return await _closed_loop(
                    door, spec, images, window, rng, ids, total=unit
                )

            registry = cluster.stats().registry
            before = _cluster_counters(registry)
            with Tracer() as tracer:
                recorder = RecordingCluster(cluster, tracer)

                def open_phase(rate, length):
                    async def body(door):
                        return await _open_loop(
                            door, spec, images, rate, length, rng, ids
                        )

                    return asyncio.run(_with_door(recorder, body))

                with tracer.section("light"):
                    light = open_phase(LIGHT_RPS, light_s)
                with tracer.section("busy"):
                    busy = open_phase(BUSY_RPS, busy_s)
                with tracer.section("capacity"):
                    capacity, traced_wall = asyncio.run(
                        _with_door(recorder, capacity_unit)
                    )
            cluster.flush_worker_stats()
            after = _cluster_counters(registry)
            _, untraced_wall = asyncio.run(_with_door(cluster, capacity_unit))
            outcomes = light + busy + capacity
            failed = _check(cluster, spec, outcomes, recorder)
        finally:
            cluster.stop()
    reap_children()
    phase_wall = sum(end - start for _, start, end in tracer.sections)
    open_ids = {o.request_id for o in light + busy}
    layers = setup_layers(setup_tracer)
    layers.update(
        _serving_layers(
            tracer, recorder, light + busy, open_ids, before, after,
            phase_wall, cluster.workers,
        )
    )
    layers["trace.overhead_ratio"] = traced_wall / untraced_wall
    return {
        "attempted": len(outcomes),
        "failed": len(failed),
        "problems": _problems(failed),
        "config_seed": cseed,
        "invalid": [],
        "layers": layers,
        "tables": setup_tracer.layer_tables() + tracer.layer_tables(),
        "breakdown": _latency_breakdown(
            {"light": light, "busy": busy}, recorder, before, after
        ),
    }


def _cluster_counters(registry) -> dict:
    bounds, counts = histogram_counts(registry, "serve.worker_batch_ms")
    return {
        "shed": metric_totals(registry, "serve.requests_shed")[0],
        "deadline_missed": metric_totals(registry, "serve.deadline_missed")[0],
        "compute_bounds": bounds,
        "compute_counts": counts,
        "compute_ms": metric_totals(registry, "serve.worker_batch_ms")[1],
        "replica_batches": {
            dict(labels).get("replica"): metric.value
            for labels, metric in registry.children(
                "serve.replica_batches"
            ).items()
        },
    }


def _compute_ms(before: dict, after: dict) -> Tuple[float, float]:
    """Replica compute per batch over the window: (p50, mean) in ms.

    The p50 is interpolated inside the ``serve.worker_batch_ms`` buckets,
    which is as fine as the replicas report it.
    """
    counts = list(after["compute_counts"])
    if before["compute_counts"]:
        counts = [a - b for a, b in zip(counts, before["compute_counts"])]
    batches = sum(counts)
    total = after["compute_ms"] - before["compute_ms"]
    return (
        bucket_percentile(after["compute_bounds"], counts, 50),
        total / batches if batches else 0.0,
    )


def _serving_layers(tracer, recorder, open_outcomes, open_ids, before,
                    after, phase_wall, replicas) -> dict:
    """Front-door metrics over the open-loop phases (the wait that
    light-rate latency pays); cluster metrics over all traced phases
    (the only window the replicas' compute histogram allows)."""
    dispatched = {
        rid: start for ids, start, _ in recorder.batches for rid in ids
    }
    waits = [
        1e3 * (dispatched[rid] - submitted)
        for rid, submitted in tracer.calls["submit"]
        if rid in dispatched and rid in open_ids
    ]
    sizes = [
        len(ids) for ids, _, _ in recorder.batches if ids[0] in open_ids
    ]
    roundtrips = [
        1e3 * (end - start)
        for _, start, end in recorder.batches
        if end is not None
    ]
    compute_p50, _ = _compute_ms(before, after)
    roundtrip_p50 = percentile(roundtrips, 50)
    per_replica = [
        value - before["replica_batches"].get(rep, 0)
        for rep, value in after["replica_batches"].items()
    ]
    return {
        "loadgen.lag_p99_ms": percentile(_lag_ms(open_outcomes), 99),
        "frontdoor.wait_ms_p50": percentile(waits, 50),
        "frontdoor.wait_ms_p99": percentile(waits, 99),
        "frontdoor.batch_size_mean": sum(sizes) / max(len(sizes), 1),
        "frontdoor.shed": after["shed"] - before["shed"],
        "frontdoor.deadline_missed": (
            after["deadline_missed"] - before["deadline_missed"]
        ),
        "cluster.roundtrip_ms_p50": roundtrip_p50,
        "cluster.roundtrip_ms_p99": percentile(roundtrips, 99),
        "cluster.replica_compute_ms_p50": compute_p50,
        "cluster.transfer_ms_p50": roundtrip_p50 - compute_p50,
        "cluster.replica_busy_share": (
            (after["compute_ms"] - before["compute_ms"])
            / 1e3
            / (replicas * phase_wall)
        ),
        "cluster.replica_skew": (
            max(per_replica) / max(min(per_replica), 1) if per_replica else 0.0
        ),
    }


def _latency_breakdown(phases, recorder, before, after) -> List[dict]:
    """Mean request latency per open-loop phase, split into stages that
    sum to it: generator lag, front-door wait, replica compute, transfer
    (the rest of the cluster round trip) and the hand-back to the
    client.  Compute is the replicas' mean per batch over all phases."""
    batch_of = {rid: entry for entry in recorder.batches for rid in entry[0]}
    _, compute_mean = _compute_ms(before, after)
    compute_mean /= 1e3
    rows = []
    for name, outcomes in phases.items():
        done = [
            (o, batch_of[o.request_id])
            for o in outcomes
            if o.error is None
            and o.request_id in batch_of
            and batch_of[o.request_id][2] is not None
        ]
        if not done:
            continue
        n = len(done)
        lag = sum(o.sent - o.due for o, _ in done) / n
        wait = sum(batch[1] - o.sent for o, batch in done) / n
        trip = sum(batch[2] - batch[1] for _, batch in done) / n
        latency = sum(o.done - o.due for o, _ in done) / n
        compute = min(compute_mean, trip)
        rows.append(
            {
                "phase": name,
                "requests": n,
                "latency_ms": 1e3 * latency,
                "stages_ms": {
                    "loadgen.lag": 1e3 * lag,
                    "frontdoor.wait": 1e3 * wait,
                    "cluster.replica_compute": 1e3 * compute,
                    "cluster.transfer": 1e3 * (trip - compute),
                    "reply.handback": 1e3 * (latency - lag - wait - trip),
                },
            }
        )
    return rows
