"""The asyncio front door against a fake executor (no processes).

The fake resolves batches on a worker thread with a controllable
delay, so shedding, degradation, deadlines and coalescing are tested
deterministically and in milliseconds.
"""

import asyncio
import threading
from concurrent.futures import Future
from time import monotonic

import numpy as np
import pytest

from repro.errors import ConfigError, ServiceOverloadError, ServiceTimeoutError
from repro.serve import ModelSpec
from repro.serve.frontdoor import FrontDoor
from repro.serve.stats import ServeStats

SPEC = ModelSpec("quant", bw=8, bx=8)
CHEAP = ModelSpec("fp32")


class FakeCluster:
    """Duck-typed stand-in for an executor: threads, not processes.

    Logits encode ``request_id`` so tests can check request/response
    pairing through any amount of batching and routing.
    """

    def __init__(self, delay_s=0.0, replicas=2, fail=False):
        self.delay_s = delay_s
        self.replicas = replicas
        self.fail = fail
        self.batches = []
        self.inflight = 0
        self._lock = threading.Lock()
        self._stats = ServeStats()
        self._release = threading.Event()
        self._release.set()

    class _Config:
        seed = 0

    config = _Config()

    def resolve(self, spec):
        return spec

    def replica_count(self):
        return self.replicas

    def is_warm(self, token):
        return True

    def has_idle_replica(self, token):
        with self._lock:
            return self.inflight < self.replicas

    def stats(self):
        return self._stats

    def hold(self):
        self._release.clear()

    def release(self):
        self._release.set()

    def submit_batch(self, spec, images, request_ids):
        self.batches.append((spec.token(), list(request_ids)))
        future = Future()
        with self._lock:
            self.inflight += 1

        def run():
            self._release.wait(timeout=10.0)
            with self._lock:
                self.inflight -= 1
            if self.fail:
                future.set_exception(RuntimeError("replica exploded"))
                return
            logits = np.zeros((len(request_ids), 4), dtype=np.float32)
            for row, rid in enumerate(request_ids):
                logits[row, rid % 4] = 1.0
                logits[row, 0] += rid  # encode identity in logit 0
            future.set_result(logits)

        threading.Thread(target=run, daemon=True).start()
        return future


def run_async(coroutine):
    return asyncio.run(coroutine)


def _image(i=0):
    return np.full((2, 2, 1), float(i), dtype=np.float32)


async def _until(predicate, timeout=5.0):
    """Yield to the loop until ``predicate()`` holds."""
    deadline = monotonic() + timeout
    while not predicate():
        assert monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.001)


class TestValidation:
    def test_bounds_checked(self):
        with pytest.raises(ConfigError, match="queue_size"):
            FrontDoor(FakeCluster(), queue_size=0)
        with pytest.raises(ConfigError, match="max_batch"):
            FrontDoor(FakeCluster(), max_batch=0)
        with pytest.raises(ConfigError, match="timeout_s"):
            FrontDoor(FakeCluster(), timeout_s=0)


class TestRoutingAndBatching:
    def test_predictions_pair_with_requests(self):
        async def main():
            cluster = FakeCluster()
            door = FrontDoor(cluster, max_wait_s=0.005)
            futures = [await door.submit(SPEC, _image(i), i) for i in range(6)]
            preds = await asyncio.gather(*futures)
            await door.drain()
            return preds

        preds = run_async(main())
        for i, pred in enumerate(preds):
            assert pred.request_id == i
            assert pred.logits[0] >= i  # identity survived batching
            assert not pred.degraded

    def test_requests_coalesce_into_batches(self):
        async def main():
            cluster = FakeCluster()
            cluster.hold()  # force all submissions into one window
            door = FrontDoor(cluster, max_batch=4, max_wait_s=0.05)
            futures = [await door.submit(SPEC, _image(i), i) for i in range(4)]
            cluster.release()
            await asyncio.gather(*futures)
            await door.drain()
            return cluster.batches

        batches = run_async(main())
        assert [len(ids) for _token, ids in batches] == [4]

    def test_stats_record_batches(self):
        async def main():
            cluster = FakeCluster()
            door = FrontDoor(cluster)
            await (await door.submit(SPEC, _image(), 0))
            await door.drain()
            return cluster.stats().snapshot()

        snap = run_async(main())
        assert snap["specs"][SPEC.token()]["requests"] == 1


class TestWorkConserving:
    """A partial batch waits only while every eligible replica is busy.

    ``max_wait_s=5.0`` throughout: any test that finishes in well under
    a second proves the window was not waited out.
    """

    def test_lone_request_with_idle_replica_goes_at_once(self):
        async def main():
            cluster = FakeCluster(replicas=1)
            door = FrontDoor(cluster, max_wait_s=5.0)
            start = monotonic()
            pred = await (await door.submit(SPEC, _image(), 0))
            elapsed = monotonic() - start
            await door.drain()
            return pred, elapsed

        pred, elapsed = run_async(main())
        assert elapsed < 1.0
        assert pred.batch_size == 1

    def test_requests_coalesce_while_every_replica_is_busy(self):
        async def main():
            cluster = FakeCluster(replicas=2)
            cluster.hold()
            door = FrontDoor(cluster, max_wait_s=5.0)
            futures = []
            # One request per replica: each finds an idle one.
            for i in range(2):
                futures.append(await door.submit(SPEC, _image(i), i))
                await _until(lambda: len(cluster.batches) == i + 1)
            for i in range(2, 5):  # stragglers, one by one
                futures.append(await door.submit(SPEC, _image(i), i))
                await asyncio.sleep(0.01)
            cluster.release()
            await asyncio.gather(*futures)
            await door.drain()
            return [ids for _token, ids in cluster.batches]

        assert run_async(main()) == [[0], [1], [2, 3, 4]]

    def test_held_partial_batch_goes_when_its_replica_frees(self):
        async def main():
            cluster = FakeCluster(replicas=1)
            cluster.hold()
            door = FrontDoor(cluster, max_wait_s=5.0)
            first = await door.submit(SPEC, _image(0), 0)
            await _until(lambda: len(cluster.batches) == 1)
            second = await door.submit(SPEC, _image(1), 1)
            await asyncio.sleep(0.05)
            held = len(cluster.batches)
            released = monotonic()
            cluster.release()
            await asyncio.gather(first, second)
            elapsed = monotonic() - released
            await door.drain()
            return held, elapsed, [ids for _token, ids in cluster.batches]

        held, elapsed, batches = run_async(main())
        assert held == 1  # the partial batch waited behind the busy replica
        assert elapsed < 1.0  # ...and left when it freed, not after 5 s
        assert batches == [[0], [1]]

    def test_full_batches_go_at_once_up_to_the_slot_bound(self):
        async def main():
            cluster = FakeCluster(replicas=1)
            cluster.hold()
            door = FrontDoor(cluster, max_batch=2, max_wait_s=5.0)
            futures = [await door.submit(SPEC, _image(0), 0)]
            await _until(lambda: len(cluster.batches) == 1)
            for i in range(1, 7):
                futures.append(await door.submit(SPEC, _image(i), i))
                await asyncio.sleep(0.01)
            in_flight = [ids for _token, ids in cluster.batches]
            cluster.release()
            await asyncio.gather(*futures)
            await door.drain()
            return in_flight, [ids for _token, ids in cluster.batches]

        in_flight, batches = run_async(main())
        # [1, 2] is full, so it went although the replica was busy; the
        # full [3, 4] then waited for one of the 2 x 1 dispatch slots.
        assert in_flight == [[0], [1, 2]]
        assert batches == [[0], [1, 2], [3, 4], [5, 6]]

    def test_drain_flushes_a_held_partial_batch_at_once(self):
        async def main():
            cluster = FakeCluster(replicas=1)
            cluster.hold()
            door = FrontDoor(cluster, max_wait_s=5.0)
            first = await door.submit(SPEC, _image(0), 0)
            await _until(lambda: len(cluster.batches) == 1)
            second = await door.submit(SPEC, _image(1), 1)
            await asyncio.sleep(0.01)
            start = monotonic()
            drain = asyncio.get_running_loop().create_task(door.drain())
            await _until(lambda: len(cluster.batches) == 2)
            elapsed = monotonic() - start
            cluster.release()
            await asyncio.gather(first, second, drain)
            return elapsed

        assert run_async(main()) < 1.0


class TestShedding:
    def test_full_queue_sheds_with_counter(self):
        async def main():
            cluster = FakeCluster()
            cluster.hold()  # replicas frozen: queue can only grow
            door = FrontDoor(cluster, queue_size=2, max_batch=2,
                             max_wait_s=5.0)
            shed = 0
            futures = []
            for i in range(12):
                try:
                    futures.append(await door.submit(SPEC, _image(i), i))
                except ServiceOverloadError:
                    shed += 1
            cluster.release()
            await asyncio.gather(*futures, return_exceptions=True)
            await door.drain()
            registry = cluster.stats().registry
            return shed, registry.counter("serve.requests_shed").value

        shed, counted = run_async(main())
        assert shed > 0
        assert counted == shed

    def test_fallback_degrades_instead_of_shedding(self):
        async def main():
            cluster = FakeCluster()
            cluster.hold()
            door = FrontDoor(cluster, queue_size=1, max_batch=1,
                             max_wait_s=5.0, fallback_spec=CHEAP)
            first = await door.submit(SPEC, _image(0), 0)
            cluster.release()  # fallback path executes immediately
            overflow = await door.submit(SPEC, _image(1), 1)
            degraded = await overflow
            await first
            await door.drain()
            fallbacks = cluster.stats().registry.counter(
                "serve.requests_fallback"
            ).value
            return degraded, fallbacks

        degraded, fallbacks = run_async(main())
        assert degraded.degraded
        assert degraded.spec == CHEAP
        assert fallbacks == 1


class TestDeadlines:
    def test_expired_in_flight_resolves_to_timeout(self):
        async def main():
            cluster = FakeCluster()
            cluster.hold()  # batch dispatched, then held past deadline
            door = FrontDoor(cluster, timeout_s=0.01, max_batch=8,
                             max_wait_s=0.001)
            future = await door.submit(SPEC, _image(), 0)
            await asyncio.sleep(0.05)
            cluster.release()
            with pytest.raises(ServiceTimeoutError, match="deadline"):
                await future
            await door.drain()
            return cluster.stats().registry.counter(
                "serve.deadline_missed"
            ).value

        assert run_async(main()) == 1

    def test_expired_in_queue_never_reaches_a_replica(self):
        async def main():
            # One replica -> 2 dispatch slots.  With max_batch=1 and
            # the cluster held, requests 0-1 occupy the slots, 2 sits
            # collected behind the slot semaphore, and 3 expires in
            # the queue proper — it must never be dispatched, and its
            # lane must keep serving afterwards.
            cluster = FakeCluster(replicas=1)
            cluster.hold()
            door = FrontDoor(cluster, timeout_s=0.05, max_batch=1,
                             max_wait_s=0.001)
            futures = [await door.submit(SPEC, _image(i), i) for i in range(4)]
            await asyncio.sleep(0.2)  # 3 expires while queued
            cluster.release()
            results = await asyncio.gather(*futures, return_exceptions=True)
            # The lane survives an all-expired collection round:
            late = await (await door.submit(SPEC, _image(9), 9))
            await door.drain()
            return results, cluster.batches, late

        results, batches, late = run_async(main())
        assert isinstance(results[3], ServiceTimeoutError)
        dispatched = [rid for _token, ids in batches for rid in ids]
        assert 3 not in dispatched
        assert late.request_id == 9


class TestFailuresAndDrain:
    def test_replica_failure_reaches_every_request(self):
        async def main():
            cluster = FakeCluster(fail=True)
            door = FrontDoor(cluster, max_wait_s=0.005)
            futures = [await door.submit(SPEC, _image(i), i) for i in range(3)]
            results = await asyncio.gather(*futures, return_exceptions=True)
            await door.drain()
            return results

        results = run_async(main())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_drain_rejects_new_requests(self):
        async def main():
            door = FrontDoor(FakeCluster())
            await door.drain()
            with pytest.raises(ServiceOverloadError, match="draining"):
                await door.submit(SPEC, _image(), 0)

        run_async(main())

    def test_drain_flushes_queued_requests(self):
        async def main():
            cluster = FakeCluster()
            door = FrontDoor(cluster, max_wait_s=0.2, max_batch=8)
            futures = [await door.submit(SPEC, _image(i), i) for i in range(3)]
            drain = asyncio.get_running_loop().create_task(door.drain())
            preds = await asyncio.gather(*futures)
            await drain
            return preds

        preds = run_async(main())
        assert [p.request_id for p in preds] == [0, 1, 2]
