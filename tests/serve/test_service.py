"""ClusterService over the in-process executor: shed, degrade, expire.

The front door's admission behaviour against a real model.  Holding a
warm entry's lock stalls the executor's one thread, which is how these
tests fill the admission queue on purpose.
"""

import threading
import time

import numpy as np
import pytest

from repro.errors import (
    ConfigError,
    ServiceOverloadError,
    ServiceTimeoutError,
)
from repro.serve import ClusterService, InProcessExecutor

from .conftest import AMS_SPEC, QUANT_SPEC


@pytest.fixture(scope="module")
def executor(serve_bench):
    with InProcessExecutor(serve_bench) as executor:
        executor.warm(AMS_SPEC, QUANT_SPEC)
        yield executor


def _stall(executor, spec):
    """The lock that stalls ``spec``'s batches on the executor thread."""
    return executor.registry.entry(spec).lock


def _release_later(lock, delay_s=0.5):
    timer = threading.Timer(delay_s, lock.release)
    timer.start()
    return timer


def _outcomes(futures):
    return [f.exception(timeout=60.0) or f.result() for f in futures]


def _overflow_with_fallback(executor, val_images):
    """Ten AMS requests into a one-slot queue with a QUANT fallback."""
    with ClusterService(
        executor, queue_size=1, max_batch=1, fallback_spec=QUANT_SPEC
    ) as service:
        with _stall(executor, AMS_SPEC):
            futures = [
                service.submit(AMS_SPEC, val_images[0], i) for i in range(10)
            ]
            time.sleep(0.1)
        return [f.result(timeout=60.0) for f in futures]


class TestValidation:
    def test_knob_bounds(self, executor):
        for kwargs in (
            dict(queue_size=0),
            dict(max_batch=0),
            dict(timeout_s=0.0),
        ):
            with pytest.raises(ConfigError):
                ClusterService(executor, **kwargs)


class TestBackpressure:
    def test_saturation_raises_overload_without_deadlock(
        self, executor, val_images
    ):
        """10 submits into queue_size=1 must overflow, never hang.

        The executor is stalled, so admitted requests back up into the
        queue; by pigeonhole some submits find it full.  Once the
        executor runs again everything admitted still completes.
        """
        with ClusterService(
            executor, queue_size=1, max_batch=1, timeout_s=30.0
        ) as service:
            with _stall(executor, QUANT_SPEC):
                futures = [
                    service.submit(QUANT_SPEC, val_images[0], i)
                    for i in range(10)
                ]
                time.sleep(0.1)
            outcomes = _outcomes(futures)
        rejected = [o for o in outcomes if isinstance(o, ServiceOverloadError)]
        served = [o for o in outcomes if not isinstance(o, Exception)]
        assert rejected, "bounded queue never reported saturation"
        assert served, "every submit was rejected"
        assert len(rejected) + len(served) == 10
        assert all(not p.degraded for p in served)

    def test_submit_after_close_is_rejected(self, executor, val_images):
        service = ClusterService(executor, queue_size=4)
        service.close()
        with pytest.raises(ServiceOverloadError, match="closed"):
            service.submit(QUANT_SPEC, val_images[0], 0)


class TestDegradation:
    def test_fallback_serves_degraded(self, executor, val_images):
        """With fallback_spec, saturation degrades instead of shedding."""
        predictions = _overflow_with_fallback(executor, val_images)
        degraded = [p for p in predictions if p.degraded]
        assert degraded, "saturation never triggered the fallback"
        for prediction in degraded:
            assert prediction.spec == executor.resolve(QUANT_SPEC)
        assert all(
            p.spec == executor.resolve(AMS_SPEC)
            for p in predictions
            if not p.degraded
        )

    def test_degraded_counted_in_stats(self, executor, val_images):
        def degraded_count():
            specs = executor.stats().snapshot()["specs"]
            return specs.get(QUANT_SPEC.token(), {}).get("degraded", 0)

        before = degraded_count()
        predictions = _overflow_with_fallback(executor, val_images)
        assert degraded_count() - before == sum(
            p.degraded for p in predictions
        ) > 0


class TestDeadlines:
    def test_queued_request_times_out(self, executor, val_images):
        """Requests stuck behind a stalled executor miss their deadline,
        whether still queued or already dispatched."""
        missed = executor.stats().registry.counter("serve.deadline_missed")
        before = missed.value
        with ClusterService(
            executor, queue_size=8, max_batch=1, timeout_s=0.2
        ) as service:
            with _stall(executor, QUANT_SPEC):
                futures = [
                    service.submit(QUANT_SPEC, val_images[0], i)
                    for i in range(4)
                ]
                time.sleep(0.5)
            outcomes = _outcomes(futures)
        assert all(isinstance(o, ServiceTimeoutError) for o in outcomes)
        assert missed.value - before == 4

    def test_classify_wraps_timeout(self, executor, val_images):
        with ClusterService(executor, queue_size=8, timeout_s=0.2) as service:
            lock = _stall(executor, QUANT_SPEC)
            lock.acquire()
            _release_later(lock)
            with pytest.raises(ServiceTimeoutError):
                service.classify(QUANT_SPEC, [val_images[0]])

    def test_close_fails_pending_cleanly(self, executor, val_images):
        """Requests whose deadline passes while close() drains them
        resolve to ServiceTimeoutError; none is dropped or left hanging."""
        service = ClusterService(executor, queue_size=8, timeout_s=0.2)
        lock = _stall(executor, QUANT_SPEC)
        lock.acquire()
        futures = [
            service.submit(QUANT_SPEC, val_images[0], i) for i in range(4)
        ]
        _release_later(lock)
        service.close()
        for future in futures:
            assert isinstance(future.exception(timeout=0), ServiceTimeoutError)

    def test_close_serves_pending_requests(self, executor, val_images):
        """close() drains: every admitted request still gets its answer."""
        service = ClusterService(executor, queue_size=8, timeout_s=30.0)
        lock = _stall(executor, QUANT_SPEC)
        lock.acquire()
        futures = [
            service.submit(QUANT_SPEC, val_images[0], i) for i in range(4)
        ]
        _release_later(lock, delay_s=0.2)
        service.close()
        assert [f.result(timeout=0).request_id for f in futures] == [
            0, 1, 2, 3
        ]


class TestEndToEnd:
    def test_service_results_match_engine(self, executor, val_images):
        """Routing through the front door changes nothing about answers."""
        images = val_images[:8]
        direct = [
            executor.submit_batch(AMS_SPEC, [img], [i]).result(60.0)[0]
            for i, img in enumerate(images)
        ]
        with ClusterService(executor, max_batch=4) as service:
            served = service.classify(AMS_SPEC, images)
        assert [p.label for p in served] == [
            int(np.argmax(d)) for d in direct
        ]
        for prediction, logits in zip(served, direct):
            assert np.allclose(prediction.logits, logits, rtol=1e-5, atol=1e-6)
