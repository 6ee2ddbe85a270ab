"""Tests for the in-process executor behind the front door.

The load-bearing property: a prediction is a pure function of
``(spec, seed, request_id, image)`` — batching must never change what a
request gets back.  Holding a warm entry's lock stalls the executor's
one thread, which is how the batching tests make requests coalesce.
"""

import time

import numpy as np
import pytest

from repro.errors import ServiceOverloadError
from repro.obs.journal import end_run, read_events, start_run
from repro.registry import ModelRegistry
from repro.serve import (
    ClusterService,
    InProcessExecutor,
    ModelSpec,
    ServeCluster,
)

from .conftest import AMS_SPEC, QUANT_SPEC


@pytest.fixture(scope="module")
def executor(serve_bench):
    """An executor with the test specs already warm."""
    with InProcessExecutor(serve_bench) as executor:
        executor.warm(AMS_SPEC, QUANT_SPEC)
        yield executor


@pytest.fixture(scope="module")
def service(executor):
    with ClusterService(executor, max_batch=8, max_wait_s=0.005) as service:
        yield service


def _direct(executor, spec, images, request_ids):
    """One batch straight to the executor: its logits array."""
    return executor.submit_batch(spec, images, request_ids).result(60.0)


class TestDeterminism:
    def test_labels_invariant_across_worker_counts(
        self, serve_bench, service, val_images
    ):
        """The same requests give the same labels in process and over
        two replica processes, whatever batches the door forms.

        Uses the noisy AMS spec so the per-request noise streams are
        exercised: a whole-batch draw would make this flake.
        """
        images = val_images[:24]
        local = service.classify(AMS_SPEC, images)
        with ServeCluster(serve_bench, workers=2) as cluster:
            cluster.warm(AMS_SPEC)
            with ClusterService(cluster, max_batch=8) as remote:
                spread = remote.classify(AMS_SPEC, images)
        assert [p.label for p in local] == [p.label for p in spread]

    def test_repeat_run_is_bitwise_identical(self, executor, val_images):
        """Resubmitting the same request ids reproduces exact logits."""
        images = val_images[:6]
        first = _direct(executor, AMS_SPEC, images, range(6))
        second = _direct(executor, AMS_SPEC, images, range(6))
        np.testing.assert_array_equal(first, second)

    def test_request_id_keys_the_noise(self, executor, val_images):
        """Different request ids draw different noise on the same image."""
        image = val_images[:1]
        a = _direct(executor, AMS_SPEC, image, [0])
        b = _direct(executor, AMS_SPEC, image, [1])
        assert not np.array_equal(a, b)

    def test_noiseless_spec_ignores_request_id(self, executor, val_images):
        image = val_images[:1]
        a = _direct(executor, QUANT_SPEC, image, [0])
        b = _direct(executor, QUANT_SPEC, image, [7])
        np.testing.assert_array_equal(a, b)

    def test_batched_matches_direct(self, executor, service, val_images):
        """A coalesced batch gives each row its solo-forward answer."""
        images = val_images[:8]
        solo = [
            int(np.argmax(_direct(executor, AMS_SPEC, [img], [i])[0]))
            for i, img in enumerate(images)
        ]
        batched = service.classify(AMS_SPEC, images)
        assert [p.label for p in batched] == solo


class TestBatching:
    def test_coalesces_up_to_max_batch(self, executor, val_images):
        lock = executor.registry.entry(QUANT_SPEC).lock
        with ClusterService(executor, max_batch=4, max_wait_s=5.0) as service:
            with lock:  # the first batch stalls; the rest pile up
                futures = [
                    service.submit(QUANT_SPEC, image, i)
                    for i, image in enumerate(val_images[:9])
                ]
                time.sleep(0.2)
            predictions = [f.result(timeout=60.0) for f in futures]
        sizes = [p.batch_size for p in predictions]
        assert max(sizes) > 1, "no coalescing behind a busy executor"
        assert max(sizes) <= 4

    def test_mixed_specs_never_share_a_batch(
        self, executor, service, val_images
    ):
        futures = []
        for i, image in enumerate(val_images[:12]):
            spec = AMS_SPEC if i % 2 else QUANT_SPEC
            futures.append(service.submit(spec, image, request_id=i))
        predictions = [f.result(timeout=60.0) for f in futures]
        for i, prediction in enumerate(predictions):
            assert prediction.spec == executor.resolve(
                AMS_SPEC if i % 2 else QUANT_SPEC
            )


class TestReplica:
    """The executor is one replica: busy exactly while a batch runs."""

    def test_idle_only_when_nothing_in_flight(self, executor, val_images):
        token = executor.resolve(QUANT_SPEC).token()
        assert executor.has_idle_replica(token)
        with executor.registry.entry(QUANT_SPEC).lock:
            future = executor.submit_batch(QUANT_SPEC, val_images[:2], [0, 1])
            assert not executor.has_idle_replica(token)
        future.result(timeout=60.0)
        assert executor.has_idle_replica(token)
        assert executor.replica_count() == 1

    def test_failed_batch_reaches_the_caller_and_frees_the_replica(
        self, executor, val_images
    ):
        bad = executor.submit_batch(QUANT_SPEC, val_images[:2, :1], [0, 1])
        assert bad.exception(timeout=60.0) is not None
        token = executor.resolve(QUANT_SPEC).token()
        assert executor.has_idle_replica(token)
        good = _direct(executor, QUANT_SPEC, val_images[:2], [0, 1])
        assert good.shape[0] == 2


class TestModelCache:
    """The executor's models live in a registry warm tier (LRU)."""

    def test_lru_eviction(self, serve_bench):
        registry = ModelRegistry(serve_bench, warm_max_entries=2)
        specs = [ModelSpec("fp32"), QUANT_SPEC, AMS_SPEC]
        with InProcessExecutor(serve_bench, registry=registry) as executor:
            executor.warm(*specs)
        cached = registry.warm_specs()
        assert len(cached) == 2
        resolved = [s.resolved(serve_bench.config) for s in specs]
        # fp32 was the least recently used; the newer two survive.
        assert cached == resolved[1:]

    def test_reuse_moves_to_end(self, serve_bench):
        registry = ModelRegistry(serve_bench, warm_max_entries=2)
        with InProcessExecutor(serve_bench, registry=registry) as executor:
            executor.warm(ModelSpec("fp32"), QUANT_SPEC)
            executor.warm(ModelSpec("fp32"))  # touch: now most recent
            executor.warm(AMS_SPEC)  # evicts QUANT, not fp32
        cached = registry.warm_specs()
        assert ModelSpec("fp32") in cached
        assert QUANT_SPEC.resolved(serve_bench.config) not in cached


class TestWarmOnMiss:
    def test_cold_spec_sheds_until_warmed(self, serve_bench, val_images):
        """A cold spec is shed with a retry hint while the executor
        thread warms it; the retry is served."""
        with InProcessExecutor(serve_bench) as executor:
            with ClusterService(executor) as service:
                first = service.submit(QUANT_SPEC, val_images[0], 0)
                with pytest.raises(ServiceOverloadError, match="not warm"):
                    first.result(timeout=60.0)
                token = executor.resolve(QUANT_SPEC).token()
                deadline = time.monotonic() + 60.0
                while not executor.is_warm(token):
                    assert time.monotonic() < deadline, "never warmed"
                    time.sleep(0.01)
                retry = service.submit(QUANT_SPEC, val_images[0], 0)
                assert retry.result(timeout=60.0).request_id == 0
            shed = executor.stats().registry.counter("serve.requests_shed")
            assert shed.value == 1


    def test_failed_warm_up_is_journaled(
        self, serve_bench, tmp_path, monkeypatch
    ):
        def broken(spec):
            raise RuntimeError("artifact unreadable")

        start_run(results_dir=str(tmp_path), run_id="warmfail")
        try:
            with InProcessExecutor(serve_bench) as executor:
                monkeypatch.setattr(executor.registry, "entry", broken)
                future = executor.warm_async(QUANT_SPEC)
                with pytest.raises(RuntimeError, match="unreadable"):
                    future.result(timeout=60.0)
        finally:
            end_run()
        (event,) = [
            e
            for e in read_events("warmfail", str(tmp_path))
            if e["event"] == "registry.warmup"
        ]
        assert event["status"] == "failed"
        assert "unreadable" in event["error"]


class TestStats:
    def test_counts_and_snapshot(self, serve_bench, val_images):
        with InProcessExecutor(serve_bench) as executor:
            executor.warm(QUANT_SPEC)
            with ClusterService(executor, max_batch=4) as service:
                service.classify(QUANT_SPEC, val_images[:10])
        snap = executor.stats().snapshot()
        assert snap["requests"] == 10
        spec_stats = snap["specs"][QUANT_SPEC.token()]
        assert spec_stats["requests"] == 10
        assert spec_stats["batches"] >= 3  # max_batch=4 forces >= ceil(10/4)
        assert sum(
            size * count for size, count in spec_stats["batch_hist"].items()
        ) == 10
        assert spec_stats["p95_ms"] >= spec_stats["p50_ms"] >= 0.0
        # The executor is replica 0, so the report has the cluster's shape.
        assert snap["replicas"]["0"]["requests"] == 10
        report = executor.stats().report()
        assert QUANT_SPEC.token() in report
        assert "10 requests" in report
        assert "serve replicas" in report
