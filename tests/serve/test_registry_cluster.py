"""Cluster + registry integration: warm-on-miss, pins, bit identity.

The acceptance behaviour of the registry redesign at the serving
layer: an unseen variant never blocks the front door (it sheds or
degrades while a journaled background warm-up runs), registry eviction
cannot yank weights out from under a replica holding the published
mmap, and registry-resolved logits are bit-identical to the legacy
train-or-load path at any replica count.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.compile
from repro.errors import ServiceOverloadError
from repro.obs.journal import end_run, read_events, start_run
from repro.obs.metrics import MetricRegistry
from repro.serve.cluster import ClusterService, ServeCluster
from repro.serve.executor import forward_with_request_noise
from repro.serve.spec import ModelSpec

from .conftest import AMS_SPEC, QUANT_SPEC

#: Non-contiguous ids, same convention as the determinism suite.
REQUEST_IDS = [3, 11, 4, 17]

CHUNK = 2


@pytest.fixture(autouse=True)
def _interpreted():
    """Every forward here, parent or replica, runs interpreted."""
    with repro.compile.disabled():
        yield


def _token(bench, spec):
    return spec.resolved(bench.config).token()


class TestWarmOnMiss:
    def test_cold_request_sheds_then_retry_succeeds(
        self, serve_bench, val_images, tmp_path
    ):
        """The acceptance scenario: shed now, warm behind, retry wins."""
        start_run(results_dir=str(tmp_path), run_id="warmup")
        try:
            with ServeCluster(serve_bench, workers=1) as cluster:
                with ClusterService(cluster) as service:
                    token = _token(serve_bench, AMS_SPEC)
                    future = service.submit(AMS_SPEC, val_images[0], 3)
                    with pytest.raises(
                        ServiceOverloadError, match="not warm"
                    ):
                        future.result(timeout=120)
                    # Join the background warm-up the shed kicked off
                    # (deduplicated: this is the same in-flight future).
                    assert (
                        cluster.warm_async(AMS_SPEC).result(timeout=120)
                        == token
                    )
                    assert cluster.is_warm(token)
                    retry = service.submit(AMS_SPEC, val_images[0], 3)
                    prediction = retry.result(timeout=120)
                    assert prediction.request_id == 3
                    assert not prediction.degraded
                counters = cluster.stats().registry.snapshot()["counters"]
                assert counters["registry.warmup_triggered"] >= 1
                assert counters["serve.requests_shed"] >= 1
        finally:
            end_run()
        events = read_events("warmup", str(tmp_path))
        statuses = [
            event["status"]
            for event in events
            if event["event"] == "registry.warmup"
            and event["spec"] == token
        ]
        assert "started" in statuses
        assert "done" in statuses

    def test_cold_request_degrades_when_fallback_is_warm(
        self, serve_bench, val_images
    ):
        with ServeCluster(serve_bench, workers=1) as cluster:
            cluster.warm(QUANT_SPEC)
            with ClusterService(
                cluster, fallback_spec=QUANT_SPEC
            ) as service:
                prediction = service.submit(
                    AMS_SPEC, val_images[0], 7
                ).result(timeout=120)
                assert prediction.degraded
                assert prediction.spec.token() == _token(
                    serve_bench, QUANT_SPEC
                )
            counters = cluster.stats().registry.snapshot()["counters"]
            assert counters["registry.warmup_triggered"] >= 1
            assert counters["serve.requests_fallback"] >= 1

    def test_warmups_deduplicated_per_token(self, serve_bench):
        """A request racing its own warm-up joins it, never trains twice."""
        with ServeCluster(serve_bench, workers=1) as cluster:
            first = cluster.warm_async(AMS_SPEC)
            second = cluster.warm_async(AMS_SPEC)
            assert first is second
            token = _token(serve_bench, AMS_SPEC)
            assert first.result(timeout=120) == token
            assert cluster.is_warm(token)


class TestEvictionWhilePublished:
    def test_pinned_entry_survives_eviction_until_stop(
        self, serve_bench, val_images
    ):
        """Warm-tier eviction while a replica holds the mmap."""
        images = val_images[: len(REQUEST_IDS)]
        cluster = ServeCluster(serve_bench, workers=1)
        with cluster:
            cluster.warm(QUANT_SPEC)
            token = _token(serve_bench, QUANT_SPEC)
            before = cluster.execute(QUANT_SPEC, images, REQUEST_IDS)
            assert cluster.registry.evict() == 1
            stats = cluster.registry.stats()
            assert stats["warm"] == []
            assert token in stats["evictable"]  # pinned, not dropped
            # Replicas still serve from the published mapping, and the
            # noise-free spec proves the weights did not change.
            after = cluster.execute(QUANT_SPEC, images, REQUEST_IDS)
            np.testing.assert_array_equal(before, after)
        # stop() released the publication pin: the victim is gone.
        assert cluster.registry.stats()["evictable"] == []


class TestBitIdentityWithLegacy:
    @pytest.mark.parametrize(
        "token", ["ams_eval:e4.0", "ams_eval:e4.0:mstate_dependent"]
    )
    def test_cluster_matches_legacy_at_1_and_4_replicas(
        self, token, serve_bench, val_images
    ):
        spec = ModelSpec.parse(token)
        images = val_images[: len(REQUEST_IDS)]
        reference = self._legacy_chunked(serve_bench, spec, images)
        for workers in (1, 4):
            with ServeCluster(serve_bench, workers=workers) as cluster:
                cluster.warm(spec)
                logits = np.concatenate(
                    [
                        future.result(timeout=120)
                        for future in [
                            cluster.submit_batch(
                                spec,
                                images[start : start + CHUNK],
                                REQUEST_IDS[start : start + CHUNK],
                            )
                            for start in range(0, len(images), CHUNK)
                        ]
                    ]
                )
            np.testing.assert_array_equal(
                logits,
                reference,
                err_msg=f"{token}: {workers}-replica cluster diverged "
                "from the legacy train-or-load path",
            )

    @staticmethod
    def _legacy_chunked(bench, spec, images):
        """The pre-registry path: train-or-load + the shared executor."""
        model, _meta = bench._train_or_load(spec.resolved(bench.config))
        model.eval()
        rows = []
        for start in range(0, len(images), CHUNK):
            rows.append(
                forward_with_request_noise(
                    model,
                    images[start : start + CHUNK],
                    REQUEST_IDS[start : start + CHUNK],
                    bench.config.seed,
                    registry=MetricRegistry(),
                )
            )
        return np.concatenate(rows)
