"""The multi-process serving cluster: lifecycle, routing, operations.

One session-scoped cluster (two replicas over the shared micro
workbench) carries the read-only tests; mutation tests (rolling
restart, drain) build their own.
"""

import time

import numpy as np
import pytest

from repro.errors import ConfigError, ReplicaError
from repro.serve import InProcessExecutor, ModelSpec, ServeCluster
from repro.serve.cluster import SHARD_POLICIES
from tests.serve.conftest import AMS_SPEC, QUANT_SPEC


@pytest.fixture(scope="module")
def cluster(serve_bench):
    cluster = ServeCluster(serve_bench, workers=2).start()
    cluster.warm(AMS_SPEC, QUANT_SPEC)
    yield cluster
    cluster.stop()


class TestValidation:
    def test_workers_floor(self, serve_bench):
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            ServeCluster(serve_bench, workers=0)

    def test_shard_by_did_you_mean(self, serve_bench):
        with pytest.raises(ConfigError, match="did you mean 'model'"):
            ServeCluster(serve_bench, shard_by="modle")

    def test_warm_requires_start(self, serve_bench):
        cluster = ServeCluster(serve_bench, workers=1)
        with pytest.raises(ConfigError, match="not started"):
            cluster.warm(QUANT_SPEC)

    def test_policies_constant(self):
        assert SHARD_POLICIES == ("none", "model")


class TestExecution:
    def test_matches_in_process_engine_bit_for_bit(
        self, cluster, serve_bench, val_images
    ):
        """A replica and the in-process executor agree on a batch."""
        images = val_images[:5]
        ids = [3, 1, 4, 1, 5]
        with InProcessExecutor(serve_bench) as local:
            local.warm(AMS_SPEC)
            ref = local.submit_batch(AMS_SPEC, images, ids).result(60.0)
        logits = cluster.execute(AMS_SPEC, images, ids)
        np.testing.assert_array_equal(logits, ref)

    def test_unwarmed_spec_raises_replica_error(self, cluster, val_images):
        stranger = ModelSpec("quant", bw=4, bx=4)
        with pytest.raises(ReplicaError, match="never warmed") as info:
            cluster.execute(stranger, val_images[:1], [0])
        assert "ConfigError" in str(info.value)
        assert info.value.worker_traceback  # carries the worker's stack

    def test_published_specs_listed(self, cluster, serve_bench):
        tokens = cluster.published_specs()
        assert AMS_SPEC.resolved(serve_bench.config).token() in tokens
        assert QUANT_SPEC.token() in tokens

    def test_warm_is_idempotent(self, cluster):
        before = cluster.published_specs()
        cluster.warm(QUANT_SPEC)
        assert cluster.published_specs() == before

    def test_stats_record_replica_batches(self, cluster, val_images):
        cluster.execute(QUANT_SPEC, val_images[:4], [0, 1, 2, 3])
        snap = cluster.stats().replica_snapshot()
        assert snap, "no replica rows recorded"
        assert sum(row["batches"] for row in snap.values()) >= 1

    def test_worker_stats_merge_under_replica_label(
        self, cluster, val_images
    ):
        cluster.execute(QUANT_SPEC, val_images[:2], [7, 8])
        cluster.flush_worker_stats()
        registry = cluster.stats().registry
        children = registry.children("serve.worker_batches")
        assert children, "no worker counters merged"
        for labels in children:
            assert "replica" in dict(labels)

    def test_light_sequential_traffic_rotates_over_replicas(
        self, cluster, val_images
    ):
        def batches_per_replica():
            return {
                rep: row["batches"]
                for rep, row in cluster.stats().replica_snapshot().items()
            }

        before = batches_per_replica()
        for rid in range(10):
            cluster.execute(QUANT_SPEC, val_images[:1], [rid])
        # Replica stats land in a reply callback that can trail result().
        deadline = time.monotonic() + 10.0
        while sum(batches_per_replica().values()) < sum(before.values()) + 10:
            assert time.monotonic() < deadline, "replica stats never landed"
            time.sleep(0.01)
        after = batches_per_replica()
        counts = [after.get(rep, 0) - before.get(rep, 0) for rep in ("0", "1")]
        assert sum(counts) == 10
        assert max(counts) - min(counts) <= 1

    def test_meminfo_proves_shared_binding(self, cluster):
        info = cluster.meminfo()
        assert set(info) == {0, 1}
        for report in info.values():
            assert report["shared_fraction"] == pytest.approx(1.0)
            assert report["models"] == 2


class TestWorkerStats:
    def test_compute_histogram_counts_batches_across_flushes(
        self, serve_bench, val_images
    ):
        with ServeCluster(serve_bench, workers=1) as cluster:
            cluster.warm(QUANT_SPEC)
            for rid in range(3):
                cluster.execute(QUANT_SPEC, val_images[:2], [rid, rid + 50])
            cluster.flush_worker_stats()
            for rid in range(3, 8):
                cluster.execute(QUANT_SPEC, val_images[:2], [rid, rid + 50])
            cluster.flush_worker_stats()
            children = cluster.stats().registry.children(
                "serve.worker_batch_ms"
            )
        assert [dict(labels)["replica"] for labels in children] == ["0"]
        assert sum(h.snapshot()["count"] for h in children.values()) == 8


class TestShardByModel:
    def test_each_spec_pins_to_one_replica(self, serve_bench, val_images):
        with ServeCluster(
            serve_bench, workers=2, shard_by="model"
        ) as cluster:
            cluster.warm(QUANT_SPEC)
            token = QUANT_SPEC.token()
            first = cluster.pick_replica(token)
            for _ in range(5):
                assert cluster.pick_replica(token) is first
            cluster.execute(QUANT_SPEC, val_images[:2], [0, 1])
            snap = cluster.stats().replica_snapshot()
            assert list(snap) == [str(first.replica_id)]


class TestOperations:
    def test_rolling_restart_replaces_pids_and_keeps_serving(
        self, serve_bench, val_images
    ):
        with ServeCluster(serve_bench, workers=2) as cluster:
            cluster.warm(QUANT_SPEC)
            before = cluster.execute(QUANT_SPEC, val_images[:3], [0, 1, 2])
            old_pids = {r.process.pid for r in cluster._replicas}
            cluster.rolling_restart()
            new_pids = {r.process.pid for r in cluster._replicas}
            assert old_pids.isdisjoint(new_pids)
            assert cluster.replica_count() == 2
            after = cluster.execute(QUANT_SPEC, val_images[:3], [0, 1, 2])
            np.testing.assert_array_equal(before, after)

    def test_stop_is_clean_and_removes_share_dir(self, serve_bench):
        import os

        cluster = ServeCluster(serve_bench, workers=1).start()
        cluster.warm(QUANT_SPEC)
        share_dir = cluster.share_dir
        assert os.path.isdir(share_dir)
        processes = [r.process for r in cluster._replicas]
        cluster.stop()
        assert not os.path.exists(share_dir)
        for process in processes:
            assert not process.is_alive()
            assert process.exitcode == 0

    def test_context_manager_round_trip(self, serve_bench, val_images):
        with ServeCluster(serve_bench, workers=1) as cluster:
            cluster.warm(QUANT_SPEC)
            logits = cluster.execute(QUANT_SPEC, val_images[:2], [0, 1])
            assert logits.shape[0] == 2
            assert cluster.has_idle_replica(QUANT_SPEC.token())
        assert cluster.replica_count() == 0
        # No replica left: report idle so a batch fails fast, not waits.
        assert cluster.has_idle_replica(QUANT_SPEC.token())
