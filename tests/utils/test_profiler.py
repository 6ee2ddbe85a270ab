"""Tests for the op-level profiler."""

import time

from repro.tensor.pool import default_pool
from repro.utils import profiler


class TestBrackets:
    def test_disabled_is_inert(self):
        profiler.disable()
        token = profiler.op_start()
        assert token is None
        profiler.op_end(token, "noop")  # must not raise

    def test_add_is_thread_safe(self):
        import threading

        prof = profiler.Profiler()

        def hammer():
            for _ in range(500):
                prof.add("contested.op", 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert prof.records()["contested.op"].calls == 2000

    def test_records_calls_and_time(self):
        with profiler.profiled() as prof:
            for _ in range(3):
                token = profiler.op_start()
                profiler.op_end(token, "my.op")
        record = prof.records()["my.op"]
        assert record.calls == 3
        assert record.total_s >= 0.0
        assert record.max_s <= record.total_s

    def test_measures_elapsed_time(self):
        with profiler.profiled() as prof:
            token = profiler.op_start()
            time.sleep(0.01)
            profiler.op_end(token, "sleepy")
        assert prof.records()["sleepy"].total_s >= 0.005

    def test_counts_pool_allocations(self):
        pool = default_pool()
        pool.clear()
        with profiler.profiled() as prof:
            token = profiler.op_start()
            buf = pool.get((16, 16))
            profiler.op_end(token, "alloc.op")
        pool.release(buf)
        assert prof.records()["alloc.op"].allocs == 1

    def test_reused_buffers_report_zero_allocs(self):
        pool = default_pool()
        pool.clear()
        pool.release(pool.get((16, 16)))  # warm
        with profiler.profiled() as prof:
            token = profiler.op_start()
            buf = pool.get((16, 16))
            profiler.op_end(token, "warm.op")
        pool.release(buf)
        assert prof.records()["warm.op"].allocs == 0


class TestLifecycle:
    def test_profiled_restores_previous(self):
        profiler.disable()
        with profiler.profiled():
            assert profiler.ACTIVE is not None
        assert profiler.ACTIVE is None

    def test_profiled_nests(self):
        with profiler.profiled() as outer:
            with profiler.profiled() as inner:
                token = profiler.op_start()
                profiler.op_end(token, "deep")
            assert profiler.ACTIVE is outer
        assert "deep" in inner.records()
        assert "deep" not in outer.records()

    def test_enable_disable(self):
        prof = profiler.enable()
        assert profiler.ACTIVE is prof
        assert profiler.disable() is prof
        assert profiler.ACTIVE is None


class TestReporting:
    def test_rows_sorted_by_total_time(self):
        prof = profiler.Profiler()
        prof.add("fast", 0.001)
        prof.add("slow", 1.0)
        rows = prof.rows()
        assert rows[0][0] == "slow"
        assert rows[1][0] == "fast"

    def test_report_mentions_ops_and_pool(self):
        with profiler.profiled() as prof:
            token = profiler.op_start()
            profiler.op_end(token, "conv2d.forward")
        text = prof.report()
        assert "conv2d.forward" in text
        assert "pool" in text

    def test_empty_report_renders(self):
        assert "no ops recorded" in profiler.Profiler().report()

    def test_merge_accumulates(self):
        a = profiler.Profiler()
        a.add("op", 1.0, allocs=2)
        b = profiler.Profiler()
        b.add("op", 2.0, allocs=3)
        b.add("other", 0.5)
        a.merge(b)
        record = a.records()["op"]
        assert record.calls == 2
        assert record.total_s == 3.0
        assert record.allocs == 5
        assert record.max_s == 2.0
        assert "other" in a.records()


class TestKernelIntegration:
    def test_conv_ops_appear(self):
        import numpy as np

        from repro.tensor import functional as F
        from repro.tensor.tensor import Tensor

        x = Tensor(np.random.default_rng(0).standard_normal(
            (1, 2, 6, 6)).astype(np.float32), requires_grad=True)
        w = Tensor(np.random.default_rng(1).standard_normal(
            (3, 2, 3, 3)).astype(np.float32), requires_grad=True)
        with profiler.profiled() as prof:
            out = F.conv2d(x, w, stride=1, padding=1)
            out.sum().backward()
        ops = prof.records()
        assert "conv2d.forward" in ops
        assert "im2col" in ops
        assert "conv2d.grad_x" in ops
        assert "conv2d.grad_w" in ops
