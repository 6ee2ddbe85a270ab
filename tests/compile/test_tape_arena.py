"""Compiled buffer tapes planned by liveness into one arena per model.

The first run at an input shape records every buffer the kernels draw
and when they release it; the plan lays those slots out by byte offset
so that only buffers alive at the same time take distinct bytes.  These
tests bound the arena against the recorded peak of live bytes, hold
every run bit-identical to the interpreter across recording, replay,
eviction and arena growth, and check that the ``compile.tape_bytes``
gauge tracks the live arenas.  At the ``offline`` workload's shape the
convolutions gather and multiply in image blocks, so the arena stops
growing with the patch columns of the whole batch.
"""

from __future__ import annotations

import gc
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.compile import compile_model, disabled
from repro.compile.runtime import CompiledModel
from repro.experiments import cli as cli_mod
from repro.experiments.common import Workbench
from repro.obs.journal import RunJournal
from repro.obs.metrics import default_registry
from repro.serve import ModelSpec
from repro.serve.executor import forward_with_request_noise
from repro.tensor.im2col import get_plan
from repro.tensor.tensor import Tensor, no_grad
from repro.train.evaluate import reseed_noise

SPECS = [
    ModelSpec("fp32"),
    ModelSpec("ams", enob=4.0),
    ModelSpec.parse("ams_eval:e4:mstate_dependent"),
]


def _images(bench, count):
    val = bench.data.val.images
    return np.concatenate([val] * (count // len(val) + 1))[:count]


def _peak_live(tape) -> int:
    """The most bytes the recorded slots held at any one clock tick."""
    events = sorted(
        [(s.t_release, -s.nbytes) for s in tape.slots]
        + [(s.t_get, s.nbytes) for s in tape.slots]
    )
    live = peak = 0
    for _, delta in events:
        live += delta
        peak = max(peak, live)
    return peak


def _interpreted(model, images):
    model.eval()
    with no_grad():
        return np.array(model(Tensor(images)).data, copy=True)


def _tape_bytes() -> float:
    return default_registry().gauge("compile.tape_bytes").value


class TestArenaBound:
    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_arena_within_a_quarter_of_peak_live(self, compile_bench, spec):
        model = compile_bench.build(spec.resolved(compile_bench.config))
        for size in (1, 7, 32, 64):
            compiled = compile_model(model)
            images = _images(compile_bench, size)
            compiled.predict(images)
            (tape,) = compiled._bindings.values()
            peak = _peak_live(tape)
            assert compiled.arena_bytes == tape.plan_bytes
            assert peak <= tape.plan_bytes <= 1.25 * peak, size
            # Far below the bytes the run drew: that is the point.
            if size >= 32:
                assert tape.plan_bytes < 0.5 * sum(
                    s.nbytes for s in tape.slots
                )

    def test_slots_alive_together_never_share_bytes(self, compile_bench):
        spec = ModelSpec("ams", enob=4.0).resolved(compile_bench.config)
        compiled = compile_model(compile_bench.build(spec))
        compiled.predict(_images(compile_bench, 16))
        (tape,) = compiled._bindings.values()
        for i, a in enumerate(tape.slots):
            assert a.offset % 64 == 0
            for b in tape.slots[i + 1 :]:
                if a.overlaps(b) and a.nbytes and b.nbytes:
                    assert (
                        a.offset + a.nbytes <= b.offset
                        or b.offset + b.nbytes <= a.offset
                    )


@pytest.fixture(scope="module")
def offline_bench(compile_config, tmp_path_factory):
    """The ``offline`` workload's model shape: 16x16 images, 20 classes."""
    root = tmp_path_factory.mktemp("offline")
    return Workbench(
        replace(
            compile_config,
            image_size=16,
            num_classes=20,
            train_per_class=4,
            val_per_class=4,
            cache_dir=str(root / "cache"),
            results_dir=str(root / "results"),
        )
    )


#: Batches that split the 16-channel 16x16 layer into several image
#: blocks, three of them with a smaller tail (15+14, 19*3, 27+27+26
#: and 6*26+4*25 images).
BLOCKED_SIZES = (29, 57, 80, 256)


class TestBlockedConv:
    def test_sizes_split_the_widest_layer(self):
        plan = get_plan(16, 16, 16, (3, 3), (1, 1), (1, 1))
        for size in BLOCKED_SIZES:
            assert len(plan.blocks(size, 4)) >= 2, size

    @pytest.mark.parametrize(
        "token", ["fp32", "quant", "ams:e5.5:n8", "ams_eval:e5.5:n8"]
    )
    def test_blocked_runs_match_the_interpreter(self, offline_bench, token):
        spec = ModelSpec.parse(token).resolved(offline_bench.config)
        model = offline_bench.build(spec)
        compiled = compile_model(model)
        images = _images(offline_bench, max(BLOCKED_SIZES))
        for size in BLOCKED_SIZES:
            reseed_noise(model, 3, size)
            expected = _interpreted(model, images[:size])
            for run in ("record", "replay"):
                reseed_noise(model, 3, size)
                logits = compiled.predict(images[:size])
                assert np.array_equal(expected, logits), (size, run)
        assert len(compiled._bindings) == len(BLOCKED_SIZES)

    def test_offline_arena_under_half_of_whole_batch_columns(
        self, offline_bench
    ):
        """``ams:e5.5:n8`` at batch 256 plans at most 25.7 MB.

        With whole-batch patch columns the peak was 51.4 MB, inside the
        first residual block's first conv: the block input (256 x 16 x
        16 x 16 float32, 4.19 MB), the padded input (5.31 MB), the
        columns (65,536 x 144 float32, 37.75 MB) and the conv's input
        again as ``x`` (4.19 MB).  Blocked, the columns of a block are
        at most 4 MiB and die before the epilogue, so the peak moves to
        the noise draw of that conv: the block input, ``out_mat``
        (65,536 x 16, 4.19 MB), ``dst`` (4.19 MB), the float64 noise
        (8.39 MB) and its float32 cast (4.19 MB) -- 25.17 MB.
        """
        spec = ModelSpec.parse("ams:e5.5:n8").resolved(offline_bench.config)
        compiled = compile_model(offline_bench.build(spec))
        compiled.predict(_images(offline_bench, 256))
        assert compiled.arena_bytes < 0.5 * 51.4e6


class TestRecordEqualsReplay:
    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_recording_run_equals_two_replays(self, compile_bench, spec):
        model = compile_bench.build(spec.resolved(compile_bench.config))
        images = _images(compile_bench, 12)
        ids = list(range(100, 112))
        runs = [
            forward_with_request_noise(model, images, ids, seed=5)
            for _ in range(3)
        ]
        with disabled():
            expected = forward_with_request_noise(model, images, ids, seed=5)
        for logits in runs:
            assert np.array_equal(expected, logits)


class TestShapeSequences:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        distinct=st.lists(
            st.integers(1, 20), min_size=9, max_size=11, unique=True
        ),
        repeats=st.lists(st.integers(0, 10), max_size=6),
    )
    def test_every_run_matches_the_interpreter(
        self, compile_bench, distinct, repeats
    ):
        # Growth after a smaller binding needs a non-descending step.
        assume(distinct != sorted(distinct, reverse=True))
        # distinct[0] is evicted by the ninth shape, then recorded again.
        sizes = distinct + [distinct[0]] + [
            distinct[i % len(distinct)] for i in repeats
        ]
        spec = ModelSpec("ams_eval", enob=4.0).resolved(compile_bench.config)
        model = compile_bench.build(spec)
        compiled = compile_model(model)
        evicted = default_registry().counter("compile.tapes_evicted")
        evictions = evicted.value
        images = _images(compile_bench, 20)
        arena, planned = 0, 0
        for size in sizes:
            reseed_noise(model, 3, size)
            expected = _interpreted(model, images[:size])
            reseed_noise(model, 3, size)
            assert np.array_equal(expected, compiled.predict(images[:size]))
            assert compiled.arena_bytes >= arena
            arena = compiled.arena_bytes
            planned = max(
                planned,
                *(t.plan_bytes for t in compiled._bindings.values()),
            )
            assert arena == planned
        assert len(compiled._bindings) == 8
        assert evicted.value - evictions >= 2


class TestSharedArena:
    def test_threads_at_different_shapes_share_one_arena(self, compile_bench):
        """The model lock serialises runs: a lost or interleaved run
        would overwrite another shape's slots in the shared arena."""
        spec = ModelSpec("quant", bw=8, bx=8).resolved(compile_bench.config)
        model = compile_bench.build(spec)
        images = _images(compile_bench, 12)
        sizes = (1, 3, 5, 12)
        expected = {n: _interpreted(model, images[:n]) for n in sizes}
        compiled = compile_model(model)
        mismatches = []

        def work(n):
            for _ in range(15):
                logits = compiled.predict(images[:n])
                if not np.array_equal(expected[n], logits):
                    mismatches.append(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in sizes]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert len(compiled._bindings) == len(sizes)


class _ReleaseInput:
    """A planted step that hands the caller's input to the tape pool."""

    op = "compiled.release_input"

    def run(self, x, ctx):
        ctx.pool.release(x)
        return x


class TestForeignRelease:
    def test_caller_images_survive_record_and_replay(self, compile_bench):
        spec = ModelSpec("quant", bw=8, bx=8).resolved(compile_bench.config)
        model = compile_bench.build(spec)
        expected = _interpreted(model, _images(compile_bench, 8))
        compiled = compile_model(model)
        compiled.steps.insert(0, _ReleaseInput())
        images = _images(compile_bench, 8)
        before = images.copy()
        for _ in range(2):
            assert np.array_equal(expected, compiled.predict(images))
            assert np.array_equal(before, images)


class TestTapeBytesGauge:
    def test_gauge_is_the_sum_of_live_arenas(self, compile_bench):
        spec = ModelSpec("fp32").resolved(compile_bench.config)
        first = compile_model(compile_bench.build(spec))
        second = compile_model(compile_bench.build(spec))
        first.predict(_images(compile_bench, 4))
        first.predict(_images(compile_bench, 16))
        second.predict(_images(compile_bench, 2))
        gc.collect()
        live = [o for o in gc.get_objects() if isinstance(o, CompiledModel)]
        assert _tape_bytes() == sum(m.arena_bytes for m in live)
        assert second.arena_bytes < first.arena_bytes

        before = _tape_bytes()
        dropped = first.arena_bytes
        del first, live
        gc.collect()
        assert _tape_bytes() == before - dropped

    def test_obs_summary_shows_the_gauge(
        self, compile_bench, tmp_path, capsys
    ):
        spec = ModelSpec("fp32").resolved(compile_bench.config)
        compiled = compile_model(compile_bench.build(spec))
        compiled.predict(_images(compile_bench, 4))
        journal = RunJournal.start(
            results_dir=str(tmp_path),
            run_id="arena",
            argv=["run", "arena"],
            config={"seed": 1},
            seed=1,
        )
        journal.metrics_snapshot(default_registry(), scope="default")
        journal.close(status="ok")
        code = cli_mod.main(
            ["obs", "summary", "arena", "--results-dir", str(tmp_path)]
        )
        assert code == 0
        assert "compile.tape_bytes" in capsys.readouterr().out
