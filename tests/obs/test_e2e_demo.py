"""End-to-end demo: a journal reproduces live numbers byte-identically.

One micro run — a small quant sweep plus a burst of serve requests —
is recorded under a run journal.  The assertions then reconstruct the
sweep accuracy table and the serve batch-size histogram *purely from
the journal* and hold them byte-identical to the values observed live:
floats travel through JSONL at ``repr`` precision, so nothing is lost
between the process that ran and the ``obs summary`` that reads it
back later.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.common import Workbench
from repro.experiments.config import make_config
from repro.obs.journal import end_run, read_events, start_run
from repro.obs.summary import (
    serve_batch_hist,
    summarize_run,
    sweep_rows,
)
from repro.obs.trace import capture_spans
from repro.parallel.scheduler import SweepPoint
from repro.parallel.sweep import sweep_map
from repro.serve import ClusterService, InProcessExecutor, ModelSpec
from repro.utils.tabulate import format_table

SPEC = ModelSpec("quant", bw=8, bx=8)


@pytest.fixture(scope="module")
def demo_config(tmp_path_factory):
    root = tmp_path_factory.mktemp("obs_e2e")
    config = make_config(profile="quick", seed=99)
    return replace(
        config,
        num_classes=4,
        image_size=8,
        train_per_class=16,
        val_per_class=8,
        pretrain_epochs=2,
        retrain_epochs=1,
        batch_size=32,
        patience=1,
        eval_passes=1,
        cache_dir=str(root / "cache"),
        results_dir=str(root / "results"),
    )


def _eval_noise_seed(bench, noise_seed):
    """Module-level sweep point fn: evaluate the quant model once."""
    from repro.train import evaluate_accuracy

    model, _meta = bench.registry.get(SPEC, fresh=True)
    return evaluate_accuracy(model, bench.data.val, noise_seed=noise_seed)


@pytest.fixture(scope="module")
def recorded_run(demo_config):
    """Run sweep + serve under a journal; return the live observations."""
    from repro.obs.journal import current_journal, journal_event

    bench = Workbench(demo_config)
    journal = start_run(
        results_dir=demo_config.results_dir,
        run_id="e2e-demo",
        argv=["e2e", "demo"],
        config=demo_config,
        seed=demo_config.seed,
    )
    try:
        points = [
            SweepPoint(key=f"seed{s}", args=(s,)) for s in (11, 12, 13)
        ]
        live_results = sweep_map(bench, _eval_noise_seed, points)

        with InProcessExecutor(bench) as executor:
            executor.warm(SPEC)
            images = bench.data.val.images
            with capture_spans() as spans, ClusterService(
                executor, max_batch=8, max_wait_s=0.001
            ) as service:
                # several request-set sizes so the batch-size histogram
                # has more than one bar
                for count in (8, 5, 3, 8):
                    service.classify(SPEC, images[:count])
            snapshot = executor.stats().snapshot()
            journal_event("serve.stats", stats=snapshot)
            current_journal().metrics_snapshot(
                executor.stats().registry, scope="serve"
            )
        end_run(status="ok")
    except BaseException:
        end_run(status="failed")
        raise
    return {
        "run_dir": journal.run_dir,
        "results_dir": demo_config.results_dir,
        "points": points,
        "live_results": live_results,
        "snapshot": snapshot,
        "spans": spans,
    }


class TestSweepTableReproduction:
    def test_accuracies_match_bit_for_bit(self, recorded_run):
        events = read_events(
            recorded_run["run_dir"], validate=True
        )
        rows = sweep_rows(events)
        assert [row[0] for row in rows] == [
            p.key for p in recorded_run["points"]
        ]
        live = [float(r) for r in recorded_run["live_results"]]
        journaled = [row[1] for row in rows]
        assert journaled == live  # float equality: bit-exact round trip
        assert [repr(v) for v in journaled] == [repr(v) for v in live]

    def test_summary_renders_the_live_table_byte_identically(
        self, recorded_run
    ):
        """The sweep table in ``obs summary`` == the table rendered from
        the live in-memory results (seconds come from the journal — the
        live side never kept them, which is the point of the journal)."""
        events = read_events(recorded_run["run_dir"])
        seconds = [row[2] for row in sweep_rows(events)]
        expected = format_table(
            ["point", "accuracy", "seconds"],
            [
                [point.key, float(result), secs]
                for point, result, secs in zip(
                    recorded_run["points"],
                    recorded_run["live_results"],
                    seconds,
                )
            ],
            title="sweep (from sweep.point_done events)",
        )
        summary = summarize_run(
            recorded_run["run_dir"], recorded_run["results_dir"]
        )
        assert expected in summary

    def test_point_results_keep_their_provenance(self, recorded_run):
        events = read_events(recorded_run["run_dir"])
        done = [e for e in events if e["event"] == "sweep.point_done"]
        for event, live in zip(done, recorded_run["live_results"]):
            assert event["result"]["accuracy"] == float(live)
            assert event["result"]["logits_hash"] == live.logits_hash
            assert event["result"]["noise_seed"] == live.noise_seed


class TestServeHistogramReproduction:
    def test_batch_hist_matches_the_live_snapshot(self, recorded_run):
        events = read_events(recorded_run["run_dir"], validate=True)
        hists = serve_batch_hist(events)
        live_specs = recorded_run["snapshot"]["specs"]
        assert set(hists) == set(live_specs)
        for key, live in live_specs.items():
            assert hists[key] == live["batch_hist"]
        # 24 requests total crossed the executor, whatever the batching
        (spec_stats,) = live_specs.values()
        assert spec_stats["requests"] == 24
        assert sum(
            size * n for size, n in spec_stats["batch_hist"].items()
        ) == 24

    def test_summary_renders_the_live_histogram_byte_identically(
        self, recorded_run
    ):
        summary = summarize_run(
            recorded_run["run_dir"], recorded_run["results_dir"]
        )
        for key, live in recorded_run["snapshot"]["specs"].items():
            expected = format_table(
                ["batch size", "batches"],
                [
                    [size, live["batch_hist"][size]]
                    for size in sorted(live["batch_hist"])
                ],
                title=f"serve batch-size histogram: {key}",
            )
            assert expected in summary

    def test_metrics_snapshot_round_trips_the_registry(self, recorded_run):
        from repro.obs.summary import last_metrics

        events = read_events(recorded_run["run_dir"])
        metrics = last_metrics(events, scope="serve")
        live_specs = recorded_run["snapshot"]["specs"]
        for key, live in live_specs.items():
            assert (
                metrics["counters"][f"serve.requests_executed{{spec={key}}}"]
                == live["requests"]
            )


class TestRegistryTierReproduction:
    def test_tier_traffic_reconstructs_from_the_journal(
        self, recorded_run
    ):
        """The executor's registry tier counters survive the round trip:
        the sweep trained the artifact (fresh path), so ``warm(SPEC)``
        inside the run is a cold hit plus a promotion."""
        from repro.obs.summary import registry_tier_rows

        events = read_events(recorded_run["run_dir"], validate=True)
        rows = dict(
            (key, value) for key, value in registry_tier_rows(events)
        )
        assert rows["registry.tier_hit{tenant=default,tier=cold}"] == 1
        assert rows["registry.tier_promote{tenant=default}"] == 1
        assert rows["registry.warm_entries{tenant=default}"] == 1
        promotes = [
            e
            for e in events
            if e["event"] == "registry.tier" and e["action"] == "promote"
        ]
        assert [e["spec"] for e in promotes] == [SPEC.token()]

    def test_summary_renders_the_tier_section(self, recorded_run):
        summary = summarize_run(
            recorded_run["run_dir"], recorded_run["results_dir"]
        )
        assert "model registry tiers" in summary
        assert "registry.tier_promote{tenant=default}" in summary


class TestServeSpans:
    def test_batch_spans_ran_on_the_worker_thread(self, recorded_run):
        import threading

        batch_spans = [
            s for s in recorded_run["spans"] if s.name == "serve.batch"
        ]
        assert batch_spans, "executor batches should run under obs.span"
        main = threading.main_thread().name
        for record in batch_spans:
            assert record.thread != main
            assert record.duration_s > 0.0


class TestRunLifecycleInTheJournal:
    def test_manifest_and_status(self, recorded_run):
        events = read_events(recorded_run["run_dir"], validate=True)
        assert events[0]["event"] == "run_start"
        assert events[0]["run_id"] == "e2e-demo"
        assert events[0]["seed"] == 99
        assert events[-1]["event"] == "run_end"
        assert events[-1]["status"] == "ok"
        summary = summarize_run(
            recorded_run["run_dir"], recorded_run["results_dir"]
        )
        assert "status: ok" in summary

    def test_training_was_journaled_too(self, recorded_run):
        """The quant model trained inside the run: epochs are events."""
        events = read_events(recorded_run["run_dir"])
        epochs = [e for e in events if e["event"] == "train.epoch"]
        assert epochs
        for event in epochs:
            assert 0.0 <= event["val_accuracy"] <= 1.0
            assert event["epoch_seconds"] > 0.0
        artifacts = [e for e in events if e["event"] == "bench.artifact"]
        assert any(a["source"] == "trained" for a in artifacts)
