"""Tests for the experiment CLI."""

import os

import numpy as np
import pytest

from repro.experiments.cli import main
from repro.utils.serialization import save_state


class TestList:
    def test_list_prints_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "fig4", "fig8", "ablations"):
            assert name in out


class TestCache:
    """The model cache through ``registry list`` / ``registry evict``."""

    def test_cache_list_empty_dir(self, tmp_path, capsys):
        assert main(["registry", "list", "--cache-dir", str(tmp_path)]) == 0
        assert "empty" in capsys.readouterr().out

    def test_stale_tmp_files_hidden_from_list_removed_by_clear(
        self, tmp_path, capsys
    ):
        """Leftovers of a crashed worker's write-then-rename protocol."""
        save_state(str(tmp_path / "quant-bw8-bx8.state"), {"w": np.zeros(3)})
        (tmp_path / "quant-bw8-bx8.state.tmp4242").write_bytes(b"partial")
        (tmp_path / "quant-bw8-bx8.ckpt.tmp4242").write_bytes(b"{")
        assert main(["registry", "list", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "quant-bw8-bx8.state" in out
        assert "tmp4242" not in out
        assert "2 stale tmp file(s)" in out
        assert (
            main(["registry", "evict", "--cache-dir", str(tmp_path), "--all"])
            == 0
        )
        out = capsys.readouterr().out
        assert "removed 3" in out
        assert "including 2 stale tmp" in out
        assert not os.listdir(tmp_path)


class TestRun:
    def test_run_fig7_quick(self, tmp_path, capsys, monkeypatch):
        """fig7 involves no training, so the CLI round trip is fast."""
        monkeypatch.chdir(tmp_path)
        assert (
            main(
                [
                    "run",
                    "fig7",
                    "--profile",
                    "quick",
                    "--results-dir",
                    str(tmp_path / "results"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Fig. 7" in out
        assert os.path.exists(tmp_path / "results" / "fig7.json")

    def test_bad_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])


class TestFaultToleranceFlags:
    def _capture_bench(self, monkeypatch):
        from repro.experiments import cli as cli_mod

        seen = {}

        def fake_run_experiment(name, bench):
            seen["bench"] = bench

            class Result:
                def table(self):
                    return "fake table"

                def save(self, results_dir):
                    return results_dir

            return Result()

        monkeypatch.setattr(cli_mod, "run_experiment", fake_run_experiment)
        return seen

    def test_retry_flags_reach_the_workbench(
        self, tmp_path, capsys, monkeypatch
    ):
        seen = self._capture_bench(monkeypatch)
        assert (
            main(
                [
                    "run", "fig7", "--profile", "quick",
                    "--results-dir", str(tmp_path / "results"),
                    "--resume", "someoldrun",
                    "--retries", "5",
                    "--retry-backoff", "0.25",
                ]
            )
            == 0
        )
        bench = seen["bench"]
        assert bench.resume_run == "someoldrun"
        assert bench.retries == 5
        assert bench.retry_backoff == 0.25

    def test_default_leaves_sweep_engine_defaults(
        self, tmp_path, capsys, monkeypatch
    ):
        seen = self._capture_bench(monkeypatch)
        assert (
            main(
                [
                    "run", "fig7", "--profile", "quick",
                    "--results-dir", str(tmp_path / "results"),
                ]
            )
            == 0
        )
        bench = seen["bench"]
        assert bench.resume_run is None
        # Unset flags leave the attributes absent so sweep_map's own
        # defaults (DEFAULT_RETRIES / DEFAULT_BACKOFF_S) apply.
        assert not hasattr(bench, "retries")
        assert not hasattr(bench, "retry_backoff")

    def test_interrupted_run_exits_130_with_resume_hint(
        self, tmp_path, capsys, monkeypatch
    ):
        import json

        from repro.errors import RunInterrupted
        from repro.experiments import cli as cli_mod

        def fake_run_experiment(name, bench):
            raise RunInterrupted(
                "training drained after epoch 2 on SIGTERM",
                signal_name="SIGTERM",
            )

        monkeypatch.setattr(cli_mod, "run_experiment", fake_run_experiment)
        results = str(tmp_path / "results")
        code = main(
            [
                "run", "fig7", "--profile", "quick",
                "--results-dir", results,
                "--run-id", "drained-run",
            ]
        )
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted: training drained" in err
        assert "resume with: --resume drained-run" in err
        summary = json.load(
            open(
                os.path.join(
                    results, "runs", "drained-run", "summary.json"
                )
            )
        )
        assert summary["status"] == "interrupted"


class TestExport:
    def test_export_smoke(self, tmp_path, capsys, monkeypatch):
        """run fig7 (no training) then export its record to CSV."""
        monkeypatch.chdir(tmp_path)
        results = str(tmp_path / "results")
        assert (
            main(["run", "fig7", "--profile", "quick", "--results-dir", results])
            == 0
        )
        capsys.readouterr()
        out_dir = str(tmp_path / "csv")
        assert (
            main(["export", "--results-dir", results, "--out-dir", out_dir])
            == 0
        )
        out = capsys.readouterr().out
        assert "fig7" in out
        assert any(name.endswith(".csv") for name in os.listdir(out_dir))


def _micro_serve_config(tmp_path, monkeypatch):
    """Swap the CLI's make_config for a micro configuration, so the
    fp32 pretrain the serve path triggers stays in smoke-test
    territory; everything else is the real code path."""
    from repro.experiments import cli as cli_mod
    from repro.experiments.config import make_config

    micro = make_config(
        profile="quick",
        seed=7,
        num_classes=4,
        image_size=8,
        train_per_class=24,
        val_per_class=10,
        pretrain_epochs=2,
        retrain_epochs=1,
        batch_size=32,
        patience=1,
        eval_passes=1,
        cache_dir=str(tmp_path / "cache"),
        results_dir=str(tmp_path / "results"),
    )
    monkeypatch.setattr(cli_mod, "make_config", lambda **kw: micro)


def _batch_sizes(out):
    """``(min, mean, max)`` from the CLI's ``batch sizes:`` line."""
    prefix = "batch sizes:"
    line = next(l for l in out.splitlines() if l.startswith(prefix))
    parts = dict(p.split() for p in line[len(prefix):].split(","))
    return int(parts["min"]), float(parts["mean"]), int(parts["max"])


class TestServe:
    def test_serve_smoke(self, tmp_path, capsys, monkeypatch):
        """End-to-end CLI serve at microscopic scale, in-process."""
        _micro_serve_config(tmp_path, monkeypatch)
        assert (
            main(
                [
                    "serve",
                    "--spec",
                    "fp32",
                    "--requests",
                    "32",
                    "--max-batch",
                    "8",
                    "--profile",
                    "quick",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "serving stats" in out
        assert "served 32 requests" in out
        assert "req/s" in out
        assert "batch sizes:" in out

    def test_serve_cluster_smoke(self, tmp_path, capsys, monkeypatch):
        """CLI serve through the multi-process cluster (--workers)."""
        _micro_serve_config(tmp_path, monkeypatch)
        assert (
            main(
                [
                    "serve",
                    "--spec",
                    "fp32",
                    "--requests",
                    "16",
                    "--max-batch",
                    "8",
                    "--workers",
                    "2",
                    "--profile",
                    "quick",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "starting cluster: 2 replica processes" in out
        assert "served 16 requests" in out
        assert "cluster stats" in out or "serving stats" in out

    @pytest.mark.parametrize(
        "executor", [[], ["--workers", "1"]], ids=["in-process", "workers-1"]
    )
    def test_bulk_serve_keeps_queue_size_outstanding(
        self, executor, tmp_path, capsys, monkeypatch
    ):
        """More requests than queue slots: backpressure, not a shed.

        The bulk client waits on its oldest request before it submits
        past ``--queue-size``, so the run exits 0 on either executor,
        and requests pile up behind the busy executor into batches.
        """
        _micro_serve_config(tmp_path, monkeypatch)
        argv = [
            "serve",
            "--spec",
            "fp32",
            "--requests",
            "256",
            "--queue-size",
            "32",
            "--profile",
            "quick",
        ]
        assert main(argv + executor) == 0
        out = capsys.readouterr().out
        assert "served 256 requests" in out
        if not executor:
            assert _batch_sizes(out)[2] > 2


class TestServeClusterFlags:
    """Cluster flags fail fast — before any training or journaling."""

    def test_unknown_shard_by_suggests_close_match(self, capsys):
        assert main(["serve", "--workers", "2", "--shard-by", "modle"]) == 2
        err = capsys.readouterr().err
        assert "unknown --shard-by 'modle'" in err
        assert "did you mean 'model'?" in err

    def test_unknown_shard_by_without_close_match(self, capsys):
        assert main(["serve", "--workers", "2", "--shard-by", "zzz"]) == 2
        err = capsys.readouterr().err
        assert "options: none, model" in err

    def test_shard_by_requires_workers(self, capsys):
        assert main(["serve", "--shard-by", "model"]) == 2
        err = capsys.readouterr().err
        assert "add --workers N" in err

    def test_workers_floor(self, capsys):
        assert main(["serve", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert "--workers must be >= 1" in err
