"""The ``registry`` CLI: list/stats/evict/warm.

Fail-fast contract: misuse (unknown action, ambiguous evict flags)
exits 2 with a diagnostic on stderr — never a traceback, never a
partial eviction.
"""

from __future__ import annotations

import os

import numpy as np

from repro.experiments.cli import main


def _fake_artifact(tmp_path, stem: str) -> None:
    np.savez(str(tmp_path / f"{stem}.npz"), w=np.zeros(3))
    (tmp_path / f"{stem}.json").write_text("{}")


class TestList:
    def test_lists_artifacts(self, tmp_path, capsys):
        _fake_artifact(tmp_path, "quick-s77-fp32")
        assert main(["registry", "list", "--cache-dir", str(tmp_path)]) == 0
        assert "quick-s77-fp32.npz" in capsys.readouterr().out

    def test_missing_dir_reports_not_crashes(self, tmp_path, capsys):
        missing = str(tmp_path / "nope")
        assert main(["registry", "list", "--cache-dir", missing]) == 0
        assert "no cache at" in capsys.readouterr().out

    def test_live_tmp_reported_not_hidden(self, tmp_path, capsys):
        _fake_artifact(tmp_path, "quick-s77-fp32")
        (tmp_path / f"quick-s77-quant.npz.tmp{os.getpid()}").write_bytes(
            b"in flight"
        )
        assert main(["registry", "list", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 live tmp file(s)" in out


class TestStats:
    def test_cold_tier_totals(self, tmp_path, capsys):
        _fake_artifact(tmp_path, "quick-s77-fp32")
        _fake_artifact(tmp_path, "quick-s77-quant-bw8-bx8")
        assert main(["registry", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 artifact(s)" in out
        assert "stale tmp files: 0" in out


class TestEvict:
    def test_by_name_round_trip(self, tmp_path, capsys):
        _fake_artifact(tmp_path, "quick-s77-fp32")
        _fake_artifact(tmp_path, "quick-s77-quant-bw8-bx8")
        assert (
            main(
                [
                    "registry",
                    "evict",
                    "--cache-dir",
                    str(tmp_path),
                    "--name",
                    "quick-s77-fp32",
                ]
            )
            == 0
        )
        assert "removed 2" in capsys.readouterr().out
        survivors = sorted(os.listdir(tmp_path))
        assert survivors == [
            "quick-s77-quant-bw8-bx8.json",
            "quick-s77-quant-bw8-bx8.npz",
        ]

    def test_all_sweeps_everything(self, tmp_path, capsys):
        _fake_artifact(tmp_path, "quick-s77-fp32")
        assert (
            main(
                ["registry", "evict", "--cache-dir", str(tmp_path), "--all"]
            )
            == 0
        )
        assert "removed 2" in capsys.readouterr().out
        assert not os.listdir(tmp_path)

    def test_no_selector_exits_2(self, tmp_path, capsys):
        assert (
            main(["registry", "evict", "--cache-dir", str(tmp_path)]) == 2
        )
        err = capsys.readouterr().err
        assert "exactly one of" in err

    def test_two_selectors_exit_2(self, tmp_path, capsys):
        assert (
            main(
                [
                    "registry",
                    "evict",
                    "--cache-dir",
                    str(tmp_path),
                    "--name",
                    "x",
                    "--all",
                ]
            )
            == 2
        )
        assert "exactly one of" in capsys.readouterr().err

    def test_live_tmp_survives_evict_all(self, tmp_path, capsys):
        """Race-safe sweep: complete artifacts go, a live writer's
        temporary stays, so a concurrent publication is never torn."""
        _fake_artifact(tmp_path, "quick-s77-fp32")
        live = tmp_path / f"quick-s77-fp32.npz.tmp{os.getpid()}"
        live.write_bytes(b"half-written")
        assert (
            main(
                ["registry", "evict", "--cache-dir", str(tmp_path), "--all"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "removed 2" in out
        assert "kept 1 live tmp" in out
        assert live.exists()
        assert sorted(os.listdir(tmp_path)) == [live.name]


class TestFailFast:
    def test_unknown_action_exits_2_with_suggestion(self, tmp_path, capsys):
        assert main(["registry", "lst", "--cache-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "unknown registry action 'lst'" in err
        assert "did you mean 'list'?" in err

    def test_missing_action_exits_2(self, tmp_path, capsys):
        assert main(["registry", "--cache-dir", str(tmp_path)]) == 2
        assert "unknown registry action" in capsys.readouterr().err

    def test_warm_requires_spec(self, tmp_path, capsys):
        assert main(["registry", "warm", "--cache-dir", str(tmp_path)]) == 2
        assert "needs --spec" in capsys.readouterr().err

    def test_warm_rejects_bad_spec(self, tmp_path, capsys):
        assert (
            main(
                [
                    "registry",
                    "warm",
                    "--cache-dir",
                    str(tmp_path),
                    "--spec",
                    "nonsense:token",
                ]
            )
            == 2
        )
        assert "error:" in capsys.readouterr().err
