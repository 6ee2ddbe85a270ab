"""The ``registry`` CLI: list/stats/evict/warm.

Fail-fast contract: misuse (unknown action, ambiguous evict flags)
exits 2 with a diagnostic on stderr — never a traceback, never a
partial eviction.
"""

from __future__ import annotations

import os

import numpy as np

from repro.experiments.cli import main
from repro.utils.serialization import save_state


def _fake_artifact(tmp_path, stem: str) -> None:
    save_state(str(tmp_path / f"{stem}.state"), {"w": np.zeros(3)}, {})


class TestList:
    def test_lists_artifacts(self, tmp_path, capsys):
        _fake_artifact(tmp_path, "quick-s77-fp32")
        assert main(["registry", "list", "--cache-dir", str(tmp_path)]) == 0
        assert "quick-s77-fp32.state" in capsys.readouterr().out

    def test_missing_dir_reports_not_crashes(self, tmp_path, capsys):
        missing = str(tmp_path / "nope")
        assert main(["registry", "list", "--cache-dir", missing]) == 0
        assert "no cache at" in capsys.readouterr().out

    def test_live_tmp_reported_not_hidden(self, tmp_path, capsys):
        _fake_artifact(tmp_path, "quick-s77-fp32")
        (tmp_path / f"quick-s77-quant.state.tmp{os.getpid()}").write_bytes(
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

    def test_counts_only_complete_artifacts(self, tmp_path, capsys):
        """An in-flight checkpoint and temporaries are not artifacts."""
        _fake_artifact(tmp_path, "quick-s77-fp32")
        save_state(str(tmp_path / "quick-s77-quant.ckpt"), {"w": np.ones(2)})
        (tmp_path / f"quick-s77-ams.state.tmp{os.getpid()}").write_bytes(b"")
        (tmp_path / "quick-s77-ams.ckpt.tmp999999999").write_bytes(b"")
        assert main(["registry", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 artifact(s)" in out
        assert "stale tmp files: 1; live tmp files: 1" in out


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
        assert "removed 1" in capsys.readouterr().out
        survivors = sorted(os.listdir(tmp_path))
        assert survivors == ["quick-s77-quant-bw8-bx8.state"]

    def test_all_sweeps_everything(self, tmp_path, capsys):
        _fake_artifact(tmp_path, "quick-s77-fp32")
        assert (
            main(
                ["registry", "evict", "--cache-dir", str(tmp_path), "--all"]
            )
            == 0
        )
        assert "removed 1" in capsys.readouterr().out
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
        live = tmp_path / f"quick-s77-fp32.state.tmp{os.getpid()}"
        live.write_bytes(b"half-written")
        assert (
            main(
                ["registry", "evict", "--cache-dir", str(tmp_path), "--all"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "removed 1" in out
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
