"""Tests for the public-API snapshot checker."""

import importlib.util
import os

_SPEC = importlib.util.spec_from_file_location(
    "apicheck",
    os.path.join(
        os.path.dirname(__file__), "..", "..", "tools", "apicheck.py"
    ),
)
apicheck = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(apicheck)


class TestSurface:
    def test_surface_is_sorted_and_nonempty(self):
        lines = apicheck.public_surface()
        assert len(lines) > 100
        assert any(line.startswith("repro.serve.ModelSpec ") for line in lines)
        assert any(
            line.startswith("repro.serve.FrontDoor ") for line in lines
        )

    def test_every_package_contributes(self):
        lines = apicheck.public_surface()
        for package in apicheck.PACKAGES:
            assert any(
                line.startswith(package + ".") for line in lines
            ), f"{package} exports nothing — missing __all__?"


class TestSnapshot:
    def test_live_surface_matches_checked_in_snapshot(self):
        """THE gate: an API change without a snapshot update fails here.

        If this fails and the change was intentional, run
        ``python tools/apicheck.py --write`` and commit the diff.
        """
        recorded = apicheck.load_snapshot()
        assert recorded is not None, (
            "docs/public_api.txt is missing; run "
            "'python tools/apicheck.py --write'"
        )
        assert recorded == apicheck.render(), (
            "public API drifted from docs/public_api.txt; if intentional "
            "run 'python tools/apicheck.py --write' and commit the diff"
        )


class TestMain:
    def test_write_then_check_round_trips(self, tmp_path, capsys):
        snapshot = str(tmp_path / "api.txt")
        assert apicheck.main(["--write", "--snapshot", snapshot]) == 0
        assert apicheck.main(["--snapshot", snapshot]) == 0
        assert "matches" in capsys.readouterr().out

    def test_drift_exits_nonzero_with_diff(self, tmp_path, capsys):
        snapshot = tmp_path / "api.txt"
        assert apicheck.main(["--write", "--snapshot", str(snapshot)]) == 0
        doctored = snapshot.read_text().replace(
            "repro.serve.ModelSpec class",
            "repro.serve.ModelSpec class\nrepro.serve.Ghost class",
        )
        snapshot.write_text(doctored)
        assert apicheck.main(["--snapshot", str(snapshot)]) == 1
        out = capsys.readouterr().out
        assert "-repro.serve.Ghost class" in out
        assert "drifted" in out

    def test_missing_snapshot_exits_nonzero(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.txt")
        assert apicheck.main(["--snapshot", missing]) == 1
        assert "no snapshot" in capsys.readouterr().out

