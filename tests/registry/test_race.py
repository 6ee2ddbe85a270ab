"""Eviction vs. in-flight publication: the stale-eviction race.

An operator running ``registry evict`` while a worker is
mid-``save_state`` must never delete the writer's live temporary —
doing so crashes the writer's ``os.replace`` and
leaves a torn artifact behind.  The layout helpers classify
temporaries by the pid baked into their file name and only sweep the
ones whose writer is dead.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.registry.layout import evict_artifacts, scan_artifacts
from repro.utils.serialization import load_state, save_state

#: A pid no live process plausibly owns (kernel pid_max defaults to
#: 32768 or 4194304; os.kill(0) on it raises ProcessLookupError).
DEAD_PID = 999_999_999


def _state(value: float) -> dict:
    return {"w": np.full(512, value, dtype=np.float32)}


class TestTmpClassification:
    def test_live_tmp_survives_everything_eviction(self, tmp_path):
        cache = str(tmp_path)
        live = os.path.join(cache, f"quick-fp32.state.tmp{os.getpid()}")
        with open(live, "wb") as fh:
            fh.write(b"half-written")
        removed, kept = evict_artifacts(cache, everything=True)
        assert removed == 0
        assert kept == [os.path.basename(live)]
        assert os.path.exists(live)

    def test_dead_pid_tmp_is_swept(self, tmp_path):
        cache = str(tmp_path)
        stale = os.path.join(cache, f"quick-fp32.state.tmp{DEAD_PID}")
        with open(stale, "wb") as fh:
            fh.write(b"orphaned")
        entries, stale_names, live_names = scan_artifacts(cache)
        assert stale_names == [os.path.basename(stale)]
        assert live_names == []
        removed, kept = evict_artifacts(cache, everything=True)
        assert removed == 1
        assert kept == []
        assert not os.path.exists(stale)

    def test_scan_separates_entries_from_tmps(self, tmp_path):
        cache = str(tmp_path)
        save_state(os.path.join(cache, "quick-fp32.state"), _state(1.0))
        with open(
            os.path.join(cache, f"quick-quant.state.tmp{os.getpid()}"), "wb"
        ) as fh:
            fh.write(b"in flight")
        entries, stale_names, live_names = scan_artifacts(cache)
        assert [e.name for e in entries] == ["quick-fp32.state"]
        assert entries[0].size_bytes > 0
        assert stale_names == []
        assert len(live_names) == 1


    def test_scan_lists_only_complete_artifacts(self, tmp_path):
        """A checkpoint in flight, a live and a stale temporary sit
        beside one complete artifact: only the artifact is an entry."""
        cache = str(tmp_path)
        save_state(os.path.join(cache, "quick-fp32.state"), _state(1.0))
        save_state(os.path.join(cache, "quick-quant.ckpt"), _state(2.0))
        live = f"quick-ams.state.tmp{os.getpid()}"
        stale = f"quick-ams.ckpt.tmp{DEAD_PID}"
        for name in (live, stale):
            with open(os.path.join(cache, name), "wb") as fh:
                fh.write(b"partial")
        entries, stale_names, live_names = scan_artifacts(cache)
        assert [e.name for e in entries] == ["quick-fp32.state"]
        assert stale_names == [stale]
        assert live_names == [live]


class TestTornWriteStress:
    def test_concurrent_evict_never_tears_a_writer(self, tmp_path):
        """Hammer save_state against evict/scan loops.

        The writers publish through ``atomic_write`` (pid-unique tmp +
        ``os.replace``); the eviction loop may delete any *published*
        file but must skip live temporaries, so no writer ever crashes
        and whatever artifact survives at the end loads back clean.
        """
        cache = str(tmp_path)
        stop = threading.Event()
        errors = []

        def writer(worker: int):
            # One artifact per writer: atomic_write temporaries are
            # pid-unique, not thread-unique, so same-path same-process
            # writers are out of contract — the race under test is
            # writer vs. evictor.
            path = os.path.join(cache, f"quick-s91-stress{worker}.state")
            value = float(worker)
            while not stop.is_set():
                try:
                    save_state(path, _state(value))
                except Exception as exc:  # noqa: BLE001 - the assertion
                    errors.append(exc)
                    return

        def evictor():
            while not stop.is_set():
                try:
                    scan_artifacts(cache)
                    evict_artifacts(cache, everything=True)
                except Exception as exc:  # noqa: BLE001 - the assertion
                    errors.append(exc)
                    return

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(3)
        ] + [threading.Thread(target=evictor) for _ in range(2)]
        for thread in threads:
            thread.start()
        threads[0].join(timeout=1.5)  # let the race run for a while
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

        # Settle: one final write must land and read back intact.
        path = os.path.join(cache, "quick-s91-stress0.state")
        save_state(path, _state(7.0))
        state, _meta = load_state(path)
        np.testing.assert_array_equal(state["w"], _state(7.0)["w"])
        # Clean exit leaves no temporaries behind, live or stale.
        _entries, stale_names, live_names = scan_artifacts(cache)
        assert stale_names == []
        assert live_names == []
