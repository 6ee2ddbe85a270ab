"""Shared hygiene for the observability tests.

The journal keeps one process-wide current run; every test here must
leave it exactly as it found it so test order never matters.
"""

from __future__ import annotations

import pytest

from repro.obs import journal as journal_mod


@pytest.fixture(autouse=True)
def _no_leaked_run():
    """Fail-safe: close any journal a test (or an earlier one) leaked."""
    journal_mod.end_run()
    yield
    journal_mod.end_run()
