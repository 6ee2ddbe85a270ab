"""The benchmark's reach into ``src/`` stays importable and patchable.

``perfbench/`` imports names from ``repro`` and its tracer patches a
list of callables in place.  A rename or a removal there makes the
benchmark exit non-zero with no result line; this test fails first,
and names the missing attribute.
"""

from __future__ import annotations

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "..", "perfbench")

#: Top-level modules of ``perfbench/`` (imported by bare name there).
MODULES = ("common", "layers", "tracing", "online", "offline", "explore")


@pytest.fixture()
def perfbench():
    """``perfbench/`` importable by bare module name, then cleaned up."""
    sys.path.insert(0, os.path.abspath(PERFBENCH))
    try:
        yield {name: importlib.import_module(name) for name in MODULES}
    finally:
        sys.path.remove(os.path.abspath(PERFBENCH))
        for name in MODULES:
            sys.modules.pop(name, None)


def test_workloads_import_and_tracer_patches_install(perfbench):
    from repro.serve import FrontDoor

    submit = FrontDoor.submit
    # Entering installs every patch (a getattr on each target);
    # exiting restores them.
    with perfbench["tracing"].Tracer():
        assert FrontDoor.submit is not submit
    assert FrontDoor.submit is submit
    assert FrontDoor.__init__.__kwdefaults__["max_batch"] >= 1
