"""Shared utilities: deterministic RNG, atomic I/O, text tables."""

from repro.utils.rng import new_rng, spawn_rngs
from repro.utils.serialization import (
    atomic_write,
    atomic_write_json,
    load_state,
    map_state,
    save_state,
)
from repro.utils.tabulate import format_table

__all__ = [
    "atomic_write",
    "atomic_write_json",
    "format_table",
    "load_state",
    "map_state",
    "new_rng",
    "save_state",
    "spawn_rngs",
]
