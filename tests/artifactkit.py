"""Damage helpers for artifact files (``repro.utils.save_state``).

Shared by the serialization, registry, checkpoint and serving suites:
each damages a complete file in place the way a bad disk or a torn copy
would, and the reader must answer with ``ArtifactError`` (or the typed
error its caller re-raises), never with a bare decoding error.
"""

from __future__ import annotations

#: The ways :func:`damage` can spoil a file.
DAMAGES = ("payload-byte", "header-byte", "truncated")


def damage(path: str, kind: str) -> None:
    """Flip one payload byte, flip one header byte, or cut the file."""
    with open(path, "r+b") as fh:
        data = bytearray(fh.read())
        if kind == "truncated":
            fh.truncate(len(data) // 2)
            return
        if kind == "payload-byte":
            index = len(data) - 1  # the payload ends the file
        elif kind == "header-byte":
            index = data.index(b'"meta"') + 1  # inside the JSON header
        else:
            raise ValueError(f"unknown damage {kind!r}")
        data[index] ^= 0xFF
        fh.seek(0)
        fh.write(data)
