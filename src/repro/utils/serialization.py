"""Crash-safe file I/O: atomic writes and the one artifact file format.

Every durable artifact in the repo — workbench cache entries, journal
manifests and summaries, training checkpoints, sweep point results —
is written through :func:`atomic_write`, the one tmp/fsync/rename
primitive, so a file on disk is either absent or complete even across
power loss:

1. the payload is written to ``<path>.tmp<pid>`` (pid-unique, so two
   processes racing on the same artifact cannot corrupt each other),
2. the file is flushed and ``fsync``\\ ed (data reaches the device, not
   just the page cache),
3. ``os.replace`` atomically installs it at ``path``,
4. the parent directory is ``fsync``\\ ed so the rename itself is
   durable — without this a power loss can leave a zero-length
   "complete" file that poisons every later reader.

Every array artifact — registry cache entries, training checkpoints and
the weights a serving cluster publishes to its replicas — is one file
in one format, written by :func:`save_state`: a self-describing JSON
header (entries, caller metadata, payload length and crc32) followed
by a 64-byte-aligned payload.  One header parser serves two reads:
:func:`load_state` copies the arrays out, :func:`map_state` maps them
read-only in place.  A damaged file raises
:class:`~repro.errors.ArtifactError` before any array is handed out.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import zlib
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.errors import ArtifactError, ConfigError


def fsync_dir(path: str) -> None:
    """Flush a directory's metadata (new entries / renames) to disk.

    A no-op on platforms where directories cannot be opened for fsync
    (e.g. Windows); durability there falls back to the OS's defaults.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "w") -> Iterator:
    """Yield a file handle whose contents appear at ``path`` atomically.

    The handle writes to a pid-unique temporary in the same directory;
    on clean exit the data is fsynced, renamed over ``path``, and the
    parent directory fsynced (see the module docstring).  On error the
    temporary is removed and ``path`` is untouched.  Parent directories
    are created as needed.
    """
    if "r" in mode or "a" in mode or "+" in mode:
        raise ConfigError(
            f"atomic_write requires a write-only mode, got {mode!r}"
        )
    parent = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.tmp{os.getpid()}"
    fh = open(tmp, mode)
    try:
        yield fh
        fh.flush()
        os.fsync(fh.fileno())
    except BaseException:
        fh.close()
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    fh.close()
    os.replace(tmp, path)
    fsync_dir(parent)


def atomic_write_json(path: str, payload: dict, **dump_kwargs) -> None:
    """Atomically write ``payload`` as JSON (see :func:`atomic_write`)."""
    dump_kwargs.setdefault("indent", 2)
    with atomic_write(path, "w") as fh:
        json.dump(payload, fh, **dump_kwargs)
        fh.write("\n")


#: First bytes of every artifact file.
MAGIC = b"REPROART"

#: Artifact format version; bump on any incompatible layout change.
FORMAT_VERSION = 1

#: Byte alignment of the payload and of every array inside it.
ALIGN = 64

#: magic, format version, header length, crc32 of the header.
_PREFIX = struct.Struct("<8sIII")


def _aligned(offset: int) -> int:
    return (offset + ALIGN - 1) // ALIGN * ALIGN


def save_state(
    path: str, state: Dict[str, np.ndarray], meta: Optional[dict] = None
) -> None:
    """Atomically write ``state`` and ``meta`` as one artifact file.

    The file is the prefix (magic, format version, header length and
    header crc32), a JSON header, zero padding to :data:`ALIGN`, then
    the payload: every array in C order at an ``ALIGN``-aligned offset.
    The header lists each entry's ``[name, offset, shape, dtype]``, the
    caller's ``meta`` (any JSON-serializable dict), the payload length
    and its crc32.  ``path`` is used exactly as given.
    """
    if not state:
        raise ConfigError(f"cannot save an empty state dict to {path}")
    entries = []
    payload = bytearray()
    for name, value in state.items():
        arr = np.asarray(value)
        if arr.dtype.kind not in "biufc":
            raise ConfigError(
                f"cannot save {name!r}: dtype {arr.dtype} is not numeric"
            )
        payload += bytes(_aligned(len(payload)) - len(payload))
        entries.append([name, len(payload), list(arr.shape), arr.dtype.str])
        payload += arr.tobytes()
    header = json.dumps(
        {
            "entries": entries,
            "meta": meta or {},
            "payload_bytes": len(payload),
            "crc32": zlib.crc32(payload),
        }
    ).encode("utf-8")
    head = _PREFIX.pack(
        MAGIC, FORMAT_VERSION, len(header), zlib.crc32(header)
    ) + header
    with atomic_write(path, "wb") as fh:
        fh.write(head + bytes(_aligned(len(head)) - len(head)))
        fh.write(payload)


def _read(buf, path: str) -> Tuple[Dict[str, np.ndarray], dict]:
    """Validate a whole artifact file and view its arrays in ``buf``.

    ``buf`` is the file's bytes (a ``bytes`` read or a read-only map).
    Raises :class:`~repro.errors.ArtifactError` on a bad magic string or
    version, a bad header, a length mismatch or a crc mismatch, so no
    array of a damaged file is ever handed out.
    """
    if len(buf) < _PREFIX.size:
        raise ArtifactError(f"{path} is truncated: {len(buf)} bytes")
    magic, version, header_len, header_crc = _PREFIX.unpack_from(buf)
    if magic != MAGIC:
        raise ArtifactError(f"{path} is not an artifact file (bad magic)")
    if version != FORMAT_VERSION:
        raise ArtifactError(
            f"{path} has format version {version}; this build reads "
            f"version {FORMAT_VERSION}"
        )
    header = bytes(buf[_PREFIX.size : _PREFIX.size + header_len])
    if len(header) != header_len or zlib.crc32(header) != header_crc:
        raise ArtifactError(f"{path} has a damaged header")
    try:
        fields = json.loads(header.decode("utf-8"))
        entries = [
            (name, int(offset), tuple(shape), np.dtype(dtype))
            for name, offset, shape, dtype in fields["entries"]
        ]
        meta = dict(fields["meta"])
        payload_bytes = int(fields["payload_bytes"])
        crc = int(fields["crc32"])
    except (ValueError, TypeError, KeyError) as exc:
        raise ArtifactError(f"{path} has a malformed header: {exc}") from exc
    start = _aligned(_PREFIX.size + header_len)
    if len(buf) != start + payload_bytes:
        raise ArtifactError(
            f"{path} holds {len(buf)} bytes; its header describes "
            f"{start + payload_bytes}"
        )
    if zlib.crc32(memoryview(buf)[start:]) != crc:
        raise ArtifactError(f"{path} failed its payload crc32 check")
    views = {
        name: np.frombuffer(
            buf,
            dtype=dtype,
            count=int(np.prod(shape, dtype=np.int64)),
            offset=start + offset,
        ).reshape(shape)
        for name, offset, shape, dtype in entries
    }
    return views, meta


def load_state(path: str) -> Tuple[Dict[str, np.ndarray], dict]:
    """Read a file written by :func:`save_state`: ``(state, meta)``.

    Every array is an owned, writeable copy.
    """
    with open(path, "rb") as fh:
        views, meta = _read(fh.read(), path)
    return {name: view.copy() for name, view in views.items()}, meta


def map_state(path: str) -> Tuple[Dict[str, np.ndarray], dict]:
    """Map a file written by :func:`save_state`: ``(views, meta)``.

    Every array is a read-only view into one ``np.memmap`` of the file,
    so processes mapping the same file share its page cache.
    """
    if os.path.getsize(path) == 0:  # np.memmap refuses empty files
        raise ArtifactError(f"{path} is truncated: 0 bytes")
    return _read(np.memmap(path, dtype=np.uint8, mode="r"), path)
