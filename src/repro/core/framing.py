"""Binary frame streams, the atomic file publish, and the one fingerprint.

A frame on disk is ``[4-byte big-endian payload length][4-byte CRC32 of
the payload][payload]``; a stream of frames ends at clean EOF.
Corruption surfaces as :class:`FrameCorruptionError` (checksum mismatch)
and a short read as :class:`FrameTruncatedError`, so a reader can
distinguish "bit rot" from "writer died mid-frame".

Checkpoints, ``.snap`` snapshots and the stream changelog are all
built on this codec; it is dependency-free, so any of them can import it
without pulling in the discovery result types.

:func:`atomic_write` is the one way a durable file is published:
written under a temp name beside the target, flushed and fsynced, then
renamed over it — a reader (or a restart after a power cut) sees the old
content or the new, never a torn file; :func:`atomic_write_json` is it
for every JSON document (manifests, job records, metrics).  One rename
stays outside it on purpose: the changelog's seal rename (the segment is
already synced when it is renamed).

Recovery lives here too.  :func:`sweep_tmp` removes a dead writer's
temps; each directory's owner calls it when it opens the directory, so
no signal handler or exit hook is needed.  :func:`read_manifest` checks
the ``format``/``version`` JSON manifests :func:`write_manifest`
publishes, and :func:`read_whole_frames` cuts a torn last frame off an
append-only frame file.

:func:`fingerprint_fields` is the one identity hash of durable state:
checkpoint manifests, server result-cache keys, fetch workspaces and
snapshot cache file names are all keyed on it.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import struct
import zlib
from contextlib import contextmanager
from typing import IO, Any, BinaryIO, Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "FRAME_HEADER",
    "MAX_FRAME_BYTES",
    "FrameError",
    "FrameCorruptionError",
    "FrameTruncatedError",
    "ManifestError",
    "atomic_write",
    "atomic_write_json",
    "sweep_tmp",
    "write_manifest",
    "check_manifest",
    "read_manifest",
    "fingerprint_fields",
    "pack_frame",
    "write_frame",
    "read_frame",
    "iter_frames",
    "read_whole_frames",
]

#: ``[payload length][CRC32 of payload]``, both unsigned 32-bit big-endian.
FRAME_HEADER = struct.Struct(">II")

#: Upper bound on a single frame's payload; a declared length beyond this
#: is treated as corruption (it would otherwise make a flipped length
#: byte allocate gigabytes before the CRC ever gets checked).
MAX_FRAME_BYTES = 1 << 30


class FrameError(ValueError):
    """Base class for binary-frame stream failures."""


class FrameCorruptionError(FrameError):
    """A frame's payload does not match its CRC32 (or its length is absurd)."""


class FrameTruncatedError(FrameError):
    """The stream ended in the middle of a frame (writer died mid-write)."""


class ManifestError(ValueError):
    """A manifest is unreadable, not a JSON object, or of another kind/version."""


#: What :func:`atomic_write` names its temp: ``<name>.<writer pid>.tmp``.
_TMP_NAME = re.compile(r"^.+\.(\d+)\.tmp$")


@contextmanager
def atomic_write(path: str, mode: str = "wb") -> Iterator[IO]:
    """Open a stream whose content replaces ``path`` atomically on exit.

    The temp file lives in the target's directory (a rename is atomic
    only within one filesystem) under a per-process ``<name>.<pid>.tmp``
    name, so concurrent writers of one path never share it and
    :func:`sweep_tmp` recognises what a killed writer leaves.  A clean exit
    flushes, fsyncs and renames; any exception unlinks the temp and
    leaves ``path`` untouched.
    """
    tmp_path = f"{path}.{os.getpid()}.tmp"
    encoding = None if "b" in mode else "utf-8"
    try:
        with open(tmp_path, mode, encoding=encoding) as stream:
            yield stream
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def atomic_write_json(path: str, payload: Any) -> None:
    """Publish a JSON document through :func:`atomic_write`."""
    with atomic_write(path, "w") as stream:
        json.dump(payload, stream, indent=1, sort_keys=True)


def sweep_tmp(directory: str) -> List[str]:
    """Remove the temps of dead :func:`atomic_write` writers under ``directory``.

    Walks the whole tree; returns the removed paths.  A live writer's
    temp (this process's included) and every other name stay.
    """
    removed: List[str] = []
    for dirpath, _dirnames, filenames in os.walk(directory):
        for filename in filenames:
            match = _TMP_NAME.match(filename)
            if match is None or not _writer_gone(int(match.group(1))):
                continue
            path = os.path.join(dirpath, filename)
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - swept concurrently
                continue
            removed.append(path)
    return removed


def _writer_gone(pid: int) -> bool:
    """Whether no process with ``pid`` exists (so its temp is litter)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (OSError, OverflowError):  # another user's process, or no such PID
        pass
    return False


def write_manifest(path: str, kind: str, version: int, fields: Mapping[str, Any]) -> None:
    """Publish ``fields`` as a ``kind``/``version`` JSON manifest."""
    atomic_write_json(path, {**fields, "format": kind, "version": version})


def check_manifest(data: Any, kind: str, version: int) -> Dict[str, Any]:
    """``data`` itself if it is a ``kind`` manifest of ``version``, else
    :class:`ManifestError`; the caller checks its own fields."""
    if not isinstance(data, dict):
        raise ManifestError(f"manifest is a JSON {type(data).__name__}, not an object")
    found = (data.get("format"), data.get("version"))
    if found != (kind, version):
        raise ManifestError(f"not a {kind} manifest of version {version}: {found!r}")
    return data


def read_manifest(path: str, kind: str, version: int) -> Dict[str, Any]:
    """Read and check a manifest: a missing file is :class:`FileNotFoundError`,
    anything else wrong with it (unreadable, not UTF-8 JSON, not an
    object, another ``kind`` or ``version``) a :class:`ManifestError`."""
    try:
        with open(path, "rb") as stream:
            data = json.loads(stream.read().decode("utf-8"))
    except FileNotFoundError:
        raise
    except (OSError, ValueError, RecursionError) as error:
        raise ManifestError(f"unreadable manifest {path}: {error}") from error
    return check_manifest(data, kind, version)


def fingerprint_fields(**fields: Any) -> str:
    """A stable BLAKE2b-128 fingerprint over named fields.

    Fields are canonicalized as sorted ``key=repr(value)`` lines, so two
    calls fingerprint equal iff every field does — insertion order and
    dict iteration order cannot leak in.  The scheme is frozen: every
    job dir, checkpoint and snapshot cache entry on disk is named by it.
    """
    digest = hashlib.blake2b(digest_size=16)
    for key in sorted(fields):
        digest.update(f"{key}={fields[key]!r}\n".encode("utf-8"))
    return digest.hexdigest()


def pack_frame(payload: bytes) -> bytes:
    """One length-prefixed, CRC-protected frame as bytes."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(f"frame payload of {len(payload)} bytes is too large")
    return FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def write_frame(stream: BinaryIO, payload: bytes) -> int:
    """Append one frame to ``stream``; returns the bytes written."""
    frame = pack_frame(payload)
    stream.write(frame)
    return len(frame)


def read_frame(stream: BinaryIO) -> Optional[bytes]:
    """Read the next frame's payload, or ``None`` at clean end-of-stream.

    Raises :class:`FrameTruncatedError` when the stream ends inside a
    frame and :class:`FrameCorruptionError` when the payload fails its
    CRC check.
    """
    header = stream.read(FRAME_HEADER.size)
    if not header:
        return None
    if len(header) < FRAME_HEADER.size:
        raise FrameTruncatedError(
            f"stream ended inside a frame header ({len(header)} of "
            f"{FRAME_HEADER.size} bytes)"
        )
    length, checksum = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameCorruptionError(
            f"declared frame length {length} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    payload = stream.read(length)
    if len(payload) < length:
        raise FrameTruncatedError(
            f"stream ended inside a frame payload ({len(payload)} of {length} bytes)"
        )
    if zlib.crc32(payload) != checksum:
        raise FrameCorruptionError(
            f"frame CRC mismatch (expected {checksum:#010x}, "
            f"got {zlib.crc32(payload):#010x})"
        )
    return payload


def iter_frames(stream: BinaryIO) -> Iterator[bytes]:
    """Yield every frame payload in ``stream`` until clean EOF."""
    while True:
        payload = read_frame(stream)
        if payload is None:
            return
        yield payload


def read_whole_frames(path: str) -> Tuple[List[bytes], int]:
    """Every whole frame's payload in an append-only frame file, and the
    number of bytes of a torn last frame (a writer died mid-append) cut
    off its end.  CRC damage raises :class:`FrameCorruptionError` and
    leaves the file as it is.
    """
    payloads: List[bytes] = []
    with open(path, "rb") as stream:
        end = 0
        try:
            for payload in iter_frames(stream):
                payloads.append(payload)
                end = stream.tell()
        except FrameTruncatedError:
            pass
        size = stream.seek(0, os.SEEK_END)
    if end < size:
        os.truncate(path, end)
    return payloads, size - end
