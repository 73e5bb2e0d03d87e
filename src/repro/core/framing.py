"""Binary frame streams and the atomic file publish they are written with.

A frame on disk is ``[4-byte big-endian payload length][4-byte CRC32 of
the payload][payload]``; a stream of frames ends at clean EOF.
Corruption surfaces as :class:`FrameCorruptionError` (checksum mismatch)
and a short read as :class:`FrameTruncatedError`, so a reader can
distinguish "bit rot" from "writer died mid-frame".

The codec is re-exported by :mod:`repro.core.serialization` (the
serialization facade); it lives here, dependency-free, so the shuffle
subsystem (:mod:`repro.dataflow.shuffle`) can build run files on it
without importing the discovery result types.

:func:`atomic_write` is the one way a durable file is published:
written under a temp name beside the target, flushed and fsynced, then
renamed over it — a reader (or a restart after a power cut) sees the old
content or the new, never a torn file.  Two renames stay outside it on
purpose: ``shuffle.write_run`` (scratch run files that a retried task
simply re-cuts must not pay an fsync) and the changelog's seal rename
(the segment is already synced when it is renamed).
"""

from __future__ import annotations

import os
import struct
import zlib
from contextlib import contextmanager
from typing import IO, BinaryIO, Iterator, Optional

__all__ = [
    "FRAME_HEADER",
    "MAX_FRAME_BYTES",
    "FrameError",
    "FrameCorruptionError",
    "FrameTruncatedError",
    "atomic_write",
    "pack_frame",
    "write_frame",
    "read_frame",
    "iter_frames",
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


@contextmanager
def atomic_write(path: str, mode: str = "wb") -> Iterator[IO]:
    """Open a stream whose content replaces ``path`` atomically on exit.

    The temp file lives in the target's directory (a rename is atomic
    only within one filesystem) under a per-process ``*.tmp`` name, so
    concurrent writers of one path never share it and the workspace
    sweepers recognise what a killed writer leaves.  A clean exit
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
