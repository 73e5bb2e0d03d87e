"""The binary frame codec and the atomic file publish (``core.framing``).

Checkpoints, ``.snap`` snapshots and the stream changelog are all built
on these frames: corruption and truncation must be loud, never silent,
and a published file is the old content or the new, never a torn one.
"""

from __future__ import annotations

import os

import pytest

from repro.core.framing import (
    FrameCorruptionError,
    FrameTruncatedError,
    atomic_write,
    iter_frames,
    pack_frame,
    read_frame,
    write_frame,
)


class TestAtomicWrite:
    def test_failed_body_keeps_old_content_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "doc.bin"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with atomic_write(str(path)) as stream:
                stream.write(b"half-written")
                raise RuntimeError("writer died")
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["doc.bin"]

    def test_clean_exit_replaces_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "doc.txt"
        path.write_text("old")
        with atomic_write(str(path), "w") as stream:
            stream.write("né")
        assert path.read_bytes() == "né".encode("utf-8")
        assert os.listdir(tmp_path) == ["doc.txt"]


class TestFrames:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "frames.bin"
        payloads = [b"", b"x", b"hello" * 100, bytes(range(256))]
        with open(path, "wb") as stream:
            written = sum(write_frame(stream, p) for p in payloads)
        assert written == os.path.getsize(path)
        with open(path, "rb") as stream:
            assert list(iter_frames(stream)) == payloads

    def test_read_frame_none_at_clean_eof(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with open(path, "rb") as stream:
            assert read_frame(stream) is None

    def test_corrupted_payload_fails_crc(self, tmp_path):
        frame = bytearray(pack_frame(b"payload-bytes"))
        frame[-1] ^= 0xFF  # flip a payload bit, header stays intact
        path = tmp_path / "corrupt.bin"
        path.write_bytes(bytes(frame))
        with open(path, "rb") as stream:
            with pytest.raises(FrameCorruptionError):
                read_frame(stream)

    def test_absurd_length_is_corruption_not_allocation(self, tmp_path):
        # A flipped high bit in the length field must not make the reader
        # try to allocate gigabytes before the CRC check.
        path = tmp_path / "absurd.bin"
        path.write_bytes(b"\xff\xff\xff\xff\x00\x00\x00\x00")
        with open(path, "rb") as stream:
            with pytest.raises(FrameCorruptionError):
                read_frame(stream)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short-header.bin"
        path.write_bytes(pack_frame(b"data")[:3])
        with open(path, "rb") as stream:
            with pytest.raises(FrameTruncatedError):
                read_frame(stream)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short-payload.bin"
        path.write_bytes(pack_frame(b"data-that-gets-cut")[:-5])
        with open(path, "rb") as stream:
            with pytest.raises(FrameTruncatedError):
                read_frame(stream)
