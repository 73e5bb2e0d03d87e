"""The binary frame codec and the atomic file publish (``core.framing``).

Checkpoints, ``.snap`` snapshots and the stream changelog are all built
on these frames: corruption and truncation must be loud, never silent,
and a published file is the old content or the new, never a torn one.
The shared recovery helpers — the temp sweep, the manifest reader and
the whole-frame reader — must never crash on what a dead writer or bit
rot leaves behind.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.framing import (
    FrameCorruptionError,
    FrameTruncatedError,
    ManifestError,
    atomic_write,
    iter_frames,
    pack_frame,
    read_frame,
    read_manifest,
    read_whole_frames,
    sweep_tmp,
    write_frame,
    write_manifest,
)
from tests.conftest import reaped_pid

#: Seeded and offline: the same examples every run.
FUZZ = settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
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


class TestSweepTmp:
    def test_dead_writers_temp_goes_everything_else_stays(self, tmp_path):
        nested = tmp_path / "job" / "checkpoint"
        nested.mkdir(parents=True)
        dead = [
            tmp_path / f"result.json.{reaped_pid()}.tmp",
            nested / f"fc.ckpt.{reaped_pid()}.tmp",
        ]
        live = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            kept = [
                tmp_path / f"job.json.{os.getpid()}.tmp",  # this process
                nested / f"cg.ckpt.{live.pid}.tmp",  # a live child
                tmp_path / "stray.tmp",  # not an atomic_write name
                tmp_path / f".rdfind-probe-{reaped_pid()}.tmp",
                nested / "fc.ckpt.tmp",
                tmp_path / "result.json",  # durable
                nested / "fc.ckpt",
            ]
            for path in dead + kept:
                path.write_bytes(b"x")
            assert sorted(sweep_tmp(str(tmp_path))) == sorted(map(str, dead))
            assert all(path.exists() for path in kept)
        finally:
            live.kill()
            live.wait()
        # Reaped, the child is a dead writer like any other.
        assert sweep_tmp(str(tmp_path)) == [str(nested / f"cg.ckpt.{live.pid}.tmp")]

    def test_missing_directory_sweeps_nothing(self, tmp_path):
        assert sweep_tmp(str(tmp_path / "absent")) == []


class TestManifests:
    def test_round_trip_pins_the_document(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        write_manifest(path, "rdfind-test-manifest", 3, {"seq": 7, "payload": "p"})
        assert open(path, encoding="utf-8").read() == (
            '{\n "format": "rdfind-test-manifest",\n "payload": "p",\n'
            ' "seq": 7,\n "version": 3\n}'
        )
        assert read_manifest(path, "rdfind-test-manifest", 3) == {
            "format": "rdfind-test-manifest",
            "version": 3,
            "seq": 7,
            "payload": "p",
        }
        assert os.listdir(tmp_path) == ["manifest.json"]

    @pytest.mark.parametrize(
        "kind, version", [("rdfind-other-manifest", 3), ("rdfind-test-manifest", 2)]
    )
    def test_other_kind_or_version_is_a_manifest_error(self, tmp_path, kind, version):
        path = str(tmp_path / "manifest.json")
        write_manifest(path, "rdfind-test-manifest", 3, {})
        with pytest.raises(ManifestError):
            read_manifest(path, kind, version)

    def test_missing_file_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_manifest(str(tmp_path / "absent.json"), "rdfind-test-manifest", 3)

    @FUZZ
    @given(
        raw=st.one_of(
            st.binary(max_size=64),
            st.recursive(
                st.none() | st.booleans() | st.integers() | st.text(max_size=8),
                lambda inner: st.lists(inner, max_size=4)
                | st.dictionaries(
                    st.sampled_from(["format", "version", "seq"]) | st.text(max_size=4),
                    inner,
                    max_size=4,
                ),
                max_leaves=12,
            ).map(lambda value: json.dumps(value).encode("utf-8")),
        )
    )
    def test_arbitrary_bytes_give_a_dict_or_a_manifest_error(self, tmp_path, raw):
        path = tmp_path / "manifest.json"
        path.write_bytes(raw)
        try:
            data = read_manifest(str(path), "rdfind-test-manifest", 3)
        except ManifestError:
            return
        assert isinstance(data, dict)
        assert (data["format"], data["version"]) == ("rdfind-test-manifest", 3)


def _frame_file(path, payloads) -> bytes:
    with open(path, "wb") as stream:
        for payload in payloads:
            write_frame(stream, payload)
    return path.read_bytes()


class TestReadWholeFrames:
    @FUZZ
    @given(
        payloads=st.lists(st.binary(max_size=24), max_size=6),
        cut=st.integers(min_value=0),
    )
    def test_a_cut_anywhere_keeps_exactly_the_whole_frames(
        self, tmp_path, payloads, cut
    ):
        path = tmp_path / "frames.bin"
        whole = _frame_file(path, payloads)
        cut %= len(whole) + 1
        os.truncate(path, cut)
        ends = [0]
        for payload in payloads:
            ends.append(ends[-1] + len(pack_frame(payload)))
        kept = max(index for index, end in enumerate(ends) if end <= cut)
        assert read_whole_frames(str(path)) == (payloads[:kept], cut - ends[kept])
        assert path.read_bytes() == whole[: ends[kept]]

    @FUZZ
    @given(
        payloads=st.lists(st.binary(max_size=24), min_size=1, max_size=6),
        data=st.data(),
    )
    def test_a_flipped_crc_or_payload_byte_is_corruption(
        self, tmp_path, payloads, data
    ):
        path = tmp_path / "frames.bin"
        whole = bytearray(_frame_file(path, payloads))
        frame = data.draw(st.integers(0, len(payloads) - 1))
        start = sum(len(pack_frame(payload)) for payload in payloads[:frame])
        # The length field is left alone: a length pointing past the end
        # of the file is indistinguishable from a torn tail.
        offset = data.draw(
            st.integers(start + 4, start + len(pack_frame(payloads[frame])) - 1)
        )
        whole[offset] ^= data.draw(st.integers(1, 255))
        path.write_bytes(bytes(whole))
        with pytest.raises(FrameCorruptionError):
            read_whole_frames(str(path))
        assert path.read_bytes() == bytes(whole)  # left for the caller to judge
