"""Torture tests for the durable triple changelog (PR 4/5 harness style)."""

import json
import os

import pytest

from repro.core.framing import FRAME_HEADER, iter_frames
from repro.streaming.changelog import (
    OP_ADD,
    OP_REMOVE,
    ChangeLog,
    ChangeLogCorruptError,
    ChangeLogError,
    ChangeRecord,
)


def fill(log, count, start=0):
    for index in range(start, start + count):
        op = OP_ADD if index % 3 else OP_REMOVE
        log.append(op, f"s{index}", f"p{index % 4}", f"o{index}")


def segment_files(directory):
    return sorted(
        name for name in os.listdir(directory) if name.startswith("seg-")
    )


class TestRoundtrip:
    def test_append_replay_roundtrip(self, tmp_path):
        directory = str(tmp_path / "log")
        with ChangeLog(directory) as log:
            seqs = [
                log.append(OP_ADD, "a", "p", "x"),
                log.append(OP_ADD, "b", "p", "y"),
                log.append(OP_REMOVE, "a", "p", "x"),
            ]
            assert seqs == [1, 2, 3]
            records = list(log.replay())
        assert records == [
            ChangeRecord(1, "add", "a", "p", "x"),
            ChangeRecord(2, "add", "b", "p", "y"),
            ChangeRecord(3, "remove", "a", "p", "x"),
        ]
        # A fresh reader sees the same history.
        with ChangeLog(directory) as log:
            assert list(log.replay()) == records
            assert log.last_seq == 3

    def test_bad_op_rejected(self, tmp_path):
        with ChangeLog(str(tmp_path / "log")) as log:
            with pytest.raises(ValueError):
                log.append("upsert", "a", "b", "c")

    def test_closed_log_rejects_appends(self, tmp_path):
        log = ChangeLog(str(tmp_path / "log"))
        log.close()
        with pytest.raises(ChangeLogError):
            log.append(OP_ADD, "a", "b", "c")

    def test_unicode_terms_roundtrip(self, tmp_path):
        with ChangeLog(str(tmp_path / "log")) as log:
            log.append(OP_ADD, "søren", "häßt", "naïveté ∧ 空")
            (record,) = list(log.replay())
        assert record.triple == ("søren", "häßt", "naïveté ∧ 空")


class TestExtend:
    TRIPLES = [(f"s{i}", "häßt", f'"o{i}" ∧ 空\n') for i in range(30)]

    def test_extend_writes_what_repeated_append_writes(self, tmp_path):
        """Same frames, sequence numbers and rotation points: the two
        directories are equal file by file, byte by byte."""
        one, many = str(tmp_path / "one"), str(tmp_path / "many")
        with ChangeLog(one, max_segment_bytes=128) as log:
            for triple in self.TRIPLES:
                tail = log.append(OP_ADD, *triple)
        with ChangeLog(many, max_segment_bytes=128) as log:
            assert log.extend(OP_ADD, self.TRIPLES[:1]) == 1
            assert log.extend(OP_ADD, iter(self.TRIPLES[1:])) == log.last_seq == tail
            assert log.extend(OP_REMOVE, []) == tail  # nothing to write
            assert [r.triple for r in log.replay()] == self.TRIPLES
        assert len(segment_files(one)) > 3
        assert segment_files(many) == segment_files(one)
        for name in segment_files(one):
            with open(os.path.join(one, name), "rb") as a:
                with open(os.path.join(many, name), "rb") as b:
                    assert a.read() == b.read(), name

    def test_record_bytes_are_compact_json(self, tmp_path):
        """The hand-rolled record encoder spells ``json.dumps``."""
        directory = str(tmp_path / "log")
        with ChangeLog(directory) as log:
            log.extend(OP_ADD, self.TRIPLES)
        (name,) = segment_files(directory)
        with open(os.path.join(directory, name), "rb") as stream:
            payloads = list(iter_frames(stream))
        assert payloads == [
            json.dumps([seq, OP_ADD, *triple], ensure_ascii=False, separators=(",", ":"))
            .encode("utf-8")
            for seq, triple in enumerate(self.TRIPLES, 1)
        ]

    def test_bad_op_and_closed_log_refuse_both(self, tmp_path):
        log = ChangeLog(str(tmp_path / "log"))
        with pytest.raises(ValueError):
            log.extend("upsert", self.TRIPLES)
        log.close()
        for write in (log.extend, lambda op, rows: log.append(op, *rows[0])):
            with pytest.raises(ChangeLogError):
                write(OP_ADD, self.TRIPLES)
        assert log.last_seq == 0


class TestRotation:
    def test_rotation_seals_segments(self, tmp_path):
        directory = str(tmp_path / "log")
        with ChangeLog(directory, max_segment_bytes=256) as log:
            fill(log, 40)
            assert log.segment_count > 1
            assert len(list(log.replay())) == 40
        names = segment_files(directory)
        assert sum(name.endswith(".log") for name in names) >= 2
        assert sum(name.endswith(".open") for name in names) <= 1
        # Sealed names pin their first sequence number.
        assert names[0] == "seg-000000000001.log"

    def test_reopen_after_rotation(self, tmp_path):
        directory = str(tmp_path / "log")
        with ChangeLog(directory, max_segment_bytes=256) as log:
            fill(log, 40)
            tail = log.last_seq
        with ChangeLog(directory, max_segment_bytes=256) as log:
            assert log.last_seq == tail
            fill(log, 10, start=100)
            assert len(list(log.replay())) == 50

    def test_replay_from_offset_skips_whole_segments(self, tmp_path):
        directory = str(tmp_path / "log")
        with ChangeLog(directory, max_segment_bytes=256) as log:
            fill(log, 60)
            suffix = list(log.replay(after_seq=45))
            assert [record.seq for record in suffix] == list(range(46, 61))
            assert list(log.replay(after_seq=60)) == []


class TestCorruption:
    def test_truncated_open_tail_dropped_with_warning(self, tmp_path):
        directory = str(tmp_path / "log")
        log = ChangeLog(directory)
        fill(log, 5)
        log.close()
        (open_name,) = [
            n for n in segment_files(directory) if n.endswith(".open")
        ]
        path = os.path.join(directory, open_name)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 3)
        with pytest.warns(UserWarning, match="truncated tail"):
            log = ChangeLog(directory)
        assert log.last_seq == 4
        # The log keeps working: the torn record's seq is reused.
        assert log.append(OP_ADD, "new", "p", "o") == 5
        assert len(list(log.replay())) == 5
        log.close()

    def test_crc_damage_in_open_segment_raises(self, tmp_path):
        directory = str(tmp_path / "log")
        log = ChangeLog(directory)
        fill(log, 5)
        log.close()
        (open_name,) = [
            n for n in segment_files(directory) if n.endswith(".open")
        ]
        path = os.path.join(directory, open_name)
        with open(path, "r+b") as handle:
            handle.seek(FRAME_HEADER.size + 2)  # inside record 1's payload
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(ChangeLogCorruptError):
            ChangeLog(directory)

    def test_sealed_segment_damage_raises_on_replay(self, tmp_path):
        directory = str(tmp_path / "log")
        with ChangeLog(directory, max_segment_bytes=128) as log:
            fill(log, 30)
            sealed = [n for n in segment_files(directory) if n.endswith(".log")]
            assert sealed
        path = os.path.join(directory, sealed[0])
        with open(path, "r+b") as handle:
            handle.seek(FRAME_HEADER.size + 1)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0xFF]))
        log = ChangeLog(directory)  # recovery only scans the tail
        with pytest.raises(ChangeLogCorruptError):
            list(log.replay())
        log.close()

    def test_truncated_sealed_segment_raises(self, tmp_path):
        directory = str(tmp_path / "log")
        with ChangeLog(directory, max_segment_bytes=128) as log:
            fill(log, 30)
            sealed = [n for n in segment_files(directory) if n.endswith(".log")]
        path = os.path.join(directory, sealed[-1])
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 2)
        # The damaged sealed segment is the one recovery scans for the
        # tail seq, so the error surfaces at open time.
        with pytest.raises(ChangeLogCorruptError):
            ChangeLog(directory)

    def test_multiple_open_segments_rejected(self, tmp_path):
        directory = str(tmp_path / "log")
        log = ChangeLog(directory)
        fill(log, 3)
        log.close()
        stray = os.path.join(directory, "seg-000000000099.open")
        with open(stray, "wb"):
            pass
        with pytest.raises(ChangeLogCorruptError, match="multiple open"):
            ChangeLog(directory)
