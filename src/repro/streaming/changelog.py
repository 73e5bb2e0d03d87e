"""The durable triple changelog: an append-only add/remove record stream.

Built directly on :mod:`repro.core.framing` — every record is one
CRC-framed JSON payload ``[seq, op, s, p, o]`` — so the changelog
inherits the spill/checkpoint subsystems' corruption detection for free.

Layout: a directory of *segments*.  The writer appends to exactly one
``seg-<firstseq>.open`` file; when it exceeds ``max_segment_bytes`` the
segment is *sealed*: flushed, fsynced, and atomically renamed to
``seg-<firstseq>.log`` (the tmp+fsync+rename idiom — the ``.open`` name
is the tmp name, so a reader can always tell the one possibly-torn file
from the immutable history).  Sequence numbers are monotonic from 1 and
independent of segmentation, so a checkpoint only needs to remember one
integer to replay the exact suffix.

Failure semantics on replay/recovery:

* a **truncated tail** in the open segment is the writer dying
  mid-append — the torn record is dropped with a warning and the log
  continues from the last complete record;
* **CRC damage anywhere**, or truncation inside a *sealed* segment,
  is bit rot and raises :class:`ChangeLogCorruptError` — silently
  skipping records would silently fork the maintained state.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import BinaryIO, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from repro.core.framing import (
    FrameCorruptionError,
    FrameTruncatedError,
    pack_frame,
    read_frame,
)

__all__ = [
    "OP_ADD",
    "OP_REMOVE",
    "ChangeLog",
    "ChangeLogCorruptError",
    "ChangeLogError",
    "ChangeRecord",
]

OP_ADD = "add"
OP_REMOVE = "remove"
_OPS = (OP_ADD, OP_REMOVE)

_SEGMENT_PREFIX = "seg-"
_SEALED_SUFFIX = ".log"
_OPEN_SUFFIX = ".open"
_SEQ_DIGITS = 12
_quote = json.encoder.encode_basestring  # a JSON string, non-ASCII kept as is


class ChangeLogError(ValueError):
    """Base class for changelog failures."""


class ChangeLogCorruptError(ChangeLogError):
    """A changelog segment is damaged beyond safe replay.

    Raised for CRC mismatches anywhere and for truncation inside a
    *sealed* segment (sealed segments are complete by construction, so a
    short one means lost bytes, not a torn append).
    """


class ChangeRecord(NamedTuple):
    """One durable update: a sequenced add or remove of a string triple."""

    seq: int
    op: str
    s: str
    p: str
    o: str

    @property
    def triple(self) -> Tuple[str, str, str]:
        return (self.s, self.p, self.o)


def _segment_name(first_seq: int, sealed: bool) -> str:
    suffix = _SEALED_SUFFIX if sealed else _OPEN_SUFFIX
    return f"{_SEGMENT_PREFIX}{first_seq:0{_SEQ_DIGITS}d}{suffix}"


def _parse_segment_name(name: str) -> Optional[Tuple[int, bool]]:
    """``(first_seq, sealed)`` for a segment file name, else ``None``."""
    if not name.startswith(_SEGMENT_PREFIX):
        return None
    stem, dot, suffix = name[len(_SEGMENT_PREFIX) :].rpartition(".")
    if not dot or not stem.isdigit():
        return None
    if "." + suffix == _SEALED_SUFFIX:
        return int(stem), True
    if "." + suffix == _OPEN_SUFFIX:
        return int(stem), False
    return None


def _encode_record(seq: int, op: str, s: str, p: str, o: str) -> bytes:
    """``[seq, op, s, p, o]`` as compact UTF-8 JSON, no encoder built per record."""
    return f'[{seq},"{op}",{_quote(s)},{_quote(p)},{_quote(o)}]'.encode("utf-8")


def _decode_record(payload: bytes, path: str) -> ChangeRecord:
    try:
        seq, op, s, p, o = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise ChangeLogCorruptError(
            f"{path}: malformed changelog record: {error}"
        ) from error
    if op not in _OPS:
        raise ChangeLogCorruptError(f"{path}: unknown changelog op {op!r}")
    return ChangeRecord(int(seq), op, str(s), str(p), str(o))


class ChangeLog:
    """Durable, replayable add/remove log over a directory of segments.

    ``fsync=True`` (the default) makes :meth:`sync` a real fsync; tests
    and benchmarks that only need process-crash durability can turn it
    off.  Appends themselves only buffer — callers group records into
    batches and :meth:`sync` at batch boundaries (the session does this).
    """

    def __init__(
        self,
        directory: str,
        max_segment_bytes: int = 4 << 20,
        fsync: bool = True,
    ) -> None:
        if max_segment_bytes < 1:
            raise ValueError("max_segment_bytes must be positive")
        self.directory = directory
        self.max_segment_bytes = max_segment_bytes
        self.fsync = fsync
        os.makedirs(directory, exist_ok=True)
        self._segments: List[Tuple[int, str]] = []  # (first_seq, path), sealed
        self._open_first_seq = 1
        self._open_path = ""
        self._handle: Optional[BinaryIO] = None
        self.last_seq = 0
        self._recover()

    # -- recovery ------------------------------------------------------

    def _recover(self) -> None:
        sealed: List[Tuple[int, str]] = []
        open_segments: List[Tuple[int, str]] = []
        for name in os.listdir(self.directory):
            parsed = _parse_segment_name(name)
            if parsed is None:
                continue
            first_seq, is_sealed = parsed
            path = os.path.join(self.directory, name)
            (sealed if is_sealed else open_segments).append((first_seq, path))
        sealed.sort()
        open_segments.sort()
        if len(open_segments) > 1:
            raise ChangeLogCorruptError(
                f"{self.directory}: multiple open segments: "
                f"{[os.path.basename(p) for _seq, p in open_segments]}"
            )
        if open_segments and sealed and open_segments[0][0] <= sealed[-1][0]:
            raise ChangeLogCorruptError(
                f"{self.directory}: open segment predates a sealed one"
            )
        self._segments = sealed
        if sealed:
            # The open segment's name pins where its sequence starts; with
            # no open segment, scan the last sealed one for the tail seq.
            self.last_seq = self._scan_sealed_tail(sealed[-1])
        if open_segments:
            self._open_first_seq, self._open_path = open_segments[0]
            self.last_seq = self._recover_open_segment()
        else:
            self._open_first_seq = self.last_seq + 1
            self._open_path = os.path.join(
                self.directory, _segment_name(self._open_first_seq, sealed=False)
            )
        self._handle = open(self._open_path, "ab")

    def _scan_sealed_tail(self, segment: Tuple[int, str]) -> int:
        """The last sealed segment's tail seq: every frame CRC-checked, one decoded."""
        first_seq, path = segment
        payload = None
        for payload in self._iter_segment(path, sealed=True):
            pass
        return first_seq - 1 if payload is None else _decode_record(payload, path).seq

    def _recover_open_segment(self) -> int:
        """Drop a torn tail record, truncate the file, return the tail seq."""
        last = self._open_first_seq - 1
        good_offset = 0
        with open(self._open_path, "rb") as stream:
            while True:
                try:
                    payload = read_frame(stream)
                except FrameTruncatedError:
                    warnings.warn(
                        f"{self._open_path}: dropping truncated tail record "
                        f"after seq {last} (writer died mid-append)",
                        stacklevel=2,
                    )
                    break
                except FrameCorruptionError as error:
                    raise ChangeLogCorruptError(
                        f"{self._open_path}: {error}"
                    ) from error
                if payload is None:
                    break
                record = _decode_record(payload, self._open_path)
                self._check_seq(record, last)
                last = record.seq
                good_offset = stream.tell()
        if good_offset != os.path.getsize(self._open_path):
            with open(self._open_path, "r+b") as stream:
                stream.truncate(good_offset)
        return last

    def _check_seq(self, record: ChangeRecord, previous: int) -> None:
        if record.seq != previous + 1:
            raise ChangeLogCorruptError(
                f"{self.directory}: sequence gap — record {record.seq} "
                f"follows {previous}"
            )

    # -- appending -----------------------------------------------------

    def append(self, op: str, s: str, p: str, o: str) -> int:
        """Append one record; returns its sequence number (not yet synced)."""
        return self.extend(op, ((s, p, o),))

    def extend(self, op: str, triples: Iterable[Tuple[str, str, str]]) -> int:
        """:meth:`append` ``op`` for each triple in turn; the last sequence number."""
        if op not in _OPS:
            raise ValueError(f"unknown changelog op {op!r} (use add/remove)")
        if self._handle is None:
            raise ChangeLogError("changelog is closed")
        for s, p, o in triples:
            seq = self.last_seq + 1
            self._handle.write(pack_frame(_encode_record(seq, op, s, p, o)))
            self.last_seq = seq
            if self._handle.tell() >= self.max_segment_bytes:
                self.rotate()
        return self.last_seq

    def sync(self) -> None:
        """Flush (and fsync, unless disabled) the open segment."""
        if self._handle is None:
            return
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def rotate(self) -> None:
        """Seal the open segment and start a fresh one.

        Sealing is the durability point: flush + fsync, then an atomic
        rename from the ``.open`` (tmp) name to the immutable ``.log``
        name.  An empty open segment is left alone.
        """
        if self._handle is None or self._handle.tell() == 0:
            return
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        sealed_path = os.path.join(
            self.directory, _segment_name(self._open_first_seq, sealed=True)
        )
        # Not core.framing.atomic_write: the segment was synced just above
        # and is renamed in place, there is no temp copy to publish.
        os.replace(self._open_path, sealed_path)
        self._segments.append((self._open_first_seq, sealed_path))
        self._open_first_seq = self.last_seq + 1
        self._open_path = os.path.join(
            self.directory, _segment_name(self._open_first_seq, sealed=False)
        )
        self._handle = open(self._open_path, "ab")

    def close(self) -> None:
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ChangeLog":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- replay --------------------------------------------------------

    def replay(self, after_seq: int = 0) -> Iterator[ChangeRecord]:
        """Yield every record with ``seq > after_seq`` in order.

        Whole segments strictly before the offset are skipped via their
        file names — replaying from a checkpoint reads only the suffix.
        """
        self.sync()
        segments = [(seq, path, True) for seq, path in self._segments]
        segments.append((self._open_first_seq, self._open_path, False))
        previous = after_seq
        for index, (first_seq, path, is_sealed) in enumerate(segments):
            next_first = (
                segments[index + 1][0] if index + 1 < len(segments) else None
            )
            if next_first is not None and next_first - 1 <= after_seq:
                continue  # the whole segment is at or before the offset
            for payload in self._iter_segment(path, sealed=is_sealed):
                record = _decode_record(payload, path)
                if record.seq <= after_seq:
                    continue
                self._check_seq(record, previous)
                previous = record.seq
                yield record

    def _iter_segment(self, path: str, sealed: bool) -> Iterator[bytes]:
        """The CRC-checked record payloads of one segment, undecoded."""
        if not os.path.exists(path):
            return
        with open(path, "rb") as stream:
            while True:
                try:
                    payload = read_frame(stream)
                except FrameTruncatedError as error:
                    if sealed:
                        raise ChangeLogCorruptError(
                            f"{path}: truncated sealed segment: {error}"
                        ) from error
                    warnings.warn(
                        f"{path}: dropping truncated tail record on replay",
                        stacklevel=2,
                    )
                    return
                except FrameCorruptionError as error:
                    raise ChangeLogCorruptError(f"{path}: {error}") from error
                if payload is None:
                    return
                yield payload

    # -- introspection -------------------------------------------------

    @property
    def segment_count(self) -> int:
        """Sealed segments plus the open one."""
        return len(self._segments) + 1

    def nbytes(self) -> int:
        """Total on-disk size of every segment."""
        if self._handle is not None:
            self._handle.flush()
        total = sum(
            os.path.getsize(path)
            for _seq, path in self._segments
            if os.path.exists(path)
        )
        if os.path.exists(self._open_path):
            total += os.path.getsize(self._open_path)
        return total

    def __repr__(self) -> str:
        return (
            f"<ChangeLog {self.directory!r}: seq {self.last_seq}, "
            f"{self.segment_count} segments>"
        )
