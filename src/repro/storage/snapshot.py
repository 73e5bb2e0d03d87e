"""Versioned, CRC-framed on-disk snapshots of encoded datasets.

A snapshot serializes an :class:`~repro.storage.columnar.EncodedDataset`
— the term dictionary plus the three id columns — into a single file
that loads back in O(ms): the file is ``mmap``-ed, the id columns are
adopted with one ``array.frombytes`` memcpy each, and the dictionary
terms stay *lazy* — a :class:`SnapshotTermDictionary` serves ``decode``
straight off the mapped UTF-8 blob and only materializes the terms a
run actually renders.  Re-parsing N-Triples, by contrast, re-tokenizes
and re-interns every term of every triple.

On-disk layout (after an 8-byte magic)::

    frame 0   header JSON: version, name, triples, terms, typecode,
              byteorder
    frame 1   dictionary term-end offsets, array('q') bytes
    frame 2+  dictionary UTF-8 blob (chunked)
    ...       s column bytes (chunked), p column bytes, o column bytes

Every frame is the ``[length][CRC32][payload]`` format of
:mod:`repro.core.framing`, so bit rot and truncation surface as typed
errors instead of silently wrong discovery output.  Payloads larger
than the frame cap are split across frames; the reader knows each
section's byte length from the header and reassembles.

Durability follows the repo convention: write to a temp file in the
destination directory, fsync, rename (:func:`repro.core.framing.atomic_write`).

:func:`load_with_snapshot_cache` is the warm-start policy used by the
CLI resume path and the job server: given a cache key for the source
input, load the snapshot if one exists and is intact, else parse from
source and leave a snapshot behind for next time.  A corrupted snapshot
is *never* trusted: it logs a warning and falls back to re-parsing.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import sys
import zlib
from array import array
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.core.framing import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    atomic_write,
    fingerprint_fields,
    write_frame,
)
from repro.storage.columnar import EncodedDataset
from repro.storage.dictionary import TermDictionary

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_SUFFIX",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotTermDictionary",
    "load_snapshot",
    "load_with_snapshot_cache",
    "save_snapshot",
    "snapshot_cache_fields",
    "snapshot_info",
]

#: File magic: format name + two-digit major version.
SNAPSHOT_MAGIC = b"RDSNAP01"

#: Header ``version`` field; bumped on any layout change.
SNAPSHOT_VERSION = 1

#: Canonical snapshot file extension (recognized by ``repro.inputs.load_input``).
SNAPSHOT_SUFFIX = ".snap"

#: Split section payloads into frames of at most this many bytes (well
#: under ``MAX_FRAME_BYTES``; small enough that one frame's CRC pass
#: stays cache-friendly).
_FRAME_CHUNK = 64 << 20


class SnapshotError(ValueError):
    """A snapshot file cannot be trusted (corrupt, truncated, or alien).

    Callers with a source of truth (the original input) should catch
    this, warn, and re-parse — never use a partially-decoded snapshot.
    """


class SnapshotFormatError(SnapshotError):
    """The file is not a snapshot (bad magic) or an unsupported version."""


# ----------------------------------------------------------------------
# saving
# ----------------------------------------------------------------------


def save_snapshot(encoded: EncodedDataset, path: str) -> dict:
    """Write ``encoded`` to ``path`` atomically; returns the header dict.

    Term ids are stored exactly as loaded, so the dataset digest that
    checkpoint resume keys on survives the round trip.
    """
    dictionary = encoded.dictionary
    ends = array("q")
    blob_parts: List[bytes] = []
    position = 0
    for term in dictionary.terms():
        data = term.encode("utf-8", "surrogatepass")
        position += len(data)
        ends.append(position)
        blob_parts.append(data)
    blob = b"".join(blob_parts)
    s, p, o = encoded.columns
    header = {
        "version": SNAPSHOT_VERSION,
        "name": encoded.name,
        "triples": len(encoded),
        "terms": len(dictionary),
        "typecode": s.typecode,
        "byteorder": sys.byteorder,
    }
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with atomic_write(path) as stream:
        stream.write(SNAPSHOT_MAGIC)
        write_frame(stream, json.dumps(header, sort_keys=True).encode("utf-8"))
        _write_section(stream, ends.tobytes())
        _write_section(stream, blob)
        for column in (s, p, o):
            _write_section(stream, column.tobytes())
    return header


def _write_section(stream, payload: bytes) -> None:
    """Write one section, split across frames if it exceeds the cap.

    A zero-byte section still writes one (empty) frame so the reader's
    frame count is deterministic.
    """
    if not payload:
        write_frame(stream, b"")
        return
    view = memoryview(payload)
    for start in range(0, len(view), _FRAME_CHUNK):
        write_frame(stream, view[start : start + _FRAME_CHUNK])


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------


class _FrameWalker:
    """Sequential frame reader over an mmap-ed (or read) buffer.

    Re-implements the :mod:`repro.core.framing` read loop over a
    ``memoryview`` instead of a file object so payload slices stay
    zero-copy views into the mapping.
    """

    def __init__(self, view: memoryview) -> None:
        self._view = view
        self._pos = 0

    def next_frame(self) -> memoryview:
        view, pos = self._view, self._pos
        if pos + FRAME_HEADER.size > len(view):
            raise SnapshotError(
                f"snapshot ended inside a frame header at byte {pos}"
            )
        length, checksum = FRAME_HEADER.unpack_from(view, pos)
        pos += FRAME_HEADER.size
        if length > MAX_FRAME_BYTES:
            raise SnapshotError(
                f"declared frame length {length} exceeds the frame cap"
            )
        if pos + length > len(view):
            raise SnapshotError(
                f"snapshot ended inside a {length}-byte frame payload"
            )
        payload = view[pos : pos + length]
        if zlib.crc32(payload) != checksum:
            raise SnapshotError(
                f"snapshot frame CRC mismatch at byte {self._pos}"
            )
        self._pos = pos + length
        return payload

    def next_section(self, nbytes: int) -> List[memoryview]:
        """The frames making up a section of ``nbytes`` total bytes."""
        frames: List[memoryview] = []
        remaining = nbytes
        while True:
            frame = self.next_frame()
            frames.append(frame)
            remaining -= len(frame)
            if remaining <= 0:
                break
        if remaining < 0:
            raise SnapshotError(
                f"snapshot section overruns its declared {nbytes} bytes"
            )
        return frames


class SnapshotTermDictionary(TermDictionary):
    """A term dictionary decoding lazily off a snapshot's UTF-8 blob.

    ``decode`` slices the mapped blob on first use and caches the
    string; the forward (term -> id) index is built only if something
    actually encodes or looks up by string (discovery over an encoded
    dataset never does).  Everything else behaves exactly like the eager
    :class:`TermDictionary` it subclasses.
    """

    __slots__ = ("_blob", "_ends", "_indexed", "_keepalive")

    def __init__(self, blob: memoryview, ends: array, keepalive=None) -> None:
        super().__init__()
        self._blob = blob
        self._ends = ends
        self._indexed = False
        self._keepalive = keepalive
        self._id_to_term = [None] * len(ends)  # decoded on first use
        self._utf8_payload = len(blob)

    def decode(self, term_id: int) -> str:
        term = self._id_to_term[term_id]
        if term is None:
            start = self._ends[term_id - 1] if term_id else 0
            term = str(self._blob[start : self._ends[term_id]], "utf-8", "surrogatepass")
            self._id_to_term[term_id] = term
        return term

    def terms(self) -> Iterator[str]:
        decode = self.decode
        return (decode(term_id) for term_id in range(len(self._id_to_term)))

    def _ensure_index(self) -> None:
        """Materialize every term and the forward map (first string use)."""
        if self._indexed:
            return
        self._term_to_id = {
            term: term_id for term_id, term in enumerate(self.terms())
        }
        self._indexed = True

    def __contains__(self, term: str) -> bool:
        self._ensure_index()
        return super().__contains__(term)

    def lookup(self, term: str) -> Optional[int]:
        self._ensure_index()
        return super().lookup(term)

    def encode(self, term: str) -> int:
        self._ensure_index()
        return super().encode(term)

    def encode_rows(self, rows):
        self._ensure_index()
        return super().encode_rows(rows)

    def encode_existing(self, term: str) -> int:
        self._ensure_index()
        return super().encode_existing(term)

    def materialize(self) -> TermDictionary:
        """An eager, self-contained copy (no mmap references)."""
        return _rebuild_eager_dictionary(self.terms())

    def __reduce__(self):
        # mmap-backed views cannot cross a pickle boundary (the process
        # executor pickles operator state); ship an eager copy instead.
        return (_rebuild_eager_dictionary, (list(self.terms()),))


def _rebuild_eager_dictionary(terms: Iterable[str]) -> TermDictionary:
    dictionary = TermDictionary()
    dictionary.encode_many(terms)
    return dictionary


def _map_file(stream) -> Tuple[memoryview, object]:
    """Map an open file; returns ``(view, keepalive)``.

    Empty files cannot be mmap-ed (ValueError) — fall back to a read,
    which for a zero-byte "snapshot" just surfaces the bad-magic error.
    """
    try:
        mapped = mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ)
    except ValueError:
        data = stream.read()
        return memoryview(data), data
    return memoryview(mapped), mapped


def _read_layout(path: str):
    """Open + map ``path`` and decode through the header.

    Returns ``(header, walker, view, keepalive)``; any structural
    problem raises :class:`SnapshotError`.
    """
    try:
        stream = open(path, "rb")
    except OSError as error:
        raise SnapshotError(f"cannot open snapshot {path}: {error}") from error
    with stream:
        view, keepalive = _map_file(stream)
    if len(view) < len(SNAPSHOT_MAGIC) or bytes(view[: len(SNAPSHOT_MAGIC)]) != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(f"{path} is not an RDFind snapshot (bad magic)")
    walker = _FrameWalker(view[len(SNAPSHOT_MAGIC) :])
    try:
        header = json.loads(bytes(walker.next_frame()).decode("utf-8"))
    except SnapshotError:
        raise
    except (ValueError, UnicodeDecodeError) as error:
        raise SnapshotError(f"snapshot header unreadable: {error}") from error
    version = header.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotFormatError(
            f"snapshot version {version!r} is not supported "
            f"(expected {SNAPSHOT_VERSION})"
        )
    if header.get("byteorder") != sys.byteorder:
        raise SnapshotFormatError(
            f"snapshot byteorder {header.get('byteorder')!r} does not match "
            f"this host ({sys.byteorder})"
        )
    return header, walker, view, keepalive


def snapshot_info(path: str) -> dict:
    """The header of a snapshot file (cheap: magic + first frame only)."""
    header, _walker, _view, _keepalive = _read_layout(path)
    return header


def load_snapshot(path: str) -> EncodedDataset:
    """Load a snapshot into an :class:`EncodedDataset`.

    The id columns are adopted with one ``frombytes`` each; the
    dictionary decodes terms lazily off the mapping.  Any structural
    damage — bad magic, wrong version, CRC mismatch, truncation, id
    range violations — raises :class:`SnapshotError`.
    """
    header, walker, _view, keepalive = _read_layout(path)
    terms = header.get("terms", 0)
    triples = header.get("triples", 0)
    typecode = header.get("typecode")
    if typecode not in ("i", "q"):
        raise SnapshotError(f"snapshot column typecode {typecode!r} unknown")
    itemsize = array(typecode).itemsize
    try:
        ends = _section_array(walker, "q", terms, terms * 8)
        blob_nbytes = ends[-1] if terms else 0
        if blob_nbytes < 0 or (terms and min(ends) < 0):
            raise SnapshotError("snapshot dictionary offsets are negative")
        blob_frames = walker.next_section(blob_nbytes)
        columns = [
            _section_array(walker, typecode, triples, triples * itemsize)
            for _ in range(3)
        ]
    except SnapshotError:
        raise
    except (ValueError, OverflowError, struct.error) as error:
        raise SnapshotError(f"snapshot payload undecodable: {error}") from error
    if len(blob_frames) == 1:
        blob = blob_frames[0]
    else:
        blob = memoryview(b"".join(bytes(f) for f in blob_frames))
    dictionary = SnapshotTermDictionary(blob, ends, keepalive=keepalive)
    for column in columns:
        if len(column) and min(column) < 0:
            raise SnapshotError("snapshot columns contain negative term ids")
        if len(column) and terms and max(column) >= terms:
            raise SnapshotError(
                "snapshot columns reference ids beyond the dictionary"
            )
    try:
        return EncodedDataset.from_columns(
            *columns, dictionary=dictionary, name=header.get("name", "")
        )
    except ValueError as error:
        raise SnapshotError(f"snapshot columns inconsistent: {error}") from error


def _section_array(walker: _FrameWalker, typecode: str, count: int, nbytes: int) -> array:
    """Read one section into an ``array`` of exactly ``count`` items."""
    column = array(typecode)
    for frame in walker.next_section(nbytes):
        column.frombytes(frame)
    if len(column) != count:
        raise SnapshotError(
            f"snapshot section holds {len(column)} items, header says {count}"
        )
    return column


# ----------------------------------------------------------------------
# cache policy
# ----------------------------------------------------------------------


def snapshot_cache_fields(spec: str, scale: float = 1.0) -> dict:
    """The cache-key fields for a CLI/server input spec.

    The cache file is named by their
    :func:`~repro.core.framing.fingerprint_fields`.

    Registry refs (``dataset:<name>``) are deterministic generators, so
    name + scale identify them; file inputs additionally fold in size and
    mtime so an edited source file misses the cache instead of serving a
    stale snapshot.
    """
    fields = {
        "spec": spec,
        "scale": scale,
        "snapshot_version": SNAPSHOT_VERSION,
    }
    if not spec.startswith("dataset:"):
        try:
            status = os.stat(spec)
        except OSError:
            pass
        else:
            fields["st_size"] = status.st_size
            fields["st_mtime_ns"] = status.st_mtime_ns
    return fields


def load_with_snapshot_cache(
    snapshot_dir: str,
    key_fields: dict,
    loader: Callable[[], EncodedDataset],
) -> Tuple[EncodedDataset, bool]:
    """Load from the snapshot cache, else parse and populate it.

    Returns ``(dataset, hit)``.  A damaged snapshot is reported to
    stderr and silently *replaced* by a re-parse — wrong answers are
    never an option; a failed cache write is also non-fatal (the parse
    result is still returned).
    """
    path = os.path.join(
        snapshot_dir, fingerprint_fields(**key_fields) + SNAPSHOT_SUFFIX
    )
    if os.path.exists(path):
        try:
            return load_snapshot(path), True
        except SnapshotError as error:
            print(
                f"warning: snapshot {path} unusable ({error}); re-parsing source",
                file=sys.stderr,
            )
    dataset = loader()
    try:
        save_snapshot(dataset, path)
    except OSError as error:
        print(
            f"warning: could not write snapshot {path}: {error}",
            file=sys.stderr,
        )
    return dataset, False
