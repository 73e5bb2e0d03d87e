"""Compressed resident forms of the columnar storage layer.

This is the "storage v2" layer from the compressed vertical-partitioning
line of work cited in PAPERS.md ("Compressed Vertical Partitioning for
Full-In-Memory RDF Management", "Compressed k²-Triples"): the id columns
of :class:`~repro.storage.columnar.EncodedDataset` and the posting lists
of :class:`~repro.storage.vertical.VerticalPartitionStore` keep their
exact logical content but drop to a fraction of the bytes.

Three building blocks:

* **Delta + zigzag + varint posting lists** (:class:`FrozenPostingList`)
  — a posting list is stored as LEB128 varints of zigzag-coded deltas
  between consecutive entries, in the original insertion order.  RDF
  posting lists are runs of near-consecutive row offsets within one
  predicate partition, so most deltas fit one byte (vs the 8-byte ``'q'``
  slots of the mutable form).
* **Bit-packed columns** (:class:`BitPackedColumn`) — a fixed-width
  packing of a non-negative id column at exactly the bits the largest
  value needs, chunked so random access stays O(1).
* **Frequency-ordered term codes** (:func:`frequency_order`,
  :func:`remap_by_frequency`, :class:`CompressedDataset`) — term ids are
  re-ranked by descending occurrence count so the hottest terms (RDF's
  few predicates, popular objects) get the shortest codes; the predicate
  column of a typical dataset then packs at well under a byte per entry.

:class:`CompressedDataset` combines the latter two into a compressed
twin of an ``EncodedDataset`` that iterates the *original* term ids (the
permutation is inverted on the way out), so anything downstream sees the
same triples while the resident set shrinks by the ~2-3x measured in
``benchmarks/bench_storage_encoding.py``.

Everything here is content-preserving: compression may never change a
discovered byte, only where the bytes live.
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.storage.columnar import EncodedDataset
from repro.storage.dictionary import EncodedTriple, TermDictionary

__all__ = [
    "BitPackedColumn",
    "packed_column_nbytes",
    "CompressedDataset",
    "FrozenPostingList",
    "frequency_order",
    "frequency_rank",
    "remap_by_frequency",
]


def packed_column_nbytes(column: Sequence[int]) -> int:
    """Bytes a non-negative id column occupies when bit-packed.

    The fixed-width packing of :class:`BitPackedColumn`: every value at
    the bits the column maximum needs (at least 1), rounded up to whole
    bytes.
    """
    count = len(column)
    if not count:
        return 0
    width = max(1, max(column).bit_length())
    return (count * width + 7) // 8


# ----------------------------------------------------------------------
# varint / zigzag codecs
# ----------------------------------------------------------------------


def _zigzag(value: int) -> int:
    """Map a signed int to an unsigned one with small-magnitude bias."""
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def _unzigzag(value: int) -> int:
    """Inverse of :func:`_zigzag`."""
    return (value >> 1) ^ -(value & 1)


def _write_uvarint(out: bytearray, value: int) -> None:
    """Append one LEB128 varint (7 payload bits per byte)."""
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_uvarint(data, pos: int) -> Tuple[int, int]:
    """Decode one LEB128 varint at ``pos``; returns ``(value, next_pos)``."""
    value = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, pos
        shift += 7


class FrozenPostingList:
    """An immutable posting list as zigzag-delta varints.

    Entry order is exactly the mutable ``array('q')`` order it was frozen
    from, so every scan that iterated the mutable list yields the same
    sequence — compression is invisible to
    :meth:`~repro.storage.vertical.VerticalPartitionStore.match`.
    """

    __slots__ = ("_data", "_count")

    def __init__(self, data: bytes, count: int) -> None:
        self._data = data
        self._count = count

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "FrozenPostingList":
        """Freeze a sequence of (possibly unordered) 64-bit ints."""
        out = bytearray()
        previous = 0
        count = 0
        for value in values:
            _write_uvarint(out, _zigzag(value - previous))
            previous = value
            count += 1
        return cls(bytes(out), count)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[int]:
        data = self._data
        pos = 0
        value = 0
        for _ in range(self._count):
            delta, pos = _read_uvarint(data, pos)
            value += _unzigzag(delta)
            yield value

    def tolist(self) -> List[int]:
        return list(self)

    def nbytes(self) -> int:
        """Resident payload bytes of the packed deltas."""
        return len(self._data)

    def __repr__(self) -> str:
        return f"<FrozenPostingList: {self._count} entries, {len(self._data)} bytes>"


# ----------------------------------------------------------------------
# bit-packed columns
# ----------------------------------------------------------------------

#: Values per packing chunk: large enough to amortize the Python-level
#: big-int shifting, small enough that decoding one chunk for a point
#: read stays cheap.
_CHUNK = 1024


class BitPackedColumn:
    """A read-only id column packed at a fixed bit width.

    Values are packed big-endian into per-chunk big integers of
    :data:`_CHUNK` values each, every chunk padded up to a byte boundary,
    so ``column[i]`` touches only the few bytes its value spans.  Widths
    are whatever the column's maximum needs (not rounded to a power of
    two) — the whole point is the sub-byte predicate columns that
    frequency-ordered codes produce.
    """

    __slots__ = ("_data", "_count", "_width", "_stride")

    def __init__(self, data: bytes, count: int, width: int) -> None:
        self._data = data
        self._count = count
        self._width = width
        self._stride = (_CHUNK * width + 7) // 8

    @classmethod
    def pack(cls, values: Sequence[int], width: int = None) -> "BitPackedColumn":
        """Pack a sequence of non-negative ints at ``width`` bits each."""
        count = len(values)
        if count:
            low = min(values)
            if low < 0:
                raise ValueError(f"cannot bit-pack negative value {low}")
            needed = max(1, max(values).bit_length())
        else:
            needed = 1
        if width is None:
            width = needed
        elif needed > width:
            raise ValueError(
                f"values need {needed} bits, packing width is {width}"
            )
        out = bytearray()
        for start in range(0, count, _CHUNK):
            chunk = values[start : start + _CHUNK]
            acc = 0
            for value in chunk:
                acc = (acc << width) | value
            out += acc.to_bytes((len(chunk) * width + 7) // 8, "big")
        return cls(bytes(out), count, width)

    def __len__(self) -> int:
        return self._count

    @property
    def width(self) -> int:
        """Bits per value."""
        return self._width

    def _chunk_values(self, chunk_index: int) -> int:
        base = chunk_index * _CHUNK
        return min(_CHUNK, self._count - base)

    def __getitem__(self, index: int) -> int:
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError("BitPackedColumn index out of range")
        chunk_index, offset = divmod(index, _CHUNK)
        width = self._width
        values = self._chunk_values(chunk_index)
        chunk_bytes = (values * width + 7) // 8
        pad = chunk_bytes * 8 - values * width
        bit = pad + offset * width
        first, last = bit // 8, (bit + width - 1) // 8
        base = chunk_index * self._stride
        window = int.from_bytes(self._data[base + first : base + last + 1], "big")
        shift = (last + 1) * 8 - (bit + width)
        return (window >> shift) & ((1 << width) - 1)

    def __iter__(self) -> Iterator[int]:
        width = self._width
        mask = (1 << width) - 1
        data = self._data
        stride = self._stride
        chunks = (self._count + _CHUNK - 1) // _CHUNK
        for chunk_index in range(chunks):
            values = self._chunk_values(chunk_index)
            base = chunk_index * stride
            acc = int.from_bytes(
                data[base : base + (values * width + 7) // 8], "big"
            )
            decoded = [0] * values
            for offset in range(values - 1, -1, -1):
                decoded[offset] = acc & mask
                acc >>= width
            yield from decoded

    def to_array(self, typecode: str = "q") -> array:
        """Unpack back to a mutable ``array`` column."""
        return array(typecode, self)

    def nbytes(self) -> int:
        """Resident payload bytes of the packed buffer."""
        return len(self._data)

    def __repr__(self) -> str:
        return (
            f"<BitPackedColumn: {self._count} values x {self._width} bits, "
            f"{len(self._data)} bytes>"
        )


# ----------------------------------------------------------------------
# frequency-ordered term codes
# ----------------------------------------------------------------------


def frequency_order(encoded: EncodedDataset) -> List[int]:
    """Term ids ordered by descending occurrence count (ties: old id).

    The returned list maps *new code -> old id*; every id the dictionary
    has assigned appears exactly once, including ids that no longer occur
    in any column (they sink to the tail).
    """
    counts = Counter()
    for column in encoded.columns:
        counts.update(column)
    return sorted(
        range(len(encoded.dictionary)),
        key=lambda term_id: (-counts[term_id], term_id),
    )


def frequency_rank(order: Sequence[int]) -> array:
    """Invert a :func:`frequency_order` permutation to *old id -> new code*."""
    rank = array("q", bytes(8 * len(order)))
    for code, term_id in enumerate(order):
        rank[term_id] = code
    return rank


def remap_by_frequency(encoded: EncodedDataset) -> EncodedDataset:
    """A new dataset whose ids are frequency-ordered codes.

    The dictionary's terms are re-interned in rank order (hot terms get
    ids 0, 1, ...), and every column value is rewritten through the same
    permutation, so the *decoded string triples are identical* — only the
    integer coding changes.  Used by snapshot saving (``--remap``) and by
    :class:`CompressedDataset`, which additionally inverts the map on
    iteration.
    """
    order = frequency_order(encoded)
    rank = frequency_rank(order)
    decode = encoded.dictionary.decode
    dictionary = TermDictionary()
    for term_id in order:
        dictionary.encode(decode(term_id))
    remapped = EncodedDataset(dictionary=dictionary, name=encoded.name)
    append = remapped.append_ids
    for s, p, o in zip(*encoded.columns):
        append(rank[s], rank[p], rank[o])
    return remapped


class CompressedDataset:
    """The compressed resident twin of an :class:`EncodedDataset`.

    Internally the three columns hold frequency-ordered codes at their
    per-column bit width; iteration inverts the permutation, so consumers
    see exactly the original ``EncodedTriple`` ids and the shared
    :class:`TermDictionary` keeps decoding them.  ``nbytes()`` prices the
    packed column payload — the number comparable to
    ``EncodedDataset.nbytes()`` (both exclude dictionary-side state, see
    :meth:`total_nbytes`).
    """

    __slots__ = ("_s", "_p", "_o", "_order", "dictionary", "name")

    def __init__(
        self,
        columns: Tuple[BitPackedColumn, BitPackedColumn, BitPackedColumn],
        order: array,
        dictionary: TermDictionary,
        name: str = "",
    ) -> None:
        self._s, self._p, self._o = columns
        self._order = order
        self.dictionary = dictionary
        self.name = name

    @classmethod
    def from_encoded(cls, encoded: EncodedDataset) -> "CompressedDataset":
        """Compress a columnar dataset (shares its dictionary)."""
        order = frequency_order(encoded)
        rank = frequency_rank(order)
        packed = []
        for column in encoded.columns:
            remapped = array("q", (rank[value] for value in column))
            packed.append(BitPackedColumn.pack(remapped))
        return cls(
            (packed[0], packed[1], packed[2]),
            array("q", order),
            encoded.dictionary,
            name=encoded.name,
        )

    def __len__(self) -> int:
        return len(self._s)

    def __iter__(self) -> Iterator[EncodedTriple]:
        order = self._order
        for s, p, o in zip(self._s, self._p, self._o):
            yield EncodedTriple(order[s], order[p], order[o])

    @property
    def columns(self) -> Tuple[BitPackedColumn, BitPackedColumn, BitPackedColumn]:
        """The packed (s, p, o) code columns (codes, not original ids)."""
        return self._s, self._p, self._o

    @property
    def budget_cells(self) -> int:
        """Record-budget price: 3 cells per triple, same as encoded."""
        return 3 * len(self._s)

    def nbytes(self) -> int:
        """Packed column payload — comparable to ``EncodedDataset.nbytes()``."""
        return self._s.nbytes() + self._p.nbytes() + self._o.nbytes()

    def total_nbytes(self) -> int:
        """Columns plus the code->id permutation (dictionary-sized)."""
        return self.nbytes() + self._order.itemsize * len(self._order)

    def to_encoded(self) -> EncodedDataset:
        """Decompress back to a plain :class:`EncodedDataset`."""
        restored = EncodedDataset(dictionary=self.dictionary, name=self.name)
        append = restored.append_ids
        for triple in self:
            append(*triple)
        return restored

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        widths = "/".join(str(c.width) for c in self.columns)
        return (
            f"<CompressedDataset{label}: {len(self)} triples, "
            f"{widths}-bit columns, {self.nbytes():,} bytes>"
        )
