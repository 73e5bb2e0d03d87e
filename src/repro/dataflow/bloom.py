"""Bloom filters.

RDFind uses Bloom filters in two places:

1. to compact the sets of frequent unary/binary conditions so that workers
   can test membership in constant time and small memory (Figure 5,
   steps 3-4 and 8-9), built distributedly via bitwise-OR union, each
   key decided once per filter (:attr:`BloomFilter.decisions`);
2. to approximate the referenced-capture sets of CIND candidates that stem
   from *dominant* capture groups (Section 7.2), where candidate sets are
   intersected via bitwise AND (Algorithm 3, case ii) and exact sets are
   probed against them (case iii).  Those filters are small and their
   keys are ints, so the extractor holds each as one int built from
   :func:`int_key_mask` instead of a :class:`BloomFilter`.

The implementation uses the classic double-hashing scheme
``index_i = (h1 + i * h2) mod m`` over a ``bytearray`` bit vector.  Int
keys (ints and tuples of ints: every key the pipeline probes) hash as
builtin ``hash`` mixed by the shuffle's ``splitmix64``, other keys as
BLAKE2b over a canonical byte encoding, so filters are deterministic
across processes regardless of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Callable, Iterable, Tuple

from repro.dataflow.hashing import _MASK64, splitmix64


def _canonical_bytes(item: Any) -> bytes:
    """A stable byte encoding for the key types RDFind uses.

    Supports ints, strings, bytes, and (nested) tuples thereof — which
    covers encoded conditions and captures.
    """
    if isinstance(item, bytes):
        return b"b" + item
    if isinstance(item, str):
        return b"s" + item.encode("utf-8")
    if isinstance(item, bool):
        return b"B1" if item else b"B0"
    if isinstance(item, int):
        return b"i" + item.to_bytes((item.bit_length() + 8) // 8 + 1, "big", signed=True)
    if isinstance(item, tuple):
        parts = [b"t", len(item).to_bytes(4, "big")]
        for element in item:
            encoded = _canonical_bytes(element)
            parts.append(len(encoded).to_bytes(4, "big"))
            parts.append(encoded)
        return b"".join(parts)
    raise TypeError(f"unsupported Bloom filter key type: {type(item).__name__}")


_GOLDEN = 0x9E3779B97F4A7C15


def _is_int_key(item: Any) -> bool:
    """True for ints and (nested) tuples of ints — but not bools.

    Python's built-in ``hash`` is deterministic across processes for these
    types (``PYTHONHASHSEED`` only randomizes str/bytes), so they can use
    the fast path.  ``bool`` is excluded although it subclasses ``int``:
    ``hash(True) == hash(1)``, so the fast path would alias ``True`` with
    ``1`` while :func:`_canonical_bytes` deliberately distinguishes them
    (``b"B1"`` vs ``b"i..."``) — membership semantics must not depend on
    which path a key takes.
    """
    if isinstance(item, bool):
        return False
    if isinstance(item, int):
        return True
    if isinstance(item, tuple):
        return all(_is_int_key(element) for element in item)
    return False


def _hash_pair(item: Any) -> Tuple[int, int]:
    if _is_int_key(item):
        h1 = splitmix64(hash(item))
        h2 = splitmix64(h1 ^ _GOLDEN) | 1  # odd, so it cycles all slots
        return h1, h2
    digest = hashlib.blake2b(_canonical_bytes(item), digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:], "big") | 1
    return h1, h2


def int_key_mask(key: int, num_bits: int, num_hashes: int) -> int:
    """The probe positions of an int key as one ``num_bits``-wide int.

    Bit ``i`` is set iff ``BloomFilter(num_bits, num_hashes).add(key)``
    sets bit ``i``.  A small filter is then itself an int: the ``|`` of
    its members' masks, intersected with ``&``, and ``key`` may be in it
    iff ``mask & ~filter == 0`` (the candidate filters of Algorithm 3).
    """
    if num_hashes < 1:
        raise ValueError("num_hashes must be >= 1")
    num_bits = max(num_bits, 8)
    h1, h2 = _hash_pair(key)
    mask = 0
    for i in range(num_hashes):
        mask |= 1 << (h1 + i * h2) % num_bits
    return mask


class BloomFilter:
    """A fixed-size Bloom filter with bitwise-OR union.

    Parameters
    ----------
    num_bits:
        Size of the bit vector (rounded up to a whole byte).
    num_hashes:
        Number of probe positions per element.
    """

    __slots__ = ("num_bits", "num_hashes", "_bits", "decisions")

    def __init__(self, num_bits: int, num_hashes: int = 4) -> None:
        if num_bits < 8:
            num_bits = 8
        if num_hashes < 1:
            raise ValueError("num_hashes must be >= 1")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = bytearray((num_bits + 7) // 8)
        #: What callers concluded from the current bits (the batch kernels:
        #: the ids that pass, per attribute).  Emptied when the bits change;
        #: ``==`` ignores it and a pickled filter (a task payload) has none.
        self.decisions: dict = {}

    @classmethod
    def for_capacity(cls, capacity: int, fp_rate: float = 0.01) -> "BloomFilter":
        """Size a filter for ``capacity`` elements at ``fp_rate``."""
        capacity = max(1, capacity)
        if not 0.0 < fp_rate < 1.0:
            raise ValueError("fp_rate must be in (0, 1)")
        num_bits = int(math.ceil(-capacity * math.log(fp_rate) / (math.log(2) ** 2)))
        num_hashes = max(1, int(round(num_bits / capacity * math.log(2))))
        return cls(num_bits, num_hashes)

    @classmethod
    def from_items(
        cls, items: Iterable[Any], capacity: int, fp_rate: float = 0.01
    ) -> "BloomFilter":
        """Build a filter sized for ``capacity`` and add all ``items``."""
        bloom = cls.for_capacity(capacity, fp_rate)
        for item in items:
            bloom.add(item)
        return bloom

    def _indexes(self, item: Any) -> Iterable[int]:
        h1, h2 = _hash_pair(item)
        num_bits = self.num_bits
        return ((h1 + i * h2) % num_bits for i in range(self.num_hashes))

    def add(self, item: Any) -> None:
        """Insert an element."""
        bits = self._bits
        for index in self._indexes(item):
            bits[index >> 3] |= 1 << (index & 7)
        self.decisions.clear()

    def update(self, items: Iterable[Any]) -> None:
        """Insert many elements."""
        for item in items:
            self.add(item)

    def __contains__(self, item: Any) -> bool:
        bits = self._bits
        return all(bits[i >> 3] & (1 << (i & 7)) for i in self._indexes(item))

    def int_key_probe(self) -> Callable[[Any], bool]:
        """``key in self`` for int keys, as a closure to bind once per batch.

        Same positions as ``in`` for ints and tuples of ints, minus the
        key-type dispatch, with :func:`splitmix64` inlined; the second
        hash is mixed only once the first position is set.  Bools and
        str/bytes keys get *wrong* positions.
        """
        bits = self._bits
        num_bits = self.num_bits
        others = range(1, self.num_hashes)

        def probe(key) -> bool:
            h1 = hash(key) & _MASK64
            h1 = ((h1 ^ (h1 >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            h1 = ((h1 ^ (h1 >> 27)) * 0x94D049BB133111EB) & _MASK64
            h1 ^= h1 >> 31
            index = h1 % num_bits
            if not bits[index >> 3] & (1 << (index & 7)):
                return False
            h2 = h1 ^ _GOLDEN
            h2 = ((h2 ^ (h2 >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            h2 = ((h2 ^ (h2 >> 27)) * 0x94D049BB133111EB) & _MASK64
            h2 = (h2 ^ (h2 >> 31)) | 1
            for i in others:
                index = (h1 + i * h2) % num_bits
                if not bits[index >> 3] & (1 << (index & 7)):
                    return False
            return True

        return probe

    def __reduce__(self):
        return BloomFilter.from_bytes, (self.to_bytes(),)

    def _check_compatible(self, other: "BloomFilter") -> None:
        if self.num_bits != other.num_bits or self.num_hashes != other.num_hashes:
            raise ValueError("incompatible Bloom filter geometries")

    def union(self, other: "BloomFilter") -> "BloomFilter":
        """Bitwise-OR union (the distributed build step)."""
        self._check_compatible(other)
        result = BloomFilter(self.num_bits, self.num_hashes)
        result._bits = bytearray(a | b for a, b in zip(self._bits, other._bits))
        return result

    def union_update(self, other: "BloomFilter") -> "BloomFilter":
        """In-place bitwise-OR union; returns self."""
        self._check_compatible(other)
        bits = self._bits
        for index, byte in enumerate(other._bits):
            bits[index] |= byte
        self.decisions.clear()
        return self

    def __or__(self, other: "BloomFilter") -> "BloomFilter":
        return self.union(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return (
            self.num_bits == other.num_bits
            and self.num_hashes == other.num_hashes
            and self._bits == other._bits
        )

    def __hash__(self) -> int:  # pragma: no cover - filters are not hashed
        raise TypeError("BloomFilter is unhashable")

    @property
    def bit_count(self) -> int:
        """Number of set bits."""
        return sum(bin(byte).count("1") for byte in self._bits)

    @property
    def fill_ratio(self) -> float:
        """Fraction of bits set (saturation indicator)."""
        return self.bit_count / self.num_bits

    def approximate_cardinality(self) -> float:
        """Estimate of the number of distinct inserted elements."""
        zero_fraction = 1.0 - self.fill_ratio
        if zero_fraction <= 0.0:
            return float("inf")
        return -(self.num_bits / self.num_hashes) * math.log(zero_fraction)

    def to_bytes(self) -> bytes:
        """Serialize (geometry header + bit vector)."""
        header = self.num_bits.to_bytes(8, "big") + self.num_hashes.to_bytes(2, "big")
        return header + bytes(self._bits)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "BloomFilter":
        """Deserialize a filter produced by :meth:`to_bytes`."""
        num_bits = int.from_bytes(payload[:8], "big")
        num_hashes = int.from_bytes(payload[8:10], "big")
        bloom = cls(num_bits, num_hashes)
        bits = payload[10:]
        if len(bits) != len(bloom._bits):
            raise ValueError("corrupt Bloom filter payload")
        bloom._bits = bytearray(bits)
        return bloom

    def __repr__(self) -> str:
        return (
            f"<BloomFilter bits={self.num_bits} hashes={self.num_hashes} "
            f"fill={self.fill_ratio:.3f}>"
        )
