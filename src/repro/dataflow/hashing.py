"""Process-stable hashing for shuffle routing.

Shuffles are routed by :func:`stable_hash`, a deterministic 64-bit hash
over the key types the pipeline uses.  Builtin ``hash`` would not do: it
is randomized per process for strings (``PYTHONHASHSEED``), which would
make partition assignment differ between runs.

This lives in its own module (rather than in :mod:`repro.dataflow.engine`,
which re-exports it) so modules below the engine can import it without a
circular dependency.
"""

from __future__ import annotations

import hashlib
from typing import Any

_MASK64 = (1 << 64) - 1


def splitmix64(value: int) -> int:
    """splitmix64 finalizer: the int mixer of routing and Bloom filters.

    Builtin ``hash`` is the identity for small ints; mixed, dense term ids
    probe uncorrelated filter slots.
    """
    value &= _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def stable_hash(key: Any) -> int:
    """A 64-bit hash that is stable across processes and interpreter runs.

    Covers the key types the discovery pipeline shuffles on: ints (term
    ids, :class:`~repro.rdf.model.Attr`), strings/bytes (via BLAKE2b —
    builtin ``hash`` is randomized for these), and (nested) tuples and
    frozensets thereof (conditions, captures, and NamedTuples of both).
    Unknown types fall back to builtin ``hash`` — acceptable only for
    types whose hash is process-invariant.
    """
    if key is None:
        return 0x9E3779B97F4A7C15
    if isinstance(key, bool):
        return splitmix64(2 if key else 1)
    if isinstance(key, int):
        return splitmix64(key)
    if isinstance(key, str):
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")
    if isinstance(key, bytes):
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return int.from_bytes(digest, "big")
    if isinstance(key, tuple):
        accumulator = splitmix64(0x1000003 + len(key))
        for element in key:
            accumulator = splitmix64(accumulator ^ stable_hash(element))
        return accumulator
    if isinstance(key, frozenset):
        accumulator = 0
        for element in key:  # XOR: order-independent
            accumulator ^= stable_hash(element)
        return splitmix64(accumulator ^ len(key))
    return hash(key) & _MASK64


def hash_partition(key: Any, parallelism: int) -> int:
    """The reduce partition ``key`` is routed to."""
    return stable_hash(key) % parallelism
