"""The mutable triple overlay: set-semantics presence with retraction.

:class:`~repro.storage.columnar.EncodedDataset` is append-only by design
(three parallel id columns); a mutating stream needs an overlay that can
*retract*.  :class:`DeltaStore` keeps the live triple set as an
insertion-ordered map over a shared :class:`TermDictionary`, so a
removed triple actually disappears instead of lingering as a tombstone.
(Its terms stay interned; :meth:`materialize` — and with it every stream
checkpoint — compacts the dead ones away.)

Two order guarantees matter downstream:

* live triples iterate in **insertion order** (a re-added triple moves
  to the end, exactly like re-appending a line to an N-Triples file), and
* :meth:`materialize` re-encodes through a **fresh** dictionary in that
  order — byte-for-byte the columns a batch load of the materialized
  dataset would build, which is what makes the streaming result document
  diffable against batch ``discover -o``.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple, Union

from repro.rdf.model import (
    Dataset,
    EncodedDataset,
    EncodedTriple,
    TermDictionary,
    Triple,
)

__all__ = ["DeltaStore"]

TripleLike = Union[Triple, Tuple[str, str, str]]


class DeltaStore:
    """Insertion-ordered live triple set over a shared term dictionary."""

    def __init__(self, dictionary: Optional[TermDictionary] = None) -> None:
        self.dictionary = dictionary if dictionary is not None else TermDictionary()
        #: triple id -> encoded triple, in insertion order (dict order).
        self._live: Dict[int, EncodedTriple] = {}
        #: encoded triple -> its current triple id.
        self._ids: Dict[EncodedTriple, int] = {}
        self._next_id = 0

    # -- mutation ------------------------------------------------------

    def add(self, triple: TripleLike) -> Optional[Tuple[int, EncodedTriple]]:
        """Insert one triple; ``None`` if it is already live (set semantics)."""
        encoded = self.dictionary.encode_triple(triple)
        triple_id = self.add_encoded(encoded)
        return None if triple_id is None else (triple_id, encoded)

    def add_encoded(self, encoded: EncodedTriple) -> Optional[int]:
        """:meth:`add` for a triple of this dictionary's ids; its triple id."""
        if encoded in self._ids:
            return None
        triple_id = self._next_id
        self._next_id += 1
        self._ids[encoded] = triple_id
        self._live[triple_id] = encoded
        return triple_id

    def remove(self, triple: TripleLike) -> Optional[Tuple[int, EncodedTriple]]:
        """Retract one triple; ``None`` if it is not live.

        Unknown terms are looked up without interning, so removing a
        triple the store has never seen does not grow the dictionary.
        """
        lookup = self.dictionary.lookup
        ids = (lookup(triple[0]), lookup(triple[1]), lookup(triple[2]))
        if None in ids:
            return None
        encoded = EncodedTriple(*ids)
        triple_id = self._ids.pop(encoded, None)
        if triple_id is None:
            return None
        del self._live[triple_id]
        return triple_id, encoded

    # -- lookup --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, triple: TripleLike) -> bool:
        lookup = self.dictionary.lookup
        ids = (lookup(triple[0]), lookup(triple[1]), lookup(triple[2]))
        return None not in ids and EncodedTriple(*ids) in self._ids

    def triple(self, triple_id: int) -> EncodedTriple:
        """The live triple behind ``triple_id`` (KeyError if retracted)."""
        return self._live[triple_id]

    def live(self) -> Iterator[EncodedTriple]:
        """Live triples in insertion order (shared-dictionary ids)."""
        return iter(self._live.values())

    def first_position(
        self, term: int, columns: Sequence[int], before: Optional[int] = None
    ) -> Optional[int]:
        """``3 * triple_id + column`` of ``term``'s first live occurrence.

        In ``columns`` (ascending) only, giving up at — and answering —
        ``before``, a position known from elsewhere.  Triple ids rise in
        insertion order, so positions order terms like a cold encode's ids.
        """
        for triple_id, triple in self._live.items():
            for column in columns:
                position = 3 * triple_id + column
                if before is not None and position >= before:
                    return before
                if triple[column] == term:
                    return position
        return before

    # -- materialization -----------------------------------------------

    def materialize(self, name: str = "") -> EncodedDataset:
        """The live triples as a *freshly encoded* columnar dataset.

        Ids are assigned first-seen in insertion order — identical to
        parsing the materialized N-Triples file from scratch — so batch
        discovery over this dataset sorts and renders exactly as it
        would over a cold load.
        """
        fresh = EncodedDataset(dictionary=TermDictionary(), name=name)
        decode = self.dictionary.decode
        for s, p, o in self._live.values():
            fresh.append_terms(decode(s), decode(p), decode(o))
        return fresh

    def as_dataset(self, name: str = "") -> Dataset:
        """The live triples as a decoded string :class:`Dataset`."""
        decode = self.dictionary.decode_triple
        return Dataset((decode(t) for t in self._live.values()), name=name)

    def __repr__(self) -> str:
        return (
            f"<DeltaStore {len(self._live):,} live triples, "
            f"{len(self.dictionary):,} interned terms>"
        )
