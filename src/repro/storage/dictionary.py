"""Term dictionary: the interning layer of the storage subsystem.

Every RDF term (subject, predicate, or object string) is interned to a
dense integer id on first sight; the reverse mapping is a plain list, so
decoding is an O(1) index.  Ids are stable under incremental appends —
encoding more data never renumbers terms already seen — which is what
lets the incremental maintainer, cross-dataset integration, and the
columnar :class:`~repro.storage.columnar.EncodedDataset` all share one id
space.

This module is the bottom of the storage stack and deliberately imports
nothing from the rest of the package: :mod:`repro.rdf.model` re-exports
:class:`TermDictionary` and :class:`EncodedTriple` from here, so anything
above the RDF data model may depend on it.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

#: Largest id representable in a 32-bit signed array column.
INT32_MAX = 2**31 - 1


class EncodedTriple(NamedTuple):
    """A dictionary-encoded triple of integer term ids."""

    s: int
    p: int
    o: int

    def get(self, attr) -> int:
        """Project the encoded triple onto ``attr``."""
        return self[int(attr)]


class TermDictionary:
    """Bidirectional mapping between RDF terms and dense integer ids.

    Ids are assigned in first-seen order starting from 0, so encoding is
    deterministic for a fixed input order.  Decoding an unknown id raises
    ``KeyError``; encoding always succeeds (new terms get fresh ids).
    """

    __slots__ = ("_term_to_id", "_id_to_term", "_utf8_payload")

    def __init__(self) -> None:
        self._term_to_id: dict = {}
        self._id_to_term: List[str] = []
        self._utf8_payload = 0

    def __len__(self) -> int:
        return len(self._id_to_term)

    def __contains__(self, term: str) -> bool:
        return term in self._term_to_id

    def encode(self, term: str) -> int:
        """Return the id for ``term``, assigning a new one if needed."""
        term_id = self._term_to_id.setdefault(term, len(self._id_to_term))
        if term_id == len(self._id_to_term):
            self._id_to_term.append(term)
            self._utf8_payload += _term_nbytes(term)
        return term_id

    def encode_rows(
        self, rows: Iterable[Sequence[str]]
    ) -> Iterator[Tuple[int, int, int]]:
        """:meth:`encode` over ``(s, p, o)`` rows: yields their id triples.

        One ``setdefault`` per term; the reverse list and the UTF-8 payload
        catch up from the forward map's tail when the iteration ends.
        """
        table = self._term_to_id
        intern = table.setdefault
        try:
            for row in rows:
                yield (
                    intern(row[0], len(table)),
                    intern(row[1], len(table)),
                    intern(row[2], len(table)),
                )
        finally:
            new_terms = list(islice(table, len(self._id_to_term), None))
            self._id_to_term.extend(new_terms)
            self._utf8_payload += sum(map(_term_nbytes, new_terms))

    def encode_existing(self, term: str) -> int:
        """Return the id for a term that must already be present."""
        return self._term_to_id[term]

    def lookup(self, term: str) -> Optional[int]:
        """The id for ``term`` if it is known, else ``None`` (no interning)."""
        return self._term_to_id.get(term)

    def encode_many(self, terms: Iterable[str]) -> List[int]:
        """Intern a batch of terms, preserving order."""
        return list(map(self.encode, terms))

    def decode(self, term_id: int) -> str:
        """Return the term for ``term_id``."""
        return self._id_to_term[term_id]

    def encode_triple(self, triple) -> EncodedTriple:
        """Dictionary-encode an ``(s, p, o)`` triple of strings."""
        encode = self.encode
        return EncodedTriple(encode(triple[0]), encode(triple[1]), encode(triple[2]))

    def decode_triple(self, triple):
        """Decode an encoded triple back to a string :class:`Triple`."""
        from repro.rdf.model import Triple

        decode = self.decode
        return Triple(decode(triple[0]), decode(triple[1]), decode(triple[2]))

    def terms(self) -> Iterator[str]:
        """All known terms in id order."""
        return iter(self._id_to_term)

    @property
    def typecode(self) -> str:
        """Narrowest ``array`` typecode that holds every assigned id."""
        return "i" if len(self._id_to_term) <= INT32_MAX else "q"

    def nbytes(self) -> int:
        """Resident-set proxy of the dictionary itself.

        Counts the UTF-8 payload bytes of every term once (maintained
        incrementally as terms are interned — ``len(term)`` would count
        *characters* and underprice non-ASCII IRIs/literals) plus one
        pointer-sized slot in each of the two directions — deliberately a
        *proxy* (like the record-count budgets of the dataflow engine),
        not an exact ``sys.getsizeof`` walk, so it stays comparable
        across platforms.
        """
        return self._utf8_payload + 16 * len(self._id_to_term)

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state) -> None:
        self._term_to_id = state["_term_to_id"]
        self._id_to_term = state["_id_to_term"]
        payload = state.get("_utf8_payload")
        if payload is None:
            # Pickles from before the byte-accurate accounting.
            payload = sum(_term_nbytes(term) for term in self._id_to_term)
        self._utf8_payload = payload


def _term_nbytes(term: str) -> int:
    """UTF-8 byte length of one term (character count on the ASCII fast
    path, where the two are equal)."""
    return len(term) if term.isascii() else len(term.encode("utf-8", "surrogatepass"))
