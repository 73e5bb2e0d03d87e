"""Core RDF data model.

RDFind (Kruse et al., SIGMOD 2016) treats an RDF dataset as a *set* of
subject-predicate-object triples and distinguishes only the three triple
attributes ``s``, ``p``, ``o`` on the structural level (Section 2 of the
paper).  This module provides:

* :class:`Attr` — the three triple attributes, used as projection and
  condition attributes throughout the system.
* :class:`Triple` — an immutable string triple.
* :class:`Dataset` — an ordered, duplicate-free collection of triples with
  convenience constructors and profiling helpers.
* :class:`TermDictionary` — a bidirectional string<->int term encoder.  The
  discovery pipeline works entirely on integer-encoded triples, which is
  both faster and mirrors the dictionary encoding used by RDF stores.
* :class:`EncodedDataset` — a :class:`Dataset` after dictionary encoding.

``TermDictionary``, ``EncodedTriple``, and ``EncodedDataset`` live in the
:mod:`repro.storage` subsystem (the dictionary-encoded columnar storage
layer) and are re-exported here for the data-model consumers.

Terms are plain Python strings.  Following the paper, blank nodes are
treated like URIs and literals are kept verbatim (including any datatype or
language annotation the source syntax carried).
"""

from __future__ import annotations

import random
from collections import Counter
from enum import IntEnum
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.storage.columnar import EncodedDataset
from repro.storage.dictionary import EncodedTriple, TermDictionary


class Attr(IntEnum):
    """A triple attribute: subject, predicate, or object.

    The paper uses the symbols alpha/beta/gamma to range over these three
    attributes; conditions constrain one or two of them and captures
    project a third one.
    """

    S = 0
    P = 1
    O = 2  # noqa: E741 - O is the paper's name for the object attribute

    @property
    def symbol(self) -> str:
        """Single-letter lower-case name used in rendered conditions."""
        return "spo"[int(self)]

    @classmethod
    def from_symbol(cls, symbol: str) -> "Attr":
        """Return the attribute for ``'s'``, ``'p'``, or ``'o'``."""
        try:
            return {"s": cls.S, "p": cls.P, "o": cls.O}[symbol.lower()]
        except KeyError:
            raise ValueError(f"not a triple attribute symbol: {symbol!r}") from None

    @classmethod
    def others(cls, attr: "Attr") -> Tuple["Attr", "Attr"]:
        """The two attributes distinct from ``attr``, in (S, P, O) order."""
        return _OTHERS[attr]


_OTHERS = {
    Attr.S: (Attr.P, Attr.O),
    Attr.P: (Attr.S, Attr.O),
    Attr.O: (Attr.S, Attr.P),
}

#: All three attributes in canonical order.
ALL_ATTRS: Tuple[Attr, Attr, Attr] = (Attr.S, Attr.P, Attr.O)


class Triple(NamedTuple):
    """An RDF triple of string terms."""

    s: str
    p: str
    o: str

    def get(self, attr: Attr) -> str:
        """Project the triple onto ``attr`` (``t.alpha`` in the paper)."""
        return self[int(attr)]

    def __str__(self) -> str:
        return f"({self.s}, {self.p}, {self.o})"


class Dataset:
    """An RDF dataset: an ordered, duplicate-free sequence of triples.

    The paper's definitions operate on triple *sets*; we preserve insertion
    order for reproducibility but deduplicate on construction, matching the
    set semantics that the proofs (e.g. of Lemma 2) rely on.
    """

    __slots__ = ("_triples", "_triple_set", "_encoded", "name")

    def __init__(self, triples: Iterable[Triple] = (), name: str = "") -> None:
        self._triples: List[Triple] = []
        self._triple_set: set = set()
        self._encoded: Optional[EncodedDataset] = None
        self.name = name
        self.update(triples)

    @classmethod
    def from_encoded(cls, encoded: EncodedDataset) -> "Dataset":
        """An id-backed dataset over duplicate-free ``encoded`` columns.

        ``len()`` and ``encode()`` answer from the columns; the first string
        access decodes them and drops the backing.  Exists for the two-call
        shape ``parse_ntriples_file(p).encode()`` the benchmark's shims time;
        goes when those are re-pointed at ``repro.inputs.load_source``.
        """
        dataset = cls.__new__(cls)
        dataset._encoded, dataset.name = encoded, encoded.name
        return dataset

    def __getattr__(self, slot: str):
        # Reached only for an unset slot: the strings of an id-backed dataset.
        if slot not in ("_triples", "_triple_set"):
            raise AttributeError(slot)
        decoded, self._encoded = self._encoded.decode(), None
        self._triples, self._triple_set = decoded._triples, decoded._triple_set
        return getattr(self, slot)

    @classmethod
    def from_tuples(
        cls, tuples: Iterable[Sequence[str]], name: str = ""
    ) -> "Dataset":
        """Build a dataset from ``(s, p, o)`` string tuples."""
        return cls((Triple(*t) for t in tuples), name=name)

    def add(self, triple: Triple) -> bool:
        """Add ``triple``; return True if it was new."""
        if triple in self._triple_set:
            return False
        self._triple_set.add(triple)
        self._triples.append(triple)
        return True

    def update(self, triples: Iterable[Triple]) -> int:
        """Add many triples; return how many were new."""
        added = 0
        for triple in triples:
            if not isinstance(triple, Triple):
                triple = Triple(*triple)
            if self.add(triple):
                added += 1
        return added

    def __len__(self) -> int:
        return len(self._triples if self._encoded is None else self._encoded)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triple_set

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self._triple_set == other._triple_set

    def __hash__(self) -> int:  # pragma: no cover - datasets are not hashed
        raise TypeError("Dataset is unhashable")

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Dataset{label}: {len(self)} triples>"

    @property
    def triples(self) -> Sequence[Triple]:
        """The triples in insertion order (read-only view)."""
        return tuple(self._triples)

    def values(self, attr: Attr) -> Counter:
        """Frequency of each term in position ``attr``."""
        return Counter(t.get(attr) for t in self._triples)

    def distinct_values(self, attr: Attr) -> set:
        """Distinct terms occurring in position ``attr``."""
        return {t.get(attr) for t in self._triples}

    def sample(self, n: int, seed: int = 0) -> "Dataset":
        """A reproducible sample of ``n`` triples (all if ``n >= len``)."""
        if n >= len(self._triples):
            return Dataset(self._triples, name=self.name)
        rng = random.Random(seed)
        picked = rng.sample(self._triples, n)
        return Dataset(picked, name=f"{self.name}[sample:{n}]")

    def head(self, n: int) -> "Dataset":
        """The first ``n`` triples."""
        return Dataset(self._triples[:n], name=f"{self.name}[head:{n}]")

    def encode(self, dictionary: Optional[TermDictionary] = None) -> "EncodedDataset":
        """Dictionary-encode the dataset into a columnar representation.

        A fresh :class:`TermDictionary` is created unless one is supplied
        (supplying one lets several datasets share an id space).  The
        triples are already duplicate-free, so the columns are appended
        without a second deduplication pass (an id-backed dataset hands
        out its backing columns themselves, not a copy).
        """
        if dictionary is None and self._encoded is not None:
            return self._encoded
        return EncodedDataset.from_terms(
            self._triples, dictionary=dictionary, name=self.name, deduplicate=False
        )
