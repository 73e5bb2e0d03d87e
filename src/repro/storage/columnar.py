"""Columnar dictionary-encoded datasets.

An :class:`EncodedDataset` stores an RDF dataset as three parallel
``array`` columns of term ids — the s, p, and o columns — plus the
:class:`~repro.storage.dictionary.TermDictionary` that renders ids back
to strings.  Compared to a list of per-triple objects this removes one
Python object and two pointers per triple (a triple is 12 or 24 bytes of
column payload, depending on the id width), and it lets whole-column
operations (frequency counting, distinct-value scans) run as single C
loops over the arrays instead of per-triple Python iterations.  That is
the standard design for in-memory RDF engines (dictionary encoding +
column storage, cf. the compressed vertical-partitioning literature in
PAPERS.md) and is the representation the discovery hot path consumes.

Columns start at the 32-bit typecode ``'i'`` and widen to 64-bit ``'q'``
automatically if the dictionary ever outgrows 32-bit ids.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import starmap
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.storage.dictionary import INT32_MAX, EncodedTriple, TermDictionary

#: Width of one encoded triple in budget "cells" (one cell per term id).
TRIPLE_CELLS = 3


class TripleBatch:
    """One worker's slice of an :class:`EncodedDataset`, kept columnar.

    A batch holds three parallel ``array`` columns — the s, p, o ids of
    the triples one dataflow partition would see record-at-a-time.  This
    is the unit the vectorized operator kernels consume
    (:mod:`repro.dataflow.kernels`): a kernel makes one pass over the id
    arrays instead of the engine materializing a Python-object record per
    triple.

    Budget accounting is duck-typed: ``budget_cells`` prices the batch
    for the record-count budget (:func:`repro.dataflow.engine.record_cells`,
    3 cells per triple — the same charge an ``EncodedTriple`` stream
    pays).
    """

    __slots__ = ("s", "p", "o")

    def __init__(self, s: array, p: array, o: array) -> None:
        self.s = s
        self.p = p
        self.o = o

    def __len__(self) -> int:
        return len(self.s)

    def column(self, attr) -> array:
        """The id column for a triple attribute (do not mutate)."""
        return (self.s, self.p, self.o)[int(attr)]

    @property
    def columns(self) -> Tuple[array, array, array]:
        """The (s, p, o) columns (do not mutate)."""
        return self.s, self.p, self.o

    @property
    def budget_cells(self) -> int:
        """Record-budget price: one cell per id, as for encoded triples."""
        return TRIPLE_CELLS * len(self.s)

    def __repr__(self) -> str:
        return f"<TripleBatch: {len(self)} triples, '{self.s.typecode}' columns>"


def build_triple_batches(encoded: "EncodedDataset", count: int) -> List[TripleBatch]:
    """Slice a dataset into ``count`` round-robin column batches.

    Batch ``i`` holds exactly the triples that
    ``ExecutionEnvironment.from_collection`` routes to partition ``i``
    (item ``j`` goes to partition ``j % count``), in the same order —
    ``column[i::count]`` *is* that routing expressed as an array slice.
    This order equivalence is what lets the batch kernels reproduce the
    record-at-a-time operators byte for byte.
    """
    if count < 1:
        raise ValueError(f"batch count must be >= 1, got {count}")
    s, p, o = encoded.columns
    return [
        TripleBatch(s[index::count], p[index::count], o[index::count])
        for index in range(count)
    ]


class EncodedDataset:
    """A dictionary-encoded RDF dataset held as three id columns.

    This is the representation the discovery pipeline consumes: iterating
    yields ``EncodedTriple`` tuples of ints and the attached
    :class:`TermDictionary` renders results back to strings.  The columns
    are exposed for whole-column fast paths (:meth:`column`,
    :meth:`values`); the :attr:`triples` property offers a materialized
    row view for code that needs random access.
    """

    __slots__ = ("_s", "_p", "_o", "dictionary", "name")

    def __init__(
        self,
        triples: Iterable[EncodedTriple] = (),
        dictionary: Optional[TermDictionary] = None,
        name: str = "",
    ) -> None:
        self.dictionary = dictionary if dictionary is not None else TermDictionary()
        self.name = name
        self._s = array("i")
        self._p = array("i")
        self._o = array("i")
        for s, p, o in triples:
            self.append_ids(s, p, o)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_terms(
        cls,
        rows: Iterable[Sequence[str]],
        dictionary: Optional[TermDictionary] = None,
        name: str = "",
        deduplicate: bool = True,
    ) -> "EncodedDataset":
        """Encode ``(s, p, o)`` string rows straight into columns.

        This is the loaders' direct path: no intermediate string
        ``Dataset`` (and no per-triple ``Triple`` object) is materialized.
        With ``deduplicate`` the id-triple set semantics match
        ``Dataset``'s string-level deduplication exactly (the dictionary
        is a bijection), so ``from_terms(rows)`` equals
        ``Dataset.from_tuples(rows).encode()`` column for column.
        """
        dataset = cls(dictionary=dictionary, name=name)
        rows = dataset.dictionary.encode_rows(rows)
        if deduplicate:
            rows = dict.fromkeys(rows)  # the first occurrence keeps its place
        columns = ([], [], [])
        s, p, o = (column.append for column in columns)
        for s_id, p_id, o_id in rows:
            s(s_id)
            p(p_id)
            o(o_id)
        if columns[0] and max(map(max, columns)) > INT32_MAX:
            dataset._widen()
        for column, ids in zip(dataset.columns, columns):
            column.extend(ids)
        return dataset

    def append_ids(self, s: int, p: int, o: int) -> None:
        """Append one encoded triple (no deduplication).

        Term ids are dictionary offsets and therefore never negative; a
        negative value here means a corrupted snapshot or a buggy caller,
        and silently storing it would round-trip garbage through the
        signed columns.  Reject it at the append boundary instead.
        """
        if s < 0 or p < 0 or o < 0:
            raise ValueError(
                f"term ids must be non-negative, got ({s}, {p}, {o})"
            )
        if self._s.typecode == "i" and (s > INT32_MAX or p > INT32_MAX or o > INT32_MAX):
            self._widen()
        self._s.append(s)
        self._p.append(p)
        self._o.append(o)

    @classmethod
    def from_columns(
        cls,
        s: array,
        p: array,
        o: array,
        dictionary: TermDictionary,
        name: str = "",
    ) -> "EncodedDataset":
        """Adopt three pre-built parallel id columns (no copy).

        The snapshot loader's constructor: columns come straight out of
        an ``array.frombytes`` and must already be consistent — same
        length, same typecode, non-negative ids.  Those invariants are
        checked here (cheap whole-column ``min`` scans) because the
        per-append validation of :meth:`append_ids` is bypassed.
        """
        if not (len(s) == len(p) == len(o)):
            raise ValueError(
                f"column lengths differ: {len(s)}/{len(p)}/{len(o)}"
            )
        if not (s.typecode == p.typecode == o.typecode):
            raise ValueError(
                "column typecodes differ: "
                f"{s.typecode!r}/{p.typecode!r}/{o.typecode!r}"
            )
        if len(s) and min(min(s), min(p), min(o)) < 0:
            raise ValueError("columns contain negative term ids")
        dataset = cls(dictionary=dictionary, name=name)
        dataset._s = s
        dataset._p = p
        dataset._o = o
        return dataset

    def _widen(self) -> None:
        """Upgrade the columns from 32-bit to 64-bit ids."""
        self._s = array("q", self._s)
        self._p = array("q", self._p)
        self._o = array("q", self._o)

    # ------------------------------------------------------------------
    # row views
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._s)

    def __iter__(self) -> Iterator[EncodedTriple]:
        return starmap(EncodedTriple, zip(self._s, self._p, self._o))

    @property
    def triples(self) -> Tuple[EncodedTriple, ...]:
        """Materialized row view (compatibility with row-oriented code)."""
        return tuple(self)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<EncodedDataset{label}: {len(self)} triples, "
            f"'{self._s.typecode}' columns>"
        )

    # ------------------------------------------------------------------
    # column views
    # ------------------------------------------------------------------

    def column(self, attr) -> array:
        """The id column for a triple attribute (do not mutate)."""
        return (self._s, self._p, self._o)[int(attr)]

    @property
    def columns(self) -> Tuple[array, array, array]:
        """The (s, p, o) columns (do not mutate)."""
        return self._s, self._p, self._o

    def values(self, attr) -> Counter:
        """Frequency of each term id in position ``attr`` (one C pass)."""
        return Counter(self.column(attr))

    def distinct_values(self, attr) -> set:
        """Distinct term ids occurring in position ``attr``."""
        return set(self.column(attr))

    # ------------------------------------------------------------------
    # size accounting
    # ------------------------------------------------------------------

    @property
    def cells(self) -> int:
        """Budget cells the dataset occupies (3 ids per triple)."""
        return TRIPLE_CELLS * len(self._s)

    def nbytes(self) -> int:
        """Resident-set proxy of the columns (record count × id width)."""
        return self._s.itemsize * len(self._s) * TRIPLE_CELLS

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------

    def decode(self):
        """Decode back into a string :class:`~repro.rdf.model.Dataset`."""
        from repro.rdf.model import Dataset, Triple

        decode = self.dictionary.decode
        return Dataset(
            (
                Triple(decode(s), decode(p), decode(o))
                for s, p, o in zip(self._s, self._p, self._o)
            ),
            name=self.name,
        )
