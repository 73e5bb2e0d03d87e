"""Shared machinery for the synthetic dataset generators.

All generators are deterministic given their ``seed`` and produce datasets
whose *condition-frequency profile* matches what the paper reports for the
real data (Figure 4): a heavy-tailed distribution in which the vast
majority of conditions hold for very few triples (unique names, ids,
literals) while a handful (``rdf:type`` objects, common predicates) hold
for thousands.  :class:`GraphBuilder` provides Zipf-weighted choice
helpers to produce exactly that shape.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import accumulate
from typing import Iterable, List, Optional, Sequence, TypeVar

from repro.rdf.model import Dataset, EncodedDataset, TermDictionary, Triple

T = TypeVar("T")

#: Predicate URI used for type statements in all generated datasets.
RDF_TYPE = "rdf:type"


class ZipfChooser:
    """Zipf-weighted sampling over a fixed item list.

    Item ``i`` (0-based rank) is drawn with probability proportional to
    ``1 / (i + 1) ** alpha`` — the long-tail distribution real RDF value
    frequencies follow.
    """

    def __init__(self, items: Sequence[T], alpha: float, rng: random.Random) -> None:
        if not items:
            raise ValueError("cannot sample from an empty item list")
        self._items = list(items)
        self._rng = rng
        weights = [1.0 / (rank + 1) ** alpha for rank in range(len(self._items))]
        total = sum(weights)
        self._cumulative: List[float] = list(accumulate(weight / total for weight in weights))
        self._cumulative[-1] = 1.0
        self._last = len(self._cumulative) - 1

    def choice(self) -> T:
        """Draw one item: the first whose cumulative weight reaches the roll
        (the last item if none before it does)."""
        return self._items[bisect_left(self._cumulative, self._rng.random(), 0, self._last)]

    def sample(self, count: int) -> List[T]:
        """Draw ``count`` items (with replacement)."""
        return [self.choice() for _ in range(count)]


class GraphBuilder:
    """Accumulates triples with convenience helpers for generators."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.rng = random.Random(seed)
        self._triples: List[Triple] = []

    def add(self, s: str, p: str, o: str) -> None:
        """Append one triple (duplicates are dropped at build time)."""
        self._triples.append(Triple(s, p, o))

    def add_type(self, s: str, rdf_class: str) -> None:
        """Append an ``rdf:type`` statement."""
        self.add(s, RDF_TYPE, rdf_class)

    def add_all(self, triples: Iterable[Triple]) -> None:
        """Append many triples."""
        self._triples.extend(triples)

    def __len__(self) -> int:
        return len(self._triples)

    def zipf(self, items: Sequence[T], alpha: float = 1.0) -> ZipfChooser:
        """A Zipf chooser bound to this builder's RNG."""
        return ZipfChooser(items, alpha, self.rng)

    def pick(self, items: Sequence[T]) -> T:
        """Uniform choice."""
        return self.rng.choice(items)

    def pick_some(self, items: Sequence[T], low: int, high: int) -> List[T]:
        """A uniform sample of between ``low`` and ``high`` distinct items."""
        count = min(self.rng.randint(low, high), len(items))
        return self.rng.sample(list(items), count)

    def build(self) -> Dataset:
        """Deduplicate and wrap into a :class:`Dataset`."""
        return Dataset(self._triples, name=self.name)

    def build_encoded(
        self, dictionary: Optional[TermDictionary] = None
    ) -> EncodedDataset:
        """Deduplicate straight into dictionary-encoded columns.

        Equivalent to ``build().encode(dictionary)`` — same ids in the
        same order (duplicate triples intern no new terms) — without
        materializing the intermediate string :class:`Dataset`.
        """
        return EncodedDataset.from_terms(
            self._triples,
            dictionary=dictionary,
            name=self.name,
            deduplicate=True,
        )


def scaled(count: int, scale: float, minimum: int = 1) -> int:
    """Scale an entity count, never below ``minimum``."""
    return max(minimum, int(round(count * scale)))


def entity_names(prefix: str, count: int) -> List[str]:
    """Deterministic entity URIs ``prefix/0 ... prefix/count-1``."""
    return [f"{prefix}/{index}" for index in range(count)]
