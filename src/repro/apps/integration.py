"""Cross-dataset CINDs: the data-integration use case.

The paper motivates CINDs with data-integration systems (Section 1) and
names data integration first among the research directions CINDs enable
(Section 10).  The concrete primitive those systems need is the
*cross-dataset* variant of the inclusion: a capture over dataset A whose
interpretation is contained in a capture over dataset B,

    I(A, c) ⊆ I(B, c'),

which reveals join paths and schema correspondences *between* sources —
e.g. "the objects of A's ``capital`` predicate all occur as subjects of
B's ``rdf:type City`` statements" says A.capital joins against B's city
entities.

Discovery mirrors the single-dataset extraction: both datasets are
encoded against a shared term dictionary, each contributes capture groups
(value -> captures), and a dependent capture from A is included in every
B-capture that occurs in B's group of *every* A-value (Lemma 3, applied
across the pair).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Set

from repro.core.cind import Capture
from repro.core.conditions import ConditionScope, conditions_of_triple
from repro.rdf.model import Attr, Dataset, TermDictionary
from repro.storage.dictionary import EncodedTriple


class CrossCIND(NamedTuple):
    """``(A, dependent) ⊆ (B, referenced)`` with its support."""

    dependent: Capture
    referenced: Capture
    support: int


@dataclass
class IntegrationReport:
    """Cross-dataset inclusions between two sources."""

    left_name: str
    right_name: str
    cinds: List[CrossCIND]
    dictionary: TermDictionary

    def render(self, row: CrossCIND) -> str:
        """Human-readable form with dataset labels."""
        return (
            f"[{self.left_name}] {row.dependent.render(self.dictionary)} ⊆ "
            f"[{self.right_name}] {row.referenced.render(self.dictionary)}  "
            f"[support={row.support}]"
        )

    def join_paths(self) -> List[CrossCIND]:
        """The subset that suggests join paths: object-side dependents
        contained in subject-side references (A's values are B's
        entities)."""
        return [
            row
            for row in self.cinds
            if row.dependent.attr is Attr.O and row.referenced.attr is Attr.S
        ]

    def describe(self, limit: int = 15) -> str:
        """Multi-line report."""
        lines = [
            f"{len(self.cinds)} cross-dataset CINDs "
            f"({self.left_name} -> {self.right_name}); "
            f"{len(self.join_paths())} join-path candidates"
        ]
        lines.extend("  " + self.render(row) for row in self.cinds[:limit])
        return "\n".join(lines)


def capture_interpretations(
    triples: Iterable[EncodedTriple],
    h: int,
    scope: Optional[ConditionScope] = None,
) -> Dict[Capture, Set[int]]:
    """Interpretations of all captures over h-frequent conditions.

    ``triples`` are id triples of one source (iterating an
    :class:`~repro.storage.columnar.EncodedDataset` yields them); two
    sources are comparable when their ids come from one dictionary.
    """
    if h < 1:
        raise ValueError(f"support threshold must be >= 1, got {h}")
    scope = scope if scope is not None else ConditionScope.full()
    encoded = list(triples)
    frequencies: Counter = Counter()
    for triple in encoded:
        frequencies.update(conditions_of_triple(triple, scope))
    frequent = {c for c, n in frequencies.items() if n >= h}

    values: Dict[Capture, Set[int]] = {}
    for triple in encoded:
        for condition in conditions_of_triple(triple, scope):
            if condition not in frequent:
                continue
            used = set(condition.attrs)
            for attr in scope.projection_attrs:
                if attr not in used:
                    values.setdefault(Capture(attr, condition), set()).add(
                        triple[int(attr)]
                    )
    return values


def cross_cinds(
    left_values: Dict[Capture, Set[int]],
    right_values: Dict[Capture, Set[int]],
    h: int,
) -> List[CrossCIND]:
    """The containment core: every ``(left, c) ⊆ (right, c')`` with
    support >= h between two sources' capture interpretations, sorted."""
    # Group the right side by value (Lemma 3's structure).
    right_groups: Dict[int, Set[Capture]] = {}
    for capture, values in right_values.items():
        for value in values:
            right_groups.setdefault(value, set()).add(capture)

    cinds: List[CrossCIND] = []
    for dependent, values in left_values.items():
        if len(values) < h:
            continue
        iterator = iter(values)
        first = right_groups.get(next(iterator))
        if not first:
            continue
        refs = set(first)
        for value in iterator:
            group = right_groups.get(value)
            if not group:
                refs.clear()
                break
            refs &= group
            if not refs:
                break
        for referenced in refs:
            cinds.append(CrossCIND(dependent, referenced, len(values)))

    cinds.sort(key=lambda row: (-row.support, row.dependent, row.referenced))
    return cinds


def discover_cross_cinds(
    left: Dataset,
    right: Dataset,
    h: int = 25,
    scope: Optional[ConditionScope] = None,
    dictionary: Optional[TermDictionary] = None,
) -> IntegrationReport:
    """All cross-dataset CINDs ``(left, c) ⊆ (right, c')`` with support >= h.

    Both datasets share one term dictionary, so the same URI or literal
    in either source denotes the same value.  Only captures over
    conditions frequent *within their own dataset* participate (the same
    Lemma 1 pruning as single-dataset discovery), and trivial
    self-comparisons do not arise because the two sides come from
    different sources.
    """
    dictionary = dictionary if dictionary is not None else TermDictionary()
    encode = dictionary.encode_triple
    left_values = capture_interpretations((encode(t) for t in left), h, scope)
    right_values = capture_interpretations((encode(t) for t in right), h, scope)
    return IntegrationReport(
        left_name=left.name or "left",
        right_name=right.name or "right",
        cinds=cross_cinds(left_values, right_values, h),
        dictionary=dictionary,
    )
