"""Search-space statistics: the numbers behind Figures 2 and 4.

* :func:`condition_frequency_histogram` — how many conditions hold for
  exactly ``f`` triples (Figure 4's heavy tail is what makes the
  frequent-condition pruning so effective).
* :func:`search_space_funnel` — the concentric candidate counts of
  Figure 2: all CIND candidates, candidates with frequent conditions,
  broad candidates, broad/pertinent CINDs, and ARs.  The two exhaustive
  counts (all valid and all minimal CINDs) are only computed when the
  dataset is small enough (``exhaustive=True``), since their size is
  precisely the intractability the paper motivates with.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple, Union

from repro.core.cind import Capture
from repro.core.conditions import ConditionScope, conditions_of_triple
from repro.core.discovery import RDFind, RDFindConfig
from repro.core.validation import NaiveProfiler
from repro.rdf.model import Dataset, EncodedDataset


def condition_frequency_histogram(
    dataset: Union[Dataset, EncodedDataset],
    scope: Optional[ConditionScope] = None,
) -> Dict[int, int]:
    """Map each condition frequency to the number of such conditions.

    ``histogram[1]`` is the count of conditions holding for exactly one
    triple — the dominant bucket in every real dataset (Figure 4).
    """
    if isinstance(dataset, Dataset):
        dataset = dataset.encode()
    scope = scope if scope is not None else ConditionScope.full()
    frequencies: Counter = Counter()
    for triple in dataset:
        frequencies.update(conditions_of_triple(triple, scope))
    histogram: Counter = Counter(frequencies.values())
    return dict(histogram)


def _distinct_captures(
    dataset: EncodedDataset, scope: ConditionScope, h: int = 1
) -> Tuple[int, int, int]:
    """(#captures, #captures over h-frequent conditions, #broad captures).

    A *broad* capture has at least ``h`` distinct values in its
    interpretation — only those can be dependent captures of broad CINDs.
    """
    frequencies: Counter = Counter()
    for triple in dataset:
        frequencies.update(conditions_of_triple(triple, scope))

    capture_values: Set[Tuple[Capture, int]] = set()
    for triple in dataset:
        for condition in conditions_of_triple(triple, scope):
            used = set(condition.attrs)
            for attr in scope.projection_attrs:
                if attr not in used:
                    capture = Capture(attr, condition)
                    capture_values.add((capture, triple[int(attr)]))

    supports: Counter = Counter(capture for capture, _value in capture_values)
    total = len(supports)
    frequent = sum(
        1 for capture in supports if frequencies[capture.condition] >= h
    )
    broad = sum(
        1
        for capture, support in supports.items()
        if support >= h and frequencies[capture.condition] >= h
    )
    return total, frequent, broad


@dataclass
class SearchSpaceFunnel:
    """The concentric counts of the paper's Figure 2."""

    dataset_name: str
    triples: int
    h: int
    captures_total: int
    captures_frequent: int
    captures_broad: int
    all_cind_candidates: int
    frequent_condition_candidates: int
    broad_cind_candidates: int
    broad_cinds: int
    pertinent_cinds: int
    association_rules: int
    valid_cinds: Optional[int] = None
    minimal_cinds: Optional[int] = None

    def rows(self):
        """(label, count) rows in the paper's outer-to-inner order."""
        out = [
            ("all CIND candidates", self.all_cind_candidates),
        ]
        if self.valid_cinds is not None:
            out.append(("all CINDs", self.valid_cinds))
        if self.minimal_cinds is not None:
            out.append(("minimal CINDs", self.minimal_cinds))
        out.extend(
            [
                (
                    "CIND candidates w/ frequent conditions",
                    self.frequent_condition_candidates,
                ),
                ("broad CIND candidates", self.broad_cind_candidates),
                ("broad CINDs", self.broad_cinds),
                ("pertinent CINDs", self.pertinent_cinds),
                ("(broad) association rules", self.association_rules),
            ]
        )
        return out

    def describe(self) -> str:
        """Multi-line rendering of the funnel."""
        lines = [
            f"search space of {self.dataset_name} "
            f"({self.triples:,} triples, h={self.h}):"
        ]
        lines.extend(f"  {label:<42} {count:>16,}" for label, count in self.rows())
        return "\n".join(lines)


def search_space_funnel(
    dataset: Union[Dataset, EncodedDataset],
    h: int,
    scope: Optional[ConditionScope] = None,
    exhaustive: bool = False,
    parallelism: int = 4,
) -> SearchSpaceFunnel:
    """Compute the Figure 2 funnel for a dataset and support threshold.

    Candidate counts are exact (ordered capture pairs); the broad and
    pertinent CIND counts come from an RDFind run.  With
    ``exhaustive=True`` the all-valid and all-minimal counts are computed
    by the brute-force oracle — only feasible for small datasets, as the
    paper's own numbers (1.3 *billion* CINDs in 72k triples) attest.
    """
    if isinstance(dataset, Dataset):
        dataset = dataset.encode()
    scope = scope if scope is not None else ConditionScope.full()

    total, frequent, broad_captures = _distinct_captures(dataset, scope, h)
    config = RDFindConfig(
        support_threshold=h, parallelism=parallelism, scope=scope
    )
    result = RDFind(config).discover(dataset)

    valid_cinds = minimal_cinds = None
    if exhaustive:
        profiler = NaiveProfiler(dataset, scope)
        valid = profiler.broad_cinds(1)
        valid_cinds = len(valid)
        minimal_cinds = len(profiler.pertinent_cinds(1))

    return SearchSpaceFunnel(
        dataset_name=dataset.name,
        triples=len(dataset),
        h=h,
        captures_total=total,
        captures_frequent=frequent,
        captures_broad=broad_captures,
        all_cind_candidates=total * (total - 1),
        frequent_condition_candidates=frequent * (frequent - 1),
        broad_cind_candidates=broad_captures * max(0, frequent - 1),
        broad_cinds=result.stats.num_broad_cinds,
        pertinent_cinds=result.stats.num_pertinent_cinds,
        association_rules=len(result.association_rules),
        valid_cinds=valid_cinds,
        minimal_cinds=minimal_cinds,
    )
