"""One-shot RDF dataset profiling report.

The related-work section of the paper situates RDFind among RDF profiling
tools like ProLOD++ [2], which bundle many profiling primitives behind a
single entry point.  This module provides that bundle for this library:
one call analyses a dataset end to end —

1. basic shape (triples, vocabulary sizes),
2. the condition-frequency distribution (Figure 4's quantity),
3. a recommended support threshold (Section 10 future work),
4. pertinent CINDs and ARs at that threshold,
5. ontology hints, knowledge facts, and a meaningfulness ranking —

and renders everything as a readable report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.apps.advisor import ThresholdReport, recommend_support_threshold
from repro.apps.knowledge import KnowledgeFact, discover_knowledge
from repro.apps.ontology import OntologyHint, reverse_engineer_ontology
from repro.apps.ranking import ScoredCIND, rank_cinds
from repro.core.discovery import DiscoveryResult, RDFind, RDFindConfig
from repro.rdf.model import ALL_ATTRS, Attr, Dataset, EncodedDataset


@dataclass
class ProfileReport:
    """Everything :func:`profile_dataset` found."""

    name: str
    triples: int
    distinct_terms: dict
    threshold_report: ThresholdReport
    chosen_h: int
    discovery: DiscoveryResult
    ontology_hints: List[OntologyHint]
    knowledge_facts: List[KnowledgeFact]
    ranking: List[ScoredCIND] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def describe(self, limit: int = 10) -> str:
        """Multi-line, human-readable report."""
        lines = [
            f"=== profile of {self.name or 'dataset'} ===",
            f"{self.triples:,} triples | "
            + " | ".join(
                f"{count:,} distinct {attr}"
                for attr, count in self.distinct_terms.items()
            ),
            "",
            "--- support-threshold analysis ---",
            self.threshold_report.describe(),
            "",
            f"--- discovery at h={self.chosen_h} ---",
            f"{len(self.discovery.cinds):,} pertinent CINDs, "
            f"{len(self.discovery.association_rules):,} association rules "
            f"({self.discovery.elapsed_seconds:.2f}s)",
        ]
        if self.ranking:
            lines.append("")
            lines.append("--- most meaningful CINDs ---")
            lines.extend(
                "  " + row.render(self.discovery.dictionary)
                for row in self.ranking[:limit]
            )
        if self.ontology_hints:
            lines.append("")
            lines.append(f"--- ontology hints ({len(self.ontology_hints)}) ---")
            lines.extend(
                "  " + hint.describe() for hint in self.ontology_hints[:limit]
            )
        if self.knowledge_facts:
            lines.append("")
            lines.append(
                f"--- knowledge facts ({len(self.knowledge_facts)}) ---"
            )
            lines.extend(
                "  " + fact.describe() for fact in self.knowledge_facts[:limit]
            )
        return "\n".join(lines)


def profile_dataset(
    dataset: Union[Dataset, EncodedDataset],
    h: Optional[int] = None,
    config: Optional[RDFindConfig] = None,
) -> ProfileReport:
    """Profile a dataset end to end.

    ``h`` defaults to the advisor's knowledge-discovery recommendation;
    discovery runs under ``config`` with its support threshold set to ``h``.
    """
    started = time.perf_counter()
    if isinstance(dataset, Dataset):
        dataset = dataset.encode()

    threshold_report = recommend_support_threshold(dataset)
    if h is None:
        h = next(
            rec.h
            for rec in threshold_report.recommendations
            if rec.use_case == "knowledge discovery"
        )

    discovery = RDFind((config or RDFindConfig()).with_support(h)).discover(dataset)

    return ProfileReport(
        name=dataset.name,
        triples=len(dataset),
        distinct_terms={
            attr.symbol: len(dataset.values(attr)) for attr in ALL_ATTRS
        },
        threshold_report=threshold_report,
        chosen_h=h,
        discovery=discovery,
        ontology_hints=reverse_engineer_ontology(discovery, min_support=h),
        knowledge_facts=discover_knowledge(discovery, min_support=h),
        ranking=rank_cinds(discovery, dataset),
        elapsed_seconds=time.perf_counter() - started,
    )
