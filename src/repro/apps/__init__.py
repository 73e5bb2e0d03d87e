"""Use-case applications built on discovered CINDs (paper Appendix B).

* :mod:`repro.apps.ontology` — ontology reverse engineering: class and
  predicate hierarchies, predicate domains and ranges.
* :mod:`repro.apps.knowledge` — knowledge discovery: instance-level facts
  (value co-occurrence rules, equivalences) mined from CINDs.
* :mod:`repro.apps.advisor` — support-threshold recommendation (the
  paper's first future-work item, Section 10).
* :mod:`repro.apps.ranking` — meaningful-vs-spurious CIND scoring under a
  local-closed-world reading (the paper's second future-work item).
* :mod:`repro.apps.profile_report` — everything above behind one call, in
  the spirit of the ProLOD++ profiling suite the paper relates to (§9).
* :mod:`repro.apps.integration` — cross-dataset CINDs for data
  integration (join paths and schema correspondences between sources).
"""

from repro.apps.advisor import (
    ThresholdRecommendation,
    ThresholdReport,
    recommend_support_threshold,
)
from repro.apps.integration import (
    CrossCIND,
    IntegrationReport,
    discover_cross_cinds,
)
from repro.apps.knowledge import KnowledgeFact, discover_knowledge
from repro.apps.ontology import OntologyHint, reverse_engineer_ontology
from repro.apps.profile_report import ProfileReport, profile_dataset
from repro.apps.ranking import ScoredCIND, rank_cinds, spurious

__all__ = [
    "ThresholdRecommendation",
    "ThresholdReport",
    "recommend_support_threshold",
    "CrossCIND",
    "IntegrationReport",
    "discover_cross_cinds",
    "KnowledgeFact",
    "discover_knowledge",
    "OntologyHint",
    "reverse_engineer_ontology",
    "ProfileReport",
    "profile_dataset",
    "ScoredCIND",
    "rank_cinds",
    "spurious",
]
