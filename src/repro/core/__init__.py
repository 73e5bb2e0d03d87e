"""RDFind core: the pertinent-CIND discovery pipeline.

Modules follow the paper's architecture (Figure 3):

* :mod:`repro.core.conditions`, :mod:`repro.core.captures`,
  :mod:`repro.core.cind` — the formalism of Definitions 2.1-2.3 and
  Section 3 (conditions, captures, CINDs, association rules, implication).
* :mod:`repro.core.frequent_conditions` — the FCDetector (Section 5).
* :mod:`repro.core.capture_groups` — the CGCreator (Section 6).
* :mod:`repro.core.extraction` — the CINDExtractor (Section 7.1-7.2).
* :mod:`repro.core.minimality` — broad-to-pertinent consolidation (7.3).
* :mod:`repro.core.discovery` — the RDFind facade tying it all together,
  including the RDFind-DE / RDFind-NF ablation switches of Section 8.5.
* :mod:`repro.core.validation` — a brute-force oracle used by the tests
  and the search-space statistics.
* :mod:`repro.core.stats` — search-space statistics (Figures 2 and 4).
* :mod:`repro.core.serialization` — JSON export/import of results.
"""

from repro.core.cind import CIND, AssociationRule, Capture
from repro.core.conditions import (
    BinaryCondition,
    Condition,
    ConditionScope,
    UnaryCondition,
)
from repro.core.discovery import (
    DiscoveryResult,
    RDFind,
    RDFindConfig,
    find_pertinent_cinds,
)
from repro.core.validation import NaiveProfiler

__all__ = [
    "CIND",
    "AssociationRule",
    "Capture",
    "BinaryCondition",
    "Condition",
    "ConditionScope",
    "UnaryCondition",
    "DiscoveryResult",
    "RDFind",
    "RDFindConfig",
    "find_pertinent_cinds",
    "NaiveProfiler",
]
