"""repro — a full reproduction of RDFind (Kruse et al., SIGMOD 2016).

RDFind discovers all *pertinent* conditional inclusion dependencies
(CINDs) — those that are minimal and broad — plus exact association rules
in RDF datasets.  This package re-implements the complete system on a
simulated distributed dataflow engine, together with the paper's
baselines, evaluation datasets (synthetic stand-ins), and a SPARQL
query-minimization use case.

Quick start::

    from repro import find_pertinent_cinds
    from repro.datasets import table1

    result = find_pertinent_cinds(table1(), support_threshold=2)
    for line in result.render_cinds():
        print(line)

See DESIGN.md for the architecture and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.core.cind import (
    CIND,
    AssociationRule,
    Capture,
    SupportedAR,
    SupportedCIND,
)
from repro.core.conditions import (
    BinaryCondition,
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
from repro.rdf.model import Attr, Dataset, Triple

__version__ = "1.0.0"

__all__ = [
    "CIND",
    "AssociationRule",
    "Capture",
    "SupportedAR",
    "SupportedCIND",
    "BinaryCondition",
    "ConditionScope",
    "UnaryCondition",
    "DiscoveryResult",
    "RDFind",
    "RDFindConfig",
    "find_pertinent_cinds",
    "NaiveProfiler",
    "Attr",
    "Dataset",
    "Triple",
    "__version__",
]
