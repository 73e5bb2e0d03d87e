"""Cross-endpoint CIND discovery with graceful degradation.

The paper's motivating use case (Section 1) is data integration:
DrugBank's drug references are contained in Diseasome's disease
entities, and CINDs surface exactly such links.  This module runs that
story against *live* sources: every endpoint is fetched into the same
:class:`~repro.storage.dictionary.TermDictionary` id space, then
cross-dataset CINDs (dependent capture from one source, referenced
capture from another) are discovered for every ordered source pair by
the containment core of :mod:`repro.apps.integration`, straight over
the fetched id columns — each source's capture interpretations are
built once, however many pairs it takes part in.

The robustness contract — a federation job degrades, it does not
explode: when a source dies mid-fetch (circuit opens, retries exhausted,
endpoint gone), its outcome is recorded as ``failed`` — or ``partial``
when a resumable workspace preserved some pages — and discovery
proceeds over every pair of sources that *did* produce triples.  The
result document stamps each source's completeness, so a consumer can
tell "no CINDs exist" apart from "the source that would have shown them
was down".
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.apps.integration import (
    IntegrationReport,
    capture_interpretations,
    cross_cinds,
)
from repro.federation.client import SparqlEndpointClient
from repro.federation.errors import FederationError
from repro.federation.ingest import FetchResult, fetch_endpoint
from repro.storage.columnar import EncodedDataset
from repro.storage.dictionary import TermDictionary

__all__ = [
    "FederatedResult",
    "SourceOutcome",
    "federated_discover",
    "federated_result_to_dict",
]

DOCUMENT_FORMAT = "rdfind-federated-cinds"
DOCUMENT_VERSION = 1

COMPLETE = "complete"
PARTIAL = "partial"
FAILED = "failed"


@dataclass
class SourceOutcome:
    """How one endpoint fared in a federation job."""

    name: str
    endpoint: str
    status: str  # COMPLETE | PARTIAL | FAILED
    triples: int
    error: str = ""
    encoded: Optional[EncodedDataset] = None
    fetch: Optional[FetchResult] = None

    @property
    def usable(self) -> bool:
        """Did this source contribute triples to discovery?"""
        return self.encoded is not None and len(self.encoded) > 0

    def to_dict(self) -> dict:
        entry = {
            "name": self.name,
            "endpoint": self.endpoint,
            "status": self.status,
            "triples": self.triples,
        }
        if self.error:
            entry["error"] = self.error
        if self.fetch is not None:
            entry["fetch"] = self.fetch.stats()
        return entry


@dataclass
class FederatedResult:
    """A federation job's full outcome: per-source fates plus the CINDs."""

    sources: List[SourceOutcome]
    pairs: List[Tuple[str, str, IntegrationReport]]
    dictionary: TermDictionary
    support_threshold: int

    @property
    def complete(self) -> bool:
        """True iff every source was fetched in full."""
        return all(source.status == COMPLETE for source in self.sources)

    @property
    def cind_count(self) -> int:
        return sum(len(report.cinds) for _, _, report in self.pairs)

    def describe(self) -> str:
        lines = [
            f"federated discovery over {len(self.sources)} sources "
            f"({'complete' if self.complete else 'PARTIAL'}): "
            f"{self.cind_count} cross-endpoint CINDs"
        ]
        for source in self.sources:
            suffix = f" — {source.error}" if source.error else ""
            lines.append(
                f"  [{source.status}] {source.name}: "
                f"{source.triples} triples{suffix}"
            )
        for left, right, report in self.pairs:
            lines.append(f"  {left} -> {right}: {len(report.cinds)} CINDs")
        return "\n".join(lines)


def federated_result_to_dict(result: FederatedResult) -> dict:
    """The JSON-ready partial-result document.

    Every source carries its completeness status, so a document produced
    by a degraded run is *honest*: pairs touching a failed source are
    absent, and the consumer can see exactly why.  Rendered capture
    strings are inlined (like the single-dataset result format), so the
    document's bytes do not depend on dictionary id assignment.
    """
    return {
        "format": DOCUMENT_FORMAT,
        "version": DOCUMENT_VERSION,
        "support_threshold": result.support_threshold,
        "complete": result.complete,
        "sources": [source.to_dict() for source in result.sources],
        "pairs": [
            {
                "left": left,
                "right": right,
                "cinds": [
                    {
                        "dependent": row.dependent.render(report.dictionary),
                        "referenced": row.referenced.render(report.dictionary),
                        "support": row.support,
                    }
                    for row in report.cinds
                ],
            }
            for left, right, report in result.pairs
        ],
    }


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text).strip("-") or "source"


def _normalize_sources(
    sources: Sequence[Union[str, Tuple[str, Union[str, SparqlEndpointClient]]]],
) -> List[Tuple[str, Union[str, SparqlEndpointClient]]]:
    normalized: List[Tuple[str, Union[str, SparqlEndpointClient]]] = []
    for index, source in enumerate(sources):
        if isinstance(source, tuple):
            name, target = source
        else:
            target = source
            name = (
                target.endpoint_url
                if isinstance(target, SparqlEndpointClient)
                else str(target)
            )
        normalized.append((name or f"source-{index}", target))
    names = [name for name, _ in normalized]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate source names in federation job: {names}")
    return normalized


def federated_discover(
    sources: Sequence[Union[str, Tuple[str, Union[str, SparqlEndpointClient]]]],
    h: int = 25,
    scope=None,
    page_size: int = 1000,
    workspace_dir: Optional[str] = None,
    client_factory: Callable[[str], SparqlEndpointClient] = SparqlEndpointClient,
) -> FederatedResult:
    """Fetch every source and discover CINDs across all usable pairs.

    ``sources`` mixes endpoint URLs, pre-built clients, and
    ``(name, url-or-client)`` pairs.  With ``workspace_dir`` each source
    fetch is resumable under ``<workspace_dir>/<slug(name)>`` — and a
    source whose fetch *fails* midway still contributes the pages its
    workspace preserved (status ``partial``) instead of vanishing.

    Never raises for endpoint failures: a dead source becomes a
    ``failed`` outcome in the returned :class:`FederatedResult`.
    Configuration errors (``h < 1``, duplicate names) still raise.
    """
    if len(sources) < 2:
        raise ValueError(
            f"federated discovery needs at least 2 sources, got {len(sources)}"
        )
    dictionary = TermDictionary()
    outcomes: List[SourceOutcome] = []

    for name, target in _normalize_sources(sources):
        workspace = (
            os.path.join(workspace_dir, _slug(name))
            if workspace_dir is not None
            else None
        )
        endpoint = (
            target.endpoint_url
            if isinstance(target, SparqlEndpointClient)
            else str(target)
        )
        try:
            fetch = fetch_endpoint(
                target,
                name=name,
                workspace=workspace,
                page_size=page_size,
                dictionary=dictionary,
                client_factory=client_factory,
            )
        except FederationError as error:
            salvaged = _salvage(workspace, dictionary, name)
            outcomes.append(
                SourceOutcome(
                    name=name,
                    endpoint=endpoint,
                    status=PARTIAL if salvaged is not None and len(salvaged) else FAILED,
                    triples=len(salvaged) if salvaged is not None else 0,
                    error=f"{type(error).__name__}: {error}",
                    encoded=salvaged,
                )
            )
            continue
        outcomes.append(
            SourceOutcome(
                name=name,
                endpoint=endpoint,
                status=COMPLETE if fetch.complete else PARTIAL,
                triples=len(fetch.encoded),
                encoded=fetch.encoded,
                fetch=fetch,
            )
        )

    # Every source was fetched into `dictionary`, so its id columns are
    # already comparable: interpret each source once, contain per pair.
    usable = [
        (outcome.name, capture_interpretations(outcome.encoded, h, scope))
        for outcome in outcomes
        if outcome.usable
    ]
    pairs: List[Tuple[str, str, IntegrationReport]] = [
        (
            left,
            right,
            IntegrationReport(
                left_name=left,
                right_name=right,
                cinds=cross_cinds(left_values, right_values, h),
                dictionary=dictionary,
            ),
        )
        for left, left_values in usable
        for right, right_values in usable
        if left != right
    ]

    return FederatedResult(
        sources=outcomes,
        pairs=pairs,
        dictionary=dictionary,
        support_threshold=h,
    )


def _salvage(
    workspace: Optional[str], dictionary: TermDictionary, name: str
) -> Optional[EncodedDataset]:
    """Whatever pages a failed fetch durably stored, as a dataset."""
    if workspace is None:
        return None
    from repro.federation.ingest import PAGES_NAME, _load_pages

    pages_path = os.path.join(workspace, PAGES_NAME)
    if not os.path.exists(pages_path):
        return None
    try:
        rows, _, _ = _load_pages(pages_path)
    except Exception:
        return None
    return EncodedDataset.from_terms(
        rows, dictionary=dictionary, name=name, deduplicate=True
    )
