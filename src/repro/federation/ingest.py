"""Endpoint → :class:`EncodedDataset` ingestion: paged, adaptive, resumable.

The fetch plan is a single total scan, ``SELECT ?s ?p ?o`` ordered by
``?s ?p ?o`` and paged with ``LIMIT``/``OFFSET``.  The cursor is simply
*rows fetched so far* — and because OFFSET paging over a fixed total
order is prefix-stable, the concatenated row stream is identical no
matter how the page size evolves.  That is the property the whole
robustness story rests on: a fetch that survived timeouts, rate limits
and truncated pages produces byte-identical encoded triples to a clean
one.

Two adaptive/durable layers sit on top of the resilient client:

* :class:`AdaptivePager` — the page size halves when a page fails even
  after the client's own retries (big pages are what time out and what
  get truncated), and re-grows multiplicatively after successes, so one
  bad stretch does not condemn the rest of the fetch to tiny pages.
* a **resumable workspace** (PR 5's manifest pattern): each fetched page
  is appended to ``pages.frames`` as a CRC-framed JSON payload, next to
  a ``manifest.json`` holding a BLAKE2b fingerprint of the fetch
  identity (endpoint + query form).  A re-run resumes from the stored
  row count; a torn tail frame (writer died mid-append) is truncated
  away with a warning; a corrupt frame forces a warned clean restart;
  a fingerprint mismatch is a typed :class:`FetchMismatchError` — the
  checkpoint subsystem's "mismatch is an error, corruption is a warned
  restart" discipline.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

from repro.core.framing import (
    FrameCorruptionError,
    ManifestError,
    fingerprint_fields,
    read_manifest,
    read_whole_frames,
    sweep_tmp,
    write_frame,
    write_manifest,
)
from repro.federation.client import SparqlEndpointClient
from repro.federation.errors import (
    FetchMismatchError,
    MalformedResponseError,
    TransientEndpointError,
)
from repro.storage.columnar import EncodedDataset
from repro.storage.dictionary import TermDictionary

__all__ = [
    "AdaptivePager",
    "FetchResult",
    "MANIFEST_NAME",
    "PAGES_NAME",
    "fetch_endpoint",
    "page_query",
]

MANIFEST_NAME = "manifest.json"
PAGES_NAME = "pages.frames"
MANIFEST_FORMAT = "rdfind-fetch-manifest"
MANIFEST_VERSION = 1

#: The one query shape this ingester runs, paged.  The explicit total
#: order is what makes OFFSET cursors prefix-stable across page sizes.
SCAN_QUERY = "SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o"


def page_query(offset: int, limit: int) -> str:
    """The scan query for one page window."""
    return f"{SCAN_QUERY} LIMIT {limit} OFFSET {offset}"


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


class AdaptivePager:
    """LIMIT sizing that backs off under faults and recovers after them.

    ``shrink()`` halves the page (never below ``min_page_size``) and is
    called when a page request fails even after the client's retry
    budget — the usual cause being a page too large for the endpoint's
    patience or the path's reliability.  ``grow()`` doubles it back
    (never above ``max_page_size``) after a successful page, so the
    penalty decays once the endpoint recovers.
    """

    def __init__(
        self,
        page_size: int = 1000,
        min_page_size: int = 1,
        max_page_size: Optional[int] = None,
    ) -> None:
        if min_page_size < 1:
            raise ValueError("min_page_size must be >= 1")
        if page_size < min_page_size:
            raise ValueError(
                f"page_size {page_size} is below min_page_size {min_page_size}"
            )
        self.min_page_size = min_page_size
        self.max_page_size = max_page_size if max_page_size is not None else page_size
        if self.max_page_size < page_size:
            raise ValueError(
                f"max_page_size {self.max_page_size} is below page_size {page_size}"
            )
        self.page_size = page_size
        self.shrinks = 0
        self.grows = 0
        #: Every page size actually used, in order — the test surface.
        self.sizes_used: List[int] = []

    def shrink(self) -> bool:
        """Halve the page size; ``False`` when already at the floor."""
        if self.page_size <= self.min_page_size:
            return False
        self.page_size = max(self.min_page_size, self.page_size // 2)
        self.shrinks += 1
        return True

    def grow(self) -> None:
        """Double the page size back toward the cap after a success."""
        if self.page_size < self.max_page_size:
            self.page_size = min(self.max_page_size, self.page_size * 2)
            self.grows += 1


@dataclass
class FetchResult:
    """What one endpoint fetch produced, and how hard it had to work."""

    encoded: EncodedDataset
    endpoint: str
    rows: int
    pages: int
    resumed_rows: int
    requests_sent: int
    retries: int
    page_shrinks: int
    complete: bool = True

    def stats(self) -> dict:
        """The run's counters as a plain dict (for reports/benchmarks)."""
        return {
            "endpoint": self.endpoint,
            "rows": self.rows,
            "triples": len(self.encoded),
            "pages": self.pages,
            "resumed_rows": self.resumed_rows,
            "requests_sent": self.requests_sent,
            "retries": self.retries,
            "page_shrinks": self.page_shrinks,
            "complete": self.complete,
        }


# -- resumable workspace ------------------------------------------------


def _fetch_fingerprint(endpoint: str) -> str:
    """Identity of one fetch: the endpoint and the exact query shape.

    Deliberately excludes the page size — pagination is prefix-stable,
    so resuming with a different (or adaptively changed) page size is
    sound and must not be rejected.
    """
    return fingerprint_fields(
        endpoint=endpoint,
        query=SCAN_QUERY,
        page_format=f"{MANIFEST_FORMAT}-v{MANIFEST_VERSION}",
    )


def _load_pages(path: str) -> Tuple[List[Tuple[str, str, str]], int]:
    """Stored rows and the page count; a torn tail frame is cut off.

    Corruption propagates for the caller to turn into a clean restart.
    """
    payloads, cut = read_whole_frames(path)
    if cut:
        _warn(
            f"fetch workspace {path} ends in a torn page frame; "
            f"dropping the tail and resuming from the last whole page"
        )
    rows: List[Tuple[str, str, str]] = []
    for payload in payloads:
        page = json.loads(payload.decode("utf-8"))
        if not isinstance(page, list):
            raise FrameCorruptionError(
                f"page frame payload is not a row list: {type(page).__name__}"
            )
        rows.extend((s, p, o) for s, p, o in page)
    return rows, len(payloads)


def _open_workspace(
    directory: str, endpoint: str, resume: bool
) -> Tuple[List[Tuple[str, str, str]], int]:
    """Prepare the workspace; returns (resumed rows, resumed page count).

    A dead writer's temp litter is swept first.  Fresh directory → write
    the manifest, start empty.  Existing workspace → validate the
    fingerprint (mismatch is a typed error), then load the stored pages,
    restarting cleanly (with a warning) on corruption.
    """
    os.makedirs(directory, exist_ok=True)
    sweep_tmp(directory)
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    pages_path = os.path.join(directory, PAGES_NAME)
    fingerprint = _fetch_fingerprint(endpoint)

    def restart() -> Tuple[List[Tuple[str, str, str]], int]:
        open(pages_path, "wb").close()
        return [], 0

    def fresh() -> Tuple[List[Tuple[str, str, str]], int]:
        fields = {"endpoint": endpoint, "query": SCAN_QUERY, "fingerprint": fingerprint}
        write_manifest(manifest_path, MANIFEST_FORMAT, MANIFEST_VERSION, fields)
        return restart()

    if not resume:
        return fresh()
    try:
        manifest = read_manifest(manifest_path, MANIFEST_FORMAT, MANIFEST_VERSION)
        stored = manifest["fingerprint"]
    except FileNotFoundError:
        return fresh()
    except (ManifestError, KeyError) as error:
        _warn(
            f"fetch workspace manifest {manifest_path} is unreadable "
            f"({error}); restarting the fetch cleanly"
        )
        return fresh()
    if stored != fingerprint:
        raise FetchMismatchError(
            f"fetch workspace {directory} belongs to a different fetch "
            f"(manifest fingerprint {stored}, this fetch {fingerprint}); "
            f"refusing to splice result streams — use a fresh workspace "
            f"or delete this one"
        )
    if not os.path.exists(pages_path):
        return restart()
    try:
        return _load_pages(pages_path)
    except ValueError as error:  # FrameCorruptionError included
        _warn(
            f"fetch workspace {pages_path} is corrupt ({error}); "
            f"restarting the fetch cleanly"
        )
        return restart()


def _append_page(pages_path: str, rows: List[Tuple[str, str, str]]) -> None:
    """Durably append one fetched page as a CRC frame."""
    payload = json.dumps([list(row) for row in rows]).encode("utf-8")
    with open(pages_path, "ab") as handle:
        write_frame(handle, payload)
        handle.flush()
        os.fsync(handle.fileno())


# -- the fetch loop -----------------------------------------------------


def _page_rows(
    page: List[dict], endpoint: str
) -> List[Tuple[str, str, str]]:
    rows: List[Tuple[str, str, str]] = []
    for binding in page:
        try:
            rows.append((binding["s"], binding["p"], binding["o"]))
        except KeyError as error:
            raise MalformedResponseError(
                f"{endpoint} page row is missing variable {error}",
                endpoint=endpoint,
            ) from None
    return rows


def fetch_endpoint(
    source: Union[str, SparqlEndpointClient],
    name: str = "",
    workspace: Optional[str] = None,
    page_size: int = 1000,
    min_page_size: int = 1,
    max_page_size: Optional[int] = None,
    dictionary: Optional[TermDictionary] = None,
    resume: bool = True,
    client_factory: Callable[[str], SparqlEndpointClient] = SparqlEndpointClient,
) -> FetchResult:
    """Stream an endpoint's triples into an :class:`EncodedDataset`.

    ``source`` is an endpoint URL (a default client is built via
    ``client_factory``) or a pre-configured
    :class:`~repro.federation.client.SparqlEndpointClient`.  With
    ``workspace`` the fetch is resumable: already-fetched pages are
    loaded from disk and the scan continues from their row count.
    Passing a shared ``dictionary`` encodes this endpoint's terms into
    the same id space as other sources — the precondition for
    cross-endpoint discovery (see :mod:`repro.federation.cross`).

    Deduplication matches local parsing semantics exactly, so fetching
    an endpoint that serves a local ``.nt`` file yields a byte-identical
    :class:`EncodedDataset` to parsing that file.
    """
    client = source if isinstance(source, SparqlEndpointClient) else client_factory(source)
    endpoint = client.endpoint_url
    pager = AdaptivePager(
        page_size=page_size,
        min_page_size=min_page_size,
        max_page_size=max_page_size,
    )

    pages_path = None
    if workspace is not None:
        stored_rows, stored_pages = _open_workspace(workspace, endpoint, resume)
        pages_path = os.path.join(workspace, PAGES_NAME)
    else:
        stored_rows, stored_pages = [], 0

    rows: List[Tuple[str, str, str]] = list(stored_rows)
    resumed_rows = len(stored_rows)
    pages = stored_pages

    total = client.count_triples()
    complete = True
    while len(rows) < total:
        offset = len(rows)
        try:
            page = client.select(page_query(offset, pager.page_size))
        except (TransientEndpointError, MalformedResponseError):
            # The client's whole retry budget is spent at this page
            # size; halve and try the same window again.  At the floor
            # there is nothing left to adapt — let the error propagate.
            if not pager.shrink():
                raise
            continue
        pager.sizes_used.append(pager.page_size)
        if not page:
            # The endpoint returned fewer rows than it counted (data
            # changed under us, or a lying COUNT).  Stop rather than
            # spin forever on an empty window.
            complete = False
            break
        page_rows = _page_rows(page, endpoint)
        rows.extend(page_rows)
        pages += 1
        if pages_path is not None:
            _append_page(pages_path, page_rows)
        pager.grow()

    encoded = EncodedDataset.from_terms(
        rows,
        dictionary=dictionary,
        name=name or endpoint,
        deduplicate=True,
    )
    return FetchResult(
        encoded=encoded,
        endpoint=endpoint,
        rows=len(rows),
        pages=pages,
        resumed_rows=resumed_rows,
        requests_sent=client.requests_sent,
        retries=client.retries,
        page_shrinks=pager.shrinks,
        complete=complete,
    )
