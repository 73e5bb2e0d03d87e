"""The one input loader of the CLI and the server worker: N-Triples,
Turtle (``.ttl``), snapshots (``.snap``), ``dataset:<Name>`` and
``endpoint:<URL>``.  It imports only what loading needs, so a worker
loads an input without the CLI's subcommands.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.datasets.registry import load
from repro.rdf.model import Dataset, EncodedDataset
from repro.rdf.ntriples import parse_ntriples_file
from repro.rdf.turtle import parse_turtle_file
from repro.storage.snapshot import (
    SNAPSHOT_SUFFIX,
    load_snapshot,
    load_with_snapshot_cache,
    snapshot_cache_fields,
)

__all__ = ["load_input", "load_source"]


def load_input(
    spec: str,
    scale: float = 1.0,
    encoded: bool = True,
    snapshot_dir: Optional[str] = None,
    parse_ntriples: Callable[[str], Dataset] = parse_ntriples_file,
) -> "Dataset | EncodedDataset":
    """Load an input, dictionary-encoded unless ``encoded`` is false.

    ``dataset:`` inputs are generated straight into dictionary-encoded
    columns and parsed files are encoded right after parsing;
    ``encoded=False`` returns the string :class:`Dataset` instead (for
    callers that re-encode several inputs into one shared dictionary).

    ``*.snap`` inputs are mmap-loaded snapshots.  With ``snapshot_dir``
    set, other encoded inputs go through the snapshot cache: a warm job
    skips parsing entirely, a cold one leaves a snapshot behind.
    """
    if str(spec).endswith(SNAPSHOT_SUFFIX):
        dataset = load_snapshot(spec)
        return dataset if encoded else dataset.decode()
    if snapshot_dir and encoded:
        dataset, _hit = load_with_snapshot_cache(
            snapshot_dir,
            snapshot_cache_fields(spec, scale),
            lambda: load_source(spec, scale, True, parse_ntriples),
        )
        return dataset
    return load_source(spec, scale, encoded, parse_ntriples)


def load_source(
    spec: str,
    scale: float,
    encoded: bool,
    parse_ntriples: Callable[[str], Dataset] = parse_ntriples_file,
) -> "Dataset | EncodedDataset":
    """Parse/generate an input from its source of truth (no snapshots)."""
    if spec.startswith("dataset:"):
        return load(spec[len("dataset:") :], scale=scale, encoded=encoded)
    if spec.startswith("endpoint:"):
        # rdfind fetch's defaults; to tune a fetch, fetch to a .snap first.
        from repro.federation.client import SparqlEndpointClient
        from repro.federation.ingest import fetch_endpoint

        url = spec[len("endpoint:") :]
        dataset = fetch_endpoint(SparqlEndpointClient(url), name=url).encoded
        return dataset if encoded else dataset.decode()
    if str(spec).endswith((".ttl", ".turtle")):
        dataset = parse_turtle_file(spec)
    else:
        dataset = parse_ntriples(spec)
    return dataset.encode() if encoded else dataset
