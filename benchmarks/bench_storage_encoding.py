"""Storage-layer benchmark: dictionary-encoded columns vs string records.

Three measurements per Table 2 dataset, mirroring what RDF stores report
for dictionary encoding + vertical partitioning:

1.  *Encode time* — interning a generated string dataset into columns,
    and the loaders' direct path that never materializes the string
    dataset at all.
2.  *Resident set (proxy)* — Python-object footprint of the string
    triples vs the column payload plus the term dictionary.
3.  *Compressed storage v2* — the bit-packed, frequency-remapped
    :class:`~repro.storage.compressed.CompressedDataset` and the frozen
    vertical store vs their PR 1 mutable forms; the compressed column
    payload must come in at least ``MIN_COMPRESSION_V2`` times smaller
    than the encoded columns (content asserted identical first).

Writes ``BENCH_storage.json`` at the repo root with the per-dataset
numbers.
"""

import json
import sys
import time
from pathlib import Path

import pytest

from repro.datasets import registry
from repro.storage.compressed import CompressedDataset
from repro.storage.vertical import VerticalPartitionStore

DATASETS = ("Countries", "Diseasome")

#: Acceptance floor: compressed columns vs the PR 1 encoded columns.
MIN_COMPRESSION_V2 = 2.0

OUTPUT_JSON = Path(__file__).resolve().parent.parent / "BENCH_storage.json"


def _string_bytes(dataset) -> int:
    """Resident-set proxy of a string dataset: triple objects + terms."""
    terms = set()
    total = 0
    for triple in dataset:
        total += sys.getsizeof(triple)
        terms.update(triple)
    return total + sum(sys.getsizeof(term) for term in terms)


def _encoded_bytes(encoded) -> int:
    """Resident-set proxy of columns plus the shared term dictionary."""
    return encoded.nbytes() + encoded.dictionary.nbytes()


@pytest.mark.parametrize("dataset_name", DATASETS)
def test_storage_encoding(dataset_name, benchmark, report):
    def body():
        started = time.perf_counter()
        strings = registry.load(dataset_name)
        generate_seconds = time.perf_counter() - started

        started = time.perf_counter()
        encoded = strings.encode()
        encode_seconds = time.perf_counter() - started

        started = time.perf_counter()
        direct = registry.load(dataset_name, encoded=True)
        direct_seconds = time.perf_counter() - started - generate_seconds

        string_bytes = _string_bytes(strings)
        encoded_bytes = _encoded_bytes(encoded)

        started = time.perf_counter()
        compressed = CompressedDataset.from_encoded(direct)
        compress_seconds = time.perf_counter() - started
        assert list(compressed) == list(direct)  # content identical

        store = VerticalPartitionStore.from_encoded(direct)
        store_mutable_bytes = store.nbytes()
        store.freeze()
        store_frozen_bytes = store.nbytes()

        return {
            "triples": len(encoded),
            "encode_seconds": encode_seconds,
            "direct_seconds": max(direct_seconds, 0.0),
            "string_mb": string_bytes / 1e6,
            "encoded_mb": encoded_bytes / 1e6,
            "column_bytes": direct.nbytes(),
            "compressed_bytes": compressed.nbytes(),
            "compressed_total_bytes": compressed.total_nbytes(),
            "compress_seconds": compress_seconds,
            "column_widths": [c.width for c in compressed.columns],
            "store_mutable_bytes": store_mutable_bytes,
            "store_frozen_bytes": store_frozen_bytes,
        }

    row = benchmark.pedantic(body, rounds=1, iterations=1)

    compression = row["string_mb"] / max(row["encoded_mb"], 1e-9)
    section = report.section(
        f"Storage encoding — {dataset_name} ({row['triples']:,} triples)"
    )
    section.row(
        f"encode {row['encode_seconds']:6.3f}s"
        f" | direct-load encode {row['direct_seconds']:6.3f}s"
    )
    section.row(
        f"resident set {row['string_mb']:7.2f} MB strings ->"
        f" {row['encoded_mb']:7.2f} MB encoded ({compression:4.1f}x smaller)"
    )
    compression_v2 = row["column_bytes"] / max(row["compressed_bytes"], 1)
    store_ratio = row["store_mutable_bytes"] / max(row["store_frozen_bytes"], 1)
    widths = "/".join(str(w) for w in row["column_widths"])
    section.row(
        f"compressed v2 {row['column_bytes']:>10,} B columns ->"
        f" {row['compressed_bytes']:>9,} B bit-packed"
        f" ({compression_v2:4.1f}x, {widths}-bit, "
        f"{row['compress_seconds']:5.2f}s)"
    )
    section.row(
        f"frozen store  {row['store_mutable_bytes']:>10,} B mutable ->"
        f" {row['store_frozen_bytes']:>9,} B frozen ({store_ratio:4.1f}x)"
    )

    payload = {}
    if OUTPUT_JSON.exists():
        try:
            payload = json.loads(OUTPUT_JSON.read_text())
        except ValueError:
            payload = {}
    payload[dataset_name] = dict(
        row,
        compression_v2=compression_v2,
        store_compression=store_ratio,
    )
    OUTPUT_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    # The columnar layout must never lose on memory.
    assert row["encoded_mb"] < row["string_mb"]
    # Storage v2 acceptance: the bit-packed columns must at least halve
    # the PR 1 encoded column payload, and freezing the vertical store
    # must never lose.
    assert compression_v2 >= MIN_COMPRESSION_V2
    assert store_ratio > 1.0
