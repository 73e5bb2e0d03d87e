"""Snapshot warm-start benchmark: mmap load vs N-Triples re-parse.

The job server and ``--resume`` both want a dataset back *now*; before
snapshots, every warm start re-tokenized and re-interned the whole
N-Triples file.  This bench writes Diseasome to disk once, then times

1.  the cold path — ``parse_ntriples_file`` + dictionary encoding, and
2.  the warm path — :func:`repro.storage.snapshot.load_snapshot`
    (mmap + three ``frombytes`` column adoptions + lazy term decode),

asserts the snapshot is at least ``MIN_SPEEDUP``x faster, that it
reproduces the source dataset's exact checkpoint digest, and that
end-to-end discovery from the snapshot is byte-identical to the
parse-from-source run on both executors.

Writes ``BENCH_snapshot.json`` at the repo root.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.core.discovery import RDFind, RDFindConfig
from repro.core.serialization import dump_result
from repro.dataflow.checkpoint import dataset_digest
from repro.datasets import registry
from repro.rdf.ntriples import parse_ntriples_file, write_ntriples_file
from repro.storage.snapshot import load_snapshot, save_snapshot

DATASET = "Diseasome"
H = 10
#: Acceptance floor: snapshot load vs N-Triples parse + encode.
MIN_SPEEDUP = 20.0

OUTPUT_JSON = Path(__file__).resolve().parent.parent / "BENCH_snapshot.json"


def _discovery_bytes(dataset, executor: str, path: Path) -> bytes:
    """What ``discover -o`` writes for ``dataset`` on ``executor``."""
    config = RDFindConfig(support_threshold=H, executor=executor)
    dump_result(RDFind(config).discover(dataset), path)
    return path.read_bytes()


def test_snapshot_load(benchmark, report, tmp_path):
    nt_path = str(tmp_path / "diseasome.nt")
    snap_path = str(tmp_path / "diseasome.snap")
    write_ntriples_file(registry.load(DATASET), nt_path)

    def body():
        started = time.perf_counter()
        parsed = parse_ntriples_file(nt_path).encode()
        parse_seconds = time.perf_counter() - started

        started = time.perf_counter()
        save_snapshot(parsed, snap_path)
        save_seconds = time.perf_counter() - started

        started = time.perf_counter()
        loaded = load_snapshot(snap_path)
        load_seconds = time.perf_counter() - started

        assert dataset_digest(loaded) == dataset_digest(parsed)

        identity = {}
        for executor in ("serial", "process"):
            source_bytes = _discovery_bytes(parsed, executor, tmp_path / "source.json")
            snap_bytes = _discovery_bytes(
                load_snapshot(snap_path), executor, tmp_path / "snap.json"
            )
            identity[executor] = source_bytes == snap_bytes
        return {
            "triples": len(parsed),
            "terms": len(parsed.dictionary),
            "nt_bytes": os.path.getsize(nt_path),
            "snap_bytes": os.path.getsize(snap_path),
            "parse_seconds": parse_seconds,
            "save_seconds": save_seconds,
            "load_seconds": load_seconds,
            "identity": identity,
        }

    row = benchmark.pedantic(body, rounds=1, iterations=1)
    speedup = row["parse_seconds"] / max(row["load_seconds"], 1e-9)

    section = report.section(
        f"Snapshot load — {DATASET} ({row['triples']:,} triples, h={H})"
    )
    section.row(
        f"parse+encode {row['parse_seconds']*1000:8.1f}ms ->"
        f" mmap load {row['load_seconds']*1000:6.1f}ms"
        f" ({speedup:6.1f}x; save {row['save_seconds']*1000:6.1f}ms)"
    )
    section.row(
        f"file size {row['nt_bytes']:,} B N-Triples ->"
        f" {row['snap_bytes']:,} B snapshot"
    )
    section.row(
        "discovery from snapshot byte-identical:"
        f" serial={row['identity']['serial']}"
        f" process={row['identity']['process']}"
    )

    OUTPUT_JSON.write_text(
        json.dumps(dict(row, speedup=speedup, h=H), indent=2, sort_keys=True)
        + "\n"
    )

    assert all(row["identity"].values())
    assert speedup >= MIN_SPEEDUP
