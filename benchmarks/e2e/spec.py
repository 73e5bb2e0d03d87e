"""What the benchmark measures: workloads, metrics, bounds, and the layer map.

This module is the source ``BENCHMARK.json`` is written from
(``run.py --write-spec``); the self-test fails when the two disagree.
Every per-layer metric declares which end-to-end metric it should move
and on which workloads, so a PR that speeds up one layer knows in
advance which rows of the result table may change and which must not.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

#: How long one run measures.  A Diseasome discovery takes ~5.6 s, so 15 s
#: is three repetitions; the driver's 92 runs then fit its 57-minute cap
#: with a third to spare.
RUN_SECONDS = 15

BATCH = ("discover_diseasome", "discover_countries")
STREAM = ("stream_diseasome",)
SERVE = ("serve_diseasome",)

WORKLOADS: List[Tuple[str, str]] = [
    (
        "discover_diseasome",
        "CLI discover, 72k triples -> 2.9k CINDs: CGCreator + CINDExtractor "
        "are ~83% of the work, serialization ~1%; the workload evidence/merge "
        "optimisations must move",
    ),
    (
        "discover_countries",
        "CLI discover, 5.6k triples -> 38 MB result: serialization ~75%, "
        "minimality ~9%; bypass workload for evidence/merge work, exerciser "
        "for result-path and resident-result-size work",
    ),
    (
        "stream_diseasome",
        "StreamSession over 90% of Diseasome, seeded 16-update add/remove "
        "batches, each followed by a fresh result document: durable writes "
        "beside incremental reads",
    ),
    (
        "serve_diseasome",
        "the discover_diseasome job through the HTTP server (cold submit -> "
        "wait -> raw result, then 25 cache hits): the difference to the CLI "
        "run is the serving premium",
    ),
]


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    what: str


#: Times are seconds at reference speed (reference.py): measured seconds
#: over the seconds a fixed loop took beside them, times the loop's nominal
#: duration.  The bounds are the contract's maximum because the box is not
#: steadier than that (README, "Steadiness").
END_TO_END: List[EndToEnd] = [
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "input generation, stream initial load + compaction, server boot: "
        "mean of the set-ups made in the run, in seconds at reference speed",
    ),
    EndToEnd(
        "op_norm_s", "s", "lower", 0.25,
        "mean wall time of the workload's operation, in seconds at reference "
        "speed: discover argv -> exit with the result written; apply_batch + "
        "document_json; cold submit -> result bytes fetched",
    ),
    EndToEnd(
        "peak_rss_mb", "MiB", "lower", 0.08,
        "peak resident memory: median child ru_maxrss (discover), the "
        "session's process (stream), server and its workers (serve)",
    ),
]


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str
    workloads: Tuple[str, ...]


def _layers(moves: str, workloads: Tuple[str, ...], *rows: Tuple[str, str, str]):
    return [Layer(name, unit, better, moves, workloads) for name, unit, better in rows]


PER_LAYER: List[Layer] = [
    # Batch: spans around the calls cli.main makes into each module.
    *_layers(
        "op_norm_s", BATCH,
        ("cli.import_s", "s", "lower"),
        ("cli.main_s", "s", "lower"),
        ("cli.unattributed_s", "s", "lower"),
        ("rdf.ntriples.parse_s", "s", "lower"),
        ("rdf.ntriples.triples", "count", "lower"),
        ("rdf.model.encode_s", "s", "lower"),
        ("rdf.model.terms", "count", "lower"),
        ("core.discovery.discover_self_s", "s", "lower"),
        ("core.frequent_conditions.detect_s", "s", "lower"),
        ("core.frequent_conditions.frequent_unary", "count", "lower"),
        ("core.frequent_conditions.frequent_binary", "count", "lower"),
        ("core.frequent_conditions.association_rules", "count", "lower"),
        ("core.capture_groups.create_s", "s", "lower"),
        ("core.capture_groups.capture_groups", "count", "lower"),
        ("core.extraction.extract_s", "s", "lower"),
        ("core.extraction.broad_cinds", "count", "lower"),
        ("core.minimality.pertinent_cinds", "count", "lower"),
        ("core.minimality.minimal_share", "ratio", "higher"),
        ("core.serialization.dump_s", "s", "lower"),
        ("core.serialization.result_bytes", "bytes", "lower"),
        ("dataflow.engine.stages", "count", "lower"),
        ("dataflow.engine.shuffled_records", "count", "lower"),
        ("dataflow.engine.stage_wall_s", "s", "lower"),
        ("dataflow.gcpause.suppressed_collections", "count", "lower"),
    ),
    Layer("core.minimality.consolidate_s", "s", "lower", "op_norm_s", BATCH + STREAM),
    Layer("trace.overhead_share", "ratio", "lower", "op_norm_s", BATCH + STREAM),
    # The host: raw seconds behind op_norm_s, on every workload.
    *_layers(
        "op_norm_s", BATCH + STREAM + SERVE,
        ("host.op_wall_s", "s", "lower"),
        ("host.reference_loop_s", "s", "lower"),
    ),
    # Streaming: seconds are means per batch.
    *_layers(
        "op_norm_s", STREAM,
        ("streaming.session.unattributed_s", "s", "lower"),
        ("streaming.session.refresh_ms_p90", "ms", "lower"),
        ("streaming.maintainer.document_json_s", "s", "lower"),
        ("streaming.maintainer.document_json_self_s", "s", "lower"),
        ("streaming.maintainer.result_document_self_s", "s", "lower"),
        ("streaming.maintainer.batch_result_self_s", "s", "lower"),
        ("streaming.maintainer.broad_cinds_s", "s", "lower"),
        ("streaming.maintainer.association_rules_s", "s", "lower"),
        ("streaming.maintainer.dependents_recomputed", "count", "lower"),
        ("streaming.maintainer.document_bytes", "bytes", "lower"),
    ),
    *_layers(
        "op_norm_s", STREAM,
        ("streaming.changelog.append_s", "s", "lower"),
        ("streaming.changelog.sync_s", "s", "lower"),
        ("streaming.changelog.records", "count", "lower"),
        ("streaming.changelog.bytes", "bytes", "lower"),
        ("streaming.maintainer.apply_s", "s", "lower"),
        ("streaming.maintainer.updates_ignored", "count", "lower"),
    ),
    *_layers(
        "setup_s", STREAM,
        ("streaming.compaction.save_s", "s", "lower"),
        ("streaming.compaction.checkpoint_bytes", "bytes", "lower"),
        ("streaming.session.reopen_s", "s", "lower"),
        ("streaming.session.replayed_records", "count", "lower"),
    ),
    # Serving: read from the job record, outcome.json and metrics.json.
    Layer("server.boot_s", "s", "lower", "setup_s", SERVE),
    *_layers(
        "op_norm_s", SERVE,
        ("server.submit_ms", "ms", "lower"),
        ("server.queue_wait_s", "s", "lower"),
        ("server.worker_wall_s", "s", "lower"),
        ("server.worker_elapsed_s", "s", "lower"),
        ("server.worker_overhead_s", "s", "lower"),
        ("server.discover_stage_wall_s", "s", "lower"),
        ("server.checkpoint_s", "s", "lower"),
        ("server.checkpoint_bytes", "bytes", "lower"),
        ("storage.snapshot.bytes", "bytes", "lower"),
        ("server.result_get_ms", "ms", "lower"),
        ("server.premium_s", "s", "lower"),
    ),
    *_layers(
        "op_norm_s", SERVE,
        ("server.cache_hit_ms_p50", "ms", "lower"),
        ("server.cache_hit_ms_p90", "ms", "lower"),
    ),
]


def benchmark_json() -> Dict[str, object]:
    """The contract file at the repo root, rendered from this module."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
