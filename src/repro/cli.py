"""Command-line interface: ``rdfind`` (or ``python -m repro``).

Subcommands::

    rdfind datasets                     # the Table 2 registry
    rdfind generate Diseasome -o d.nt   # write a dataset as N-Triples
    rdfind discover d.nt -s 25          # pertinent CINDs + ARs of a file
    rdfind discover dataset:LUBM-1 -s 100 --variant de
    rdfind funnel dataset:Diseasome -s 10        # Figure 2 numbers
    rdfind histogram dataset:DrugBank            # Figure 4 numbers
    rdfind ontology dataset:DB14-MPCE -s 25      # schema hints
    rdfind facts dataset:DB14-MPCE -s 25         # knowledge facts
    rdfind advise dataset:Diseasome              # support-threshold advisor
    rdfind rank dataset:Diseasome -s 25          # meaningfulness ranking
    rdfind inds dataset:LUBM-1                   # plain INDs (SINDY-style)
    rdfind profile dataset:Diseasome             # everything in one report
    rdfind cross a.nt b.nt -s 25                 # cross-dataset CINDs
    rdfind serve --port 8745 --job-dir jobs      # discovery job server
    rdfind snapshot save dataset:Diseasome -o d.snap   # mmap-able snapshot
    rdfind discover d.snap -s 25                 # O(ms) warm start
    rdfind fetch http://host/sparql -o d.snap    # fault-hardened ingestion
    rdfind discover endpoint:http://host/sparql -s 25  # fetch + discover
    rdfind federate http://a/sparql http://b/sparql -s 25  # cross-endpoint

Inputs are N-Triples files, Turtle files (``.ttl``), snapshot files
(``.snap``, see ``rdfind snapshot``), ``dataset:<Name>`` to use a
synthetic Table 2 dataset, or ``endpoint:<URL>`` to ingest a SPARQL
endpoint through the fault-hardened federation client
(:mod:`repro.federation`).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.apps.advisor import recommend_support_threshold
from repro.apps.integration import discover_cross_cinds
from repro.apps.profile_report import profile_dataset
from repro.apps.knowledge import discover_knowledge
from repro.apps.ontology import reverse_engineer_ontology
from repro.apps.ranking import rank_cinds, spurious
from repro.baselines.sindy import discover_inds
from repro.core.conditions import ConditionScope
from repro.core.discovery import DiscoveryResult, RDFind, RDFindConfig
from repro.core.serialization import dump_result
from repro.core.stats import condition_frequency_histogram, search_space_funnel
from repro.datasets.registry import DATASETS, load
from repro.rdf.model import Dataset, EncodedDataset
from repro.rdf.ntriples import parse_ntriples_file, write_ntriples_file
from repro.rdf.turtle import parse_turtle_file
from repro.storage.snapshot import SNAPSHOT_SUFFIX, load_snapshot


def _load_input(
    spec: str,
    scale: float = 1.0,
    encoded: bool = True,
    snapshot_dir: "Optional[str]" = None,
) -> "Dataset | EncodedDataset":
    """Load an input, dictionary-encoded unless ``encoded`` is false.

    ``dataset:`` inputs are generated straight into dictionary-encoded
    columns and parsed files are encoded right after parsing;
    ``encoded=False`` returns the string :class:`Dataset` instead (for
    callers that re-encode several inputs into one shared dictionary).

    ``*.snap`` inputs are mmap-loaded snapshots
    (:mod:`repro.storage.snapshot`).  With ``snapshot_dir`` set, other
    encoded inputs go through the snapshot cache: a warm job skips
    parsing entirely, a cold one leaves a snapshot behind.
    """
    if str(spec).endswith(SNAPSHOT_SUFFIX):
        dataset = load_snapshot(spec)
        return dataset if encoded else dataset.decode()
    if snapshot_dir and encoded:
        from repro.storage.snapshot import (
            load_with_snapshot_cache,
            snapshot_cache_fields,
        )

        dataset, _hit = load_with_snapshot_cache(
            snapshot_dir,
            snapshot_cache_fields(spec, scale),
            lambda: _load_source(spec, scale, encoded=True),
        )
        return dataset
    return _load_source(spec, scale, encoded=encoded)


def _load_source(
    spec: str, scale: float, encoded: bool
) -> "Dataset | EncodedDataset":
    """Parse/generate an input from its source of truth (no snapshots)."""
    if spec.startswith("dataset:"):
        return load(spec[len("dataset:") :], scale=scale, encoded=encoded)
    if spec.startswith("endpoint:"):
        dataset = _fetch_endpoint_input(spec[len("endpoint:") :])
        return dataset if encoded else dataset.decode()
    if str(spec).endswith((".ttl", ".turtle")):
        dataset = parse_turtle_file(spec)
    else:
        dataset = parse_ntriples_file(spec)
    return dataset.encode() if encoded else dataset


def _fetch_endpoint_input(url: str) -> EncodedDataset:
    """Ingest an ``endpoint:<URL>`` input via the federation client.

    Tunables come from the environment (no per-subcommand flags needed
    everywhere an input spec is accepted): RDFIND_ENDPOINT_PAGE_SIZE,
    RDFIND_ENDPOINT_TIMEOUT, RDFIND_FETCH_WORKSPACE (set it to make the
    fetch resumable).  ``rdfind fetch`` exposes the full knob set.
    """
    from repro.federation.client import SparqlEndpointClient
    from repro.federation.ingest import fetch_endpoint

    client = SparqlEndpointClient(
        url,
        timeout=float(os.environ.get("RDFIND_ENDPOINT_TIMEOUT", "10.0")),
    )
    fetched = fetch_endpoint(
        client,
        name=url,
        workspace=os.environ.get("RDFIND_FETCH_WORKSPACE") or None,
        page_size=int(os.environ.get("RDFIND_ENDPOINT_PAGE_SIZE", "1000")),
    )
    return fetched.encoded


def non_negative_int(text: str) -> int:
    """The ``-n/--limit`` type: how many rows to print."""
    limit = int(text)
    if limit < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {limit}")
    return limit


def _scope(name: str) -> ConditionScope:
    if name == "full":
        return ConditionScope.full()
    if name == "predicates":
        return ConditionScope.predicates_only()
    raise SystemExit(f"unknown scope {name!r} (use 'full' or 'predicates')")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="N-Triples file or dataset:<Name>")
    parser.add_argument(
        "-s", "--support", type=int, default=25, help="support threshold h"
    )
    parser.add_argument(
        "-p", "--parallelism", type=int, default=4, help="simulated workers"
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="scale for dataset: inputs"
    )
    _add_executor_flags(parser)


def _add_executor_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--executor", choices=("serial", "process"), default=None,
        help="dataflow backend: 'serial' (inline, default) or 'process' "
        "(persistent process pool on real cores)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="process-pool size (default: min(parallelism, cores))",
    )
    parser.add_argument(
        "--faults", type=int, default=None, metavar="SEED",
        help="inject deterministic faults from this seed (transient errors, "
        "worker crashes, stragglers); recovery must reproduce the clean "
        "output byte-for-byte",
    )
    parser.add_argument(
        "--max-retries", type=int, default=None,
        help="retry budget per task (default: 2)",
    )
    parser.add_argument(
        "--shuffle", choices=("inline", "spill"), default=None,
        help="keyed-operator data plane: 'inline' (in-memory buckets, "
        "default) or 'spill' (disk-backed sorted runs merged reduce-side; "
        "byte-identical output in bounded memory)",
    )
    parser.add_argument(
        "--memory-budget-bytes", type=int, default=None, metavar="BYTES",
        help="per-worker byte cap on spill-mode shuffle state; overflowing "
        "state is cut to a sorted run on disk (requires --shuffle spill)",
    )
    parser.add_argument(
        "--spill-dir", default=None, metavar="DIR",
        help="directory for spill workspaces (default: system temp dir); "
        "each run gets a fresh subdirectory, removed when the run ends",
    )
    parser.add_argument(
        "--checkpoint", choices=("off", "phase", "stage"), default=None,
        help="durable checkpointing granularity: 'phase' persists each "
        "pipeline phase at its boundary, 'stage' also persists sub-stage "
        "boundaries inside the phases (default: off)",
    )
    parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="where the job manifest and checkpoint step files live "
        "(required with --checkpoint; checkpoints survive the run)",
    )
    parser.add_argument(
        "--resume", action="store_true", default=False,
        help="continue a killed job from its last durable checkpoint "
        "boundary (validates the manifest against this run's config; "
        "output is byte-identical to an uninterrupted run)",
    )
    parser.add_argument(
        "--crash-point", action="append", default=None,
        metavar="MOMENT:STEP",
        help="inject a driver crash at a checkpoint boundary, e.g. "
        "'after:fc' (fires once; the attempt count is persisted so a "
        "--resume relaunch passes); repeatable",
    )
    parser.add_argument(
        "--task-timeout-seconds", type=float, default=None, metavar="SECONDS",
        help="per-task wall-clock bound under --executor process; a hung "
        "task becomes a retryable transient fault (default: no bound)",
    )


def _apply_executor_flags(args: argparse.Namespace) -> None:
    """Publish executor/fault flags as environment defaults.

    ``RDFindConfig`` reads RDFIND_EXECUTOR / RDFIND_WORKERS /
    RDFIND_FAULTS / RDFIND_MAX_RETRIES / RDFIND_SHUFFLE /
    RDFIND_MEMORY_BUDGET_BYTES / RDFIND_SPILL_DIR / RDFIND_CHECKPOINT /
    RDFIND_CHECKPOINT_DIR / RDFIND_RESUME / RDFIND_CRASH_POINT /
    RDFIND_TASK_TIMEOUT_SECONDS as its defaults, so
    setting the environment here makes the choice reach every config the
    subcommands build internally (funnel, profile, rank, ...).
    """
    if getattr(args, "executor", None):
        os.environ["RDFIND_EXECUTOR"] = args.executor
    if getattr(args, "workers", None):
        os.environ["RDFIND_WORKERS"] = str(args.workers)
    if getattr(args, "faults", None) is not None:
        os.environ["RDFIND_FAULTS"] = str(args.faults)
    if getattr(args, "max_retries", None) is not None:
        os.environ["RDFIND_MAX_RETRIES"] = str(args.max_retries)
    if getattr(args, "shuffle", None):
        os.environ["RDFIND_SHUFFLE"] = args.shuffle
    if getattr(args, "memory_budget_bytes", None) is not None:
        os.environ["RDFIND_MEMORY_BUDGET_BYTES"] = str(args.memory_budget_bytes)
    if getattr(args, "spill_dir", None):
        _require_writable_dir(args.spill_dir, flag="--spill-dir")
        os.environ["RDFIND_SPILL_DIR"] = args.spill_dir
    if getattr(args, "checkpoint", None):
        os.environ["RDFIND_CHECKPOINT"] = args.checkpoint
    if getattr(args, "checkpoint_dir", None):
        _require_writable_dir(args.checkpoint_dir, flag="--checkpoint-dir")
        os.environ["RDFIND_CHECKPOINT_DIR"] = args.checkpoint_dir
    if getattr(args, "resume", False):
        os.environ["RDFIND_RESUME"] = "1"
    if getattr(args, "crash_point", None):
        os.environ["RDFIND_CRASH_POINT"] = ",".join(args.crash_point)
    if getattr(args, "task_timeout_seconds", None) is not None:
        os.environ["RDFIND_TASK_TIMEOUT_SECONDS"] = str(
            args.task_timeout_seconds
        )


def _require_writable_dir(path: str, *, flag: str) -> None:
    """Fail fast, before any work happens, on an unusable workspace dir.

    Creates the directory when missing and probes writability with a real
    file: discovering at the first spill or checkpoint — possibly hours into
    a job — that the directory is a file or read-only wastes the whole run.
    """
    try:
        os.makedirs(path, exist_ok=True)
        probe = os.path.join(path, f".rdfind-probe-{os.getpid()}.tmp")
        with open(probe, "wb") as handle:
            handle.write(b"probe")
        os.unlink(probe)
    except OSError as error:
        raise SystemExit(f"error: {flag} {path!r} is not a writable directory: {error}")


def _snapshot_cache_dir(args: argparse.Namespace) -> Optional[str]:
    """Where checkpointed runs cache dataset snapshots, if anywhere.

    A run with a checkpoint workspace has opted into durable warm-start
    state, so dataset snapshots live beside the checkpoints — a
    ``--resume`` relaunch then skips re-parsing its input entirely.
    """
    checkpoint_dir = getattr(args, "checkpoint_dir", None) or os.environ.get(
        "RDFIND_CHECKPOINT_DIR"
    )
    if not checkpoint_dir:
        return None
    return os.path.join(checkpoint_dir, "snapshots")


def _discover(args: argparse.Namespace) -> DiscoveryResult:
    dataset = _load_input(
        args.input, scale=args.scale, snapshot_dir=_snapshot_cache_dir(args)
    )
    variant = getattr(args, "variant", "rdfind")
    builders = {
        "rdfind": RDFindConfig,
        "de": RDFindConfig.direct_extraction,
        "nf": RDFindConfig.no_frequent_conditions,
    }
    config = builders[variant](
        support_threshold=args.support,
        parallelism=args.parallelism,
        scope=_scope(getattr(args, "scope", "full")),
    )
    return RDFind(config).discover(dataset)


def cmd_datasets(_args: argparse.Namespace) -> int:
    print(f"{'name':<11} {'paper MB':>9} {'paper triples':>15}  note")
    for spec in DATASETS.values():
        print(
            f"{spec.name:<11} {spec.paper_size_mb:>9,.1f} "
            f"{spec.paper_triples:>15,}  {spec.note}"
        )
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    dataset = load(args.name, scale=args.scale)
    count = write_ntriples_file(dataset, args.output)
    print(f"wrote {count:,} triples of {dataset.name} to {args.output}")
    return 0


def cmd_discover(args: argparse.Namespace) -> int:
    result = _discover(args)
    stats = result.stats
    print(
        f"{result.config.variant_name} h={result.support_threshold}: "
        f"{stats.num_triples:,} triples -> {stats.num_pertinent_cinds:,} pertinent "
        f"CINDs, {len(result.association_rules):,} ARs "
        f"in {result.elapsed_seconds:.2f}s "
        f"(simulated parallel {result.metrics.simulated_parallel_seconds:.2f}s, "
        f"executor={result.metrics.executor} x{result.metrics.workers})"
    )
    metrics = result.metrics
    if metrics.total_faults_injected or metrics.total_retries:
        print(
            f"fault tolerance: {metrics.total_faults_injected} faults injected, "
            f"{metrics.total_retries} task retries"
        )
    if metrics.total_spilled_runs:
        print(
            f"spill: {metrics.total_spilled_runs} runs, "
            f"{metrics.total_spilled_bytes:,} bytes, "
            f"{metrics.total_merge_passes} merge passes"
        )
    if metrics.checkpoint_bytes or metrics.resumed_stages:
        print(
            f"checkpoint: {metrics.checkpoint_bytes:,} bytes written, "
            f"{metrics.resumed_stages} resumed stages, "
            f"{metrics.checkpoint_seconds:.2f}s checkpoint I/O"
        )
    for line in result.render_cinds(args.limit):
        print(" ", line)
    if result.association_rules:
        print("association rules:")
        for line in result.render_association_rules(args.limit):
            print(" ", line)
    if args.output:
        dump_result(result, args.output)
        print(f"full result written to {args.output}")
    return 0


def cmd_funnel(args: argparse.Namespace) -> int:
    dataset = _load_input(args.input, scale=args.scale)
    funnel = search_space_funnel(
        dataset, args.support, exhaustive=args.exhaustive,
        parallelism=args.parallelism,
    )
    print(funnel.describe())
    return 0


def cmd_histogram(args: argparse.Namespace) -> int:
    dataset = _load_input(args.input, scale=args.scale)
    histogram = condition_frequency_histogram(dataset)
    print(f"{'frequency':>10} {'conditions':>12}")
    for frequency in sorted(histogram):
        print(f"{frequency:>10} {histogram[frequency]:>12,}")
    return 0


def cmd_ontology(args: argparse.Namespace) -> int:
    result = _discover(args)
    hints = reverse_engineer_ontology(result, min_support=args.support)
    print(f"{len(hints)} ontology hints:")
    for hint in hints[: args.limit]:
        print(" ", hint.describe())
    return 0


def cmd_facts(args: argparse.Namespace) -> int:
    result = _discover(args)
    facts = discover_knowledge(result, min_support=args.support)
    print(f"{len(facts)} knowledge facts:")
    for fact in facts[: args.limit]:
        print(" ", fact.describe())
    return 0


def cmd_advise(args: argparse.Namespace) -> int:
    dataset = _load_input(args.input, scale=args.scale)
    analysis = recommend_support_threshold(dataset)
    print(analysis.describe())
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    encoded = _load_input(args.input, scale=args.scale)
    result = RDFind(
        RDFindConfig(
            support_threshold=args.support, parallelism=args.parallelism
        )
    ).discover(encoded)
    ranking = rank_cinds(result, encoded)
    flagged = spurious(ranking)
    print(
        f"{len(ranking)} pertinent CINDs ranked; "
        f"{len(flagged)} flagged as likely spurious"
    )
    for row in ranking[: args.limit]:
        print(" ", row.render(result.dictionary))
    return 0


def cmd_inds(args: argparse.Namespace) -> int:
    dataset = _load_input(args.input, scale=args.scale)
    result = discover_inds(dataset, parallelism=args.parallelism)
    print(
        f"plain INDs over the s/p/o attributes "
        f"({result.elapsed_seconds:.2f}s) — the coarseness that motivates "
        f"CINDs (paper Section 1):"
    )
    for line in result.render():
        print(" ", line)
    if not result.inds:
        print("  (no exact attribute-level INDs — as expected on RDF data)")
    return 0


def cmd_cross(args: argparse.Namespace) -> int:
    # cross-dataset discovery re-encodes both sides into one shared
    # dictionary, so the inputs stay in string form here
    left = _load_input(args.left, scale=args.scale, encoded=False)
    right = _load_input(args.right, scale=args.scale, encoded=False)
    report = discover_cross_cinds(left, right, h=args.support)
    print(report.describe(limit=args.limit))
    return 0


def _build_endpoint_client(url: str, args: argparse.Namespace):
    """A federation client configured from an endpoint subcommand's flags."""
    from repro.core.retry import RetryPolicy
    from repro.federation.breaker import CircuitBreaker
    from repro.federation.client import SparqlEndpointClient

    return SparqlEndpointClient(
        url,
        timeout=args.timeout,
        retry=RetryPolicy(
            max_retries=args.retries,
            backoff_seconds=args.backoff,
            jitter=args.jitter,
            seed=args.seed,
        ),
        breaker=CircuitBreaker(
            endpoint=url,
            failure_threshold=args.breaker_threshold,
            cooldown_seconds=args.breaker_cooldown,
        ),
    )


def _add_endpoint_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--page-size", type=int, default=1000,
        help="initial SELECT page size; halves on persistent page "
        "failures and re-grows on success (default 1000)",
    )
    parser.add_argument(
        "--timeout", type=float, default=10.0,
        help="per-request deadline in seconds (default 10)",
    )
    parser.add_argument(
        "--retries", type=int, default=4,
        help="retry budget per request (default 4)",
    )
    parser.add_argument(
        "--backoff", type=float, default=0.2,
        help="base backoff in seconds, doubling per retry (default 0.2)",
    )
    parser.add_argument(
        "--jitter", type=float, default=0.5,
        help="seeded jitter fraction on backoff delays (default 0.5)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="jitter seed; a fixed seed reproduces the exact delay "
        "sequence (default 0)",
    )
    parser.add_argument(
        "--breaker-threshold", type=int, default=5,
        help="consecutive transient failures that open the per-endpoint "
        "circuit breaker (default 5)",
    )
    parser.add_argument(
        "--breaker-cooldown", type=float, default=30.0,
        help="seconds an open breaker waits before letting one probe "
        "through (default 30)",
    )


def cmd_fetch(args: argparse.Namespace) -> int:
    """Ingest a SPARQL endpoint into a local snapshot or N-Triples file."""
    from repro.federation.ingest import fetch_endpoint
    from repro.storage.snapshot import save_snapshot

    client = _build_endpoint_client(args.endpoint, args)
    fetched = fetch_endpoint(
        client,
        name=args.name or args.endpoint,
        workspace=args.workspace,
        page_size=args.page_size,
        min_page_size=args.min_page_size,
        resume=not args.no_resume,
    )
    stats = fetched.stats()
    print(
        f"fetched {stats['triples']:,} triples from {args.endpoint} "
        f"in {stats['pages']} pages "
        f"({stats['requests_sent']} requests, {stats['retries']} retries, "
        f"{stats['page_shrinks']} page shrinks, "
        f"{stats['resumed_rows']:,} rows resumed from workspace)"
    )
    if not fetched.complete:
        print("warning: endpoint served fewer rows than it counted; "
              "the fetch is marked incomplete", file=sys.stderr)
    if args.output.endswith(SNAPSHOT_SUFFIX):
        save_snapshot(fetched.encoded, args.output)
    else:
        write_ntriples_file(fetched.encoded.decode(), args.output)
    print(f"wrote {args.output}")
    return 0


def cmd_federate(args: argparse.Namespace) -> int:
    """Cross-endpoint CIND discovery with graceful degradation."""
    import json as _json

    from repro.federation.cross import federated_discover, federated_result_to_dict

    def parse_source(arg: str):
        # optional NAME=URL labels; bare URLs are their own labels
        name, sep, rest = arg.partition("=")
        if sep and name and "://" not in name and "/" not in name:
            return (name, rest)
        return (arg, arg)

    result = federated_discover(
        [parse_source(arg) for arg in args.endpoints],
        h=args.support,
        page_size=args.page_size,
        workspace_dir=args.workspace_dir,
        client_factory=lambda url: _build_endpoint_client(url, args),
    )
    print(result.describe())
    if args.output:
        document = federated_result_to_dict(result)
        with open(args.output, "w", encoding="utf-8") as handle:
            _json.dump(document, handle, ensure_ascii=False, indent=1)
        print(f"partial-result document written to {args.output}")
    return 0 if result.complete or args.allow_partial else 3


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the discovery job server until SIGTERM/SIGINT.

    The first signal shuts down gracefully: admission stops, in-flight
    workers are terminated and their jobs requeued (their checkpoint
    dirs survive, so the next ``serve`` resumes them at the last durable
    boundary).  A second signal forces immediate death — the job dir is
    registered with :mod:`repro.dataflow.workspace`, so ``*.tmp`` litter
    is swept like a spill tree either way.
    """
    import signal
    import threading

    from repro.server.routes import DiscoveryServer
    from repro.server.service import JobService, ServiceConfig

    _require_writable_dir(args.job_dir, flag="--job-dir")
    service = JobService(
        ServiceConfig(
            job_dir=args.job_dir,
            max_concurrent_jobs=args.max_concurrent_jobs,
            max_queued_jobs=args.max_queued_jobs,
        )
    )
    try:
        server = DiscoveryServer(
            service, host=args.host, port=args.port, quiet=not args.verbose
        )
    except OSError as error:
        raise SystemExit(f"error: cannot bind {args.host}:{args.port}: {error}")

    shutdown_requested = threading.Event()

    def handle_signal(signum: int, frame) -> None:
        if shutdown_requested.is_set():
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        shutdown_requested.set()
        service.stop_admitting()
        # serve_forever blocks this (main) thread; shutdown() blocks
        # until the serve loop exits, so it must run elsewhere.
        threading.Thread(target=server.shutdown, daemon=True).start()

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, handle_signal)

    print(
        f"rdfind server listening on {server.url} "
        f"(job dir {os.path.abspath(args.job_dir)}, "
        f"max {args.max_concurrent_jobs} concurrent / "
        f"{args.max_queued_jobs} queued jobs)",
        flush=True,
    )
    server.serve_forever()
    print("rdfind server stopped (in-flight jobs requeued for resume)")
    return 0


def cmd_snapshot(args: argparse.Namespace) -> int:
    """Manage mmap-loadable dataset snapshots (save / load / info)."""
    import time

    from repro.storage.snapshot import save_snapshot, snapshot_info

    if args.snapshot_command == "save":
        dataset = _load_input(args.input, scale=args.scale)
        header = save_snapshot(dataset, args.output)
        size = os.path.getsize(args.output)
        print(
            f"wrote {header['triples']:,} triples / {header['terms']:,} terms "
            f"to {args.output} ({size:,} bytes)"
        )
        return 0
    if args.snapshot_command == "load":
        started = time.perf_counter()
        dataset = load_snapshot(args.path)
        elapsed = time.perf_counter() - started
        print(
            f"loaded {len(dataset):,} triples / "
            f"{len(dataset.dictionary):,} terms from {args.path} "
            f"in {elapsed * 1000:.1f}ms"
        )
        return 0
    header = snapshot_info(args.path)
    for key in sorted(header):
        print(f"{key:>10}: {header[key]}")
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    """Run streaming discovery over a durable state directory.

    Opens (or resumes) a :class:`~repro.streaming.session.StreamSession`,
    optionally bulk-loads an initial dataset on first open, applies an
    update script (JSON-lines of ``{"op", "s", "p", "o"}``), and emits
    result summaries at a configurable cadence.  With ``-o`` the final
    result document is byte-identical to ``rdfind discover -o`` on the
    materialized dataset.
    """
    import json as _json

    from repro.streaming.session import StreamSession

    _require_writable_dir(args.state_dir, flag="state dir")
    session = StreamSession(
        args.state_dir,
        h=args.support,
        scope=_scope(args.scope),
        compact_every=args.compact_every,
    )
    with session:
        if session.resumed_from_checkpoint or session.replayed_records:
            print(
                f"resumed at seq {session.applied_seq:,} "
                f"(checkpoint: {'yes' if session.resumed_from_checkpoint else 'no'}, "
                f"replayed {session.replayed_records:,} changelog records, "
                f"rebuilt in {session.rebuild_seconds:.2f} s)"
            )
        if args.init:
            if session.applied_seq:
                print(f"state dir is non-empty; ignoring --init {args.init}")
            else:
                dataset = _load_input(args.init, scale=args.scale, encoded=False)
                loaded = session.load_initial(dataset)
                print(
                    f"loaded {loaded:,} initial triples from {args.init} "
                    f"(seq {session.applied_seq:,})"
                )

        def emit(tag: str) -> None:
            cinds = session.pertinent_cinds()
            stats = session.maintainer.stats
            print(
                f"[{tag}] seq {session.applied_seq:,}: "
                f"{session.maintainer.triples:,} triples, "
                f"{len(cinds):,} pertinent CINDs "
                f"(+{stats.triples_added:,}/-{stats.triples_removed:,} applied, "
                f"{stats.compactions} compactions)"
            )

        if args.updates:
            applied = 0
            with open(args.updates, "r", encoding="utf-8") as handle:
                for line_no, line in enumerate(handle, 1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        delta = _json.loads(line)
                        op, s, p, o = (
                            delta["op"], delta["s"], delta["p"], delta["o"]
                        )
                    except (ValueError, KeyError, TypeError) as error:
                        raise SystemExit(
                            f"error: {args.updates}:{line_no}: bad delta ({error})"
                        )
                    session.apply(op, s, p, o)
                    applied += 1
                    if args.emit_every and applied % args.emit_every == 0:
                        emit(f"after {applied:,} updates")
            session.changelog.sync()
            print(f"applied {applied:,} updates from {args.updates}")

        emit("final")
        dictionary = session.maintainer.dictionary
        for supported in session.pertinent_cinds()[: args.limit]:
            print(" ", supported.render(dictionary))
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(session.document_json())
            print(f"full result written to {args.output}")
        if args.dump_dataset:
            count = write_ntriples_file(
                session.store.as_dataset(), args.dump_dataset
            )
            print(f"materialized {count:,} live triples to {args.dump_dataset}")
        if args.compact_on_exit:
            session.compact()
            print(f"checkpointed at seq {session.applied_seq:,}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    dataset = _load_input(args.input, scale=args.scale)
    h = args.support if args.support > 0 else None
    print(profile_dataset(dataset, h=h, parallelism=args.parallelism)
          .describe(limit=args.limit))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdfind",
        description="RDFind: pertinent CIND discovery in RDF datasets "
        "(SIGMOD 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the Table 2 dataset registry")

    generate = sub.add_parser("generate", help="write a dataset as N-Triples")
    generate.add_argument("name", help="dataset name (see 'datasets')")
    generate.add_argument("-o", "--output", required=True)
    generate.add_argument("--scale", type=float, default=1.0)

    discover = sub.add_parser("discover", help="discover pertinent CINDs")
    _add_common(discover)
    discover.add_argument(
        "--variant", choices=("rdfind", "de", "nf"), default="rdfind",
        help="algorithm variant (RDFind, RDFind-DE, RDFind-NF)",
    )
    discover.add_argument(
        "--scope", choices=("full", "predicates"), default="full",
        help="condition scope ('predicates' = the paper's Freebase setting)",
    )
    discover.add_argument("-n", "--limit", type=non_negative_int, default=20)
    discover.add_argument(
        "-o", "--output", default=None,
        help="also write the full result as JSON (see core.serialization)",
    )

    funnel = sub.add_parser("funnel", help="Figure 2 search-space funnel")
    _add_common(funnel)
    funnel.add_argument(
        "--exhaustive", action="store_true",
        help="also count all valid/minimal CINDs (small datasets only!)",
    )

    histogram = sub.add_parser(
        "histogram", help="Figure 4 condition-frequency histogram"
    )
    _add_common(histogram)

    ontology = sub.add_parser("ontology", help="ontology reverse engineering")
    _add_common(ontology)
    ontology.add_argument("-n", "--limit", type=non_negative_int, default=30)

    facts = sub.add_parser("facts", help="knowledge discovery facts")
    _add_common(facts)
    facts.add_argument("-n", "--limit", type=non_negative_int, default=30)

    advise = sub.add_parser(
        "advise", help="recommend support thresholds (paper Section 10)"
    )
    _add_common(advise)

    rank = sub.add_parser(
        "rank", help="rank CINDs by meaningfulness (paper Section 10)"
    )
    _add_common(rank)
    rank.add_argument("-n", "--limit", type=non_negative_int, default=20)

    inds = sub.add_parser(
        "inds", help="plain attribute-level INDs (SINDY-style)"
    )
    _add_common(inds)

    cross = sub.add_parser(
        "cross", help="cross-dataset CINDs (data integration)"
    )
    cross.add_argument("left", help="N-Triples/Turtle file or dataset:<Name>")
    cross.add_argument("right", help="N-Triples/Turtle file or dataset:<Name>")
    cross.add_argument("-s", "--support", type=int, default=25)
    cross.add_argument("--scale", type=float, default=1.0)
    cross.add_argument("-n", "--limit", type=non_negative_int, default=20)

    fetch = sub.add_parser(
        "fetch",
        help="ingest a SPARQL endpoint into a snapshot or N-Triples file "
        "(fault-hardened, resumable)",
    )
    fetch.add_argument("endpoint", help="SPARQL endpoint URL")
    fetch.add_argument(
        "-o", "--output", required=True,
        help="output file: .snap writes a mmap-able snapshot, anything "
        "else N-Triples",
    )
    fetch.add_argument(
        "--name", default=None,
        help="dataset name stored in the output (default: the endpoint URL)",
    )
    fetch.add_argument(
        "--workspace", default=None, metavar="DIR",
        help="resumable fetch workspace: fetched pages persist here and a "
        "rerun continues where the last one stopped",
    )
    fetch.add_argument(
        "--no-resume", action="store_true", default=False,
        help="ignore any pages already in --workspace and refetch from row 0",
    )
    fetch.add_argument(
        "--min-page-size", type=int, default=1,
        help="floor for adaptive page-size halving (default 1)",
    )
    _add_endpoint_flags(fetch)

    federate = sub.add_parser(
        "federate",
        help="cross-endpoint CIND discovery over two or more SPARQL "
        "endpoints (degrades to a partial result if sources die)",
    )
    federate.add_argument(
        "endpoints", nargs="+",
        help="two or more endpoint URLs, optionally labeled NAME=URL",
    )
    federate.add_argument(
        "-s", "--support", type=int, default=25, help="support threshold h"
    )
    federate.add_argument(
        "-o", "--output", default=None,
        help="write the completeness-stamped result document as JSON",
    )
    federate.add_argument(
        "--workspace-dir", default=None, metavar="DIR",
        help="per-source resumable fetch workspaces; a source that dies "
        "midway still contributes its fetched pages as a partial source",
    )
    federate.add_argument(
        "--allow-partial", action="store_true", default=False,
        help="exit 0 even when some sources failed (default: exit 3 on a "
        "partial result; the document is written either way)",
    )
    _add_endpoint_flags(federate)

    serve = sub.add_parser(
        "serve", help="run the discovery job server (HTTP, stdlib-only)"
    )
    serve.add_argument(
        "--host", default=os.environ.get("RDFIND_HOST", "127.0.0.1"),
        help="bind address (default 127.0.0.1; RDFIND_HOST overrides)",
    )
    serve.add_argument(
        "--port", type=int,
        default=int(os.environ.get("RDFIND_PORT", "8745")),
        help="bind port; 0 picks an ephemeral port "
        "(default 8745; RDFIND_PORT overrides)",
    )
    serve.add_argument(
        "--job-dir", default=os.environ.get("RDFIND_JOB_DIR") or None,
        required=not os.environ.get("RDFIND_JOB_DIR"),
        help="durable job workspace: one subdirectory per job holding its "
        "record, result, and checkpoint dir (jobs survive restarts; "
        "RDFIND_JOB_DIR supplies the default)",
    )
    serve.add_argument(
        "--max-concurrent-jobs", type=int,
        default=int(os.environ.get("RDFIND_MAX_CONCURRENT_JOBS", "2")),
        help="worker subprocesses running at once "
        "(default 2; RDFIND_MAX_CONCURRENT_JOBS overrides)",
    )
    serve.add_argument(
        "--max-queued-jobs", type=int,
        default=int(os.environ.get("RDFIND_MAX_QUEUED_JOBS", "8")),
        help="admission bound on waiting jobs; submissions beyond it get "
        "429 + Retry-After (default 8; RDFIND_MAX_QUEUED_JOBS overrides)",
    )
    serve.add_argument(
        "--verbose", action="store_true", default=False,
        help="log every HTTP request to stderr",
    )
    _add_executor_flags(serve)

    snapshot = sub.add_parser(
        "snapshot",
        help="save/load mmap-able dataset snapshots (O(ms) warm start)",
    )
    snapshot_sub = snapshot.add_subparsers(
        dest="snapshot_command", required=True
    )
    snapshot_save = snapshot_sub.add_parser(
        "save", help="parse/generate an input and write it as a .snap file"
    )
    snapshot_save.add_argument(
        "input", help="N-Triples/Turtle file or dataset:<Name>"
    )
    snapshot_save.add_argument(
        "-o", "--output", required=True, help="snapshot file to write"
    )
    snapshot_save.add_argument(
        "--scale", type=float, default=1.0, help="scale for dataset: inputs"
    )
    snapshot_load = snapshot_sub.add_parser(
        "load", help="load a snapshot and report triples/terms/latency"
    )
    snapshot_load.add_argument("path", help="snapshot file (.snap)")
    snapshot_info_parser = snapshot_sub.add_parser(
        "info", help="print a snapshot's header without loading the columns"
    )
    snapshot_info_parser.add_argument("path", help="snapshot file (.snap)")

    stream = sub.add_parser(
        "stream",
        help="streaming discovery: durable changelog + add/remove maintenance",
    )
    stream.add_argument(
        "state_dir",
        help="durable stream state directory (changelog + checkpoints); "
        "reopening it resumes from the last checkpoint",
    )
    stream.add_argument(
        "-s", "--support", type=int, default=25, help="support threshold h"
    )
    stream.add_argument(
        "--scope", choices=("full", "predicates"), default="full",
        help="condition scope ('predicates' = the paper's Freebase setting)",
    )
    stream.add_argument(
        "--init", default=None,
        help="initial dataset (N-Triples/Turtle file or dataset:<Name>) "
        "bulk-loaded as logged adds on first open; ignored on resume",
    )
    stream.add_argument(
        "--scale", type=float, default=1.0, help="scale for dataset: --init"
    )
    stream.add_argument(
        "--updates", default=None,
        help="JSON-lines update script: one {\"op\", \"s\", \"p\", \"o\"} "
        "object per line, op in {add, remove}",
    )
    stream.add_argument(
        "--emit-every", type=int, default=0,
        help="print a result summary every N applied updates (0 = only at end)",
    )
    stream.add_argument(
        "--compact-every", type=int, default=0,
        help="checkpoint the stream state every N applied records "
        "(0 = only with --compact-on-exit)",
    )
    stream.add_argument(
        "--compact-on-exit", action="store_true", default=False,
        help="write a final checkpoint before exiting",
    )
    stream.add_argument("-n", "--limit", type=non_negative_int, default=20)
    stream.add_argument(
        "-o", "--output", default=None,
        help="write the final result document as JSON (byte-identical to "
        "'discover -o' on the materialized dataset)",
    )
    stream.add_argument(
        "--dump-dataset", default=None,
        help="also write the live (materialized) triples as N-Triples",
    )

    profile = sub.add_parser(
        "profile", help="full dataset profiling report (ProLOD++-style)"
    )
    profile.add_argument("input", help="N-Triples file or dataset:<Name>")
    profile.add_argument(
        "-s", "--support", type=int, default=0,
        help="support threshold (0 = use the advisor's recommendation)",
    )
    profile.add_argument("-p", "--parallelism", type=int, default=4)
    profile.add_argument("--scale", type=float, default=1.0)
    _add_executor_flags(profile)
    profile.add_argument("-n", "--limit", type=non_negative_int, default=10)

    return parser


_COMMANDS = {
    "datasets": cmd_datasets,
    "generate": cmd_generate,
    "discover": cmd_discover,
    "funnel": cmd_funnel,
    "histogram": cmd_histogram,
    "ontology": cmd_ontology,
    "facts": cmd_facts,
    "advise": cmd_advise,
    "rank": cmd_rank,
    "inds": cmd_inds,
    "cross": cmd_cross,
    "fetch": cmd_fetch,
    "federate": cmd_federate,
    "profile": cmd_profile,
    "serve": cmd_serve,
    "snapshot": cmd_snapshot,
    "stream": cmd_stream,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    _apply_executor_flags(args)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
