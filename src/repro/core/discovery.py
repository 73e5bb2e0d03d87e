"""RDFind facade: configuration, the end-to-end pipeline, and results.

This is the public entry point of the library::

    from repro import RDFind, RDFindConfig
    result = RDFind(RDFindConfig(support_threshold=25)).discover(dataset)
    for line in result.render_cinds(10):
        print(line)

The facade wires the three paper components together — FCDetector
(Section 5), CGCreator (Section 6), CINDExtractor + minimality
consolidation (Section 7) — on top of the simulated dataflow engine, and
exposes the ablation variants of Section 8.5 as configuration presets:

* :meth:`RDFindConfig.direct_extraction` — RDFind-DE: no capture-support
  pruning, no load balancing, no approximate-validate extraction.
* :meth:`RDFindConfig.no_frequent_conditions` — RDFind-NF: additionally
  skips everything related to frequent conditions (and hence ARs).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.capture_groups import create_capture_groups
from repro.core.cind import (
    CIND,
    AssociationRule,
    Capture,
    SupportedAR,
    SupportedCIND,
    code_capture,
    unary_part_codes,
)
from repro.core.conditions import ConditionScope
from repro.core.extraction import (
    DEFAULT_CANDIDATE_BLOOM_BITS,
    DEFAULT_CANDIDATE_BLOOM_HASHES,
    ExtractionConfig,
    ExtractionStats,
    _Memo,
    extract_broad_cinds,
)
from repro.core.frequent_conditions import (
    DEFAULT_FP_RATE,
    FrequentConditions,
    detect_frequent_conditions,
)
from repro.core.minimality import (
    Block,
    block_cinds,
    broad_cind_list,
    capture_rank,
    consolidate_pertinent,
)
from repro.dataflow.checkpoint import (
    CHECKPOINT_MODES,
    CheckpointManager,
    dataset_digest,
    fingerprint_fields,
)
from repro.dataflow.engine import ExecutionEnvironment
from repro.dataflow.shuffle import SHUFFLE_MODES
from repro.dataflow.executors import EXECUTOR_NAMES
from repro.dataflow.faults import CRASH_MOMENTS, FaultPlan, RetryPolicy
from repro.dataflow.gcpause import gc_paused
from repro.dataflow.metrics import JobMetrics
from repro.rdf.model import Dataset, EncodedDataset, TermDictionary


@dataclass(frozen=True)
class RDFindConfig:
    """Configuration of a discovery run.

    Parameters
    ----------
    support_threshold:
        The broadness threshold ``h`` (Definition 3.1).  The paper
        recommends ~1000 for query minimization and ~25 for knowledge
        discovery.
    parallelism:
        Number of simulated workers.
    scope:
        Projection/condition attribute restrictions;
        :meth:`ConditionScope.predicates_only` reproduces the paper's
        Freebase setting.
    prune_infrequent_conditions:
        First lazy-pruning phase (FCDetector).  ``False`` = RDFind-NF.
    prune_capture_support / balance_dominant_groups:
        Second lazy-pruning phase and the dominant-group machinery.
        Both ``False`` = RDFind-DE.
    bloom_fp_rate:
        False-positive rate of the frequent-condition Bloom filters.
    candidate_bloom_bits / candidate_bloom_hashes:
        Geometry of the per-dominant-group candidate filters (the paper's
        64-byte setting is the default).
    memory_budget:
        Optional per-worker record budget; exceeding it raises
        :class:`~repro.dataflow.engine.SimulatedOutOfMemory` (used to
        reproduce the paper's reported algorithm failures).  The triple
        source is charged at 3 cells per triple.
    keep_broad_cinds:
        Also materialize the full broad (pre-minimality) CIND list on the
        result object.
    executor:
        Dataflow backend: ``"serial"`` (default) runs partition tasks
        inline; ``"process"`` runs them concurrently on a persistent
        process pool — real multi-core execution with byte-identical
        output.  Defaults from the ``RDFIND_EXECUTOR`` environment
        variable when set (how the CLI and CI propagate the choice).
    workers:
        Pool size for the ``process`` executor (defaults to
        ``min(parallelism, available cores)``; ``RDFIND_WORKERS``
        overrides when set).
    fault_seed:
        When set, build a seeded deterministic
        :class:`~repro.dataflow.faults.FaultPlan` and inject faults into
        every stage's tasks (transient errors, worker crashes,
        stragglers).  Recovery must reproduce the fault-free output
        byte-for-byte.  ``RDFIND_FAULTS`` supplies the default.
    fault_plan:
        An explicit plan (overrides ``fault_seed``); lets tests force
        specific faults at specific stages.
    max_retries:
        Retry budget per task (``RetryPolicy.max_retries``).  ``None``
        keeps the policy default.  ``RDFIND_MAX_RETRIES`` supplies the
        default.
    shuffle:
        Data plane for keyed operators: ``"inline"`` (in-memory buckets,
        the default and reference) or ``"spill"`` (disk-backed sorted
        runs under a byte-accurate budget, merged reduce-side; see
        :mod:`repro.dataflow.shuffle`).  Output is byte-identical either
        way.  ``RDFIND_SHUFFLE`` supplies the default.
    memory_budget_bytes:
        Per-worker byte cap on spill-mode shuffle state; overflowing
        state is cut to a sorted run on disk.  Only meaningful with
        ``shuffle="spill"``.  ``RDFIND_MEMORY_BUDGET_BYTES`` supplies the
        default.
    spill_dir:
        Directory under which spill workspaces are created (a fresh
        ``mkdtemp`` per run, removed when the run finishes — success or
        failure).  Defaults to the system temp dir; ``RDFIND_SPILL_DIR``
        supplies the default.
    checkpoint:
        Durable checkpointing granularity: ``"off"`` (default),
        ``"phase"`` (persist each of the three pipeline phases at its
        boundary), or ``"stage"`` (additionally persist sub-stage
        boundaries inside FCDetector and CINDExtractor).  See
        :mod:`repro.dataflow.checkpoint`.  ``RDFIND_CHECKPOINT`` supplies
        the default.
    checkpoint_dir:
        Where the job manifest and step files live.  Required when
        ``checkpoint`` is not ``"off"``; checkpoints are durable — they
        survive the run.  ``RDFIND_CHECKPOINT_DIR`` supplies the default.
    resume:
        Continue a killed job from its last durable boundary: the
        manifest in ``checkpoint_dir`` is validated against this
        config's fingerprint (mismatch is a typed error), completed
        steps are loaded instead of recomputed, and the final output is
        byte-identical to an uninterrupted run.  ``RDFIND_RESUME``
        supplies the default.
    crash_points:
        Injected *driver* crash points, each ``"<moment>:<step>"`` with
        moment ``before`` or ``after`` (e.g. ``"after:fc"``): the
        process aborts at that checkpoint boundary, once — the attempt
        count is persisted in the manifest, so the resumed run passes.
        ``RDFIND_CRASH_POINT`` supplies the default (comma-separated).
    task_timeout_seconds:
        Per-task wall-clock bound under the ``process`` executor; a hung
        task becomes a retryable transient fault instead of hanging the
        job.  Off by default; ignored by ``serial``.
        ``RDFIND_TASK_TIMEOUT_SECONDS`` supplies the default.
    """

    support_threshold: int = 25
    parallelism: int = 4
    scope: ConditionScope = field(default_factory=ConditionScope.full)
    prune_infrequent_conditions: bool = True
    prune_capture_support: bool = True
    balance_dominant_groups: bool = True
    bloom_fp_rate: float = DEFAULT_FP_RATE
    candidate_bloom_bits: int = DEFAULT_CANDIDATE_BLOOM_BITS
    candidate_bloom_hashes: int = DEFAULT_CANDIDATE_BLOOM_HASHES
    memory_budget: Optional[int] = None
    keep_broad_cinds: bool = False
    executor: str = field(
        default_factory=lambda: os.environ.get("RDFIND_EXECUTOR", "serial")
    )
    workers: Optional[int] = field(
        default_factory=lambda: (
            int(os.environ["RDFIND_WORKERS"])
            if os.environ.get("RDFIND_WORKERS")
            else None
        )
    )
    fault_seed: Optional[int] = field(
        default_factory=lambda: (
            int(os.environ["RDFIND_FAULTS"])
            if os.environ.get("RDFIND_FAULTS")
            else None
        )
    )
    fault_plan: Optional[FaultPlan] = None
    max_retries: Optional[int] = field(
        default_factory=lambda: (
            int(os.environ["RDFIND_MAX_RETRIES"])
            if os.environ.get("RDFIND_MAX_RETRIES")
            else None
        )
    )
    shuffle: str = field(
        default_factory=lambda: os.environ.get("RDFIND_SHUFFLE", "inline")
    )
    memory_budget_bytes: Optional[int] = field(
        default_factory=lambda: (
            int(os.environ["RDFIND_MEMORY_BUDGET_BYTES"])
            if os.environ.get("RDFIND_MEMORY_BUDGET_BYTES")
            else None
        )
    )
    spill_dir: Optional[str] = field(
        default_factory=lambda: os.environ.get("RDFIND_SPILL_DIR") or None
    )
    checkpoint: str = field(
        default_factory=lambda: os.environ.get("RDFIND_CHECKPOINT", "off")
    )
    checkpoint_dir: Optional[str] = field(
        default_factory=lambda: os.environ.get("RDFIND_CHECKPOINT_DIR") or None
    )
    resume: bool = field(
        default_factory=lambda: os.environ.get("RDFIND_RESUME", "").lower()
        in ("1", "true", "yes", "on")
    )
    crash_points: Tuple[str, ...] = field(
        default_factory=lambda: tuple(
            point
            for point in os.environ.get("RDFIND_CRASH_POINT", "").split(",")
            if point
        )
    )
    task_timeout_seconds: Optional[float] = field(
        default_factory=lambda: (
            float(os.environ["RDFIND_TASK_TIMEOUT_SECONDS"])
            if os.environ.get("RDFIND_TASK_TIMEOUT_SECONDS")
            else None
        )
    )

    def __post_init__(self) -> None:
        if self.support_threshold < 1:
            raise ValueError(
                f"support threshold must be >= 1, got {self.support_threshold}"
            )
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {self.parallelism}")
        if self.executor not in EXECUTOR_NAMES:
            raise ValueError(
                f"executor must be one of {EXECUTOR_NAMES}, got {self.executor!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_retries is not None and self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.shuffle not in SHUFFLE_MODES:
            raise ValueError(
                f"shuffle must be one of {SHUFFLE_MODES}, got {self.shuffle!r}"
            )
        if self.memory_budget_bytes is not None and self.memory_budget_bytes < 1:
            raise ValueError(
                f"memory_budget_bytes must be >= 1, got {self.memory_budget_bytes}"
            )
        if self.checkpoint not in CHECKPOINT_MODES:
            raise ValueError(
                f"checkpoint must be one of {CHECKPOINT_MODES}, "
                f"got {self.checkpoint!r}"
            )
        if self.checkpoint != "off" and not self.checkpoint_dir:
            raise ValueError(
                "checkpoint_dir is required when checkpointing is on "
                "(set --checkpoint-dir / RDFIND_CHECKPOINT_DIR)"
            )
        if self.resume and self.checkpoint == "off":
            raise ValueError(
                "resume requires checkpointing "
                "(set --checkpoint phase|stage)"
            )
        for point in self.crash_points:
            moment, _separator, step = point.partition(":")
            if moment not in CRASH_MOMENTS or not step:
                raise ValueError(
                    f"bad crash point {point!r} "
                    f"(expected '<{'|'.join(CRASH_MOMENTS)}>:<step>')"
                )
        if self.crash_points and self.checkpoint == "off":
            raise ValueError(
                "crash points fire at checkpoint boundaries; "
                "they require --checkpoint phase|stage"
            )
        if self.task_timeout_seconds is not None and self.task_timeout_seconds <= 0:
            raise ValueError(
                f"task_timeout_seconds must be > 0, got {self.task_timeout_seconds}"
            )

    def effective_fault_plan(self) -> Optional[FaultPlan]:
        """The plan to inject: explicit plan wins, else seeded, else none.

        Configured ``crash_points`` are merged into the plan's forced
        driver crashes either way — they are how the CLI (and CI's
        crash-resume smoke leg) kill a driver at a specific boundary
        without also turning on task-level fault rates.
        """
        plan = self.fault_plan
        if plan is None and self.fault_seed is not None:
            plan = FaultPlan(seed=self.fault_seed)
        crashes = tuple(
            (point.partition(":")[0], point.partition(":")[2])
            for point in self.crash_points
        )
        if crashes:
            if plan is None:
                plan = FaultPlan(
                    seed=0,
                    transient_rate=0.0,
                    crash_rate=0.0,
                    straggler_rate=0.0,
                    driver_crashes=crashes,
                )
            else:
                plan = replace(
                    plan, driver_crashes=plan.driver_crashes + crashes
                )
        return plan

    def effective_retry_policy(self) -> Optional[RetryPolicy]:
        """A policy honouring ``max_retries``, or ``None`` for the default."""
        if self.max_retries is None:
            return None
        return RetryPolicy(max_retries=self.max_retries)

    @classmethod
    def direct_extraction(cls, **overrides) -> "RDFindConfig":
        """The RDFind-DE ablation (Section 8.5): direct extraction."""
        overrides.setdefault("prune_capture_support", False)
        overrides.setdefault("balance_dominant_groups", False)
        return cls(**overrides)

    @classmethod
    def no_frequent_conditions(cls, **overrides) -> "RDFindConfig":
        """The RDFind-NF ablation: DE plus no frequent-condition pruning."""
        overrides.setdefault("prune_infrequent_conditions", False)
        return cls.direct_extraction(**overrides)

    def with_support(self, h: int) -> "RDFindConfig":
        """A copy with a different support threshold."""
        return replace(self, support_threshold=h)

    @property
    def variant_name(self) -> str:
        """Human-readable algorithm variant label."""
        if not self.prune_infrequent_conditions:
            return "RDFind-NF"
        if not (self.prune_capture_support or self.balance_dominant_groups):
            return "RDFind-DE"
        return "RDFind"


@dataclass
class DiscoveryStats:
    """Headline counts of a discovery run."""

    num_triples: int = 0
    num_frequent_unary: int = 0
    num_frequent_binary: int = 0
    num_association_rules: int = 0
    num_capture_groups: int = 0
    num_broad_cinds: int = 0
    num_pertinent_cinds: int = 0
    extraction: ExtractionStats = field(default_factory=ExtractionStats)


@dataclass
class DiscoveryResult:
    """Everything a discovery run produced.

    ``blocks`` are the pertinent CINDs (broad and minimal, trivial and
    AR-implied ones excluded), one ``(dependent, support, refs)`` block of
    capture codes per dependent; ``cinds`` spells them as ``SupportedCIND``
    rows.  ``association_rules`` complement them — an AR stands in for the
    CINDs it implies (Section 3.3).
    """

    blocks: List[Block]
    association_rules: List[SupportedAR]
    dictionary: TermDictionary
    config: RDFindConfig
    stats: DiscoveryStats
    metrics: JobMetrics
    elapsed_seconds: float = 0.0
    broad_cinds: Optional[List[SupportedCIND]] = None
    #: code -> its Capture, one object per distinct code.
    captures: Dict[int, Capture] = field(default_factory=lambda: _Memo(code_capture))

    @cached_property
    def cinds(self) -> List[SupportedCIND]:
        """The pertinent CINDs, most supported first (built on first access)."""
        return list(block_cinds(self.blocks, self.captures.__getitem__))

    @property
    def support_threshold(self) -> int:
        """The ``h`` the run used."""
        return self.config.support_threshold

    def render(self, item: Union[SupportedCIND, SupportedAR, CIND, AssociationRule, Capture]) -> str:
        """Render any result item with this run's term dictionary."""
        return item.render(self.dictionary)

    def render_cinds(self, limit: Optional[int] = None) -> List[str]:
        """Rendered pertinent CINDs (most supported first), building ``limit``."""
        rows = block_cinds(self.blocks, self.captures.__getitem__)
        rows = self.cinds if limit is None else islice(rows, limit)
        return [self.render(row) for row in rows]

    def render_association_rules(self, limit: Optional[int] = None) -> List[str]:
        """Rendered association rules (most supported first)."""
        rows = (
            self.association_rules
            if limit is None
            else self.association_rules[:limit]
        )
        return [self.render(row) for row in rows]

    def cinds_with_min_support(self, h: int) -> List[SupportedCIND]:
        """Pertinent CINDs whose support is at least ``h``."""
        return [row for row in self.cinds if row.support >= h]

    def summary(self) -> Dict[str, float]:
        """Headline numbers (handy as a benchmark row)."""
        return {
            "variant": self.config.variant_name,
            "h": self.support_threshold,
            "triples": self.stats.num_triples,
            "pertinent_cinds": self.stats.num_pertinent_cinds,
            "association_rules": len(self.association_rules),
            "broad_cinds": self.stats.num_broad_cinds,
            "elapsed_seconds": self.elapsed_seconds,
            "simulated_parallel_seconds": self.metrics.simulated_parallel_seconds,
            "executor": self.config.executor,
            "workers": self.metrics.workers,
        }

    def __repr__(self) -> str:
        return (
            f"<DiscoveryResult {self.config.variant_name} h={self.support_threshold}: "
            f"{self.stats.num_pertinent_cinds} pertinent CINDs, "
            f"{len(self.association_rules)} ARs in {self.elapsed_seconds:.2f}s>"
        )


class RDFind:
    """The RDFind discovery system (paper Figure 3)."""

    def __init__(self, config: Optional[RDFindConfig] = None) -> None:
        self.config = config if config is not None else RDFindConfig()

    def discover(
        self,
        dataset: Union[Dataset, EncodedDataset, Sequence],
        h: Optional[int] = None,
        metrics: Optional[JobMetrics] = None,
    ) -> DiscoveryResult:
        """Discover all pertinent CINDs and ARs in ``dataset``.

        ``h`` overrides the configured support threshold for this run.
        Accepts a :class:`Dataset`, an :class:`EncodedDataset`, or any
        sequence of ``(s, p, o)`` string tuples.  ``metrics`` optionally
        supplies the :class:`JobMetrics` the run accumulates into, so an
        observer holding the same object can watch progress live (the
        job server's worker streams it as ``progress.json``); the result
        carries the same instance either way.
        """
        config = self.config if h is None else self.config.with_support(h)
        encoded = _as_encoded(dataset)
        with gc_paused():
            return self._discover_encoded(encoded, config, metrics=metrics)

    def _discover_encoded(
        self,
        encoded: EncodedDataset,
        config: RDFindConfig,
        metrics: Optional[JobMetrics] = None,
    ) -> DiscoveryResult:
        started = time.perf_counter()
        env = ExecutionEnvironment(
            parallelism=config.parallelism,
            memory_budget=config.memory_budget,
            name=f"{config.variant_name}(h={config.support_threshold})",
            executor=config.executor,
            workers=config.workers,
            fault_plan=config.effective_fault_plan(),
            retry_policy=config.effective_retry_policy(),
            shuffle=config.shuffle,
            memory_budget_bytes=config.memory_budget_bytes,
            spill_dir=config.spill_dir,
            task_timeout_seconds=config.task_timeout_seconds,
            metrics=metrics,
        )
        manager: Optional[CheckpointManager] = None
        try:
            if config.checkpoint != "off":
                manager = CheckpointManager(
                    config.checkpoint_dir,
                    config.checkpoint,
                    fingerprint=checkpoint_fingerprint(config, encoded),
                    resume=config.resume,
                    fault_plan=config.effective_fault_plan(),
                    metrics=env.metrics,
                )
                manager.open()
                env.checkpoint = manager

            # Imported here: the kernels import repro.core, whose package
            # import reaches this module.
            from repro.dataflow.kernels import batch_dataset

            batches = batch_dataset(env, encoded)

            def compute_frequent() -> FrequentConditions:
                return detect_frequent_conditions(
                    env,
                    batches,
                    h=config.support_threshold,
                    scope=config.scope,
                    fp_rate=config.bloom_fp_rate,
                )

            frequent: Optional[FrequentConditions] = None
            if config.prune_infrequent_conditions:
                if manager is not None:
                    frequent = manager.step("fc", "phase", compute_frequent)
                else:
                    frequent = compute_frequent()

            extraction_config = ExtractionConfig(
                h=config.support_threshold,
                prune_capture_support=config.prune_capture_support,
                balance_dominant_groups=config.balance_dominant_groups,
                candidate_bloom_bits=config.candidate_bloom_bits,
                candidate_bloom_hashes=config.candidate_bloom_hashes,
            )

            def compute_groups():
                return create_capture_groups(
                    env, batches, scope=config.scope, frequent=frequent
                )

            def compute_extraction():
                # Nesting the cg boundary inside the ex compute means a
                # resume whose ex checkpoint is intact never touches
                # CGCreator at all — the whole prefix is skipped.
                if manager is not None:
                    groups = manager.step_dataset(
                        "cg", "phase", env, compute_groups
                    )
                else:
                    groups = compute_groups()
                return extract_broad_cinds(env, groups, extraction_config)

            if manager is not None:
                broad, extraction_stats = manager.step(
                    "ex", "phase", compute_extraction
                )
            else:
                broad, extraction_stats = compute_extraction()
            captures = _Memo(code_capture)
            decode = captures.__getitem__
            blocks = consolidate_pertinent(broad, capture_rank(broad, decode))
        finally:
            if manager is not None:
                manager.close()
                env.checkpoint = None
            env.close()

        elapsed = time.perf_counter() - started
        stats = DiscoveryStats(
            num_triples=len(encoded),
            num_frequent_unary=len(frequent.unary_counts) if frequent else 0,
            num_frequent_binary=len(frequent.binary_counts) if frequent else 0,
            num_association_rules=len(frequent.association_rules) if frequent else 0,
            num_capture_groups=extraction_stats.groups_total,
            num_broad_cinds=_count_non_trivial_broad(broad),
            num_pertinent_cinds=sum(len(refs) for _dep, _support, refs in blocks),
            extraction=extraction_stats,
        )
        return DiscoveryResult(
            blocks=blocks,
            association_rules=list(frequent.association_rules) if frequent else [],
            dictionary=encoded.dictionary,
            config=config,
            stats=stats,
            metrics=env.metrics,
            elapsed_seconds=elapsed,
            broad_cinds=(
                broad_cind_list(broad, decode) if config.keep_broad_cinds else None
            ),
            captures=captures,
        )


def checkpoint_fingerprint(config: RDFindConfig, encoded: EncodedDataset) -> str:
    """The job identity a checkpoint belongs to (manifest fingerprint).

    Covers everything that shapes the persisted boundary values: the
    dataset content (id columns + dictionary), ``h``, the scope, the
    variant flags, bloom geometry, partitioning, the executor backend,
    and the task-fault seed/rates.  Deliberately excluded: driver crash
    points (the resume launch legitimately drops ``--crash-point``),
    retry/backoff knobs, and the spill plane — none of them change any
    boundary's value.
    """
    plan = config.effective_fault_plan()
    injects_task_faults = plan is not None and (
        plan.transient_rate
        or plan.crash_rate
        or plan.straggler_rate
        or plan.oom_rate
        or plan.forced
    )
    fault_key = ""
    if injects_task_faults:
        # A plan synthesized purely to carry --crash-point injects no task
        # faults and must fingerprint like no plan at all, or the resume
        # launch (which drops --crash-point) would be rejected.
        fault_key = repr(
            (
                plan.seed,
                plan.transient_rate,
                plan.crash_rate,
                plan.straggler_rate,
                plan.oom_rate,
                plan.fire_attempts,
                plan.forced,
            )
        )
    scope = config.scope
    scope_key = repr(
        (
            sorted(str(attr) for attr in scope.projection_attrs),
            sorted(str(attr) for attr in scope.condition_attrs),
            scope.allow_binary,
        )
    )
    return fingerprint_fields(
        dataset=dataset_digest(encoded),
        h=config.support_threshold,
        parallelism=config.parallelism,
        scope=scope_key,
        prune_infrequent_conditions=config.prune_infrequent_conditions,
        prune_capture_support=config.prune_capture_support,
        balance_dominant_groups=config.balance_dominant_groups,
        bloom_fp_rate=config.bloom_fp_rate,
        candidate_bloom_bits=config.candidate_bloom_bits,
        candidate_bloom_hashes=config.candidate_bloom_hashes,
        memory_budget=config.memory_budget,
        executor=config.executor,
        faults=fault_key,
    )


def _count_non_trivial_broad(broad) -> int:
    """``len(broad_cind_list(broad, ...))`` without building the rows."""
    return sum(
        len(refs) - len(refs.intersection(unary_part_codes(dependent)))
        for dependent, (refs, _support) in broad.items()
    )


def _as_encoded(dataset: Union[Dataset, EncodedDataset, Sequence]) -> EncodedDataset:
    if isinstance(dataset, EncodedDataset):
        return dataset
    if isinstance(dataset, Dataset):
        return dataset.encode()
    return Dataset.from_tuples(dataset).encode()


def find_pertinent_cinds(
    dataset: Union[Dataset, EncodedDataset, Sequence],
    support_threshold: int = 25,
    **config_overrides,
) -> DiscoveryResult:
    """One-call convenience wrapper around :class:`RDFind`.

    >>> result = find_pertinent_cinds(triples, support_threshold=2)
    """
    config = RDFindConfig(support_threshold=support_threshold, **config_overrides)
    return RDFind(config).discover(dataset)
