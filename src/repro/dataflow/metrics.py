"""Execution metrics for the simulated dataflow engine.

Each operator application is a *stage*.  A stage records, per simulated
worker (partition), how many records went in and out and how long the
worker's share took on the real CPU.  From these we derive:

* ``simulated_parallel_seconds`` — the wall-clock a real cluster with that
  many workers would need, modelled as the sum over stages of the slowest
  partition.  This is the quantity plotted in the paper's scale-out
  experiment (Figure 9): skewed stages do not get faster with more
  workers, balanced ones do.
* ``wall_clock_seconds`` — the *real* elapsed time the driver measured
  around each stage's executor run; the tasks run one after another, so
  it tracks ``total_cpu_seconds``.
* ``total_cpu_seconds`` — the aggregate work, independent of parallelism.
* ``shuffled_records`` / ``broadcast_records`` — network volume proxies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass
class StageMetrics:
    """Per-partition accounting for one operator application."""

    name: str
    partition_seconds: List[float] = field(default_factory=list)
    records_in: List[int] = field(default_factory=list)
    records_out: List[int] = field(default_factory=list)
    shuffled_records: int = 0
    broadcast_records: int = 0
    #: Largest combine-state cost any worker reached (fused operators).
    peak_state_cost: int = 0
    #: Real elapsed driver time for this stage's executor run(s).
    wall_seconds: float = 0.0
    #: Task re-executions the executor performed for this stage
    #: (transient failures, worker crashes — see repro.dataflow.faults).
    retries: int = 0
    #: Faults a seeded FaultPlan injected into this stage's tasks.
    faults_injected: int = 0
    #: Gen-0 GC passes the stage's gc-pause wrapper suppressed across
    #: all of its workers (repro.dataflow.gcpause.stage_gc_pause).
    gc_suppressed_collections: int = 0

    @property
    def parallel_seconds(self) -> float:
        """Time the slowest partition spent — the stage's simulated latency."""
        return max(self.partition_seconds, default=0.0)

    @property
    def cpu_seconds(self) -> float:
        """Total CPU time across all partitions."""
        return sum(self.partition_seconds)

    @property
    def total_in(self) -> int:
        """Records consumed across all partitions."""
        return sum(self.records_in)

    @property
    def total_out(self) -> int:
        """Records produced across all partitions."""
        return sum(self.records_out)

    @property
    def skew(self) -> float:
        """Max/mean partition time; 1.0 means perfectly balanced."""
        times = [t for t in self.partition_seconds if t > 0]
        if not times:
            return 1.0
        mean = sum(times) / len(times)
        if mean == 0:
            return 1.0
        return max(times) / mean

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendering of the stage (raw fields plus deriveds).

        This is the wire format the job server streams as live progress
        (``GET /jobs/<id>`` → ``progress.stages``): every value is a
        plain int/float/str/list, so ``json.dumps`` works directly and
        no consumer ever needs to parse :meth:`describe` strings.
        """
        return {
            "name": self.name,
            "partition_seconds": list(self.partition_seconds),
            "records_in": list(self.records_in),
            "records_out": list(self.records_out),
            "shuffled_records": self.shuffled_records,
            "broadcast_records": self.broadcast_records,
            "peak_state_cost": self.peak_state_cost,
            "wall_seconds": self.wall_seconds,
            "retries": self.retries,
            "faults_injected": self.faults_injected,
            "gc_suppressed_collections": self.gc_suppressed_collections,
            "parallel_seconds": self.parallel_seconds,
            "cpu_seconds": self.cpu_seconds,
            "total_in": self.total_in,
            "total_out": self.total_out,
            "skew": self.skew,
        }

    def describe(self) -> str:
        """One-line human-readable summary."""
        line = (
            f"{self.name}: in={self.total_in} out={self.total_out} "
            f"par={self.parallel_seconds * 1000:.1f}ms cpu={self.cpu_seconds * 1000:.1f}ms "
            f"wall={self.wall_seconds * 1000:.1f}ms "
            f"skew={self.skew:.2f} shuffled={self.shuffled_records} "
            f"bcast={self.broadcast_records}"
        )
        if self.faults_injected or self.retries:
            line += f" faults={self.faults_injected} retries={self.retries}"
        if self.gc_suppressed_collections:
            line += f" gc-suppressed={self.gc_suppressed_collections}"
        return line


@dataclass
class JobMetrics:
    """Accumulated metrics for one dataflow job."""

    job_name: str = ""
    parallelism: int = 1
    #: Framed bytes written to checkpoint step files (--checkpoint).
    checkpoint_bytes: int = 0
    #: Driver time spent persisting and restoring checkpoints.
    checkpoint_seconds: float = 0.0
    #: Pipeline boundaries restored from a checkpoint instead of
    #: recomputed (--resume) — the proof that completed work was skipped.
    resumed_stages: int = 0
    stages: List[StageMetrics] = field(default_factory=list)

    def new_stage(self, name: str) -> StageMetrics:
        """Open (and register) a stage record."""
        stage = StageMetrics(name=name)
        self.stages.append(stage)
        return stage

    @property
    def simulated_parallel_seconds(self) -> float:
        """Simulated cluster wall-clock: sum of slowest-partition times."""
        return sum(stage.parallel_seconds for stage in self.stages)

    @property
    def wall_clock_seconds(self) -> float:
        """Real elapsed time across all stages (driver-measured)."""
        return sum(stage.wall_seconds for stage in self.stages)

    @property
    def total_cpu_seconds(self) -> float:
        """Total CPU time across all stages and partitions."""
        return sum(stage.cpu_seconds for stage in self.stages)

    @property
    def shuffled_records(self) -> int:
        """Total records moved across simulated workers."""
        return sum(stage.shuffled_records for stage in self.stages)

    @property
    def broadcast_records(self) -> int:
        """Total record-copies broadcast to workers."""
        return sum(stage.broadcast_records for stage in self.stages)

    @property
    def total_retries(self) -> int:
        """Task re-executions across all stages (fault recovery)."""
        return sum(stage.retries for stage in self.stages)

    @property
    def total_faults_injected(self) -> int:
        """Injected faults across all stages (seeded FaultPlan)."""
        return sum(stage.faults_injected for stage in self.stages)

    @property
    def max_skew(self) -> float:
        """Worst max/mean partition-time ratio over all stages."""
        return max((stage.skew for stage in self.stages), default=1.0)

    @property
    def total_gc_suppressed_collections(self) -> int:
        """GC passes suppressed by stage pauses across all stages."""
        return sum(stage.gc_suppressed_collections for stage in self.stages)

    def stage_by_name(self, name: str) -> Optional[StageMetrics]:
        """First stage with the given name, if any."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        return None

    def to_dict(self) -> Dict[str, object]:
        """The whole job as a JSON-safe dict: identity, totals, stages.

        ``summary`` holds the flat headline numbers (same keys
        :meth:`summary` has always returned); ``stages`` renders every
        :class:`StageMetrics` through its own :meth:`StageMetrics.to_dict`.
        The job server persists and streams exactly this structure
        (``progress.json`` / ``metrics.json``), so progress consumers
        never parse human-oriented :meth:`describe` output.
        """
        return {
            "job_name": self.job_name,
            "summary": {
                "parallelism": self.parallelism,
                "stages": len(self.stages),
                "simulated_parallel_seconds": self.simulated_parallel_seconds,
                "wall_clock_seconds": self.wall_clock_seconds,
                "total_cpu_seconds": self.total_cpu_seconds,
                "shuffled_records": self.shuffled_records,
                "broadcast_records": self.broadcast_records,
                "skew": self.max_skew,
                "retries": self.total_retries,
                "faults_injected": self.total_faults_injected,
                "checkpoint_bytes": self.checkpoint_bytes,
                "checkpoint_seconds": self.checkpoint_seconds,
                "resumed_stages": self.resumed_stages,
                "gc_suppressed_collections": self.total_gc_suppressed_collections,
            },
            "stages": [stage.to_dict() for stage in self.stages],
        }

    def summary(self) -> Dict[str, float]:
        """Headline numbers as a dict (useful for benchmark rows).

        ``skew`` is the worst per-stage max/mean partition-time ratio.
        This is the ``summary`` block of :meth:`to_dict`.
        """
        return dict(self.to_dict()["summary"])

    def describe(self) -> str:
        """Multi-line report of all stages plus totals."""
        lines = [
            f"job {self.job_name!r} (parallelism={self.parallelism})"
        ]
        lines.extend("  " + stage.describe() for stage in self.stages)
        total = (
            f"  TOTAL: par={self.simulated_parallel_seconds * 1000:.1f}ms "
            f"cpu={self.total_cpu_seconds * 1000:.1f}ms "
            f"wall={self.wall_clock_seconds * 1000:.1f}ms "
            f"shuffled={self.shuffled_records} bcast={self.broadcast_records}"
        )
        if self.total_faults_injected or self.total_retries:
            total += (
                f" faults={self.total_faults_injected} "
                f"retries={self.total_retries}"
            )
        if self.checkpoint_bytes or self.resumed_stages:
            total += (
                f" ckpt-bytes={self.checkpoint_bytes} "
                f"ckpt-seconds={self.checkpoint_seconds:.3f} "
                f"resumed={self.resumed_stages}"
            )
        if self.total_gc_suppressed_collections:
            total += f" gc-suppressed={self.total_gc_suppressed_collections}"
        lines.append(total)
        return "\n".join(lines)
