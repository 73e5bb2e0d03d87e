"""A miniature Flink-like dataflow engine.

The RDFind paper implements its discovery pipeline as a single Flink job
(Appendix C).  This subpackage provides the operator vocabulary that job
needs — ``map``/``flatMap``/``filter``, keyed aggregation with local
combiners (Flink's GroupCombine + GroupReduce), ``coGroup`` joins, global
reduction ("collect" to one worker), broadcast, and repartitioning — on top
of an eager, deterministic, single-process executor that partitions data
across *simulated workers*.

Every stage records per-partition record counts and wall-clock time, so a
job's *simulated parallel runtime* (sum over stages of the slowest
partition) and shuffle volume can be reported.  These are the quantities
behind the paper's scale-out and skew experiments (Figures 9, 12, 13): the
shape of those curves is a function of per-partition load, which the
simulation preserves exactly.

The per-partition tasks run inline, one after another
(:mod:`repro.dataflow.executors`), with seeded fault injection and
bounded retries.

Keyed operators shuffle through hash buckets held in memory; a
record-count budget per worker models the out-of-memory failures the
paper reports.

The hot stages of the three discovery phases run as fused batch kernels
over columnar id slices (:mod:`repro.dataflow.kernels`).
"""

from repro.dataflow.bloom import BloomFilter
from repro.dataflow.checkpoint import (
    CheckpointError,
    CheckpointManager,
    CheckpointMismatchError,
    JobManifest,
)
from repro.dataflow.engine import (
    DataSet,
    ExecutionEnvironment,
    SimulatedOutOfMemory,
    stable_hash,
)
from repro.dataflow.executors import SerialExecutor
from repro.dataflow.faults import (
    DRIVER_CRASH_EXIT_CODE,
    FaultPlan,
    InjectedTaskFault,
    RetryPolicy,
    SimulatedClock,
    SimulatedWorkerCrash,
)
from repro.dataflow.gcpause import gc_paused, stage_gc_pause
from repro.dataflow.metrics import JobMetrics, StageMetrics

__all__ = [
    "BloomFilter",
    "CheckpointError",
    "CheckpointManager",
    "CheckpointMismatchError",
    "JobManifest",
    "DRIVER_CRASH_EXIT_CODE",
    "DataSet",
    "ExecutionEnvironment",
    "SimulatedOutOfMemory",
    "stable_hash",
    "SerialExecutor",
    "FaultPlan",
    "InjectedTaskFault",
    "RetryPolicy",
    "SimulatedClock",
    "SimulatedWorkerCrash",
    "JobMetrics",
    "StageMetrics",
    "gc_paused",
    "stage_gc_pause",
]
