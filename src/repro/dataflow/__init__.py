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

Where the per-partition tasks run is pluggable
(:mod:`repro.dataflow.executors`): the ``serial`` backend executes them
inline (the reference), the ``process`` backend executes them concurrently
on a persistent process pool — real multi-core execution with
byte-identical output.

How keyed operators move data is pluggable too
(:mod:`repro.dataflow.shuffle`): the ``inline`` shuffle materializes
buckets in memory (the reference), the ``spill`` shuffle cuts sorted,
CRC-framed runs to disk under a byte-accurate memory budget and merges
them reduce-side — bounded memory on arbitrarily large buckets, again
with byte-identical output.

The hot stages of the three discovery phases run as fused batch kernels
over columnar id slices (:mod:`repro.dataflow.kernels`).
"""

from repro.dataflow.bloom import BloomFilter
from repro.dataflow.checkpoint import (
    CHECKPOINT_MODES,
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
from repro.dataflow.executors import (
    EXECUTOR_NAMES,
    ProcessExecutor,
    SerialExecutor,
    available_cores,
    create_executor,
)
from repro.dataflow.faults import (
    DRIVER_CRASH_EXIT_CODE,
    FaultPlan,
    InjectedTaskFault,
    RetryPolicy,
    SimulatedClock,
    SimulatedWorkerCrash,
    TaskTimeoutError,
)
from repro.dataflow.gcpause import gc_paused, stage_gc_pause
from repro.dataflow.metrics import JobMetrics, StageMetrics
from repro.dataflow.shuffle import (
    SHUFFLE_MODES,
    MemoryBudget,
    RunInfo,
    SpillConfig,
    record_bytes,
)

__all__ = [
    "BloomFilter",
    "CHECKPOINT_MODES",
    "CheckpointError",
    "CheckpointManager",
    "CheckpointMismatchError",
    "JobManifest",
    "DRIVER_CRASH_EXIT_CODE",
    "TaskTimeoutError",
    "DataSet",
    "ExecutionEnvironment",
    "SimulatedOutOfMemory",
    "stable_hash",
    "EXECUTOR_NAMES",
    "SerialExecutor",
    "ProcessExecutor",
    "available_cores",
    "create_executor",
    "FaultPlan",
    "InjectedTaskFault",
    "RetryPolicy",
    "SimulatedClock",
    "SimulatedWorkerCrash",
    "JobMetrics",
    "StageMetrics",
    "gc_paused",
    "stage_gc_pause",
    "SHUFFLE_MODES",
    "MemoryBudget",
    "RunInfo",
    "SpillConfig",
    "record_bytes",
]
