"""Eager, partitioned dataflow engine with pluggable executor backends.

This is the substrate RDFind runs on in this reproduction, standing in for
Apache Flink (see DESIGN.md, substitutions).  An
:class:`ExecutionEnvironment` fixes a *parallelism* (number of workers); a
:class:`DataSet` is a list of per-worker partitions.  Operators execute
eagerly, one *task* per partition, timing each task so that the engine can
report what a cluster would have achieved
(:class:`repro.dataflow.metrics.JobMetrics`).

Where the tasks run is decided by the environment's executor backend
(:mod:`repro.dataflow.executors`): ``serial`` runs them inline in the
driver (the reference behaviour), ``process`` runs them concurrently on a
persistent process pool — real multi-core execution.  Every per-partition
task is a module-level function over a picklable payload, so the same
task code serves both backends and results are byte-identical between
them.

Operator vocabulary (mapping to the paper's Appendix C):

========================  ====================================================
paper / Flink             here
========================  ====================================================
``Map`` / ``FlatMap``     :meth:`DataSet.map`, :meth:`DataSet.flat_map`,
                          :meth:`DataSet.filter`
``GroupBy`` + ``Group-    :meth:`DataSet.reduce_by_key`,
Combine`` + ``Group-      :meth:`DataSet.flat_map_reduce_by_key` (hash-
Reduce``                  partitioned shuffle after local pre-aggregation —
                          the paper's "early aggregation")
``CoGroup``               :meth:`DataSet.co_group`
``GlobalReduce``          :meth:`DataSet.reduce_partitions` (local partials
                          merged on one worker — used for Bloom unions)
``Broadcast``             :meth:`DataSet.broadcast` (collect + per-worker
                          copy accounting)
``Repartition``           :meth:`DataSet.rebalance`
========================  ====================================================

Shuffles are routed by :func:`stable_hash`, a deterministic 64-bit hash
over the key types the pipeline uses (defined in
:mod:`repro.dataflow.hashing`, re-exported here).  Builtin ``hash`` would
not do: it is randomized per process for strings (``PYTHONHASHSEED``),
which would make partition assignment differ between pool workers and
between runs.

The *shuffle mode* decides how keyed operators move data.  The default,
``shuffle="inline"``, materializes every shuffle bucket in driver
memory — the reference data plane.  ``shuffle="spill"`` routes
:meth:`DataSet.reduce_by_key`, :meth:`DataSet.flat_map_reduce_by_key`
and :meth:`DataSet.co_group` through :mod:`repro.dataflow.shuffle`
instead: map-side workers cut sorted,
CRC-framed runs to disk whenever a byte-accurate
:class:`~repro.dataflow.shuffle.MemoryBudget` (``memory_budget_bytes``)
overflows, and reduce-side workers k-way-merge the runs — bounded memory
regardless of bucket size, output asserted byte-identical to ``inline``
on both executor backends.  Under the ``process`` backend the spill path
also moves the shuffled data through the filesystem instead of pickling
whole buckets through the driver.

A configurable per-partition *memory budget* (max records materialized in
any one worker's in-memory state) emulates out-of-memory failures: stateful
operators raise :class:`SimulatedOutOfMemory` when a single worker would
have to hold more records than the budget allows.  The exception pickles
faithfully, so a budget blown inside a pool worker surfaces in the driver
exactly like a serial one.  The paper's Figures 7 and 13 report such
failures for Cinderella and RDFind-DE.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.dataflow import shuffle as _shuffle
from repro.dataflow import workspace as _workspace
from repro.dataflow.executors import create_executor
from repro.dataflow.faults import (
    FaultPlan,
    RetryPolicy,
    SimulatedOutOfMemory,
)
from repro.dataflow.gcpause import stage_gc_pause
from repro.dataflow.hashing import hash_partition, stable_hash
from repro.dataflow.metrics import JobMetrics, StageMetrics
from repro.dataflow.shuffle import (
    SHUFFLE_MODES,
    RunInfo,
    SpillConfig,
    record_bytes,
)

T = TypeVar("T")
U = TypeVar("U")
K = TypeVar("K")
V = TypeVar("V")

__all__ = [
    "DataSet",
    "ExecutionEnvironment",
    "SimulatedOutOfMemory",  # re-exported from repro.dataflow.faults
    "SHUFFLE_MODES",  # re-exported from repro.dataflow.shuffle
    "stable_hash",  # re-exported from repro.dataflow.hashing
    "pair_key",
    "pair_value",
    "record_cells",
    "record_bytes",  # re-exported from repro.dataflow.shuffle
]


#: Backward-compatible alias — the partitioner moved to
#: :mod:`repro.dataflow.hashing` so the shuffle subsystem can share it.
_hash_partition = hash_partition


# ----------------------------------------------------------------------
# picklable helpers for keyed operators (usable from any backend)
# ----------------------------------------------------------------------


def pair_key(pair: Tuple[K, V]) -> K:
    """First element of a pair — the canonical picklable ``key_fn``."""
    return pair[0]


def pair_value(pair: Tuple[K, V]) -> V:
    """Second element of a pair — the canonical picklable ``value_fn``."""
    return pair[1]


def record_cells(record: Any) -> int:
    """Price one record in memory-budget cells.

    A cell is one dictionary-encoded value slot: an int is one cell, a
    tuple (e.g. an ``EncodedTriple``) is the sum of its fields, and a
    string is charged by its length in 8-byte words — the width ratio
    that makes encoded and raw-string records comparable under one
    budget.

    Batch records price themselves: an object exposing ``budget_cells``
    (e.g. :class:`repro.storage.columnar.TripleBatch`, 3 cells per
    triple) is charged that — the same cells its triples would cost as an
    ``EncodedTriple`` stream, so budget accounting is representation-
    independent.
    """
    cells = getattr(record, "budget_cells", None)
    if cells is not None:
        return cells
    if isinstance(record, int):
        return 1
    if isinstance(record, str):
        return 1 + len(record) // 8
    if isinstance(record, tuple):
        return sum(record_cells(field) for field in record)
    return 1


# ----------------------------------------------------------------------
# per-partition task functions (module-level, hence picklable)
# ----------------------------------------------------------------------
#
# Each task consumes one partition's payload and returns its result plus
# the seconds the worker spent — measured inside the worker, so the
# per-partition timings (and the skew they reveal) are real under both
# backends.


def _map_task(payload):
    fn, partition = payload
    start = time.perf_counter()
    result = [fn(item) for item in partition]
    return result, time.perf_counter() - start


def _flat_map_task(payload):
    fn, partition = payload
    start = time.perf_counter()
    result: List[Any] = []
    extend = result.extend
    for item in partition:
        extend(fn(item))
    return result, time.perf_counter() - start


def _filter_task(payload):
    pred, partition = payload
    start = time.perf_counter()
    result = [item for item in partition if pred(item)]
    return result, time.perf_counter() - start


def _map_partition_task(payload):
    fn, partition, worker = payload
    start = time.perf_counter()
    result = list(fn(partition, worker))
    return result, time.perf_counter() - start


def _combine_shuffle_task(payload):
    """Local pre-aggregation + bucket split of ``reduce_by_key``."""
    key_fn, value_fn, reduce_fn, parallelism, budget, stage, partition = payload
    start = time.perf_counter()
    with stage_gc_pause() as pause:
        local: Dict[Any, Any] = {}
        for item in partition:
            key = key_fn(item)
            value = value_fn(item)
            if key in local:
                local[key] = reduce_fn(local[key], value)
            else:
                local[key] = value
        if budget is not None and len(local) > budget:
            raise SimulatedOutOfMemory(stage, len(local), budget)
        buckets: List[List[Tuple[Any, Any]]] = [[] for _ in range(parallelism)]
        for key, value in local.items():
            buckets[_hash_partition(key, parallelism)].append((key, value))
    return buckets, len(local), pause.suppressed, time.perf_counter() - start


def _fused_combine_shuffle_task(payload):
    """Fused flatMap + local combine + bucket split (operator chaining)."""
    flat_fn, reduce_fn, state_cost_fn, parallelism, budget, stage, partition = payload
    start = time.perf_counter()
    with stage_gc_pause() as pause:
        local: Dict[Any, Any] = {}
        state_cost = 0
        if state_cost_fn is None and budget is None:
            # Unpriced, unbudgeted fast path (the batch kernels' case):
            # same fold, same insertion order, no per-pair branch work.
            local_get = local.get
            for item in partition:
                for key, value in flat_fn(item):
                    previous = local_get(key)
                    if previous is None:
                        local[key] = value
                    else:
                        local[key] = reduce_fn(previous, value)
        else:
            for item in partition:
                for key, value in flat_fn(item):
                    previous = local.get(key)
                    if previous is None:
                        local[key] = value
                        if state_cost_fn is not None:
                            state_cost += state_cost_fn(value)
                    else:
                        merged = reduce_fn(previous, value)
                        local[key] = merged
                        if state_cost_fn is not None:
                            state_cost += state_cost_fn(merged) - state_cost_fn(previous)
                    if budget is not None:
                        used = state_cost if state_cost_fn is not None else len(local)
                        if used > budget:
                            raise SimulatedOutOfMemory(stage, used, budget)
        peak = state_cost if state_cost_fn is not None else len(local)
        buckets: List[List[Tuple[Any, Any]]] = [[] for _ in range(parallelism)]
        for key, value in local.items():
            buckets[_hash_partition(key, parallelism)].append((key, value))
    return buckets, len(local), peak, pause.suppressed, time.perf_counter() - start


def _reduce_bucket_task(payload):
    """The post-shuffle reduction of one key bucket."""
    reduce_fn, budget, stage, bucket = payload
    start = time.perf_counter()
    with stage_gc_pause() as pause:
        grouped: Dict[Any, Any] = {}
        for key, value in bucket:
            if key in grouped:
                grouped[key] = reduce_fn(grouped[key], value)
            else:
                grouped[key] = value
        if budget is not None and len(grouped) > budget:
            raise SimulatedOutOfMemory(stage, len(grouped), budget)
    return list(grouped.items()), pause.suppressed, time.perf_counter() - start


def _keyed_shuffle_task(payload):
    """Key every record and split it into hash buckets (shuffle side)."""
    key_fn, parallelism, partition = payload
    start = time.perf_counter()
    buckets: List[List[Tuple[Any, Any]]] = [[] for _ in range(parallelism)]
    for item in partition:
        key = key_fn(item)
        buckets[_hash_partition(key, parallelism)].append((key, item))
    return buckets, time.perf_counter() - start


def _co_group_apply_task(payload):
    """Group both sides of one bucket pair and apply the join function."""
    fn, budget, stage, left_bucket, right_bucket = payload
    start = time.perf_counter()
    with stage_gc_pause() as pause:
        if budget is not None and len(left_bucket) + len(right_bucket) > budget:
            raise SimulatedOutOfMemory(
                stage, len(left_bucket) + len(right_bucket), budget
            )
        left_groups: Dict[Any, List[Any]] = {}
        for key, item in left_bucket:
            left_groups.setdefault(key, []).append(item)
        right_groups: Dict[Any, List[Any]] = {}
        for key, item in right_bucket:
            right_groups.setdefault(key, []).append(item)
        result: List[Any] = []
        # Deterministic key order (left insertion order, then right-only keys)
        # instead of set union — set iteration order would leak the process's
        # hash seed into the output order.
        for key in left_groups:
            result.extend(fn(key, left_groups[key], right_groups.get(key, [])))
        for key in right_groups:
            if key not in left_groups:
                result.extend(fn(key, [], right_groups[key]))
    return result, pause.suppressed, time.perf_counter() - start


def _local_reduce_task(payload):
    """The per-partition half of a global reduction."""
    local_fn, partition = payload
    start = time.perf_counter()
    return local_fn(partition), time.perf_counter() - start


class ExecutionEnvironment:
    """Factory for :class:`DataSet` objects plus job-wide configuration.

    Parameters
    ----------
    parallelism:
        Number of workers/partitions (>= 1).  All datasets created from
        this environment have exactly this many partitions.
    memory_budget:
        Optional cap on the number of records any single worker may hold
        in in-memory state (grouping tables, collected results).
        ``None`` disables the check.
    name:
        Job name used in metric reports.
    executor:
        Backend that runs the per-partition tasks: ``"serial"`` (inline,
        the default and reference) or ``"process"`` (persistent process
        pool — real cores, but operator functions must be picklable; see
        :mod:`repro.dataflow.executors`).
    workers:
        Pool size for the ``process`` backend; defaults to
        ``min(parallelism, available cores)``.  Ignored by ``serial``.
    fault_plan:
        Optional seeded :class:`~repro.dataflow.faults.FaultPlan`; when
        given, the executor injects deterministic per-task faults
        (transient errors, worker crashes, stragglers, forced OOMs) that
        the retry machinery must absorb — output stays byte-identical.
    retry_policy:
        Bounded-retry/backoff configuration for failed tasks
        (:class:`~repro.dataflow.faults.RetryPolicy`; a default policy
        with 2 retries applies when omitted).
    shuffle:
        Data plane for the keyed operators: ``"inline"`` (in-memory
        buckets, the reference) or ``"spill"`` (disk-backed sorted runs
        merged reduce-side; see :mod:`repro.dataflow.shuffle`).  Spill
        output is byte-identical to inline.
    memory_budget_bytes:
        Per-worker cap, in estimated bytes (:func:`record_bytes`), on the
        in-memory shuffle state of spill-mode operators; overflowing
        state is cut to a sorted run on disk instead of raising.  Only
        meaningful with ``shuffle="spill"``; ``None`` means a single
        final flush per task.
    spill_dir:
        Directory under which the spill workspace is created (a fresh
        ``tempfile.mkdtemp`` per environment, removed on :meth:`close`).
        Defaults to the system temp dir.
    spill_config:
        Full :class:`~repro.dataflow.shuffle.SpillConfig` override for
        tests and benchmarks (frame sizing, merge fan-in); wins over
        ``memory_budget_bytes`` when given.
    task_timeout_seconds:
        Per-task wall-clock bound under the ``process`` backend; a
        timed-out task is treated as a retryable transient fault (the
        pool is abandoned and the task replayed).  ``None`` (default)
        waits forever; ignored by ``serial``.
    """

    def __init__(
        self,
        parallelism: int = 1,
        memory_budget: Optional[int] = None,
        name: str = "job",
        executor: str = "serial",
        workers: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        shuffle: str = "inline",
        memory_budget_bytes: Optional[int] = None,
        spill_dir: Optional[str] = None,
        spill_config: Optional[SpillConfig] = None,
        task_timeout_seconds: Optional[float] = None,
        metrics: Optional[JobMetrics] = None,
    ) -> None:
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if shuffle not in SHUFFLE_MODES:
            raise ValueError(
                f"unknown shuffle mode {shuffle!r}; expected one of {SHUFFLE_MODES}"
            )
        self.parallelism = int(parallelism)
        self.memory_budget = memory_budget
        self.shuffle = shuffle
        self.spill_config = (
            spill_config
            if spill_config is not None
            else SpillConfig(budget_bytes=memory_budget_bytes)
        )
        self._spill_dir_base = spill_dir
        self._spill_root: Optional[str] = None
        self._spill_token: Optional[int] = None
        self._spill_stage_seq = 0
        #: Optional CheckpointManager the discovery facade attaches so
        #: pipeline code can checkpoint sub-stage boundaries (kept as a
        #: plain attribute: repro.dataflow.checkpoint must stay importable
        #: without the engine and vice versa).
        self.checkpoint = None
        self.executor = create_executor(
            executor,
            self.parallelism,
            workers,
            retry_policy=retry_policy,
            fault_plan=fault_plan,
            task_timeout_seconds=task_timeout_seconds,
        )
        # A caller-supplied JobMetrics lets an observer in another thread
        # watch the job live (the server's worker snapshots it into
        # progress.json while discovery runs); default is a private one.
        self.metrics = metrics if metrics is not None else JobMetrics()
        self.metrics.job_name = name
        self.metrics.parallelism = self.parallelism
        self.metrics.executor = self.executor.name
        self.metrics.workers = self.executor.workers

    def _new_spill_stage_dir(self) -> str:
        """A fresh directory for one spill stage's run files.

        The workspace root is created lazily (``tempfile.mkdtemp`` under
        ``spill_dir``), so inline-mode jobs never touch the filesystem.
        Stage directories are numbered rather than named — stage names
        contain ``/``.
        """
        if self._spill_root is None:
            base = self._spill_dir_base
            if base is not None:
                os.makedirs(base, exist_ok=True)
            self._spill_root = tempfile.mkdtemp(prefix="rdfind-spill-", dir=base)
            # Interrupted runs (Ctrl-C, SIGTERM, plain exit without
            # close()) must not leak the workspace.
            self._spill_token = _workspace.register(
                self._spill_root, kind=_workspace.TREE
            )
        stage_dir = os.path.join(
            self._spill_root, f"stage{self._spill_stage_seq:04d}"
        )
        self._spill_stage_seq += 1
        os.makedirs(stage_dir)
        return stage_dir

    def close(self) -> None:
        """Release executor resources and remove the spill workspace."""
        self.executor.close()
        if self._spill_root is not None:
            shutil.rmtree(self._spill_root, ignore_errors=True)
            self._spill_root = None
        if self._spill_token is not None:
            _workspace.unregister(self._spill_token)
            self._spill_token = None

    def __enter__(self) -> "ExecutionEnvironment":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    def from_collection(
        self, items: Iterable[T], name: str = "source"
    ) -> "DataSet[T]":
        """Create a dataset by round-robin partitioning ``items``."""
        partitions: List[List[T]] = [[] for _ in range(self.parallelism)]
        start = time.perf_counter()
        for index, item in enumerate(items):
            partitions[index % self.parallelism].append(item)
        elapsed = time.perf_counter() - start
        stage = self.metrics.new_stage(name)
        stage.wall_seconds = elapsed
        stage.partition_seconds = [elapsed / self.parallelism] * self.parallelism
        stage.records_in = [len(p) for p in partitions]
        stage.records_out = [len(p) for p in partitions]
        return DataSet(self, partitions, name=name)

    def from_batches(
        self,
        batches: Sequence[T],
        sizes: Sequence[int],
        name: str = "source/batches",
        cost_fn: Optional[Callable[[T], int]] = None,
    ) -> "DataSet[T]":
        """Create a dataset of one pre-built batch per worker.

        Each partition holds exactly one batch object (e.g. a
        :class:`~repro.storage.columnar.TripleBatch`); ``sizes`` declares
        how many *logical* records each batch stands for, so stage
        accounting and the process backend's inline threshold see the
        real record volume rather than "one record per partition".
        ``cost_fn`` prices one batch in memory-budget cells (see
        :func:`record_cells`); when given, each worker's batch is charged
        against the memory budget rather than held for free.
        """
        if len(batches) != self.parallelism:
            raise ValueError(
                f"expected {self.parallelism} batches (one per worker), "
                f"got {len(batches)}"
            )
        if len(sizes) != len(batches):
            raise ValueError(
                f"sizes ({len(sizes)}) must match batches ({len(batches)})"
            )
        stage = self.metrics.new_stage(name)
        stage.partition_seconds = [0.0] * self.parallelism
        stage.records_in = [int(size) for size in sizes]
        stage.records_out = [int(size) for size in sizes]
        if cost_fn is not None:
            for batch in batches:
                cost = cost_fn(batch)
                stage.peak_state_cost = max(stage.peak_state_cost, cost)
                self._check_budget(name, cost)
        return DataSet(
            self,
            [[batch] for batch in batches],
            name=name,
            logical_sizes=[int(size) for size in sizes],
        )

    def from_partitions(
        self, partitions: Sequence[Sequence[T]], name: str = "source"
    ) -> "DataSet[T]":
        """Create a dataset from pre-built partitions.

        Missing partitions are padded with empty ones; overflow partitions
        are merged round-robin onto the existing ones, so no single worker
        silently absorbs all the excess (which would skew budget and
        metric accounting).
        """
        normalized: List[List[T]] = [list(p) for p in partitions]
        while len(normalized) < self.parallelism:
            normalized.append([])
        if len(normalized) > self.parallelism:
            merged = normalized[: self.parallelism]
            for index, extra in enumerate(normalized[self.parallelism :]):
                merged[index % self.parallelism].extend(extra)
            normalized = merged
        return DataSet(self, normalized, name=name)

    def _check_budget(self, stage: str, records: int) -> None:
        budget = self.memory_budget
        if budget is not None and records > budget:
            raise SimulatedOutOfMemory(stage, records, budget)


class DataSet(Generic[T]):
    """An immutable, partitioned collection plus the operators over it."""

    __slots__ = ("env", "partitions", "name", "logical_sizes")

    def __init__(
        self,
        env: ExecutionEnvironment,
        partitions: List[List[T]],
        name: str = "dataset",
        logical_sizes: Optional[List[int]] = None,
    ) -> None:
        self.env = env
        self.partitions = partitions
        self.name = name
        #: For batch datasets (one columnar batch per partition): how many
        #: logical records each partition's batch stands for.  ``None``
        #: means the partitions hold plain records and size is their
        #: length.  Keeps record accounting — and the process backend's
        #: inline threshold — honest when a partition's ``len`` is 1.
        self.logical_sizes = logical_sizes

    def _partition_sizes(self) -> List[int]:
        """Logical record count per partition (batch-aware)."""
        if self.logical_sizes is not None:
            return list(self.logical_sizes)
        return [len(partition) for partition in self.partitions]

    def _total_records(self) -> int:
        return sum(self._partition_sizes())

    def _run_stage(
        self,
        stage: StageMetrics,
        task: Callable[[Any], Any],
        payloads: List[Any],
        records: Optional[int] = None,
    ) -> List[Any]:
        """Run one task per payload on the executor, recording wall-clock.

        ``records`` hints the stage's total input size so the process
        backend can run trivially small stages inline.  The stage record
        itself is handed to the executor so fault injections and retries
        are accounted where they happen.
        """
        start = time.perf_counter()
        results = self.env.executor.run(task, payloads, records=records, stage=stage)
        stage.wall_seconds += time.perf_counter() - start
        return results

    # ------------------------------------------------------------------
    # element-wise operators
    # ------------------------------------------------------------------

    def map(self, fn: Callable[[T], U], name: str = "map") -> "DataSet[U]":
        """Apply ``fn`` to every record."""
        stage = self.env.metrics.new_stage(name)
        payloads = [(fn, partition) for partition in self.partitions]
        out: List[List[U]] = []
        for partition, (result, elapsed) in zip(
            self.partitions, self._run_stage(stage, _map_task, payloads, records=self._total_records())
        ):
            stage.partition_seconds.append(elapsed)
            stage.records_in.append(len(partition))
            stage.records_out.append(len(result))
            out.append(result)
        return DataSet(self.env, out, name=name)

    def flat_map(
        self, fn: Callable[[T], Iterable[U]], name: str = "flat_map"
    ) -> "DataSet[U]":
        """Apply ``fn`` and flatten its iterable results."""
        stage = self.env.metrics.new_stage(name)
        payloads = [(fn, partition) for partition in self.partitions]
        out: List[List[U]] = []
        for partition, (result, elapsed) in zip(
            self.partitions, self._run_stage(stage, _flat_map_task, payloads, records=self._total_records())
        ):
            stage.partition_seconds.append(elapsed)
            stage.records_in.append(len(partition))
            stage.records_out.append(len(result))
            out.append(result)
        return DataSet(self.env, out, name=name)

    def filter(self, pred: Callable[[T], bool], name: str = "filter") -> "DataSet[T]":
        """Keep records for which ``pred`` is true."""
        stage = self.env.metrics.new_stage(name)
        payloads = [(pred, partition) for partition in self.partitions]
        out: List[List[T]] = []
        for partition, (result, elapsed) in zip(
            self.partitions, self._run_stage(stage, _filter_task, payloads, records=self._total_records())
        ):
            stage.partition_seconds.append(elapsed)
            stage.records_in.append(len(partition))
            stage.records_out.append(len(result))
            out.append(result)
        return DataSet(self.env, out, name=name)

    def map_partition(
        self,
        fn: Callable[[List[T], int], Iterable[U]],
        name: str = "map_partition",
    ) -> "DataSet[U]":
        """Apply ``fn(partition, worker_index)`` per partition."""
        stage = self.env.metrics.new_stage(name)
        payloads = [
            (fn, partition, worker)
            for worker, partition in enumerate(self.partitions)
        ]
        out: List[List[U]] = []
        for size, (result, elapsed) in zip(
            self._partition_sizes(),
            self._run_stage(stage, _map_partition_task, payloads, records=self._total_records()),
        ):
            stage.partition_seconds.append(elapsed)
            stage.records_in.append(size)
            stage.records_out.append(len(result))
            out.append(result)
        return DataSet(self.env, out, name=name)

    # ------------------------------------------------------------------
    # keyed aggregation (GroupBy + GroupCombine + GroupReduce)
    # ------------------------------------------------------------------

    def _gather_buckets(
        self, bucket_lists: Iterable[List[List[Any]]]
    ) -> List[List[Any]]:
        """Concatenate per-task bucket splits in partition order."""
        buckets: List[List[Any]] = [[] for _ in range(self.env.parallelism)]
        for split in bucket_lists:
            for index, chunk in enumerate(split):
                buckets[index].extend(chunk)
        return buckets

    def _reduce_buckets(
        self,
        buckets: List[List[Tuple[K, V]]],
        reduce_fn: Callable[[V, V], V],
        name: str,
    ) -> List[List[Tuple[K, V]]]:
        """The post-shuffle reduce stage shared by the keyed operators."""
        stage = self.env.metrics.new_stage(name)
        payloads = [
            (reduce_fn, self.env.memory_budget, name, bucket) for bucket in buckets
        ]
        results = self._run_stage(
            stage,
            _reduce_bucket_task,
            payloads,
            records=sum(len(b) for b in buckets),
        )
        out: List[List[Tuple[K, V]]] = []
        for bucket, (result, suppressed, elapsed) in zip(buckets, results):
            stage.partition_seconds.append(elapsed)
            stage.records_in.append(len(bucket))
            stage.records_out.append(len(result))
            stage.gc_suppressed_collections += suppressed
            out.append(result)
        return out

    # ------------------------------------------------------------------
    # spilling shuffle (disk-backed data plane; repro.dataflow.shuffle)
    # ------------------------------------------------------------------

    def _run_spill_map_stage(
        self,
        stage: StageMetrics,
        task: Callable[[Any], Any],
        payloads: List[Any],
        records: int,
        input_sizes: List[int],
    ) -> List[List[RunInfo]]:
        """Run map-side spill tasks; account manifests, return runs per
        reduce partition in global ``(map partition, cut order)`` order."""
        results = self._run_stage(stage, task, payloads, records=records)
        shuffled = 0
        per_task_runs: List[List[RunInfo]] = []
        for size, (runs, emitted, spilled_bytes, peak_bytes, elapsed) in zip(
            input_sizes, results
        ):
            shuffled += emitted
            per_task_runs.append(runs)
            stage.partition_seconds.append(elapsed)
            stage.records_in.append(size)
            stage.records_out.append(emitted)
            stage.spilled_runs += len(runs)
            stage.spilled_bytes += spilled_bytes
            stage.peak_state_bytes = max(stage.peak_state_bytes, peak_bytes)
        stage.shuffled_records = shuffled
        return _shuffle.gather_runs(per_task_runs, self.env.parallelism)

    def _run_spill_merge_stage(
        self,
        stage: StageMetrics,
        task: Callable[[Any], Any],
        make_payload: Callable[[int, List[RunInfo]], Any],
        run_lists: List[List[RunInfo]],
    ) -> List[List[Any]]:
        """Run reduce-side merge tasks, one per partition's run set."""
        records = sum(info.records for runs in run_lists for info in runs)
        payloads = [
            make_payload(index, runs) for index, runs in enumerate(run_lists)
        ]
        results = self._run_stage(stage, task, payloads, records=records)
        out: List[List[Any]] = []
        for runs, (result, passes, elapsed) in zip(run_lists, results):
            stage.partition_seconds.append(elapsed)
            stage.records_in.append(sum(info.records for info in runs))
            stage.records_out.append(len(result))
            stage.merge_passes += passes
            out.append(result)
        return out

    def _spill_reduce_by_key(
        self,
        key_fn: Callable[[T], K],
        value_fn: Callable[[T], V],
        reduce_fn: Callable[[V, V], V],
        name: str,
    ) -> "DataSet[Tuple[K, V]]":
        env = self.env
        stage = env.metrics.new_stage(name)
        stage_dir = env._new_spill_stage_dir()
        try:
            payloads = [
                (
                    key_fn,
                    value_fn,
                    reduce_fn,
                    env.parallelism,
                    env.spill_config,
                    stage_dir,
                    index,
                    partition,
                )
                for index, partition in enumerate(self.partitions)
            ]
            run_lists = self._run_spill_map_stage(
                stage,
                _shuffle._spill_combine_map_task,
                payloads,
                self._total_records(),
                self._partition_sizes(),
            )
            reduce_stage = env.metrics.new_stage(name + "/reduce")
            out = self._run_spill_merge_stage(
                reduce_stage,
                _shuffle._spill_reduce_task,
                lambda index, runs: (
                    reduce_fn,
                    runs,
                    env.spill_config,
                    stage_dir,
                    index,
                ),
                run_lists,
            )
        finally:
            shutil.rmtree(stage_dir, ignore_errors=True)
        return DataSet(env, out, name=name)

    def _spill_flat_map_reduce_by_key(
        self,
        flat_fn: Callable[[T], Iterable[Tuple[K, V]]],
        reduce_fn: Callable[[V, V], V],
        name: str,
    ) -> "DataSet[Tuple[K, V]]":
        env = self.env
        stage = env.metrics.new_stage(name)
        stage_dir = env._new_spill_stage_dir()
        try:
            payloads = [
                (
                    flat_fn,
                    reduce_fn,
                    env.parallelism,
                    env.spill_config,
                    stage_dir,
                    index,
                    partition,
                )
                for index, partition in enumerate(self.partitions)
            ]
            run_lists = self._run_spill_map_stage(
                stage,
                _shuffle._spill_fused_map_task,
                payloads,
                self._total_records(),
                self._partition_sizes(),
            )
            reduce_stage = env.metrics.new_stage(name + "/reduce")
            out = self._run_spill_merge_stage(
                reduce_stage,
                _shuffle._spill_reduce_task,
                lambda index, runs: (
                    reduce_fn,
                    runs,
                    env.spill_config,
                    stage_dir,
                    index,
                ),
                run_lists,
            )
        finally:
            shutil.rmtree(stage_dir, ignore_errors=True)
        return DataSet(env, out, name=name)

    def _spill_co_group(
        self,
        other: "DataSet[U]",
        key_self: Callable[[T], K],
        key_other: Callable[[U], K],
        fn: Callable[[K, List[T], List[U]], Iterable[Any]],
        name: str,
    ) -> "DataSet[Any]":
        env = self.env
        parallelism = env.parallelism
        stage = env.metrics.new_stage(name)
        stage_dir = env._new_spill_stage_dir()
        try:
            # The right side's map indices are offset by the parallelism:
            # unique run names, and every left run globally orders before
            # every right run — the side order the inline co-group applies.
            payloads = [
                (
                    key_self,
                    0,
                    parallelism,
                    env.spill_config,
                    stage_dir,
                    index,
                    partition,
                )
                for index, partition in enumerate(self.partitions)
            ] + [
                (
                    key_other,
                    1,
                    parallelism,
                    env.spill_config,
                    stage_dir,
                    parallelism + index,
                    partition,
                )
                for index, partition in enumerate(other.partitions)
            ]
            run_lists = self._run_spill_map_stage(
                stage,
                _shuffle._spill_keyed_map_task,
                payloads,
                self._total_records() + other._total_records(),
                [len(p) for p in self.partitions]
                + [len(p) for p in other.partitions],
            )
            apply_stage = env.metrics.new_stage(name + "/apply")
            out = self._run_spill_merge_stage(
                apply_stage,
                _shuffle._spill_co_group_task,
                lambda index, runs: (
                    fn,
                    runs,
                    env.spill_config,
                    stage_dir,
                    index,
                ),
                run_lists,
            )
        finally:
            shutil.rmtree(stage_dir, ignore_errors=True)
        return DataSet(env, out, name=name)

    def reduce_by_key(
        self,
        key_fn: Callable[[T], K],
        value_fn: Callable[[T], V],
        reduce_fn: Callable[[V, V], V],
        name: str = "reduce_by_key",
    ) -> "DataSet[Tuple[K, V]]":
        """Hash-partitioned keyed reduction producing ``(key, value)`` pairs.

        Each worker pre-aggregates its partition before the shuffle (the
        paper's early-aggregation optimisation), which shrinks shuffle
        volume for low-cardinality keys.

        Under ``shuffle="spill"`` the same reduction runs on the
        disk-backed data plane: the combiner spills sorted runs whenever
        the byte budget overflows and the reduce side merges them —
        byte-identical output in bounded memory, so the record-count
        ``memory_budget`` simulation does not apply.
        """
        if self.env.shuffle == "spill":
            return self._spill_reduce_by_key(key_fn, value_fn, reduce_fn, name)
        return self._inline_reduce_by_key(key_fn, value_fn, reduce_fn, name)

    def _inline_reduce_by_key(
        self,
        key_fn: Callable[[T], K],
        value_fn: Callable[[T], V],
        reduce_fn: Callable[[V, V], V],
        name: str,
    ) -> "DataSet[Tuple[K, V]]":
        env = self.env
        parallelism = env.parallelism
        stage = env.metrics.new_stage(name)
        payloads = [
            (
                key_fn,
                value_fn,
                reduce_fn,
                parallelism,
                env.memory_budget,
                name,
                partition,
            )
            for partition in self.partitions
        ]
        results = self._run_stage(stage, _combine_shuffle_task, payloads, records=self._total_records())
        shuffled = 0
        for size, (_buckets, emitted, suppressed, elapsed) in zip(
            self._partition_sizes(), results
        ):
            shuffled += emitted
            stage.partition_seconds.append(elapsed)
            stage.records_in.append(size)
            stage.records_out.append(emitted)
            stage.gc_suppressed_collections += suppressed
        stage.shuffled_records = shuffled
        buckets = self._gather_buckets(split for split, _e, _g, _t in results)
        out = self._reduce_buckets(buckets, reduce_fn, name + "/reduce")
        return DataSet(env, out, name=name)

    def flat_map_reduce_by_key(
        self,
        flat_fn: Callable[[T], Iterable[Tuple[K, V]]],
        reduce_fn: Callable[[V, V], V],
        state_cost_fn: Optional[Callable[[V], int]] = None,
        name: str = "flat_map_reduce_by_key",
    ) -> "DataSet[Tuple[K, V]]":
        """Fused flatMap + keyed reduction (Flink's operator chaining).

        ``flat_fn`` yields ``(key, value)`` pairs per record; each pair is
        folded into the local combine state *as it is produced*, so the
        flatMap's output is never materialized — essential when a record
        expands into very many pairs (e.g. CIND candidate sets, which are
        quadratic in capture-group size).

        ``state_cost_fn`` prices a combine-state value (e.g. the size of a
        referenced-capture set); when given, the per-worker memory budget
        is enforced against the *total state cost*, which models a real
        combiner running out of memory (the paper's RDFind-DE failures).

        Under ``shuffle="spill"`` the fused combiner spills its state to
        sorted runs instead of raising: the byte-accurate spill budget
        replaces ``state_cost_fn`` pricing, and the output stays
        byte-identical.
        """
        if self.env.shuffle == "spill":
            return self._spill_flat_map_reduce_by_key(flat_fn, reduce_fn, name)
        return self._inline_flat_map_reduce_by_key(
            flat_fn, reduce_fn, state_cost_fn, name
        )

    def _inline_flat_map_reduce_by_key(
        self,
        flat_fn: Callable[[T], Iterable[Tuple[K, V]]],
        reduce_fn: Callable[[V, V], V],
        state_cost_fn: Optional[Callable[[V], int]],
        name: str,
    ) -> "DataSet[Tuple[K, V]]":
        env = self.env
        parallelism = env.parallelism
        stage = env.metrics.new_stage(name)
        payloads = [
            (
                flat_fn,
                reduce_fn,
                state_cost_fn,
                parallelism,
                env.memory_budget,
                name,
                partition,
            )
            for partition in self.partitions
        ]
        results = self._run_stage(stage, _fused_combine_shuffle_task, payloads, records=self._total_records())
        shuffled = 0
        for size, (_buckets, emitted, peak, suppressed, elapsed) in zip(
            self._partition_sizes(), results
        ):
            shuffled += emitted
            stage.peak_state_cost = max(stage.peak_state_cost, peak)
            stage.partition_seconds.append(elapsed)
            stage.records_in.append(size)
            stage.records_out.append(emitted)
            stage.gc_suppressed_collections += suppressed
        stage.shuffled_records = shuffled
        buckets = self._gather_buckets(split for split, _e, _p, _g, _t in results)
        out = self._reduce_buckets(buckets, reduce_fn, name + "/reduce")
        return DataSet(env, out, name=name)

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------

    def co_group(
        self,
        other: "DataSet[U]",
        key_self: Callable[[T], K],
        key_other: Callable[[U], K],
        fn: Callable[[K, List[T], List[U]], Iterable[Any]],
        name: str = "co_group",
    ) -> "DataSet[Any]":
        """Shuffle both inputs by key and apply ``fn`` per key group.

        ``fn`` receives the key and the (possibly empty) record lists from
        each side, enabling inner, outer, and semi joins.
        """
        env = self.env
        if env.shuffle == "spill":
            return self._spill_co_group(other, key_self, key_other, fn, name)
        parallelism = env.parallelism
        stage = env.metrics.new_stage(name)
        left_payloads = [
            (key_self, parallelism, partition) for partition in self.partitions
        ]
        right_payloads = [
            (key_other, parallelism, partition) for partition in other.partitions
        ]
        results = self._run_stage(
            stage,
            _keyed_shuffle_task,
            left_payloads + right_payloads,
            records=self._total_records() + other._total_records(),
        )
        left_results = results[: len(self.partitions)]
        right_results = results[len(self.partitions) :]
        shuffled = 0
        for index in range(parallelism):
            left_partition = self.partitions[index]
            right_partition = other.partitions[index]
            elapsed = left_results[index][1] + right_results[index][1]
            moved = len(left_partition) + len(right_partition)
            shuffled += moved
            stage.partition_seconds.append(elapsed)
            stage.records_in.append(moved)
            stage.records_out.append(moved)
        stage.shuffled_records = shuffled
        left_buckets = self._gather_buckets(split for split, _t in left_results)
        right_buckets = self._gather_buckets(split for split, _t in right_results)

        apply_stage = env.metrics.new_stage(name + "/apply")
        apply_records = sum(len(b) for b in left_buckets) + sum(
            len(b) for b in right_buckets
        )
        pairs = list(zip(left_buckets, right_buckets))
        apply_payloads = [
            (fn, env.memory_budget, name + "/apply", left_bucket, right_bucket)
            for left_bucket, right_bucket in pairs
        ]
        results = self._run_stage(
            apply_stage,
            _co_group_apply_task,
            apply_payloads,
            records=apply_records,
        )
        out: List[List[Any]] = []
        for (left_bucket, right_bucket), (result, suppressed, elapsed) in zip(
            pairs, results
        ):
            apply_stage.partition_seconds.append(elapsed)
            apply_stage.records_in.append(len(left_bucket) + len(right_bucket))
            apply_stage.records_out.append(len(result))
            apply_stage.gc_suppressed_collections += suppressed
            out.append(result)
        return DataSet(env, out, name=name)

    # ------------------------------------------------------------------
    # global operations
    # ------------------------------------------------------------------

    def reduce_partitions(
        self,
        local_fn: Callable[[List[T]], U],
        merge_fn: Callable[[U, U], U],
        name: str = "reduce_partitions",
    ) -> U:
        """Per-worker partial reduction merged on a single worker.

        This mirrors the paper's Bloom-filter construction: each worker
        builds a local partial, then one worker unions the partials
        (Figure 5, steps 3-4).  ``local_fn`` runs on the executor (so it
        must be picklable under the process backend); ``merge_fn`` runs on
        the driver and may be any callable.
        """
        stage = self.env.metrics.new_stage(name)
        payloads = [(local_fn, partition) for partition in self.partitions]
        partials: List[U] = []
        for size, (partial, elapsed) in zip(
            self._partition_sizes(),
            self._run_stage(stage, _local_reduce_task, payloads, records=self._total_records()),
        ):
            partials.append(partial)
            stage.partition_seconds.append(elapsed)
            stage.records_in.append(size)
            stage.records_out.append(1)
        stage.shuffled_records = max(0, len(partials) - 1)

        merge_stage = self.env.metrics.new_stage(name + "/merge")
        start = time.perf_counter()
        merged = partials[0]
        for partial in partials[1:]:
            merged = merge_fn(merged, partial)
        elapsed = time.perf_counter() - start
        merge_stage.wall_seconds = elapsed
        merge_stage.partition_seconds.append(elapsed)
        merge_stage.records_in.append(len(partials))
        merge_stage.records_out.append(1)
        return merged

    def collect(self, name: str = "collect") -> List[T]:
        """Gather all records on the driver."""
        stage = self.env.metrics.new_stage(name)
        start = time.perf_counter()
        out: List[T] = []
        for partition in self.partitions:
            partition_start = time.perf_counter()
            out.extend(partition)
            stage.partition_seconds.append(time.perf_counter() - partition_start)
            stage.records_in.append(len(partition))
            stage.records_out.append(len(partition))
        stage.wall_seconds = time.perf_counter() - start
        stage.shuffled_records = len(out)
        self.env._check_budget(name, len(out))
        return out

    def broadcast(self, name: str = "broadcast") -> List[T]:
        """Collect and account for a copy per simulated worker."""
        values = self.collect(name=name)
        stage = self.env.metrics.stages[-1]
        stage.broadcast_records = len(values) * self.env.parallelism
        return values

    def count(self) -> int:
        """Total number of records (no stage recorded)."""
        return sum(len(p) for p in self.partitions)

    # ------------------------------------------------------------------
    # repartitioning
    # ------------------------------------------------------------------

    def rebalance(self, name: str = "rebalance") -> "DataSet[T]":
        """Round-robin redistribute records evenly across workers.

        Pure data movement — runs on the driver under every backend.
        """
        env = self.env
        parallelism = env.parallelism
        stage = env.metrics.new_stage(name)
        wall_start = time.perf_counter()
        out: List[List[T]] = [[] for _ in range(parallelism)]
        index = 0
        total = 0
        for partition in self.partitions:
            start = time.perf_counter()
            for item in partition:
                out[index % parallelism].append(item)
                index += 1
            total += len(partition)
            stage.partition_seconds.append(time.perf_counter() - start)
            stage.records_in.append(len(partition))
            stage.records_out.append(len(partition))
        stage.wall_seconds = time.perf_counter() - wall_start
        stage.shuffled_records = total
        return DataSet(env, out, name=name)

    def __repr__(self) -> str:
        sizes = [len(p) for p in self.partitions]
        return f"<DataSet {self.name!r}: {sum(sizes)} records in {sizes}>"
