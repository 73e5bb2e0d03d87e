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

Each keyed operator is written once.  Its map task
(:func:`_combine_map_task` for the two reductions — ``reduce_by_key`` is
``flat_map_reduce_by_key`` over one pair per record — and
:func:`_keyed_map_task` for ``co_group``) splits its output into hash
buckets in memory (:class:`_BucketSink`, state priced in records against
``memory_budget``), one driver (:meth:`DataSet._keyed_stages`) gathers
the buckets per reduce partition, in task order, and runs the
reduce-side task, which folds a bucket in a dict.  There is one data
plane, in memory.

A configurable per-partition *memory budget* (max records materialized in
any one worker's in-memory state) emulates out-of-memory failures: stateful
operators raise :class:`SimulatedOutOfMemory` when a single worker would
have to hold more records than the budget allows.  The exception pickles
faithfully, so a budget blown inside a pool worker surfaces in the driver
exactly like a serial one.  The paper's Figures 7 and 13 report such
failures for Cinderella and RDFind-DE.
"""

from __future__ import annotations

import time
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.dataflow.executors import create_executor
from repro.dataflow.faults import (
    FaultPlan,
    RetryPolicy,
    SimulatedOutOfMemory,
)
from repro.dataflow.gcpause import stage_gc_pause
from repro.dataflow.hashing import _MASK64, hash_partition, stable_hash
from repro.dataflow.metrics import JobMetrics, StageMetrics

T = TypeVar("T")
U = TypeVar("U")
K = TypeVar("K")
V = TypeVar("V")

__all__ = [
    "DataSet",
    "ExecutionEnvironment",
    "SimulatedOutOfMemory",  # re-exported from repro.dataflow.faults
    "stable_hash",  # re-exported from repro.dataflow.hashing
    "pair_key",
    "pair_value",
    "record_cells",
]


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


def _one_pair(key_fn, value_fn, item):
    """``reduce_by_key``'s ``flat_fn``: one ``(key, value)`` pair per record."""
    return ((key_fn(item), value_fn(item)),)


class _BucketSink:
    """Map-side state of a keyed operator: the record budget and the buckets.

    State is priced in records — ``state_cost_fn`` of the values when
    given, else one per key — against the per-worker ``memory_budget``.
    ``charge`` prices one insert or merge and raises
    :class:`SimulatedOutOfMemory` on the first excess (an in-memory
    combiner has nowhere to put it); ``metered`` says whether any pair
    needs pricing at all.  ``finish`` splits the output by reduce
    partition; ``peak`` is then the most the task's state cost reached.
    """

    __slots__ = ("parallelism", "budget", "state_cost_fn", "stage", "used", "peak", "emitted")

    def __init__(self, parallelism, budget, state_cost_fn, stage) -> None:
        self.parallelism = parallelism
        self.budget = budget
        self.state_cost_fn = state_cost_fn
        self.stage = stage
        self.used = 0
        self.peak = 0
        self.emitted = 0

    @property
    def metered(self) -> bool:
        return self.budget is not None or self.state_cost_fn is not None

    def charge(self, previous, value) -> None:
        cost_fn = self.state_cost_fn
        if cost_fn is None:
            if previous is None:
                self.used += 1
        elif previous is None:
            self.used += cost_fn(value)
        else:
            self.used += cost_fn(value) - cost_fn(previous)
        if self.used > self.peak:  # within budget so far: only a new peak trips it
            self.peak = self.used
            if self.budget is not None and self.used > self.budget:
                raise SimulatedOutOfMemory(self.stage, self.used, self.budget)

    def finish(self, pairs) -> List[List[Tuple[Any, Any]]]:
        parallelism = self.parallelism
        parts: List[List[Tuple[Any, Any]]] = [[] for _ in range(parallelism)]
        for pair in pairs:
            key = pair[0]
            if type(key) is int:  # hash_partition's splitmix64, inlined
                key &= _MASK64
                key = ((key ^ (key >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                key = ((key ^ (key >> 27)) * 0x94D049BB133111EB) & _MASK64
                parts[(key ^ (key >> 31)) % parallelism].append(pair)
            else:
                parts[hash_partition(key, parallelism)].append(pair)
        self.emitted = sum(map(len, parts))
        if self.state_cost_fn is None:
            self.used = self.emitted
        self.peak = max(self.peak, self.used)
        return parts


def _combine_map_task(payload):
    """Map side of the keyed reductions: flatMap fused into the combine fold.

    The one place pairs are folded before a shuffle.  Each pair
    ``flat_fn`` yields goes into the local table as it is produced; a
    metered sink prices every insert and merge and raises
    :class:`SimulatedOutOfMemory` when the table outgrows the budget.  A
    value of ``None`` reads as "no value yet".  Unmetered, a ``flat_fn``
    with a ``fold`` builds the whole table itself.
    """
    flat_fn, reduce_fn, make_sink, partition = payload
    start = time.perf_counter()
    sink = make_sink()
    with stage_gc_pause() as pause:
        local: Dict[Any, Any] = {}
        local_get = local.get
        if sink.metered:
            charge = sink.charge
            for item in partition:
                for key, value in flat_fn(item):
                    previous = local_get(key)
                    if previous is not None:
                        value = reduce_fn(previous, value)
                    local[key] = value
                    charge(previous, value)
        elif hasattr(flat_fn, "fold"):
            # Unpriced (the batch kernels' case): the kernel folds the
            # whole partition where its data already is.
            local = flat_fn.fold(partition, reduce_fn)
        else:
            for item in partition:
                for key, value in flat_fn(item):
                    previous = local_get(key)
                    if previous is None:
                        local[key] = value
                    else:
                        local[key] = reduce_fn(previous, value)
        parts = sink.finish(local.items())
    return parts, sink.emitted, sink.peak, pause.suppressed, time.perf_counter() - start


def _keyed_map_task(payload):
    """Map side of ``co_group``: key every record of one input side.

    Nothing combines, so records are bucketed as ``(key, (side, item))``
    in arrival order; the record budget is checked reduce-side, where the
    two sides meet.
    """
    key_fn, side, make_sink, partition = payload
    start = time.perf_counter()
    sink = make_sink()
    parts = sink.finish([(key_fn(item), (side, item)) for item in partition])
    return parts, sink.emitted, sink.peak, 0, time.perf_counter() - start


# Reduce-side tasks take ``(fn, bucket, budget, stage)``: ``bucket`` is
# what the map tasks sent to one reduce partition, ``budget`` the record
# budget and ``stage`` the name an overrun is reported under.  They
# return ``(result, gc-suppressed, seconds)``.


def _reduce_bucket_task(payload):
    """The post-shuffle reduction of one key bucket."""
    reduce_fn, bucket, budget, stage = payload
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


def _co_group_apply_task(payload):
    """Group both sides of one bucket and apply the join function."""
    fn, bucket, budget, stage = payload
    start = time.perf_counter()
    with stage_gc_pause() as pause:
        if budget is not None and len(bucket) > budget:
            raise SimulatedOutOfMemory(stage, len(bucket), budget)
        # groups[0] is the left side, groups[1] the right.
        groups: Tuple[Dict[Any, List[Any]], Dict[Any, List[Any]]] = ({}, {})
        for key, (side, item) in bucket:
            groups[side].setdefault(key, []).append(item)
        left_groups, right_groups = groups
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
        task_timeout_seconds: Optional[float] = None,
        metrics: Optional[JobMetrics] = None,
    ) -> None:
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self.parallelism = int(parallelism)
        self.memory_budget = memory_budget
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

    def close(self) -> None:
        """Release executor resources."""
        self.executor.close()

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

    def _element_wise(
        self, task: Callable[[Any], Any], fn: Callable[..., Any], name: str
    ) -> "DataSet[Any]":
        """One stage applying ``task(fn, partition)`` to every partition."""
        stage = self.env.metrics.new_stage(name)
        payloads = [(fn, partition) for partition in self.partitions]
        out: List[List[Any]] = []
        for partition, (result, elapsed) in zip(
            self.partitions,
            self._run_stage(stage, task, payloads, records=self._total_records()),
        ):
            stage.partition_seconds.append(elapsed)
            stage.records_in.append(len(partition))
            stage.records_out.append(len(result))
            out.append(result)
        return DataSet(self.env, out, name=name)

    def map(self, fn: Callable[[T], U], name: str = "map") -> "DataSet[U]":
        """Apply ``fn`` to every record."""
        return self._element_wise(_map_task, fn, name)

    def flat_map(
        self, fn: Callable[[T], Iterable[U]], name: str = "flat_map"
    ) -> "DataSet[U]":
        """Apply ``fn`` and flatten its iterable results."""
        return self._element_wise(_flat_map_task, fn, name)

    def filter(self, pred: Callable[[T], bool], name: str = "filter") -> "DataSet[T]":
        """Keep records for which ``pred`` is true."""
        return self._element_wise(_filter_task, pred, name)

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
    # keyed operators (GroupBy + GroupCombine + GroupReduce, CoGroup)
    # ------------------------------------------------------------------

    def _keyed_stages(
        self,
        name: str,
        map_task: Callable[[Any], Any],
        map_inputs: List[Tuple[Tuple[Any, ...], List[Any], int]],
        tail: str,
        fn: Callable[..., Any],
        reduce_task: Callable[[Any], Any],
        state_cost_fn: Optional[Callable[[Any], int]] = None,
        record_budget: Optional[int] = None,
    ) -> "DataSet[Any]":
        """The driver of every keyed operator.

        ``map_inputs`` holds one ``(leading payload fields, partition,
        logical size)`` per map task; each task gets a fresh
        :class:`_BucketSink` and returns its output split by reduce
        partition.  The parts are gathered in task order — which is what
        fixes the fold order — and handed to ``reduce_task`` under the
        stage ``name + tail``.  Map-side accounting is folded onto
        ``parallelism`` slots (task ``i`` counts towards slot
        ``i % parallelism``), so an operator with two inputs reports one
        entry per worker, like every other stage.
        """
        env = self.env
        parallelism = env.parallelism
        stage = env.metrics.new_stage(name)
        make_sink = partial(_BucketSink, parallelism, record_budget, state_cost_fn, name)
        payloads = [leading + (make_sink, partition) for leading, partition, _size in map_inputs]
        results = self._run_stage(
            stage,
            map_task,
            payloads,
            records=sum(size for _l, _p, size in map_inputs),
        )
        stage.partition_seconds = [0.0] * parallelism
        stage.records_in = [0] * parallelism
        stage.records_out = [0] * parallelism
        gathered: List[List[Any]] = [[] for _ in range(parallelism)]
        for index, (parts, emitted, cost, suppressed, elapsed) in enumerate(results):
            slot = index % parallelism
            stage.partition_seconds[slot] += elapsed
            stage.records_in[slot] += map_inputs[index][2]
            stage.records_out[slot] += emitted
            stage.shuffled_records += emitted
            stage.gc_suppressed_collections += suppressed
            stage.peak_state_cost = max(stage.peak_state_cost, cost)
            for target, part in zip(gathered, parts):
                target.extend(part)

        reduce_stage = env.metrics.new_stage(name + tail)
        payloads = [(fn, part, env.memory_budget, name + tail) for part in gathered]
        out: List[List[Any]] = []
        for part, (result, suppressed, elapsed) in zip(
            gathered,
            self._run_stage(
                reduce_stage, reduce_task, payloads, records=sum(map(len, gathered))
            ),
        ):
            reduce_stage.partition_seconds.append(elapsed)
            reduce_stage.records_in.append(len(part))
            reduce_stage.records_out.append(len(result))
            reduce_stage.gc_suppressed_collections += suppressed
            out.append(result)
        return DataSet(env, out, name=name)

    def reduce_by_key(
        self,
        key_fn: Callable[[T], K],
        value_fn: Callable[[T], V],
        reduce_fn: Callable[[V, V], V],
        name: str = "reduce_by_key",
    ) -> "DataSet[Tuple[K, V]]":
        """Hash-partitioned keyed reduction producing ``(key, value)`` pairs.

        :meth:`flat_map_reduce_by_key` over the one pair
        ``(key_fn(record), value_fn(record))`` per record — same stages,
        same budget rule, same output order.
        """
        return self.flat_map_reduce_by_key(
            partial(_one_pair, key_fn, value_fn), reduce_fn, name=name
        )

    def flat_map_reduce_by_key(
        self,
        flat_fn: Callable[[T], Iterable[Tuple[K, V]]],
        reduce_fn: Callable[[V, V], V],
        state_cost_fn: Optional[Callable[[V], int]] = None,
        name: str = "flat_map_reduce_by_key",
    ) -> "DataSet[Tuple[K, V]]":
        """Fused flatMap + keyed reduction (Flink's operator chaining).

        ``flat_fn`` yields ``(key, value)`` pairs per record; each pair is
        folded into the worker's combine table *as it is produced* (the
        paper's early aggregation), so the flatMap's output is never
        materialized — essential when a record expands into very many
        pairs (e.g. CIND candidate sets, which are quadratic in
        capture-group size) — and only one pair per key and worker is
        shuffled.  Values must not be ``None``.  A ``flat_fn`` may also
        define ``fold(partition, reduce_fn) -> dict``: the table folding
        its pairs with ``reduce_fn`` would build — same keys, same
        first-seen order, equal values — built in one call per
        partition; it is used when no pair needs pricing.

        The budget rule, the same for every keyed operator: the
        record-count ``memory_budget`` is
        checked after every insert or merge into the combine table, and
        the first one that takes the table over it raises
        :class:`SimulatedOutOfMemory` under the stage ``name`` — with
        ``records == budget + 1`` when the table is priced at one record
        per key.  ``state_cost_fn`` prices a combine-state value instead
        (e.g. the size of a referenced-capture set), which models a real
        combiner running out of memory (the paper's RDFind-DE failures);
        a merge is charged ``state_cost_fn(merged) -
        state_cost_fn(previous)`` *after* ``reduce_fn`` ran, so with a
        ``state_cost_fn`` ``reduce_fn`` must return a new value rather
        than grow ``previous`` in place.  The reduce side checks its
        grouped table once, under ``name + "/reduce"``.  The stage
        reports the largest table cost any worker reached as
        ``peak_state_cost``.
        """
        inputs = [
            ((flat_fn, reduce_fn), partition, size)
            for partition, size in zip(self.partitions, self._partition_sizes())
        ]
        return self._keyed_stages(
            name,
            _combine_map_task,
            inputs,
            "/reduce",
            reduce_fn,
            _reduce_bucket_task,
            state_cost_fn=state_cost_fn,
            record_budget=self.env.memory_budget,
        )

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
        each side, enabling inner, outer, and semi joins.  Nothing
        combines map-side, so the record budget is checked where the
        records meet: a bucket larger than
        ``memory_budget`` raises under ``name + "/apply"``.
        """
        # One map task per partition of either input, the record's side
        # carried as a tag; task ``parallelism + i`` is the right input's
        # partition ``i``, so both count towards worker ``i``.
        inputs = [
            ((key_self, 0), partition, len(partition)) for partition in self.partitions
        ] + [
            ((key_other, 1), partition, len(partition)) for partition in other.partitions
        ]
        return self._keyed_stages(
            name,
            _keyed_map_task,
            inputs,
            "/apply",
            fn,
            _co_group_apply_task,
        )

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
