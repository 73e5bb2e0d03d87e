"""External spilling shuffle: the engine's disk-backed data plane.

The inline shuffle (:mod:`repro.dataflow.engine`) materializes every
shuffle bucket in driver memory, which caps the largest dataset the
engine can group at the resident set — the paper's RDFind leans on
Flink's out-of-core shuffle precisely to escape that cap (Sections 5-6:
CGCreator and CINDExtractor group billions of capture evidences by
value).  This module provides the real, bounded-memory alternative the
engine exposes as ``shuffle="spill"``:

Run files
    A *run* is a sorted, key-partitioned slice of map output on disk:
    length-prefixed, CRC-checked frames (:mod:`repro.core.serialization`)
    holding pickled record batches, preceded by a versioned header frame.
    Records are ``(hash, seq, key, value)`` tuples where ``hash`` is the
    process-stable :func:`~repro.dataflow.hashing.stable_hash` of the key
    (the sort key — stable across processes, so any worker produces the
    same order) and ``seq`` is the record's provenance
    ``(map partition, emission index)`` — what lets the merge reproduce
    the inline shuffle's output order exactly.

Byte-accurate budgets
    A :class:`MemoryBudget` accounts estimated *bytes* via
    :func:`record_bytes`, a pricing function calibrated against
    ``sys.getsizeof`` (regression-tested to stay honest within 2x for the
    encoded-storage record shapes).  Map-side combiners and buffers
    charge it per record; when it overflows they cut a sorted run to disk
    and start over, so no worker ever holds more than the budget plus one
    record.

Merging
    Reduce-side tasks group each partition's runs with a k-way
    ``heapq.merge`` over ``(hash, run, position)`` — fully ordered, no
    tie ever compares the (arbitrary) record payloads — folding each
    key's records in exactly the order the inline shuffle would have,
    and emitting groups ordered by first occurrence.  The result is
    *byte-identical* to the inline shuffle on both executor backends,
    in O(budget + output) memory regardless of bucket size.  When a
    partition accumulates more runs than ``merge_fanin``, intermediate
    merge passes consolidate them first (``merge_passes`` in the stage
    metrics).

Because map tasks return only :class:`RunInfo` manifests and reduce
tasks read the run files themselves, the ``process`` executor exchanges
partitions through the filesystem instead of pickling whole buckets
through the driver — the file-based inter-process shuffle path.
"""

from __future__ import annotations

import heapq
import os
import pickle
import sys
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.core.framing import (
    FrameError,
    FrameTruncatedError,
    iter_frames,
    write_frame,
)
from repro.dataflow.hashing import stable_hash

__all__ = [
    "SHUFFLE_MODES",
    "SPILL_FORMAT_NAME",
    "SPILL_FORMAT_VERSION",
    "MemoryBudget",
    "RunInfo",
    "SpillConfig",
    "record_bytes",
    "read_run",
    "write_run",
]

#: The recognised shuffle modes, in preference order.
SHUFFLE_MODES = ("inline", "spill")

SPILL_FORMAT_NAME = "rdfind-spill"
SPILL_FORMAT_VERSION = 1

#: Fixed pickle protocol for run payloads: all supported interpreters
#: speak protocol 4, so run files written by any worker read anywhere.
_PICKLE_PROTOCOL = 4

#: Records per data frame — small enough that a reader holds only one
#: decoded batch, large enough to amortize the frame header and CRC.
DEFAULT_FRAME_RECORDS = 512

#: Maximum runs merged in one pass; beyond it, intermediate merge passes
#: consolidate (the classic external-sort fan-in bound).
DEFAULT_MERGE_FANIN = 64


# ----------------------------------------------------------------------
# byte-accurate record pricing
# ----------------------------------------------------------------------

#: Flat per-element charge for variable-size containers (sets, lists):
#: one table slot plus a typical small element (a term id or pointer-
#: sized payload).  Containers are priced by length rather than by
#: recursing into every element so that re-pricing a growing combiner
#: value stays O(1) — the honesty bound is asserted by the calibration
#: regression test.
_CONTAINER_ELEMENT_BYTES = 56

#: Overhead of one spill record beyond its key and value: the 4-tuple,
#: the cached 64-bit hash, and the (partition, index) provenance pair.
_SPILL_RECORD_OVERHEAD = 200


def record_bytes(record: Any) -> int:
    """Estimate the resident bytes of one record.

    The estimate is anchored on ``sys.getsizeof`` (so interpreter object
    headers are priced for real) and recurses through tuples — the shape
    of every encoded-storage record (``EncodedTriple``, pairs, captures,
    conditions).  Sets, frozensets, lists, and dicts are priced by length
    at :data:`_CONTAINER_ELEMENT_BYTES` per slot instead of per-element
    recursion, keeping re-pricing of growing aggregation state O(1).

    ``tests/test_shuffle.py`` pins this against deep
    ``sys.getsizeof``-measured sizes for the encoded record shapes: the
    estimate must stay within 2x either way.

    Columnar batch records price themselves: an object exposing an
    ``nbytes()`` method (e.g. :class:`repro.storage.columnar.TripleBatch`)
    is charged its actual column payload, so a one-batch partition is
    priced as the id-arrays it holds rather than one opaque object.
    """
    nbytes = getattr(record, "nbytes", None)
    if callable(nbytes):
        return sys.getsizeof(record) + nbytes()
    size = sys.getsizeof(record)
    if isinstance(record, tuple):
        for field in record:
            size += record_bytes(field)
        return size
    if isinstance(record, (set, frozenset, list)):
        return size + _CONTAINER_ELEMENT_BYTES * len(record)
    if isinstance(record, dict):
        return size + 2 * _CONTAINER_ELEMENT_BYTES * len(record)
    return size


def _pair_cost(key: Any, value: Any) -> int:
    """Price one buffered ``(key, value)`` spill record."""
    return record_bytes(key) + record_bytes(value) + _SPILL_RECORD_OVERHEAD


class MemoryBudget:
    """Byte accounting for one worker's in-memory shuffle state.

    ``charge``/``release`` maintain the running estimate; ``exceeded``
    tells the owner it is time to cut a run.  ``peak_bytes`` survives
    resets so metrics can report the high-water mark a worker actually
    reached (which the spill machinery keeps within one record of the
    limit).  ``limit_bytes=None`` disables overflow (a single final
    flush still writes the data to disk).
    """

    __slots__ = ("limit_bytes", "used_bytes", "peak_bytes")

    def __init__(self, limit_bytes: Optional[int] = None) -> None:
        if limit_bytes is not None and limit_bytes < 1:
            raise ValueError(f"limit_bytes must be >= 1, got {limit_bytes}")
        self.limit_bytes = limit_bytes
        self.used_bytes = 0
        self.peak_bytes = 0

    def charge(self, amount: int) -> None:
        self.used_bytes += amount
        if self.used_bytes > self.peak_bytes:
            self.peak_bytes = self.used_bytes

    def release(self, amount: int) -> None:
        self.used_bytes = max(0, self.used_bytes - amount)

    def reset(self) -> None:
        """Empty the account (state was spilled); the peak is kept."""
        self.used_bytes = 0

    @property
    def exceeded(self) -> bool:
        return self.limit_bytes is not None and self.used_bytes > self.limit_bytes

    def __repr__(self) -> str:
        return (
            f"<MemoryBudget used={self.used_bytes} peak={self.peak_bytes} "
            f"limit={self.limit_bytes}>"
        )


@dataclass(frozen=True)
class SpillConfig:
    """Knobs of the spilling shuffle (picklable; shipped in payloads)."""

    budget_bytes: Optional[int] = None
    frame_records: int = DEFAULT_FRAME_RECORDS
    merge_fanin: int = DEFAULT_MERGE_FANIN

    def __post_init__(self) -> None:
        if self.budget_bytes is not None and self.budget_bytes < 1:
            raise ValueError(f"budget_bytes must be >= 1, got {self.budget_bytes}")
        if self.frame_records < 1:
            raise ValueError(f"frame_records must be >= 1, got {self.frame_records}")
        if self.merge_fanin < 2:
            raise ValueError(f"merge_fanin must be >= 2, got {self.merge_fanin}")


class RunInfo(NamedTuple):
    """Manifest entry for one run file — all a reduce task needs."""

    path: str
    partition: int
    records: int
    bytes: int


# ----------------------------------------------------------------------
# run files
# ----------------------------------------------------------------------


def write_run(
    path: str,
    partition: int,
    records: List[Tuple],
    frame_records: int = DEFAULT_FRAME_RECORDS,
) -> RunInfo:
    """Write one sorted run to ``path`` and return its manifest.

    The file is written to ``path + ".tmp"`` and renamed into place, so
    a re-executed task (fault recovery) overwrites its own half-written
    output idempotently instead of corrupting it.  ``records`` may be a
    list (header records count validated on read) or any iterable
    (streamed; the count is left unvalidated).
    """
    counted = isinstance(records, (list, tuple))
    header = {
        "magic": SPILL_FORMAT_NAME,
        "version": SPILL_FORMAT_VERSION,
        "partition": partition,
        "records": len(records) if counted else None,
    }
    temp_path = path + ".tmp"
    written = 0
    total = 0
    with open(temp_path, "wb") as stream:
        written += write_frame(
            stream, pickle.dumps(header, protocol=_PICKLE_PROTOCOL)
        )
        batch: List[Tuple] = []
        for record in records:
            batch.append(record)
            total += 1
            if len(batch) >= frame_records:
                written += write_frame(
                    stream, pickle.dumps(batch, protocol=_PICKLE_PROTOCOL)
                )
                batch = []
        if batch:
            written += write_frame(
                stream, pickle.dumps(batch, protocol=_PICKLE_PROTOCOL)
            )
    # Not core.framing.atomic_write on purpose: a run is scratch that a
    # retried task re-cuts, so it must not pay an fsync.
    os.replace(temp_path, path)
    return RunInfo(path=path, partition=partition, records=total, bytes=written)


def read_run(path: str) -> Iterator[Tuple]:
    """Yield a run file's records in stored (sorted) order.

    Raises :class:`~repro.core.serialization.FrameCorruptionError` on a
    CRC mismatch, :class:`~repro.core.serialization.FrameTruncatedError`
    on a short file (including whole trailing frames lost against a
    counted header), and plain :class:`FrameError` on a bad header.
    """
    with open(path, "rb") as stream:
        frames = iter_frames(stream)
        try:
            header_payload = next(frames)
        except StopIteration:
            raise FrameTruncatedError(f"{path}: empty run file (no header frame)")
        header = pickle.loads(header_payload)
        if (
            not isinstance(header, dict)
            or header.get("magic") != SPILL_FORMAT_NAME
        ):
            raise FrameError(f"{path}: not a {SPILL_FORMAT_NAME} file")
        if header.get("version") != SPILL_FORMAT_VERSION:
            raise FrameError(
                f"{path}: unsupported spill format version "
                f"{header.get('version')!r}"
            )
        expected = header.get("records")
        seen = 0
        for payload in frames:
            batch = pickle.loads(payload)
            seen += len(batch)
            yield from batch
        if expected is not None and seen != expected:
            raise FrameTruncatedError(
                f"{path}: header declares {expected} records, file holds {seen}"
            )


# ----------------------------------------------------------------------
# map side: partitioned spill writers
# ----------------------------------------------------------------------


class _RunSink:
    """Names, sorts, and writes one map task's runs (in cut order)."""

    __slots__ = ("stage_dir", "map_index", "frame_records", "runs", "spills")

    def __init__(self, stage_dir: str, map_index: int, frame_records: int) -> None:
        self.stage_dir = stage_dir
        self.map_index = map_index
        self.frame_records = frame_records
        self.runs: List[RunInfo] = []
        self.spills = 0

    def spill_buckets(self, buckets: List[List[Tuple]]) -> None:
        """Cut one sorted run per non-empty reduce partition.

        Each bucket is sorted by the record's stable hash; the sort is
        stable, so records of one key keep their emission order — the
        invariant the merge's fold-order guarantee rests on.
        """
        event = self.spills
        self.spills += 1
        for partition, records in enumerate(buckets):
            if not records:
                continue
            records.sort(key=itemgetter(0))
            path = os.path.join(
                self.stage_dir,
                f"map{self.map_index:04d}-run{event:04d}-part{partition:04d}.run",
            )
            self.runs.append(
                write_run(path, partition, records, self.frame_records)
            )

    @property
    def spilled_bytes(self) -> int:
        return sum(info.bytes for info in self.runs)


def _bucketize(
    pairs: Iterable[Tuple[Tuple[int, int], Any, Any]], parallelism: int
) -> List[List[Tuple]]:
    """Split ``(seq, key, value)`` pairs into per-partition spill records."""
    buckets: List[List[Tuple]] = [[] for _ in range(parallelism)]
    for seq, key, value in pairs:
        key_hash = stable_hash(key)
        buckets[key_hash % parallelism].append((key_hash, seq, key, value))
    return buckets


def _spill_combine_map_task(payload):
    """Map side of ``reduce_by_key`` under the spilling shuffle.

    The worker folds pairs into a local table, charging the byte budget
    with re-priced deltas; on overflow the table is cut into sorted
    per-partition runs and restarted.  The ``seq`` recorded with a key
    is its *first-insertion* emission index, so the merge's min-seq
    ordering reproduces the inline combiner's ``dict`` insertion order
    exactly.
    """
    (
        key_fn,
        value_fn,
        reduce_fn,
        parallelism,
        conf,
        stage_dir,
        map_index,
        partition,
    ) = payload
    start = time.perf_counter()
    sink = _RunSink(stage_dir, map_index, conf.frame_records)
    budget = MemoryBudget(conf.budget_bytes)
    emitted = 0
    local: Dict[Any, Tuple[Tuple[int, int], Any]] = {}
    prices: Dict[Any, int] = {}
    for index, item in enumerate(partition):
        key = key_fn(item)
        value = value_fn(item)
        entry = local.get(key)
        if entry is None:
            local[key] = ((map_index, index), value)
            cost = _pair_cost(key, value)
            prices[key] = cost
            budget.charge(cost)
        else:
            merged = reduce_fn(entry[1], value)
            local[key] = (entry[0], merged)
            cost = _pair_cost(key, merged)
            budget.charge(cost - prices[key])
            prices[key] = cost
        if budget.exceeded:
            emitted += len(local)
            sink.spill_buckets(
                _bucketize(
                    ((seq, k, v) for k, (seq, v) in local.items()),
                    parallelism,
                )
            )
            local = {}
            prices = {}
            budget.reset()
    if local:
        emitted += len(local)
        sink.spill_buckets(
            _bucketize(((seq, k, v) for k, (seq, v) in local.items()), parallelism)
        )
    return (
        sink.runs,
        emitted,
        sink.spilled_bytes,
        budget.peak_bytes,
        time.perf_counter() - start,
    )


def _spill_fused_map_task(payload):
    """Fused flatMap + combine map side (``flat_map_reduce_by_key``)."""
    flat_fn, reduce_fn, parallelism, conf, stage_dir, map_index, partition = payload
    start = time.perf_counter()
    sink = _RunSink(stage_dir, map_index, conf.frame_records)
    budget = MemoryBudget(conf.budget_bytes)
    emitted = 0
    local: Dict[Any, Tuple[Tuple[int, int], Any]] = {}
    prices: Dict[Any, int] = {}
    produced = 0
    for item in partition:
        for key, value in flat_fn(item):
            entry = local.get(key)
            if entry is None:
                local[key] = ((map_index, produced), value)
                cost = _pair_cost(key, value)
                prices[key] = cost
                budget.charge(cost)
            else:
                merged = reduce_fn(entry[1], value)
                local[key] = (entry[0], merged)
                cost = _pair_cost(key, merged)
                budget.charge(cost - prices[key])
                prices[key] = cost
            produced += 1
            if budget.exceeded:
                emitted += len(local)
                sink.spill_buckets(
                    _bucketize(
                        ((seq, k, v) for k, (seq, v) in local.items()),
                        parallelism,
                    )
                )
                local = {}
                prices = {}
                budget.reset()
    if local:
        emitted += len(local)
        sink.spill_buckets(
            _bucketize(((seq, k, v) for k, (seq, v) in local.items()), parallelism)
        )
    return (
        sink.runs,
        emitted,
        sink.spilled_bytes,
        budget.peak_bytes,
        time.perf_counter() - start,
    )


def _spill_keyed_map_task(payload):
    """Key + buffer + spill map side of ``co_group``.

    ``side`` (0 left, 1 right) tags each record.  ``map_index`` is offset
    by the parallelism for the right-hand input, which both avoids run
    name collisions and makes every left run order before every right
    run in the merge — the order the inline co-group applies sides in.
    """
    key_fn, side, parallelism, conf, stage_dir, map_index, partition = payload
    start = time.perf_counter()
    sink = _RunSink(stage_dir, map_index, conf.frame_records)
    budget = MemoryBudget(conf.budget_bytes)
    emitted = 0
    buffers: List[List[Tuple]] = [[] for _ in range(parallelism)]
    buffered = 0
    for index, item in enumerate(partition):
        key = key_fn(item)
        value = (side, item)
        key_hash = stable_hash(key)
        buffers[key_hash % parallelism].append(
            (key_hash, (map_index, index), key, value)
        )
        buffered += 1
        budget.charge(_pair_cost(key, value))
        if budget.exceeded:
            emitted += buffered
            sink.spill_buckets(buffers)
            buffers = [[] for _ in range(parallelism)]
            buffered = 0
            budget.reset()
    if buffered:
        emitted += buffered
        sink.spill_buckets(buffers)
    return (
        sink.runs,
        emitted,
        sink.spilled_bytes,
        budget.peak_bytes,
        time.perf_counter() - start,
    )


def gather_runs(
    per_task_runs: Iterable[List[RunInfo]], parallelism: int
) -> List[List[RunInfo]]:
    """Group map-task manifests by reduce partition, in global run order.

    Tasks are visited in submission (map-partition) order and each task's
    runs are chronological, so every partition's list is ordered
    ``(map partition, cut order)`` — the order the merge's tie-breaking
    relies on to reproduce the inline fold order.
    """
    per_partition: List[List[RunInfo]] = [[] for _ in range(parallelism)]
    for runs in per_task_runs:
        for info in runs:
            per_partition[info.partition].append(info)
    return per_partition


# ----------------------------------------------------------------------
# reduce side: k-way merge grouping
# ----------------------------------------------------------------------


def _iter_run_ordered(path: str, order: int) -> Iterator[Tuple[int, int, int, Tuple]]:
    """Wrap a run's records as ``(hash, run order, position, record)``."""
    for position, record in enumerate(read_run(path)):
        yield (record[0], order, position, record)


def _stream_merged(paths: List[str]) -> Iterator[Tuple]:
    """Merge sorted runs into one ``(hash, seq, key, value)`` stream.

    The merge key ``(hash, run order, position)`` is unique per record,
    so ``heapq.merge`` never falls through to comparing the (arbitrary,
    possibly uncomparable) record payloads, and the global order is a
    pure function of the run contents — deterministic on every backend.
    """
    streams = [
        _iter_run_ordered(path, order) for order, path in enumerate(paths)
    ]
    for _key, _order, _position, record in heapq.merge(
        *streams, key=itemgetter(0, 1, 2)
    ):
        yield record


def _consolidate_runs(
    runs: List[RunInfo],
    conf: SpillConfig,
    scratch_dir: str,
    reduce_partition: int,
) -> Tuple[List[str], int]:
    """Merge runs down to at most ``merge_fanin`` files; count the passes.

    Each pass merges consecutive batches of ``merge_fanin`` runs into
    intermediate runs.  Batches are consecutive, so the global
    ``(map partition, cut order)`` ordering is preserved across passes —
    later merges still see records of one key in the original fold
    order.  Intermediate inputs of later passes are deleted as they are
    consumed; the stage directory removal sweeps up the rest.
    """
    paths = [info.path for info in runs]
    passes = 0
    generation = 0
    while len(paths) > conf.merge_fanin:
        passes += 1
        next_paths: List[str] = []
        for batch_no, start in enumerate(range(0, len(paths), conf.merge_fanin)):
            batch = paths[start : start + conf.merge_fanin]
            if len(batch) == 1:
                next_paths.append(batch[0])
                continue
            out_path = os.path.join(
                scratch_dir,
                f"part{reduce_partition:04d}-pass{generation:02d}"
                f"-batch{batch_no:04d}.run",
            )
            write_run(
                out_path,
                reduce_partition,
                _stream_merged(batch),
                conf.frame_records,
            )
            next_paths.append(out_path)
            if generation > 0:
                for consumed in batch:
                    try:
                        os.remove(consumed)
                    except OSError:
                        pass
        paths = next_paths
        generation += 1
    return paths, passes


def _spill_reduce_task(payload):
    """Merge one partition's runs and fold each key (``reduce_by_key``)."""
    reduce_fn, runs, conf, scratch_dir, reduce_partition = payload
    start = time.perf_counter()
    paths, passes = _consolidate_runs(runs, conf, scratch_dir, reduce_partition)
    rows: List[Tuple[Tuple[int, int], Any, Any]] = []
    current_hash: Optional[int] = None
    block: Dict[Any, List] = {}
    for record in _stream_merged(paths):
        key_hash, seq, key, value = record
        if key_hash != current_hash:
            for block_key, entry in block.items():
                rows.append((entry[0], block_key, entry[1]))
            block = {}
            current_hash = key_hash
        entry = block.get(key)
        if entry is None:
            block[key] = [seq, value]
        else:
            entry[1] = reduce_fn(entry[1], value)
    for block_key, entry in block.items():
        rows.append((entry[0], block_key, entry[1]))
    rows.sort(key=itemgetter(0))
    result = [(key, value) for _seq, key, value in rows]
    return result, passes, time.perf_counter() - start


def _spill_co_group_task(payload):
    """Merge both sides' runs and apply the co-group function per key.

    Inline ``co_group`` emits every key with left records in left
    first-occurrence order, then right-only keys in right order; the
    spill path reproduces that by sorting each key's output block on
    ``(side present, first seq on that side)``.  Left runs order before
    right runs in the merge (their map indices are offset), so each
    side's records fold in inline order too.
    """
    fn, runs, conf, scratch_dir, reduce_partition = payload
    start = time.perf_counter()
    paths, passes = _consolidate_runs(runs, conf, scratch_dir, reduce_partition)
    rows: List[Tuple[Tuple, List[Any]]] = []
    current_hash: Optional[int] = None
    block: Dict[Any, List] = {}

    def flush(entries: Dict[Any, List]) -> None:
        for block_key, entry in entries.items():
            left_seq, right_seq, left_items, right_items = entry
            order = (0, left_seq) if left_seq is not None else (1, right_seq)
            rows.append((order, list(fn(block_key, left_items, right_items))))

    for record in _stream_merged(paths):
        key_hash, seq, key, (side, item) = record
        if key_hash != current_hash:
            flush(block)
            block = {}
            current_hash = key_hash
        entry = block.get(key)
        if entry is None:
            entry = [None, None, [], []]
            block[key] = entry
        if side == 0:
            if entry[0] is None:
                entry[0] = seq
            entry[2].append(item)
        else:
            if entry[1] is None:
                entry[1] = seq
            entry[3].append(item)
    flush(block)
    rows.sort(key=itemgetter(0))
    result: List[Any] = []
    for _order, outputs in rows:
        result.extend(outputs)
    return result, passes, time.perf_counter() - start
