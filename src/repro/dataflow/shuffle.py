"""External spilling shuffle: the engine's disk-backed data plane.

The inline plane (:mod:`repro.dataflow.engine`) holds every shuffle
bucket in memory, which caps the largest dataset the engine can group
at the resident set — the paper's RDFind leans on Flink's out-of-core
shuffle precisely to escape that cap (Sections 5-6: CGCreator and
CINDExtractor group billions of capture evidences by value).  This
module is the bounded-memory alternative: a run that is given a byte
budget (a :class:`SpillConfig`) runs on it, a run without one stays
inline.  The keyed operators themselves — the combine fold, the driver
— live in the engine and are the same code on both planes; what is here
is the two ends that differ:

:class:`SpillSink` (map side)
    Where a map task's pairs go.  A :class:`MemoryBudget` accounts
    estimated *bytes* via :func:`record_bytes`, a pricing function
    calibrated against ``sys.getsizeof`` (regression-tested to stay
    honest within 2x for the encoded-storage record shapes).  The sink
    is charged per pair; when it overflows, the task's table (or
    buffer) is cut to sorted runs and started over, so no worker ever
    holds more than the budget plus one record.

Run files
    A *run* is a sorted, key-partitioned slice of map output on disk:
    length-prefixed, CRC-checked frames (:mod:`repro.core.framing`)
    holding pickled record batches, preceded by a versioned header frame.
    Records are ``(hash, seq, key, value)`` tuples where ``hash`` is the
    process-stable :func:`~repro.dataflow.hashing.stable_hash` of the key
    (the sort key — stable across processes, so any worker produces the
    same order) and ``seq`` is ``(map task, cut number, position in the
    cut)``, assigned when the run is cut — what lets the merge reproduce
    the inline plane's output order exactly.

Merging (reduce side)
    :func:`_spill_reduce_task` and :func:`_spill_apply_task` group
    one partition's runs with a k-way ``heapq.merge`` over ``(hash, run,
    position)`` — fully ordered, no tie ever compares the (arbitrary)
    record payloads — folding each key's records in exactly the order
    the inline plane would have, and emitting groups ordered by first
    occurrence.  The result is *byte-identical* to the inline plane on
    both executor backends, in O(budget + output) memory regardless of
    bucket size.  When a partition accumulates more runs than
    ``merge_fanin``, intermediate merge passes consolidate them first
    (``merge_passes`` in the stage metrics).  This is a different
    algorithm from the inline plane's one-dict fold, not a copy of it:
    it never holds more than one hash value's keys at a time.

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
    "SPILL_FORMAT_NAME",
    "SPILL_FORMAT_VERSION",
    "MemoryBudget",
    "RunInfo",
    "SpillConfig",
    "SpillSink",
    "record_bytes",
    "read_run",
    "run_records",
    "write_run",
]

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
#: the cached 64-bit hash, and the (task, cut, position) seq it is cut with.
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
    limit).
    """

    __slots__ = ("limit_bytes", "used_bytes", "peak_bytes")

    def __init__(self, limit_bytes: int) -> None:
        if limit_bytes < 1:
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
        return self.used_bytes > self.limit_bytes

    def __repr__(self) -> str:
        return (
            f"<MemoryBudget used={self.used_bytes} peak={self.peak_bytes} "
            f"limit={self.limit_bytes}>"
        )


@dataclass(frozen=True)
class SpillConfig:
    """Knobs of the spilling shuffle (picklable; shipped in payloads).

    ``budget_bytes`` is the per-worker cap on in-memory shuffle state;
    giving one is what puts a run on the spill plane.
    """

    budget_bytes: int
    frame_records: int = DEFAULT_FRAME_RECORDS
    merge_fanin: int = DEFAULT_MERGE_FANIN

    def __post_init__(self) -> None:
        if self.budget_bytes < 1:
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
# map side: the spill sink
# ----------------------------------------------------------------------


class SpillSink:
    """Map-side sink of the spill plane: byte pricing, overflow cuts runs.

    The counterpart of the inline plane's bucket sink (see
    :mod:`repro.dataflow.engine` for what the map tasks ask of a sink).
    Every pair held by the task is priced in estimated bytes — a merged
    value re-priced, the delta charged — and when the budget overflows
    the task's pairs are cut into one sorted run per non-empty reduce
    partition.  ``finish`` cuts what is left and returns the run
    manifests split by reduce partition, each list in cut order.

    A record's ``seq`` is assigned here, when its run is cut: ``(map
    task, cut number, position in the cut)``.  Pairs arrive in the order
    the task first produced them (a combine table iterates in
    first-insertion order, a buffer in arrival order) and cuts are
    chronological, so the tuple orders keys exactly as a per-pair
    emission counter would.
    """

    metered = True

    __slots__ = (
        "conf", "stage_dir", "map_index", "budget", "prices", "parts", "cuts", "emitted"
    )

    def __init__(
        self, conf: "SpillConfig", parallelism: int, stage_dir: str, map_index: int
    ) -> None:
        self.conf = conf
        self.stage_dir = stage_dir
        self.map_index = map_index
        self.budget = MemoryBudget(conf.budget_bytes)
        #: What each key's pair is currently charged at.  Kept rather
        #: than re-derived: ``reduce_fn`` may grow ``previous`` in place.
        self.prices: Dict[Any, int] = {}
        self.parts: List[List[RunInfo]] = [[] for _ in range(parallelism)]
        self.cuts = 0
        self.emitted = 0

    def charge(self, key: Any, previous: Any, value: Any) -> bool:
        """Price ``value`` now held under ``key``; true when over budget.

        ``previous is None`` means a pair of its own (a first insert, or
        any record of a buffer); otherwise ``value`` replaced it.
        """
        cost = _pair_cost(key, value)
        if previous is None:
            self.budget.charge(cost)
        else:
            self.budget.charge(cost - self.prices[key])
        self.prices[key] = cost
        return self.budget.exceeded

    def overflow(self, pairs: Iterable[Tuple[Any, Any]]) -> None:
        """Cut ``pairs`` to sorted runs and empty the account."""
        parallelism = len(self.parts)
        map_index, cut = self.map_index, self.cuts
        buckets: List[List[Tuple]] = [[] for _ in range(parallelism)]
        count = 0
        for key, value in pairs:
            key_hash = stable_hash(key)
            buckets[key_hash % parallelism].append(
                (key_hash, (map_index, cut, count), key, value)
            )
            count += 1
        for partition, records in enumerate(buckets):
            if not records:
                continue
            # Stable sort on the hash alone: records of one key keep their
            # seq order, which the merge's fold-order guarantee rests on.
            records.sort(key=itemgetter(0))
            path = os.path.join(
                self.stage_dir,
                f"map{map_index:04d}-run{cut:04d}-part{partition:04d}.run",
            )
            self.parts[partition].append(
                write_run(path, partition, records, self.conf.frame_records)
            )
        self.emitted += count
        self.cuts += 1
        self.prices.clear()
        self.budget.reset()

    def finish(self, pairs: Iterable[Tuple[Any, Any]]) -> List[List[RunInfo]]:
        self.overflow(pairs)
        return self.parts

    def stats(self) -> Tuple[int, int, int, int]:
        """``(peak_state_cost, peak_state_bytes, spilled_runs, spilled_bytes)``."""
        runs = [info for part in self.parts for info in part]
        return 0, self.budget.peak_bytes, len(runs), sum(info.bytes for info in runs)


def run_records(runs: List[RunInfo]) -> int:
    """Records held by one reduce partition's runs."""
    return sum(info.records for info in runs)


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
    reduce_fn, runs, (conf, scratch_dir), reduce_partition = payload
    start = time.perf_counter()
    paths, passes = _consolidate_runs(runs, conf, scratch_dir, reduce_partition)
    rows: List[Tuple[Tuple[int, int, int], Any, Any]] = []
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
    return result, 0, passes, time.perf_counter() - start


def _spill_apply_task(payload):
    """Merge both sides' runs and apply the co-group function per key.

    Inline ``co_group`` emits every key with left records in left
    first-occurrence order, then right-only keys in right order; the
    spill plane reproduces that by sorting each key's output block on
    ``(side present, first seq on that side)``.  A side's runs merge in
    ``(map task, cut)`` order, so its records reach ``fn`` in inline
    order too; records carry their side, so how the two sides' runs
    interleave is immaterial.
    """
    fn, runs, (conf, scratch_dir), reduce_partition = payload
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
    return result, 0, passes, time.perf_counter() - start
