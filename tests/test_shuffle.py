"""The spilling shuffle: frames, runs, byte budgets, and equivalence.

The disk-backed data plane must be a pure memory substitution: spill-plane
output byte-identical to the inline shuffle on both executor backends,
runs protected by CRC framing (corruption and truncation are loud, never
silent), the byte-pricing function honest against ``sys.getsizeof``, and
no spill files left behind — on success or across fault-injected retries.
"""

from __future__ import annotations

import os
import pickle
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cind import capture_code
from repro.core.discovery import RDFind, RDFindConfig
from repro.core.framing import (
    FrameCorruptionError,
    FrameError,
    FrameTruncatedError,
    atomic_write,
    iter_frames,
    pack_frame,
    read_frame,
    write_frame,
)
from repro.dataflow.engine import ExecutionEnvironment, record_bytes
from repro.dataflow.faults import TRANSIENT, FaultPlan
from repro.dataflow.shuffle import (
    MemoryBudget,
    RunInfo,
    SpillConfig,
    read_run,
    write_run,
)
from repro.rdf.model import Attr
from tests.conftest import ar_set, cind_set, random_rdf


# ----------------------------------------------------------------------
# binary frames (satellite: CRC corruption + truncation error paths)
# ----------------------------------------------------------------------


class TestAtomicWrite:
    def test_failed_body_keeps_old_content_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "doc.bin"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with atomic_write(str(path)) as stream:
                stream.write(b"half-written")
                raise RuntimeError("writer died")
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["doc.bin"]

    def test_clean_exit_replaces_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "doc.txt"
        path.write_text("old")
        with atomic_write(str(path), "w") as stream:
            stream.write("né")
        assert path.read_bytes() == "né".encode("utf-8")
        assert os.listdir(tmp_path) == ["doc.txt"]


class TestFrames:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "frames.bin"
        payloads = [b"", b"x", b"hello" * 100, bytes(range(256))]
        with open(path, "wb") as stream:
            written = sum(write_frame(stream, p) for p in payloads)
        assert written == os.path.getsize(path)
        with open(path, "rb") as stream:
            assert list(iter_frames(stream)) == payloads

    def test_read_frame_none_at_clean_eof(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with open(path, "rb") as stream:
            assert read_frame(stream) is None

    def test_corrupted_payload_fails_crc(self, tmp_path):
        frame = bytearray(pack_frame(b"payload-bytes"))
        frame[-1] ^= 0xFF  # flip a payload bit, header stays intact
        path = tmp_path / "corrupt.bin"
        path.write_bytes(bytes(frame))
        with open(path, "rb") as stream:
            with pytest.raises(FrameCorruptionError):
                read_frame(stream)

    def test_absurd_length_is_corruption_not_allocation(self, tmp_path):
        # A flipped high bit in the length field must not make the reader
        # try to allocate gigabytes before the CRC check.
        path = tmp_path / "absurd.bin"
        path.write_bytes(b"\xff\xff\xff\xff\x00\x00\x00\x00")
        with open(path, "rb") as stream:
            with pytest.raises(FrameCorruptionError):
                read_frame(stream)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short-header.bin"
        path.write_bytes(pack_frame(b"data")[:3])
        with open(path, "rb") as stream:
            with pytest.raises(FrameTruncatedError):
                read_frame(stream)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short-payload.bin"
        path.write_bytes(pack_frame(b"data-that-gets-cut")[:-5])
        with open(path, "rb") as stream:
            with pytest.raises(FrameTruncatedError):
                read_frame(stream)


# ----------------------------------------------------------------------
# byte-accurate record pricing (satellite: getsizeof calibration)
# ----------------------------------------------------------------------


def _deep_sizeof(record) -> int:
    """Reference deep size: getsizeof recursively over containers."""
    size = sys.getsizeof(record)
    if isinstance(record, (tuple, list, set, frozenset)):
        size += sum(_deep_sizeof(field) for field in record)
    elif isinstance(record, dict):
        size += sum(
            _deep_sizeof(k) + _deep_sizeof(v) for k, v in record.items()
        )
    return size


_UNARY_CODE = capture_code((Attr.P, (Attr.O, 123456)))
_BINARY_CODE = capture_code((Attr.S, (Attr.P, 98765, Attr.O, 2**31 - 1)))
assert _UNARY_CODE < 2**35 and _BINARY_CODE > 2**36


class TestRecordBytes:
    # The record shapes the encoded-storage pipeline actually shuffles:
    # EncodedTriple-style id tuples, (key, value) pairs, capture-ish
    # nested tuples, frozensets of small ints, and aggregation sets.
    SHAPES = [
        7,
        123456789,
        (1, 2, 3),
        ((4, 11), 982),
        ("ex:WHO", "rdf:type", "ex:Agency"),
        (1, (2, 3), frozenset({4, 5, 6})),
        frozenset(range(20)),
        {(i, i + 1) for i in range(15)},
        [(-i, i * 3) for i in range(25)],
        ((1, 2), ({3, 4, 5}, 6, True)),
        # Capture codes (unary below 2**35, binary above 2**36) as they are
        # shuffled: cg evidence sets, exact and int-filter candidate sets.
        (4711, {_UNARY_CODE, _BINARY_CODE, _BINARY_CODE + 16}),
        (_BINARY_CODE, (frozenset(_UNARY_CODE + 16 * i for i in range(40)), 3, False)),
        (_UNARY_CODE, (frozenset({_BINARY_CODE + i for i in range(9)}), 3, False)),
        (_BINARY_CODE, ((1 << 512) - 12345, 1, True)),
    ]

    @pytest.mark.parametrize("record", SHAPES, ids=[repr(s)[:40] for s in SHAPES])
    def test_honest_within_2x(self, record):
        estimate = record_bytes(record)
        true = _deep_sizeof(record)
        assert 0.5 <= estimate / true <= 2.0, (
            f"record_bytes({record!r}) = {estimate}, deep getsizeof = {true}"
        )

    def test_container_pricing_is_length_linear(self):
        # Re-pricing a growing aggregation set must be O(1)-per-call and
        # grow with the element count, not stay flat.
        small = record_bytes(frozenset(range(10)))
        large = record_bytes(frozenset(range(1000)))
        assert large > small * 10


class TestMemoryBudget:
    def test_charge_release_peak(self):
        budget = MemoryBudget(100)
        budget.charge(80)
        assert not budget.exceeded
        budget.charge(40)
        assert budget.exceeded
        assert budget.peak_bytes == 120
        budget.release(60)
        assert budget.used_bytes == 60
        assert budget.peak_bytes == 120
        budget.reset()
        assert budget.used_bytes == 0
        assert budget.peak_bytes == 120

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            MemoryBudget(0)

    def test_spill_config_validation(self):
        with pytest.raises(ValueError):
            SpillConfig(budget_bytes=0)
        with pytest.raises(ValueError):
            SpillConfig(budget_bytes=1, frame_records=0)
        with pytest.raises(ValueError):
            SpillConfig(budget_bytes=1, merge_fanin=1)
        with pytest.raises(TypeError):
            SpillConfig()  # no unbudgeted spill plane


# ----------------------------------------------------------------------
# run files (satellite: round-trips, empty runs, error paths)
# ----------------------------------------------------------------------


def _records(n, partition=0):
    return [((i * 131) % 997, (partition, i), i % 13, ("payload", i)) for i in range(n)]


class TestRunFiles:
    def test_round_trip(self, tmp_path):
        records = _records(1000)
        info = write_run(str(tmp_path / "a.run"), 3, records, frame_records=64)
        assert info == RunInfo(str(tmp_path / "a.run"), 3, 1000, info.bytes)
        assert info.bytes == os.path.getsize(info.path)
        assert list(read_run(info.path)) == records

    def test_empty_run_is_header_only(self, tmp_path):
        info = write_run(str(tmp_path / "empty.run"), 0, [])
        assert info.records == 0
        assert list(read_run(info.path)) == []

    def test_no_tmp_file_left_behind(self, tmp_path):
        write_run(str(tmp_path / "a.run"), 0, _records(10))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.run"]

    def test_rewrite_is_idempotent(self, tmp_path):
        # A retried task overwrites its own run cleanly (tmp + rename).
        path = str(tmp_path / "a.run")
        write_run(path, 0, _records(10))
        write_run(path, 0, _records(10))
        assert list(read_run(path)) == _records(10)

    def test_not_a_run_file(self, tmp_path):
        path = tmp_path / "json.run"
        with open(path, "wb") as stream:
            write_frame(stream, pickle.dumps({"magic": "something-else"}))
        with pytest.raises(FrameError):
            list(read_run(str(path)))

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "future.run"
        with open(path, "wb") as stream:
            write_frame(
                stream,
                pickle.dumps({"magic": "rdfind-spill", "version": 999}),
            )
        with pytest.raises(FrameError, match="version"):
            list(read_run(str(path)))

    def test_empty_file_is_truncated(self, tmp_path):
        path = tmp_path / "zero.run"
        path.write_bytes(b"")
        with pytest.raises(FrameTruncatedError):
            list(read_run(str(path)))

    def test_mid_frame_truncation_detected(self, tmp_path):
        info = write_run(str(tmp_path / "a.run"), 0, _records(500), frame_records=50)
        data = open(info.path, "rb").read()
        open(info.path, "wb").write(data[: len(data) - 37])
        with pytest.raises(FrameTruncatedError):
            list(read_run(info.path))

    def test_lost_trailing_frames_detected_by_count(self, tmp_path):
        # Cut the file at an exact frame boundary: every remaining frame
        # passes its CRC, so only the header record count catches it.
        info = write_run(str(tmp_path / "a.run"), 0, _records(500), frame_records=50)
        with open(info.path, "rb") as stream:
            frames = list(iter_frames(stream))
        with open(info.path, "wb") as stream:
            for payload in frames[:-2]:
                write_frame(stream, payload)
        with pytest.raises(FrameTruncatedError, match="declares"):
            list(read_run(info.path))

    def test_bit_rot_detected_by_crc(self, tmp_path):
        info = write_run(str(tmp_path / "a.run"), 0, _records(200), frame_records=50)
        data = bytearray(open(info.path, "rb").read())
        data[len(data) // 2] ^= 0x10
        open(info.path, "wb").write(bytes(data))
        with pytest.raises((FrameCorruptionError, FrameTruncatedError)):
            list(read_run(info.path))


# ----------------------------------------------------------------------
# engine equivalence: spill == inline, on both backends
# ----------------------------------------------------------------------


def _add(a, b):
    return a + b


def _mod7(x):
    return x % 7


def _identity(x):
    return x


def _expand_pairs(x):
    return [((x % 11, x % 3), 1), ((x % 5, 1), x)]


def _count_join(key, left, right):
    return [(key, len(left), len(right), sum(left) + sum(right))]


def _skewed_records(n=4000):
    # One dominant key (~half the records) plus a long tail — the bucket
    # shape that makes bounded-memory grouping interesting.
    return [(i * 17) % 101 if i % 2 else 0 for i in range(n)]


def _run_keyed_pipeline(budget_bytes=None, executor="serial", **env_kwargs):
    """The pipeline inline (no budget) or spilling at ``budget_bytes``."""
    data = _skewed_records()
    if budget_bytes is not None:
        env_kwargs["spill"] = SpillConfig(budget_bytes=budget_bytes)
    with ExecutionEnvironment(
        parallelism=4, executor=executor, **env_kwargs
    ) as env:
        ds = env.from_collection(data, name="src")
        reduced = ds.reduce_by_key(_mod7, _identity, _add).partitions
        # 101 distinct keys: under a small byte budget the combiner
        # overflows and cuts several runs per key, which the merge must
        # fold back together.
        wide = ds.reduce_by_key(_identity, _identity, _add).partitions
        fused = ds.flat_map_reduce_by_key(_expand_pairs, _add).partitions
        other = env.from_collection(data[::3], name="src2")
        joined = ds.co_group(other, _mod7, _mod7, _count_join).partitions
        summary = env.metrics.summary()
    return (reduced, wide, fused, joined), summary


class TestSpillEquivalence:
    def test_spill_matches_inline_serial(self):
        inline, inline_summary = _run_keyed_pipeline()
        spill, summary = _run_keyed_pipeline(4096)
        assert spill == inline
        assert inline_summary["spilled_runs"] == 0
        assert summary["spilled_runs"] > 0
        assert summary["spilled_bytes"] > 0

    def test_spill_matches_inline_process(self):
        inline, _ = _run_keyed_pipeline()
        spill, _ = _run_keyed_pipeline(4096, executor="process", workers=2)
        assert spill == inline

    def test_cross_backend_merged_order_deterministic(self):
        # Same spill config on both backends: identical partitions AND
        # identical group order within every partition (list equality).
        serial, serial_summary = _run_keyed_pipeline(2048)
        process, process_summary = _run_keyed_pipeline(
            2048, executor="process", workers=2
        )
        assert serial == process
        assert serial_summary["spilled_runs"] == process_summary["spilled_runs"]
        assert serial_summary["spilled_bytes"] == process_summary["spilled_bytes"]

    def test_multi_pass_merge_matches(self):
        inline, _ = _run_keyed_pipeline()
        spill, summary = _run_keyed_pipeline(
            spill=SpillConfig(budget_bytes=512, merge_fanin=2, frame_records=16)
        )
        assert spill == inline
        assert summary["merge_passes"] > 0


class TestBoundedMemory:
    def test_oversized_bucket_completes_within_budget(self):
        # Acceptance: a reduce_by_key whose combiner state is >= 10x the
        # byte budget completes by spilling — several runs per key on
        # disk, peak in-memory state bounded, no SimulatedOutOfMemory
        # even though the record-count budget would have fired inline.
        data = [i % 5000 for i in range(20000)]  # every key four times
        budget_bytes = 8192
        with ExecutionEnvironment(
            parallelism=2,
            spill=SpillConfig(budget_bytes=budget_bytes),
            memory_budget=100,  # record-count simulation: ignored by spill
        ) as env:
            pairs = env.from_collection(data).reduce_by_key(
                _identity, _identity, _add
            )
            # collect() would trip the driver-side record budget; read
            # the partitions directly.
            totals = dict(pair for part in pairs.partitions for pair in part)
            summary = env.metrics.summary()
        assert totals == {key: 4 * key for key in range(5000)}
        assert summary["spilled_bytes"] >= 10 * budget_bytes
        # far more runs than one final flush per (task, partition)
        assert summary["spilled_runs"] > 10 * 2 * 2
        # One record of slack: the budget check runs after the charge.
        assert summary["peak_state_bytes"] <= 2 * budget_bytes

    def test_inline_same_bucket_would_oom_but_spill_completes(self):
        # The counterpart on the operator that cannot combine: co-grouping
        # one oversized key inline under a record-count budget raises;
        # the spill path just spills.
        from repro.dataflow.faults import SimulatedOutOfMemory

        data = [0] * 20000
        with ExecutionEnvironment(parallelism=2, memory_budget=100) as env:
            ds = env.from_collection(data)
            with pytest.raises(SimulatedOutOfMemory):
                ds.co_group(ds, _identity, _identity, _count_join)
        with ExecutionEnvironment(
            parallelism=2,
            memory_budget=100,
            spill=SpillConfig(budget_bytes=8192),
        ) as env:
            ds = env.from_collection(data)
            joined = ds.co_group(ds, _identity, _identity, _count_join)
            [row] = joined.collect(name="joined")
            summary = env.metrics.summary()
        assert row == (0, 20000, 20000, 0)
        assert summary["spilled_bytes"] >= 10 * 8192

    def test_co_group_buffers_stay_within_budget(self):
        # co_group cannot combine, so its map side buffers: the buffer is
        # priced per record and cut like a combine table is.
        data = list(range(3000))
        budget_bytes = 8192
        with ExecutionEnvironment(
            parallelism=2, spill=SpillConfig(budget_bytes=budget_bytes)
        ) as env:
            ds = env.from_collection(data)
            joined = ds.co_group(ds, _mod7, _mod7, _count_join)
            rows = sorted(row for part in joined.partitions for row in part)
            stage = env.metrics.stage_by_name("co_group")
        assert [row[:3] for row in rows] == [
            (key, len(data[key::7]), len(data[key::7])) for key in range(7)
        ]
        assert stage.spilled_bytes >= 10 * budget_bytes
        assert 0 < stage.peak_state_bytes <= 2 * budget_bytes


# ----------------------------------------------------------------------
# the drawn differential: spill == inline wherever hypothesis looks
# ----------------------------------------------------------------------
#
# TestSpillEquivalence hand-picks one pipeline and four configurations;
# this draws them.  Values are tuples folded by concatenation, so a fold
# in the wrong order — not just a wrong set of keys — changes the output.


def _concat(a, b):
    return a + b


def _record_key(record):
    return record[0]


def _record_tag(record):
    return (record[1],)


def _two_pairs(record):
    key, index = record
    return [(key, (index,)), ((key, index % 3), (index, index))]


def _sides(key, left, right):
    return [(key, tuple(left), tuple(right))]


_KEY_POOLS = st.lists(
    st.one_of(
        st.integers(-50, 50),
        st.text(alphabet="abé:/", max_size=4),
        st.tuples(st.integers(0, 6), st.text(alphabet="xy", max_size=2)),
    ),
    min_size=1,
    max_size=12,
    unique=True,
)


@st.composite
def _keyed_records(draw, pool, max_size):
    """``(key, position)`` records over ``pool``, uniform or one-key-heavy."""
    last = len(pool) - 1
    index = st.integers(0, last)
    if draw(st.booleans()):
        index = st.one_of(st.just(draw(st.integers(0, last))), index)
    picks = draw(st.lists(index, max_size=max_size))
    return [(pool[pick], position) for position, pick in enumerate(picks)]


def _run_drawn(operator, left, right, parallelism, **env_kwargs):
    with ExecutionEnvironment(parallelism=parallelism, **env_kwargs) as env:
        ds = env.from_collection(left, name="left")
        if operator == "reduce_by_key":
            out = ds.reduce_by_key(_record_key, _record_tag, _concat, name="op")
        elif operator == "flat_map_reduce_by_key":
            out = ds.flat_map_reduce_by_key(_two_pairs, _concat, name="op")
        else:
            other = env.from_collection(right, name="right")
            out = ds.co_group(other, _record_key, _record_key, _sides, name="op")
        stages = [
            stage for stage in env.metrics.stages if stage.name.startswith("op")
        ]
    return out.partitions, stages


#: A byte budget no drawn input reaches: the spill plane cuts one run per
#: task and reduce partition, at the end.
_LARGE_BUDGET = 1 << 30


class TestDrawnSpillEquivalence:
    @given(
        data=st.data(),
        pool=_KEY_POOLS,
        parallelism=st.integers(1, 5),
        operator=st.sampled_from(
            ["reduce_by_key", "flat_map_reduce_by_key", "co_group"]
        ),
        # None: the inline plane again; small: many cuts; large: one.
        memory_budget_bytes=st.one_of(
            st.none(), st.integers(256, 8192), st.just(_LARGE_BUDGET)
        ),
        merge_fanin=st.integers(2, 8),
        frame_records=st.integers(1, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_spill_partitions_equal_inline_partitions(
        self, data, pool, parallelism, operator, memory_budget_bytes,
        merge_fanin, frame_records,
    ):
        left = data.draw(_keyed_records(pool, 80))
        right = data.draw(_keyed_records(pool[::-1] + [("right-only", 1)], 40))
        inline, inline_stages = _run_drawn(operator, left, right, parallelism)
        spill, spill_stages = _run_drawn(
            operator,
            left,
            right,
            parallelism,
            spill=None
            if memory_budget_bytes is None
            else SpillConfig(
                budget_bytes=memory_budget_bytes,
                merge_fanin=merge_fanin,
                frame_records=frame_records,
            ),
        )
        assert spill == inline  # lists: order within a partition included
        assert [stage.name for stage in spill_stages] == [
            stage.name for stage in inline_stages
        ]
        for spill_stage, inline_stage in zip(spill_stages, inline_stages):
            for shape in ("records_in", "records_out", "partition_seconds"):
                assert (
                    len(getattr(spill_stage, shape))
                    == len(getattr(inline_stage, shape))
                    == parallelism
                )
            if memory_budget_bytes in (None, _LARGE_BUDGET):
                # One cut per task holds exactly the inline combine table.
                assert spill_stage.records_in == inline_stage.records_in
                assert spill_stage.records_out == inline_stage.records_out
                assert spill_stage.shuffled_records == inline_stage.shuffled_records
        # The map stage reads the same input on either plane, budget or not.
        assert spill_stages[0].records_in == inline_stages[0].records_in


# ----------------------------------------------------------------------
# spill-dir hygiene (satellite: no leaked runs, even across retries)
# ----------------------------------------------------------------------


class TestSpillHygiene:
    def test_workspace_removed_on_close(self, tmp_path):
        spill_dir = str(tmp_path / "spills")
        env = ExecutionEnvironment(
            parallelism=2, spill=SpillConfig(budget_bytes=4096), spill_dir=spill_dir
        )
        env.from_collection(range(100)).reduce_by_key(
            _mod7, _identity, _add
        )
        workspaces = os.listdir(spill_dir)
        assert len(workspaces) == 1  # mkdtemp workspace exists while open
        assert workspaces[0].startswith("rdfind-spill-")
        env.close()
        assert os.listdir(spill_dir) == []

    def test_stage_dirs_removed_between_operators(self, tmp_path):
        spill_dir = str(tmp_path / "spills")
        with ExecutionEnvironment(
            parallelism=2, spill=SpillConfig(budget_bytes=4096), spill_dir=spill_dir
        ) as env:
            ds = env.from_collection(range(500))
            ds.reduce_by_key(_mod7, _identity, _add)
            ds.co_group(ds, _mod7, _mod7, _count_join)
            (workspace,) = os.listdir(spill_dir)
            # Runs are per-stage scratch: nothing survives the operator.
            assert os.listdir(os.path.join(spill_dir, workspace)) == []

    def test_inline_mode_never_touches_disk(self, tmp_path):
        spill_dir = str(tmp_path / "spills")
        with ExecutionEnvironment(parallelism=2, spill_dir=spill_dir) as env:
            env.from_collection(range(100)).reduce_by_key(
                _mod7, _identity, _add
            )
        assert not os.path.exists(spill_dir)

    def test_no_leaks_across_fault_injected_retries(self, tmp_path):
        # Transient faults + worker crashes force task re-execution; the
        # rewritten runs must replace (not duplicate) the originals and
        # the workspace must still come out clean.
        spill_dir = str(tmp_path / "spills")
        plan = FaultPlan(
            seed=11,
            transient_rate=0.2,
            crash_rate=0.0,
            forced=(("reduce_by_key", 0, TRANSIENT), ("co_group/apply", 1, TRANSIENT)),
        )
        clean, _ = _run_keyed_pipeline(2048)
        faulty, summary = _run_keyed_pipeline(
            2048,
            fault_plan=plan,
            spill_dir=spill_dir,
        )
        assert faulty == clean
        assert summary["faults_injected"] > 0
        assert summary["retries"] > 0
        assert os.listdir(spill_dir) == []


# ----------------------------------------------------------------------
# discovery equivalence + config plumbing
# ----------------------------------------------------------------------


def _discover(dataset, **overrides):
    overrides.setdefault("support_threshold", 2)
    overrides.setdefault("parallelism", 4)
    return RDFind(RDFindConfig(**overrides)).discover(dataset)


class TestDiscoveryEquivalence:
    @pytest.fixture(scope="class")
    def dataset(self):
        return random_rdf(13, n_triples=250, n_subjects=14, n_objects=14)

    @pytest.fixture(scope="class")
    def inline_result(self, dataset):
        return _discover(dataset)

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_spill_discovery_identical(self, dataset, inline_result, executor):
        spill = _discover(
            dataset,
            memory_budget_bytes=4096,
            executor=executor,
            workers=2 if executor == "process" else None,
        )
        assert spill.cinds == inline_result.cinds
        assert spill.association_rules == inline_result.association_rules
        assert cind_set(spill) == cind_set(inline_result)
        assert ar_set(spill) == ar_set(inline_result)
        assert spill.metrics.total_spilled_runs > 0

    def test_spill_across_support_thresholds(self, dataset):
        # The Figure 8/12 axis: output equivalence must hold at every h.
        for h in (2, 4, 8):
            inline = _discover(dataset, support_threshold=h)
            spill = _discover(
                dataset, support_threshold=h, memory_budget_bytes=2048
            )
            assert spill.cinds == inline.cinds
            assert spill.association_rules == inline.association_rules

    def test_spill_variants(self, dataset):
        # DE skips the pruning phases — different operator mix, same rule.
        inline = RDFind(
            RDFindConfig.direct_extraction(support_threshold=2, parallelism=4)
        ).discover(dataset)
        spill = RDFind(
            RDFindConfig.direct_extraction(
                support_threshold=2,
                parallelism=4,
                memory_budget_bytes=2048,
            )
        ).discover(dataset)
        assert spill.cinds == inline.cinds


class TestConfigPlumbing:
    def test_the_byte_budget_is_the_only_plane_knob(self):
        with pytest.raises(TypeError, match="shuffle"):
            RDFindConfig(shuffle="spill")

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError, match="memory_budget_bytes"):
            RDFindConfig(memory_budget_bytes=0)

    def test_environment_is_not_read(self, monkeypatch, tmp_path):
        """The twelve variables that once supplied the runtime defaults
        change nothing: a run's settings arrive as keywords only."""
        for name, value in {
            "RDFIND_EXECUTOR": "process",
            "RDFIND_WORKERS": "3",
            "RDFIND_FAULTS": "99",
            "RDFIND_MAX_RETRIES": "5",
            "RDFIND_SHUFFLE": "spill",
            "RDFIND_MEMORY_BUDGET_BYTES": "65536",
            "RDFIND_SPILL_DIR": str(tmp_path / "spill"),
            "RDFIND_CHECKPOINT": "stage",
            "RDFIND_CHECKPOINT_DIR": str(tmp_path / "ckpt"),
            "RDFIND_RESUME": "1",
            "RDFIND_CRASH_POINT": "after:fc",
            "RDFIND_TASK_TIMEOUT_SECONDS": "7",
        }.items():
            monkeypatch.setenv(name, value)
        assert RDFindConfig() == RDFindConfig(
            executor="serial",
            workers=None,
            fault_seed=None,
            max_retries=None,
            memory_budget_bytes=None,
            spill_dir=None,
            checkpoint_dir=None,
            resume=False,
            crash_points=(),
            task_timeout_seconds=None,
        )
        assert RDFindConfig().effective_fault_plan() is None
