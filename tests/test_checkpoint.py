"""Checkpoint/restore: crash-resumable discovery with durable boundaries.

The acceptance criterion is the tentpole's: a job killed at an injected
driver crash point and relaunched with ``--resume`` must produce output
byte-identical to an uninterrupted run, skipping the completed work — and
every corruption path must end in a typed error or a clean recompute,
never a silently wrong answer.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from unittest import mock

import pytest

from repro.core.cind import code_capture
from repro.core.discovery import RDFind, RDFindConfig, checkpoint_fingerprint
from repro.core.framing import fingerprint_fields, write_frame
from repro.core.serialization import dump_result
from repro.dataflow import checkpoint
from repro.dataflow.checkpoint import (
    CheckpointCorruptError,
    CheckpointManager,
    CheckpointMismatchError,
    JobManifest,
    StepRecord,
    dataset_digest,
)
from repro.dataflow.engine import ExecutionEnvironment
from repro.dataflow.faults import DRIVER_CRASH_EXIT_CODE, FaultPlan
from repro.rdf.model import Dataset
from tests.conftest import ar_set, cind_set, random_rdf, reaped_pid
from tests.result_oracle import result_to_dict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------


class TestFingerprints:
    def test_fields_are_order_independent(self):
        assert fingerprint_fields(a=1, b="x") == fingerprint_fields(b="x", a=1)

    def test_fields_are_sensitive(self):
        base = fingerprint_fields(a=1, b="x")
        assert fingerprint_fields(a=2, b="x") != base
        assert fingerprint_fields(a=1, b="y") != base

    def test_literal_hexes_are_pinned(self, tmp_path):
        """Job dirs, checkpoints and snapshot caches on disk are named by
        these hexes: a changed scheme would orphan every one of them."""
        from repro.datasets import table1
        from repro.server.store import JobRequest
        from repro.storage.snapshot import (
            load_with_snapshot_cache,
            snapshot_cache_fields,
        )

        assert fingerprint_fields(a=1, b="x") == "d9ca78bb7d79374c0ef72368e178b3c9"
        encoded = table1(encoded=True)
        assert (
            checkpoint_fingerprint(RDFindConfig(support_threshold=2), encoded)
            == "f183b7bf5aa87cfca26b1480ccb6bf8e"
        )
        assert (
            JobRequest(dataset="Diseasome", support_threshold=10).fingerprint()
            == "fe02e847664076b3cde5e7e352ce920e"
        )
        fields = snapshot_cache_fields("dataset:Diseasome", 1.0)
        assert fingerprint_fields(**fields) == "086b566f4c4e79e0f212883e134ec39b"
        load_with_snapshot_cache(str(tmp_path), fields, lambda: encoded)
        assert os.listdir(tmp_path) == ["086b566f4c4e79e0f212883e134ec39b.snap"]

    def test_dataset_digest_stable_for_equal_content(self):
        first = random_rdf(3).encode()
        second = random_rdf(3).encode()
        assert dataset_digest(first) == dataset_digest(second)

    def test_dataset_digest_covers_content_and_order(self):
        rows = [("s1", "p1", "o1"), ("s2", "p2", "o2")]
        forward = Dataset.from_tuples(rows).encode()
        reversed_ = Dataset.from_tuples(rows[::-1]).encode()
        other = Dataset.from_tuples(rows + [("s3", "p1", "o1")]).encode()
        assert dataset_digest(forward) != dataset_digest(reversed_)
        assert dataset_digest(forward) != dataset_digest(other)

    def test_job_fingerprint_ignores_crash_points(self, tmp_path):
        """The resume launch legitimately drops --crash-point."""
        encoded = random_rdf(5).encode()
        common = dict(support_threshold=3, checkpoint_dir=str(tmp_path))
        with_crash = RDFindConfig(crash_points=("after:fc",), **common)
        without = RDFindConfig(**common)
        assert checkpoint_fingerprint(with_crash, encoded) == checkpoint_fingerprint(
            without, encoded
        )

    def test_job_fingerprint_covers_config(self, tmp_path):
        encoded = random_rdf(5).encode()
        base = RDFindConfig(support_threshold=3)
        changed_h = RDFindConfig(support_threshold=4)
        changed_par = RDFindConfig(support_threshold=3, parallelism=7)
        assert checkpoint_fingerprint(base, encoded) != checkpoint_fingerprint(
            changed_h, encoded
        )
        assert checkpoint_fingerprint(base, encoded) != checkpoint_fingerprint(
            changed_par, encoded
        )


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        manifest = JobManifest(
            fingerprint="abc",
            steps={"fc": StepRecord(kind="value", digest="d", bytes=10, seconds=0.5)},
            crash_attempts={"after:fc": 1},
        )
        manifest.save(path)
        loaded = JobManifest.load(path)
        assert loaded == manifest
        assert os.listdir(tmp_path) == ["manifest.json"]

    def test_written_bytes_are_pinned(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        JobManifest(
            fingerprint="abc",
            steps={"fc": StepRecord(kind="value", digest="d", bytes=10, seconds=0.5)},
            crash_attempts={"after:fc": 1},
        ).save(path)
        with open(path, encoding="utf-8") as stream:
            assert stream.read() == (
                '{\n "crash_attempts": {\n  "after:fc": 1\n },\n'
                ' "fingerprint": "abc",\n "format": "rdfind-job-manifest",\n'
                ' "steps": {\n  "fc": {\n   "bytes": 10,\n   "digest": "d",\n'
                '   "kind": "value",\n   "seconds": 0.5\n  }\n },\n "version": 1\n}'
            )

    def test_load_rejects_non_json(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        with open(path, "w") as stream:
            stream.write("{truncated")
        with pytest.raises(CheckpointCorruptError):
            JobManifest.load(path)

    def test_from_json_rejects_wrong_format(self):
        with pytest.raises(CheckpointCorruptError):
            JobManifest.from_json({"format": "something-else", "version": 1})

    def test_from_json_rejects_future_version(self):
        data = JobManifest(fingerprint="f").to_json()
        data["version"] = 99
        with pytest.raises(CheckpointCorruptError):
            JobManifest.from_json(data)

    def test_from_json_rejects_malformed_steps(self):
        data = JobManifest(fingerprint="f").to_json()
        data["steps"] = {"fc": "not-a-record"}
        with pytest.raises(CheckpointCorruptError):
            JobManifest.from_json(data)


# ----------------------------------------------------------------------
# manager step semantics
# ----------------------------------------------------------------------


def _manager(tmp_path, fingerprint="job", **kwargs):
    manager = CheckpointManager(str(tmp_path), fingerprint, **kwargs)
    manager.open()
    return manager


def _fail_compute():
    raise AssertionError("compute ran although a checkpoint exists")


class TestManagerSteps:
    def test_step_computes_then_persists(self, tmp_path):
        manager = _manager(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return {"answer": 42}

        assert manager.step("fc", compute) == {"answer": 42}
        assert calls == [1]
        assert manager.completed("fc")
        assert os.path.exists(tmp_path / "fc.ckpt")
        manager.close()

    def test_resume_loads_without_recompute(self, tmp_path):
        first = _manager(tmp_path)
        first.step("fc", lambda: [1, 2, 3])
        first.close()
        second = _manager(tmp_path, resume=True)
        assert second.step("fc", _fail_compute) == [1, 2, 3]
        second.close()

    def test_step_dataset_round_trips_partition_layout(self, tmp_path):
        env = ExecutionEnvironment(parallelism=3)
        original = [[1, 2], [], [3, 4, 5]]
        first = _manager(tmp_path)
        first.step_dataset("cg", env, lambda: env.from_partitions(original))
        first.close()
        second = _manager(tmp_path, resume=True)
        restored = second.step_dataset("cg", env, _fail_compute)
        assert restored.partitions == original
        second.close()

    def test_non_resume_run_wipes_stale_steps(self, tmp_path):
        first = _manager(tmp_path)
        first.step("fc", lambda: 1)
        first.close()
        calls = []
        fresh = _manager(tmp_path, resume=False)
        assert fresh.step("fc", lambda: calls.append(1) or 2) == 2
        assert calls == [1]
        fresh.close()

    def test_resume_without_checkpoint_is_clean_run(self, tmp_path):
        manager = _manager(tmp_path, resume=True)
        assert manager.manifest is not None
        assert manager.manifest.steps == {}
        assert manager.step("fc", lambda: 5) == 5
        manager.close()

    def test_resume_twice_still_loads(self, tmp_path):
        _m = _manager(tmp_path)
        _m.step("fc", lambda: "v")
        _m.close()
        for _ in range(2):
            again = _manager(tmp_path, resume=True)
            assert again.step("fc", _fail_compute) == "v"
            again.close()

    def test_fingerprint_mismatch_raises_typed_error(self, tmp_path):
        first = _manager(tmp_path, fingerprint="job-a")
        first.step("fc", lambda: 1)
        first.close()
        with pytest.raises(CheckpointMismatchError):
            _manager(tmp_path, fingerprint="job-b", resume=True)

    def test_corrupt_manifest_on_resume_starts_fresh(self, tmp_path, capsys):
        first = _manager(tmp_path)
        first.step("fc", lambda: 1)
        first.close()
        with open(tmp_path / "manifest.json", "w") as stream:
            stream.write("not json at all")
        manager = _manager(tmp_path, resume=True)
        assert manager.manifest.steps == {}
        assert "corrupt manifest" in capsys.readouterr().err
        manager.close()

    def test_corrupted_frame_degrades_to_recompute(self, tmp_path, capsys):
        first = _manager(tmp_path)
        first.step("fc", lambda: list(range(100)))
        first.close()
        path = tmp_path / "fc.ckpt"
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # flip a payload byte: CRC must catch it
        path.write_bytes(bytes(blob))
        second = _manager(tmp_path, resume=True)
        assert second.step("fc", lambda: "recomputed") == "recomputed"
        assert "recomputing step" in capsys.readouterr().err
        # the bad checkpoint was replaced by the recomputed one
        third = _manager(tmp_path, resume=True)
        assert third.step("fc", _fail_compute) == "recomputed"
        third.close()
        second.close()

    def test_truncated_file_degrades_to_recompute(self, tmp_path, capsys):
        first = _manager(tmp_path)
        first.step("fc", lambda: list(range(100)))
        first.close()
        path = tmp_path / "fc.ckpt"
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        second = _manager(tmp_path, resume=True)
        assert second.step("fc", lambda: "recomputed") == "recomputed"
        assert "recomputing step" in capsys.readouterr().err
        second.close()

    def test_swapped_step_file_degrades_to_recompute(self, tmp_path, capsys):
        """A frame-valid file for the wrong step must not load."""
        first = _manager(tmp_path)
        first.step("fc", lambda: "fc-value")
        first.step("ex", lambda: "ex-value")
        first.close()
        os.replace(tmp_path / "fc.ckpt", tmp_path / "ex.ckpt")
        second = _manager(tmp_path, resume=True)
        assert second.step("ex", lambda: "recomputed") == "recomputed"
        assert "recomputing step" in capsys.readouterr().err
        second.close()

    def test_missing_file_with_manifest_entry_recomputes(self, tmp_path):
        first = _manager(tmp_path)
        first.step("fc", lambda: 1)
        first.close()
        os.unlink(tmp_path / "fc.ckpt")
        second = _manager(tmp_path, resume=True)
        assert not second.completed("fc")
        assert second.step("fc", lambda: 2) == 2
        second.close()

    def test_metrics_account_saves_and_resumes(self, tmp_path):
        env = ExecutionEnvironment(parallelism=2)
        first = _manager(tmp_path, metrics=env.metrics)
        first.step("fc", lambda: "v")
        assert env.metrics.checkpoint_bytes > 0
        assert env.metrics.resumed_stages == 0
        first.close()
        env2 = ExecutionEnvironment(parallelism=2)
        second = _manager(tmp_path, resume=True, metrics=env2.metrics)
        second.step("fc", _fail_compute)
        assert env2.metrics.resumed_stages == 1
        stage_names = [stage.name for stage in env2.metrics.stages]
        assert "checkpoint/resume:fc" in stage_names
        second.close()


# ----------------------------------------------------------------------
# driver crash points (the plan side; firing is tested via the CLI below)
# ----------------------------------------------------------------------


class TestDriverCrashPlan:
    def test_forced_point_matches_moment_and_substring(self):
        plan = FaultPlan(seed=0, driver_crashes=(("after", "fc"),))
        assert plan.decide_driver_crash("fc", "after", attempt=0)
        assert not plan.decide_driver_crash("fc", "before", attempt=0)
        assert not plan.decide_driver_crash("cg", "after", attempt=0)

    def test_fire_attempts_bounds_refiring(self):
        plan = FaultPlan(seed=0, driver_crashes=(("after", "fc"),), fire_attempts=1)
        assert plan.decide_driver_crash("fc", "after", attempt=0)
        assert not plan.decide_driver_crash("fc", "after", attempt=1)

    def test_rate_draws_are_deterministic(self):
        plan = FaultPlan(seed=11, driver_crash_rate=0.5)
        draws = [plan.decide_driver_crash(f"s{i}", "before", 0) for i in range(50)]
        again = [plan.decide_driver_crash(f"s{i}", "before", 0) for i in range(50)]
        assert draws == again
        assert any(draws) and not all(draws)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(seed=0, driver_crash_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(seed=0, driver_crashes=(("sometime", "fc"),))


# ----------------------------------------------------------------------
# in-process discovery resume
# ----------------------------------------------------------------------


class TestDiscoveryResume:
    def _config(self, tmp_path, **overrides):
        settings = dict(
            support_threshold=2, parallelism=2, checkpoint_dir=str(tmp_path)
        )
        settings.update(overrides)
        return RDFindConfig(**settings)

    def test_resume_skips_completed_phases(self, tmp_path):
        dataset = random_rdf(9, n_triples=60)
        clean = RDFind(RDFindConfig(support_threshold=2, parallelism=2)).discover(
            dataset
        )
        first = RDFind(self._config(tmp_path)).discover(dataset)
        resumed = RDFind(self._config(tmp_path, resume=True)).discover(dataset)
        assert cind_set(resumed) == cind_set(clean) == cind_set(first)
        assert ar_set(resumed) == ar_set(clean)
        # serialized result is identical to the never-checkpointed run
        assert result_to_dict(resumed) == result_to_dict(clean)
        assert first.metrics.resumed_stages == 0
        # fc and ex restored; cg is nested inside ex and never touched
        assert resumed.metrics.resumed_stages == 2
        stage_names = [stage.name for stage in resumed.metrics.stages]
        assert "checkpoint/resume:fc" in stage_names
        assert "checkpoint/resume:ex" in stage_names
        assert not any(name.startswith("cg/") for name in stage_names)

    def test_manifest_written_with_a_granularity_mode_resumes(self, tmp_path):
        """Manifests from when checkpoints had a granularity carry
        ``"mode": "phase"``; such a job dir resumes like any other."""
        dataset = random_rdf(10, n_triples=60)
        clean = RDFind(RDFindConfig(support_threshold=2, parallelism=2)).discover(
            dataset
        )
        RDFind(self._config(tmp_path)).discover(dataset)
        path = tmp_path / "manifest.json"
        document = json.loads(path.read_text())
        assert "mode" not in document
        path.write_text(json.dumps(dict(document, mode="phase")))
        resumed = RDFind(self._config(tmp_path, resume=True)).discover(dataset)
        assert resumed.metrics.resumed_stages == 2
        assert result_to_dict(resumed) == result_to_dict(clean)

    def test_partial_checkpoint_recomputes_the_rest(self, tmp_path):
        """Simulates a crash between the fc and ex boundaries."""
        dataset = random_rdf(11, n_triples=60)
        clean = RDFind(RDFindConfig(support_threshold=2, parallelism=2)).discover(
            dataset
        )
        RDFind(self._config(tmp_path)).discover(dataset)
        manager = CheckpointManager(str(tmp_path), fingerprint="ignored")
        # drop the later phases directly (no open(): that would wipe fc too)
        manager.manifest = JobManifest.load(tmp_path / "manifest.json")
        manager.discard("ex")
        manager.discard("cg")
        resumed = RDFind(self._config(tmp_path, resume=True)).discover(dataset)
        assert result_to_dict(resumed) == result_to_dict(clean)
        assert resumed.metrics.resumed_stages == 1  # fc only

    def test_pre_upgrade_step_files_are_recomputed_not_resumed(
        self, tmp_path, capsys
    ):
        """Version-1 ``cg.ckpt`` held ``Capture``-valued groups; the
        fingerprint did not change with the payload type, the version did."""
        dataset = random_rdf(13, n_triples=60)
        clean = RDFind(RDFindConfig(support_threshold=2, parallelism=2)).discover(
            dataset
        )
        RDFind(self._config(tmp_path)).discover(dataset)
        rewrite_as_version_1(tmp_path)
        capsys.readouterr()
        resumed = RDFind(self._config(tmp_path, resume=True)).discover(dataset)
        warnings = capsys.readouterr().err
        assert "recomputing step 'cg': unsupported checkpoint version 1" in warnings
        assert result_to_dict(resumed) == result_to_dict(clean)
        assert resumed.metrics.resumed_stages == 0
        stage_names = [stage.name for stage in resumed.metrics.stages]
        assert "checkpoint/resume:cg" not in stage_names
        assert "cg/group-by-value" in stage_names
        # ... and the recomputed steps were persisted in the current format
        again = RDFind(self._config(tmp_path, resume=True)).discover(dataset)
        assert again.metrics.resumed_stages == 2
        assert result_to_dict(again) == result_to_dict(clean)

    def test_version_3_ex_step_is_recomputed_not_resumed(self, tmp_path, capsys):
        """Version-3 ``ex.ckpt`` held ``Capture``-keyed broad CINDs; the
        current one holds capture codes."""
        dataset = random_rdf(14, n_triples=60)
        clean = RDFind(RDFindConfig(support_threshold=2, parallelism=2)).discover(
            dataset
        )
        RDFind(self._config(tmp_path)).discover(dataset)
        rewrite_ex_as_version_3(tmp_path)
        capsys.readouterr()
        resumed = RDFind(self._config(tmp_path, resume=True)).discover(dataset)
        assert (
            "recomputing step 'ex': unsupported checkpoint version 3"
            in capsys.readouterr().err
        )
        assert resumed.metrics.resumed_stages == 2  # fc and cg, not ex
        dump_result(clean, tmp_path / "clean.json")
        dump_result(resumed, tmp_path / "resumed.json")
        assert (tmp_path / "resumed.json").read_bytes() == (
            tmp_path / "clean.json"
        ).read_bytes()

    def test_config_mismatch_on_resume_raises(self, tmp_path):
        dataset = random_rdf(12, n_triples=40)
        RDFind(self._config(tmp_path)).discover(dataset)
        with pytest.raises(CheckpointMismatchError):
            RDFind(self._config(tmp_path, resume=True, support_threshold=3)).discover(
                dataset
            )

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            RDFindConfig(resume=True)  # resume requires a checkpoint dir
        with pytest.raises(ValueError):
            RDFindConfig(crash_points=("after:fc",))  # crash points too
        with pytest.raises(ValueError):
            RDFindConfig(
                checkpoint_dir=str(tmp_path), crash_points=("sometime:fc",)
            )


def rewrite_as_version_1(directory):
    """Turn a finished phase-checkpoint dir into what the release before
    capture codes left behind when it died between ``cg`` and ``ex``:
    version-1 headers on ``fc`` and ``cg``, the capture groups as sets of
    ``Capture`` tuples, digests and manifest consistent, no ``ex``."""
    manifest = JobManifest.load(os.path.join(str(directory), "manifest.json"))
    manager = CheckpointManager(str(directory), fingerprint=manifest.fingerprint)
    manager.manifest = manifest
    manager.discard("ex")
    fc = manager._read_step_file("fc", checkpoint.VALUE)
    cg = []
    for raw in manager._read_step_file("cg", checkpoint.DATASET):
        count, index, groups = pickle.loads(raw)
        groups = [frozenset(map(code_capture, group)) for group in groups]
        cg.append(pickle.dumps((count, index, groups), protocol=4))
    with mock.patch.object(checkpoint, "CHECKPOINT_VERSION", 1):
        manager._persist("fc", checkpoint.VALUE, fc)
        manager._persist("cg", checkpoint.DATASET, cg)


def rewrite_ex_as_version_3(directory):
    """Turn a finished phase-checkpoint dir's ``ex`` step into what the
    release before code-valued broad CINDs wrote: a version-3 header over
    ``(broad, stats)`` with ``Capture`` keys and reference sets."""
    manifest = JobManifest.load(os.path.join(str(directory), "manifest.json"))
    manager = CheckpointManager(str(directory), fingerprint=manifest.fingerprint)
    manager.manifest = manifest
    (raw,) = manager._read_step_file("ex", checkpoint.VALUE)
    broad, stats = pickle.loads(raw)
    decoded = {
        code_capture(dependent): (frozenset(map(code_capture, refs)), support)
        for dependent, (refs, support) in broad.items()
    }
    with mock.patch.object(checkpoint, "CHECKPOINT_VERSION", 3):
        manager._persist(
            "ex", checkpoint.VALUE, [pickle.dumps((decoded, stats), protocol=4)]
        )


# ----------------------------------------------------------------------
# CLI crash + resume (the acceptance scenario, end to end)
# ----------------------------------------------------------------------


def _cli(args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
        env=env,
        timeout=300,
    )


DISCOVER = ("discover", "dataset:Countries", "-s", "25", "--limit", "0")


class TestCLICrashResume:
    @pytest.mark.parametrize(
        "crash_point", ["before:fc", "after:fc", "after:cg", "before:ex", "after:ex"]
    )
    def test_sigkilled_job_resumes_byte_identical(self, tmp_path, crash_point):
        clean = _cli([*DISCOVER, "-o", "clean.json"], tmp_path)
        assert clean.returncode == 0, clean.stderr
        ckpt = ["--checkpoint-dir", "ckpt"]
        crashed = _cli(
            [*DISCOVER, *ckpt, "--crash-point", crash_point, "-o", "crash.json"],
            tmp_path,
        )
        assert crashed.returncode == DRIVER_CRASH_EXIT_CODE, crashed.stderr
        assert not (tmp_path / "crash.json").exists()
        resumed = _cli([*DISCOVER, *ckpt, "--resume", "-o", "resumed.json"], tmp_path)
        assert resumed.returncode == 0, resumed.stderr
        assert (tmp_path / "resumed.json").read_bytes() == (
            tmp_path / "clean.json"
        ).read_bytes()
        if crash_point != "before:fc":  # at least one phase was durable
            assert "resumed stages" in resumed.stdout

    def test_crash_attempt_is_durable_across_resume(self, tmp_path):
        """The same --crash-point on the resume run must NOT re-fire."""
        ckpt = ["--checkpoint-dir", "ckpt"]
        crashed = _cli([*DISCOVER, *ckpt, "--crash-point", "after:fc"], tmp_path)
        assert crashed.returncode == DRIVER_CRASH_EXIT_CODE
        resumed = _cli(
            [*DISCOVER, *ckpt, "--crash-point", "after:fc", "--resume"], tmp_path
        )
        assert resumed.returncode == 0, resumed.stderr

    def test_checkpoint_dir_validated_up_front(self, tmp_path):
        (tmp_path / "blocker").write_text("a file, not a directory")
        result = _cli([*DISCOVER, "--checkpoint-dir", "blocker/nested"], tmp_path)
        assert result.returncode != 0
        assert "not a writable directory" in result.stderr


# ----------------------------------------------------------------------
# sweep on open: a dead writer's litter goes, signal state stays
# ----------------------------------------------------------------------


class TestSweepOnOpen:
    def test_discover_leaves_signal_handlers_alone(self, tmp_path):
        """A checkpointed run installs no SIGTERM/SIGINT handler (checked
        in a fresh interpreter, whose handlers no other test touched)."""
        script = (
            "import signal\n"
            "from repro.core.discovery import RDFind, RDFindConfig\n"
            "from repro.datasets import table1\n"
            "def handlers():\n"
            "    return [signal.getsignal(s) for s in (signal.SIGTERM, signal.SIGINT)]\n"
            "before = handlers()\n"
            f"config = RDFindConfig(support_threshold=2, checkpoint_dir={str(tmp_path)!r})\n"
            "RDFind(config).discover(table1())\n"
            "print(before == handlers(), handlers())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("True"), result.stdout

    def test_open_sweeps_a_dead_writers_temp_only(self, tmp_path):
        first = _manager(tmp_path)
        first.step("fc", lambda: 1)
        first.close()
        dead = tmp_path / f"cg.ckpt.{reaped_pid()}.tmp"
        kept = [
            tmp_path / f"ex.ckpt.{os.getpid()}.tmp",
            tmp_path / "snapshots" / "stray.tmp",
        ]
        (tmp_path / "snapshots").mkdir()
        for path in [dead, *kept]:
            path.write_bytes(b"torn")
        resumed = _manager(tmp_path, resume=True)
        assert not dead.exists()
        assert all(path.exists() for path in kept)
        assert resumed.step("fc", _fail_compute) == 1
