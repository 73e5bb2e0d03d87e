"""Driver-level checkpoint/restore: crash-resumable discovery jobs.

The task runner makes *tasks* survive failures inside a live driver, but a
killed driver would still lose the whole three-phase pipeline.  This
module closes that gap the way RDFind's Flink substrate does (PAPER.md
Section 8): at each phase boundary (fc, cg,
ex) the driver atomically persists the boundary's materialized result, plus a
:class:`JobManifest` that records which boundaries completed, under which
configuration, and how often each injected driver crash point has already
fired.  A relaunch with ``resume=True`` validates the manifest, loads the
completed boundaries instead of recomputing them, and continues from the
last durable one — with byte-identical final output.

On-disk layout (everything written tmp-then-rename through
:func:`repro.core.framing.atomic_write`, so a crash mid-write leaves
either the old state or ``*.tmp`` litter, which the next
:meth:`CheckpointManager.open` sweeps — never a half-valid artifact)::

    <checkpoint-dir>/
      manifest.json      completed steps, config fingerprint, crash counts
      fc.ckpt            one CRC-framed file per completed step
      cg.ckpt
      ex.ckpt

A step file is a stream of :mod:`repro.core.framing` frames: a pickled
header frame (magic, version, step name, payload kind, config
fingerprint) followed by pickled payload frames.  The manifest stores a
BLAKE2b digest over the payload frames; a load re-verifies it, so frame
CRCs catch bit rot and the digest catches whole-file substitution.

Failure semantics — never silent wrong answers:

* manifest fingerprint mismatch on resume ⇒ :class:`CheckpointMismatchError`
  (typed error; the caller asked to resume *this* job, not that one);
* corrupt/truncated manifest or step file ⇒ the affected step is
  recomputed cleanly (and re-checkpointed), with a warning on stderr;
* resume with no checkpoint on disk ⇒ a clean fresh run;
* a non-resume run wipes stale step files so they can never be loaded.

Driver crash points (:meth:`FaultPlan.decide_driver_crash`) are evaluated
before and after every boundary.  A firing point first persists its
incremented attempt count into the manifest, then aborts the process via
``os._exit`` — the moral equivalent of SIGKILL: no ``finally`` blocks, no
exit hooks.  Because the count is durable, the resumed run sees
``attempt >= fire_attempts`` and sails past the same boundary — the
"fault state for deterministic replay" part of the manifest.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from repro.core.framing import (
    FrameError,
    ManifestError,
    atomic_write,
    atomic_write_json,
    check_manifest,
    iter_frames,
    read_manifest,
    sweep_tmp,
    write_frame,
)
from repro.dataflow.faults import DRIVER_CRASH_EXIT_CODE, FaultPlan

__all__ = [
    "CheckpointError",
    "CheckpointMismatchError",
    "CheckpointCorruptError",
    "CheckpointManager",
    "JobManifest",
    "StepRecord",
    "dataset_digest",
]

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "rdfind-job-manifest"
MANIFEST_VERSION = 1

CHECKPOINT_MAGIC = "rdfind-checkpoint"
#: Version 2: capture groups hold capture codes (ints), not ``Capture``
#: tuples.  Version 3: a Bloom filter pickles as its ``to_bytes``.
#: Version 4: ``ex``'s broad CINDs are codes too.  An older step file is
#: recomputed, never resumed.
CHECKPOINT_VERSION = 4

#: Payload kinds a step file can hold.
VALUE = "value"  # one pickled driver-side value
DATASET = "dataset"  # a partitioned DataSet, chunked per partition

#: Records per payload frame of a dataset-kind checkpoint: bounds the
#: bytes a single corrupted frame can invalidate, and keeps every frame
#: far below framing.MAX_FRAME_BYTES.
DATASET_CHUNK_RECORDS = 4096

#: Pickle protocol pinned for stability across interpreter minors.
_PICKLE_PROTOCOL = 4

_MISSING = object()


class CheckpointError(RuntimeError):
    """Base class for checkpoint subsystem failures."""


class CheckpointMismatchError(CheckpointError):
    """Resume was requested against a manifest for a different job config."""


class CheckpointCorruptError(CheckpointError):
    """A manifest or step file failed validation (CRC, digest, header).

    Internal signal: the manager converts it into a clean recompute of
    the affected step, never into a silently wrong answer.
    """


def dataset_digest(encoded) -> str:
    """Content digest of an :class:`~repro.rdf.model.EncodedDataset`.

    Covers the three id columns byte-for-byte plus every dictionary term,
    so any change to the triples — content *or* encoding order — changes
    the digest and therefore the job fingerprint.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(f"triples={len(encoded)}\n".encode("utf-8"))
    for column in encoded.columns:
        digest.update(column.typecode.encode("ascii"))
        digest.update(column.tobytes())
    dictionary = encoded.dictionary
    digest.update(f"terms={len(dictionary)}\n".encode("utf-8"))
    for term in dictionary.terms():
        digest.update(term.encode("utf-8", "surrogatepass"))
        digest.update(b"\x00")
    return digest.hexdigest()


@dataclass
class StepRecord:
    """Manifest entry for one completed checkpoint step."""

    kind: str
    digest: str
    bytes: int
    seconds: float

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "digest": self.digest,
            "bytes": self.bytes,
            "seconds": self.seconds,
        }

    @classmethod
    def from_json(cls, data: Any) -> "StepRecord":
        if not isinstance(data, dict):
            raise CheckpointCorruptError(f"step record is not an object: {data!r}")
        try:
            return cls(
                kind=str(data["kind"]),
                digest=str(data["digest"]),
                bytes=int(data["bytes"]),
                seconds=float(data["seconds"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise CheckpointCorruptError(f"bad step record {data!r}") from error


@dataclass
class JobManifest:
    """The durable record of a job's checkpoint state.

    ``fingerprint`` identifies the configuration the checkpoints belong
    to; ``steps`` maps completed step names to their :class:`StepRecord`;
    ``crash_attempts`` counts, per ``moment:step`` crash point, how often
    an injected driver crash has already fired — persisted *before* the
    abort so the count survives it.  Manifests written while checkpoints
    had a granularity carry a ``mode`` key, which loading ignores.
    """

    fingerprint: str
    steps: Dict[str, StepRecord] = field(default_factory=dict)
    crash_attempts: Dict[str, int] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "fingerprint": self.fingerprint,
            "steps": {name: record.to_json() for name, record in self.steps.items()},
            "crash_attempts": dict(self.crash_attempts),
        }

    @classmethod
    def from_json(cls, data: Any) -> "JobManifest":
        try:
            check_manifest(data, MANIFEST_FORMAT, MANIFEST_VERSION)
            steps = {
                str(name): StepRecord.from_json(record)
                for name, record in dict(data["steps"]).items()
            }
            crash_attempts = {
                str(point): int(count)
                for point, count in dict(data.get("crash_attempts", {})).items()
            }
            return cls(
                fingerprint=str(data["fingerprint"]),
                steps=steps,
                crash_attempts=crash_attempts,
            )
        except (KeyError, TypeError, ValueError) as error:
            raise CheckpointCorruptError(f"malformed manifest: {error}") from error

    def save(self, path: str) -> None:
        """Atomically write the manifest (tmp-then-rename + fsync)."""
        atomic_write_json(path, self.to_json())

    @classmethod
    def load(cls, path: str) -> "JobManifest":
        """Read and validate a manifest; corruption raises the typed error."""
        try:
            data = read_manifest(path, MANIFEST_FORMAT, MANIFEST_VERSION)
        except (OSError, ManifestError) as error:
            raise CheckpointCorruptError(f"unreadable manifest {path}: {error}") from error
        return cls.from_json(data)


def _dataset_chunks(partitions: List[List[Any]]) -> Iterator[bytes]:
    """Pickled payload frames for a partitioned dataset.

    Each frame carries ``(partition_count, partition_index, records)``
    so a restore rebuilds the exact partition layout — downstream
    operator output (and hence the final result) depends on it.
    """
    count = len(partitions)
    for index, partition in enumerate(partitions):
        if not partition:
            yield pickle.dumps((count, index, []), protocol=_PICKLE_PROTOCOL)
            continue
        for offset in range(0, len(partition), DATASET_CHUNK_RECORDS):
            chunk = partition[offset : offset + DATASET_CHUNK_RECORDS]
            yield pickle.dumps((count, index, chunk), protocol=_PICKLE_PROTOCOL)


class CheckpointManager:
    """Persists and restores pipeline boundaries for one discovery job.

    The discovery facade creates one manager per job (when the config
    names a checkpoint directory) and wraps each pipeline boundary in
    :meth:`step` / :meth:`step_dataset`.  The manager decides, per
    boundary, whether to load the persisted result (resume) or compute
    and persist it — and evaluates the fault plan's driver crash points
    on both sides of every boundary.
    """

    def __init__(
        self,
        directory: str,
        fingerprint: str,
        *,
        resume: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        metrics=None,
    ) -> None:
        self.directory = str(directory)
        self.fingerprint = fingerprint
        self.resume = bool(resume)
        self.fault_plan = fault_plan
        self.metrics = metrics
        self.manifest: Optional[JobManifest] = None

    # -- lifecycle -----------------------------------------------------

    def open(self) -> None:
        """Create/validate the directory and load or initialize the manifest.

        A dead writer's temp litter is swept first.  Resume semantics: a
        missing manifest means a clean fresh run; a corrupt manifest is
        discarded with a warning (clean recompute); a manifest for a
        different config fingerprint is a :class:`CheckpointMismatchError`.
        A non-resume run always starts fresh, wiping stale step files.
        """
        os.makedirs(self.directory, exist_ok=True)
        sweep_tmp(self.directory)
        manifest_path = self._manifest_path()
        if self.resume and os.path.exists(manifest_path):
            try:
                manifest = JobManifest.load(manifest_path)
            except CheckpointCorruptError as error:
                self._warn(f"discarding corrupt manifest: {error}")
            else:
                if manifest.fingerprint != self.fingerprint:
                    raise CheckpointMismatchError(
                        "checkpoint manifest belongs to a different job "
                        f"configuration (manifest fingerprint "
                        f"{manifest.fingerprint}, this job {self.fingerprint}); "
                        "rerun without --resume to start over"
                    )
                self.manifest = manifest
                return
        self._start_fresh()

    def close(self) -> None:
        """Nothing to release: no file stays open, checkpoints stay durable."""

    # -- step API ------------------------------------------------------

    def completed(self, name: str) -> bool:
        """Whether a durable checkpoint for ``name`` exists on disk."""
        return (
            self.manifest is not None
            and name in self.manifest.steps
            and os.path.exists(self._path(name))
        )

    def discard(self, name: str) -> None:
        """Drop a step's checkpoint (tests/benchmarks simulate partial state)."""
        if self.manifest is not None and name in self.manifest.steps:
            del self.manifest.steps[name]
            self._save_manifest()
        try:
            os.unlink(self._path(name))
        except OSError:
            pass

    def step(self, name: str, compute: Callable[[], Any]) -> Any:
        """Run one value boundary: restore it, or compute and persist it."""
        self._maybe_crash("before", name)
        value = self._restore(name, VALUE)
        if value is _MISSING:
            value = compute()
            self._persist(
                name,
                VALUE,
                [pickle.dumps(value, protocol=_PICKLE_PROTOCOL)],
            )
        self._maybe_crash("after", name)
        return value

    def step_dataset(self, name: str, env, compute: Callable[[], Any]) -> Any:
        """Like :meth:`step` for a partitioned DataSet boundary.

        Partitions are persisted in chunked frames and restored through
        ``env.from_partitions`` with the exact original layout, so every
        downstream stage sees the same per-worker data either way.
        """
        self._maybe_crash("before", name)
        payloads = self._restore(name, DATASET)
        if payloads is _MISSING:
            dataset = compute()
            self._persist(name, DATASET, _dataset_chunks(dataset.partitions))
        else:
            count = 1
            partitions: List[List[Any]] = []
            for raw in payloads:
                count, index, chunk = pickle.loads(raw)
                while len(partitions) < count:
                    partitions.append([])
                partitions[index].extend(chunk)
            while len(partitions) < count:
                partitions.append([])
            dataset = env.from_partitions(
                partitions, name=f"checkpoint/restore:{name}"
            )
        self._maybe_crash("after", name)
        return dataset

    # -- internals -----------------------------------------------------

    def _manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, f"{name}.ckpt")

    def _warn(self, message: str) -> None:
        print(f"checkpoint: {message}", file=sys.stderr, flush=True)

    def _start_fresh(self) -> None:
        for entry in os.listdir(self.directory):
            if entry.endswith(".ckpt"):
                try:
                    os.unlink(os.path.join(self.directory, entry))
                except OSError:
                    pass
        self.manifest = JobManifest(fingerprint=self.fingerprint)
        self._save_manifest()

    def _save_manifest(self) -> None:
        assert self.manifest is not None
        self.manifest.save(self._manifest_path())

    def _maybe_crash(self, moment: str, name: str) -> None:
        plan = self.fault_plan
        if plan is None or self.manifest is None:
            return
        point = f"{moment}:{name}"
        attempt = self.manifest.crash_attempts.get(point, 0)
        if not plan.decide_driver_crash(name, moment, attempt):
            return
        # Persist the incremented count FIRST: the abort below must not
        # re-fire on the resumed run (deterministic replay).
        self.manifest.crash_attempts[point] = attempt + 1
        self._save_manifest()
        self._warn(
            f"injected driver crash at {point} (attempt {attempt}); aborting"
        )
        sys.stderr.flush()
        sys.stdout.flush()
        os._exit(DRIVER_CRASH_EXIT_CODE)

    def _persist(self, name: str, kind: str, payloads: Iterable[bytes]) -> None:
        assert self.manifest is not None
        started = time.perf_counter()
        path = self._path(name)
        digest = hashlib.blake2b(digest_size=16)
        framed_bytes = 0
        header = pickle.dumps(
            {
                "magic": CHECKPOINT_MAGIC,
                "version": CHECKPOINT_VERSION,
                "step": name,
                "kind": kind,
                "fingerprint": self.fingerprint,
            },
            protocol=_PICKLE_PROTOCOL,
        )
        with atomic_write(path) as stream:
            framed_bytes += write_frame(stream, header)
            for payload in payloads:
                digest.update(payload)
                framed_bytes += write_frame(stream, payload)
        seconds = time.perf_counter() - started
        self.manifest.steps[name] = StepRecord(
            kind=kind,
            digest=digest.hexdigest(),
            bytes=framed_bytes,
            seconds=seconds,
        )
        self._save_manifest()
        if self.metrics is not None:
            self.metrics.checkpoint_bytes += framed_bytes
            self.metrics.checkpoint_seconds += seconds
            stage = self.metrics.new_stage(f"checkpoint/save:{name}")
            stage.wall_seconds = seconds
            stage.records_out = [1]

    def _restore(self, name: str, kind: str):
        """The step's payload frames, or ``_MISSING`` when it must be computed.

        Any validation failure — frame CRC/truncation, digest mismatch,
        wrong header — degrades to ``_MISSING`` after dropping the bad
        checkpoint: a clean recompute, never a silently wrong load.
        """
        if not self.completed(name):
            return _MISSING
        started = time.perf_counter()
        try:
            payloads = self._read_step_file(name, kind)
        except CheckpointCorruptError as error:
            self._warn(f"recomputing step {name!r}: {error}")
            self.discard(name)
            return _MISSING
        seconds = time.perf_counter() - started
        if self.metrics is not None:
            self.metrics.resumed_stages += 1
            self.metrics.checkpoint_seconds += seconds
            stage = self.metrics.new_stage(f"checkpoint/resume:{name}")
            stage.wall_seconds = seconds
            stage.records_out = [len(payloads)]
        if kind == VALUE:
            return pickle.loads(payloads[0]) if payloads else _MISSING
        return payloads

    def _read_step_file(self, name: str, kind: str) -> List[bytes]:
        assert self.manifest is not None
        record = self.manifest.steps[name]
        if record.kind != kind:
            raise CheckpointCorruptError(
                f"step {name!r} has kind {record.kind!r}, expected {kind!r}"
            )
        digest = hashlib.blake2b(digest_size=16)
        payloads: List[bytes] = []
        try:
            with open(self._path(name), "rb") as stream:
                frames = iter_frames(stream)
                try:
                    header_raw = next(frames)
                except StopIteration:
                    raise CheckpointCorruptError("step file has no header frame")
                self._validate_header(name, kind, header_raw)
                for payload in frames:
                    digest.update(payload)
                    payloads.append(payload)
        except FrameError as error:
            raise CheckpointCorruptError(f"bad frame: {error}") from error
        except OSError as error:
            raise CheckpointCorruptError(f"unreadable step file: {error}") from error
        if digest.hexdigest() != record.digest:
            raise CheckpointCorruptError(
                f"payload digest mismatch (manifest {record.digest}, "
                f"file {digest.hexdigest()})"
            )
        return payloads

    def _validate_header(self, name: str, kind: str, raw: bytes) -> Dict[str, Any]:
        try:
            header = pickle.loads(raw)
        except Exception as error:  # noqa: BLE001 - any unpickle failure is corruption
            raise CheckpointCorruptError(f"unreadable header frame: {error}") from error
        if not isinstance(header, dict) or header.get("magic") != CHECKPOINT_MAGIC:
            raise CheckpointCorruptError("header magic mismatch")
        if header.get("version") != CHECKPOINT_VERSION:
            raise CheckpointCorruptError(
                f"unsupported checkpoint version {header.get('version')!r}"
            )
        if header.get("step") != name or header.get("kind") != kind:
            raise CheckpointCorruptError(
                f"header identifies step {header.get('step')!r} kind "
                f"{header.get('kind')!r}, expected {name!r}/{kind!r}"
            )
        if header.get("fingerprint") != self.fingerprint:
            raise CheckpointCorruptError("header fingerprint mismatch")
        return header
