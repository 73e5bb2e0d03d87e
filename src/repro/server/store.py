"""Durable job records for the discovery server.

One directory per job, next to the job's own checkpoint dir, so the job
*record* and the job's durable *state* live and die together::

    <job-dir>/
      j000001/
        job.json        the JobRecord — owned by the SERVER process only
        outcome.json    terminal verdict — written by the WORKER only
        progress.json   live JobMetrics snapshot (worker, overwritten)
        metrics.json    final JobMetrics (worker, once, on success)
        result.json     the rdfind-result document (worker, once)
        worker.log      the worker subprocess's stdout/stderr
        checkpoint/     the PR 5 checkpoint manifest + step files
      j000002/
        ...

The single-writer split is the concurrency story: the server mutates
``job.json`` (queued/running/cancelled bookkeeping), the worker writes
everything else, and both sides publish with the checkpoint plane's
tmp-then-rename discipline — a reader never observes a torn
file, and a crash leaves at worst ``*.tmp`` litter for the workspace
sweeper.

Cache keys: :meth:`JobRequest.fingerprint` feeds the request's fields
through :func:`repro.dataflow.checkpoint.fingerprint_fields` — the same
BLAKE2b scheme the checkpoint manifests are keyed on.  Dataset
generators are seeded and deterministic, so ``(dataset, scale)``
identifies the triple content without generating it at admission time.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

from repro.core.framing import atomic_write
from repro.dataflow.checkpoint import fingerprint_fields

__all__ = [
    "ACTIVE_STATES",
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobRecord",
    "JobRequest",
    "JobStore",
    "atomic_write_json",
    "read_json",
]

#: Lifecycle: queued -> running -> succeeded | failed | cancelled
#: (queued can also go straight to cancelled; running drops back to
#: queued when the server restarts over an orphaned job or retries a
#: crashed worker).
JOB_STATES = ("queued", "running", "succeeded", "failed", "cancelled")
TERMINAL_STATES = ("succeeded", "failed", "cancelled")
ACTIVE_STATES = ("queued", "running")

_JOB_ID_RE = re.compile(r"^j(\d{6,})$")

_SCOPES = ("full", "predicates")
_VARIANTS = ("rdfind", "de", "nf")
_EXECUTORS = ("serial", "process")


def atomic_write_json(path: str, payload: Any) -> None:
    """Publish a JSON document through :func:`atomic_write`."""
    with atomic_write(path, "w") as stream:
        json.dump(payload, stream, indent=1, sort_keys=True)


def read_json(path: str) -> Optional[Any]:
    """Load a JSON document; ``None`` when absent or (briefly) unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as stream:
            return json.load(stream)
    except (OSError, ValueError):
        return None


@dataclass(frozen=True)
class JobRequest:
    """A validated discovery request (the ``POST /jobs`` body).

    ``dataset`` is a Table 2 registry name (``Diseasome``) or a
    server-local N-Triples/Turtle path.  ``hold``/``crash_point`` are
    deterministic test hooks: ``hold`` parks the worker until a
    ``release`` file appears in the job dir (how the tests pin a job
    mid-flight), ``crash_point`` forwards to
    :attr:`RDFindConfig.crash_points` so a worker can be SIGKILL-crashed
    at an exact checkpoint boundary and resumed.
    """

    dataset: str
    support_threshold: int = 25
    scale: float = 1.0
    scope: str = "full"
    variant: str = "rdfind"
    parallelism: int = 4
    executor: Optional[str] = None
    workers: Optional[int] = None
    hold: bool = False
    crash_point: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.dataset or not isinstance(self.dataset, str):
            raise ValueError("dataset is required")
        if self.support_threshold < 1:
            raise ValueError(
                f"support_threshold must be >= 1, got {self.support_threshold}"
            )
        if self.scale <= 0:
            raise ValueError(f"scale must be > 0, got {self.scale}")
        if self.scope not in _SCOPES:
            raise ValueError(f"scope must be one of {_SCOPES}, got {self.scope!r}")
        if self.variant not in _VARIANTS:
            raise ValueError(
                f"variant must be one of {_VARIANTS}, got {self.variant!r}"
            )
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {self.parallelism}")
        if self.executor is not None and self.executor not in _EXECUTORS:
            raise ValueError(
                f"executor must be one of {_EXECUTORS}, got {self.executor!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    def effective_executor(self) -> str:
        """The backend this request will actually run on.

        Resolved at admission time with the same default chain
        :class:`RDFindConfig` uses, so the cache fingerprint and the
        worker agree even when the request leaves ``executor`` unset.
        """
        return self.executor or os.environ.get("RDFIND_EXECUTOR", "serial")

    def fingerprint(self) -> str:
        """The result-cache key: BLAKE2b over every result-shaping field.

        Uses :func:`repro.dataflow.checkpoint.fingerprint_fields` — the
        exact scheme the checkpoint manifests are keyed on.  Two requests
        fingerprint equal iff they would compute byte-identical results
        from the same deterministic generator output, so a cache hit can
        be served without recompute and an in-flight twin can be joined.
        """
        return fingerprint_fields(
            dataset=self.dataset,
            scale=self.scale,
            h=self.support_threshold,
            scope=self.scope,
            variant=self.variant,
            parallelism=self.parallelism,
            executor=self.effective_executor(),
            workers=self.workers,
            hold=self.hold,
            crash_point=self.crash_point,
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "dataset": self.dataset,
            "support_threshold": self.support_threshold,
            "scale": self.scale,
            "scope": self.scope,
            "variant": self.variant,
            "parallelism": self.parallelism,
            "executor": self.executor,
            "workers": self.workers,
            "hold": self.hold,
            "crash_point": self.crash_point,
        }

    @classmethod
    def from_json(cls, data: Any) -> "JobRequest":
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        known = {
            "dataset": data.get("dataset"),
            "support_threshold": int(data.get("support_threshold", 25)),
            "scale": float(data.get("scale", 1.0)),
            "scope": str(data.get("scope", "full")),
            "variant": str(data.get("variant", "rdfind")),
            "parallelism": int(data.get("parallelism", 4)),
            "executor": data.get("executor") or None,
            "workers": int(data["workers"]) if data.get("workers") else None,
            "hold": bool(data.get("hold", False)),
            "crash_point": data.get("crash_point") or None,
        }
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ValueError(f"unknown request fields: {', '.join(unknown)}")
        return cls(**known)


@dataclass
class JobRecord:
    """One job's durable bookkeeping (the server-owned ``job.json``)."""

    id: str
    fingerprint: str
    request: JobRequest
    state: str = "queued"
    created: float = 0.0
    started: Optional[float] = None
    finished: Optional[float] = None
    attempts: int = 0
    cancel_requested: bool = False
    error: Optional[str] = None
    result_summary: Optional[Dict[str, Any]] = None

    def to_json(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "fingerprint": self.fingerprint,
            "request": self.request.to_json(),
            "state": self.state,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "attempts": self.attempts,
            "cancel_requested": self.cancel_requested,
            "error": self.error,
            "result_summary": self.result_summary,
        }

    @classmethod
    def from_json(cls, data: Any) -> "JobRecord":
        if not isinstance(data, dict):
            raise ValueError("job record is not a JSON object")
        request = data["request"]
        if isinstance(request, dict):
            # Records persisted before the request lost its ``storage``
            # field must still load on restart.
            request = {k: v for k, v in request.items() if k != "storage"}
        return cls(
            id=str(data["id"]),
            fingerprint=str(data["fingerprint"]),
            request=JobRequest.from_json(request),
            state=str(data["state"]),
            created=float(data.get("created") or 0.0),
            started=data.get("started"),
            finished=data.get("finished"),
            attempts=int(data.get("attempts", 0)),
            cancel_requested=bool(data.get("cancel_requested", False)),
            error=data.get("error"),
            result_summary=data.get("result_summary"),
        )


class JobStore:
    """Filesystem-backed registry of job records and their artifacts.

    Records are the source of truth on disk (a restarted server rebuilds
    its world by scanning them); the store adds a process-local lock so
    id allocation and fingerprint lookups are race-free across the HTTP
    handler threads.
    """

    def __init__(self, directory: str) -> None:
        # Absolute from the start: job paths are handed to worker
        # subprocesses whose cwd differs from the server's, so a relative
        # --job-dir must not survive into the spawn arguments.
        self.directory = os.path.abspath(str(directory))
        os.makedirs(self.directory, exist_ok=True)
        self._lock = threading.Lock()

    # -- paths ---------------------------------------------------------

    def job_dir(self, job_id: str) -> str:
        return os.path.join(self.directory, job_id)

    def record_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "job.json")

    def outcome_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "outcome.json")

    def progress_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "progress.json")

    def metrics_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "metrics.json")

    def result_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "result.json")

    def log_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "worker.log")

    def checkpoint_dir(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "checkpoint")

    def snapshot_dir(self) -> str:
        """The store-wide dataset snapshot cache.

        Shared across jobs (keyed by input spec + scale, not by job), so
        every job over the same dataset after the first skips parsing —
        including cache *misses* of the result cache, which still re-run
        discovery but start from the mmap-ed snapshot.  Deliberately not
        a job id, so job listing (``j%06d`` directories) ignores it.
        """
        return os.path.join(self.directory, "snapshots")

    # -- records -------------------------------------------------------

    def create(self, request: JobRequest) -> JobRecord:
        """Allocate the next job id and persist a fresh queued record."""
        with self._lock:
            next_seq = 1 + max(
                (
                    int(match.group(1))
                    for match in map(_JOB_ID_RE.match, self._job_ids())
                    if match
                ),
                default=0,
            )
            record = JobRecord(
                id=f"j{next_seq:06d}",
                fingerprint=request.fingerprint(),
                request=request,
                created=time.time(),
            )
            os.makedirs(self.job_dir(record.id), exist_ok=True)
            self.save(record)
        return record

    def save(self, record: JobRecord) -> None:
        atomic_write_json(self.record_path(record.id), record.to_json())

    def get(self, job_id: str) -> Optional[JobRecord]:
        data = read_json(self.record_path(job_id))
        if data is None:
            return None
        try:
            return JobRecord.from_json(data)
        except (KeyError, TypeError, ValueError):
            return None

    def _job_ids(self) -> List[str]:
        try:
            entries = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(entry for entry in entries if _JOB_ID_RE.match(entry))

    def list_records(self) -> List[JobRecord]:
        """All valid records, oldest id first."""
        records = (self.get(job_id) for job_id in self._job_ids())
        return [record for record in records if record is not None]

    def find_by_fingerprint(self, fingerprint: str) -> Optional[JobRecord]:
        """The cacheable twin of a fingerprint, if one exists.

        Active jobs win (joinable), then the newest success (servable
        from cache).  Failed/cancelled runs are never returned — a
        resubmission after those must get a fresh compute.
        """
        active: Optional[JobRecord] = None
        succeeded: Optional[JobRecord] = None
        for record in self.list_records():
            if record.fingerprint != fingerprint:
                continue
            if record.state in ACTIVE_STATES:
                active = record
            elif record.state == "succeeded":
                succeeded = record
        return active if active is not None else succeeded

    def counts(self) -> Dict[str, int]:
        """Jobs per state (the /healthz body)."""
        counts = {state: 0 for state in JOB_STATES}
        for record in self.list_records():
            if record.state in counts:
                counts[record.state] += 1
        return counts

    # -- worker artifacts ----------------------------------------------

    def outcome(self, job_id: str) -> Optional[Dict[str, Any]]:
        data = read_json(self.outcome_path(job_id))
        return data if isinstance(data, dict) else None

    def progress(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Freshest metrics snapshot: live progress, else the final one."""
        for path in (self.progress_path(job_id), self.metrics_path(job_id)):
            data = read_json(path)
            if isinstance(data, dict):
                return data
        return None

    def final_metrics(self, job_id: str) -> Optional[Dict[str, Any]]:
        data = read_json(self.metrics_path(job_id))
        return data if isinstance(data, dict) else None

    def result_document(self, job_id: str) -> Optional[Dict[str, Any]]:
        data = read_json(self.result_path(job_id))
        return data if isinstance(data, dict) else None

    def raw_result(self, job_id: str) -> Optional[bytes]:
        """The result document's exact on-disk bytes (byte-diffable
        against the CLI's ``discover -o`` output)."""
        try:
            with open(self.result_path(job_id), "rb") as stream:
                return stream.read()
        except OSError:
            return None

    def requeue(self, record: JobRecord) -> JobRecord:
        """Put a (crashed or preempted) job back in line, keeping its
        checkpoints so the next attempt resumes instead of recomputing."""
        record = replace(
            record, state="queued", started=None, finished=None, error=None
        )
        self.save(record)
        return record
