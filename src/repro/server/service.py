"""Job lifecycle management: admission, queueing, workers, result cache.

The :class:`JobService` sits between the HTTP surface and the store.  It
owns the only scheduling loop in the server:

* **admission** — `submit` validates the request, consults the
  fingerprint-keyed result cache (a finished twin ⇒ served without
  recompute; an in-flight twin ⇒ joined, not duplicated), and bounds the
  backlog: more than ``max_queued_jobs`` waiting jobs is an
  :class:`OverCapacityError`, which the routes layer renders as HTTP 429
  with a ``Retry-After`` hint.
* **execution** — a scheduler thread starts queued jobs oldest-first
  whenever a slot is free (``max_concurrent_jobs`` bounds the worker
  pool), woken by submissions and worker exits, not a timer.  Each job
  is handed over stdin to the *spare*: an idle :mod:`repro.server.worker`
  subprocess started ahead (checkpointing on, the server's
  ``run_settings`` on its command line, a job's imports done), and the
  next spare starts.  A dead spare is replaced, never handed a job.  A
  worker that dies without writing its outcome is requeued (its next
  attempt *resumes* from the durable checkpoint) up to ``max_attempts``,
  then declared failed.
* **recovery** — `start` sweeps dead writers' temps
  (:func:`repro.core.framing.sweep_tmp`) and rescans the store: jobs
  left ``running`` by a dead server are requeued (their checkpoints
  survive, so the rerun picks up at the last boundary), orphaned
  finished workers have their outcome adopted.
* **shutdown** — `stop` (the SIGTERM/SIGINT path) stops admitting and
  the scheduler, SIGTERMs the spare and in-flight workers, puts their
  jobs back in the queue so the next start resumes them, and answers
  waiting status requests.  A dead server's spare exits at stdin's end.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.core.framing import sweep_tmp
from repro.datasets.registry import DATASETS
from repro.server.store import (
    ACTIVE_STATES,
    JobRecord,
    JobRequest,
    JobStore,
    TERMINAL_STATES,
)

__all__ = [
    "JobService",
    "JobServiceError",
    "BadRequestError",
    "ConflictError",
    "NotAdmittingError",
    "OverCapacityError",
    "UnknownJobError",
    "ServiceConfig",
]


class JobServiceError(RuntimeError):
    """Base class for service-level failures the routes layer maps to HTTP."""


class BadRequestError(JobServiceError):
    """The submission is malformed (HTTP 400)."""


class UnknownJobError(JobServiceError):
    """No such job id (HTTP 404)."""


class ConflictError(JobServiceError):
    """The job is not in a state that allows the operation (HTTP 409)."""


class OverCapacityError(JobServiceError):
    """The queue is full (HTTP 429 + Retry-After)."""

    def __init__(self, message: str, retry_after_seconds: int) -> None:
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds


class NotAdmittingError(JobServiceError):
    """The server is draining for shutdown (HTTP 503)."""


@dataclass(frozen=True)
class ServiceConfig:
    """Operating limits of one :class:`JobService`.

    ``run_settings`` are ``RDFindConfig`` keywords (``rdfind serve``'s
    runtime flags) every worker receives on its command line.
    """

    job_dir: str
    max_concurrent_jobs: int = 2
    max_queued_jobs: int = 8
    max_attempts: int = 3
    retry_after_seconds: int = 5
    terminate_grace_seconds: float = 5.0
    run_settings: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.job_dir:
            raise ValueError("job_dir is required")
        if self.max_concurrent_jobs < 1:
            raise ValueError(
                f"max_concurrent_jobs must be >= 1, got {self.max_concurrent_jobs}"
            )
        if self.max_queued_jobs < 0:
            raise ValueError(
                f"max_queued_jobs must be >= 0, got {self.max_queued_jobs}"
            )
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")


def _worker_environment() -> Dict[str, str]:
    """The subprocess environment, with this package importable.

    The server may run from a checkout via ``PYTHONPATH=src``; the
    worker must resolve :mod:`repro` the same way regardless of how the
    parent found it, so the package's own root is prepended explicitly.
    """
    env = dict(os.environ)
    package_root = os.path.dirname(  # .../src, three levels above this file
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + os.pathsep + existing if existing else package_root
        )
    return env


class JobService:
    """Runs discovery jobs for the HTTP surface; see the module docstring."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.store = JobStore(config.job_dir)
        self._lock = threading.Lock()
        self._procs: Dict[str, subprocess.Popen] = {}
        self._spare: Optional[subprocess.Popen] = None
        self._admitting = False
        self._stop_event = threading.Event()
        self._wake = threading.Event()  # set: the scheduler has work to look at
        self._changed = threading.Condition()  # notified: a job became terminal
        self._scheduler: Optional[threading.Thread] = None
        self.started_jobs = 0  # lifetime job starts (cache-efficacy telemetry)

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Recover orphaned jobs, open admission, start the scheduler."""
        if self._scheduler is not None:
            raise RuntimeError("service already started")
        sweep_tmp(self.store.directory)
        self._recover_orphans()
        with self._lock:
            self._spare = self._start_worker()
        self._admitting = True
        self._stop_event.clear()
        self._scheduler = threading.Thread(
            target=self._scheduler_loop, name="job-scheduler", daemon=True
        )
        self._scheduler.start()
        self._wake.set()  # recovery may have requeued jobs

    def stop(self, graceful: bool = True) -> None:
        """Drain and shut down.

        ``graceful`` (the SIGTERM path): running workers are SIGTERMed
        and their jobs requeued — the checkpoint dirs stay, so the next
        `start` resumes them at their last durable boundary.  With
        ``graceful=False`` the workers are killed and the records left
        exactly as they are — the test double for the server dying
        mid-job (recovery then happens in the next `start`).
        """
        self._admitting = False
        self._stop_event.set()
        self._wake.set()
        if self._scheduler is not None:
            self._scheduler.join(timeout=10.0)
            self._scheduler = None
        with self._lock:
            procs = dict(self._procs)
            spare, self._spare = self._spare, None
        if spare is not None:
            spare.stdin.close()  # type: ignore[union-attr]
            self._terminate(spare)
        for job_id, proc in procs.items():
            self._terminate(proc)
            if graceful:
                record = self.store.get(job_id)
                if record is not None and record.state == "running":
                    outcome = self.store.outcome(job_id)
                    if outcome is None:
                        self.store.requeue(record)
                    else:
                        self._adopt_outcome(record, outcome)
        with self._lock:
            self._procs.clear()
        with self._changed:
            self._changed.notify_all()  # waiting status requests answer now
        if graceful:
            sweep_tmp(self.store.directory)  # every worker is reaped by now

    def stop_admitting(self) -> None:
        """First phase of graceful shutdown: reject new submissions."""
        self._admitting = False

    @property
    def admitting(self) -> bool:
        return self._admitting

    def _recover_orphans(self) -> None:
        """Reconcile records left behind by a dead server.

        A ``running`` record with a worker outcome on disk finished just
        as (or after) the server died — adopt the verdict.  One without
        an outcome lost its worker — requeue it; its checkpoint dir is
        intact, so the retry resumes rather than recomputes.
        """
        for record in self.store.list_records():
            if record.state != "running":
                continue
            outcome = self.store.outcome(record.id)
            if outcome is not None:
                self._adopt_outcome(record, outcome)
            elif record.cancel_requested:
                self._finish(record, "cancelled", error="cancelled by client")
            else:
                self.store.requeue(record)

    # -- admission / cache ---------------------------------------------

    def submit(self, request: JobRequest) -> Tuple[JobRecord, str]:
        """Admit a request; returns ``(record, cache_status)``.

        ``cache_status`` is ``"hit"`` (a finished twin's record — its
        result is already on disk), ``"joined"`` (an identical job is
        queued or running; the caller shares it), or ``"miss"`` (a new
        job was created and queued).
        """
        if not self._admitting:
            raise NotAdmittingError("server is shutting down; not accepting jobs")
        self._validate_dataset(request)
        with self._lock:
            fingerprint = request.fingerprint()
            twin = self.store.find_by_fingerprint(fingerprint)
            if twin is not None:
                return twin, ("joined" if twin.state in ACTIVE_STATES else "hit")
            queued = sum(
                1 for record in self.store.list_records() if record.state == "queued"
            )
            if queued >= self.config.max_queued_jobs:
                raise OverCapacityError(
                    f"queue is full ({queued}/{self.config.max_queued_jobs} "
                    f"jobs waiting); retry later",
                    retry_after_seconds=self.config.retry_after_seconds,
                )
            record = self.store.create(request)
        self._wake.set()
        return record, "miss"

    def _validate_dataset(self, request: JobRequest) -> None:
        spec = request.dataset
        if spec.startswith("endpoint:"):
            url = spec[len("endpoint:") :]
            # Admission-time sanity only — reachability is the worker's
            # problem (the endpoint may be down now and healthy at run
            # time; the federation client handles both).
            if url.startswith(("http://", "https://")):
                return
            raise BadRequestError(
                f"bad endpoint dataset {request.dataset!r}: expected "
                f"endpoint:http(s)://host[:port]/path"
            )
        if spec.startswith("dataset:"):
            spec = spec[len("dataset:") :]
        if any(key.lower() == spec.lower() for key in DATASETS):
            return
        if os.path.exists(request.dataset) and request.dataset.endswith(
            (".nt", ".ntriples", ".ttl", ".turtle")
        ):
            return
        raise BadRequestError(
            f"unknown dataset {request.dataset!r}: expected a registry name "
            f"({', '.join(DATASETS)}), a server-local N-Triples/Turtle "
            f"file, or endpoint:<SPARQL endpoint URL>"
        )

    # -- queries -------------------------------------------------------

    def record(self, job_id: str) -> JobRecord:
        record = self.store.get(job_id)
        if record is None:
            raise UnknownJobError(f"no such job {job_id!r}")
        return record

    def job_status(self, job_id: str, wait: float = 0.0) -> Dict[str, object]:
        """The record plus live progress, as one JSON-ready dict.

        With ``wait`` seconds it answers once the job is terminal, the
        service stops, or the time is up, whichever comes first.
        """
        if wait > 0:
            with self._changed:
                self._changed.wait_for(
                    lambda: self._stop_event.is_set()
                    or self.record(job_id).state in TERMINAL_STATES,
                    timeout=wait,
                )
        record = self.record(job_id)
        status: Dict[str, object] = record.to_json()
        if record.state == "running":
            status["progress"] = self.store.progress(job_id)
        elif record.state == "succeeded":
            status["progress"] = self.store.final_metrics(job_id)
        else:
            status["progress"] = None
        return status

    def list_jobs(self) -> List[Dict[str, object]]:
        return [record.to_json() for record in self.store.list_records()]

    def raw_result(self, job_id: str) -> bytes:
        """The full result document, byte-identical to ``discover -o``."""
        self._finished_record(job_id)
        raw = self.store.raw_result(job_id)
        if raw is None:
            raise ConflictError(f"job {job_id} result document is missing")
        return raw

    def _finished_record(self, job_id: str) -> JobRecord:
        record = self.record(job_id)
        if record.state != "succeeded":
            raise ConflictError(
                f"job {job_id} has no result (state {record.state!r})"
            )
        return record

    def counts(self) -> Dict[str, int]:
        return self.store.counts()

    # -- cancellation --------------------------------------------------

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued or running job; idempotent once terminal."""
        with self._lock:
            record = self.record(job_id)
            if record.state in TERMINAL_STATES:
                if record.state == "cancelled":
                    return record
                raise ConflictError(
                    f"job {job_id} already finished ({record.state})"
                )
            record = replace(record, cancel_requested=True)
            if record.state == "queued":
                return self._finish(record, "cancelled", error="cancelled by client")
            self.store.save(record)
            proc = self._procs.get(job_id)
        # Running: the scheduler reaps the terminated worker and, seeing
        # cancel_requested, lands the record in "cancelled".
        if proc is not None:
            self._terminate(proc)
        return self.record(job_id)

    def _terminate(self, proc: subprocess.Popen) -> None:
        if proc.poll() is not None:
            return
        try:
            proc.terminate()
            proc.wait(timeout=self.config.terminate_grace_seconds)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=self.config.terminate_grace_seconds)
        except OSError:
            pass

    # -- scheduling ----------------------------------------------------

    def _scheduler_loop(self) -> None:
        while True:
            self._wake.wait()
            self._wake.clear()
            if self._stop_event.is_set():
                return
            try:
                self._reap_finished()
                self._start_queued()
            except Exception as error:  # noqa: BLE001 - the loop must survive
                print(f"server: scheduler error: {error}", file=sys.stderr)

    def _reap_finished(self) -> None:
        with self._lock:
            done = [
                (job_id, proc)
                for job_id, proc in self._procs.items()
                if proc.poll() is not None
            ]
            for job_id, _proc in done:
                del self._procs[job_id]
        for job_id, proc in done:
            sweep_tmp(self.store.job_dir(job_id))
            record = self.store.get(job_id)
            if record is None or record.state != "running":
                continue
            outcome = self.store.outcome(job_id)
            if outcome is not None:
                self._adopt_outcome(record, outcome)
            elif record.cancel_requested:
                self._finish(record, "cancelled", error="cancelled by client")
            elif record.attempts < self.config.max_attempts:
                # Crash without a verdict: requeue; the checkpoint dir is
                # durable, so the retry resumes at the last boundary.
                self.store.requeue(record)
            else:
                self._finish(
                    record,
                    "failed",
                    error=(
                        f"worker died (exit code {proc.returncode}) after "
                        f"{record.attempts} attempts"
                    ),
                )

    def _adopt_outcome(self, record: JobRecord, outcome: Dict[str, object]) -> None:
        state = str(outcome.get("state", "failed"))
        if state not in TERMINAL_STATES:
            state = "failed"
        self._finish(
            record,
            state,
            error=outcome.get("error"),
            result_summary=outcome.get("summary"),
        )

    def _finish(
        self,
        record: JobRecord,
        state: str,
        error=None,
        result_summary=None,
    ) -> JobRecord:
        record = replace(
            record,
            state=state,
            finished=time.time(),
            error=error,
            result_summary=result_summary,
        )
        self.store.save(record)
        with self._changed:
            self._changed.notify_all()
        return record

    def _start_queued(self) -> None:
        with self._lock:
            free = self.config.max_concurrent_jobs - len(self._procs)
            if free <= 0 or self._stop_event.is_set():
                return
            queued = [
                record
                for record in self.store.list_records()
                if record.state == "queued" and record.id not in self._procs
            ]
            for record in queued[:free]:
                self._spawn(record)

    def _spawn(self, record: JobRecord) -> None:
        """Hand the job to the spare and start the next (caller holds the lock)."""
        job_dir = self.store.job_dir(record.id)
        # Stale artifacts from a previous attempt must not be readable as
        # this attempt's verdict; checkpoints, of course, stay.
        for path in (
            self.store.outcome_path(record.id),
            self.store.progress_path(record.id),
        ):
            try:
                os.unlink(path)
            except OSError:
                pass
        proc, self._spare = self._spare, None
        if proc is not None and proc.poll() is not None:
            proc.stdin.close()  # type: ignore[union-attr]
            proc = None  # a dead spare is replaced, never handed a job
        if proc is None:  # or no spare could be started
            try:
                proc = self._start_worker()
            except OSError as error:
                self._finish(record, "failed", error=f"could not spawn worker: {error}")
                return
        try:
            proc.stdin.write(os.fsencode(job_dir) + b"\n")  # type: ignore[union-attr]
            proc.stdin.close()  # type: ignore[union-attr]
        except OSError:
            pass  # it died just now: reaped as a crashed attempt
        self._procs[record.id] = proc
        self.started_jobs += 1
        self.store.save(
            replace(
                record,
                state="running",
                started=time.time(),
                attempts=record.attempts + 1,
            )
        )
        self._spare = self._start_worker()  # `stop` takes it under the lock

    def _start_worker(self) -> subprocess.Popen:
        """A worker parked on its stdin, and a thread that wakes the
        scheduler when it exits (which also reaps it)."""
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.server.worker", "-",
                json.dumps(self.config.run_settings, sort_keys=True),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
            env=_worker_environment(),
            cwd=self.store.directory,
        )
        threading.Thread(target=self._wake_on_exit, args=(proc,), daemon=True).start()
        return proc

    def _wake_on_exit(self, proc: subprocess.Popen) -> None:
        proc.wait()
        self._wake.set()
