"""The per-job worker subprocess.

Run as ``python -m repro.server.worker <job-dir> [<settings-json>]``, where
the optional second argument is the server's run settings: a JSON object
of ``RDFindConfig`` keywords (``rdfind serve``'s runtime flags).  With
``-`` for the job dir the worker is the service's *spare*: it imports
everything a job runs, then reads the job dir from one line of stdin,
sends its stdout and stderr to the job's ``worker.log`` and runs the
job.  At end of file (its server is gone) it exits.

The service runs every admitted job in a fresh interpreter rather than a
thread, which buys three guarantees a thread cannot give:

* **cancellation** is a real SIGTERM — no cooperative polling threaded
  through the pipeline, and a job's process executor children die with
  it (the handler installed here SIGKILLs ``multiprocessing`` children
  before re-delivering the signal);
* **crash isolation** — an OOM or interpreter abort takes down one job,
  not the server; the service requeues it and the relaunch *resumes*
  from its durable checkpoint (`resume=True` is unconditional: on a
  fresh checkpoint dir it is simply a clean run);
* **restart resumability** — the server itself dying changes nothing
  the worker relies on: job state lives in the record + checkpoint dir,
  both of which the restarted server rescans.

Protocol with the service (single-writer per file, see
:mod:`repro.server.store`): the worker reads ``job.json`` and writes
``progress.json`` (live :meth:`JobMetrics.to_dict` snapshots from a
watcher thread), then on completion ``result.json`` (via
:func:`repro.core.serialization.dump_result` — byte-identical to the
CLI's ``discover -o``), ``metrics.json``, and last — it is the commit
point — ``outcome.json``.  A worker that dies without an outcome is, by
definition, a crash.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from repro.core.conditions import ConditionScope
from repro.core.discovery import RDFind, RDFindConfig
from repro.core.framing import atomic_write, atomic_write_json
from repro.core.serialization import write_result
from repro.dataflow import kernels  # noqa: F401 - loaded by every job; warm in a spare
from repro.dataflow.metrics import JobMetrics
from repro.inputs import load_input
from repro.server.store import JobRequest, JobStore, read_json

__all__ = ["main", "run_job"]

#: How often the watcher thread publishes a live metrics snapshot.
PROGRESS_INTERVAL_SECONDS = 0.15

#: Polling period of the ``hold`` test hook.
_HOLD_POLL_SECONDS = 0.05

_CONFIG_BUILDERS = {
    "rdfind": RDFindConfig,
    "de": RDFindConfig.direct_extraction,
    "nf": RDFindConfig.no_frequent_conditions,
}


def _install_signal_handlers() -> None:
    """Make SIGTERM take the whole job down, pool children included.

    The only handler in the worker: kill the executor's children, then
    die with the signal's default disposition so the exit status is
    honest.  A torn publish's ``*.tmp`` stays behind; the service sweeps
    the job dir once it has reaped this process.
    """

    def handler(signum: int, _frame) -> None:
        try:
            for child in multiprocessing.active_children():
                child.kill()
        finally:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)

    try:
        signal.signal(signal.SIGTERM, handler)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass


def _load_dataset(request: JobRequest, snapshot_dir: Optional[str] = None):
    """Load the request's dataset, dictionary-encoded.

    With ``snapshot_dir`` (the store-wide snapshot cache) a warm job
    mmap-loads the dataset instead of re-parsing/generating it; the
    first cold job populates the cache.
    """
    spec = request.dataset
    if (
        not spec.startswith(("dataset:", "endpoint:"))
        and not os.path.exists(spec)
    ):
        # Bare registry names are accepted in requests; normalize to the
        # loader's explicit form.  (endpoint: refs pass through to the
        # loader's federation path untouched.)
        spec = f"dataset:{spec}"
    return load_input(spec, scale=request.scale, snapshot_dir=snapshot_dir)


def _build_config(
    request: JobRequest,
    checkpoint_dir: str,
    settings: Optional[Dict[str, Any]] = None,
) -> RDFindConfig:
    """The request over the server's run ``settings``, checkpointing on.

    ``resume=True`` unconditionally: a first attempt sees an empty
    checkpoint dir (clean run), a retried or server-restarted attempt
    sees its predecessor's durable boundaries and skips them.  What the
    request names wins over the settings.
    """
    scope = (
        ConditionScope.predicates_only()
        if request.scope == "predicates"
        else ConditionScope.full()
    )
    overrides = dict(settings or {})
    if request.executor is not None:
        overrides["executor"] = request.executor
    if request.workers is not None:
        overrides["workers"] = request.workers
    if request.crash_point:
        overrides["crash_points"] = (request.crash_point,)
    return _CONFIG_BUILDERS[request.variant](
        support_threshold=request.support_threshold,
        parallelism=request.parallelism,
        scope=scope,
        checkpoint_dir=checkpoint_dir,
        resume=True,
        **overrides,
    )


def _hold_until_released(job_dir: str, request: JobRequest) -> None:
    """Deterministic test hook: park until ``<job-dir>/release`` exists.

    Lets the tests pin a job in the ``running`` state for exactly as
    long as they need (cancellation, admission, restart scenarios)
    without timing-based sleeps.  Inert unless the request set ``hold``.
    """
    if not request.hold:
        return
    release = os.path.join(job_dir, "release")
    while not os.path.exists(release):
        time.sleep(_HOLD_POLL_SECONDS)


class _ProgressPublisher:
    """Watcher thread snapshotting shared JobMetrics into progress.json.

    The metrics object is mutated by the discovery pipeline while this
    thread reads it; `to_dict` copies are taken best-effort (a torn read
    of a growing list is harmless — the next snapshot supersedes it in
    well under a second, and the atomic rename means readers only ever
    see whole documents).
    """

    def __init__(self, path: str, metrics: JobMetrics) -> None:
        self._path = path
        self._metrics = metrics
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="progress-publisher", daemon=True
        )

    def __enter__(self) -> "_ProgressPublisher":
        self._thread.start()
        return self

    def __exit__(self, *_exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.publish()  # final state, so pollers see the last stages

    def publish(self) -> None:
        try:
            atomic_write_json(self._path, self._metrics.to_dict())
        except Exception:  # noqa: BLE001 - progress is advisory, never fatal
            pass

    def _run(self) -> None:
        while not self._stop.wait(PROGRESS_INTERVAL_SECONDS):
            self.publish()


def run_job(job_dir: str, settings: Optional[Dict[str, Any]] = None) -> int:
    """Execute the job persisted under ``job_dir`` with the server's run
    ``settings``; returns an exit code."""
    store = JobStore(os.path.dirname(os.path.abspath(job_dir)))
    job_id = os.path.basename(os.path.normpath(job_dir))
    data = read_json(store.record_path(job_id))
    if data is None:
        print(f"worker: no job record under {job_dir}", file=sys.stderr)
        return 2
    request = JobRequest.from_json(data["request"])

    started = time.perf_counter()
    try:
        _hold_until_released(job_dir, request)
        dataset = _load_dataset(request, snapshot_dir=store.snapshot_dir())
        config = _build_config(request, store.checkpoint_dir(job_id), settings)
        metrics = JobMetrics()
        with _ProgressPublisher(store.progress_path(job_id), metrics):
            result = RDFind(config).discover(dataset, metrics=metrics)
        # result.json first, outcome.json last: the outcome is the commit
        # point, so a crash between the two reads as "no result yet".
        with atomic_write(store.result_path(job_id), "w") as handle:
            write_result(handle, result)
        atomic_write_json(store.metrics_path(job_id), metrics.to_dict())
        atomic_write_json(
            store.outcome_path(job_id),
            {
                "state": "succeeded",
                "elapsed_seconds": time.perf_counter() - started,
                "summary": {
                    "variant": result.config.variant_name,
                    "h": result.support_threshold,
                    "triples": result.stats.num_triples,
                    "pertinent_cinds": result.stats.num_pertinent_cinds,
                    "association_rules": len(result.association_rules),
                    "resumed_stages": metrics.resumed_stages,
                },
            },
        )
        return 0
    except Exception as error:  # noqa: BLE001 - every failure becomes a verdict
        atomic_write_json(
            store.outcome_path(job_id),
            {
                "state": "failed",
                "elapsed_seconds": time.perf_counter() - started,
                "error": f"{type(error).__name__}: {error}",
            },
        )
        print(f"worker: job {job_id} failed: {error}", file=sys.stderr)
        return 1


def _log_to(path: str) -> None:
    """Point fds 1 and 2 at ``path`` (appended), flushing what came before."""
    sys.stdout.flush()
    sys.stderr.flush()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    os.dup2(fd, 1)
    os.dup2(fd, 2)
    os.close(fd)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) not in (1, 2):
        print(json.dumps(
            {"error": "usage: repro.server.worker <job-dir>|- [<settings-json>]"}
        ))
        return 2
    _install_signal_handlers()
    job_dir = argv[0]
    if job_dir == "-":
        job_dir = sys.stdin.readline().rstrip("\n")
        if not job_dir:
            return 0  # end of file: no job is coming
        store_dir, job_id = os.path.split(os.path.abspath(job_dir))
        _log_to(JobStore(store_dir).log_path(job_id))
    return run_job(job_dir, json.loads(argv[1]) if len(argv) == 2 else None)


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
