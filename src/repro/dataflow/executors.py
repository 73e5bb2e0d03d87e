"""Pluggable executor backends for the dataflow engine.

The engine expresses every operator as *per-partition tasks*: module-level
functions applied to one partition's payload, returning the partition's
result plus the time the worker spent on it.  An executor backend decides
where those tasks run:

``serial``
    Runs tasks one after another in the driver process.  This is the
    reference backend — deterministic, zero overhead, no pickling
    constraints — and remains the default.

``process``
    Runs tasks concurrently on a persistent
    :class:`concurrent.futures.ProcessPoolExecutor`, giving the engine
    real multi-core execution (CPython's GIL serializes threads, so
    processes are the only way to use more than one core for the
    pure-Python operator work).  The pool is created lazily on the first
    stage and reused for the whole job, so the fork cost is paid once.
    Tasks and their payloads must be picklable: module-level functions,
    ``functools.partial`` over module-level functions, or instances of
    module-level classes — never lambdas or closures.  Exceptions raised
    inside a worker (including
    :class:`~repro.dataflow.faults.SimulatedOutOfMemory`) are pickled
    back and re-raised in the driver.

Both backends are *fault tolerant* (:mod:`repro.dataflow.faults`): tasks
are pure functions over their payloads, so a failed task is simply
re-executed under a bounded :class:`~repro.dataflow.faults.RetryPolicy`
(exponential backoff charged to a simulated clock), and a broken process
pool is rebuilt once with only the unfinished tasks replayed.  Because
results are gathered by submission index either way, a recovered run is
byte-identical to a clean one.

Both backends return task results in submission order, so downstream
concatenation — and therefore discovery output — is byte-identical
between them.
"""

from __future__ import annotations

import gc
import os
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from typing import Any, Callable, List, Optional, Sequence

from repro.dataflow.faults import (
    FaultInjectingTask,
    FaultPlan,
    RetryPolicy,
    SimulatedClock,
    TaskTimeoutError,
)

#: The recognised backend names, in preference order.
EXECUTOR_NAMES = ("serial", "process")


def available_cores() -> int:
    """Number of CPU cores the current process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


def default_worker_count(parallelism: int) -> int:
    """Default pool size: one process per partition, capped at the cores."""
    return max(1, min(int(parallelism), available_cores()))


#: Stages whose total input is below this many records run inline even
#: under the process backend: four pipe crossings per stage cost more
#: than re-running a few thousand records' worth of work in the driver.
#: Stages that do not declare their input size (``records=None``) are
#: treated as below the threshold — an undeclared size is a single
#: payload or a driver-side stage, never a reason to pay the pool.
DEFAULT_INLINE_THRESHOLD = 2048


def _freeze_worker() -> None:
    """Process-pool initializer: move the inherited heap out of GC's way.

    A forked worker starts with the driver's whole loaded state (modules,
    the broadcast dataset, interned terms) in its young generations;
    ``gc.freeze()`` moves all of it to the permanent generation so worker
    collections never retrace objects that live for the process lifetime,
    and copy-on-write pages are not dirtied by mark bookkeeping.
    """
    gc.freeze()


def _plan_for(
    plan: Optional[FaultPlan],
    stage,
    stage_name: str,
    task_index: int,
    attempt: int,
):
    """Decide (and account) this slot's injected fault, if any."""
    if plan is None:
        return None
    injected = plan.decide(stage_name, task_index, attempt)
    if injected is not None and stage is not None:
        stage.faults_injected += 1
    return injected


def _count_retry(stage, clock: SimulatedClock, policy: RetryPolicy, retry_number: int) -> None:
    if stage is not None:
        stage.retries += 1
    clock.sleep(policy.delay(retry_number))


def _run_tasks_inline(
    task: Callable[[Any], Any],
    payloads: Sequence[Any],
    plan: Optional[FaultPlan],
    policy: RetryPolicy,
    clock: SimulatedClock,
    stage,
) -> List[Any]:
    """The shared driver-side task loop: faults injected, failures retried.

    ``stage`` is the driver's :class:`~repro.dataflow.metrics.StageMetrics`
    record (or ``None``); only its fault counters are touched here.
    """
    stage_name = stage.name if stage is not None else ""
    results: List[Any] = []
    for index, payload in enumerate(payloads):
        attempt = 0
        while True:
            injected = _plan_for(plan, stage, stage_name, index, attempt)
            runnable = (
                FaultInjectingTask(task, plan, stage_name, index, attempt)
                if plan is not None
                else task
            )
            try:
                results.append(runnable(payload))
                break
            except BaseException as error:  # noqa: BLE001 - classified below
                if attempt >= policy.max_retries or not policy.is_retryable(
                    error, injected
                ):
                    raise
                attempt += 1
                _count_retry(stage, clock, policy, attempt)
    return results


class SerialExecutor:
    """Run every task inline in the driver process (the reference)."""

    name = "serial"
    workers = 1

    def __init__(
        self,
        retry_policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.fault_plan = fault_plan
        self.clock = SimulatedClock()

    def run(
        self,
        task: Callable[[Any], Any],
        payloads: Sequence[Any],
        records: Optional[int] = None,
        stage=None,
    ) -> List[Any]:
        """Apply ``task`` to each payload sequentially (with retries)."""
        return _run_tasks_inline(
            task, payloads, self.fault_plan, self.retry_policy, self.clock, stage
        )

    def close(self) -> None:
        """Nothing to release."""


class ProcessExecutor:
    """Run tasks on a persistent process pool (real multi-core execution)."""

    name = "process"

    def __init__(
        self,
        workers: int,
        inline_threshold: int = DEFAULT_INLINE_THRESHOLD,
        retry_policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        task_timeout_seconds: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if task_timeout_seconds is not None and task_timeout_seconds <= 0:
            raise ValueError(
                f"task_timeout_seconds must be > 0, got {task_timeout_seconds}"
            )
        self.workers = int(workers)
        self.inline_threshold = int(inline_threshold)
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.fault_plan = fault_plan
        #: Per-task wall-clock bound; ``None`` (the default) waits forever.
        #: A timed-out task is treated as a retryable transient fault: the
        #: pool (with its hung worker) is abandoned and the task replayed
        #: on a fresh one, up to the retry budget.  Inline-threshold
        #: stages run in the driver and are not subject to the bound.
        self.task_timeout_seconds = task_timeout_seconds
        self.clock = SimulatedClock()
        self._pool = None

    def _ensure_pool(self):
        if self._pool is None:
            # Imported here: a serial run never pays for the pool machinery.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor as _ProcessPool

            # fork is the cheap path on Linux: workers inherit the loaded
            # modules, so only per-stage payloads cross the pipe.
            methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in methods else None
            context = multiprocessing.get_context(method)
            self._pool = _ProcessPool(
                max_workers=self.workers,
                mp_context=context,
                initializer=_freeze_worker,
            )
        return self._pool

    def run(
        self,
        task: Callable[[Any], Any],
        payloads: Sequence[Any],
        records: Optional[int] = None,
        stage=None,
    ) -> List[Any]:
        """Submit every payload, then gather results in submission order.

        ``records`` is the stage's total input size; stages below the
        inline threshold (or with no declared size) are run in the driver
        instead — the pool's pipe crossings would dwarf the actual work.

        Failure handling: a retryable task failure (see
        :meth:`RetryPolicy.is_retryable`) is resubmitted up to
        ``max_retries`` times; a :class:`BrokenExecutor` — real pool
        breakage or an injected
        :class:`~repro.dataflow.faults.SimulatedWorkerCrash` — tears the
        pool down, rebuilds it once, and replays only the unfinished
        tasks.  Results land by submission index, so recovered output is
        identical to a clean run's.
        """
        if records is None or records < self.inline_threshold:
            return _run_tasks_inline(
                task, payloads, self.fault_plan, self.retry_policy, self.clock, stage
            )
        plan, policy, clock = self.fault_plan, self.retry_policy, self.clock
        timeout = self.task_timeout_seconds
        stage_name = stage.name if stage is not None else ""
        total = len(payloads)
        results: List[Any] = [None] * total
        attempts = [0] * total
        pending = list(range(total))
        rebuilds = 0
        while pending:
            pool = self._ensure_pool()
            submitted = []
            for index in pending:
                injected = _plan_for(plan, stage, stage_name, index, attempts[index])
                runnable = (
                    FaultInjectingTask(task, plan, stage_name, index, attempts[index])
                    if plan is not None
                    else task
                )
                submitted.append((index, injected, pool.submit(runnable, payloads[index])))
            replay: List[int] = []
            hung: List[int] = []
            first_fatal: Optional[BaseException] = None
            broken: Optional[BaseException] = None
            for index, injected, future in submitted:
                try:
                    results[index] = future.result(timeout=timeout)
                except _FuturesTimeout as error:
                    if timeout is not None:
                        # The wait expired — the task is hung (or starved
                        # behind a hung worker); dealt with below, after
                        # every finished result has been harvested.
                        hung.append(index)
                    elif attempts[index] < policy.max_retries and policy.is_retryable(
                        error, injected
                    ):
                        # No bound configured: the *task* raised a
                        # TimeoutError of its own; classify it normally.
                        attempts[index] += 1
                        replay.append(index)
                        _count_retry(stage, clock, policy, attempts[index])
                    elif first_fatal is None:
                        first_fatal = error
                except BrokenExecutor as error:
                    # The attempt still counts (so a planned crash does
                    # not re-fire), but the replay is governed by the
                    # one-rebuild allowance, not by max_retries: the task
                    # did not fail, its worker did.
                    broken = error
                    attempts[index] += 1
                    replay.append(index)
                    if stage is not None:
                        stage.retries += 1
                except BaseException as error:  # noqa: BLE001 - classified below
                    if attempts[index] < policy.max_retries and policy.is_retryable(
                        error, injected
                    ):
                        attempts[index] += 1
                        replay.append(index)
                        _count_retry(stage, clock, policy, attempts[index])
                    elif first_fatal is None:
                        first_fatal = error
            if hung:
                # A hung worker never returns: a normal close() would
                # join it forever, so the pool is abandoned (no wait,
                # queued work cancelled, lingering workers terminated)
                # and each timed-out task becomes a retryable transient
                # fault replayed on a fresh pool, up to the retry budget.
                self._abandon_pool()
                for index in hung:
                    if attempts[index] < policy.max_retries:
                        attempts[index] += 1
                        replay.append(index)
                        _count_retry(stage, clock, policy, attempts[index])
                    elif first_fatal is None:
                        first_fatal = TaskTimeoutError(stage_name, index, timeout)
            if broken is not None:
                self.close()
                rebuilds += 1
                if rebuilds > 1:
                    raise broken
            if first_fatal is not None:
                raise first_fatal
            pending = replay
        return results

    def close(self) -> None:
        """Shut the pool down; a later run() builds a fresh one."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _abandon_pool(self) -> None:
        """Drop a pool that may hold hung workers, without joining them."""
        pool = self._pool
        if pool is None:
            return
        self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)
        # shutdown(wait=False) leaves a worker stuck in a task running;
        # terminate survivors so a hung task cannot outlive its retry.
        # _processes is private API, hence the defensive access.
        try:
            for process in list(getattr(pool, "_processes", {}).values()):
                process.terminate()
        except Exception:  # pragma: no cover - best-effort reaping
            pass


def create_executor(
    name: str,
    parallelism: int,
    workers: Optional[int] = None,
    retry_policy: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    task_timeout_seconds: Optional[float] = None,
):
    """Build the backend ``name`` sized for ``parallelism`` partitions.

    ``task_timeout_seconds`` only binds the ``process`` backend: serial
    tasks run inline in the driver, where a wall-clock bound cannot be
    enforced without killing the driver itself.
    """
    if name == "serial":
        return SerialExecutor(retry_policy=retry_policy, fault_plan=fault_plan)
    if name == "process":
        return ProcessExecutor(
            workers if workers is not None else default_worker_count(parallelism),
            retry_policy=retry_policy,
            fault_plan=fault_plan,
            task_timeout_seconds=task_timeout_seconds,
        )
    raise ValueError(
        f"unknown executor {name!r} (expected one of {EXECUTOR_NAMES})"
    )
