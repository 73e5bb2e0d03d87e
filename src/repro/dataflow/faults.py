"""Fault model for the dataflow engine: injection, retry, simulated OOM.

The Flink substrate RDFind runs on (PAPER.md Section 8, Appendix C)
recovers from worker failures by re-executing failed tasks from lineage.
This module gives the simulated engine the same property — and, crucially,
makes recovery *testable*: faults are injected from a seeded, fully
deterministic :class:`FaultPlan`, so a faulty run can be replayed
bit-for-bit and compared against a clean one.

Three pieces:

:class:`FaultPlan`
    Decides, per ``(stage, task_index, attempt)``, whether a task suffers
    a fault and of which kind — a transient task exception, a simulated
    worker death (:class:`SimulatedWorkerCrash`), a straggler slowdown, or
    a forced :class:`SimulatedOutOfMemory`.  Decisions are pure functions
    of the seed (BLAKE2b, not ``random``), so they are independent of
    execution order and interpreter hash seed.

:class:`RetryPolicy`
    Bounded re-execution with exponential backoff.  Backoff waits are
    charged to a :class:`SimulatedClock` instead of ``time.sleep`` — the
    engine's tasks are pure module-level functions over payloads, so
    re-execution is safe and there is nothing real to wait for.  The
    backoff/jitter machinery itself lives in :mod:`repro.core.retry`
    (shared with the federation and job-server clients, which retry
    *real* network operations); the subclass here only adds the
    engine's injected-vs-genuine OOM retryability split.

:class:`SimulatedOutOfMemory`
    A simulated worker exceeded its per-partition memory budget.  Lives
    here (rather than in :mod:`repro.dataflow.engine`, which re-exports
    it) so the task runner can classify it without a circular import:
    a *genuine* budget OOM is deterministic and must not be retried —
    re-running the same task against the same budget fails identically,
    so it fails the job (the paper's Figure 7/13 "failed" cells).  An
    *injected* OOM is transient by construction and is retried like any
    other fault.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.retry import RetryPolicy as _SharedRetryPolicy
from repro.core.retry import SimulatedClock  # noqa: F401 - re-exported API

#: The recognised fault kinds, in the order the plan's rates are stacked.
TRANSIENT = "transient"
CRASH = "crash"
STRAGGLER = "straggler"
OOM = "oom"

FAULT_KINDS = (TRANSIENT, CRASH, STRAGGLER, OOM)

#: Moments a driver crash point can fire, relative to a checkpoint boundary.
BEFORE = "before"
AFTER = "after"
CRASH_MOMENTS = (BEFORE, AFTER)

#: Exit status of a driver aborted by an injected crash point — distinct
#: from every normal failure path so tests and CI can assert that the
#: process died at the injection, not on a real error.
DRIVER_CRASH_EXIT_CODE = 47


class SimulatedOutOfMemory(MemoryError):
    """A simulated worker exceeded its per-partition memory budget."""

    def __init__(self, stage: str, records: int, budget: int) -> None:
        super().__init__(
            f"stage {stage!r}: worker needed {records} in-memory records, "
            f"budget is {budget}"
        )
        self.stage = stage
        self.records = records
        self.budget = budget


class InjectedTaskFault(RuntimeError):
    """A transient task failure injected by a :class:`FaultPlan`."""

    def __init__(self, stage: str, task_index: int, attempt: int) -> None:
        super().__init__(
            f"injected transient fault: stage {stage!r} task {task_index} "
            f"attempt {attempt}"
        )
        self.stage = stage
        self.task_index = task_index
        self.attempt = attempt


class SimulatedWorkerCrash(RuntimeError):
    """An injected worker death: the task's work is lost and re-executed."""

    def __init__(self, stage: str, task_index: int, attempt: int) -> None:
        super().__init__(
            f"injected worker crash: stage {stage!r} task {task_index} "
            f"attempt {attempt}"
        )
        self.stage = stage
        self.task_index = task_index
        self.attempt = attempt


_SCALE = float(1 << 64)


def _uniform(seed: int, stage: str, task_index: int) -> float:
    """A deterministic uniform draw in [0, 1) for one task slot.

    BLAKE2b rather than ``random``: the draw must not depend on call
    order nor on ``PYTHONHASHSEED``.
    """
    digest = hashlib.blake2b(
        f"{seed}|{stage}|{task_index}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / _SCALE


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of per-task fault injections.

    Parameters
    ----------
    seed:
        Drives every probabilistic decision; two plans with the same seed
        and rates inject exactly the same faults.
    transient_rate / crash_rate / straggler_rate / oom_rate:
        Per-task probabilities of each fault kind (stacked in that
        order, so their sum must stay <= 1).
    straggler_seconds:
        Real extra latency a straggler task sleeps before running.
    fire_attempts:
        Faults fire only on the first this-many attempts of a task, so a
        bounded :class:`RetryPolicy` always recovers (the default 1 means
        every injected fault is transient: the first retry succeeds).
    forced:
        Explicit ``(stage_substring, task_index, kind)`` triples injected
        on top of the probabilistic schedule — how tests pin "at least
        one transient failure in each phase and one worker crash".
    driver_crash_rate:
        Per-boundary probability of a *driver* crash: the whole process
        aborts (``os._exit``) at a checkpoint boundary instead of one
        task failing.  Only meaningful when checkpointing is on — the
        checkpoint manager is what evaluates the boundary decisions.
    driver_crashes:
        Explicit ``(moment, step_substring)`` pairs forcing a driver
        crash before/after a named checkpoint boundary (``moment`` is
        ``"before"`` or ``"after"``); how the CLI's ``--crash-point``
        and the crash-resume tests pin a kill at each phase boundary.
    """

    seed: int = 0
    transient_rate: float = 0.05
    crash_rate: float = 0.02
    straggler_rate: float = 0.02
    oom_rate: float = 0.0
    straggler_seconds: float = 0.002
    fire_attempts: int = 1
    forced: Tuple[Tuple[str, int, str], ...] = ()
    driver_crash_rate: float = 0.0
    driver_crashes: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        rates = (
            self.transient_rate,
            self.crash_rate,
            self.straggler_rate,
            self.oom_rate,
        )
        if any(rate < 0.0 for rate in rates) or sum(rates) > 1.0:
            raise ValueError("fault rates must be >= 0 and sum to <= 1")
        if not 0.0 <= self.driver_crash_rate <= 1.0:
            raise ValueError("driver_crash_rate must be in [0, 1]")
        if self.fire_attempts < 1:
            raise ValueError("fire_attempts must be >= 1")
        for entry in self.forced:
            if len(entry) != 3 or entry[2] not in FAULT_KINDS:
                raise ValueError(f"bad forced fault {entry!r}")
        for entry in self.driver_crashes:
            if len(entry) != 2 or entry[0] not in CRASH_MOMENTS:
                raise ValueError(f"bad driver crash point {entry!r}")

    def decide(self, stage: str, task_index: int, attempt: int) -> Optional[str]:
        """The fault kind for this task slot, or ``None`` for a clean run."""
        if attempt >= self.fire_attempts:
            return None
        for stage_substring, index, kind in self.forced:
            if index == task_index and stage_substring in stage:
                return kind
        draw = _uniform(self.seed, stage, task_index)
        for kind, rate in (
            (TRANSIENT, self.transient_rate),
            (CRASH, self.crash_rate),
            (STRAGGLER, self.straggler_rate),
            (OOM, self.oom_rate),
        ):
            if draw < rate:
                return kind
            draw -= rate
        return None

    def decide_driver_crash(self, step: str, moment: str, attempt: int) -> bool:
        """Whether the driver should abort at this checkpoint boundary.

        ``attempt`` counts how many times this exact boundary has already
        crashed (the checkpoint manifest persists the count across
        process deaths), so ``fire_attempts`` bounds driver crashes the
        same way it bounds task faults: the resumed run passes.
        """
        if attempt >= self.fire_attempts:
            return False
        for forced_moment, step_substring in self.driver_crashes:
            if forced_moment == moment and step_substring in step:
                return True
        draw = _uniform(self.seed, f"driver|{moment}|{step}", 0)
        return draw < self.driver_crash_rate

    def raise_for(self, kind: str, stage: str, task_index: int, attempt: int) -> None:
        """Execute the side effect of one decided fault."""
        if kind == TRANSIENT:
            raise InjectedTaskFault(stage, task_index, attempt)
        if kind == CRASH:
            raise SimulatedWorkerCrash(stage, task_index, attempt)
        if kind == OOM:
            # records/budget carry the slot so the exception is traceable
            # back to the injection rather than to a real budget breach.
            raise SimulatedOutOfMemory(stage, task_index + 1, 0)
        if kind == STRAGGLER:
            time.sleep(self.straggler_seconds)


@dataclass(frozen=True)
class RetryPolicy(_SharedRetryPolicy):
    """The engine's task-retry policy on a simulated clock.

    The schedule (bounded exponential backoff, optional seeded jitter)
    is :class:`repro.core.retry.RetryPolicy`, unchanged; waits are
    charged to a :class:`~repro.core.retry.SimulatedClock` by the
    task runner.  Only retryability differs: the engine distinguishes
    *injected* faults (always transient) from a *genuine* simulated OOM
    (deterministic, never retryable).
    """

    def is_retryable(  # type: ignore[override] - engine adds `injected`
        self, error: BaseException, injected: Optional[str] = None
    ) -> bool:
        """Whether re-executing the task can possibly change the outcome.

        A genuine :class:`SimulatedOutOfMemory` is deterministic — the
        same task against the same budget fails identically — so it is
        only retryable when this very slot *injected* it.  Everything
        else that is an ``Exception`` (transient task errors, simulated
        worker crashes) is retryable; ``KeyboardInterrupt`` and
        friends are not.
        """
        if isinstance(error, SimulatedOutOfMemory):
            return injected == OOM
        return isinstance(error, Exception)
