"""The dataflow engine's task runner: faults injected, failures retried.

The engine expresses every operator as *per-partition tasks*: module-level
functions applied to one partition's payload, returning the partition's
result plus the time the simulated worker spent on it.
:class:`SerialExecutor` runs those tasks one after another in the driver
process — deterministic, with no pickling constraints — and the engine's
metrics turn their per-partition times into what a cluster would have
achieved (the paper's Figures 9, 12 and 13 read that simulated clock).

The runner is *fault tolerant* (:mod:`repro.dataflow.faults`): tasks are
pure functions over their payloads, so a failed task is simply
re-executed under a bounded :class:`~repro.dataflow.faults.RetryPolicy`
(exponential backoff charged to a simulated clock).  Results are kept in
submission order, so a recovered run is byte-identical to a clean one.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from repro.dataflow.faults import FaultPlan, RetryPolicy, SimulatedClock


class SerialExecutor:
    """Run every task inline in the driver, injecting and retrying faults."""

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
        stage=None,
    ) -> List[Any]:
        """Apply ``task`` to each payload in order, retrying failures.

        ``stage`` is the driver's :class:`~repro.dataflow.metrics.StageMetrics`
        record (or ``None``); only its fault counters are touched here.
        """
        plan, policy = self.fault_plan, self.retry_policy
        stage_name = stage.name if stage is not None else ""
        results: List[Any] = []
        for index, payload in enumerate(payloads):
            attempt = 0
            while True:
                injected = (
                    plan.decide(stage_name, index, attempt) if plan is not None else None
                )
                try:
                    if injected is not None:
                        if stage is not None:
                            stage.faults_injected += 1
                        plan.raise_for(injected, stage_name, index, attempt)
                    results.append(task(payload))
                    break
                except BaseException as error:  # noqa: BLE001 - classified below
                    if attempt >= policy.max_retries or not policy.is_retryable(
                        error, injected
                    ):
                        raise
                    attempt += 1
                    if stage is not None:
                        stage.retries += 1
                    self.clock.sleep(policy.delay(attempt))
        return results
