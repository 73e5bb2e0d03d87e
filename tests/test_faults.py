"""Fault tolerance: deterministic injection and retry.

The acceptance criterion mirrors Flink's recovery guarantee: with a seeded
FaultPlan injecting transient failures, worker crashes, and stragglers,
discovery output must be byte-identical to a fault-free run — on both the
serial and the process backend — and the metrics must account for every
injection and retry.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.discovery import RDFind, RDFindConfig
from repro.dataflow.engine import SimulatedOutOfMemory
from repro.dataflow.executors import (
    EXECUTOR_NAMES,
    ProcessExecutor,
    SerialExecutor,
)
from repro.dataflow.faults import (
    CRASH,
    OOM,
    STRAGGLER,
    TRANSIENT,
    FaultPlan,
    InjectedTaskFault,
    RetryPolicy,
    SimulatedClock,
    SimulatedWorkerCrash,
)
from repro.dataflow.metrics import StageMetrics
from tests.conftest import ar_set, cind_set, random_rdf


# ----------------------------------------------------------------------
# the plan: deterministic, seeded, order-independent
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        plan = FaultPlan(seed=7, transient_rate=0.3, crash_rate=0.1)
        decisions = [plan.decide("stage-a", i, 0) for i in range(200)]
        assert decisions == [plan.decide("stage-a", i, 0) for i in range(200)]

    def test_seed_changes_schedule(self):
        low = FaultPlan(seed=1, transient_rate=0.3)
        high = FaultPlan(seed=2, transient_rate=0.3)
        assert [low.decide("s", i, 0) for i in range(100)] != [
            high.decide("s", i, 0) for i in range(100)
        ]

    def test_rates_approximate_probabilities(self):
        plan = FaultPlan(seed=3, transient_rate=0.2, crash_rate=0.1)
        decisions = [plan.decide("s", i, 0) for i in range(2000)]
        transient = decisions.count(TRANSIENT) / len(decisions)
        crash = decisions.count(CRASH) / len(decisions)
        assert 0.15 < transient < 0.25
        assert 0.06 < crash < 0.14

    def test_faults_stop_after_fire_attempts(self):
        plan = FaultPlan(seed=0, forced=(("s", 0, TRANSIENT),), fire_attempts=1)
        assert plan.decide("s", 0, 0) == TRANSIENT
        assert plan.decide("s", 0, 1) is None

    def test_forced_matches_stage_substring(self):
        plan = FaultPlan(
            seed=0,
            transient_rate=0.0,
            crash_rate=0.0,
            straggler_rate=0.0,
            forced=(("fc/", 1, CRASH),),
        )
        assert plan.decide("fc/unary-columnar", 1, 0) == CRASH
        assert plan.decide("cg/group-by-value", 1, 0) is None
        assert plan.decide("fc/unary-columnar", 0, 0) is None

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            FaultPlan(transient_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(transient_rate=0.6, crash_rate=0.6)

    def test_rejects_bad_forced_kind(self):
        with pytest.raises(ValueError):
            FaultPlan(forced=(("s", 0, "meteor"),))

    def test_plan_pickles(self):
        plan = FaultPlan(seed=42, forced=(("s", 0, TRANSIENT),))
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_raise_for_kinds(self):
        plan = FaultPlan(straggler_seconds=0.0)
        with pytest.raises(InjectedTaskFault):
            plan.raise_for(TRANSIENT, "s", 0, 0)
        with pytest.raises(SimulatedWorkerCrash):
            plan.raise_for(CRASH, "s", 0, 0)
        with pytest.raises(SimulatedOutOfMemory):
            plan.raise_for(OOM, "s", 0, 0)
        plan.raise_for(STRAGGLER, "s", 0, 0)  # slows down, does not raise


# ----------------------------------------------------------------------
# the policy: bounded retries, backoff on a simulated clock
# ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_schedule(self):
        policy = RetryPolicy(backoff_seconds=0.1, backoff_factor=2.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)

    def test_backoff_is_capped(self):
        policy = RetryPolicy(
            backoff_seconds=1.0, backoff_factor=10.0, max_backoff_seconds=5.0
        )
        assert policy.delay(4) == 5.0

    def test_genuine_oom_is_not_retryable(self):
        policy = RetryPolicy()
        error = SimulatedOutOfMemory("s", 100, 10)
        assert not policy.is_retryable(error, injected=None)
        assert policy.is_retryable(error, injected=OOM)

    def test_ordinary_exceptions_are_retryable(self):
        policy = RetryPolicy()
        assert policy.is_retryable(InjectedTaskFault("s", 0, 0), injected=TRANSIENT)
        assert policy.is_retryable(RuntimeError("boom"), injected=None)
        assert not policy.is_retryable(KeyboardInterrupt(), injected=None)

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)

    def test_clock_accumulates_instead_of_sleeping(self):
        clock = SimulatedClock()
        clock.sleep(0.5)
        clock.sleep(0.25)
        assert clock.elapsed == pytest.approx(0.75)


# ----------------------------------------------------------------------
# executor-level recovery
# ----------------------------------------------------------------------


def _square(x):
    return x * x


def _crash_forcing_plan(kind, task_index=1):
    return FaultPlan(
        seed=0,
        transient_rate=0.0,
        crash_rate=0.0,
        straggler_rate=0.0,
        forced=(("work", task_index, kind),),
    )


class TestSerialExecutorRecovery:
    @pytest.mark.parametrize("kind", [TRANSIENT, CRASH, OOM])
    def test_recovers_and_counts(self, kind):
        stage = StageMetrics(name="work")
        executor = SerialExecutor(fault_plan=_crash_forcing_plan(kind))
        results = executor.run(_square, list(range(6)), records=6, stage=stage)
        assert results == [x * x for x in range(6)]
        assert stage.faults_injected == 1
        assert stage.retries == 1
        assert executor.clock.elapsed > 0

    def test_straggler_slows_but_succeeds(self):
        plan = FaultPlan(
            seed=0,
            transient_rate=0.0,
            crash_rate=0.0,
            straggler_rate=0.0,
            straggler_seconds=0.0,
            forced=(("work", 0, STRAGGLER),),
        )
        stage = StageMetrics(name="work")
        executor = SerialExecutor(fault_plan=plan)
        assert executor.run(_square, [3], records=1, stage=stage) == [9]
        assert stage.faults_injected == 1
        assert stage.retries == 0

    def test_exhausted_retries_raise(self):
        plan = FaultPlan(
            seed=0,
            transient_rate=0.0,
            crash_rate=0.0,
            straggler_rate=0.0,
            fire_attempts=5,
            forced=(("work", 0, TRANSIENT),),
        )
        stage = StageMetrics(name="work")
        executor = SerialExecutor(
            retry_policy=RetryPolicy(max_retries=2), fault_plan=plan
        )
        with pytest.raises(InjectedTaskFault):
            executor.run(_square, [1], records=1, stage=stage)
        assert stage.retries == 2

    def test_genuine_error_without_plan_retries(self):
        calls = []

        def flaky(payload):
            calls.append(payload)
            if len(calls) == 1:
                raise RuntimeError("transient glitch")
            return payload

        stage = StageMetrics(name="work")
        executor = SerialExecutor()
        assert executor.run(flaky, [7], records=1, stage=stage) == [7]
        assert stage.retries == 1


class TestProcessExecutorRecovery:
    def _run(self, plan, payload_count=6, **kwargs):
        stage = StageMetrics(name="work")
        executor = ProcessExecutor(
            workers=2, inline_threshold=0, fault_plan=plan, **kwargs
        )
        try:
            results = executor.run(
                _square,
                list(range(payload_count)),
                records=payload_count,
                stage=stage,
            )
        finally:
            executor.close()
        return results, stage

    def test_transient_fault_recovered_in_pool(self):
        results, stage = self._run(_crash_forcing_plan(TRANSIENT))
        assert results == [x * x for x in range(6)]
        assert stage.faults_injected == 1
        assert stage.retries == 1

    def test_worker_crash_rebuilds_pool_once(self):
        """An injected BrokenExecutor travels the real pool-breakage path:
        teardown, one rebuild, replay of the unfinished tasks."""
        results, stage = self._run(_crash_forcing_plan(CRASH))
        assert results == [x * x for x in range(6)]
        assert stage.faults_injected == 1
        assert stage.retries >= 1

    def test_injected_oom_is_retried(self):
        results, stage = self._run(_crash_forcing_plan(OOM))
        assert results == [x * x for x in range(6)]
        assert stage.retries == 1

    def test_below_threshold_runs_inline_with_recovery(self):
        stage = StageMetrics(name="work")
        executor = ProcessExecutor(fault_plan=_crash_forcing_plan(TRANSIENT), workers=2)
        # records=None means "size unknown" and must run inline (no pool).
        results = executor.run(_square, list(range(4)), records=None, stage=stage)
        assert results == [x * x for x in range(4)]
        assert executor._pool is None
        executor.close()


# ----------------------------------------------------------------------
# exceptions survive pickling (pool boundary + retry replay)
# ----------------------------------------------------------------------


class TestFaultExceptionPickling:
    def test_oom_survives_retry_and_reraise_cycle(self):
        """The __reduce__ satellite: catch, pickle, unpickle, re-raise —
        the cycle a pool worker's failure goes through — must preserve
        the structured fields each time around."""
        original = SimulatedOutOfMemory("cg/group-by-value", 999, 100)
        for _round in range(3):
            payload = pickle.dumps(original)
            clone = pickle.loads(payload)
            with pytest.raises(SimulatedOutOfMemory) as excinfo:
                raise clone
            original = excinfo.value
        assert (original.stage, original.records, original.budget) == (
            "cg/group-by-value",
            999,
            100,
        )

    def test_injected_fault_pickles(self):
        clone = pickle.loads(pickle.dumps(InjectedTaskFault("s", 3, 1)))
        assert (clone.stage, clone.task_index, clone.attempt) == ("s", 3, 1)

    def test_worker_crash_pickles(self):
        clone = pickle.loads(pickle.dumps(SimulatedWorkerCrash("s", 2, 0)))
        assert isinstance(clone, SimulatedWorkerCrash)
        assert (clone.stage, clone.task_index, clone.attempt) == ("s", 2, 0)


# ----------------------------------------------------------------------
# end-to-end: faulty discovery == clean discovery (the acceptance test)
# ----------------------------------------------------------------------


#: At least one transient failure in each pipeline phase (frequent
#: conditions, capture groups, extraction) plus one worker crash.
PHASE_FAULTS = (
    ("fc/unary-frequent", 0, TRANSIENT),
    ("cg/expand", 0, TRANSIENT),
    ("ex/merge-candidates", 0, TRANSIENT),
    ("cg/group-by-value", 1, CRASH),
)


def _discover(dataset, executor, **overrides):
    config = RDFindConfig(
        support_threshold=overrides.pop("support_threshold", 2),
        executor=executor,
        workers=overrides.pop("workers", 2),
        **overrides,
    )
    return RDFind(config).discover(dataset)


class TestFaultyDiscoveryEquivalence:
    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_forced_phase_faults_recovered(self, executor):
        dataset = random_rdf(3, n_triples=200)
        clean = _discover(dataset, executor)
        plan = FaultPlan(
            seed=0,
            transient_rate=0.0,
            crash_rate=0.0,
            straggler_rate=0.0,
            forced=PHASE_FAULTS,
        )
        faulty = _discover(dataset, executor, fault_plan=plan)
        assert faulty.cinds == clean.cinds
        assert faulty.association_rules == clean.association_rules
        assert cind_set(faulty) == cind_set(clean)
        assert ar_set(faulty) == ar_set(clean)
        assert faulty.metrics.total_faults_injected >= len(PHASE_FAULTS)
        assert faulty.metrics.total_retries >= len(PHASE_FAULTS)
        assert clean.metrics.total_faults_injected == 0

    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_seeded_random_faults_recovered(self, executor):
        dataset = random_rdf(5, n_triples=150)
        clean = _discover(dataset, executor)
        faulty = _discover(dataset, executor, fault_seed=1234)
        assert faulty.cinds == clean.cinds
        assert faulty.association_rules == clean.association_rules
        # The default rates hit a ~190-stage pipeline with certainty.
        assert faulty.metrics.total_faults_injected > 0
        assert faulty.metrics.total_retries > 0

    def test_fault_seed_env_default(self, monkeypatch):
        monkeypatch.setenv("RDFIND_FAULTS", "99")
        monkeypatch.setenv("RDFIND_MAX_RETRIES", "5")
        config = RDFindConfig()
        assert config.fault_seed == 99
        assert config.max_retries == 5
        assert config.effective_fault_plan() == FaultPlan(seed=99)
        assert config.effective_retry_policy() == RetryPolicy(max_retries=5)

    def test_no_plan_by_default(self):
        config = RDFindConfig()
        assert config.effective_fault_plan() is None
        assert config.effective_retry_policy() is None

    def test_summary_reports_fault_counters(self):
        dataset = random_rdf(5, n_triples=60)
        result = _discover(dataset, "serial", fault_seed=7)
        summary = result.metrics.summary()
        assert summary["faults_injected"] == result.metrics.total_faults_injected
        assert summary["retries"] == result.metrics.total_retries
        assert "faults=" in result.metrics.describe()

