"""Smaller cross-cutting tests: GC pausing, metrics details, misc."""

import gc

import pytest

from repro.core.discovery import RDFind, RDFindConfig
from repro.dataflow.engine import ExecutionEnvironment
from repro.dataflow.gcpause import gc_paused, stage_gc_pause
from repro.dataflow.metrics import StageMetrics
from tests.conftest import random_rdf


class TestGCPause:
    def test_disables_and_restores(self):
        assert gc.isenabled()
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_nested_pauses_restore_outer_state(self):
        with gc_paused():
            with gc_paused():
                assert not gc.isenabled()
            # inner exit must not re-enable: GC was already off
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with gc_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_stage_pause_counts_suppressed_passes(self):
        threshold0 = gc.get_threshold()[0] or 700
        with stage_gc_pause() as pause:
            # Keep the allocations alive through __exit__: the gen-0
            # counter is allocations minus deallocations, so freeing
            # inside the block would cancel the delta being measured.
            garbage = [[] for _ in range(3 * threshold0)]
        assert pause.suppressed >= 1
        del garbage

    def test_quiet_stage_suppresses_nothing(self):
        with stage_gc_pause() as pause:
            pass
        assert pause.suppressed == 0

    def test_job_metrics_aggregate_suppressed_collections(self):
        dataset = random_rdf(7, n_triples=120, n_subjects=8, n_objects=8)
        result = RDFind(RDFindConfig(support_threshold=2, parallelism=3)).discover(
            dataset
        )
        total = result.metrics.total_gc_suppressed_collections
        assert total == sum(
            stage.gc_suppressed_collections for stage in result.metrics.stages
        )
        assert total >= 0


class TestStageMetricsDetails:
    def test_empty_stage_defaults(self):
        stage = StageMetrics(name="empty")
        assert stage.parallel_seconds == 0.0
        assert stage.cpu_seconds == 0.0
        assert stage.skew == 1.0
        assert "empty" in stage.describe()

    def test_skew_computation(self):
        stage = StageMetrics(
            name="s", partition_seconds=[1.0, 1.0, 4.0],
            records_in=[1, 1, 1], records_out=[1, 1, 1],
        )
        assert stage.skew == pytest.approx(2.0)

    def test_parallel_vs_cpu(self):
        stage = StageMetrics(
            name="s", partition_seconds=[0.5, 1.5],
            records_in=[1, 1], records_out=[1, 1],
        )
        assert stage.parallel_seconds == 1.5
        assert stage.cpu_seconds == 2.0


class TestCoGroupEdgeCases:
    def test_empty_sides(self):
        env = ExecutionEnvironment(parallelism=2)
        left = env.from_collection([])
        right = env.from_collection([("k", 1)])

        def fn(key, lefts, rights):
            yield key, len(lefts), len(rights)

        rows = left.co_group(right, lambda x: x[0], lambda x: x[0], fn).collect()
        assert rows == [("k", 0, 1)]

    def test_shuffle_accounting(self):
        env = ExecutionEnvironment(parallelism=2)
        left = env.from_collection([("a", 1)] * 5)
        right = env.from_collection([("a", 2)] * 3)
        left.co_group(
            right, lambda x: x[0], lambda x: x[0],
            lambda key, ls, rs: [(key, len(ls), len(rs))],
        ).collect()
        stage = env.metrics.stage_by_name("co_group")
        assert stage.shuffled_records == 8
