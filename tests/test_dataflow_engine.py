"""Tests for the simulated dataflow engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataflow.engine import (
    DataSet,
    ExecutionEnvironment,
    SimulatedOutOfMemory,
    _BucketSink,
    record_cells,
)
from repro.dataflow.hashing import hash_partition, stable_hash
from repro.rdf.model import Attr


def env(parallelism=3, **kwargs):
    return ExecutionEnvironment(parallelism=parallelism, **kwargs)


class TestConstruction:
    def test_parallelism_must_be_positive(self):
        with pytest.raises(ValueError):
            ExecutionEnvironment(parallelism=0)

    def test_from_collection_partitions_all_records(self):
        ds = env(4).from_collection(range(10))
        assert ds.count() == 10
        assert len(ds.partitions) == 4

    def test_from_partitions_pads_to_parallelism(self):
        ds = env(4).from_partitions([[1, 2], [3]])
        assert len(ds.partitions) == 4
        assert ds.count() == 3

    def test_from_partitions_merges_excess(self):
        ds = env(2).from_partitions([[1], [2], [3], [4]])
        assert len(ds.partitions) == 2
        assert sorted(ds.collect()) == [1, 2, 3, 4]


class TestElementWise:
    def test_map(self):
        ds = env().from_collection(range(6)).map(lambda x: x * 2)
        assert sorted(ds.collect()) == [0, 2, 4, 6, 8, 10]

    def test_flat_map(self):
        ds = env().from_collection(range(3)).flat_map(lambda x: [x] * x)
        assert sorted(ds.collect()) == [1, 2, 2]

    def test_filter(self):
        ds = env().from_collection(range(10)).filter(lambda x: x % 2 == 0)
        assert sorted(ds.collect()) == [0, 2, 4, 6, 8]

    def test_map_partition_receives_worker_index(self):
        ds = env(3).from_collection(range(9)).map_partition(
            lambda part, worker: [(worker, len(part))]
        )
        rows = dict(ds.collect())
        assert set(rows) == {0, 1, 2}
        assert sum(rows.values()) == 9


class TestKeyedOperators:
    @pytest.mark.parametrize("parallelism", [1, 2, 5])
    def test_reduce_by_key_counts(self, parallelism):
        words = ["a", "b", "a", "c", "b", "a"]
        counted = env(parallelism).from_collection(words).reduce_by_key(
            key_fn=lambda w: w,
            value_fn=lambda _w: 1,
            reduce_fn=lambda x, y: x + y,
        )
        assert dict(counted.collect()) == {"a": 3, "b": 2, "c": 1}

    def test_combine_reduces_shuffle_volume(self):
        environment = env(2)
        environment.from_collection(["a"] * 100).reduce_by_key(
            lambda w: w, lambda _w: 1, lambda x, y: x + y
        )
        # one pre-aggregated pair per worker moves, not one per record
        assert environment.metrics.stage_by_name("reduce_by_key").shuffled_records == 2

    @pytest.mark.parametrize("parallelism", [1, 3])
    def test_flat_map_reduce_by_key_equals_unfused(self, parallelism):
        values = list(range(40))

        def flat_fn(x):
            yield x % 5, 1
            yield x % 3, 10

        fused = dict(
            env(parallelism)
            .from_collection(values)
            .flat_map_reduce_by_key(flat_fn, lambda a, b: a + b)
            .collect()
        )
        unfused = dict(
            env(parallelism)
            .from_collection(values)
            .flat_map(lambda x: list(flat_fn(x)))
            .reduce_by_key(
                lambda p: p[0], lambda p: p[1], lambda a, b: a + b
            )
            .collect()
        )
        assert fused == unfused

    def test_flat_map_reduce_state_budget(self):
        environment = env(1, memory_budget=10)
        ds = environment.from_collection(range(10))
        with pytest.raises(SimulatedOutOfMemory):
            # each record contributes a fresh key with cost 5
            ds.flat_map_reduce_by_key(
                lambda x: [(x, {x})],
                lambda a, b: a | b,
                state_cost_fn=lambda value: 5,
            )

    def test_flat_map_reduce_tracks_peak_state(self):
        environment = env(1)
        environment.from_collection(range(8)).flat_map_reduce_by_key(
            lambda x: [(x % 2, frozenset([x]))],
            lambda a, b: a | b,
            state_cost_fn=len,
        )
        stage = environment.metrics.stage_by_name("flat_map_reduce_by_key")
        assert stage.peak_state_cost == 8

    def test_peak_state_cost_is_the_running_peak(self):
        """State that shrinks as it folds reports the most it held: a
        budget of exactly that passes, one cell less trips that stage."""
        items = [
            ("a", frozenset(range(5))),
            ("b", frozenset(range(4))),
            ("a", frozenset([0])),
            ("b", frozenset([0])),
        ]

        def run(budget):
            environment = env(1, memory_budget=budget)
            environment.from_collection(items).flat_map_reduce_by_key(
                lambda pair: [pair], lambda a, b: a & b, state_cost_fn=len,
                name="shrink",
            ).collect()
            return environment.metrics.stage_by_name("shrink").peak_state_cost

        peak = run(None)
        assert peak == 9  # the table ends at 2
        assert run(peak) == peak
        with pytest.raises(SimulatedOutOfMemory) as raised:
            run(peak - 1)
        assert raised.value.stage == "shrink" and raised.value.records == peak

    def test_co_group_inner_and_outer(self):
        left = env(2).from_collection([("a", 1), ("b", 2)])
        right = left.env.from_collection([("b", 20), ("c", 30)])

        def join(key, lefts, rights):
            yield key, [v for _k, v in lefts], [v for _k, v in rights]

        rows = {key: (l, r) for key, l, r in left.co_group(
            right, lambda p: p[0], lambda p: p[0], join
        ).collect()}
        assert rows["a"] == ([1], [])
        assert rows["b"] == ([2], [20])
        assert rows["c"] == ([], [30])


class TestStageAccounting:
    """A keyed operator's two stages report one entry per worker."""

    def test_co_group_reports_one_entry_per_worker(self):
        with env(3) as environment:
            left = environment.from_collection(range(10), name="left")
            right = environment.from_collection(range(5, 12), name="right")
            left.co_group(
                right, lambda x: x, lambda x: x, lambda k, l, r: [(k, l, r)], name="j"
            )
            shuffle_stage = environment.metrics.stage_by_name("j")
            apply_stage = environment.metrics.stage_by_name("j/apply")
        # left + right of a worker summed: sizes 4,3,3 and 3,2,2
        assert shuffle_stage.records_in == [7, 5, 5]
        assert shuffle_stage.records_out == [7, 5, 5]
        assert shuffle_stage.shuffled_records == 17
        assert len(shuffle_stage.partition_seconds) == 3
        assert sum(apply_stage.records_in) == 17
        assert len(apply_stage.partition_seconds) == 3
        assert sum(apply_stage.records_out) == 12  # keys 0..11


class TestGlobalOperators:
    def test_reduce_partitions(self):
        total = env(4).from_collection(range(10)).reduce_partitions(
            local_fn=sum, merge_fn=lambda a, b: a + b
        )
        assert total == 45

    def test_collect_preserves_all(self):
        ds = env(3).from_collection(range(7))
        assert sorted(ds.collect()) == list(range(7))

    def test_broadcast_accounts_per_worker_copies(self):
        environment = env(4)
        ds = environment.from_collection(range(5))
        values = ds.broadcast()
        assert sorted(values) == list(range(5))
        assert environment.metrics.broadcast_records == 20

    def test_count_records_no_stage(self):
        environment = env(2)
        ds = environment.from_collection(range(5))
        stages_before = len(environment.metrics.stages)
        assert ds.count() == 5
        assert len(environment.metrics.stages) == stages_before


class TestRepartitioning:
    def test_rebalance_evens_out(self):
        environment = env(4)
        ds = environment.from_partitions([[1] * 8, [], [], []]).rebalance()
        sizes = [len(p) for p in ds.partitions]
        assert max(sizes) - min(sizes) <= 1


class TestMemoryBudget:
    def test_reduce_by_key_over_budget_raises(self):
        environment = env(1, memory_budget=3)
        ds = environment.from_collection(range(10))
        with pytest.raises(SimulatedOutOfMemory):
            ds.reduce_by_key(lambda x: x, lambda x: x, lambda a, b: a)

    @pytest.mark.parametrize("operator", ["reduce_by_key", "flat_map_reduce_by_key"])
    def test_record_budget_is_checked_per_insert(self, operator):
        # One rule for every keyed operator: the insert that takes the
        # combine table over the budget raises, under the operator's name.
        ds = env(1, memory_budget=3).from_collection(range(10))
        with pytest.raises(SimulatedOutOfMemory) as raised:
            if operator == "reduce_by_key":
                ds.reduce_by_key(lambda x: x, lambda x: x, lambda a, b: a, name="op")
            else:
                ds.flat_map_reduce_by_key(
                    lambda x: [(x, x)], lambda a, b: a, name="op"
                )
        assert raised.value.stage == "op"
        assert raised.value.budget == 3
        assert raised.value.records == 4

    def test_reduce_side_overrun_is_reported_under_its_stage(self):
        # Two workers hold three keys each (within budget); the one
        # reduce bucket that receives both keys' tables does not fit.
        environment = env(2, memory_budget=3)
        ds = environment.from_collection([0, 1, 2, 3, 4, 5])
        with pytest.raises(SimulatedOutOfMemory) as raised:
            ds.reduce_by_key(lambda x: 2 * x, lambda x: x, lambda a, b: a, name="op")
        assert raised.value.stage == "op/reduce"
        assert raised.value.budget == 3

    def test_reduce_by_key_reports_peak_state_cost(self):
        environment = env(1)
        environment.from_collection([1, 2, 3, 1, 2, 1]).reduce_by_key(
            lambda x: x, lambda x: x, lambda a, b: a + b
        )
        assert environment.metrics.stage_by_name("reduce_by_key").peak_state_cost == 3

    def test_collect_over_budget_raises(self):
        environment = env(1, memory_budget=3)
        ds = environment.from_collection(range(10))
        with pytest.raises(SimulatedOutOfMemory):
            ds.collect()

    def test_within_budget_passes(self):
        environment = env(1, memory_budget=100)
        ds = environment.from_collection(range(10))
        assert len(ds.collect()) == 10

    def test_error_reports_stage_and_sizes(self):
        try:
            env(1, memory_budget=2).from_collection(range(9)).collect()
        except SimulatedOutOfMemory as error:
            assert error.budget == 2
            assert error.records > 2
        else:  # pragma: no cover
            pytest.fail("expected SimulatedOutOfMemory")


class TestSourceCostAccounting:
    def test_record_cells_pricing(self):
        assert record_cells(7) == 1
        assert record_cells("ab") == 1
        assert record_cells("x" * 16) == 3
        assert record_cells((1, 2, 3)) == 3  # an EncodedTriple
        assert record_cells(((1, 2), "12345678")) == 4

    def test_uncosted_source_holds_records_for_free(self):
        environment = env(1, memory_budget=10)
        ds = environment.from_collection([(1, 2, 3)] * 6)
        assert ds.count() == 6


class TestMetrics:
    def test_stage_recorded_per_operator(self):
        environment = env(2)
        environment.from_collection(range(4)).map(lambda x: x).filter(bool)
        names = [stage.name for stage in environment.metrics.stages]
        assert names == ["source", "map", "filter"]

    def test_record_counts(self):
        environment = env(2)
        environment.from_collection(range(10)).filter(lambda x: x < 3)
        stage = environment.metrics.stage_by_name("filter")
        assert stage.total_in == 10
        assert stage.total_out == 3

    def test_simulated_time_nonnegative_and_bounded_by_cpu(self):
        environment = env(4)
        environment.from_collection(range(100)).map(lambda x: x * x)
        metrics = environment.metrics
        assert 0 <= metrics.simulated_parallel_seconds <= metrics.total_cpu_seconds + 1e-9

    def test_summary_keys(self):
        environment = env(2)
        environment.from_collection(range(4))
        summary = environment.metrics.summary()
        assert {"parallelism", "stages", "simulated_parallel_seconds"} <= set(summary)

    def test_describe_contains_stage_lines(self):
        environment = env(2)
        environment.from_collection(range(4)).map(lambda x: x)
        text = environment.metrics.describe()
        assert "map" in text and "TOTAL" in text


class TestParallelismInvariance:
    @given(
        st.lists(st.integers(-50, 50), max_size=60),
        st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=40, deadline=None)
    def test_pipeline_result_independent_of_parallelism(self, values, parallelism):
        def run(par):
            ds = ExecutionEnvironment(parallelism=par).from_collection(values)
            counted = (
                ds.map(lambda x: x % 7)
                .filter(lambda x: x != 3)
                .reduce_by_key(lambda x: x, lambda _x: 1, lambda a, b: a + b)
            )
            return sorted(counted.collect())

        assert run(parallelism) == run(1)


class TestBatchDatasets:
    class _FakeBatch:
        """Minimal batch: prices itself for the record budget."""

        def __init__(self, items):
            self.items = items
            self.budget_cells = 3 * len(items)

        def __len__(self):
            return len(self.items)

    def test_record_cells_honors_budget_cells(self):
        batch = self._FakeBatch([1, 2, 3, 4])
        assert record_cells(batch) == 12

    def test_from_batches_accounts_logical_sizes(self):
        environment = env(2)
        batches = [self._FakeBatch([1, 2, 3]), self._FakeBatch([4, 5])]
        ds = environment.from_batches(batches, sizes=[3, 2])
        stage = environment.metrics.stage_by_name("source/batches")
        assert stage.records_in == [3, 2]
        assert ds._partition_sizes() == [3, 2]
        assert ds._total_records() == 5

    def test_from_batches_validates_shape(self):
        environment = env(2)
        with pytest.raises(ValueError):
            environment.from_batches([self._FakeBatch([1])], sizes=[1])
        with pytest.raises(ValueError):
            environment.from_batches(
                [self._FakeBatch([1]), self._FakeBatch([2])], sizes=[1]
            )

    def test_from_batches_charges_cost_fn_against_budget(self):
        environment = env(2, memory_budget=4)
        batches = [self._FakeBatch([1, 2]), self._FakeBatch([3, 4])]
        with pytest.raises(SimulatedOutOfMemory):
            environment.from_batches(batches, sizes=[2, 2], cost_fn=record_cells)

    def test_downstream_stages_see_logical_records(self):
        environment = env(2)
        batches = [self._FakeBatch([1, 2, 3]), self._FakeBatch([4, 5])]
        ds = environment.from_batches(batches, sizes=[3, 2])
        flattened = ds.flat_map(lambda batch: list(batch.items), name="unbatch")
        assert sorted(flattened.collect()) == [1, 2, 3, 4, 5]


class TestFusedFastPath:
    """The unpriced fused-combine loop must match the priced one."""

    @pytest.mark.parametrize("parallelism", [1, 3])
    def test_budgeted_and_unbudgeted_fusion_agree(self, parallelism):
        values = list(range(60))

        def flat_fn(x):
            yield x % 7, 1
            yield x % 4, 10

        def run(**kwargs):
            return (
                env(parallelism, **kwargs)
                .from_collection(values)
                .flat_map_reduce_by_key(flat_fn, lambda a, b: a + b)
                .collect()
            )

        assert run() == run(memory_budget=10_000)


class TestIntRouting:
    """``_BucketSink.finish`` routes an int key through its own inlined
    splitmix64; the route must be ``hash_partition``'s."""

    @staticmethod
    def route(key, parallelism):
        parts = _BucketSink(parallelism, None, None, "route").finish([(key, "v")])
        (index,) = [i for i, part in enumerate(parts) if part]
        assert parts[index] == [(key, "v")]
        return index

    @given(
        key=st.one_of(
            st.integers(-(2**70), 2**70),
            st.integers(2**63, 2**66),
            st.integers(0, 2**40),
        ),
        parallelism=st.integers(1, 9),
    )
    @settings(max_examples=300, deadline=None)
    def test_int_route_is_the_stable_route(self, key, parallelism):
        assert self.route(key, parallelism) == hash_partition(key, parallelism)
        assert self.route(key, parallelism) == stable_hash(key) % parallelism

    def test_bools_keep_their_own_route(self):
        assert stable_hash(True) != stable_hash(1)
        assert stable_hash(False) != stable_hash(0)
        for parallelism in range(1, 10):
            for flag in (True, False):
                assert self.route(flag, parallelism) == stable_hash(flag) % parallelism
        assert any(
            self.route(flag, parallelism) != self.route(int(flag), parallelism)
            for parallelism in range(2, 10)
            for flag in (True, False)
        )

    def test_other_keys_take_hash_partition(self):
        for key in ("s", b"b", (1, 2), (1, (2, "x")), frozenset({3, 4}), None, Attr.O):
            for parallelism in (1, 4, 7):
                assert self.route(key, parallelism) == hash_partition(key, parallelism)
