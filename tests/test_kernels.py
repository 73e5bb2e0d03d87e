"""The batch kernels against their record-at-a-time references.

``tests/record_oracle.py`` holds the per-triple transcriptions of
Algorithms 1-2 and the per-dependent candidate emitter.  Every kernel
must reproduce them: same count dicts, same capture-group partitions,
same broad CINDs, and — end to end, over a sampled configuration space —
the same result bytes.
"""

from __future__ import annotations

import operator
import tempfile
from dataclasses import replace
from functools import partial
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import extraction
from repro.core.capture_groups import create_capture_groups
from repro.core.conditions import Attr, ConditionScope, UnaryCondition
from repro.core.discovery import RDFind, RDFindConfig
from repro.core.extraction import ExtractionConfig, extract_broad_cinds
from repro.core.frequent_conditions import detect_frequent_conditions
from repro.core.validation import NaiveProfiler
from repro.dataflow.bloom import BloomFilter, int_key_mask
from repro.dataflow.engine import (
    ExecutionEnvironment,
    SimulatedOutOfMemory,
    record_cells,
)
from repro.dataflow.executors import ProcessExecutor, create_executor
from repro.dataflow.kernels import (
    EvidenceBatchKernel,
    batch_dataset,
    binary_counts_kernel,
    unary_counts_kernel,
)
from repro.datasets import registry
from repro.rdf.model import Dataset
from repro.storage.columnar import build_triple_batches

from tests import record_oracle
from tests.conftest import ar_set, cind_set, random_rdf
from tests.result_oracle import result_json


# ----------------------------------------------------------------------
# batch layout and pricing honesty
# ----------------------------------------------------------------------


class TestTripleBatches:
    def test_batches_reproduce_round_robin_partitioning(self):
        encoded = random_rdf(3, n_triples=50).encode()
        count = 4
        batches = build_triple_batches(encoded, count)
        rows = list(encoded)
        for index, batch in enumerate(batches):
            expected = rows[index::count]
            assert len(batch) == len(expected)
            assert list(zip(*batch.columns)) == [tuple(t) for t in expected]

    def test_batch_dataset_matches_from_collection_layout(self):
        encoded = random_rdf(4, n_triples=40).encode()
        env = ExecutionEnvironment(parallelism=3)
        triples = env.from_collection(encoded)
        batches = batch_dataset(env, encoded)
        record_partitions = triples.partitions
        for index, partition in enumerate(batches.partitions):
            (batch,) = partition
            assert list(zip(*batch.columns)) == [
                tuple(t) for t in record_partitions[index]
            ]

    def test_batch_dataset_is_the_accounted_source_stage(self):
        encoded = random_rdf(5, n_triples=30).encode()
        env = ExecutionEnvironment(parallelism=2)
        batch_dataset(env, encoded)
        (stage,) = env.metrics.stages
        assert stage.name == "source/triples"
        assert stage.records_in == [15, 15]
        assert stage.peak_state_cost == 3 * 15
        with pytest.raises(SimulatedOutOfMemory) as raised:
            batch_dataset(
                ExecutionEnvironment(parallelism=2, memory_budget=44), encoded
            )
        assert raised.value.stage == "source/triples"

    def test_record_budget_prices_batches_like_triples(self):
        encoded = random_rdf(6, n_triples=33).encode()
        batches = build_triple_batches(encoded, 4)
        assert sum(record_cells(b) for b in batches) == encoded.cells
        assert all(b.budget_cells == 3 * len(b) for b in batches)

    def test_invalid_batch_count_rejected(self):
        encoded = random_rdf(9, n_triples=10).encode()
        with pytest.raises(ValueError):
            build_triple_batches(encoded, 0)


# ----------------------------------------------------------------------
# kernels vs their record-at-a-time references
# ----------------------------------------------------------------------


def kernel_env(executor="serial", memory_budget=None):
    return ExecutionEnvironment(
        parallelism=3, executor=executor, memory_budget=memory_budget
    )


class TestKernelOracles:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_unary_counts_match_per_triple_counters(self, executor):
        encoded = random_rdf(11, n_triples=90).encode()
        scope = ConditionScope.full()
        oracle_env, env = kernel_env(), kernel_env(executor)
        oracle, _frequent = record_oracle._dataflow_unary_counts(
            oracle_env, oracle_env.from_collection(encoded), scope, 2
        )
        assert unary_counts_kernel(env, batch_dataset(env, encoded), scope, 2) == oracle

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_binary_counts_match_algorithm_1(self, executor):
        encoded = random_rdf(12, n_triples=90).encode()
        scope = ConditionScope.full()
        oracle_env, env = kernel_env(), kernel_env(executor)
        triples = oracle_env.from_collection(encoded)
        unary, _frequent = record_oracle._dataflow_unary_counts(
            oracle_env, triples, scope, 2
        )
        bloom = BloomFilter.from_items(unary, capacity=max(1, len(unary)))
        oracle, _frequent = record_oracle._dataflow_binary_counts(
            oracle_env, triples, scope, bloom, 2
        )
        batches = batch_dataset(env, encoded)
        assert binary_counts_kernel(env, batches, scope, bloom, 2) == oracle

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("pruned", [False, True])
    def test_capture_groups_match_algorithm_2(self, executor, pruned):
        self.check_capture_groups(executor, pruned)

    @staticmethod
    def check_capture_groups(executor, pruned, memory_budget=None):
        encoded = random_rdf(14, n_triples=120, n_subjects=8, n_objects=8).encode()
        scope = ConditionScope.full()
        frequent = None
        if pruned:
            fc_env = kernel_env()
            frequent = detect_frequent_conditions(
                fc_env, batch_dataset(fc_env, encoded), h=2, scope=scope
            )
        oracle_env, env = kernel_env(executor), kernel_env(executor, memory_budget)
        oracle = record_oracle.create_capture_groups(
            oracle_env, batch_dataset(oracle_env, encoded), scope, frequent
        ).partitions
        kernel = create_capture_groups(
            env, batch_dataset(env, encoded), scope, frequent
        ).partitions
        # Identical partitions, not just identical contents: the kernel
        # feeds the same shuffle routing as the per-triple evidences.
        assert kernel == oracle

    @pytest.mark.parametrize("fold_rows", [1, 2, 7])
    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("pruned", [False, True])
    def test_capture_groups_across_fold_chunks(
        self, monkeypatch, fold_rows, executor, pruned
    ):
        """A 40-row batch folded 1, 2 and 7 rows at a time: every chunk
        boundary hands the engine's combiner keys it has and has not seen,
        and the partitions — order included — stay the per-triple ones.
        A roomy budget prices the stage, so the kernel runs chunk by chunk
        (unpriced, it folds the whole partition at once)."""
        from repro.dataflow import kernels

        monkeypatch.setattr(kernels, "EVIDENCE_FOLD_ROWS", fold_rows)
        self.check_capture_groups(executor, pruned, memory_budget=10**9)

    @given(
        st.lists(st.integers(0, 400), max_size=40),
        st.lists(st.lists(st.integers(0, 400), max_size=60), max_size=5),
    )
    def test_passing_ids_remember_decisions_not_answers(self, members, columns):
        """Every column gets the ids a fresh probe passes, whatever was
        decided for earlier columns; each id is probed once per filter."""
        from repro.dataflow.kernels import _passing_ids

        bloom = BloomFilter.from_items(
            [UnaryCondition(1, value) for value in members], capacity=40
        )
        for column in columns:
            assert _passing_ids(column, 1, bloom) == {
                value for value in column if UnaryCondition(1, value) in bloom
            }
            assert _passing_ids(column, 1, None) == set(column)
        seen, passed = bloom.decisions.get(1, (set(), set()))
        assert seen == {value for column in columns for value in column}
        assert passed == {value for value in seen if UnaryCondition(1, value) in bloom}
        assert set(bloom.decisions) <= {1}

    def test_capture_group_kernel_with_restricted_scope(self):
        encoded = random_rdf(15, n_triples=80).encode()
        scope = ConditionScope.predicates_only()
        env1, env2 = kernel_env(), kernel_env()
        oracle = record_oracle.create_capture_groups(
            env1, batch_dataset(env1, encoded), scope, None
        ).partitions
        kernel = create_capture_groups(
            env2, batch_dataset(env2, encoded), scope, None
        ).partitions
        assert kernel == oracle

    def test_ids_beyond_int32_are_rejected_not_miscoded(self):
        """Capture codes give the first condition value 32 bits."""
        encoded = random_rdf(17, n_triples=10).encode()
        encoded.append_ids(2**31, 0, 1)  # widens the columns to 'q'
        env = kernel_env()
        with pytest.raises(ValueError, match="term ids"):
            create_capture_groups(env, batch_dataset(env, encoded))

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("balance", [False, True])
    def test_shared_refs_match_per_dependent_candidates(self, executor, balance):
        encoded = random_rdf(16, n_triples=150, n_subjects=8, n_objects=8).encode()
        config = ExtractionConfig(h=2, balance_dominant_groups=balance)

        def extract():
            env = kernel_env(executor)
            groups = create_capture_groups(env, batch_dataset(env, encoded))
            return extract_broad_cinds(env, groups, config)

        broad, stats = extract()
        with record_oracle.per_dependent_candidates():
            oracle_broad, oracle_stats = extract()
        assert broad == oracle_broad
        assert stats == oracle_stats
        assert broad


def _pair_fold(kernel, partition, reduce_fn):
    """The table the engine's priced loop builds from ``kernel(item)``."""
    table = {}
    for item in partition:
        for key, value in kernel(item):
            previous = table.get(key)
            table[key] = value if previous is None else reduce_fn(previous, value)
    return table


class TestPartitionFolds:
    """Each keyed kernel's ``fold`` builds the table its pairs fold into."""

    @staticmethod
    def stage_inputs(kernel, scope, pruned, parallelism):
        """(flat_fn, the stage's reduce_fn factory, partitions)."""
        encoded = random_rdf(21, n_triples=150, n_subjects=8, n_objects=8).encode()
        scope = _SCOPES[scope]()
        env = ExecutionEnvironment(parallelism=parallelism)
        batches = batch_dataset(env, encoded)
        frequent = (
            detect_frequent_conditions(env, batches, h=2, scope=scope)
            if pruned
            else None
        )
        if kernel == "evidence":
            kernel_fn = EvidenceBatchKernel(scope, frequent)
            return kernel_fn, lambda: operator.ior, batches.partitions
        groups = create_capture_groups(env, batches, scope, frequent).partitions
        if kernel == "capture-support":
            return extraction._CaptureCounter(), lambda: operator.add, groups
        masks = extraction._Memo(partial(int_key_mask, num_bits=64, num_hashes=2))
        # inf: every group exact.  The median load: the larger half of
        # the groups is dominant, so exact, Bloom-valued and mixed merges
        # all occur.
        loads = sorted(len(group) ** 2 for partition in groups for group in partition)
        average_load = float("inf") if kernel == "merge" else loads[len(loads) // 2]
        return (
            extraction._SharedRefsCandidateEmitter(masks, average_load),
            partial(extraction._CandidateMerger, masks),
            groups,
        )

    @pytest.mark.parametrize("parallelism", [1, 3])
    @pytest.mark.parametrize("pruned", [False, True])
    @pytest.mark.parametrize("scope", ["full", "predicates"])
    @pytest.mark.parametrize(
        "kernel", ["evidence", "capture-support", "merge", "merge-dominant"]
    )
    def test_fold_equals_the_pair_fold(
        self, monkeypatch, kernel, scope, pruned, parallelism
    ):
        from repro.dataflow import kernels

        # The evidence kernel's pairs then come in 7-row chunk tables,
        # each folded again: keys recur across chunk boundaries.
        monkeypatch.setattr(kernels, "EVIDENCE_FOLD_ROWS", 7)
        flat_fn, reduce_fn, partitions = self.stage_inputs(
            kernel, scope, pruned, parallelism
        )
        folded_values = []
        for partition in partitions:
            expected = _pair_fold(flat_fn, partition, reduce_fn())
            folded = flat_fn.fold(partition, reduce_fn())
            # Same keys in the same first-seen order, with equal values.
            assert list(folded.items()) == list(expected.items())
            folded_values.extend(folded.values())
        assert folded_values
        if kernel == "merge-dominant":  # some candidates have Bloom lineage
            assert any(approx for _refs, _count, approx in folded_values)


class TestBloomIntKeyFastPath:
    def test_agrees_with_contains_for_int_tuple_keys(self):
        bloom = BloomFilter.for_capacity(256, 0.01)
        members = [UnaryCondition(Attr.P, v) for v in range(0, 200, 3)]
        bloom.update(members)
        probe = bloom.int_key_probe()
        probes = [UnaryCondition(Attr.P, v) for v in range(200)] + [
            (a, b) for a in range(10) for b in range(10)
        ]
        for key in probes:
            assert probe(key) == (key in bloom)

    def test_plain_int_keys(self):
        bloom = BloomFilter.from_items(range(0, 100, 7), capacity=20)
        probe = bloom.int_key_probe()
        for value in range(100):
            assert probe(value) == (value in bloom)


# ----------------------------------------------------------------------
# end to end: sampled configurations, result bytes and the naive oracle
# ----------------------------------------------------------------------


_terms = st.sampled_from(["a", "b", "c", "d", "e", "f"])
_datasets = st.lists(
    st.tuples(_terms, st.sampled_from(["p", "q", "r"]), _terms),
    min_size=1,
    max_size=40,
)
_SCOPES = {
    "full": ConditionScope.full,
    "predicates": ConditionScope.predicates_only,
}
_VARIANTS = {
    "rdfind": RDFindConfig,
    "de": RDFindConfig.direct_extraction,
    "nf": RDFindConfig.no_frequent_conditions,
}


def _pooled_executor(name, parallelism, workers=None, **kwargs):
    """``create_executor`` whose process backend never falls back to inline
    execution, so tiny drawn datasets still cross the pool's pickling."""
    if name == "process":
        return ProcessExecutor(workers, inline_threshold=0, **kwargs)
    return create_executor(name, parallelism, workers, **kwargs)


class TestDifferential:
    @mock.patch("repro.dataflow.engine.create_executor", _pooled_executor)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        rows=_datasets,
        scope=st.sampled_from(sorted(_SCOPES)),
        variant=st.sampled_from(sorted(_VARIANTS)),
        executor=st.sampled_from(["serial", "process"]),
        h=st.integers(min_value=1, max_value=3),
        # Saturated to roomy candidate filters: all three cases of
        # Algorithm 3 and the validation pass on int filters.
        bloom_bits=st.sampled_from([8, 64, 512]),
        bloom_hashes=st.sampled_from([1, 4]),
        # Seeded task faults fire on a task's first attempt only, so any
        # retry budget of at least one recovers them.
        fault_seed=st.one_of(st.none(), st.integers(0, 2**16)),
        max_retries=st.sampled_from([None, 1, 3]),
        checkpointed=st.booleans(),
        # A roomy budget never trips here; it sends every keyed stage down
        # the priced per-pair fold instead of the kernels' partition folds.
        memory_budget=st.sampled_from([None, 10**9]),
    )
    def test_result_bytes_equal_record_oracle_and_naive_profiler(
        self, rows, scope, variant, executor, h, bloom_bits,
        bloom_hashes, fault_seed, max_retries, checkpointed, memory_budget,
    ):
        dataset = Dataset.from_tuples(rows)
        config = _VARIANTS[variant](
            support_threshold=h,
            parallelism=3,
            scope=_SCOPES[scope](),
            executor=executor,
            workers=2,
            candidate_bloom_bits=bloom_bits,
            candidate_bloom_hashes=bloom_hashes,
            fault_seed=fault_seed,
            max_retries=max_retries,
            memory_budget=memory_budget,
        )
        oracle = result_json(record_oracle.discover(dataset, config))
        if checkpointed:
            # A checkpointed run, then its resume: every phase boundary
            # (fc unless the variant skips it, and ex) loads from disk.
            with tempfile.TemporaryDirectory() as directory:
                config = replace(config, checkpoint_dir=directory)
                assert result_json(RDFind(config).discover(dataset)) == oracle
                result = RDFind(replace(config, resume=True)).discover(dataset)
            phases = 2 if config.prune_infrequent_conditions else 1
            assert result.metrics.resumed_stages == phases
        else:
            result = RDFind(config).discover(dataset)
        assert result_json(result) == oracle

        profiler = NaiveProfiler(
            dataset.encode(),
            scope=config.scope,
            prune_ar_equivalents=config.prune_infrequent_conditions,
        )
        assert cind_set(result) == {
            (sc.cind, sc.support) for sc in profiler.pertinent_cinds(h)
        }
        if config.prune_infrequent_conditions:
            assert ar_set(result) == {
                (sa.rule, sa.support) for sa in profiler.association_rules(h)
            }


# ----------------------------------------------------------------------
# record-count memory budget: the verdicts the record path used to give
# ----------------------------------------------------------------------


class TestMemoryBudgetVerdicts:
    #: Countries at scale 0.2, h=5, parallelism 4, inline shuffle.  The
    #: verdicts and failing stages were taken on the commit before the
    #: kernels became the only path (record operators under a budget).
    BUDGET = 8000
    EXPECTED = {
        "rdfind": None,
        "de": "ex/merge-candidates",
        "nf": "ex/merge-candidates",
    }

    @staticmethod
    def verdict(discover):
        try:
            discover()
        except SimulatedOutOfMemory as error:
            return error.stage, error.records
        return None, None

    @pytest.mark.parametrize("variant", sorted(EXPECTED))
    def test_same_verdict_and_failing_stage(self, variant):
        dataset = registry.load("Countries", scale=0.2, encoded=True)
        config = _VARIANTS[variant](
            support_threshold=5,
            memory_budget=self.BUDGET,
            executor="serial",
        )
        stage, records = self.verdict(lambda: RDFind(config).discover(dataset))
        assert stage == self.EXPECTED[variant]
        # Pricing the shared reference sets at |refs| charges exactly what
        # the per-dependent sets cost at |refs − {c}| + 1.
        assert (stage, records) == self.verdict(
            lambda: record_oracle.discover(dataset, config)
        )

    def test_source_is_charged_first(self):
        dataset = registry.load("Countries", scale=0.2, encoded=True)
        config = RDFindConfig(support_threshold=5, memory_budget=500)
        with pytest.raises(SimulatedOutOfMemory) as raised:
            RDFind(config).discover(dataset)
        assert raised.value.stage == "source/triples"
