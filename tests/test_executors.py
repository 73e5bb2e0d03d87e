"""Executor backends: serial/process equivalence, stable hashing, OOM.

The process backend must be a pure performance substitution: identical
discovery output (CINDs, ARs, stage record counts), identical partition
routing, and faithful error propagation.  These tests pin all three, plus
the PYTHONHASHSEED regression for the stable hash partitioner.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import pytest

from repro.core.discovery import RDFind, RDFindConfig
from repro.dataflow.engine import (
    DataSet,
    ExecutionEnvironment,
    SimulatedOutOfMemory,
    pair_key,
    pair_value,
    stable_hash,
)
from repro.dataflow.executors import (
    EXECUTOR_NAMES,
    ProcessExecutor,
    SerialExecutor,
    create_executor,
)
from repro.dataflow.hashing import hash_partition
from tests.conftest import ar_set, cind_set, random_rdf


def env(parallelism=4, executor="serial", **kwargs) -> ExecutionEnvironment:
    return ExecutionEnvironment(
        parallelism=parallelism, executor=executor, **kwargs
    )


# ----------------------------------------------------------------------
# stable hash (satellite: PYTHONHASHSEED regression)
# ----------------------------------------------------------------------


class TestStableHash:
    def test_int_keys_deterministic(self):
        assert stable_hash(42) == stable_hash(42)
        assert stable_hash(0) != stable_hash(1)

    def test_covers_pipeline_key_types(self):
        from repro.core.cind import Capture
        from repro.core.conditions import BinaryCondition, UnaryCondition
        from repro.rdf.model import Attr

        keys = [
            None,
            True,
            7,
            "iri",
            b"bytes",
            (1, 2),
            frozenset({1, 2, 3}),
            UnaryCondition(Attr.P, 5),
            BinaryCondition(Attr.P, 5, Attr.O, 9),
            Capture(Attr.S, UnaryCondition(Attr.P, 5)),
        ]
        hashes = [stable_hash(key) for key in keys]
        assert hashes == [stable_hash(key) for key in keys]
        assert len(set(hashes)) == len(hashes)

    def test_frozenset_order_independent(self):
        assert stable_hash(frozenset([1, 2, 3])) == stable_hash(
            frozenset([3, 1, 2])
        )

    def test_partition_in_range(self):
        for key in (0, -1, "x", ("a", 1)):
            assert 0 <= hash_partition(key, 7) < 7

    def test_string_hash_survives_hash_seed(self):
        """The regression: builtin hash() of strings varies with
        PYTHONHASHSEED, so partition routing (and with it any
        set-iteration order downstream) differed run to run."""
        script = (
            "from repro.dataflow.hashing import stable_hash, hash_partition;"
            "print(stable_hash('http://example.org/p'),"
            " hash_partition(('s', 3), 10))"
        )
        outputs = set()
        for seed in ("0", "1", "12345"):
            environment = dict(os.environ, PYTHONHASHSEED=seed)
            environment["PYTHONPATH"] = "src"
            outputs.add(
                subprocess.run(
                    [sys.executable, "-c", script],
                    capture_output=True,
                    text=True,
                    check=True,
                    env=environment,
                    cwd=os.path.dirname(os.path.dirname(__file__)),
                ).stdout.strip()
            )
        assert len(outputs) == 1

    def test_discovery_output_survives_hash_seed(self):
        """End-to-end acceptance: identical CINDs/ARs under different
        interpreter hash seeds (serialized for byte comparison)."""
        script = (
            "import sys;"
            "from tests.conftest import random_rdf;"
            "from repro.core.discovery import find_pertinent_cinds;"
            "r = find_pertinent_cinds(random_rdf(7, n_triples=120),"
            " support_threshold=3);"
            "print([ (str(sc.cind), sc.support) for sc in r.cinds ]);"
            "print([ (str(sa.rule), sa.support) for sa in r.association_rules ])"
        )
        outputs = set()
        for seed in ("0", "7777"):
            environment = dict(os.environ, PYTHONHASHSEED=seed)
            environment["PYTHONPATH"] = "src"
            outputs.add(
                subprocess.run(
                    [sys.executable, "-c", script],
                    capture_output=True,
                    text=True,
                    check=True,
                    env=environment,
                    cwd=os.path.dirname(os.path.dirname(__file__)),
                ).stdout
            )
        assert len(outputs) == 1


# ----------------------------------------------------------------------
# backend construction
# ----------------------------------------------------------------------


class TestExecutorFactory:
    def test_names(self):
        assert EXECUTOR_NAMES == ("serial", "process")

    def test_serial(self):
        backend = create_executor("serial", 4)
        assert isinstance(backend, SerialExecutor)
        assert backend.workers == 1

    def test_process_default_workers(self):
        backend = create_executor("process", 4)
        assert isinstance(backend, ProcessExecutor)
        assert 1 <= backend.workers <= 4
        backend.close()

    def test_process_explicit_workers(self):
        backend = create_executor("process", 4, workers=2)
        assert backend.workers == 2
        backend.close()

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown executor"):
            create_executor("threads", 4)

    def test_config_rejects_unknown_executor(self):
        with pytest.raises(ValueError, match="executor"):
            RDFindConfig(executor="threads")

    def test_env_context_manager_closes_pool(self):
        with env(2, executor="process", workers=2) as environment:
            data = environment.from_collection(range(10))
            assert sorted(data.map(_identity, name="noop").collect()) == list(
                range(10)
            )
        assert environment.executor._pool is None


# ----------------------------------------------------------------------
# engine-level equivalence
# ----------------------------------------------------------------------


def _double(x):
    return x * 2


def _expand(x):
    return [x, -x]


def _is_even(x):
    return x % 2 == 0


def _index_pairs(x):
    return [(x % 5, 1), (x % 3, 1)]


def _tag_partition(partition, worker):
    return [(worker, item) for item in partition]


def _join(key, left, right):
    return [(key, len(left), len(right))]


class TestEngineEquivalence:
    """Every operator produces identical results under both backends."""

    def run_pipeline(self, executor):
        with env(4, executor=executor, workers=2) as environment:
            data = environment.from_collection(range(40))
            mapped = data.map(_double).flat_map(_expand).filter(_is_even)
            tagged = mapped.map_partition(_tag_partition)
            counts = data.flat_map(_index_pairs).reduce_by_key(
                key_fn=pair_key,
                value_fn=pair_value,
                reduce_fn=_add,
                name="counts",
            )
            fused = data.flat_map_reduce_by_key(
                _index_pairs, _add, name="fused"
            )
            joined = counts.co_group(
                fused, pair_key, pair_key, _join, name="join"
            )
            return {
                "mapped": mapped.collect(),
                "tagged": tagged.collect(),
                "counts": counts.collect(),
                "fused": fused.collect(),
                "joined": joined.collect(),
                "reduced_partitions": data.reduce_partitions(sum, _add),
            }

    def test_identical_results(self):
        assert self.run_pipeline("serial") == self.run_pipeline("process")

    def test_from_partitions_equivalence(self):
        for executor in EXECUTOR_NAMES:
            with env(2, executor=executor) as environment:
                data = environment.from_partitions([[1], [2], [3], [4], [5]])
                assert sorted(data.collect()) == [1, 2, 3, 4, 5]


def _add(a, b):
    return a + b


class TestFromPartitionsRoundRobin:
    def test_overflow_merged_round_robin(self):
        environment = env(2)
        data = environment.from_partitions([[1], [2], [3], [4], [5], [6]])
        # overflow partitions [3],[4],[5],[6] alternate onto 0 and 1
        assert data.partitions == [[1, 3, 5], [2, 4, 6]]

    def test_no_single_partition_absorbs_all(self):
        environment = env(2)
        data = environment.from_partitions([[1], [2]] + [[x] for x in range(10)])
        sizes = [len(p) for p in data.partitions]
        assert max(sizes) - min(sizes) <= 1


# ----------------------------------------------------------------------
# OOM propagation from pool workers
# ----------------------------------------------------------------------


class TestSimulatedOutOfMemory:
    def test_pickle_roundtrip(self):
        error = SimulatedOutOfMemory("stage-x", 123, 45)
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, SimulatedOutOfMemory)
        assert (clone.stage, clone.records, clone.budget) == ("stage-x", 123, 45)
        assert "stage-x" in str(clone)

    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_raised_in_worker_reaches_driver(self, executor):
        """The budget check runs inside the combine task — under the
        process backend that is a pool worker, so the exception must
        pickle across the process boundary with its fields intact."""
        with env(
            2, executor=executor, workers=2, memory_budget=5
        ) as environment:
            data = environment.from_collection(range(100))
            with pytest.raises(SimulatedOutOfMemory) as excinfo:
                data.reduce_by_key(
                    key_fn=_identity, value_fn=_one, reduce_fn=_add, name="big"
                )
            assert excinfo.value.budget == 5
            assert excinfo.value.stage == "big"
            assert excinfo.value.records > 5

    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_discovery_oom_equivalent(self, executor):
        dataset = random_rdf(3, n_triples=200)
        config = RDFindConfig(
            support_threshold=2,
            executor=executor,
            workers=2,
            memory_budget=40,
        )
        with pytest.raises(SimulatedOutOfMemory):
            RDFind(config).discover(dataset)


def _identity(x):
    return x


def _one(_x):
    return 1


# ----------------------------------------------------------------------
# discovery-level equivalence (the acceptance criterion)
# ----------------------------------------------------------------------


def _discover(dataset, executor, **overrides):
    config = RDFindConfig(
        support_threshold=overrides.pop("support_threshold", 2),
        executor=executor,
        workers=overrides.pop("workers", 2),
        **overrides,
    )
    return RDFind(config).discover(dataset)


class TestDiscoveryEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_datasets_identical(self, seed):
        dataset = random_rdf(seed, n_triples=150)
        serial = _discover(dataset, "serial")
        process = _discover(dataset, "process")
        # byte-identical: same CINDs in the same order, same supports
        assert serial.cinds == process.cinds
        assert serial.association_rules == process.association_rules
        assert cind_set(serial) == cind_set(process)
        assert ar_set(serial) == ar_set(process)

    def test_table1_identical(self, table1_dataset):
        serial = _discover(table1_dataset, "serial")
        process = _discover(table1_dataset, "process")
        assert serial.cinds == process.cinds
        assert serial.association_rules == process.association_rules

    def test_stage_record_counts_identical(self):
        dataset = random_rdf(11, n_triples=150)
        serial = _discover(dataset, "serial")
        process = _discover(dataset, "process")
        serial_stages = [
            (stage.name, stage.total_in, stage.total_out, stage.shuffled_records)
            for stage in serial.metrics.stages
        ]
        process_stages = [
            (stage.name, stage.total_in, stage.total_out, stage.shuffled_records)
            for stage in process.metrics.stages
        ]
        assert serial_stages == process_stages

    def test_variants_identical(self, table1_dataset):
        for builder in (
            RDFindConfig.direct_extraction,
            RDFindConfig.no_frequent_conditions,
        ):
            serial = RDFind(
                builder(support_threshold=2, executor="serial", workers=2)
            ).discover(table1_dataset)
            process = RDFind(
                builder(support_threshold=2, executor="process", workers=2)
            ).discover(table1_dataset)
            assert serial.cinds == process.cinds

    def test_metrics_report_executor(self):
        dataset = random_rdf(5, n_triples=60)
        process = _discover(dataset, "process")
        assert process.metrics.executor == "process"
        assert process.metrics.workers >= 1
        assert process.metrics.wall_clock_seconds > 0
        assert process.summary()["executor"] == "process"
