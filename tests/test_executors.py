"""The engine's routing and budget: stable hashing, round-robin overflow, OOM.

Partition routing must not depend on the interpreter's hash seed, and a
blown per-worker memory budget must reach the driver with its fields
intact.  These tests pin both, plus the PYTHONHASHSEED regression for the
stable hash partitioner.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.core.discovery import RDFind, RDFindConfig
from repro.dataflow.engine import (
    ExecutionEnvironment,
    SimulatedOutOfMemory,
    stable_hash,
)
from repro.dataflow.hashing import hash_partition
from tests.conftest import random_rdf


def env(parallelism=4, **kwargs) -> ExecutionEnvironment:
    return ExecutionEnvironment(parallelism=parallelism, **kwargs)


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
# OOM propagation from simulated workers
# ----------------------------------------------------------------------


class TestSimulatedOutOfMemory:
    def test_raised_in_worker_reaches_driver(self):
        """The budget check runs inside the combine task; a genuine OOM
        is not retried and reaches the driver with its fields intact."""
        environment = env(2, memory_budget=5)
        data = environment.from_collection(range(100))
        with pytest.raises(SimulatedOutOfMemory) as excinfo:
            data.reduce_by_key(
                key_fn=_identity, value_fn=_one, reduce_fn=_add, name="big"
            )
        assert excinfo.value.budget == 5
        assert excinfo.value.stage == "big"
        assert excinfo.value.records > 5

    def test_discovery_oom_equivalent(self):
        dataset = random_rdf(3, n_triples=200)
        config = RDFindConfig(support_threshold=2, memory_budget=40)
        with pytest.raises(SimulatedOutOfMemory):
            RDFind(config).discover(dataset)


def _identity(x):
    return x


def _one(_x):
    return 1
