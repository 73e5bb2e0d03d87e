"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
import subprocess
import sys
from typing import List, Tuple

import pytest

from repro.datasets.table1 import table1
from repro.rdf.model import Dataset, EncodedDataset


def reaped_pid() -> int:
    """The PID of a child that has exited and been reaped: a dead writer."""
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


def random_rdf(
    seed: int,
    n_triples: int = 30,
    n_subjects: int = 6,
    n_predicates: int = 4,
    n_objects: int = 6,
) -> Dataset:
    """A small random RDF dataset with overlapping term vocabularies.

    Subjects/objects share part of their vocabulary (``x`` terms) so that
    cross-attribute inclusions occur, which exercises the full CIND
    search space.
    """
    rng = random.Random(seed)
    shared = [f"x{index}" for index in range(max(2, n_subjects // 2))]
    subjects = [f"s{index}" for index in range(n_subjects)] + shared
    predicates = [f"p{index}" for index in range(n_predicates)]
    objects = [f"o{index}" for index in range(n_objects)] + shared
    rows = [
        (rng.choice(subjects), rng.choice(predicates), rng.choice(objects))
        for _ in range(n_triples)
    ]
    return Dataset.from_tuples(rows, name=f"random-{seed}")


@pytest.fixture
def table1_dataset() -> Dataset:
    return table1()


@pytest.fixture
def table1_encoded(table1_dataset) -> EncodedDataset:
    return table1_dataset.encode()


def cind_set(result) -> set:
    """(CIND, support) pairs of a DiscoveryResult for set comparison."""
    return {(sc.cind, sc.support) for sc in result.cinds}


def ar_set(result) -> set:
    """(rule, support) pairs of a DiscoveryResult for set comparison."""
    return {(sa.rule, sa.support) for sa in result.association_rules}
