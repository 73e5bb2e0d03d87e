"""Tests for the CGCreator: capture evidences and capture groups."""

from collections import defaultdict

import pytest

from repro.core.capture_groups import create_capture_groups, expand_captures
from repro.core.cind import Capture, capture_code, code_capture
from repro.core.conditions import (
    BinaryCondition,
    ConditionScope,
    UnaryCondition,
)
from repro.core.frequent_conditions import detect_frequent_conditions
from repro.core.validation import NaiveProfiler
from repro.dataflow.engine import ExecutionEnvironment
from repro.dataflow.kernels import batch_dataset
from repro.rdf.model import Attr
from tests.conftest import random_rdf


def build_groups(
    encoded, h, parallelism=3, pruned=True, scope=None, fp_rate=1e-9
):
    """Run FCDetector + CGCreator and collect the groups, decoded.

    The groups hold capture codes; the assertions below are about the
    captures the codes spell.

    The default ``fp_rate`` is effectively zero so that structural tests
    can compare against the oracle exactly; Bloom false positives (which
    only ever *add* low-support captures that the extractor prunes) are
    exercised separately in ``TestBloomFalsePositives``.
    """
    env = ExecutionEnvironment(parallelism=parallelism)
    triples = batch_dataset(env, encoded)
    frequent = None
    if pruned:
        frequent = detect_frequent_conditions(
            env, triples, h=h, scope=scope, fp_rate=fp_rate
        )
    groups = create_capture_groups(env, triples, scope=scope, frequent=frequent)
    return [decoded(group) for group in groups.collect()]


def decoded(group):
    assert type(group) is frozenset and all(type(code) is int for code in group)
    return frozenset(map(code_capture, group))


def groups_from_oracle(encoded, h, scope=None):
    """Reference capture groups built from naive interpretations.

    For each capture in the oracle universe, its interpretation's values
    index the groups; the group of a value is the set of captures whose
    interpretation contains it (the definition in Section 6).
    """
    profiler = NaiveProfiler(encoded, scope)
    universe = profiler.capture_universe(h)
    interpretations = profiler.interpretations(universe)
    by_value = defaultdict(set)
    for capture, values in interpretations.items():
        for value in values:
            by_value[value].add(capture)
    return {frozenset(captures) for captures in by_value.values()}


class TestExpansion:
    def test_binary_capture_expands_to_unary_relaxations(self):
        binary = Capture(Attr.S, BinaryCondition.make(Attr.P, 1, Attr.O, 2))
        expanded = expand_captures({capture_code(binary)})
        assert decoded(expanded) == frozenset(
            {
                binary,
                Capture(Attr.S, UnaryCondition(Attr.P, 1)),
                Capture(Attr.S, UnaryCondition(Attr.O, 2)),
            }
        )

    def test_unary_captures_untouched(self):
        unary = Capture(Attr.S, UnaryCondition(Attr.P, 1))
        assert decoded(expand_captures({capture_code(unary)})) == frozenset({unary})


class TestGroupsMatchDefinition:
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_table1_groups_equal_oracle(self, table1_encoded, h):
        got = {frozenset(g) for g in build_groups(table1_encoded, h)}
        want = groups_from_oracle(table1_encoded, h)
        assert got == want

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_random_groups_equal_oracle(self, seed, parallelism):
        encoded = random_rdf(seed + 20, n_triples=40).encode()
        got = {frozenset(g) for g in build_groups(encoded, 2, parallelism)}
        want = groups_from_oracle(encoded, 2)
        assert got == want

    def test_predicates_only_scope(self, table1_encoded):
        scope = ConditionScope.predicates_only()
        got = {frozenset(g) for g in build_groups(table1_encoded, 2, scope=scope)}
        want = groups_from_oracle(table1_encoded, 2, scope=scope)
        assert got == want
        for group in got:
            assert all(c.condition.attr is Attr.P for c in group)


class TestPaperExample:
    def test_patrick_group_at_h3(self, table1_encoded):
        """Section 6.1's example: patrick's group at support threshold 3."""
        dictionary = table1_encoded.dictionary
        groups = {frozenset(g) for g in build_groups(table1_encoded, 3)}
        expected = frozenset(
            {
                Capture(
                    Attr.S,
                    UnaryCondition(Attr.P, dictionary.encode_existing("rdf:type")),
                ),
                Capture(
                    Attr.S,
                    UnaryCondition(
                        Attr.P, dictionary.encode_existing("undergradFrom")
                    ),
                ),
            }
        )
        assert expected in groups

    def test_unpruned_creation_covers_all_conditions(self, table1_encoded):
        """RDFind-NF mode: no frequent-condition pruning at all."""
        got = {frozenset(g) for g in build_groups(table1_encoded, 1, pruned=False)}
        # h=1 pruning keeps everything but applies AR equivalence; the
        # NF run keeps AR-embedding binary captures as well, so its
        # groups are supersets of the pruned ones.
        pruned = {frozenset(g) for g in build_groups(table1_encoded, 1)}
        assert len(got) == len(pruned)
        pruned_by_size = sorted(len(g) for g in pruned)
        got_by_size = sorted(len(g) for g in got)
        assert all(a >= b for a, b in zip(got_by_size, pruned_by_size))


class TestBloomFalsePositives:
    @pytest.mark.parametrize("seed", range(4))
    def test_false_positives_only_add_infrequent_captures(self, seed):
        """With a sloppy Bloom filter, groups may gain captures — but only
        captures whose condition is *not* frequent (they are pruned by the
        capture-support phase before any CIND can involve them)."""
        encoded = random_rdf(seed + 20, n_triples=40).encode()
        h = 2
        sloppy = {frozenset(g) for g in build_groups(encoded, h, fp_rate=0.2)}
        exact = {frozenset(g) for g in build_groups(encoded, h)}
        profiler = NaiveProfiler(encoded)
        frequent = profiler.frequent_conditions(h)
        universe = profiler.capture_universe(h)
        for group in sloppy:
            for capture in group:
                if capture not in universe:
                    assert capture.condition not in frequent


class TestGroupCardinality:
    def test_one_group_per_relevant_value(self, table1_encoded):
        groups = build_groups(table1_encoded, 1)
        # every distinct term that appears in some capture interpretation
        # spawns exactly one group
        want = groups_from_oracle(table1_encoded, 1)
        assert len(groups) == len(want)
