"""Tests for the CINDExtractor (broad CIND extraction from groups)."""

from unittest import mock

import pytest

from repro.core import extraction
from repro.core.capture_groups import create_capture_groups
from repro.core.cind import CIND, Capture, capture_code, code_capture
from repro.core.extraction import (
    ExtractionConfig,
    extract_broad_cinds,
)
from repro.core.frequent_conditions import detect_frequent_conditions
from repro.core.validation import NaiveProfiler
from repro.dataflow.engine import ExecutionEnvironment, SimulatedOutOfMemory
from repro.dataflow.kernels import batch_dataset
from repro.rdf.model import Dataset
from tests.conftest import random_rdf


def run_extraction(
    encoded,
    h,
    parallelism=3,
    memory_budget=None,
    **config_overrides,
):
    env = ExecutionEnvironment(parallelism=parallelism, memory_budget=memory_budget)
    triples = batch_dataset(env, encoded)
    frequent = detect_frequent_conditions(env, triples, h=h, fp_rate=1e-9)
    groups = create_capture_groups(env, triples, frequent=frequent)
    config = ExtractionConfig(h=h, **config_overrides)
    broad, stats = extract_broad_cinds(env, groups, config)
    captures = extraction._Memo(code_capture)  # one object per code
    decode = captures.__getitem__
    return {
        decode(dependent): (frozenset(map(decode, refs)), support)
        for dependent, (refs, support) in broad.items()
    }, stats


def broad_as_set(broad):
    out = set()
    for dependent, (refs, support) in broad.items():
        for referenced in refs:
            cind = CIND(dependent, referenced)
            if not cind.is_trivial():
                out.add((cind, support))
    return out


def oracle_broad_set(encoded, h):
    return set(NaiveProfiler(encoded).broad_cinds(h).items())


class TestCorrectness:
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_table1_matches_oracle(self, table1_encoded, h):
        broad, _stats = run_extraction(table1_encoded, h)
        assert broad_as_set(broad) == oracle_broad_set(table1_encoded, h)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_random_matches_oracle(self, seed, parallelism):
        encoded = random_rdf(seed + 70, n_triples=40).encode()
        broad, _stats = run_extraction(encoded, 2, parallelism)
        assert broad_as_set(broad) == oracle_broad_set(encoded, 2)

    def test_supports_are_dependent_interpretation_sizes(self, table1_encoded):
        broad, _stats = run_extraction(table1_encoded, 2)
        profiler = NaiveProfiler(table1_encoded)
        for dependent, (_refs, support) in broad.items():
            assert support == len(profiler.interpretation(dependent))

    def test_no_dependent_below_threshold(self):
        encoded = random_rdf(5, n_triples=50).encode()
        broad, _stats = run_extraction(encoded, 3)
        assert all(support >= 3 for _refs, support in broad.values())

    def test_dependent_never_among_its_references(self):
        encoded = random_rdf(6, n_triples=50).encode()
        broad, _stats = run_extraction(encoded, 2)
        for dependent, (refs, _support) in broad.items():
            assert dependent not in refs


class TestAblationSwitches:
    """Disabling the paper's optimizations must never change results."""

    @pytest.mark.parametrize("seed", range(5))
    def test_no_capture_support_pruning_same_results(self, seed):
        encoded = random_rdf(seed + 90, n_triples=40).encode()
        with_pruning, _ = run_extraction(encoded, 2)
        without, _ = run_extraction(encoded, 2, prune_capture_support=False)
        assert broad_as_set(with_pruning) == broad_as_set(without)

    @pytest.mark.parametrize("seed", range(5))
    def test_no_load_balancing_same_results(self, seed):
        encoded = random_rdf(seed + 110, n_triples=40).encode()
        balanced, _ = run_extraction(encoded, 2)
        direct, _ = run_extraction(encoded, 2, balance_dominant_groups=False)
        assert broad_as_set(balanced) == broad_as_set(direct)

    @pytest.mark.parametrize("seed", range(5))
    def test_tiny_candidate_blooms_same_results(self, seed):
        """Aggressively small Bloom filters stress the validation path."""
        encoded = random_rdf(seed + 130, n_triples=45).encode()
        # parallelism 2 with small random data makes many groups dominant
        small, _ = run_extraction(
            encoded, 1, parallelism=2,
            candidate_bloom_bits=16, candidate_bloom_hashes=2,
        )
        exact, _ = run_extraction(
            encoded, 1, parallelism=2, balance_dominant_groups=False
        )
        assert broad_as_set(small) == broad_as_set(exact)


def two_hub_dataset():
    """Two dominant groups (the values ``type`` and ``knows``) that share
    captures with each other and, through ``rare``/``odd``, with regular
    groups — so all three cases of Algorithm 3 occur at parallelism 4."""
    rows = []
    for i in range(16):
        rows.append((f"s{i}", "type", f"C{i % 2}"))
        rows.append((f"s{i}", "knows", f"s{(i * 7 + 1) % 16}"))
    rows += [("s0", "rare", "s1"), ("s1", "rare", "s2"), ("s0", "odd", "C0")]
    return Dataset.from_tuples(rows).encode()


class TestIntCandidateFilters:
    @pytest.mark.parametrize("bits,hashes", [(8, 1), (64, 4), (512, 4)])
    def test_all_merge_cases_and_validation_stay_exact(self, bits, hashes):
        encoded = two_hub_dataset()
        cases = set()
        merge = extraction._merge_candidate_values

        def spy(masks, a, b):
            cases.add((type(a[0]) is int) + (type(b[0]) is int))
            return merge(masks, a, b)

        with mock.patch.object(extraction, "_merge_candidate_values", spy):
            broad, stats = run_extraction(
                encoded, 1, parallelism=4,
                candidate_bloom_bits=bits, candidate_bloom_hashes=hashes,
            )
        # exact ∩ exact, exact probed against a filter, filter AND filter
        assert cases == {0, 1, 2}
        assert stats.dominant_groups == 2
        assert stats.uncertain_candidates > 0
        exact, _ = run_extraction(
            encoded, 1, parallelism=4, balance_dominant_groups=False
        )
        assert broad == exact
        assert broad_as_set(broad) == oracle_broad_set(encoded, 1)


class TestCodesInsideCapturesOutside:
    def test_groups_hold_int_codes(self):
        encoded = random_rdf(7, n_triples=60).encode()
        env = ExecutionEnvironment(parallelism=3)
        groups = create_capture_groups(env, batch_dataset(env, encoded)).collect()
        assert groups
        for group in groups:
            assert type(group) is frozenset
            assert all(type(code) is int for code in group)

    def test_result_holds_one_capture_object_per_code(self):
        broad, _stats = run_extraction(two_hub_dataset(), 1, parallelism=4)
        objects = {}
        occurrences = 0
        for dependent, (refs, _support) in broad.items():
            assert type(refs) is frozenset
            for capture in (dependent, *refs):
                assert type(capture) is Capture
                objects.setdefault(capture_code(capture), set()).add(id(capture))
                occurrences += 1
        assert all(len(ids) == 1 for ids in objects.values())
        assert occurrences > 10 * len(objects)  # shared, not rebuilt per row


class TestStats:
    def test_stats_populated(self, table1_encoded):
        _broad, stats = run_extraction(table1_encoded, 2)
        assert stats.groups_total > 0
        assert stats.groups_after_pruning <= stats.groups_total
        assert stats.captures_total >= stats.captures_pruned
        assert stats.broad_cind_count >= stats.broad_dependents > 0

    def test_pruning_reduces_captures(self):
        encoded = random_rdf(8, n_triples=60).encode()
        _broad, stats = run_extraction(encoded, 4)
        assert stats.captures_pruned > 0


class TestMemoryBudget:
    def test_direct_extraction_can_oom(self):
        encoded = random_rdf(12, n_triples=80, n_subjects=3, n_objects=3).encode()
        with pytest.raises(SimulatedOutOfMemory):
            run_extraction(
                encoded, 1, parallelism=1, memory_budget=50,
                prune_capture_support=False, balance_dominant_groups=False,
            )

    def test_config_validates_threshold(self):
        with pytest.raises(ValueError):
            ExtractionConfig(h=0)
