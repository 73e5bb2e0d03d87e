"""Tests for the dictionary-encoded columnar storage subsystem."""

import random
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.discovery import RDFind, RDFindConfig
from repro.rdf.model import Attr, Dataset, Triple
from repro.rdf.store import TripleStore
from repro.sparql import BGPQuery, TriplePattern, Var, evaluate
from repro.storage import (
    EncodedDataset,
    EncodedTriple,
    TermDictionary,
    VerticalPartitionStore,
)
from tests.conftest import random_rdf

UNICODE_TERMS = [
    "http://example.org/résumé",
    "日本語のリテラル",
    "emoji \U0001f600 term",
    '"literal"@ру',
    "plain",
    "",
]


class TestTermDictionary:
    def test_ids_are_dense_and_first_seen(self):
        dictionary = TermDictionary()
        assert [dictionary.encode(t) for t in ("a", "b", "a", "c")] == [0, 1, 0, 2]
        assert len(dictionary) == 3

    def test_decode_encode_roundtrip_unicode(self):
        dictionary = TermDictionary()
        for term in UNICODE_TERMS:
            assert dictionary.decode(dictionary.encode(term)) == term

    def test_ids_stable_under_incremental_appends(self):
        dictionary = TermDictionary()
        first = {t: dictionary.encode(t) for t in ("a", "b", "c")}
        dictionary.encode_many(UNICODE_TERMS)
        # appending new terms never moves existing ids
        for term, term_id in first.items():
            assert dictionary.encode(term) == term_id
            assert dictionary.lookup(term) == term_id
        # and re-encoding after the append is still a pure lookup
        assert dictionary.encode("b") == first["b"]

    def test_lookup_unknown_returns_none(self):
        assert TermDictionary().lookup("nope") is None

    def test_triple_roundtrip(self):
        dictionary = TermDictionary()
        triple = Triple("s", "p", "o")
        encoded = dictionary.encode_triple(triple)
        assert isinstance(encoded, EncodedTriple)
        assert dictionary.decode_triple(encoded) == triple

    def test_typecode_and_nbytes(self):
        dictionary = TermDictionary()
        dictionary.encode_many(["a", "bb", "ccc"])
        assert dictionary.typecode == "i"
        assert dictionary.nbytes() > 0


class TestEncodedDatasetColumns:
    def test_from_terms_matches_dataset_encode(self):
        dataset = random_rdf(5, n_triples=60)
        direct = EncodedDataset.from_terms(dataset.triples, name=dataset.name)
        via_dataset = dataset.encode()
        assert list(direct) == list(via_dataset)
        assert list(direct.dictionary.terms()) == list(
            via_dataset.dictionary.terms()
        )

    def test_from_terms_deduplicates(self):
        rows = [("a", "p", "b"), ("a", "p", "b"), ("a", "p", "c")]
        encoded = EncodedDataset.from_terms(rows)
        assert len(encoded) == 2

    def test_columns_are_parallel_arrays(self):
        encoded = random_rdf(6, n_triples=40).encode()
        s, p, o = encoded.columns
        assert isinstance(s, array)
        assert len(s) == len(p) == len(o) == len(encoded)
        assert list(encoded)[0] == EncodedTriple(s[0], p[0], o[0])

    def test_values_agree_with_row_iteration(self):
        encoded = random_rdf(7, n_triples=50).encode()
        for attr in (Attr.S, Attr.P, Attr.O):
            assert encoded.values(attr) == Counter(
                t.get(attr) for t in encoded
            )

    def test_decode_roundtrip(self):
        dataset = random_rdf(8, n_triples=45)
        assert dataset.encode().decode().triples == dataset.triples

    def test_append_ids_widens_past_int32(self):
        encoded = EncodedDataset()
        encoded.append_ids(1, 2, 3)
        assert encoded.columns[0].typecode == "i"
        encoded.append_ids(2**40, 4, 5)
        assert encoded.columns[0].typecode == "q"
        assert list(encoded) == [
            EncodedTriple(1, 2, 3),
            EncodedTriple(2**40, 4, 5),
        ]

    def test_cells_and_nbytes(self):
        encoded = random_rdf(9, n_triples=30).encode()
        assert encoded.cells == 3 * len(encoded)
        assert encoded.nbytes() > 0


def _pattern_terms(dataset):
    subjects = sorted(dataset.distinct_values(Attr.S))
    predicates = sorted(dataset.distinct_values(Attr.P))
    objects = sorted(dataset.distinct_values(Attr.O))
    return subjects, predicates, objects


class TestVerticalPartitionStoreEquivalence:
    @pytest.fixture
    def dataset(self):
        return random_rdf(11, n_triples=120, n_subjects=8, n_objects=8)

    @pytest.fixture
    def baseline(self, dataset):
        return TripleStore.from_dataset(dataset)

    @pytest.fixture
    def vertical(self, dataset):
        return VerticalPartitionStore.from_encoded(dataset.encode())

    def test_len_and_iter_roundtrip(self, dataset, baseline, vertical):
        assert len(vertical) == len(baseline) == len(dataset)
        assert sorted(vertical) == sorted(baseline)
        assert vertical.to_dataset() == dataset

    def test_vocabulary_views(self, baseline, vertical):
        assert vertical.subjects() == baseline.subjects()
        assert vertical.predicates() == baseline.predicates()
        assert vertical.objects() == baseline.objects()

    def test_randomized_patterns_agree(self, dataset, baseline, vertical):
        subjects, predicates, objects = _pattern_terms(dataset)
        rng = random.Random(99)
        for _ in range(300):
            s = rng.choice(subjects + [None, "missing-term"])
            p = rng.choice(predicates + [None, "missing-term"])
            o = rng.choice(objects + [None, "missing-term"])
            expected = sorted(baseline.match(s, p, o))
            got = sorted(vertical.match(s, p, o))
            assert got == expected, (s, p, o)
            estimate = vertical.cardinality_estimate(s, p, o)
            assert estimate >= len(expected), (s, p, o)

    @settings(max_examples=60, deadline=None)
    @given(
        s=st.sampled_from(["s0", "s1", "x0", "absent", None]),
        p=st.sampled_from(["p0", "p1", "p2", "absent", None]),
        o=st.sampled_from(["o0", "o1", "x1", "absent", None]),
    )
    def test_property_patterns_agree(self, s, p, o):
        dataset = random_rdf(13, n_triples=90, n_subjects=6, n_objects=6)
        baseline = TripleStore.from_dataset(dataset)
        vertical = VerticalPartitionStore.from_encoded(dataset.encode())
        assert sorted(vertical.match(s, p, o)) == sorted(baseline.match(s, p, o))

    def test_full_scan_is_deterministic(self, vertical):
        assert list(vertical.match()) == list(vertical.match())

    def test_contains_and_add(self, dataset):
        store = VerticalPartitionStore()
        assert store.add_all(dataset) == len(dataset)
        assert store.add_all(dataset) == 0  # all duplicates
        first = dataset.triples[0]
        assert first in store
        assert Triple("no", "such", "triple") not in store

    def test_from_dataset_equals_from_encoded(self, dataset):
        a = VerticalPartitionStore.from_dataset(dataset)
        b = VerticalPartitionStore.from_encoded(dataset.encode())
        assert sorted(a) == sorted(b)
        assert a.predicate_ids() == b.predicate_ids()

    def test_match_ids_fast_path(self, dataset, vertical):
        dictionary = vertical.dictionary
        triple = dataset.triples[0]
        p_id = dictionary.lookup(triple.p)
        rows = list(vertical.match_ids(p_id=p_id))
        assert all(row.p == p_id for row in rows)
        assert len(rows) == sum(1 for t in dataset if t.p == triple.p)

    def test_nbytes_positive(self, vertical):
        assert vertical.nbytes() > 0


class TestSparqlOnEitherStore:
    def test_query_results_agree(self):
        dataset = random_rdf(17, n_triples=100, n_subjects=7, n_objects=7)
        x, y = Var("x"), Var("y")
        predicate = sorted(dataset.distinct_values(Attr.P))[0]
        query = BGPQuery(
            patterns=(
                TriplePattern(x, predicate, y),
                TriplePattern(x, "p1", y),
            ),
            projection=(x, y),
        )
        rows_hash, _ = evaluate(TripleStore.from_dataset(dataset), query)
        rows_vertical, _ = evaluate(
            VerticalPartitionStore.from_encoded(dataset.encode()), query
        )
        assert rows_vertical == rows_hash


class TestStorageVariantIdentity:
    def test_string_and_encoded_inputs_give_identical_output(self):
        dataset = random_rdf(23, n_triples=150, n_subjects=8, n_objects=8)
        config = RDFindConfig(support_threshold=3, parallelism=3)
        results = [
            (result.render_cinds(), result.render_association_rules())
            for result in (
                RDFind(config).discover(dataset),
                RDFind(config).discover(dataset.encode()),
            )
        ]
        assert results[0] == results[1]
        assert results[0][0]

    def test_string_input_runs_the_columnar_stages(self):
        # A string Dataset is encoded on entry: there is no per-triple
        # record path behind it.
        dataset = random_rdf(29, n_triples=80)
        config = RDFindConfig(support_threshold=3)
        from_strings = RDFind(config).discover(dataset)
        from_columns = RDFind(config).discover(dataset.encode())
        names = [stage.name for stage in from_strings.metrics.stages]
        assert names == [stage.name for stage in from_columns.metrics.stages]
        assert names[0] == "source/triples"
        assert "fc/unary-columnar" in names
        assert "fc/binary-columnar" in names

    def test_loader_encoding_matches_post_hoc_encoding(self):
        from repro.datasets.registry import load

        direct = load("Countries", scale=0.1, encoded=True)
        assert isinstance(direct, EncodedDataset)
        via_strings = load("Countries", scale=0.1).encode()
        assert list(direct) == list(via_strings)
        assert list(direct.dictionary.terms()) == list(
            via_strings.dictionary.terms()
        )
