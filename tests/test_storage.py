"""Tests for the dictionary-encoded columnar storage subsystem."""

import pickle
from array import array
from collections import Counter

import pytest

from repro.core.discovery import RDFind, RDFindConfig
from repro.rdf.model import Attr, Dataset, Triple
from repro.storage import EncodedDataset, EncodedTriple, TermDictionary
from tests.conftest import random_rdf

UNICODE_TERMS = [
    "http://example.org/résumé",
    "日本語のリテラル",
    "emoji \U0001f600 term",
    '"literal"@ру',
    "plain",
    "",
]


def test_every_lazy_export_resolves():
    # The PEP 562 table fails only on access, so a deleted module would
    # otherwise leave a dangling name in __all__ unnoticed.
    import repro.storage

    for name in repro.storage.__all__:
        assert getattr(repro.storage, name) is not None, name


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


class TestStorageBugfixes:
    def test_dictionary_nbytes_counts_utf8_bytes(self):
        dictionary = TermDictionary()
        for term in UNICODE_TERMS:
            dictionary.encode(term)
        payload = sum(
            len(term.encode("utf-8", "surrogatepass")) for term in UNICODE_TERMS
        )
        assert dictionary.nbytes() == payload + 16 * len(UNICODE_TERMS)
        # the multibyte terms must price above their character count
        chars = sum(len(term) for term in UNICODE_TERMS)
        assert payload > chars

    def test_dictionary_nbytes_is_incremental_and_dedup_aware(self):
        dictionary = TermDictionary()
        dictionary.encode("日本")
        first = dictionary.nbytes()
        dictionary.encode("日本")  # re-encoding does not double-charge
        assert dictionary.nbytes() == first

    def test_dictionary_pickle_keeps_payload(self):
        dictionary = TermDictionary()
        dictionary.encode_many(UNICODE_TERMS)
        clone = pickle.loads(pickle.dumps(dictionary))
        assert clone.nbytes() == dictionary.nbytes()

    def test_dictionary_old_pickle_state_recomputes_payload(self):
        dictionary = TermDictionary()
        dictionary.encode_many(UNICODE_TERMS)
        # a pickle written before _utf8_payload existed lacks the slot
        state = {
            "_term_to_id": dictionary._term_to_id,
            "_id_to_term": dictionary._id_to_term,
        }
        stale = TermDictionary.__new__(TermDictionary)
        stale.__setstate__(state)
        assert stale.nbytes() == dictionary.nbytes()

    @pytest.mark.parametrize("bad", [(-1, 0, 0), (0, -5, 0), (0, 0, -(2**40))])
    def test_append_ids_rejects_negative(self, bad):
        encoded = EncodedDataset()
        with pytest.raises(ValueError, match="non-negative"):
            encoded.append_ids(*bad)
        assert len(encoded) == 0

    def test_from_columns_validates(self):
        dictionary = TermDictionary()
        dictionary.encode_many(["a", "b", "c"])
        good = EncodedDataset.from_columns(
            array("i", [0, 1]), array("i", [2, 2]), array("i", [1, 0]),
            dictionary=dictionary,
        )
        assert len(good) == 2
        with pytest.raises(ValueError):
            EncodedDataset.from_columns(
                array("i", [0]), array("i", [0, 1]), array("i", [0]),
                dictionary=dictionary,
            )
        with pytest.raises(ValueError):
            EncodedDataset.from_columns(
                array("i", [0]), array("q", [0]), array("i", [0]),
                dictionary=dictionary,
            )
        with pytest.raises(ValueError):
            EncodedDataset.from_columns(
                array("i", [-1]), array("i", [0]), array("i", [0]),
                dictionary=dictionary,
            )


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


class TestBulkInterning:
    """``from_terms`` interns in bulk (``TermDictionary.encode_rows``) and
    must agree with ``encode`` called term by term."""

    ROWS = [
        ("a", "p", "a"),  # a new term twice in one row
        ("a", "p", "b"),
        ("a", "p", "b"),  # a duplicate row
        (UNICODE_TERMS[0], "q", UNICODE_TERMS[1]),
        ("b", UNICODE_TERMS[2], "c"),
        ("c", "c", "c"),
        ("x", "p", "shared-1"),
        ("shared-0", "q", "x"),
        (UNICODE_TERMS[5], "p", UNICODE_TERMS[0]),
    ] + [(f"s{i % 7}", f"p{i % 3}", f"o{i % 11}") for i in range(40)]

    SEED_TERMS = ["shared-0", "p", UNICODE_TERMS[1], "shared-1"]

    @staticmethod
    def dictionaries(kind, tmp_path):
        """Two equal dictionaries of one kind: one for each side."""
        if kind == "fresh":
            return TermDictionary(), TermDictionary()

        def seeded():
            dataset = EncodedDataset()
            dataset.dictionary.encode_many(TestBulkInterning.SEED_TERMS)
            dataset.append_ids(0, 1, 2)
            return dataset

        if kind == "shared":
            return seeded().dictionary, seeded().dictionary
        from repro.storage.snapshot import (
            SnapshotTermDictionary,
            load_snapshot,
            save_snapshot,
        )

        path = str(tmp_path / "seed.snap")
        save_snapshot(seeded(), path)
        pair = load_snapshot(path).dictionary, load_snapshot(path).dictionary
        assert all(isinstance(lazy, SnapshotTermDictionary) for lazy in pair)
        return pair

    @staticmethod
    def term_by_term(rows, dictionary, deduplicate):
        expected = EncodedDataset(dictionary=dictionary)
        seen = set()
        for row in rows:
            ids = tuple(dictionary.encode(term) for term in row)
            if not deduplicate or ids not in seen:
                seen.add(ids)
                expected.append_ids(*ids)
        return expected

    @pytest.mark.parametrize("deduplicate", [True, False])
    @pytest.mark.parametrize("kind", ["fresh", "shared", "snapshot"])
    def test_same_ids_len_nbytes_and_terms(self, tmp_path, kind, deduplicate):
        bulk_dictionary, single_dictionary = self.dictionaries(kind, tmp_path)
        bulk = EncodedDataset.from_terms(
            self.ROWS, dictionary=bulk_dictionary, deduplicate=deduplicate
        )
        single = self.term_by_term(self.ROWS, single_dictionary, deduplicate)
        assert bulk.dictionary is bulk_dictionary
        assert list(bulk) == list(single)
        assert len(bulk) == len(single) == (48 if deduplicate else 49)
        assert len(bulk_dictionary) == len(single_dictionary)
        assert bulk_dictionary.nbytes() == single_dictionary.nbytes()
        assert list(bulk_dictionary.terms()) == list(single_dictionary.terms())
        for term_id in range(len(single_dictionary)):
            assert bulk_dictionary.decode(term_id) == single_dictionary.decode(term_id)
            assert bulk_dictionary.lookup(single_dictionary.decode(term_id)) == term_id
        # New terms after the bulk intern continue the same id sequence.
        assert bulk_dictionary.encode("later") == single_dictionary.encode("later")

    @pytest.mark.parametrize("deduplicate", [True, False])
    def test_columns_widen_past_int32(self, monkeypatch, deduplicate):
        import repro.storage.columnar as columnar

        monkeypatch.setattr(columnar, "INT32_MAX", 3)
        bulk = EncodedDataset.from_terms(self.ROWS, deduplicate=deduplicate)
        single = self.term_by_term(self.ROWS, TermDictionary(), deduplicate)
        assert bulk.columns[0].typecode == single.columns[0].typecode == "q"
        assert list(bulk) == list(single)
        small = EncodedDataset.from_terms(self.ROWS[:2], deduplicate=deduplicate)
        assert small.columns[0].typecode == "i"  # ids 0..2 fit

    def test_empty_rows(self):
        empty = EncodedDataset.from_terms([])
        assert len(empty) == 0 and len(empty.dictionary) == 0
        assert empty.columns[0].typecode == "i"
