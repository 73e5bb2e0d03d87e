"""Tests for the RDF data model (terms, triples, datasets, dictionary)."""

import pytest
from hypothesis import given, strategies as st

from repro.rdf.model import (
    ALL_ATTRS,
    Attr,
    Dataset,
    EncodedTriple,
    TermDictionary,
    Triple,
)


class TestAttr:
    def test_values_are_spo_order(self):
        assert [int(a) for a in (Attr.S, Attr.P, Attr.O)] == [0, 1, 2]

    def test_symbols(self):
        assert [a.symbol for a in ALL_ATTRS] == ["s", "p", "o"]

    @pytest.mark.parametrize("symbol,expected", [
        ("s", Attr.S), ("p", Attr.P), ("o", Attr.O),
        ("S", Attr.S), ("O", Attr.O),
    ])
    def test_from_symbol(self, symbol, expected):
        assert Attr.from_symbol(symbol) is expected

    def test_from_symbol_rejects_garbage(self):
        with pytest.raises(ValueError):
            Attr.from_symbol("x")

    @pytest.mark.parametrize("attr,others", [
        (Attr.S, (Attr.P, Attr.O)),
        (Attr.P, (Attr.S, Attr.O)),
        (Attr.O, (Attr.S, Attr.P)),
    ])
    def test_others(self, attr, others):
        assert Attr.others(attr) == others


class TestTriple:
    def test_get_projects_by_attr(self):
        triple = Triple("a", "b", "c")
        assert triple.get(Attr.S) == "a"
        assert triple.get(Attr.P) == "b"
        assert triple.get(Attr.O) == "c"

    def test_str(self):
        assert str(Triple("a", "b", "c")) == "(a, b, c)"

    def test_is_tuple(self):
        assert Triple("a", "b", "c") == ("a", "b", "c")


class TestTermDictionary:
    def test_encode_assigns_dense_ids(self):
        dictionary = TermDictionary()
        assert dictionary.encode("a") == 0
        assert dictionary.encode("b") == 1
        assert dictionary.encode("a") == 0
        assert len(dictionary) == 2

    def test_decode_roundtrip(self):
        dictionary = TermDictionary()
        for term in ("x", "y", "z"):
            assert dictionary.decode(dictionary.encode(term)) == term

    def test_contains(self):
        dictionary = TermDictionary()
        dictionary.encode("a")
        assert "a" in dictionary
        assert "b" not in dictionary

    def test_encode_existing_raises_for_unknown(self):
        with pytest.raises(KeyError):
            TermDictionary().encode_existing("missing")

    def test_decode_unknown_id_raises(self):
        with pytest.raises(IndexError):
            TermDictionary().decode(5)

    def test_triple_roundtrip(self):
        dictionary = TermDictionary()
        triple = Triple("s", "p", "o")
        encoded = dictionary.encode_triple(triple)
        assert isinstance(encoded, EncodedTriple)
        assert dictionary.decode_triple(encoded) == triple

    def test_terms_in_id_order(self):
        dictionary = TermDictionary()
        for term in ("c", "a", "b"):
            dictionary.encode(term)
        assert list(dictionary.terms()) == ["c", "a", "b"]

    @given(st.lists(st.text(max_size=10)))
    def test_encoding_is_bijective(self, terms):
        dictionary = TermDictionary()
        ids = [dictionary.encode(term) for term in terms]
        assert [dictionary.decode(i) for i in ids] == terms
        assert len(dictionary) == len(set(terms))


class TestDataset:
    def test_deduplicates(self):
        ds = Dataset.from_tuples([("a", "b", "c"), ("a", "b", "c")])
        assert len(ds) == 1

    def test_preserves_insertion_order(self):
        rows = [("a", "p", "1"), ("b", "p", "2"), ("c", "p", "3")]
        ds = Dataset.from_tuples(rows)
        assert [tuple(t) for t in ds] == rows

    def test_add_reports_novelty(self):
        ds = Dataset()
        assert ds.add(Triple("a", "b", "c")) is True
        assert ds.add(Triple("a", "b", "c")) is False

    def test_update_counts_new(self):
        ds = Dataset.from_tuples([("a", "b", "c")])
        added = ds.update([Triple("a", "b", "c"), Triple("x", "y", "z")])
        assert added == 1

    def test_contains(self):
        ds = Dataset.from_tuples([("a", "b", "c")])
        assert Triple("a", "b", "c") in ds
        assert Triple("x", "y", "z") not in ds

    def test_equality_is_set_based(self):
        a = Dataset.from_tuples([("a", "b", "c"), ("d", "e", "f")])
        b = Dataset.from_tuples([("d", "e", "f"), ("a", "b", "c")])
        assert a == b

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Dataset())

    def test_values_counter(self):
        ds = Dataset.from_tuples([("a", "p", "1"), ("a", "p", "2"), ("b", "q", "1")])
        assert ds.values(Attr.S) == {"a": 2, "b": 1}
        assert ds.distinct_values(Attr.O) == {"1", "2"}

    def test_sample_is_reproducible(self):
        ds = Dataset.from_tuples([(f"s{i}", "p", f"o{i}") for i in range(50)])
        assert ds.sample(10, seed=1) == ds.sample(10, seed=1)
        assert len(ds.sample(10, seed=1)) == 10

    def test_sample_larger_than_dataset_returns_all(self):
        ds = Dataset.from_tuples([("a", "b", "c")])
        assert len(ds.sample(10)) == 1

    def test_head(self):
        ds = Dataset.from_tuples([(f"s{i}", "p", "o") for i in range(5)])
        assert len(ds.head(3)) == 3

    def test_repr_mentions_name_and_size(self):
        ds = Dataset.from_tuples([("a", "b", "c")], name="demo")
        assert "demo" in repr(ds)
        assert "1" in repr(ds)


class TestIdBackedDataset:
    """``Dataset.from_encoded``: ids until strings are asked for."""

    ROWS = [(f"s{i % 7}", f"p{i % 3}", f"o{i % 5}") for i in range(40)]

    def both(self):
        strings = Dataset.from_tuples(self.ROWS, name="demo")
        return strings, Dataset.from_encoded(strings.encode())

    def test_len_repr_and_encode_do_not_materialise(self):
        strings, backed = self.both()
        columns = backed._encoded
        assert len(backed) == len(strings) and repr(backed) == repr(strings)
        assert backed.name == "demo"
        assert backed.encode() is columns  # the backing itself, in O(1)
        assert backed._encoded is columns

    def test_string_reads_equal_a_string_built_dataset(self):
        strings, backed = self.both()
        assert list(backed) == list(strings)
        assert backed._encoded is None  # one form at a time
        assert backed.triples == strings.triples
        assert len(backed) == len(strings)
        _strings, backed = self.both()
        assert Triple("s1", "p1", "o1") in backed
        assert Triple("s1", "p1", "nope") not in backed
        _strings, backed = self.both()
        assert backed == strings and strings == backed
        _strings, backed = self.both()
        assert backed.sample(10, seed=3) == strings.sample(10, seed=3)
        assert list(backed.head(4)) == list(strings.head(4))
        assert backed.values(Attr.P) == strings.values(Attr.P)

    def test_add_leaves_handed_out_columns_alone(self):
        strings, backed = self.both()
        columns = backed.encode()
        assert backed.add(Triple("s0", "p0", "o0")) is False
        assert backed.add(Triple("new", "p0", "o0")) is True
        strings.add(Triple("new", "p0", "o0"))
        assert list(backed) == list(strings) and len(columns) == len(self.ROWS)
        again = backed.encode()
        assert again is not columns
        assert list(again) == list(strings.encode())

    def test_encode_with_a_shared_dictionary_re_encodes(self):
        strings, backed = self.both()
        shared, expected = TermDictionary(), TermDictionary()
        for dictionary in (shared, expected):
            dictionary.encode("o3")  # another dataset got there first
        assert list(backed.encode(shared)) == list(strings.encode(expected))
        assert list(shared.terms()) == list(expected.terms())

    def test_unknown_attribute_is_an_attribute_error(self):
        with pytest.raises(AttributeError):
            Dataset().no_such_attribute


class TestEncodedDataset:
    def test_encode_decode_roundtrip(self, table1_dataset):
        encoded = table1_dataset.encode()
        assert encoded.decode() == table1_dataset

    def test_shared_dictionary(self):
        a = Dataset.from_tuples([("a", "p", "x")])
        dictionary = TermDictionary()
        ea = a.encode(dictionary)
        b = Dataset.from_tuples([("a", "q", "x")])
        eb = b.encode(dictionary)
        assert ea.triples[0].s == eb.triples[0].s
        assert ea.triples[0].o == eb.triples[0].o

    def test_len_and_iter(self, table1_encoded):
        assert len(table1_encoded) == 8
        assert len(list(table1_encoded)) == 8

    def test_values(self, table1_encoded):
        counts = table1_encoded.values(Attr.P)
        assert sorted(counts.values(), reverse=True) == [3, 3, 2]

    def test_repr(self, table1_encoded):
        assert "8 triples" in repr(table1_encoded)

    @given(st.lists(
        st.tuples(st.text(max_size=5), st.text(max_size=5), st.text(max_size=5)),
        max_size=30,
    ))
    def test_roundtrip_random(self, rows):
        ds = Dataset.from_tuples(rows)
        assert ds.encode().decode() == ds
