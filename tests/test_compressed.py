"""Tests for the compressed storage layer (repro.storage.compressed)."""

import pickle
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.columnar import EncodedDataset
from repro.storage.compressed import (
    BitPackedColumn,
    CompressedDataset,
    FrozenPostingList,
    frequency_order,
    frequency_rank,
    packed_column_nbytes,
    remap_by_frequency,
)
from repro.storage.dictionary import TermDictionary
from repro.storage.vertical import (
    PostingOverflowError,
    VerticalPartitionStore,
    _pack_posting,
)
from tests.conftest import random_rdf
from tests.test_storage import UNICODE_TERMS


class TestFrozenPostingList:
    def test_roundtrip_preserves_order_and_values(self):
        rng = random.Random(3)
        values = [rng.randrange(0, 1 << 45) for _ in range(500)]
        frozen = FrozenPostingList.from_values(values)
        assert len(frozen) == len(values)
        assert list(frozen) == values
        assert frozen.tolist() == values

    def test_empty(self):
        frozen = FrozenPostingList.from_values([])
        assert len(frozen) == 0
        assert list(frozen) == []
        assert frozen.nbytes() == 0

    def test_near_consecutive_values_pack_to_about_a_byte_each(self):
        # The vertical store's posting lists are runs of adjacent packed
        # offsets; deltas of 1 must cost 1 byte, not 8.
        base = 7 << 32
        values = [base + offset for offset in range(1000)]
        frozen = FrozenPostingList.from_values(values)
        assert list(frozen) == values
        # first delta is the large base, every later one is a 1-byte varint
        assert frozen.nbytes() < 1000 + 16
        mutable = array("q", values)
        assert frozen.nbytes() < mutable.itemsize * len(mutable) / 4

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2**62)))
    def test_roundtrip_any_values(self, values):
        assert list(FrozenPostingList.from_values(values)) == values


class TestBitPackedColumn:
    def test_roundtrip_iter_and_getitem(self):
        rng = random.Random(11)
        values = [rng.randrange(0, 1 << 13) for _ in range(3000)]
        column = BitPackedColumn.pack(values)
        assert len(column) == len(values)
        assert list(column) == values
        for index in range(0, len(values), 97):
            assert column[index] == values[index]
        assert column[-1] == values[-1]
        assert column[0] == values[0]

    def test_chunk_boundaries(self):
        # Exactly at, one below, and one above the packing chunk size.
        for count in (1023, 1024, 1025, 2048, 2049):
            values = list(range(count))
            column = BitPackedColumn.pack(values)
            assert list(column) == values
            assert column[count - 1] == count - 1

    def test_width_is_per_column_maximum(self):
        assert BitPackedColumn.pack([0, 1]).width == 1
        assert BitPackedColumn.pack([255]).width == 8
        assert BitPackedColumn.pack([256]).width == 9
        assert BitPackedColumn.pack([]).width == 1

    def test_nbytes_matches_estimator_and_beats_arrays(self):
        values = array("i", [random.Random(5).randrange(0, 128) for _ in range(4000)])
        column = BitPackedColumn.pack(values)
        assert column.nbytes() == packed_column_nbytes(values)
        assert column.nbytes() * 4 <= values.itemsize * len(values)

    def test_to_array_roundtrip(self):
        values = [5, 0, 31, 7]
        assert list(BitPackedColumn.pack(values).to_array("q")) == values

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            BitPackedColumn.pack([3, -1, 2])

    def test_rejects_too_narrow_width(self):
        with pytest.raises(ValueError):
            BitPackedColumn.pack([256], width=8)

    def test_index_out_of_range(self):
        column = BitPackedColumn.pack([1, 2, 3])
        with pytest.raises(IndexError):
            column[3]

    def test_pickle_roundtrip(self):
        values = [9, 8, 7, 6]
        clone = pickle.loads(pickle.dumps(BitPackedColumn.pack(values)))
        assert list(clone) == values

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2**40)))
    def test_roundtrip_any_values(self, values):
        column = BitPackedColumn.pack(values)
        assert list(column) == values
        assert [column[i] for i in range(len(values))] == values


class TestFrequencyRemap:
    def test_order_is_by_descending_count_then_id(self):
        encoded = EncodedDataset.from_terms(
            [("a", "p", "b"), ("a", "p", "c"), ("a", "p", "b")],
            deduplicate=False,
        )
        # counts: a=3, p=3, b=2, c=1 -> order a(0), p(1), b(2), c(3)
        assert frequency_order(encoded) == [0, 1, 2, 3]
        encoded2 = EncodedDataset.from_terms(
            [("x", "p", "y"), ("z", "p", "y"), ("w", "p", "y")],
            deduplicate=False,
        )
        order = frequency_order(encoded2)
        decode = encoded2.dictionary.decode
        assert decode(order[0]) == "p" or decode(order[1]) == "p"
        assert {decode(order[0]), decode(order[1])} == {"p", "y"}

    def test_rank_inverts_order(self):
        encoded = random_rdf(7, n_triples=80).encode()
        order = frequency_order(encoded)
        rank = frequency_rank(order)
        assert all(order[rank[tid]] == tid for tid in range(len(order)))

    def test_remap_preserves_decoded_triples(self):
        encoded = random_rdf(13, n_triples=120).encode()
        remapped = remap_by_frequency(encoded)
        assert sorted(map(tuple, remapped.decode())) == sorted(
            map(tuple, encoded.decode())
        )
        # hot terms get small codes: the remapped columns' maxima shrink
        assert max(max(c) for c in remapped.columns) <= max(
            max(c) for c in encoded.columns
        )


class TestCompressedDataset:
    def test_iterates_original_ids(self):
        encoded = random_rdf(21, n_triples=150).encode()
        compressed = CompressedDataset.from_encoded(encoded)
        assert len(compressed) == len(encoded)
        assert list(compressed) == list(encoded)
        assert compressed.budget_cells == encoded.cells

    def test_nbytes_shrinks_and_roundtrips(self):
        encoded = random_rdf(22, n_triples=400).encode()
        compressed = CompressedDataset.from_encoded(encoded)
        assert compressed.nbytes() < encoded.nbytes()
        assert compressed.total_nbytes() > compressed.nbytes()
        restored = compressed.to_encoded()
        assert list(restored) == list(encoded)
        assert restored.dictionary is encoded.dictionary

    def test_predicate_column_is_narrow(self):
        # Frequency-ordered codes put the handful of predicates at the
        # very front of the id space, so the p column packs sub-byte.
        encoded = random_rdf(23, n_triples=500, n_predicates=4).encode()
        compressed = CompressedDataset.from_encoded(encoded)
        assert compressed.columns[1].width <= 4


class TestVerticalStoreFreeze:
    def test_freeze_preserves_every_match_answer(self):
        dataset = random_rdf(31, n_triples=200)
        store = VerticalPartitionStore.from_dataset(dataset)
        reference = sorted(store.match())
        probes = [
            dict(),
            dict(p="p1"),
            dict(s="s2"),
            dict(o="x1"),
            dict(s="x0", o="x1"),
            dict(s="s1", p="p0"),
            dict(p="p2", o="o3"),
            dict(s="s0", p="p1", o="o2"),
            dict(p="nope"),
        ]
        answers = [sorted(store.match(**probe)) for probe in probes]
        nbytes_before = store.nbytes()
        assert store.freeze() is store
        assert store.frozen
        assert sorted(store.match()) == reference
        for probe, answer in zip(probes, answers):
            assert sorted(store.match(**probe)) == answer
        assert store.nbytes() < nbytes_before
        assert len(store) == len(reference)
        # membership + cardinality still served off the frozen form
        assert reference[0] in store
        assert store.cardinality_estimate(p="p1") >= store.count(p="p1")

    def test_freeze_is_idempotent_and_thaw_restores(self):
        store = VerticalPartitionStore.from_dataset(random_rdf(32, n_triples=60))
        reference = sorted(store.match())
        store.freeze()
        store.freeze()
        store.thaw()
        assert not store.frozen
        assert sorted(store.match()) == reference
        store.thaw()  # idempotent too

    def test_add_after_freeze_thaws_transparently(self):
        store = VerticalPartitionStore.from_dataset(random_rdf(33, n_triples=40))
        store.freeze()
        assert store.add(("new-s", "new-p", "new-o"))
        assert not store.frozen
        assert ("new-s", "new-p", "new-o") in store


class TestPostingOverflowGuard:
    def test_boundary_values_pack_exactly(self):
        packed = _pack_posting(2**31 - 1, 2**32 - 1)
        assert packed >> 32 == 2**31 - 1
        assert packed & (2**32 - 1) == 2**32 - 1
        # still fits a signed 64-bit array slot
        array("q", [packed])

    @pytest.mark.parametrize(
        "p_id, offset",
        [(2**31, 0), (0, 2**32), (-1, 0), (0, -1)],
    )
    def test_out_of_range_raises_typed_error(self, p_id, offset):
        with pytest.raises(PostingOverflowError):
            _pack_posting(p_id, offset)

    def test_error_is_an_overflow_error(self):
        with pytest.raises(OverflowError):
            _pack_posting(2**31, 0)


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
