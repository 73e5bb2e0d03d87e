"""Tests for the Bloom filter."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.conditions import BinaryCondition, UnaryCondition
from repro.dataflow.bloom import BloomFilter, int_key_mask
from repro.rdf.model import Attr


_int_keys = st.one_of(
    st.integers(-(10**6), 10**6),
    st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
)


class TestBasics:
    def test_empty_contains_nothing(self):
        bloom = BloomFilter(256)
        assert 42 not in bloom
        assert bloom.bit_count == 0

    def test_added_items_are_members(self):
        bloom = BloomFilter(256)
        bloom.add(42)
        assert 42 in bloom
        assert bloom.bit_count > 0

    def test_update_many(self):
        bloom = BloomFilter(1024)
        bloom.update(range(50))
        assert all(i in bloom for i in range(50))

    def test_string_and_tuple_keys(self):
        bloom = BloomFilter(512)
        bloom.add("hello")
        bloom.add((1, "x", b"y"))
        assert "hello" in bloom
        assert (1, "x", b"y") in bloom

    def test_unsupported_key_type_raises(self):
        bloom = BloomFilter(256)
        with pytest.raises(TypeError):
            bloom.add([1, 2])

    def test_min_bits_clamped(self):
        assert BloomFilter(1).num_bits == 8

    def test_hash_count_validation(self):
        with pytest.raises(ValueError):
            BloomFilter(256, num_hashes=0)


class TestIntFastPath:
    """Regressions for the deterministic int fast path of ``_hash_pair``."""

    def test_bool_does_not_alias_int(self):
        """``hash(True) == hash(1)``, so bools must take the canonical-bytes
        path (which distinguishes them) rather than the int fast path."""
        bloom = BloomFilter(4096, num_hashes=4)
        bloom.add(True)
        assert True in bloom
        assert 1 not in bloom
        bloom2 = BloomFilter(4096, num_hashes=4)
        bloom2.add(0)
        assert 0 in bloom2
        assert False not in bloom2

    def test_bool_inside_tuple_not_aliased(self):
        bloom = BloomFilter(4096, num_hashes=4)
        bloom.add((True, 2))
        assert (True, 2) in bloom
        assert (1, 2) not in bloom

    def test_sequential_ids_fp_rate(self):
        """The regression the splitmix64 finalizer fixes: builtin ``hash``
        is the identity for small ints, so dense sequential term ids
        produced correlated probe positions and an observed FP rate far
        above the configured one."""
        fp_rate = 0.01
        bloom = BloomFilter.from_items(range(2000), capacity=2000, fp_rate=fp_rate)
        trials = 20_000
        false_positives = sum(
            1 for i in range(1_000_000, 1_000_000 + trials) if i in bloom
        )
        assert false_positives / trials <= 2 * fp_rate

    def test_int_hashing_unaffected_by_magnitude(self):
        """Large ints (beyond identity-hash range) still round-trip."""
        keys = [2**70 + i for i in range(50)]
        bloom = BloomFilter.from_items(keys, capacity=50)
        assert all(key in bloom for key in keys)


class TestIntKeyMask:
    """A small filter held as one int (Algorithm 3's candidate filters)."""

    _keys = st.integers(0, 2**68)  # capture codes reach bit 67
    _geometries = st.tuples(
        st.sampled_from([1, 8, 64, 512, 1000]), st.integers(1, 6)
    )

    @given(key=_keys, geometry=_geometries)
    def test_mask_is_the_bits_add_would_set(self, key, geometry):
        bloom = BloomFilter(*geometry)
        bloom.add(key)
        mask = int_key_mask(key, *geometry)
        assert mask == int.from_bytes(bloom._bits, "little")
        assert 0 < mask < 1 << bloom.num_bits

    @given(
        members=st.lists(_keys, min_size=1, max_size=30),
        probes=st.lists(_keys, max_size=30),
        geometry=_geometries,
    )
    def test_or_and_probe_agree_with_the_bytearray_filter(
        self, members, probes, geometry
    ):
        bloom = BloomFilter(*geometry)
        bloom.update(members)
        bits = 0
        for member in members:
            bits |= int_key_mask(member, *geometry)
        for key in members + probes:
            may_contain = int_key_mask(key, *geometry) & ~bits == 0
            assert may_contain == bloom.int_key_probe()(key)
            assert may_contain or key not in members  # no false negatives

    def test_hash_count_validation(self):
        with pytest.raises(ValueError):
            int_key_mask(7, 512, 0)


_wide_ints = st.one_of(
    st.integers(-(2**70), 2**70),
    st.integers(2**63, 2**80),  # beyond builtin hash's modulus
)
_probe_keys = st.one_of(
    _wide_ints,
    st.lists(_wide_ints, max_size=4).map(tuple),
    st.recursive(
        _wide_ints, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=8
    ),
    st.builds(UnaryCondition, st.sampled_from(Attr), _wide_ints),
    st.builds(
        BinaryCondition,
        st.sampled_from(Attr),
        _wide_ints,
        st.sampled_from(Attr),
        _wide_ints,
    ),
)


class TestIntKeyProbe:
    """``int_key_probe()``: the batch kernels' probe, bound once per batch."""

    @given(
        members=st.lists(_probe_keys, max_size=25),
        probes=st.lists(_probe_keys, max_size=25),
        num_bits=st.integers(8, 5000),
        num_hashes=st.integers(1, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_probe_agrees_with_membership(self, members, probes, num_bits, num_hashes):
        bloom = BloomFilter(num_bits, num_hashes)
        bloom.update(members)
        probe = bloom.int_key_probe()
        for key in members + probes:
            assert probe(key) == (key in bloom)

    def test_plain_tuples_probe_like_their_conditions(self):
        bloom = BloomFilter.for_capacity(64, 0.01)
        bloom.update(UnaryCondition(Attr.P, value) for value in range(0, 200, 3))
        bloom.add(BinaryCondition(Attr.S, 4, Attr.O, 9))
        probe = bloom.int_key_probe()
        for value in range(200):
            assert probe((1, value)) == (UnaryCondition(Attr.P, value) in bloom)
        assert probe((0, 4, 2, 9))

    def test_probe_reads_the_live_bits(self):
        bloom = BloomFilter(4096, num_hashes=3)
        probe = bloom.int_key_probe()
        assert not probe((1, 2))
        bloom.add((1, 2))
        other = BloomFilter(4096, num_hashes=3)
        other.add(77)
        bloom.union_update(other)
        assert probe((1, 2)) and probe(77)


class TestSizing:
    def test_for_capacity_respects_fp_rate(self):
        small = BloomFilter.for_capacity(100, fp_rate=0.1)
        large = BloomFilter.for_capacity(100, fp_rate=0.001)
        assert large.num_bits > small.num_bits

    def test_for_capacity_validates_rate(self):
        with pytest.raises(ValueError):
            BloomFilter.for_capacity(10, fp_rate=1.5)

    def test_from_items(self):
        bloom = BloomFilter.from_items(range(20), capacity=20)
        assert all(i in bloom for i in range(20))

    def test_observed_fp_rate_close_to_target(self):
        bloom = BloomFilter.from_items(range(1000), capacity=1000, fp_rate=0.01)
        false_positives = sum(1 for i in range(10_000, 20_000) if i in bloom)
        assert false_positives / 10_000 < 0.05


class TestSetOperations:
    def test_union_contains_both_sides(self):
        a = BloomFilter.from_items(range(0, 50), capacity=100)
        b = BloomFilter(a.num_bits, a.num_hashes)
        b.update(range(50, 100))
        union = a | b
        assert all(i in union for i in range(100))

    def test_union_update_in_place(self):
        a = BloomFilter(256)
        b = BloomFilter(256)
        b.add(7)
        assert a.union_update(b) is a
        assert 7 in a

    def test_intersect_has_no_false_negatives_on_common(self):
        # Algorithm 3's AND runs on int filters (the `|` of int_key_mask).
        def filter_of(keys):
            bits = 0
            for key in keys:
                bits |= int_key_mask(key, 2048, 4)
            return bits

        common = list(range(20))
        intersection = filter_of(common + list(range(100, 120))) & filter_of(
            common + list(range(200, 220))
        )
        assert all(
            int_key_mask(i, 2048, 4) & ~intersection == 0 for i in common
        )

    def test_incompatible_geometries_rejected(self):
        with pytest.raises(ValueError):
            BloomFilter(256) | BloomFilter(512)

    def test_equality(self):
        a = BloomFilter(256)
        b = BloomFilter(256)
        a.add(1)
        b.add(1)
        assert a == b
        b.add(2)
        assert a != b

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(BloomFilter(256))


class TestDiagnostics:
    def test_fill_ratio_grows(self):
        bloom = BloomFilter(256)
        before = bloom.fill_ratio
        bloom.update(range(10))
        assert bloom.fill_ratio > before

    def test_cardinality_estimate_in_ballpark(self):
        bloom = BloomFilter.for_capacity(500, fp_rate=0.01)
        bloom.update(range(500))
        estimate = bloom.approximate_cardinality()
        assert 350 < estimate < 700

    def test_repr(self):
        assert "bits=256" in repr(BloomFilter(256))


class TestDecisions:
    """``decisions``: scratch space that lives and dies with the bits."""

    def test_add_and_union_update_forget(self):
        bloom = BloomFilter(64, num_hashes=2)
        bloom.decisions["seen"] = {1, 2}
        bloom.add((0, 7))
        assert bloom.decisions == {}
        bloom.decisions["seen"] = {1, 2}
        other = BloomFilter(64, num_hashes=2)
        other.add((1, 9))
        assert bloom.union_update(other).decisions == {}
        bloom.decisions["seen"] = {3}
        assert (bloom | other).decisions == {}

    def test_pickle_and_equality_leave_the_decisions_behind(self):
        bloom = BloomFilter.from_items(range(0, 900, 3), capacity=300)
        fresh = pickle.dumps(bloom)
        bloom.decisions[0] = (set(range(900)), set(range(0, 900, 3)))
        assert pickle.dumps(bloom) == fresh
        restored = pickle.loads(pickle.dumps(bloom))
        assert restored.decisions == {}
        assert restored == bloom and bloom == BloomFilter.from_bytes(bloom.to_bytes())
        assert all(key in restored for key in range(0, 900, 3))


class TestSerialization:
    def test_roundtrip(self):
        bloom = BloomFilter.from_items(range(30), capacity=30)
        clone = BloomFilter.from_bytes(bloom.to_bytes())
        assert clone == bloom
        assert all(i in clone for i in range(30))

    def test_corrupt_payload_rejected(self):
        payload = BloomFilter(256).to_bytes()
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(payload[:-1])

    def test_roundtrip_preserves_geometry(self):
        bloom = BloomFilter(777, num_hashes=5)
        clone = BloomFilter.from_bytes(bloom.to_bytes())
        assert clone.num_bits == 777
        assert clone.num_hashes == 5

    def test_union_update_built_filter_roundtrips(self):
        """The distributed-build shape: per-worker partials merged with
        union_update, then serialized for broadcast (Figure 5, steps 3-4)."""
        partials = []
        for worker in range(4):
            partial = BloomFilter(2048, num_hashes=4)
            partial.update(range(worker * 25, (worker + 1) * 25))
            partials.append(partial)
        merged = partials[0]
        for partial in partials[1:]:
            merged.union_update(partial)
        clone = BloomFilter.from_bytes(merged.to_bytes())
        assert clone == merged
        assert all(i in clone for i in range(100))
        # mixed key types survive the round trip too
        mixed = BloomFilter(2048, num_hashes=4)
        mixed.update([True, 1, "one", (1, "x")])
        restored = BloomFilter.from_bytes(mixed.to_bytes())
        assert True in restored and 1 in restored
        assert "one" in restored and (1, "x") in restored


class TestNoFalseNegatives:
    @given(st.lists(_int_keys, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_every_inserted_key_is_member(self, keys):
        bloom = BloomFilter.for_capacity(max(1, len(keys)), fp_rate=0.01)
        for key in keys:
            bloom.add(key)
        assert all(key in bloom for key in keys)

    @given(st.lists(st.text(max_size=12), max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_string_keys_no_false_negatives(self, keys):
        bloom = BloomFilter.for_capacity(max(1, len(keys)))
        bloom.update(keys)
        assert all(key in bloom for key in keys)
