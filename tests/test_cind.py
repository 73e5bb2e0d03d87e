"""Tests for captures, CINDs, and association rules."""

import pytest
from hypothesis import given, strategies as st

from repro.core.cind import (
    CIND,
    AssociationRule,
    Capture,
    SupportedAR,
    SupportedCIND,
    capture_code,
    code_capture,
    decode_capture,
    decode_cind,
    decode_condition,
    unary_part_codes,
)
from repro.core.conditions import BinaryCondition, UnaryCondition
from repro.rdf.model import Attr, EncodedTriple, TermDictionary


def _dictionary():
    dictionary = TermDictionary()
    for term in ("rdf:type", "gradStudent", "memberOf", "undergradFrom"):
        dictionary.encode(term)
    return dictionary


class TestCapture:
    def test_make_valid(self):
        capture = Capture.make(Attr.S, UnaryCondition(Attr.P, 0))
        assert capture.attr is Attr.S

    def test_make_rejects_projection_in_condition(self):
        with pytest.raises(ValueError):
            Capture.make(Attr.P, UnaryCondition(Attr.P, 0))
        with pytest.raises(ValueError):
            Capture.make(Attr.O, BinaryCondition.make(Attr.P, 0, Attr.O, 1))

    def test_value_of(self):
        capture = Capture(Attr.S, UnaryCondition(Attr.P, 0))
        assert capture.value_of(EncodedTriple(7, 0, 1)) == 7
        assert capture.value_of(EncodedTriple(7, 9, 1)) is None

    def test_arity_flags(self):
        unary = Capture(Attr.S, UnaryCondition(Attr.P, 0))
        binary = Capture(Attr.S, BinaryCondition.make(Attr.P, 0, Attr.O, 1))
        assert unary.is_unary and not unary.is_binary
        assert binary.is_binary and not binary.is_unary

    def test_unary_relaxations(self):
        binary = Capture(Attr.S, BinaryCondition.make(Attr.P, 0, Attr.O, 1))
        relaxed = set(binary.unary_relaxations())
        assert relaxed == {
            Capture(Attr.S, UnaryCondition(Attr.P, 0)),
            Capture(Attr.S, UnaryCondition(Attr.O, 1)),
        }
        assert list(Capture(Attr.S, UnaryCondition(Attr.P, 0)).unary_relaxations()) == []

    def test_render(self):
        dictionary = _dictionary()
        capture = Capture(
            Attr.S, BinaryCondition.make(Attr.P, 0, Attr.O, 1)
        )
        assert capture.render(dictionary) == "(s, p=rdf:type ∧ o=gradStudent)"


class TestCIND:
    def test_trivial_reflexive_like(self):
        capture = Capture(Attr.S, UnaryCondition(Attr.P, 0))
        assert CIND(capture, capture).is_trivial()

    def test_trivial_binary_to_unary_same_projection(self):
        binary = Capture(Attr.S, BinaryCondition.make(Attr.P, 0, Attr.O, 1))
        unary = Capture(Attr.S, UnaryCondition(Attr.P, 0))
        assert CIND(binary, unary).is_trivial()
        assert not CIND(unary, binary).is_trivial()

    def test_not_trivial_across_projections(self):
        a = Capture(Attr.S, UnaryCondition(Attr.P, 0))
        b = Capture(Attr.O, UnaryCondition(Attr.P, 0))
        assert not CIND(a, b).is_trivial()

    def test_render(self):
        dictionary = _dictionary()
        cind = CIND(
            Capture(Attr.S, UnaryCondition(Attr.P, 2)),
            Capture(Attr.S, UnaryCondition(Attr.P, 0)),
        )
        assert cind.render(dictionary) == "(s, p=memberOf) ⊆ (s, p=rdf:type)"

    def test_supported_render_includes_support(self):
        dictionary = _dictionary()
        cind = CIND(
            Capture(Attr.S, UnaryCondition(Attr.P, 2)),
            Capture(Attr.S, UnaryCondition(Attr.P, 0)),
        )
        assert "[support=5]" in SupportedCIND(cind, 5).render(dictionary)


class TestAssociationRule:
    def test_binary_condition(self):
        rule = AssociationRule(
            UnaryCondition(Attr.O, 1), UnaryCondition(Attr.P, 0)
        )
        assert rule.binary_condition == BinaryCondition.make(Attr.P, 0, Attr.O, 1)

    def test_implied_cinds_use_free_attributes(self):
        rule = AssociationRule(
            UnaryCondition(Attr.O, 1), UnaryCondition(Attr.P, 0)
        )
        implied = list(rule.implied_cinds({Attr.S, Attr.P, Attr.O}))
        assert len(implied) == 1
        (cind,) = implied
        assert cind.dependent == Capture(Attr.S, UnaryCondition(Attr.O, 1))
        assert cind.referenced == Capture(
            Attr.S, BinaryCondition.make(Attr.P, 0, Attr.O, 1)
        )

    def test_implied_cinds_respect_scope(self):
        rule = AssociationRule(
            UnaryCondition(Attr.O, 1), UnaryCondition(Attr.P, 0)
        )
        assert list(rule.implied_cinds({Attr.P})) == []

    def test_render(self):
        dictionary = _dictionary()
        rule = AssociationRule(
            UnaryCondition(Attr.O, 1), UnaryCondition(Attr.P, 0)
        )
        assert rule.render(dictionary) == "o=gradStudent → p=rdf:type"
        assert "[support=2]" in SupportedAR(rule, 2).render(dictionary)


class TestDecoding:
    def test_decode_condition(self):
        dictionary = _dictionary()
        unary = UnaryCondition(Attr.P, 0)
        assert decode_condition(unary, dictionary) == UnaryCondition(Attr.P, "rdf:type")
        binary = BinaryCondition.make(Attr.P, 0, Attr.O, 1)
        decoded = decode_condition(binary, dictionary)
        assert decoded.value1 == "rdf:type" and decoded.value2 == "gradStudent"

    def test_decode_capture_and_cind(self):
        dictionary = _dictionary()
        cind = CIND(
            Capture(Attr.S, UnaryCondition(Attr.P, 2)),
            Capture(Attr.S, UnaryCondition(Attr.P, 3)),
        )
        decoded = decode_cind(cind, dictionary)
        assert decoded.dependent.condition.value == "memberOf"
        assert decoded.referenced.condition.value == "undergradFrom"
        assert decode_capture(cind.dependent, dictionary) == decoded.dependent

    def test_decoded_structures_keep_behaviour(self):
        dictionary = _dictionary()
        binary = BinaryCondition.make(Attr.P, 0, Attr.O, 1)
        decoded = decode_condition(binary, dictionary)
        parts = decoded.unary_parts()
        assert parts[0].value in ("rdf:type", "gradStudent")


# ----------------------------------------------------------------------
# capture codes: the int form a capture takes inside CGCreator/CINDExtractor
# ----------------------------------------------------------------------

_INT32_MAX = 2**31 - 1
_ids = st.one_of(
    st.sampled_from([0, 1, _INT32_MAX]), st.integers(0, _INT32_MAX)
)


@st.composite
def _captures(draw):
    """All nine (projection, condition shape) kinds over the full id range."""
    attr = draw(st.sampled_from(list(Attr)))
    beta, gamma = Attr.others(attr)
    shape = draw(st.sampled_from(["beta", "gamma", "binary"]))
    if shape == "binary":
        return Capture(attr, BinaryCondition(beta, draw(_ids), gamma, draw(_ids)))
    return Capture(
        attr, UnaryCondition(beta if shape == "beta" else gamma, draw(_ids))
    )


class TestCaptureCode:
    @given(capture=_captures())
    def test_round_trip(self, capture):
        code = capture_code(capture)
        assert type(code) is int and code >= 0
        decoded = code_capture(code)
        assert decoded == capture
        assert type(decoded) is Capture
        assert type(decoded.condition) is type(capture.condition)
        assert isinstance(decoded.attr, Attr)

    @given(a=_captures(), b=_captures())
    def test_injective(self, a, b):
        assert (capture_code(a) == capture_code(b)) == (a == b)

    def test_extremes_of_the_id_range_round_trip_for_every_kind(self):
        seen = set()
        for attr in Attr:
            beta, gamma = Attr.others(attr)
            for v1 in (0, _INT32_MAX):
                kinds = [
                    Capture(attr, UnaryCondition(beta, v1)),
                    Capture(attr, UnaryCondition(gamma, v1)),
                ] + [
                    Capture(attr, BinaryCondition(beta, v1, gamma, v2))
                    for v2 in (0, _INT32_MAX)
                ]
                for capture in kinds:
                    assert code_capture(capture_code(capture)) == capture
                    seen.add(capture_code(capture))
        assert len(seen) == 3 * 2 * (2 + 2)

    @given(capture=_captures())
    def test_unary_parts_commute_with_unary_relaxations(self, capture):
        parts = unary_part_codes(capture_code(capture))
        assert [code_capture(part) for part in parts] == list(
            capture.unary_relaxations()
        )

    @given(attr=st.sampled_from(list(Attr)), value=_ids)
    def test_what_varies_inside_a_group_sits_in_the_low_bits(self, attr, value):
        """CPython probes a set from the low bits of an int's hash."""
        beta, gamma = Attr.others(attr)
        as_beta = capture_code(Capture(attr, UnaryCondition(beta, value)))
        as_gamma = capture_code(Capture(attr, UnaryCondition(gamma, value)))
        assert as_beta & 15 != as_gamma & 15
        neighbour = capture_code(Capture(attr, UnaryCondition(beta, value ^ 1)))
        assert (as_beta ^ neighbour) == 16
