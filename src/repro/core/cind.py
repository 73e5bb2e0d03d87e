"""Captures (Definition 2.2), CINDs (Definition 2.3), and association rules.

A :class:`Capture` pairs a projection attribute with a condition that must
not constrain that attribute.  A :class:`CIND` states the inclusion of one
capture's interpretation in another's.  An :class:`AssociationRule` is an
exact (confidence-1) rule ``lhs → rhs`` between unary conditions; every AR
implies a CIND (Section 3.2), and RDFind reports ARs instead of their
implied CINDs because their semantics are stronger.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Set, Tuple

from repro.core.conditions import (
    BinaryCondition,
    Condition,
    UnaryCondition,
    implies,
    is_binary,
    is_unary,
)
from repro.rdf.model import ALL_ATTRS, Attr, EncodedTriple, TermDictionary


class Capture(NamedTuple):
    """``(alpha, phi)``: project ``attr`` from triples satisfying ``condition``."""

    attr: Attr
    condition: Condition

    @classmethod
    def make(cls, attr: Attr, condition: Condition) -> "Capture":
        """Build a capture, enforcing that ``attr`` is not constrained."""
        if attr in condition.attrs:
            raise ValueError(
                f"projection attribute {attr.name} may not appear in the condition"
            )
        return cls(attr, condition)

    def value_of(self, triple: EncodedTriple) -> Optional[int]:
        """The projected value if the triple satisfies the condition."""
        if self.condition.matches(triple):
            return triple[int(self.attr)]
        return None

    @property
    def is_unary(self) -> bool:
        """True if the embedded condition is unary."""
        return is_unary(self.condition)

    @property
    def is_binary(self) -> bool:
        """True if the embedded condition is binary."""
        return is_binary(self.condition)

    def unary_relaxations(self) -> Iterator["Capture"]:
        """Captures with one conjunct of a binary condition dropped."""
        if is_binary(self.condition):
            for part in self.condition.unary_parts():
                yield Capture(self.attr, part)

    def render(self, dictionary: TermDictionary) -> str:
        """Paper-style rendering, e.g. ``(s, p=rdf:type ∧ o=gradStudent)``."""
        return f"({self.attr.symbol}, {self.condition.render(dictionary)})"


# Capture codes: what a capture is between the evidence kernel and the end
# of extraction — a plain int computed from the term ids alone, so there
# is no interning table and every worker process computes the same one:
#
#   unary  (α, β=v)          ->  v << 4 | α << 2 | β
#   binary (α, β=v1 ∧ γ=v2)  ->  (v2 + 1) << 36 | v1 << 4 | α << 2 | 3
#
# (β, γ of a binary capture are the two attributes other than α.)  Term
# ids fit array('i'), so a unary code stays below bit 35 and any bit from
# 36 up means binary.  What varies between the captures of one group sits
# in the low bits, where CPython starts probing a set; a tag kept above
# the value would collide every unary capture of a group.
_BINARY_TAG = 3
_UNARY_BITS = (1 << 36) - 1


def capture_code(capture: Capture) -> int:
    """The int code of ``capture`` (inverse: :func:`code_capture`)."""
    attr, condition = capture
    if len(condition) == 2:
        return (condition[1] << 4) | (attr << 2) | condition[0]
    return (
        ((condition[3] + 1) << 36) | (condition[1] << 4) | (attr << 2) | _BINARY_TAG
    )


def code_capture(code: int) -> Capture:
    """The capture a code spells (inverse: :func:`capture_code`)."""
    attr = ALL_ATTRS[(code >> 2) & 3]  # indexed: Attr(n) is an EnumMeta call
    tag = code & 3
    value = (code & _UNARY_BITS) >> 4
    if tag != _BINARY_TAG:
        return Capture(attr, UnaryCondition(ALL_ATTRS[tag], value))
    beta, gamma = Attr.others(attr)
    return Capture(attr, BinaryCondition(beta, value, gamma, (code >> 36) - 1))


def unary_part_codes(code: int) -> Tuple[int, ...]:
    """Codes of a binary code's two unary relaxations; none for a unary code.

    ``map(code_capture, unary_part_codes(capture_code(c)))`` spells
    ``c.unary_relaxations()``.
    """
    high = code >> 36
    if not high:
        return ()
    projection = code & 12
    beta, gamma = Attr.others(projection >> 2)  # ints key like their Attr
    return (
        (code & _UNARY_BITS) - _BINARY_TAG + beta,
        ((high - 1) << 4) | projection | gamma,
    )


class CIND(NamedTuple):
    """``dependent ⊆ referenced`` over captures (Definition 2.3)."""

    dependent: Capture
    referenced: Capture

    def is_trivial(self) -> bool:
        """True when the inclusion holds on every dataset.

        That is the case when both captures project the same attribute and
        the dependent condition implies the referenced condition (e.g.
        ``(s, p=a ∧ o=b) ⊆ (s, p=a)`` or a capture included in itself).
        Trivial CINDs carry no information, so RDFind never reports them.
        """
        return self.dependent.attr == self.referenced.attr and implies(
            self.dependent.condition, self.referenced.condition
        )

    def render(self, dictionary: TermDictionary) -> str:
        """Paper-style rendering, e.g. ``(s, p=a) ⊆ (s, p=b)``."""
        return (
            f"{self.dependent.render(dictionary)} ⊆ "
            f"{self.referenced.render(dictionary)}"
        )


class SupportedCIND(NamedTuple):
    """A CIND together with its support (Definition 3.1)."""

    cind: CIND
    support: int

    def render(self, dictionary: TermDictionary) -> str:
        """Rendering including the support."""
        return f"{self.cind.render(dictionary)}  [support={self.support}]"


class AssociationRule(NamedTuple):
    """An exact association rule ``lhs → rhs`` between unary conditions.

    Exactness (confidence 1) means every triple satisfying ``lhs`` also
    satisfies ``rhs``; the rule's support is the number of such triples.
    """

    lhs: UnaryCondition
    rhs: UnaryCondition

    @property
    def binary_condition(self) -> BinaryCondition:
        """The conjunction of both sides (equal in extent to ``lhs``)."""
        return BinaryCondition.make(
            self.lhs.attr, self.lhs.value, self.rhs.attr, self.rhs.value
        )

    def implied_cinds(self, projection_attrs: Set[Attr]) -> Iterator[CIND]:
        """The CINDs ``(γ, lhs) ⊆ (γ, lhs ∧ rhs)`` this rule implies.

        One CIND per in-scope projection attribute γ not used by either
        side of the rule (Section 3.2).
        """
        used = {self.lhs.attr, self.rhs.attr}
        binary = self.binary_condition
        for attr in sorted(projection_attrs):
            if attr not in used:
                yield CIND(Capture(attr, self.lhs), Capture(attr, binary))

    def render(self, dictionary: TermDictionary) -> str:
        """Paper-style rendering, e.g. ``o=gradStudent → p=rdf:type``."""
        return f"{self.lhs.render(dictionary)} → {self.rhs.render(dictionary)}"


class SupportedAR(NamedTuple):
    """An association rule together with its support."""

    rule: AssociationRule
    support: int

    def render(self, dictionary: TermDictionary) -> str:
        """Rendering including the support."""
        return f"{self.rule.render(dictionary)}  [support={self.support}]"


def decode_condition(condition: Condition, dictionary: TermDictionary) -> Condition:
    """Clone a condition with term ids replaced by term strings.

    The clone reuses the same NamedTuple classes with string values;
    structural operations (implication, unary parts, equality) behave
    identically, which is what downstream consumers (query minimizer,
    ontology reports) need.
    """
    if isinstance(condition, UnaryCondition):
        return UnaryCondition(condition.attr, dictionary.decode(condition.value))
    return BinaryCondition(
        condition.attr1,
        dictionary.decode(condition.value1),
        condition.attr2,
        dictionary.decode(condition.value2),
    )


def decode_capture(capture: Capture, dictionary: TermDictionary) -> Capture:
    """Clone a capture with a string-valued condition."""
    return Capture(capture.attr, decode_condition(capture.condition, dictionary))


def decode_cind(cind: CIND, dictionary: TermDictionary) -> CIND:
    """Clone a CIND with string-valued captures."""
    return CIND(
        decode_capture(cind.dependent, dictionary),
        decode_capture(cind.referenced, dictionary),
    )
