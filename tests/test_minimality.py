"""Tests for the broad-to-pertinent minimality consolidation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cind import CIND, Capture, SupportedCIND, capture_code, code_capture
from repro.core.conditions import BinaryCondition, UnaryCondition
from repro.core.minimality import broad_cind_list, capture_rank, consolidate_pertinent
from repro.core.validation import NaiveProfiler
from repro.rdf.model import ALL_ATTRS, Attr
from tests.conftest import random_rdf
from tests.result_oracle import consolidate_pertinent as oracle_consolidate


def s_unary(attr, value):
    return Capture(Attr.S, UnaryCondition(attr, value))


def s_binary(v1, v2):
    return Capture(Attr.S, BinaryCondition.make(Attr.P, v1, Attr.O, v2))


def adjacency(*cinds_with_support):
    """Build the extractor's adjacency form from (dep, ref, support) rows."""
    broad = {}
    for dependent, referenced, support in cinds_with_support:
        refs, _support = broad.get(dependent, (frozenset(), support))
        broad[dependent] = (refs | {referenced}, support)
    return broad


def encoded(broad):
    """The adjacency form over capture codes, as the extractor returns it."""
    return {
        capture_code(dependent): (frozenset(map(capture_code, refs)), support)
        for dependent, (refs, support) in broad.items()
    }


class TestImplicationRules:
    def test_dependent_implication_removes_tighter_cind(self):
        """Figure 1: ψ1 minimal, ψ3 implied by it via dependent implication."""
        ref = s_unary(Attr.O, 99)
        unary_dep = s_unary(Attr.P, 1)
        binary_dep = s_binary(1, 2)
        broad = adjacency(
            (unary_dep, ref, 5),
            (binary_dep, ref, 3),
        )
        pertinent = {sc.cind for sc in oracle_consolidate(broad)}
        assert CIND(unary_dep, ref) in pertinent
        assert CIND(binary_dep, ref) not in pertinent

    def test_referenced_implication_removes_looser_cind(self):
        dep = s_unary(Attr.O, 99)
        unary_ref = s_unary(Attr.P, 1)
        binary_ref = s_binary(1, 2)
        broad = adjacency(
            (dep, binary_ref, 4),
            (dep, unary_ref, 4),
        )
        pertinent = {sc.cind for sc in oracle_consolidate(broad)}
        assert CIND(dep, binary_ref) in pertinent
        assert CIND(dep, unary_ref) not in pertinent

    def test_unrelated_cinds_all_survive(self):
        broad = adjacency(
            (s_unary(Attr.P, 1), s_unary(Attr.P, 2), 5),
            (s_unary(Attr.P, 2), s_unary(Attr.O, 3), 4),
        )
        assert len(oracle_consolidate(broad)) == 2

    def test_trivial_cinds_dropped(self):
        binary = s_binary(1, 2)
        relaxation = s_unary(Attr.P, 1)
        broad = adjacency((binary, relaxation, 3))
        assert oracle_consolidate(broad) == []

    def test_psi_1_2_always_minimal(self):
        """Unary dependent + binary referenced cannot be implied."""
        broad = adjacency((s_unary(Attr.O, 7), s_binary(1, 2), 3))
        assert len(oracle_consolidate(broad)) == 1

    def test_chain_of_implications(self):
        """ψ2:1 implied through both available one-step impliers."""
        ref_unary = s_unary(Attr.P, 9)
        ref_binary = Capture(Attr.S, BinaryCondition.make(Attr.P, 9, Attr.O, 8))
        dep_unary = s_unary(Attr.O, 1)
        dep_binary = Capture(Attr.S, BinaryCondition.make(Attr.O, 1, Attr.P, 2))
        broad = adjacency(
            (dep_unary, ref_binary, 5),   # Ψ1:2 — minimal
            (dep_unary, ref_unary, 5),    # Ψ1:1 — implied by the Ψ1:2
            (dep_binary, ref_binary, 3),  # Ψ2:2 — implied by the Ψ1:2
            (dep_binary, ref_unary, 3),   # Ψ2:1 — implied twice over
        )
        pertinent = {sc.cind for sc in oracle_consolidate(broad)}
        assert pertinent == {CIND(dep_unary, ref_binary)}

    def test_support_carried_through(self):
        broad = adjacency((s_unary(Attr.P, 1), s_unary(Attr.P, 2), 17))
        (row,) = oracle_consolidate(broad)
        assert row.support == 17


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("h", [1, 2])
    def test_matches_naive_minimality(self, seed, h):
        encoded = random_rdf(seed + 150, n_triples=35).encode()
        profiler = NaiveProfiler(encoded)
        broad = profiler.broad_cinds(h)
        # convert the oracle's flat dict into the adjacency form
        adjacency_form = {}
        for cind, support in broad.items():
            refs, _support = adjacency_form.get(
                cind.dependent, (frozenset(), support)
            )
            adjacency_form[cind.dependent] = (refs | {cind.referenced}, support)
        got = {(sc.cind, sc.support) for sc in oracle_consolidate(adjacency_form)}
        want = {(sc.cind, sc.support) for sc in profiler.pertinent_cinds(h)}
        assert got == want


class TestBroadList:
    def test_flattening_drops_trivial(self):
        binary = s_binary(1, 2)
        broad = adjacency(
            (binary, s_unary(Attr.P, 1), 3),  # trivial
            (binary, s_unary(Attr.S, 9), 3),  # impossible projection but non-trivial
        )
        rows = broad_cind_list(encoded(broad), code_capture)
        assert len(rows) == 1

    def test_sorted_by_support_desc(self):
        broad = adjacency(
            (s_unary(Attr.P, 1), s_unary(Attr.P, 2), 2),
            (s_unary(Attr.P, 3), s_unary(Attr.P, 4), 9),
        )
        rows = broad_cind_list(encoded(broad), code_capture)
        assert [row.support for row in rows] == [9, 2]


# ----------------------------------------------------------------------
# the code consolidation against the Capture-form oracle
# ----------------------------------------------------------------------

#: Few values, so unary and binary captures share them.
_values = st.integers(min_value=0, max_value=2)


@st.composite
def _captures(draw):
    """A capture over any of the three projections, unary or binary."""
    alpha = draw(st.sampled_from(ALL_ATTRS))
    beta, gamma = Attr.others(alpha)
    if draw(st.booleans()):
        condition = UnaryCondition(draw(st.sampled_from((beta, gamma))), draw(_values))
    else:
        condition = BinaryCondition.make(beta, draw(_values), gamma, draw(_values))
    return Capture(alpha, condition)


@st.composite
def _adjacencies(draw):
    """Broad rows over a capture pool; with ``relaxations`` the pool holds
    every binary capture's unary relaxations too, so their rows (and
    trivial references) occur."""
    pool = set(draw(st.lists(_captures(), min_size=2, max_size=12)))
    if draw(st.booleans()):
        pool.update(*(capture.unary_relaxations() for capture in list(pool)))
    pool = sorted(pool)
    broad = {}
    for dependent in draw(st.lists(st.sampled_from(pool), min_size=1, unique=True)):
        refs = draw(st.sets(st.sampled_from(pool), min_size=1)) - {dependent}
        if refs:
            broad[dependent] = (frozenset(refs), draw(st.integers(1, 4)))
    return broad


class TestCodeConsolidation:
    """``consolidate_pertinent`` over codes and a rank key, decoded, is
    the ``Capture``-form oracle's result, order included."""

    @settings(max_examples=300, deadline=None)
    @given(broad=_adjacencies())
    def test_decoded_blocks_equal_the_oracle(self, broad):
        rows = encoded(broad)
        blocks = consolidate_pertinent(rows, capture_rank(rows, code_capture))
        decoded = [
            SupportedCIND(CIND(code_capture(dependent), code_capture(ref)), support)
            for dependent, support, refs in blocks
            for ref in refs
        ]
        assert decoded == oracle_consolidate(broad)
        dependents = [dependent for dependent, _support, _refs in blocks]
        assert len(set(dependents)) == len(dependents)
        assert all(refs for _dependent, _support, refs in blocks)

    @settings(max_examples=200, deadline=None)
    @given(broad=_adjacencies())
    def test_rank_orders_codes_as_their_captures(self, broad):
        rows = encoded(broad)
        rank = capture_rank(rows, code_capture)
        codes = set(rows).union(*(refs for refs, _support in rows.values()))
        assert sorted(codes, key=rank) == sorted(codes, key=code_capture)
        assert sorted(map(rank, codes)) == list(range(len(codes)))
