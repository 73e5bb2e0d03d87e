"""End-to-end tests of the RDFind discovery pipeline against the oracle,
plus the paper's lemmas as executable properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cind import CIND, Capture
from repro.core.conditions import ConditionScope, UnaryCondition
from repro.core.discovery import (
    RDFind,
    RDFindConfig,
    find_pertinent_cinds,
)
from repro.core.validation import NaiveProfiler
from repro.datasets import registry
from repro.rdf.model import Attr, Dataset
from tests.conftest import ar_set, cind_set, random_rdf


class TestConfig:
    def test_defaults(self):
        config = RDFindConfig()
        assert config.variant_name == "RDFind"
        assert config.support_threshold == 25

    def test_validation(self):
        with pytest.raises(ValueError):
            RDFindConfig(support_threshold=0)
        with pytest.raises(ValueError):
            RDFindConfig(parallelism=0)

    def test_variant_presets(self):
        assert RDFindConfig.direct_extraction().variant_name == "RDFind-DE"
        assert RDFindConfig.no_frequent_conditions().variant_name == "RDFind-NF"

    def test_with_support(self):
        assert RDFindConfig(support_threshold=5).with_support(9).support_threshold == 9


class TestPaperExamples:
    def test_example3_cind_holds_at_h2(self, table1_encoded):
        """The Example 3 inclusion is reported via its AR-equivalent
        dependent capture (o=gradStudent ≡ p=rdf:type ∧ o=gradStudent)."""
        result = find_pertinent_cinds(table1_encoded, support_threshold=2)
        dictionary = table1_encoded.dictionary
        dependent = Capture(
            Attr.S, UnaryCondition(Attr.O, dictionary.encode_existing("gradStudent"))
        )
        referenced = Capture(
            Attr.S,
            UnaryCondition(Attr.P, dictionary.encode_existing("undergradFrom")),
        )
        found = {sc.cind for sc in result.cinds}
        assert CIND(dependent, referenced) in found

    def test_figure1_minimal_cind(self, table1_encoded):
        """(s, p=memberOf) ⊆ (s, p=rdf:type) — ψ4 in Figure 1 — is broad
        and minimal at h=2 on Table 1."""
        result = find_pertinent_cinds(table1_encoded, support_threshold=2)
        rendered = set(result.render_cinds())
        assert "(s, p=memberOf) ⊆ (s, p=rdf:type)  [support=2]" in rendered

    def test_gradstudent_ar(self, table1_encoded):
        result = find_pertinent_cinds(table1_encoded, support_threshold=2)
        assert "o=gradStudent → p=rdf:type  [support=2]" in set(
            result.render_association_rules()
        )


class TestAgainstOracle:
    @pytest.mark.parametrize("h", [1, 2, 3, 4])
    def test_table1_all_thresholds(self, table1_encoded, h):
        result = find_pertinent_cinds(table1_encoded, support_threshold=h)
        oracle_cinds, oracle_ars = NaiveProfiler(table1_encoded).discover(h)
        assert cind_set(result) == {(sc.cind, sc.support) for sc in oracle_cinds}
        assert ar_set(result) == {(sa.rule, sa.support) for sa in oracle_ars}

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("parallelism", [1, 3])
    def test_random_datasets(self, seed, parallelism):
        encoded = random_rdf(seed + 200, n_triples=45).encode()
        result = find_pertinent_cinds(
            encoded, support_threshold=2, parallelism=parallelism
        )
        oracle_cinds, oracle_ars = NaiveProfiler(encoded).discover(2)
        assert cind_set(result) == {(sc.cind, sc.support) for sc in oracle_cinds}
        assert ar_set(result) == {(sa.rule, sa.support) for sa in oracle_ars}

    def test_predicates_only_scope(self, table1_encoded):
        scope = ConditionScope.predicates_only()
        result = find_pertinent_cinds(table1_encoded, support_threshold=2, scope=scope)
        oracle_cinds, oracle_ars = NaiveProfiler(table1_encoded, scope).discover(2)
        assert cind_set(result) == {(sc.cind, sc.support) for sc in oracle_cinds}
        assert not oracle_ars  # no binary conditions, hence no ARs

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5), st.integers(0, 3), st.integers(0, 5)
            ),
            min_size=1,
            max_size=35,
        ),
        st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_random_rdf(self, rows, h):
        dataset = Dataset.from_tuples(
            [(f"t{s}", f"p{p}", f"t{o}") for s, p, o in rows]
        )
        encoded = dataset.encode()
        result = find_pertinent_cinds(encoded, support_threshold=h, parallelism=2)
        oracle_cinds, oracle_ars = NaiveProfiler(encoded).discover(h)
        assert cind_set(result) == {(sc.cind, sc.support) for sc in oracle_cinds}
        assert ar_set(result) == {(sa.rule, sa.support) for sa in oracle_ars}


class TestBroadCindCount:
    """``stats.num_broad_cinds`` is counted from the adjacency rows, not by
    building every CIND: it must equal the length of the built list."""

    @pytest.mark.parametrize(
        "name,h,expected", [("Countries", 3, 182_288), ("Diseasome", 10, 3_350)]
    )
    def test_registry_datasets(self, name, h, expected):
        dataset = registry.load(name, encoded=True)
        config = RDFindConfig(support_threshold=h, keep_broad_cinds=True)
        result = RDFind(config).discover(dataset)
        assert result.stats.num_broad_cinds == len(result.broad_cinds) == expected

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 5)),
            min_size=1,
            max_size=35,
        ),
        st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_random_rdf(self, rows, h):
        dataset = Dataset.from_tuples(
            [(f"t{s}", f"p{p}", f"t{o}") for s, p, o in rows]
        )
        config = RDFindConfig(
            support_threshold=h, parallelism=2, keep_broad_cinds=True
        )
        result = RDFind(config).discover(dataset)
        assert result.stats.num_broad_cinds == len(result.broad_cinds)


class TestPaperLemmas:
    def test_lemma1_condition_frequency_bounds_support(self):
        """Lemma 1: both condition frequencies >= the CIND's support."""
        encoded = random_rdf(301, n_triples=50).encode()
        profiler = NaiveProfiler(encoded)
        frequencies = profiler.condition_frequencies()
        result = find_pertinent_cinds(encoded, support_threshold=2)
        for supported in result.cinds:
            dependent, referenced = supported.cind
            assert frequencies[dependent.condition] >= supported.support
            assert frequencies[referenced.condition] >= supported.support

    def test_lemma2_ar_support_equals_implied_cind_support(self):
        encoded = random_rdf(302, n_triples=50).encode()
        profiler = NaiveProfiler(encoded)
        result = find_pertinent_cinds(encoded, support_threshold=2)
        for supported in result.association_rules:
            for implied in supported.rule.implied_cinds({Attr.S, Attr.P, Attr.O}):
                assert profiler.support(implied) == supported.support
                assert profiler.is_valid(implied)

    def test_lemma3_group_membership_equals_validity(self, table1_encoded):
        """Lemma 3 via the tested group builder: validity <=> membership."""
        from tests.test_capture_groups import build_groups

        groups = [frozenset(g) for g in build_groups(table1_encoded, 1)]
        profiler = NaiveProfiler(table1_encoded)
        universe = sorted(profiler.capture_universe(1))[:12]
        interpretations = profiler.interpretations(universe)
        for dependent in universe:
            for referenced in universe:
                if dependent == referenced:
                    continue
                member_based = all(
                    referenced in group for group in groups if dependent in group
                )
                valid = interpretations[dependent] <= interpretations[referenced]
                assert member_based == valid


class TestResultInvariants:
    def test_every_reported_cind_is_valid_with_reported_support(self):
        encoded = random_rdf(310, n_triples=50).encode()
        profiler = NaiveProfiler(encoded)
        result = find_pertinent_cinds(encoded, support_threshold=2)
        for supported in result.cinds:
            assert profiler.is_valid(supported.cind)
            assert profiler.support(supported.cind) == supported.support
            assert not supported.cind.is_trivial()

    def test_no_reported_cind_implied_by_another(self):
        encoded = random_rdf(311, n_triples=45).encode()
        result = find_pertinent_cinds(encoded, support_threshold=2)
        reported = {sc.cind for sc in result.cinds}
        for cind in reported:
            for relaxed in cind.dependent.unary_relaxations():
                implier = CIND(relaxed, cind.referenced)
                assert implier == cind or implier not in reported or implier.is_trivial()

    def test_monotonicity_in_h(self):
        """Raising h keeps exactly the pertinent CINDs that still clear it
        *and* remain minimal — so counts must not increase."""
        encoded = random_rdf(312, n_triples=60).encode()
        counts = [
            len(find_pertinent_cinds(encoded, support_threshold=h).cinds)
            for h in (1, 2, 3, 5, 8)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_broad_superset_of_pertinent(self):
        encoded = random_rdf(313, n_triples=50).encode()
        result = find_pertinent_cinds(
            encoded, support_threshold=2, keep_broad_cinds=True
        )
        broad = {(sc.cind, sc.support) for sc in result.broad_cinds}
        assert cind_set(result) <= broad

    def test_summary_fields(self, table1_encoded):
        result = find_pertinent_cinds(table1_encoded, support_threshold=2)
        summary = result.summary()
        assert summary["h"] == 2
        assert summary["triples"] == 8
        assert summary["pertinent_cinds"] == len(result.cinds)
        assert "RDFind" in repr(result)

    def test_cinds_with_min_support(self, table1_encoded):
        result = find_pertinent_cinds(table1_encoded, support_threshold=1)
        assert all(
            sc.support >= 3 for sc in result.cinds_with_min_support(3)
        )

    def test_accepts_plain_tuples(self):
        result = find_pertinent_cinds(
            [("a", "p", "x"), ("a", "q", "x")], support_threshold=1
        )
        assert result.stats.num_triples == 2


class TestVariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_de_variant_same_output(self, seed):
        encoded = random_rdf(seed + 400, n_triples=40).encode()
        standard = find_pertinent_cinds(encoded, support_threshold=2)
        de = RDFind(
            RDFindConfig.direct_extraction(support_threshold=2)
        ).discover(encoded)
        assert cind_set(standard) == cind_set(de)
        assert ar_set(standard) == ar_set(de)

    def test_nf_variant_without_ars_matches(self):
        """On a dataset without ARs, NF and RDFind coincide."""
        rows = [
            ("s1", "p1", "o1"), ("s1", "p2", "o2"), ("s2", "p1", "o2"),
            ("s2", "p2", "o1"), ("s3", "p1", "o1"), ("s3", "p2", "o3"),
            ("s1", "p1", "o3"), ("s2", "p1", "o3"),
        ]
        encoded = Dataset.from_tuples(rows).encode()
        oracle_ars = NaiveProfiler(encoded).association_rules(1)
        assert not oracle_ars, "fixture must be AR-free"
        standard = find_pertinent_cinds(encoded, support_threshold=1)
        nf = RDFind(
            RDFindConfig.no_frequent_conditions(support_threshold=1)
        ).discover(encoded)
        assert cind_set(standard) == cind_set(nf)

    def test_nf_reports_no_ars(self, table1_encoded):
        nf = RDFind(
            RDFindConfig.no_frequent_conditions(support_threshold=2)
        ).discover(table1_encoded)
        assert nf.association_rules == []

    def test_h_override_in_discover(self, table1_encoded):
        system = RDFind(RDFindConfig(support_threshold=1))
        result = system.discover(table1_encoded, h=3)
        assert result.support_threshold == 3


class TestStageNames:
    """Stage names are one list: the same on every execution path.

    The table lives in docs/algorithm.md ("Stages of a run").  This run
    prunes captures (``ex/prune-groups``, ``ex/drop-empty-groups``) and
    leaves no Bloom-tainted candidate to validate.
    """

    DEFAULT_RUN = [
        "source/triples",
        "fc/unary-columnar",
        "fc/unary-columnar/merge",
        "fc/unary-frequent",
        "fc/unary-bloom",
        "fc/unary-bloom/merge",
        "fc/unary-bloom-broadcast",
        "fc/binary-columnar",
        "fc/binary-columnar/merge",
        "fc/binary-frequent",
        "fc/binary-bloom",
        "fc/binary-bloom/merge",
        "fc/ar-explode",
        "fc/ar-join",
        "fc/ar-join/apply",
        "fc/ar-collect",
        "cg/group-by-value",
        "cg/group-by-value/reduce",
        "cg/rebalance",
        "cg/expand",
        "ex/capture-support",
        "ex/capture-support/reduce",
        "ex/prunable-filter",
        "ex/prunable-captures",
        "ex/prunable-broadcast",
        "ex/prune-groups",
        "ex/drop-empty-groups",
        "ex/estimate-loads",
        "ex/collect-loads",
        "ex/split-dominant-groups",
        "ex/rebalance-work-units",
        "ex/merge-candidates",
        "ex/merge-candidates/reduce",
        "ex/materialize-refs",
        "ex/broadness-filter",
        "ex/collect",
    ]

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("shuffle", ["inline", "spill"])
    def test_default_run_stage_sequence(self, executor, shuffle):
        dataset = registry.load("Countries", scale=0.1, encoded=True)
        config = RDFindConfig(
            support_threshold=5, executor=executor, workers=2, shuffle=shuffle
        )
        result = RDFind(config).discover(dataset)
        assert [stage.name for stage in result.metrics.stages] == self.DEFAULT_RUN
