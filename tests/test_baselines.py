"""Tests for the Cinderella baseline and the minimal-first strategy."""

import pytest

from repro.baselines import (
    Cinderella,
    CinderellaConfig,
    minimal_first_discover,
)
from repro.core.discovery import find_pertinent_cinds
from repro.dataflow.engine import SimulatedOutOfMemory
from repro.rdf.model import ALL_ATTRS, Attr, Dataset
from tests.conftest import ar_set, cind_set, random_rdf


@pytest.fixture
def overlapping():
    """Dataset in which object values flow back into subjects."""
    rows = [
        ("e1", "type", "Person"), ("e2", "type", "Person"),
        ("e3", "type", "City"), ("e4", "type", "City"),
        ("e1", "livesIn", "e3"), ("e2", "livesIn", "e4"),
        ("e1", "knows", "e2"), ("e2", "knows", "e1"),
        ("e3", "partOf", "e4"),
    ]
    return Dataset.from_tuples(rows, name="overlapping")


ALL_VARIANTS = [
    CinderellaConfig(h=1),
    CinderellaConfig(h=1, optimized=True),
    CinderellaConfig(h=1, backend="mysql"),
    CinderellaConfig(h=1, backend="mysql", optimized=True),
]


class TestCinderellaConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CinderellaConfig(h=0)
        with pytest.raises(ValueError):
            CinderellaConfig(backend="oracle")

    def test_variant_names(self):
        assert CinderellaConfig().variant_name == "Cin/Pos"
        assert CinderellaConfig(optimized=True).variant_name == "Cin*/Pos"
        assert CinderellaConfig(backend="mysql").variant_name == "Cin/My"
        assert (
            CinderellaConfig(backend="mysql", optimized=True).variant_name
            == "Cin*/My"
        )


class TestCinderellaSemantics:
    @pytest.mark.parametrize("config", ALL_VARIANTS, ids=lambda c: c.variant_name)
    def test_all_variants_agree(self, config, overlapping):
        baseline = Cinderella(CinderellaConfig(h=1)).discover(overlapping)
        other = Cinderella(config).discover(overlapping)
        assert set(other.inclusions) == set(baseline.inclusions)

    def test_inclusions_are_sound(self, overlapping):
        """Every reported inclusion must actually hold on the data."""
        result = Cinderella(CinderellaConfig(h=1)).discover(overlapping)
        triples = list(overlapping)
        for row in result.inclusions:
            ref_values = {t[int(row.ref_attr)] for t in triples}
            selected = [t for t in triples if row.condition.matches(t)]
            assert selected, "condition must be satisfiable"
            dep_values = {t[int(row.dep_attr)] for t in selected}
            assert dep_values <= ref_values
            assert len(dep_values) == row.support

    def test_completeness_against_bruteforce(self, overlapping):
        """Cinderella finds every condition its problem statement admits."""
        result = Cinderella(CinderellaConfig(h=2)).discover(overlapping)
        found = set(result.inclusions)
        triples = list(overlapping)
        from repro.core.conditions import conditions_of_triple

        all_conditions = set()
        for triple in triples:
            all_conditions.update(conditions_of_triple(triple))
        for dep_attr in ALL_ATTRS:
            for ref_attr in ALL_ATTRS:
                if dep_attr == ref_attr:
                    continue
                ref_values = {t[int(ref_attr)] for t in triples}
                for condition in all_conditions:
                    if dep_attr in condition.attrs:
                        continue
                    selected = [t for t in triples if condition.matches(t)]
                    if not selected:
                        continue
                    dep_values = {t[int(dep_attr)] for t in selected}
                    if len(dep_values) >= 2 and dep_values <= ref_values:
                        assert any(
                            row.dep_attr == dep_attr
                            and row.ref_attr == ref_attr
                            and row.condition == condition
                            for row in found
                        ), (dep_attr, ref_attr, condition)

    def test_support_threshold_filters(self, overlapping):
        low = Cinderella(CinderellaConfig(h=1)).discover(overlapping)
        high = Cinderella(CinderellaConfig(h=3)).discover(overlapping)
        assert set(high.inclusions) <= set(low.inclusions)
        assert all(row.support >= 3 for row in high.inclusions)

    def test_accepts_encoded_dataset(self, overlapping):
        encoded = overlapping.encode()
        result = Cinderella(CinderellaConfig(h=1)).discover(encoded)
        assert result.inclusions

    def test_render(self, overlapping):
        result = Cinderella(CinderellaConfig(h=1)).discover(overlapping)
        lines = result.render(3)
        assert lines and all("⊆" in line for line in lines)
        assert "Cin/Pos" in repr(result)


class TestCinderellaMemory:
    def test_standard_fails_under_tight_budget(self, overlapping):
        config = CinderellaConfig(h=1, memory_budget=5)
        with pytest.raises(SimulatedOutOfMemory):
            Cinderella(config).discover(overlapping)

    def test_optimized_survives_where_standard_fails(self):
        dataset = random_rdf(77, n_triples=120)
        budgets = []
        for optimized in (False, True):
            result = Cinderella(
                CinderellaConfig(h=4, optimized=optimized)
            ).discover(dataset)
            budgets.append(result.peak_memory_cells)
        standard_peak, optimized_peak = budgets
        assert optimized_peak < standard_peak
        # a budget between the two peaks kills standard but not optimized
        budget = (standard_peak + optimized_peak) // 2
        with pytest.raises(SimulatedOutOfMemory):
            Cinderella(
                CinderellaConfig(h=4, memory_budget=budget)
            ).discover(dataset)
        Cinderella(
            CinderellaConfig(h=4, optimized=True, memory_budget=budget)
        ).discover(dataset)

    def test_optimized_memory_shrinks_with_h(self):
        dataset = random_rdf(78, n_triples=150)
        low = Cinderella(CinderellaConfig(h=2, optimized=True)).discover(dataset)
        high = Cinderella(CinderellaConfig(h=10, optimized=True)).discover(dataset)
        assert high.peak_memory_cells <= low.peak_memory_cells


class TestMinimalFirst:
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_rdfind_output(self, seed):
        encoded = random_rdf(seed + 500, n_triples=40).encode()
        reference = find_pertinent_cinds(encoded, support_threshold=2)
        alternative = minimal_first_discover(encoded, h=2)
        assert cind_set(reference) == cind_set(alternative)
        assert ar_set(reference) == ar_set(alternative)

    def test_table1(self, table1_encoded):
        reference = find_pertinent_cinds(table1_encoded, support_threshold=2)
        alternative = minimal_first_discover(table1_encoded, h=2)
        assert cind_set(reference) == cind_set(alternative)

    @pytest.mark.parametrize("seed", range(3))
    def test_hands_over_the_pipelines_blocks(self, seed):
        encoded = random_rdf(seed + 520, n_triples=40).encode()
        reference = find_pertinent_cinds(encoded, support_threshold=2)
        alternative = minimal_first_discover(encoded, h=2)
        assert alternative.blocks == reference.blocks
        assert alternative.cinds == reference.cinds
        assert alternative.stats.num_pertinent_cinds == len(reference.cinds)

    def test_does_more_group_scans(self, table1_encoded):
        """The strategy's defining cost: multiple passes over the groups."""
        result = minimal_first_discover(table1_encoded, h=2)
        passes = [
            stage.name
            for stage in result.metrics.stages
            if stage.name.endswith("/candidates")
        ]
        assert len(passes) == 4  # Ψ1:2, Ψ1:1, Ψ2:2, Ψ2:1
