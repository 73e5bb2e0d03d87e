"""Tests for the synthetic dataset generators and the Table 2 registry."""

import hashlib

import pytest

from repro.core.discovery import find_pertinent_cinds
from repro.core.validation import NaiveProfiler
from repro.datasets import (
    DATASETS,
    countries,
    db14_mpce,
    db14_ple,
    diseasome,
    drugbank,
    freebase,
    get_dataset,
    linkedmdb,
    load,
    lubm,
    table1,
)
from repro.rdf.model import Attr
from repro.rdf.ntriples import write_ntriples_file


class TestTable1:
    def test_is_the_paper_example(self):
        dataset = table1()
        assert len(dataset) == 8
        assert ("patrick", "rdf:type", "gradStudent") in dataset

    def test_example1_inclusion_holds(self):
        """Example 1: graduate students ⊆ people with an undergrad degree."""
        dataset = table1()
        grads = {
            t.s for t in dataset if t.p == "rdf:type" and t.o == "gradStudent"
        }
        degreed = {t.s for t in dataset if t.p == "undergradFrom"}
        assert grads < degreed


class TestDeterminism:
    @pytest.mark.parametrize(
        "generator",
        [countries, diseasome, drugbank, linkedmdb, db14_mpce, db14_ple],
        ids=lambda g: g.__name__,
    )
    def test_same_seed_same_data(self, generator):
        assert generator(scale=0.1) == generator(scale=0.1)

    def test_lubm_deterministic(self):
        assert lubm(scale=0.1) == lubm(scale=0.1)

    def test_freebase_deterministic(self):
        assert freebase(n_triples=2_000) == freebase(n_triples=2_000)

    def test_different_seed_differs(self):
        assert countries(scale=0.1, seed=1) != countries(scale=0.1, seed=2)


class TestSizes:
    def test_countries_near_paper_size(self):
        assert abs(len(countries()) - 5_563) / 5_563 < 0.05

    def test_diseasome_near_paper_size(self):
        assert abs(len(diseasome()) - 72_445) / 72_445 < 0.05

    def test_lubm_near_paper_size(self):
        assert abs(len(lubm()) - 103_104) / 103_104 < 0.15

    def test_scale_parameter_shrinks(self):
        assert len(diseasome(scale=0.1)) < len(diseasome(scale=0.3))

    def test_freebase_sized_by_triples(self):
        dataset = freebase(n_triples=5_000)
        assert 5_000 <= len(dataset) < 5_200


class TestPlantedStructures:
    def test_diseasome_subclass_pairs(self):
        """Every disease with a subtype class also carries the parent."""
        dataset = diseasome(scale=0.05)
        types = {}
        for triple in dataset:
            if triple.p == "rdf:type":
                types.setdefault(triple.s, set()).add(triple.o)
        subtyped = [t for t in types.values() if any("Subtype" in c for c in t)]
        assert subtyped
        for class_set in subtyped:
            for cls in class_set:
                if "Subtype" in cls:
                    parent = cls.split("Subtype")[0]
                    assert parent in class_set

    def test_drugbank_target_subset_pair(self):
        dataset = drugbank(scale=0.2)
        targets = {}
        for triple in dataset:
            if triple.p == "target":
                targets.setdefault(triple.s, set()).add(triple.o)
        n_drugs = max(
            int(t.s.split("/")[1]) for t in dataset if t.s.startswith("drug/")
        ) + 1
        special_dep = f"drug/{30 % n_drugs}"
        special_ref = f"drug/{47 % n_drugs}"
        assert targets[special_dep] < targets[special_ref]
        assert len(targets[special_dep]) == 14

    def test_mpce_associated_band_subproperty(self):
        dataset = db14_mpce(scale=0.1)
        band_pairs = {
            (t.s, t.o) for t in dataset if t.p == "associatedBand"
        }
        artist_pairs = {
            (t.s, t.o) for t in dataset if t.p == "associatedMusicalArtist"
        }
        assert band_pairs and band_pairs < artist_pairs

    def test_mpce_acdc_equivalence(self):
        dataset = db14_mpce(scale=0.1)
        angus = {t.s for t in dataset if t.p == "writer" and t.o == "Angus_Young"}
        malcolm = {
            t.s for t in dataset if t.p == "writer" and t.o == "Malcolm_Young"
        }
        assert angus == malcolm
        assert len(angus) == 26  # the paper's support

    def test_mpce_area_code_559(self):
        dataset = db14_mpce(scale=0.3)
        in_559 = {t.s for t in dataset if t.p == "areaCode" and t.o == '"559"'}
        in_california = {
            t.s for t in dataset if t.p == "partOf" and t.o == "California"
        }
        assert len(in_559) == 98  # the paper's support
        assert in_559 <= in_california

    def test_lubm_undergrad_degree_exclusive_to_grads(self):
        dataset = lubm(scale=0.2)
        degreed = {t.s for t in dataset if t.p == "undergraduateDegreeFrom"}
        grads = {
            t.s for t in dataset if t.p == "rdf:type" and t.o == "GraduateStudent"
        }
        assert degreed and degreed <= grads

    def test_linkedmdb_performance_ar(self):
        """o=lmdb:performance → p=rdf:type must be an exact rule."""
        dataset = linkedmdb(scale=0.05)
        with_object = [t for t in dataset if t.o == "lmdb:performance"]
        assert with_object
        assert all(t.p == "rdf:type" for t in with_object)

    def test_linkedmdb_movie_editor_range(self):
        dataset = linkedmdb(scale=0.05)
        editors = {t.o for t in dataset if t.p == "movieEditor"}
        persons = {
            t.s for t in dataset if t.p == "rdf:type" and t.o == "foaf:Person"
        }
        assert editors and editors <= persons

    def test_ple_is_literal_heavy(self):
        dataset = db14_ple(scale=0.05)
        literal_objects = sum(1 for t in dataset if t.o.startswith('"'))
        assert literal_objects / len(dataset) > 0.6

    def test_freebase_types_cover_all_topics(self):
        dataset = freebase(n_triples=3_000)
        topics = {t.s for t in dataset}
        typed = {t.s for t in dataset if t.p == "/type/object/type"}
        assert topics == typed


class TestRegistry:
    def test_all_paper_datasets_present(self):
        assert set(DATASETS) == {
            "Countries", "Diseasome", "LUBM-1", "DrugBank",
            "LinkedMDB", "DB14-MPCE", "DB14-PLE", "Freebase",
        }

    def test_lookup_case_insensitive(self):
        assert get_dataset("diseasome").name == "Diseasome"

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_dataset("nope")

    def test_load_with_scale(self):
        dataset = load("Countries", scale=0.1)
        assert 0 < len(dataset) < 1_000

    def test_paper_triple_counts_recorded(self):
        assert DATASETS["Freebase"].paper_triples == 3_000_673_968


#: What ``rdfind generate NAME --scale SCALE`` writes: ``(scale, statements,
#: BLAKE2b-128 of the file)``.  Full size where that is cheap; a writer edit
#: that moves a byte of any registry dataset fails here.
GENERATED = {
    "Countries": (1, 5_602, "65b4af70f87d1e790d055bf32766d41a"),
    "Diseasome": (1, 72_357, "43685be6c6b0246a74c31498ac31597d"),
    "LUBM-1": (0.2, 20_949, "144a685491330318407568d80c616989"),
    "DrugBank": (0.2, 17_608, "83235f4dec7bb0de7efab1450672b722"),
    "LinkedMDB": (0.2, 30_117, "72ed095e0583842376024b739b1a1bd3"),
    "DB14-MPCE": (0.2, 28_816, "0ee1777ace9ba137a38eef516a14f5f0"),
    "DB14-PLE": (0.2, 36_311, "3c2e0df6449081832aee8a0cbf62e319"),
    "Freebase": (0.2, 40_002, "19afadbb66d37666f5c6ebc488dd40ad"),
}


class TestGeneratedBytes:
    def test_every_registry_dataset_is_pinned(self):
        assert set(GENERATED) == set(DATASETS)

    @pytest.mark.parametrize("name", sorted(GENERATED))
    def test_generate_writes_the_pinned_bytes(self, name, tmp_path):
        scale, statements, digest = GENERATED[name]
        path = tmp_path / "generated.nt"
        assert write_ntriples_file(load(name, scale=scale), path) == statements
        assert hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest() == digest


class TestDiscoverability:
    """Scaled-down discovery smoke checks on every generator."""

    @pytest.mark.parametrize(
        "name", [n for n in DATASETS if n != "Freebase"]
    )
    def test_tiny_scale_discovery_runs(self, name):
        dataset = load(name, scale=0.02)
        result = find_pertinent_cinds(dataset.encode(), support_threshold=5)
        assert result.stats.num_triples == len(dataset)

    def test_tiny_scale_matches_oracle(self):
        """Full pipeline == oracle on a real (tiny) generated dataset."""
        dataset = countries(scale=0.04)
        encoded = dataset.encode()
        result = find_pertinent_cinds(encoded, support_threshold=3)
        oracle_cinds, oracle_ars = NaiveProfiler(encoded).discover(3)
        assert {(sc.cind, sc.support) for sc in result.cinds} == {
            (sc.cind, sc.support) for sc in oracle_cinds
        }
        assert {(sa.rule, sa.support) for sa in result.association_rules} == {
            (sa.rule, sa.support) for sa in oracle_ars
        }
