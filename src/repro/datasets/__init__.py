"""Synthetic evaluation datasets.

The paper evaluates on seven real-world datasets plus LUBM (Table 2).
Real dumps (DBpedia 2014, Freebase, ...) are not redistributable or
obtainable offline, so this package provides seeded generators that
reproduce each dataset's *profile*: triple count (scaled where noted), the
heavy-tailed condition-frequency distribution that drives RDFind's
pruning (Figure 4), and the specific CIND-bearing structures the paper
reports (subproperty pairs, exact co-occurrence rules, class hierarchies).
See DESIGN.md ("Substitutions") for the rationale.

Every generator is a seeded, deterministic function returning a
:class:`~repro.rdf.model.Dataset` and is registered in
:mod:`repro.datasets.registry`, which mirrors Table 2.
"""

from repro.datasets.countries import countries
from repro.datasets.dbpedia import db14_mpce, db14_ple
from repro.datasets.diseasome import diseasome
from repro.datasets.drugbank import drugbank
from repro.datasets.freebase import freebase
from repro.datasets.linkedmdb import linkedmdb
from repro.datasets.lubm import lubm
from repro.datasets.registry import DATASETS, DatasetSpec, get_dataset, load
from repro.datasets.table1 import table1

__all__ = [
    "countries",
    "db14_mpce",
    "db14_ple",
    "diseasome",
    "drugbank",
    "freebase",
    "linkedmdb",
    "lubm",
    "DATASETS",
    "DatasetSpec",
    "get_dataset",
    "load",
    "table1",
]
