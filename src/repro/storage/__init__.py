"""Dictionary-encoded columnar triple storage.

The storage subsystem is the memory- and cache-friendly substrate the
discovery hot path runs on:

* :class:`~repro.storage.dictionary.TermDictionary` — interns every
  subject/predicate/object string to a dense integer id, with O(1)
  reverse lookup and ids that stay stable under incremental appends.
* :class:`~repro.storage.columnar.EncodedDataset` — a dataset as three
  parallel ``array('i'/'q')`` id columns (widened automatically), the
  representation loaders produce and the pipeline consumes.
* :mod:`repro.storage.snapshot` — a versioned, CRC-framed on-disk
  format (dictionary blob + id columns) loading via ``mmap`` with lazy
  term decode, plus the snapshot cache warm-start policy used by
  ``--resume`` and the job server.

Attributes are resolved lazily (PEP 562): :mod:`repro.rdf.model`
re-exports the dictionary layer from here, so an eager import of the
column layer (which itself uses the RDF data model for decoding) would
bootstrap a cycle.
"""

from importlib import import_module

_EXPORTS = {
    "TermDictionary": "repro.storage.dictionary",
    "EncodedTriple": "repro.storage.dictionary",
    "INT32_MAX": "repro.storage.dictionary",
    "EncodedDataset": "repro.storage.columnar",
    "TRIPLE_CELLS": "repro.storage.columnar",
    "TripleBatch": "repro.storage.columnar",
    "build_triple_batches": "repro.storage.columnar",
    "SNAPSHOT_SUFFIX": "repro.storage.snapshot",
    "SnapshotError": "repro.storage.snapshot",
    "SnapshotTermDictionary": "repro.storage.snapshot",
    "load_snapshot": "repro.storage.snapshot",
    "load_with_snapshot_cache": "repro.storage.snapshot",
    "save_snapshot": "repro.storage.snapshot",
    "snapshot_cache_fields": "repro.storage.snapshot",
    "snapshot_info": "repro.storage.snapshot",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
