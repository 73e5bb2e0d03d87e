"""Tests for the mmap snapshot format (repro.storage.snapshot)."""

import json
import os
import pickle

import pytest

from repro.cli import main
from repro.core.discovery import RDFind, RDFindConfig
from repro.core.framing import FRAME_HEADER, write_frame
from repro.dataflow.checkpoint import dataset_digest
from repro.rdf.ntriples import write_ntriples_file
from repro.storage.columnar import EncodedDataset
from repro.storage.dictionary import INT32_MAX, TermDictionary
from repro.storage.snapshot import (
    SNAPSHOT_MAGIC,
    SnapshotError,
    SnapshotFormatError,
    SnapshotTermDictionary,
    load_snapshot,
    load_with_snapshot_cache,
    save_snapshot,
    snapshot_cache_fields,
    snapshot_info,
)
from tests.conftest import random_rdf
from tests.result_oracle import result_to_dict
from tests.test_storage import UNICODE_TERMS


def roundtrip(tmp_path, encoded):
    path = str(tmp_path / "data.snap")
    header = save_snapshot(encoded, path)
    return path, header, load_snapshot(path)


def rewrite_header(path, out_path, **updates):
    """Copy a snapshot with its header frame edited, CRC intact."""
    with open(path, "rb") as stream:
        raw = stream.read()
    offset = len(SNAPSHOT_MAGIC)
    length, _crc = FRAME_HEADER.unpack_from(raw, offset)
    start = offset + FRAME_HEADER.size
    header = json.loads(raw[start : start + length].decode("utf-8"))
    header.update(updates)
    with open(out_path, "wb") as stream:
        stream.write(raw[:offset])
        write_frame(stream, json.dumps(header, sort_keys=True).encode("utf-8"))
        stream.write(raw[start + length :])
    return out_path


class TestRoundTrip:
    def test_columns_terms_and_name_identical(self, tmp_path):
        encoded = random_rdf(41, n_triples=150).encode()
        encoded.name = "roundtrip"
        path, header, loaded = roundtrip(tmp_path, encoded)
        assert loaded.name == "roundtrip"
        assert list(loaded) == list(encoded)
        assert loaded.columns[0].typecode == encoded.columns[0].typecode
        assert list(loaded.dictionary.terms()) == list(encoded.dictionary.terms())
        assert header["triples"] == len(encoded)
        assert header["terms"] == len(encoded.dictionary)
        assert snapshot_info(path) == header

    def test_unicode_terms_roundtrip(self, tmp_path):
        encoded = EncodedDataset.from_terms(
            [(UNICODE_TERMS[i % 6] or "empty", "p", UNICODE_TERMS[(i + 1) % 6] or "empty")
             for i in range(12)]
        )
        _path, _header, loaded = roundtrip(tmp_path, encoded)
        assert list(loaded.dictionary.terms()) == list(encoded.dictionary.terms())
        assert loaded.dictionary.nbytes() == encoded.dictionary.nbytes()

    def test_empty_dataset_roundtrip(self, tmp_path):
        _path, _header, loaded = roundtrip(tmp_path, EncodedDataset())
        assert len(loaded) == 0
        assert len(loaded.dictionary) == 0

    def test_dataset_digest_matches_source(self, tmp_path):
        # checkpoint resume keys on this digest: snapshot loading must
        # reproduce the exact integer coding, not just the triples
        encoded = random_rdf(42, n_triples=90).encode()
        _path, _header, loaded = roundtrip(tmp_path, encoded)
        assert dataset_digest(loaded) == dataset_digest(encoded)

    def test_parent_written_header_key_is_ignored(self, tmp_path):
        # snapshots written before `snapshot save --remap` was removed
        # carry a write-only "remapped" key; they must keep loading
        encoded = random_rdf(43, n_triples=120).encode()
        path, header, _loaded = roundtrip(tmp_path, encoded)
        assert "remapped" not in header
        old = rewrite_header(path, str(tmp_path / "old.snap"), remapped=False)
        assert snapshot_info(old)["remapped"] is False
        assert dataset_digest(load_snapshot(old)) == dataset_digest(encoded)

    def test_widen_boundary_at_int32_max(self, tmp_path):
        # ids beyond INT32_MAX force 'q' columns; the snapshot must
        # carry the typecode and round-trip the wide ids exactly
        encoded = EncodedDataset(dictionary=TermDictionary())
        encoded.append_ids(INT32_MAX, 0, 1)
        encoded.append_ids(INT32_MAX + 1, 2, 3)
        assert encoded.columns[0].typecode == "q"
        path = str(tmp_path / "wide.snap")
        header = save_snapshot(encoded, path)
        assert header["typecode"] == "q"
        loaded = load_snapshot(path)
        assert loaded.columns[0].typecode == "q"
        assert list(loaded) == list(encoded)


class TestLazyDictionary:
    def test_decode_is_lazy_then_cached(self, tmp_path):
        encoded = random_rdf(44, n_triples=60).encode()
        _path, _header, loaded = roundtrip(tmp_path, encoded)
        dictionary = loaded.dictionary
        assert isinstance(dictionary, SnapshotTermDictionary)
        assert dictionary._id_to_term.count(None) == len(dictionary)
        term = dictionary.decode(3)
        assert term == encoded.dictionary.decode(3)
        assert dictionary._id_to_term[3] == term
        # untouched entries stay unmaterialized
        assert None in dictionary._id_to_term

    def test_string_lookups_build_the_index(self, tmp_path):
        encoded = random_rdf(45, n_triples=60).encode()
        _path, _header, loaded = roundtrip(tmp_path, encoded)
        dictionary = loaded.dictionary
        some_term = encoded.dictionary.decode(0)
        assert dictionary.lookup(some_term) == 0
        assert some_term in dictionary
        assert dictionary.encode_existing(some_term) == 0
        assert dictionary.lookup("never-seen") is None

    def test_encode_new_term_after_load(self, tmp_path):
        encoded = random_rdf(46, n_triples=30).encode()
        _path, _header, loaded = roundtrip(tmp_path, encoded)
        new_id = loaded.dictionary.encode("fresh-term")
        assert new_id == len(encoded.dictionary)
        assert loaded.dictionary.decode(new_id) == "fresh-term"
        assert len(loaded.dictionary) == len(encoded.dictionary) + 1

    def test_pickles_to_plain_dictionary(self, tmp_path):
        # the process executor pickles operator state; mmap views can't
        # cross that boundary, so the lazy dictionary ships eagerly
        encoded = random_rdf(47, n_triples=40).encode()
        _path, _header, loaded = roundtrip(tmp_path, encoded)
        clone = pickle.loads(pickle.dumps(loaded.dictionary))
        assert type(clone) is TermDictionary
        assert list(clone.terms()) == list(encoded.dictionary.terms())

    def test_materialize(self, tmp_path):
        encoded = random_rdf(48, n_triples=40).encode()
        _path, _header, loaded = roundtrip(tmp_path, encoded)
        eager = loaded.dictionary.materialize()
        assert type(eager) is TermDictionary
        assert list(eager.terms()) == list(encoded.dictionary.terms())


class TestCorruptionRecovery:
    def test_flipped_byte_raises_snapshot_error(self, tmp_path):
        encoded = random_rdf(51, n_triples=80).encode()
        path, _header, _loaded = roundtrip(tmp_path, encoded)
        raw = bytearray(open(path, "rb").read())
        for position in (10, len(raw) // 2, len(raw) - 3):
            corrupt = bytes(raw[:position]) + bytes([raw[position] ^ 0xFF]) + bytes(
                raw[position + 1 :]
            )
            bad = str(tmp_path / "bad.snap")
            with open(bad, "wb") as stream:
                stream.write(corrupt)
            with pytest.raises(SnapshotError):
                load_snapshot(bad)

    def test_truncation_raises_snapshot_error(self, tmp_path):
        encoded = random_rdf(52, n_triples=80).encode()
        path, _header, _loaded = roundtrip(tmp_path, encoded)
        raw = open(path, "rb").read()
        for keep in (4, len(raw) // 3, len(raw) - 1):
            bad = str(tmp_path / "trunc.snap")
            with open(bad, "wb") as stream:
                stream.write(raw[:keep])
            with pytest.raises(SnapshotError):
                load_snapshot(bad)

    def test_alien_file_raises_format_error(self, tmp_path):
        bad = str(tmp_path / "alien.snap")
        with open(bad, "wb") as stream:
            stream.write(b"this is not a snapshot at all, not even close")
        with pytest.raises(SnapshotFormatError):
            load_snapshot(bad)
        with pytest.raises(SnapshotError):
            load_snapshot(str(tmp_path / "missing.snap"))

    def test_empty_file_raises(self, tmp_path):
        bad = str(tmp_path / "empty.snap")
        open(bad, "wb").close()
        with pytest.raises(SnapshotError):
            load_snapshot(bad)

    def test_unsupported_version_raises(self, tmp_path):
        encoded = random_rdf(53, n_triples=10).encode()
        path, _header, _loaded = roundtrip(tmp_path, encoded)
        bad = rewrite_header(path, str(tmp_path / "future.snap"), version=99)
        with pytest.raises(SnapshotFormatError, match="version"):
            load_snapshot(bad)

    def test_cache_warns_and_reparses_on_damage(self, tmp_path, capsys):
        # "never silent wrong answers": a damaged cache entry is
        # reported, discarded, and replaced by a fresh parse
        encoded = random_rdf(54, n_triples=60).encode()
        cache_dir = str(tmp_path / "snapshots")
        fields = {"spec": "unit-test", "scale": 1.0}
        loader_calls = []

        def loader():
            loader_calls.append(1)
            return random_rdf(54, n_triples=60).encode()

        first, hit = load_with_snapshot_cache(cache_dir, fields, loader)
        assert not hit and loader_calls == [1]
        again, hit = load_with_snapshot_cache(cache_dir, fields, loader)
        assert hit and loader_calls == [1]
        assert list(again) == list(encoded)
        # now damage the cached snapshot
        (cached,) = os.listdir(cache_dir)
        cached_path = os.path.join(cache_dir, cached)
        raw = bytearray(open(cached_path, "rb").read())
        raw[len(raw) // 2] ^= 0xFF
        with open(cached_path, "wb") as stream:
            stream.write(bytes(raw))
        recovered, hit = load_with_snapshot_cache(cache_dir, fields, loader)
        assert not hit and loader_calls == [1, 1]
        assert list(recovered) == list(encoded)
        assert "re-parsing" in capsys.readouterr().err
        # ...and the cache was repopulated with a good snapshot
        final, hit = load_with_snapshot_cache(cache_dir, fields, loader)
        assert hit and loader_calls == [1, 1]
        assert list(final) == list(encoded)

    def test_cache_fields_track_file_identity(self, tmp_path):
        source = str(tmp_path / "input.nt")
        write_ntriples_file(random_rdf(55, n_triples=20), source)
        before = snapshot_cache_fields(source)
        os.utime(source, ns=(1, 1))
        after = snapshot_cache_fields(source)
        assert before != after
        # registry refs are deterministic: no stat fields
        assert "st_mtime_ns" not in snapshot_cache_fields("dataset:Countries")


def discovery_json(dataset, executor):
    config = RDFindConfig(
        support_threshold=5, parallelism=2, executor=executor
    )
    result = RDFind(config).discover(dataset)
    return json.dumps(result_to_dict(result), sort_keys=True)


class TestDiscoveryByteIdentity:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_snapshot_loaded_discovery_is_byte_identical(self, tmp_path, executor):
        dataset = random_rdf(61, n_triples=120)
        encoded = dataset.encode()
        reference = discovery_json(encoded, executor)
        path = str(tmp_path / "d.snap")
        save_snapshot(encoded, path)
        loaded = load_snapshot(path)
        assert discovery_json(loaded, executor) == reference


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    return captured.out


class TestCliAndWorker:
    def test_snapshot_save_load_info(self, tmp_path, capsys):
        snap = str(tmp_path / "c.snap")
        out = run_cli(
            capsys, "snapshot", "save", "dataset:Countries",
            "--scale", "0.1", "-o", snap,
        )
        assert "wrote" in out and "triples" in out
        out = run_cli(capsys, "snapshot", "info", snap)
        assert "version" in out and "triples" in out
        out = run_cli(capsys, "snapshot", "load", snap)
        assert "loaded" in out and "ms" in out

    def test_discover_accepts_snap_input(self, tmp_path, capsys):
        snap = str(tmp_path / "c.snap")
        run_cli(
            capsys, "snapshot", "save", "dataset:Countries",
            "--scale", "0.1", "-o", snap,
        )
        source_json = str(tmp_path / "source.json")
        snap_json = str(tmp_path / "snap.json")
        run_cli(
            capsys, "discover", "dataset:Countries", "--scale", "0.1",
            "-s", "5", "-o", source_json,
        )
        run_cli(capsys, "discover", snap, "-s", "5", "-o", snap_json)
        assert open(source_json, "rb").read() == open(snap_json, "rb").read()

    def test_worker_load_dataset_uses_snapshot_cache(self, tmp_path):
        from repro.server.store import JobRequest, JobStore
        from repro.server.worker import _load_dataset

        store = JobStore(str(tmp_path / "jobs"))
        request = JobRequest(
            dataset="dataset:Countries", scale=0.1, support_threshold=5
        )
        first = _load_dataset(request, snapshot_dir=store.snapshot_dir())
        assert os.listdir(store.snapshot_dir())  # cache populated
        second = _load_dataset(request, snapshot_dir=store.snapshot_dir())
        assert isinstance(second.dictionary, SnapshotTermDictionary)
        assert list(first) == list(second)
        assert dataset_digest(first) == dataset_digest(second)
