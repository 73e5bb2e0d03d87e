"""StreamSession durability: compaction, crash-resume, and the CLI door."""

import glob
import hashlib
import io
import json
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import textwrap
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main as cli_main
from repro.core.discovery import RDFind, RDFindConfig
from repro.core.framing import write_frame
from repro.core.serialization import dump_result
from repro.dataflow.checkpoint import fingerprint_fields
from repro.streaming import ChangeLogCorruptError
from repro.streaming.session import StreamSession
from tests.conftest import random_rdf

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def scripted_ops(seed, n_ops=60):
    import random

    rng = random.Random(seed)
    pool = [(f"s{rng.randrange(8)}", f"p{rng.randrange(4)}", f"o{rng.randrange(8)}")
            for _ in range(40)]
    live = []
    ops = []
    for _ in range(n_ops):
        if live and rng.random() < 0.35:
            triple = rng.choice(live)
            live.remove(triple)
            ops.append(("remove",) + triple)
        else:
            triple = rng.choice(pool)
            if triple not in live:
                live.append(triple)
            ops.append(("add",) + triple)
    return ops


class TestResume:
    def test_reopen_replays_full_log_without_checkpoint(self, tmp_path):
        directory = str(tmp_path / "state")
        with StreamSession(directory, h=2) as session:
            for op, s, p, o in scripted_ops(1):
                session.apply(op, s, p, o)
            tail = session.applied_seq
            expected = session.document_json()
        with StreamSession(directory, h=2) as session:
            assert not session.resumed_from_checkpoint
            assert session.replayed_records == tail
            assert session.document_json() == expected

    def test_checkpoint_bounds_replay_to_suffix(self, tmp_path):
        directory = str(tmp_path / "state")
        with StreamSession(directory, h=2) as session:
            for op, s, p, o in scripted_ops(2, n_ops=50):
                session.apply(op, s, p, o)
            session.compact()
            for op, s, p, o in scripted_ops(3, n_ops=12):
                session.apply(op, s, p, o)
            session.changelog.sync()
            expected = session.document_json()
        with StreamSession(directory, h=2) as session:
            assert session.resumed_from_checkpoint
            assert session.replayed_records == 12
            assert session.document_json() == expected

    def test_compact_every_cadence(self, tmp_path):
        directory = str(tmp_path / "state")
        with StreamSession(directory, h=2, compact_every=20) as session:
            for op, s, p, o in scripted_ops(4, n_ops=50):
                session.apply(op, s, p, o)
            assert session.maintainer.stats.compactions == 2
        with StreamSession(directory, h=2) as session:
            assert session.resumed_from_checkpoint
            assert session.replayed_records == 10

    def test_bulk_load_checkpoints_once(self, tmp_path):
        """``compact_every`` far below the load's size: one checkpoint,
        taken after the load is synced, and the same document as without."""
        triples = list(random_rdf(11, n_triples=60))
        with StreamSession(str(tmp_path / "plain"), h=2) as session:
            assert session.load_initial(triples) == len(set(triples))
            assert session.maintainer.stats.compactions == 0
            expected = session.document_json()
        directory = str(tmp_path / "state")
        with StreamSession(directory, h=2, compact_every=5) as session:
            session.load_initial(triples)
            assert session.maintainer.stats.compactions == 1
            assert session.checkpointer.seq == session.applied_seq == len(triples)
            assert session.document_json() == expected
        with StreamSession(directory, h=2, compact_every=5) as session:
            assert session.resumed_from_checkpoint
            assert session.replayed_records == 0
            assert session.document_json() == expected
            session.load_initial(triples[:4])  # below the cadence: none due
            assert session.maintainer.stats.compactions == 1
            session.load_initial(triples[:1])  # reaches it
            assert session.maintainer.stats.compactions == 2
            # Each compaction sealed what it covers; nothing is deleted.
            assert session.status()["changelog_segments"] == 3
            assert session.document_json() == expected

    def test_checkpoint_serves_any_h(self, tmp_path):
        """A checkpoint holds triples, not state: another ``h`` resumes
        from it instead of replaying the whole log."""
        directory = str(tmp_path / "state")
        with StreamSession(directory, h=2) as session:
            for op, s, p, o in scripted_ops(5, n_ops=30):
                session.apply(op, s, p, o)
            session.compact()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with StreamSession(directory, h=3) as session:
                assert session.resumed_from_checkpoint
                assert session.replayed_records == 0
                resumed = session.document_json()
        with StreamSession(str(tmp_path / "fresh"), h=3) as session:
            for op, s, p, o in scripted_ops(5, n_ops=30):
                session.apply(op, s, p, o)
            assert session.document_json() == resumed

    def test_sigkill_resumes_from_last_checkpoint(self, tmp_path):
        """A SIGKILLed writer loses nothing durable: the restarted session
        replays only the changelog suffix and matches a full replay."""
        directory = str(tmp_path / "state")
        child = textwrap.dedent(
            """
            import os, signal, sys
            sys.path.insert(0, sys.argv[1])
            sys.path.insert(0, sys.argv[3])
            from repro.streaming.session import StreamSession
            from tests.test_stream_session import scripted_ops
            session = StreamSession(sys.argv[2], h=2, compact_every=25)
            for op, s, p, o in scripted_ops(6, n_ops=63):
                session.apply(op, s, p, o)
            session.changelog.sync()
            print(session.applied_seq, flush=True)
            os.kill(os.getpid(), signal.SIGKILL)
            """
        )
        repo_root = os.path.dirname(SRC_DIR)
        proc = subprocess.run(
            [sys.executable, "-c", child, SRC_DIR, directory, repo_root],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == -9, proc.stderr
        tail = int(proc.stdout.split()[-1])
        assert tail == 63

        with StreamSession(directory, h=2) as session:
            assert session.resumed_from_checkpoint
            # checkpoints at 25 and 50; only 51..63 replays
            assert session.replayed_records == 13
            assert session.applied_seq == 63
            resumed = session.document_json()

        # Byte-identical to a from-scratch replay of the whole changelog.
        fresh_dir = str(tmp_path / "fresh")
        os.makedirs(fresh_dir)
        os.rename(
            os.path.join(directory, "changelog"),
            os.path.join(fresh_dir, "changelog"),
        )
        with StreamSession(fresh_dir, h=2) as session:
            assert not session.resumed_from_checkpoint
            assert session.replayed_records == 63
            assert session.document_json() == resumed


def batch_bytes(session, h, path):
    """``discover -o`` bytes for the session's materialized dataset."""
    result = RDFind(RDFindConfig(support_threshold=h)).discover(
        session.maintainer.materialize()
    )
    dump_result(result, path)
    with open(path, "rb") as handle:
        return handle.read()


_term = st.sampled_from(["a", "b", "c", "d"])
_restart_script = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _term, st.sampled_from(["p", "q"]), _term),
        st.tuples(st.just("remove"), st.integers(min_value=0)),
        st.tuples(st.just("compact")),
        st.tuples(st.just("reopen"), st.integers(min_value=1, max_value=3)),
    ),
    max_size=40,
)


class TestReopenInterleavings:
    """ROADMAP item 4: add/remove interleavings against session reopen."""

    @settings(max_examples=40, deadline=None)
    @given(script=_restart_script)
    def test_reopen_anywhere_serves_the_same_bytes(self, script):
        """``compact()`` and close/reopen (under the same ``h`` or another)
        at drawn positions: after every reopen the document equals a
        never-restarted session's and the batch oracle's bytes, and only
        the suffix past the checkpoint was replayed."""
        root = tempfile.mkdtemp()
        try:
            restarted = StreamSession(os.path.join(root, "restarted"), h=2, fsync=False)
            steady = {
                h: StreamSession(os.path.join(root, f"steady-{h}"), h=h, fsync=False)
                for h in (1, 2, 3)
            }
            live = []
            since_checkpoint = 0
            compacted = False
            for op, *args in script:
                if op == "compact":
                    restarted.compact()
                    since_checkpoint = 0
                    compacted = True
                    continue
                if op == "reopen":
                    (h,) = args
                    restarted.close()
                    restarted = StreamSession(
                        os.path.join(root, "restarted"), h=h, fsync=False
                    )
                    assert restarted.replayed_records == since_checkpoint
                    assert restarted.resumed_from_checkpoint == compacted
                    document = restarted.document_json()
                    assert document == steady[h].document_json()
                    assert document.encode("utf-8") == batch_bytes(
                        restarted, h, os.path.join(root, "oracle.json")
                    )
                    continue
                if op == "remove":
                    if not live:
                        continue
                    delta = ("remove",) + live.pop(args[0] % len(live))
                else:
                    delta = ("add",) + tuple(args)
                    if tuple(args) not in live:
                        live.append(tuple(args))
                for session in (restarted, *steady.values()):
                    session.apply(*delta)
                since_checkpoint += 1
            restarted.close()
            for session in steady.values():
                session.close()
        finally:
            shutil.rmtree(root)


class TestCheckpointTrust:
    def test_checkpoint_ahead_of_changelog_is_refused(self, tmp_path):
        """A checkpoint whose covered records are gone from the log must
        not resume: the next append would reuse covered sequence numbers
        and the reopen after it would silently skip that update.  A
        compaction seals what it covers, so losing the open segment alone
        loses nothing; the sealed one has to go too."""
        directory = str(tmp_path / "state")

        def write(state_dir):
            with StreamSession(state_dir, h=2, fsync=False) as session:
                session.load_initial((f"s{i}", "p", f"o{i % 3}") for i in range(10))
                assert session.applied_seq == 10
                session.compact()

        write(directory)
        for segment in glob.glob(os.path.join(directory, "changelog", "*.open")):
            os.unlink(segment)  # empty since the compaction sealed its records
        with StreamSession(directory, h=2, fsync=False) as session:
            assert session.resumed_from_checkpoint
            assert session.applied_seq == session.changelog.last_seq == 10
            assert session.replayed_records == 0
        for segment in glob.glob(os.path.join(directory, "changelog", "seg-*")):
            os.unlink(segment)  # the sealed segment never reached the disk
        with pytest.raises(ChangeLogCorruptError) as raised:
            StreamSession(directory, h=2, fsync=False)
        assert "seq 10" in str(raised.value) and "last seq 0" in str(raised.value)

        intact = str(tmp_path / "intact")
        write(intact)
        with StreamSession(intact, h=2, fsync=False) as session:
            assert session.resumed_from_checkpoint
            assert session.applied_seq == session.changelog.last_seq == 10
            assert session.add("x", "y", "z")
        with StreamSession(intact, h=2, fsync=False) as session:
            assert session.maintainer.triples == 11

    def test_version_1_directory_is_never_unpickled(self, tmp_path):
        """A pickle-era checkpoint directory takes the warn-and-replay
        path without its payload being loaded, and the next compaction
        supersedes and sweeps it."""
        directory = str(tmp_path / "state")
        with StreamSession(directory, h=2) as session:
            for op, s, p, o in scripted_ops(12, n_ops=30):
                session.apply(op, s, p, o)
            expected = session.document_json()

        sentinel = tmp_path / "unpickled"

        class Bomb:
            def __reduce__(self):
                return (open, (str(sentinel), "w"))

        # Byte for byte what the version-1 writer left behind for (h, scope).
        scope = "proj=O,P,S;cond=O,P,S;binary=True"
        fingerprint = fingerprint_fields(
            magic="rdfind-stream-checkpoint", version=1, h=2, scope=scope
        )
        buffer = io.BytesIO()
        header = {
            "magic": "rdfind-stream-checkpoint",
            "version": 1,
            "seq": 30,
            "fingerprint": fingerprint,
        }
        write_frame(buffer, json.dumps(header, sort_keys=True).encode("utf-8"))
        write_frame(buffer, pickle.dumps(Bomb(), protocol=4))
        checkpoints = tmp_path / "state" / "checkpoints"
        payload = checkpoints / "state-000000000030.bin"
        payload.write_bytes(buffer.getvalue())
        manifest = {
            "format": "rdfind-stream-checkpoint",
            "version": 1,
            "fingerprint": fingerprint,
            "h": 2,
            "scope": scope,
            "seq": 30,
            "triples": 1,
            "payload": payload.name,
            "payload_digest": hashlib.blake2b(
                buffer.getvalue(), digest_size=16
            ).hexdigest(),
        }
        (checkpoints / "manifest.json").write_text(
            json.dumps(manifest, indent=1, sort_keys=True)
        )

        with pytest.warns(UserWarning, match="full changelog replay"):
            session = StreamSession(directory, h=2)
        with session:
            assert not session.resumed_from_checkpoint
            assert session.replayed_records == 30
            assert session.document_json() == expected
            assert not sentinel.exists()
            session.compact()
            assert sorted(os.listdir(checkpoints)) == [
                "manifest.json",
                "state-000000000030.snap",
            ]
        with StreamSession(directory, h=2) as session:
            assert session.resumed_from_checkpoint
            assert session.document_json() == expected
        assert not sentinel.exists()

    def test_damaged_checkpoint_falls_back_to_full_replay(self, tmp_path):
        directory = str(tmp_path / "state")
        with StreamSession(directory, h=2) as session:
            for op, s, p, o in scripted_ops(13, n_ops=25):
                session.apply(op, s, p, o)
            session.compact()
            expected = session.document_json()
        (payload,) = glob.glob(os.path.join(directory, "checkpoints", "*.snap"))
        with open(payload, "r+b") as handle:
            handle.seek(os.path.getsize(payload) - 3)
            handle.write(b"\xff")
        with pytest.warns(UserWarning, match="digest mismatch"):
            session = StreamSession(directory, h=2)
        with session:
            assert not session.resumed_from_checkpoint
            assert session.replayed_records == 25
            assert session.document_json() == expected

    def test_checkpoint_is_a_discoverable_snapshot(self, tmp_path, capsys):
        """``rdfind discover`` reads a stream's checkpoint like any snapshot."""
        directory = str(tmp_path / "state")
        with StreamSession(directory, h=2) as session:
            for op, s, p, o in scripted_ops(14, n_ops=40):
                session.apply(op, s, p, o)
            session.compact()
            expected = session.document_json()
        (payload,) = glob.glob(os.path.join(directory, "checkpoints", "*.snap"))
        out = str(tmp_path / "from-checkpoint.json")
        assert cli_main(["discover", payload, "-s", "2", "--limit", "0", "-o", out]) == 0
        capsys.readouterr()
        with open(out, encoding="utf-8") as handle:
            assert handle.read() == expected

    def test_stats_stay_lifetime_counters_across_reopen(self, tmp_path):
        directory = str(tmp_path / "state")
        with StreamSession(directory, h=2) as session:
            for op, s, p, o in scripted_ops(15, n_ops=40):
                session.apply(op, s, p, o)
            session.document_json()
            session.compact()
            before = session.status()["stats"]
        with StreamSession(directory, h=2) as session:
            assert session.status()["stats"] == before

    def test_manifest_older_than_a_counter_resumes_with_it_at_zero(self, tmp_path):
        """``blocks_rebuilt`` & co. are younger than version-2 manifests:
        one without them is no miss, the counters just start at 0."""
        directory = str(tmp_path / "state")
        with StreamSession(directory, h=2) as session:
            for op, s, p, o in scripted_ops(16, n_ops=40):
                session.apply(op, s, p, o)
            document = session.document_json()
            session.compact()
            before = session.status()["stats"]
        young = ("blocks_rebuilt", "terms_repositioned", "groups_intersected")
        assert before["blocks_rebuilt"] > 0 and before["groups_intersected"] > 0
        manifest_path = os.path.join(directory, "checkpoints", "manifest.json")
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        for name in young:
            del manifest["stats"][name]
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=1, sort_keys=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            session = StreamSession(directory, h=2)
        with session:
            assert session.resumed_from_checkpoint
            assert session.replayed_records == 0
            stats = session.status()["stats"]
            assert {name: stats[name] for name in young} == dict.fromkeys(young, 0)
            assert {k: v for k, v in stats.items() if k not in young} == {
                k: v for k, v in before.items() if k not in young
            }
            assert session.document_json() == document
            assert session.status()["stats"]["blocks_rebuilt"] > 0


class TestBatchAndStatus:
    def test_apply_batch_counts(self, tmp_path):
        with StreamSession(str(tmp_path / "state"), h=1) as session:
            counts = session.apply_batch(
                [
                    {"op": "add", "s": "a", "p": "b", "o": "c"},
                    {"op": "add", "s": "a", "p": "b", "o": "c"},
                    ("remove", "a", "b", "c"),
                    {"op": "remove", "s": "x", "p": "y", "o": "z"},
                ]
            )
            assert counts == {
                "applied": 4,
                "added": 1,
                "removed": 1,
                "ignored": 2,
            }

    def test_status_is_json_safe(self, tmp_path):
        with StreamSession(str(tmp_path / "state"), h=2) as session:
            session.load_initial(random_rdf(7, n_triples=15))
            status = session.status()
            json.dumps(status)  # must not raise
            assert status["support_threshold"] == 2
            assert status["triples"] == session.maintainer.triples
            assert status["stats"]["triples_added"] > 0
            assert status["checkpoint_seq"] == status["checkpoint_bytes"] == 0
            assert status["last_compact_seconds"] == 0.0
            session.compact()
            status = session.status()
            json.dumps(status)
            assert status["checkpoint_seq"] == status["last_seq"]
            (payload,) = glob.glob(
                os.path.join(session.directory, "checkpoints", "*.snap")
            )
            assert status["checkpoint_bytes"] == os.path.getsize(payload)
            assert status["last_compact_seconds"] > 0.0
        with StreamSession(str(tmp_path / "state"), h=2) as session:
            reopened = session.status()
            assert reopened["checkpoint_seq"] == status["checkpoint_seq"]
            assert reopened["checkpoint_bytes"] == status["checkpoint_bytes"]
            assert reopened["rebuild_seconds"] > 0.0


class TestCliDoor:
    def test_stream_cli_matches_discover(self, tmp_path, capsys):
        """The in-process `rdfind stream` run is byte-identical to
        `rdfind discover -o` on the dataset it materializes."""
        from repro.rdf.model import Dataset
        from repro.rdf.ntriples import write_ntriples_file

        triples = list(random_rdf(8, n_triples=60))
        split = int(len(triples) * 0.8)
        write_ntriples_file(
            Dataset(triples[:split], name="init"), str(tmp_path / "initial.nt")
        )
        updates = [
            {"op": "add", "s": t.s, "p": t.p, "o": t.o}
            for t in triples[split:]
        ] + [
            {"op": "remove", "s": t.s, "p": t.p, "o": t.o}
            for t in triples[: split : 4]
        ]
        with open(tmp_path / "updates.jsonl", "w", encoding="utf-8") as handle:
            for update in updates:
                handle.write(json.dumps(update) + "\n")

        assert cli_main(
            [
                "stream",
                str(tmp_path / "state"),
                "-s", "2",
                "--init", str(tmp_path / "initial.nt"),
                "--updates", str(tmp_path / "updates.jsonl"),
                "--compact-every", "30",
                "-n", "0",
                "-o", str(tmp_path / "streamed.json"),
                "--dump-dataset", str(tmp_path / "materialized.nt"),
            ]
        ) == 0
        assert cli_main(
            [
                "discover",
                str(tmp_path / "materialized.nt"),
                "-s", "2",
                "--limit", "0",
                "-o", str(tmp_path / "batch.json"),
            ]
        ) == 0
        capsys.readouterr()
        streamed = (tmp_path / "streamed.json").read_bytes()
        batch = (tmp_path / "batch.json").read_bytes()
        assert streamed == batch

    def test_stream_cli_resumes_and_ignores_init(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        assert cli_main(
            ["stream", state, "-s", "2", "--compact-on-exit", "-n", "0"]
        ) == 0
        with StreamSession(state, h=2) as session:
            session.load_initial(random_rdf(9, n_triples=10))
        assert cli_main(["stream", state, "-s", "2", "-n", "0"]) == 0
        out = capsys.readouterr().out
        assert "resumed at seq 10" in out
        assert "rebuilt in" in out

    def test_stream_cli_rejects_bad_update_line(self, tmp_path):
        (tmp_path / "bad.jsonl").write_text('{"op": "add", "s": "x"}\n')
        with pytest.raises(SystemExit, match="bad delta"):
            cli_main(
                [
                    "stream",
                    str(tmp_path / "state"),
                    "-s", "2",
                    "--updates", str(tmp_path / "bad.jsonl"),
                ]
            )
