"""Checkpoint compaction: bound the replay cost of a streaming restart.

Without compaction a restart replays the whole changelog; with it, the
live triples are periodically persisted and a restart replays only the
changelog *suffix* past the checkpoint.  Everything else the maintainer
holds is a pure function of the live triples in insertion order, so a
checkpoint is just those, in the format the repo already has:

* ``state-<seq>.snap`` — a :mod:`repro.storage.snapshot` of
  :meth:`StreamingRDFind.materialize` (CRC-framed, atomic, mmap-loaded;
  dead terms are compacted away for free, and ``rdfind discover`` reads
  it like any other snapshot);
* ``manifest.json`` — written atomically after the payload landed: the
  changelog position (``seq``) the payload captures, the payload's name
  and BLAKE2b digest, and the ``MaintenanceStats`` counters, so they
  stay lifetime counters across restarts.

A load checks the digest, lets ``load_snapshot`` check the frames, and
re-adds the triples in column order as one bulk add at id level.
Nothing on disk depends on ``(h, scope)`` or on the classes that wrote
it, and loading executes no code from the directory.  *Any* mismatch —
a version-1 directory (serialized maintainer objects) included, whose
payload is not even opened — is answered with a warning and ``None``;
the session then rebuilds from a full changelog replay, because a
checkpoint is a cache, never the source of truth.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from typing import Optional, Tuple

from repro.core.conditions import ConditionScope
from repro.core.framing import ManifestError, read_manifest, write_manifest
from repro.storage.snapshot import SNAPSHOT_SUFFIX, load_snapshot, save_snapshot
from repro.streaming.delta import DeltaStore
from repro.streaming.maintainer import MaintenanceStats, StreamingRDFind

__all__ = ["StreamCheckpointer"]

CHECKPOINT_MAGIC = "rdfind-stream-checkpoint"
CHECKPOINT_VERSION = 2
MANIFEST_NAME = "manifest.json"


def _digest(path: str) -> str:
    digest = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class StreamCheckpointer:
    """Saves/loads the live triples keyed on a changelog position."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        #: Position and payload size of the checkpoint last saved or loaded.
        self.seq = 0
        self.nbytes = 0

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    # -- saving --------------------------------------------------------

    def save(self, maintainer: StreamingRDFind, seq: int) -> str:
        """Persist the live triples as of changelog position ``seq``.

        Returns the payload path.  The payload lands fully (fsync) before
        the manifest flips to it — a crash between the two leaves the
        previous checkpoint intact.
        """
        payload_name = f"state-{seq:012d}{SNAPSHOT_SUFFIX}"
        payload_path = os.path.join(self.directory, payload_name)
        save_snapshot(maintainer.materialize(name=payload_name), payload_path)
        manifest = {
            "seq": seq,
            "triples": maintainer.triples,
            "payload": payload_name,
            "payload_digest": _digest(payload_path),
            "stats": maintainer.stats.to_dict(),
        }
        write_manifest(self.manifest_path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, manifest)
        self._sweep(keep=payload_name)
        self.seq, self.nbytes = seq, os.path.getsize(payload_path)
        return payload_path

    def _sweep(self, keep: str) -> None:
        """Drop superseded payloads (the manifest points at one only)."""
        for name in os.listdir(self.directory):
            if name.startswith("state-") and name != keep:
                try:
                    os.unlink(os.path.join(self.directory, name))
                except OSError:  # pragma: no cover - concurrent sweep
                    pass

    # -- loading -------------------------------------------------------

    def load(
        self, h: int, scope: ConditionScope
    ) -> Optional[Tuple[StreamingRDFind, int]]:
        """``(maintainer, seq)`` rebuilt from the latest checkpoint.

        ``None`` when there is no checkpoint or it fails any check —
        each non-empty miss warns, so a silently slow full replay is at
        least a *visible* decision.
        """
        try:
            manifest = read_manifest(
                self.manifest_path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION
            )
        except FileNotFoundError:
            return None
        except ManifestError as error:
            return self._miss(self.manifest_path, f"{error} (payload left unread)")
        payload_path = os.path.join(self.directory, str(manifest.get("payload")))
        try:
            if _digest(payload_path) != manifest.get("payload_digest"):
                return self._miss(payload_path, "payload digest mismatch")
            encoded = load_snapshot(payload_path)
            seq = int(manifest["seq"])
            stats = MaintenanceStats(**manifest["stats"])
            if len(encoded) != manifest["triples"]:
                raise ValueError(f"payload holds {len(encoded)} triples")
        except (OSError, ValueError, KeyError, TypeError) as error:  # SnapshotError too
            return self._miss(payload_path, f"unusable payload ({error})")
        maintainer = StreamingRDFind(
            h, scope=scope, store=DeltaStore(encoded.dictionary)
        )
        maintainer.add_all_encoded(encoded)
        maintainer.stats = stats
        self.seq, self.nbytes = seq, os.path.getsize(payload_path)
        return maintainer, seq

    def _miss(self, path: str, why: str) -> None:
        warnings.warn(
            f"{path}: checkpoint {why}; rebuilding from full changelog replay",
            stacklevel=3,
        )
        return None
