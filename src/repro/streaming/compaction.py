"""Checkpoint compaction: bound the replay cost of a streaming restart.

Without compaction a restart replays the whole changelog; with it, the
maintainer's full state is periodically persisted and a restart replays
only the changelog *suffix* past the snapshot.  The format mirrors
:mod:`repro.dataflow.checkpoint`'s manifests:

* ``manifest.json`` — written atomically (tmp + fsync + rename) with a
  BLAKE2b ``fingerprint_fields`` key over ``(h, scope)`` plus the
  changelog position (``seq``) the payload captures and the payload's
  own BLAKE2b digest;
* ``state-<seq>.bin`` — a CRC-framed header + pickled maintainer.

Loads validate fingerprint, framing, and digest; *any* mismatch is
answered with a warning and ``None`` — the session then rebuilds from a
full changelog replay, because a checkpoint is a cache, never the source
of truth.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import warnings
from typing import Optional, Tuple

from repro.core.conditions import ConditionScope
from repro.core.framing import FrameError, atomic_write, read_frame, write_frame
from repro.dataflow.checkpoint import fingerprint_fields
from repro.streaming.maintainer import StreamingRDFind

__all__ = ["StreamCheckpointer", "scope_signature"]

CHECKPOINT_MAGIC = "rdfind-stream-checkpoint"
CHECKPOINT_VERSION = 1
MANIFEST_NAME = "manifest.json"

#: Matches the dataflow checkpoint writer: protocol 4 keeps payloads
#: loadable across every supported interpreter.
_PICKLE_PROTOCOL = 4


def scope_signature(scope: ConditionScope) -> str:
    """A canonical, hash-order-independent rendering of a scope.

    ``fingerprint_fields`` reprs its values, and frozensets repr in
    iteration order — fine for ints, but spelled out here so the
    signature is readable in the manifest and immune to enum repr
    changes.
    """
    projection = ",".join(sorted(attr.name for attr in scope.projection_attrs))
    condition = ",".join(sorted(attr.name for attr in scope.condition_attrs))
    return f"proj={projection};cond={condition};binary={scope.allow_binary}"


class StreamCheckpointer:
    """Saves/loads maintainer snapshots keyed on (position, h, scope)."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def fingerprint(self, h: int, scope: ConditionScope) -> str:
        return fingerprint_fields(
            magic=CHECKPOINT_MAGIC,
            version=CHECKPOINT_VERSION,
            h=h,
            scope=scope_signature(scope),
        )

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    # -- saving --------------------------------------------------------

    def save(self, maintainer: StreamingRDFind, seq: int) -> str:
        """Persist the maintainer as of changelog position ``seq``.

        Returns the payload path.  The payload lands fully (fsync) before
        the manifest flips to it — a crash between the two leaves the
        previous checkpoint intact.
        """
        buffer = io.BytesIO()
        header = json.dumps(
            {
                "magic": CHECKPOINT_MAGIC,
                "version": CHECKPOINT_VERSION,
                "seq": seq,
                "fingerprint": self.fingerprint(maintainer.h, maintainer.scope),
            },
            sort_keys=True,
        ).encode("utf-8")
        write_frame(buffer, header)
        write_frame(
            buffer, pickle.dumps(maintainer, protocol=_PICKLE_PROTOCOL)
        )
        payload = buffer.getvalue()
        digest = hashlib.blake2b(payload, digest_size=16).hexdigest()

        payload_name = f"state-{seq:012d}.bin"
        payload_path = os.path.join(self.directory, payload_name)
        with atomic_write(payload_path) as stream:
            stream.write(payload)
        manifest = {
            "format": CHECKPOINT_MAGIC,
            "version": CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint(maintainer.h, maintainer.scope),
            "h": maintainer.h,
            "scope": scope_signature(maintainer.scope),
            "seq": seq,
            "triples": maintainer.triples,
            "payload": payload_name,
            "payload_digest": digest,
        }
        with atomic_write(self.manifest_path, "w") as stream:
            json.dump(manifest, stream, indent=1, sort_keys=True)
        self._sweep(keep=payload_name)
        return payload_path

    def _sweep(self, keep: str) -> None:
        """Drop superseded payloads (the manifest points at one only)."""
        for name in os.listdir(self.directory):
            if (
                name.startswith("state-")
                and name.endswith(".bin")
                and name != keep
            ):
                try:
                    os.unlink(os.path.join(self.directory, name))
                except OSError:  # pragma: no cover - concurrent sweep
                    pass

    # -- loading -------------------------------------------------------

    def load(
        self, h: int, scope: ConditionScope
    ) -> Optional[Tuple[StreamingRDFind, int]]:
        """``(maintainer, seq)`` from the latest matching checkpoint.

        ``None`` when there is no checkpoint, the fingerprint does not
        match the requested ``(h, scope)``, or the payload fails any
        integrity check — each non-empty miss warns, so a silently slow
        full replay is at least a *visible* decision.
        """
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as stream:
                manifest = json.load(stream)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as error:
            warnings.warn(
                f"{self.manifest_path}: unreadable checkpoint manifest "
                f"({error}); rebuilding from full changelog replay",
                stacklevel=2,
            )
            return None
        expected = self.fingerprint(h, scope)
        if manifest.get("fingerprint") != expected:
            warnings.warn(
                f"{self.manifest_path}: checkpoint fingerprint mismatch "
                f"(saved for h={manifest.get('h')}, "
                f"scope={manifest.get('scope')!r}); rebuilding from full "
                "changelog replay",
                stacklevel=2,
            )
            return None
        payload_path = os.path.join(self.directory, str(manifest.get("payload")))
        try:
            with open(payload_path, "rb") as stream:
                payload = stream.read()
        except OSError as error:
            warnings.warn(
                f"{payload_path}: unreadable checkpoint payload ({error}); "
                "rebuilding from full changelog replay",
                stacklevel=2,
            )
            return None
        digest = hashlib.blake2b(payload, digest_size=16).hexdigest()
        if digest != manifest.get("payload_digest"):
            warnings.warn(
                f"{payload_path}: checkpoint payload digest mismatch; "
                "rebuilding from full changelog replay",
                stacklevel=2,
            )
            return None
        try:
            stream = io.BytesIO(payload)
            header = json.loads(read_frame(stream).decode("utf-8"))
            if (
                header.get("magic") != CHECKPOINT_MAGIC
                or header.get("version") != CHECKPOINT_VERSION
                or header.get("fingerprint") != expected
            ):
                raise ValueError(f"checkpoint header mismatch: {header}")
            maintainer = pickle.loads(read_frame(stream))
            seq = int(header["seq"])
        except (
            FrameError,
            ValueError,
            KeyError,
            pickle.PickleError,
            EOFError,
            AttributeError,  # pickled class renamed since the checkpoint
            ImportError,  # ... or its module moved
        ) as error:
            warnings.warn(
                f"{payload_path}: corrupt checkpoint payload ({error}); "
                "rebuilding from full changelog replay",
                stacklevel=2,
            )
            return None
        return maintainer, seq
