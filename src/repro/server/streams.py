"""Streams: the server front door onto :mod:`repro.streaming`.

Same layering discipline as jobs (routes → service/manager → durable
state): the routes call one :class:`StreamManager` method per endpoint,
and all durable state lives in per-stream :class:`StreamSession`
directories under ``<root>/``::

    <root>/
        st-000001/
            stream.json     the stream's config (h, scope, compact cadence)
            changelog/      the durable add/remove log
            checkpoints/    compaction snapshots

A restarted server reopens every stream directory it finds — recovery is
the session's own checkpoint-plus-suffix replay, so a server bounce
costs a changelog suffix, not a rebuild.

Endpoints (wired in :mod:`repro.server.routes`)::

    GET  /streams                 all stream summaries
    POST /streams                 create ({"support_threshold", "scope"?,
                                  "compact_every"?}) -> 201 + summary
    GET  /streams/<id>            status incl. MaintenanceStats.to_dict()
    POST /streams/<id>/deltas     apply {"deltas": [{"op","s","p","o"}, ...]}
    GET  /streams/<id>/results    pertinent CINDs + ARs; ?raw=1 returns the
                                  batch-identical result document bytes
    POST /streams/<id>/compact    checkpoint now (bounds restart replay)
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, List, Optional

from repro.core.conditions import ConditionScope
from repro.core.framing import atomic_write
from repro.server.service import BadRequestError, UnknownJobError
from repro.streaming.session import StreamSession

__all__ = ["StreamManager"]

_META_NAME = "stream.json"
#: Delta batches beyond this are rejected (mirrors MAX_BODY_BYTES intent).
MAX_DELTAS_PER_BATCH = 100_000
#: Default compaction cadence for server-managed streams.
DEFAULT_COMPACT_EVERY = 10_000

_SCOPES = {"full": ConditionScope.full, "predicates": ConditionScope.predicates_only}


class StreamManager:
    """Owns every live :class:`StreamSession` under one root directory."""

    def __init__(self, root_dir: str) -> None:
        self.root_dir = root_dir
        os.makedirs(root_dir, exist_ok=True)
        self._lock = threading.RLock()
        self._sessions: Dict[str, StreamSession] = {}
        self._stream_locks: Dict[str, threading.Lock] = {}
        self._next_index = 1
        self._recover()

    # -- recovery ------------------------------------------------------

    def _recover(self) -> None:
        for name in sorted(os.listdir(self.root_dir)):
            meta_path = os.path.join(self.root_dir, name, _META_NAME)
            if not os.path.isfile(meta_path):
                continue
            with open(meta_path, "r", encoding="utf-8") as stream:
                meta = json.load(stream)
            self._sessions[name] = self._open_session(name, meta)
            self._stream_locks[name] = threading.Lock()
            index = int(name.rsplit("-", 1)[-1])
            self._next_index = max(self._next_index, index + 1)

    def _open_session(self, stream_id: str, meta: Dict[str, Any]) -> StreamSession:
        return StreamSession(
            os.path.join(self.root_dir, stream_id),
            h=int(meta["support_threshold"]),
            scope=_SCOPES[meta.get("scope", "full")](),
            compact_every=int(meta.get("compact_every", DEFAULT_COMPACT_EVERY)),
        )

    # -- lifecycle -----------------------------------------------------

    def create(self, body: Dict[str, Any]) -> Dict[str, Any]:
        h = body.get("support_threshold")
        if not isinstance(h, int) or isinstance(h, bool) or h < 1:
            raise BadRequestError(
                f"support_threshold must be a positive integer, got {h!r}"
            )
        scope_name = body.get("scope", "full")
        if scope_name not in _SCOPES:
            raise BadRequestError(
                f"unknown scope {scope_name!r} (use 'full' or 'predicates')"
            )
        compact_every = body.get("compact_every", DEFAULT_COMPACT_EVERY)
        if not isinstance(compact_every, int) or compact_every < 0:
            raise BadRequestError(
                f"compact_every must be a non-negative integer, got {compact_every!r}"
            )
        meta = {
            "support_threshold": h,
            "scope": scope_name,
            "compact_every": compact_every,
        }
        with self._lock:
            stream_id = f"st-{self._next_index:06d}"
            self._next_index += 1
            stream_dir = os.path.join(self.root_dir, stream_id)
            os.makedirs(stream_dir, exist_ok=True)
            meta_path = os.path.join(stream_dir, _META_NAME)
            with atomic_write(meta_path, "w") as handle:
                json.dump(dict(meta, id=stream_id), handle, indent=1)
            self._sessions[stream_id] = self._open_session(stream_id, meta)
            self._stream_locks[stream_id] = threading.Lock()
        return self.status(stream_id)

    def _session(self, stream_id: str) -> StreamSession:
        session = self._sessions.get(stream_id)
        if session is None:
            raise UnknownJobError(f"no stream {stream_id!r}")
        return session

    def _locked(self, stream_id: str) -> threading.Lock:
        with self._lock:
            lock = self._stream_locks.get(stream_id)
        if lock is None:
            raise UnknownJobError(f"no stream {stream_id!r}")
        return lock

    # -- endpoint bodies -------------------------------------------------

    def list_streams(self) -> List[Dict[str, Any]]:
        with self._lock:
            ids = sorted(self._sessions)
        return [self.status(stream_id) for stream_id in ids]

    def status(self, stream_id: str) -> Dict[str, Any]:
        session = self._session(stream_id)
        with self._locked(stream_id):
            return dict(session.status(), id=stream_id)

    def apply_deltas(self, stream_id: str, body: Dict[str, Any]) -> Dict[str, Any]:
        deltas = body.get("deltas")
        if not isinstance(deltas, list):
            raise BadRequestError("body must carry a 'deltas' list")
        if len(deltas) > MAX_DELTAS_PER_BATCH:
            raise BadRequestError(
                f"batch of {len(deltas)} deltas exceeds "
                f"{MAX_DELTAS_PER_BATCH}"
            )
        for index, delta in enumerate(deltas):
            if not isinstance(delta, dict):
                raise BadRequestError(f"delta #{index} is not an object")
            op = delta.get("op")
            if op not in ("add", "remove"):
                raise BadRequestError(
                    f"delta #{index} has unknown op {op!r} (use add/remove)"
                )
            for field in ("s", "p", "o"):
                if not isinstance(delta.get(field), str):
                    raise BadRequestError(
                        f"delta #{index} is missing string field {field!r}"
                    )
        session = self._session(stream_id)
        with self._locked(stream_id):
            counts = session.apply_batch(deltas)
            return dict(counts, id=stream_id, last_seq=session.applied_seq)

    def results(self, stream_id: str) -> Dict[str, Any]:
        session = self._session(stream_id)
        with self._locked(stream_id):
            cinds = session.pertinent_cinds()
            dictionary = session.maintainer.dictionary
            return {
                "id": stream_id,
                "support_threshold": session.h,
                "triples": session.maintainer.triples,
                "last_seq": session.applied_seq,
                "count": len(cinds),
                "cinds": [sc.render(dictionary) for sc in cinds],
            }

    def raw_results(self, stream_id: str) -> bytes:
        """The batch-identical result document (diffable vs ``discover -o``)."""
        session = self._session(stream_id)
        with self._locked(stream_id):
            return session.document_json().encode("utf-8")

    def compact(self, stream_id: str) -> Dict[str, Any]:
        session = self._session(stream_id)
        with self._locked(stream_id):
            session.compact()
        return self.status(stream_id)

    def close(self) -> None:
        with self._lock:
            for session in self._sessions.values():
                session.close()
            self._sessions.clear()
            self._stream_locks.clear()
