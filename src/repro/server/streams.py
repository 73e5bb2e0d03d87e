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
costs a changelog suffix, not a rebuild; one whose ``stream.json`` is
missing or fails ``create``'s checks is skipped with a warning, its id
still taken.  A bad delta (``DeltaError``) makes its batch a 400.

Endpoints (wired in :mod:`repro.server.routes`)::

    GET  /streams                 all stream summaries
    POST /streams                 create ({"support_threshold", "scope"?,
                                  "compact_every"?}) -> 201 + summary
    GET  /streams/<id>            status incl. MaintenanceStats.to_dict()
    POST /streams/<id>/deltas     apply {"deltas": [{"op","s","p","o"}, ...]}
    GET  /streams/<id>/results    the result document, paged as a job's;
                                  ?raw=1 returns its ``discover -o`` bytes
    POST /streams/<id>/compact    checkpoint now (bounds restart replay)
"""

from __future__ import annotations

import os
import re
import sys
import threading
from typing import Any, Dict, List

from repro.core.conditions import ConditionScope
from repro.core.framing import atomic_write_json
from repro.server.service import BadRequestError, UnknownJobError
from repro.server.store import read_json
from repro.streaming.changelog import DeltaError
from repro.streaming.session import StreamSession

__all__ = ["StreamManager"]

_META_NAME = "stream.json"
_STREAM_ID_RE = re.compile(r"^st-(\d{6,})$")
#: Delta batches beyond this are rejected (mirrors MAX_BODY_BYTES intent).
MAX_DELTAS_PER_BATCH = 100_000
#: Default compaction cadence for server-managed streams.
DEFAULT_COMPACT_EVERY = 10_000

_SCOPES = {"full": ConditionScope.full, "predicates": ConditionScope.predicates_only}


def _stream_meta(body: Any) -> Dict[str, Any]:
    """A stream's config — a create body or a ``stream.json`` — checked,
    defaults filled; :class:`BadRequestError` says what is wrong."""
    if not isinstance(body, dict):
        raise BadRequestError("stream config must be a JSON object")
    meta = {
        "support_threshold": body.get("support_threshold"),
        "scope": body.get("scope", "full"),
        "compact_every": body.get("compact_every", DEFAULT_COMPACT_EVERY),
    }
    for name, least, kind in (
        ("support_threshold", 1, "positive"),
        ("compact_every", 0, "non-negative"),
    ):
        value = meta[name]
        if type(value) is not int or value < least:  # a bool is no count
            raise BadRequestError(f"{name} must be a {kind} integer, got {value!r}")
    if meta["scope"] not in _SCOPES:
        raise BadRequestError(
            f"unknown scope {meta['scope']!r} (use 'full' or 'predicates')"
        )
    return meta


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
            matched = _STREAM_ID_RE.match(name)
            if matched is None:
                continue
            # Taken whether or not it opens: its changelog is still on disk.
            self._next_index = max(self._next_index, int(matched.group(1)) + 1)
            path = os.path.join(self.root_dir, name, _META_NAME)
            try:
                meta = _stream_meta(read_json(path))
            except BadRequestError as error:
                print(f"streams: skipping {name}: {path}: {error}", file=sys.stderr)
                continue
            self._sessions[name] = self._open_session(name, meta)
            self._stream_locks[name] = threading.Lock()

    def _open_session(self, stream_id: str, meta: Dict[str, Any]) -> StreamSession:
        return StreamSession(
            os.path.join(self.root_dir, stream_id),
            h=meta["support_threshold"],
            scope=_SCOPES[meta["scope"]](),
            compact_every=meta["compact_every"],
        )

    # -- lifecycle -----------------------------------------------------

    def create(self, body: Any) -> Dict[str, Any]:
        meta = _stream_meta(body)
        with self._lock:
            stream_id = f"st-{self._next_index:06d}"
            self._next_index += 1
            stream_dir = os.path.join(self.root_dir, stream_id)
            os.makedirs(stream_dir, exist_ok=True)
            meta_path = os.path.join(stream_dir, _META_NAME)
            atomic_write_json(meta_path, dict(meta, id=stream_id))
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
        session = self._session(stream_id)
        with self._locked(stream_id):
            try:
                counts = session.apply_batch(deltas)
            except DeltaError as error:
                raise BadRequestError(str(error)) from None
            return dict(counts, id=stream_id, last_seq=session.applied_seq)

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
