"""StreamSession: one durable streaming-discovery state directory.

Layout::

    <directory>/
        changelog/      ChangeLog segments (the source of truth)
        checkpoints/    StreamCheckpointer manifest + ``.snap`` of the live triples

Opening a session recovers: rebuild the maintainer from the checkpoint
(any ``h``, any scope — it holds triples, not state), then replay only
the changelog records past its position (``replayed_records`` says how
many — the restart-cost number the compaction cadence controls).  Every
accepted update is appended to the changelog *before* it touches the
maintainer, so the maintainer is always reconstructible from
(checkpoint, log) — unless the checkpoint is *ahead* of the log, which
means acknowledged updates were lost and is refused outright.

This is the engine under both front doors: ``rdfind stream`` (CLI) and
the job server's ``/streams`` endpoints.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.core.cind import SupportedCIND
from repro.core.conditions import ConditionScope
from repro.dataflow.gcpause import gc_paused
from repro.streaming.changelog import (
    OP_ADD,
    OP_REMOVE,
    ChangeLog,
    ChangeLogCorruptError,
    ChangeRecord,
)
from repro.streaming.compaction import StreamCheckpointer
from repro.streaming.maintainer import StreamingRDFind

__all__ = ["StreamSession"]

Delta = Union[Tuple[str, str, str, str], Dict[str, str]]


def _normalize_delta(delta: Delta) -> Tuple[str, str, str, str]:
    """``(op, s, p, o)`` from either tuple or ``{"op", "s", "p", "o"}`` form."""
    if isinstance(delta, dict):
        try:
            return (
                str(delta["op"]),
                str(delta["s"]),
                str(delta["p"]),
                str(delta["o"]),
            )
        except KeyError as error:
            raise ValueError(f"delta is missing field {error.args[0]!r}")
    op, s, p, o = delta
    return str(op), str(s), str(p), str(o)


class StreamSession:
    """Durable, resumable add/remove stream over one state directory."""

    def __init__(
        self,
        directory: str,
        h: int,
        scope: Optional[ConditionScope] = None,
        compact_every: int = 0,
        max_segment_bytes: int = 4 << 20,
        fsync: bool = True,
    ) -> None:
        self.directory = directory
        self.h = h
        self.scope = scope if scope is not None else ConditionScope.full()
        #: Compact after this many applied records (0 = only on demand).
        self.compact_every = compact_every
        os.makedirs(directory, exist_ok=True)
        self.changelog = ChangeLog(
            os.path.join(directory, "changelog"),
            max_segment_bytes=max_segment_bytes,
            fsync=fsync,
        )
        self.checkpointer = StreamCheckpointer(
            os.path.join(directory, "checkpoints")
        )

        started = time.perf_counter()
        with gc_paused():
            loaded = self.checkpointer.load(h, self.scope)
            self.resumed_from_checkpoint = loaded is not None
            self.maintainer, self.applied_seq = loaded or (
                StreamingRDFind(h, scope=self.scope),
                0,
            )
            if self.applied_seq > self.changelog.last_seq:
                self.changelog.close()
                # Neither side alone is trustworthy: appending would reuse
                # sequence numbers the checkpoint already covers.
                raise ChangeLogCorruptError(
                    f"{directory}: checkpoint at seq {self.applied_seq} is ahead "
                    f"of the changelog (last seq {self.changelog.last_seq}); "
                    "acknowledged updates were lost"
                )
            self.replayed_records = 0
            for record in self.changelog.replay(after_seq=self.applied_seq):
                self._apply_record(record)
                self.replayed_records += 1
        #: Seconds this open spent on checkpoint rebuild + suffix replay.
        self.rebuild_seconds = time.perf_counter() - started
        self.last_compact_seconds = 0.0
        self._since_compaction = self.replayed_records

    # -- applying updates ----------------------------------------------

    def _apply_record(self, record: ChangeRecord) -> bool:
        changed = self.maintainer.apply(record.op, record.triple)
        self.applied_seq = record.seq
        return changed

    def apply(self, op: str, s: str, p: str, o: str) -> bool:
        """Log and apply one update; returns whether state changed.

        Duplicate adds and missing removes are logged too — the log
        records what was *requested*; replay converges regardless
        because the maintainer ignores them idempotently.
        """
        seq = self.changelog.append(op, s, p, o)
        changed = self.maintainer.apply(op, (s, p, o))
        self.applied_seq = seq
        self._applied(1)
        return changed

    def _applied(self, records: int) -> None:
        """Count applied records towards the cadence; compact when it is due."""
        self._since_compaction += records
        if self.compact_every and self._since_compaction >= self.compact_every:
            self.compact()

    def add(self, s: str, p: str, o: str) -> bool:
        return self.apply(OP_ADD, s, p, o)

    def remove(self, s: str, p: str, o: str) -> bool:
        return self.apply(OP_REMOVE, s, p, o)

    def apply_batch(self, deltas: Iterable[Delta]) -> Dict[str, int]:
        """Apply a batch of deltas, syncing the log once at the end."""
        counts = {"applied": 0, "added": 0, "removed": 0, "ignored": 0}
        for delta in deltas:
            op, s, p, o = _normalize_delta(delta)
            changed = self.apply(op, s, p, o)
            counts["applied"] += 1
            if not changed:
                counts["ignored"] += 1
            elif op == OP_ADD:
                counts["added"] += 1
            else:
                counts["removed"] += 1
        self.changelog.sync()
        return counts

    def load_initial(self, triples: Iterable) -> int:
        """Bulk-load an initial dataset as logged adds; returns new count.

        Logged, then applied as one bulk add, then synced; checkpointed at
        most once — after the sync — however small ``compact_every`` is.
        """
        # As _normalize_delta; a malformed triple raises here, nothing logged yet.
        triples = [(str(s), str(p), str(o)) for s, p, o in triples]
        with gc_paused():
            self.applied_seq = self.changelog.extend(OP_ADD, triples)
            new = self.maintainer.add_all(triples)
        self.changelog.sync()
        self._applied(len(triples))
        return new

    # -- compaction ----------------------------------------------------

    def compact(self) -> None:
        """Checkpoint the live triples at the current changelog position."""
        started = time.perf_counter()
        self.changelog.rotate()  # sealed: a reopen skips what the checkpoint covers
        self.maintainer.stats.compactions += 1  # the manifest counts itself
        self.checkpointer.save(self.maintainer, self.applied_seq)
        self._since_compaction = 0
        self.last_compact_seconds = time.perf_counter() - started

    # -- queries -------------------------------------------------------

    def pertinent_cinds(self) -> List[SupportedCIND]:
        return self.maintainer.pertinent_cinds()

    def document_json(self) -> str:
        return self.maintainer.document_json()

    def status(self) -> Dict:
        """JSON-safe session status (the server's stream-status body)."""
        return {
            "support_threshold": self.h,
            "triples": self.maintainer.triples,
            "last_seq": self.applied_seq,
            "changelog_seq": self.changelog.last_seq,
            "changelog_segments": self.changelog.segment_count,
            "changelog_bytes": self.changelog.nbytes(),
            "resumed_from_checkpoint": self.resumed_from_checkpoint,
            "replayed_records": self.replayed_records,
            "rebuild_seconds": self.rebuild_seconds,
            "compact_every": self.compact_every,
            "checkpoint_seq": self.checkpointer.seq,
            "checkpoint_bytes": self.checkpointer.nbytes,
            "last_compact_seconds": self.last_compact_seconds,
            "stats": self.maintainer.stats.to_dict(),
        }

    @property
    def store(self):
        return self.maintainer.store

    def close(self) -> None:
        self.changelog.close()

    def __enter__(self) -> "StreamSession":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<StreamSession {self.directory!r} h={self.h}: "
            f"seq {self.applied_seq}, {self.maintainer.triples:,} triples>"
        )
