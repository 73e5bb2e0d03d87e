"""StreamSession: one durable streaming-discovery state directory.

Layout::

    <directory>/
        changelog/      ChangeLog segments (the source of truth)
        checkpoints/    StreamCheckpointer manifest + ``.snap`` of the live triples

Opening a session recovers: sweep dead writers' temps, rebuild the
maintainer from the checkpoint (any ``h``, any scope — it holds triples,
not state), then replay only the changelog records past its position
(``replayed_records`` says how many — the restart-cost number the
compaction cadence controls).  Every
accepted update is appended to the changelog *before* it touches the
maintainer, so the maintainer is always reconstructible from
(checkpoint, log) — unless the checkpoint is *ahead* of the log, which
means acknowledged updates were lost and is refused outright.

:meth:`StreamSession.apply_batch` is the one write; it parses a whole
batch (:func:`~repro.streaming.changelog.parse_delta`) before logging any.

This is the engine under both front doors: ``rdfind stream`` (CLI) and
the job server's ``/streams`` endpoints.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Iterable, Optional

from repro.core.conditions import ConditionScope
from repro.core.framing import sweep_tmp
from repro.dataflow.gcpause import gc_paused
from repro.streaming.changelog import (
    OP_ADD,
    ChangeLog,
    ChangeLogCorruptError,
    DeltaError,
    parse_delta,
)
from repro.streaming.compaction import StreamCheckpointer
from repro.streaming.maintainer import StreamingRDFind

__all__ = ["StreamSession"]


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
        if compact_every < 0:
            raise ValueError(f"compact_every must be >= 0, got {compact_every}")
        self.directory = directory
        self.h = h
        self.scope = scope if scope is not None else ConditionScope.full()
        #: Compact after this many applied records (0 = only on demand).
        self.compact_every = compact_every
        os.makedirs(directory, exist_ok=True)
        sweep_tmp(directory)
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
                self.maintainer.apply(record.op, record.triple)
                self.applied_seq = record.seq
                self.replayed_records += 1
        #: Seconds this open spent on checkpoint rebuild + suffix replay.
        self.rebuild_seconds = time.perf_counter() - started
        self.last_compact_seconds = 0.0
        self._since_compaction = self.replayed_records

    # -- applying updates ----------------------------------------------

    def apply_batch(self, deltas: Iterable[Any]) -> Dict[str, int]:
        """Log and apply a batch of updates; the log is synced once, at the end.

        Every delta is parsed before any is logged: a bad one raises
        :class:`DeltaError` naming its index, and nothing is logged or
        applied.  Duplicate adds and missing removes are logged too — the
        log records what was *requested*; replay converges regardless
        because the maintainer ignores them idempotently.
        """
        parsed = []
        for index, delta in enumerate(deltas):
            try:
                parsed.append(parse_delta(delta))
            except DeltaError as error:
                raise DeltaError(f"delta #{index}: {error}") from None
        counts = {"applied": len(parsed), "added": 0, "removed": 0, "ignored": 0}
        for op, s, p, o in parsed:
            seq = self.changelog.append(op, s, p, o)
            changed = self.maintainer.apply(op, (s, p, o))
            self.applied_seq = seq
            kind = "added" if op == OP_ADD else "removed"
            counts[kind if changed else "ignored"] += 1
            self._applied(1)
        self.changelog.sync()
        return counts

    def _applied(self, records: int) -> None:
        """Count applied records towards the cadence; compact when it is due."""
        self._since_compaction += records
        if self.compact_every and self._since_compaction >= self.compact_every:
            self.compact()

    def load_initial(self, triples: Iterable) -> int:
        """Bulk-load an initial dataset as logged adds; returns new count.

        Logged, then applied as one bulk add, then synced; checkpointed at
        most once — after the sync — however small ``compact_every`` is.
        """
        # A malformed triple raises here, before anything is logged.
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
