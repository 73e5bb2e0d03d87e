"""Streaming updates: durable changelog, add/remove maintenance, recovery.

ROADMAP item 3: the batch reproduction learns to sit behind a live,
mutating knowledge graph.  The subsystem is a stack of small modules::

    changelog.py   durable CRC-framed add/remove log (ChangeLog):
                   monotonic sequence numbers, sealed/open segments,
                   replay-from-offset, truncated-tail recovery
    delta.py       DeltaStore: the mutable triple overlay — set-semantics
                   presence in insertion order, so removals actually
                   retract and the materialized dataset stays byte-equal
                   to a fresh batch load
    maintainer.py  StreamingRDFind: CIND maintenance under adds and
                   removes (conditions activate at h and deactivate
                   below it, interpretations and groups grow and shrink)
                   over int capture codes, with a row cache kept exact
                   per evidence event (Lemma 3), so a query recomputes
                   only what changed
    compaction.py  periodic checkpoint compaction: the live triples as
                   a storage snapshot plus a manifest with the changelog
                   position, so a restart rebuilds from them (under any
                   h and scope) and replays only the changelog suffix
    session.py     StreamSession: ties log + maintainer + compaction
                   together for the CLI (`rdfind stream`) and the
                   server's `/streams` endpoints

Correctness bar (enforced by the test suite): after *any* prefix of an
add/remove sequence, ``pertinent_cinds()`` equals a from-scratch run on
the materialized dataset, and the emitted result document is
byte-identical to batch ``rdfind discover -o`` on that dataset.
"""

from repro.streaming.changelog import (
    ChangeLog,
    ChangeLogCorruptError,
    ChangeLogError,
    ChangeRecord,
    OP_ADD,
    OP_REMOVE,
)
from repro.streaming.compaction import StreamCheckpointer
from repro.streaming.delta import DeltaStore
from repro.streaming.maintainer import StreamingRDFind
from repro.streaming.session import StreamSession

__all__ = [
    "OP_ADD",
    "OP_REMOVE",
    "ChangeLog",
    "ChangeLogCorruptError",
    "ChangeLogError",
    "ChangeRecord",
    "DeltaStore",
    "StreamCheckpointer",
    "StreamSession",
    "StreamingRDFind",
]
