"""Stateful (model-based) property tests via hypothesis."""

import os
import shutil
import tempfile

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.core.discovery import RDFind, RDFindConfig
from repro.core.serialization import dump_result
from repro.core.validation import NaiveProfiler
from repro.rdf.model import Dataset, Triple
from repro.rdf.store import TripleStore
from repro.streaming import StreamSession
from tests.stream_oracle import holders_from_scratch

_terms = st.sampled_from(["a", "b", "c", "d", "e"])
_triples = st.builds(Triple, _terms, _terms, _terms)


class StoreMachine(RuleBasedStateMachine):
    """The TripleStore must behave like a plain set of triples."""

    def __init__(self) -> None:
        super().__init__()
        self.store = TripleStore()
        self.model: set = set()

    @rule(triple=_triples)
    def add(self, triple):
        assert self.store.add(triple) == (triple not in self.model)
        self.model.add(triple)

    @rule(triple=_triples)
    def remove(self, triple):
        assert self.store.remove(triple) == (triple in self.model)
        self.model.discard(triple)

    @rule(s=st.one_of(st.none(), _terms), p=st.one_of(st.none(), _terms),
          o=st.one_of(st.none(), _terms))
    def match_agrees_with_model(self, s, p, o):
        expected = {
            t for t in self.model
            if (s is None or t.s == s)
            and (p is None or t.p == p)
            and (o is None or t.o == o)
        }
        assert set(self.store.match(s, p, o)) == expected

    @invariant()
    def size_agrees(self):
        assert len(self.store) == len(self.model)

    @invariant()
    def vocabularies_agree(self):
        assert self.store.subjects() == {t.s for t in self.model}
        assert self.store.objects() == {t.o for t in self.model}


TestStoreMachine = StoreMachine.TestCase
TestStoreMachine.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)


class StreamingMachine(RuleBasedStateMachine):
    """The streaming maintainer must always equal batch recomputation —
    across compactions and close/reopen of its durable session too."""

    def __init__(self) -> None:
        super().__init__()
        self.h = 2
        self.directory = tempfile.mkdtemp()
        self.session = StreamSession(self.directory, h=self.h, fsync=False)
        self.model: list = []
        self.since_checkpoint = 0
        self.served = None

    def teardown(self):
        self.session.close()
        shutil.rmtree(self.directory)

    @property
    def maintainer(self):
        return self.session.maintainer

    @rule(triple=_triples)
    def add(self, triple):
        was_new = triple not in self.model
        assert self.session.apply_batch([("add", *triple)])["added"] == was_new
        self.since_checkpoint += 1
        if was_new:
            self.model.append(triple)

    @rule(triple=_triples)
    def remove(self, triple):
        was_live = triple in self.model
        assert self.session.apply_batch([("remove", *triple)])["removed"] == was_live
        self.since_checkpoint += 1
        if was_live:
            self.model.remove(triple)

    @rule()
    def compact(self):
        self.session.compact()
        self.since_checkpoint = 0

    @rule()
    def reopen(self):
        self.session.close()
        self.session = StreamSession(self.directory, h=self.h, fsync=False)
        assert self.session.replayed_records == self.since_checkpoint
        assert list(self.maintainer.as_dataset()) == self.model

    @rule()
    def query(self):
        """Ask for the document here: the step since the last query meets
        warm blocks, positions and rules, and :meth:`document_is_batch_bytes`
        checks what it made of them."""
        self.served = self.session.document_json()

    @invariant()
    def document_is_batch_bytes(self):
        """A document just served is ``discover`` + ``dump_result`` on the
        materialized triples.  (Rendering it after *every* step would cost
        a batch run per step, so only ``query`` asks;
        :meth:`pertinent_matches_batch` settles the blocks after each.)"""
        served, self.served = self.served, None
        if served is None:
            return
        result = RDFind(RDFindConfig(support_threshold=self.h)).discover(
            self.maintainer.materialize()
        )
        path = os.path.join(self.directory, "oracle.json")
        dump_result(result, path)
        with open(path, encoding="utf-8") as stream:
            assert served == stream.read()
        assert self.session.document_json() is served  # nothing changed since

    @invariant()
    def pertinent_matches_batch(self):
        """The rows the stream answers are the batch semantics' rows."""
        if not self.model:
            return
        from repro.core.cind import decode_cind

        got = {
            (decode_cind(sc.cind, self.maintainer.dictionary), sc.support)
            for sc in self.maintainer.pertinent_cinds()
        }
        encoded = Dataset(self.model).encode()
        profiler = NaiveProfiler(encoded)
        want = {
            (decode_cind(sc.cind, encoded.dictionary), sc.support)
            for sc in profiler.pertinent_cinds(self.h)
        }
        assert got == want

    @invariant()
    def holders_are_the_rows_transpose(self):
        """The holder index is derived: compaction and reopen rebuild it."""
        assert self.maintainer._holders == holders_from_scratch(self.maintainer)


TestStreamingMachine = StreamingMachine.TestCase
TestStreamingMachine.settings = settings(
    max_examples=15, stateful_step_count=15, deadline=None
)
