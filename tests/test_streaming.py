"""Tests for StreamingRDFind: add/remove maintenance vs the batch oracle."""

import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cind import Capture, capture_code, code_capture, decode_cind
from repro.core.conditions import ConditionScope, UnaryCondition, conditions_of_triple
from repro.core.discovery import RDFind, RDFindConfig
from repro.core.serialization import dump_result
from repro.core.validation import NaiveProfiler
from repro.rdf.model import Attr
from repro.streaming import DeltaStore, StreamingRDFind
from tests.conftest import random_rdf
from tests.result_oracle import result_to_dict
from tests.stream_oracle import (
    document_from_scratch,
    full_intersection,
    holders_from_scratch,
    rows_from_scratch,
)


def oracle_decoded(dataset, h):
    """Ground truth under the batch semantics (AR-equivalent captures pruned)."""
    encoded = dataset.encode()
    profiler = NaiveProfiler(encoded)
    return {
        (decode_cind(sc.cind, encoded.dictionary), sc.support)
        for sc in profiler.pertinent_cinds(h)
    }


def maintained_decoded(maintainer):
    return {
        (decode_cind(sc.cind, maintainer.dictionary), sc.support)
        for sc in maintainer.pertinent_cinds()
    }


def mixed_ops(seed, n_triples=40, n_ops=110):
    """An interleaved add/remove script with duplicate edges thrown in."""
    rng = random.Random(seed)
    pool = list(random_rdf(seed, n_triples=n_triples))
    live = []
    ops = []
    for _ in range(n_ops):
        if live and rng.random() < 0.4:
            triple = rng.choice(live)
            live.remove(triple)
            ops.append(("remove", triple))
            if rng.random() < 0.15:  # duplicate remove
                ops.append(("remove", triple))
        else:
            triple = rng.choice(pool)
            if triple not in live:
                live.append(triple)
            ops.append(("add", triple))
    return ops


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("h", [1, 2])
    def test_every_state_matches_oracle(self, seed, h):
        """After *every* add/remove, the maintainer equals a fresh batch run
        on the materialized dataset — the ISSUE's correctness bar."""
        maintainer = StreamingRDFind(h=h)
        for op, triple in mixed_ops(seed + 2000, n_triples=20, n_ops=60):
            maintainer.apply(op, triple)
            expected = oracle_decoded(maintainer.as_dataset(), h)
            assert maintained_decoded(maintainer) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_final_state_matches_oracle(self, seed):
        maintainer = StreamingRDFind(h=2)
        for op, triple in mixed_ops(seed + 2100):
            maintainer.apply(op, triple)
        assert maintained_decoded(maintainer) == oracle_decoded(
            maintainer.as_dataset(), 2
        )

    def test_remove_everything_leaves_empty_state(self):
        maintainer = StreamingRDFind(h=1)
        triples = list(random_rdf(2200, n_triples=25))
        for triple in triples:
            maintainer.add(triple)
        for triple in triples:
            maintainer.remove(triple)
        assert maintainer.triples == 0
        assert maintainer.pertinent_cinds() == []
        assert maintainer.broad_cinds() == {}


class TestBatchByteIdentity:
    @pytest.mark.parametrize("seed", range(5))
    def test_document_matches_batch_pipeline(self, seed):
        """result_document() must serialize byte-identically to the full
        batch pipeline run on the materialized dataset."""
        maintainer = StreamingRDFind(h=2)
        for op, triple in mixed_ops(seed + 2300):
            maintainer.apply(op, triple)
        batch = RDFind(RDFindConfig(support_threshold=2)).discover(
            maintainer.materialize()
        )
        expected = json.dumps(
            result_to_dict(batch), ensure_ascii=False, indent=1
        )
        assert maintainer.document_json() == expected
        # The rows the stream answers are the batch rows, in batch order.
        assert [
            (decode_cind(sc.cind, maintainer.dictionary), sc.support)
            for sc in maintainer.pertinent_cinds()
        ] == [(decode_cind(sc.cind, batch.dictionary), sc.support) for sc in batch.cinds]


class TestThresholdChurn:
    """Satellite 3: a condition oscillating across h must activate,
    backfill, deactivate, and reactivate correctly."""

    def test_oscillation_across_threshold(self):
        maintainer = StreamingRDFind(h=2)

        def rendered():
            return {maintainer.render(sc) for sc in maintainer.pertinent_cinds()}

        maintainer.add(("a", "p", "x"))  # p=p freq 1: inactive
        maintainer.add(("a", "q", "x"))
        maintainer.add(("b", "q", "y"))  # p=q active at 2
        assert not any("p=p" in line for line in rendered())

        maintainer.add(("b", "p", "y"))  # p=p crosses h: backfill picks up 'a'
        assert "(s, p=p) ⊆ (s, p=q)  [support=2]" in rendered()

        deactivations = maintainer.stats.conditions_deactivated
        assert maintainer.remove(("b", "p", "y")) is True  # p=p back below h
        assert maintainer.stats.conditions_deactivated > deactivations
        assert not any("p=p" in line for line in rendered())

        maintainer.add(("b", "p", "y"))  # reactivate: backfill again
        assert "(s, p=p) ⊆ (s, p=q)  [support=2]" in rendered()

        # The whole dance must still agree with the oracle.
        assert maintained_decoded(maintainer) == oracle_decoded(
            maintainer.as_dataset(), 2
        )

    def test_duplicate_add_and_remove_edges(self):
        maintainer = StreamingRDFind(h=1)
        assert maintainer.add(("a", "b", "c")) is True
        assert maintainer.add(("a", "b", "c")) is False
        assert maintainer.stats.duplicates_ignored == 1
        assert maintainer.remove(("a", "b", "c")) is True
        assert maintainer.remove(("a", "b", "c")) is False
        assert maintainer.stats.removals_ignored == 1
        assert maintainer.remove(("never", "was", "here")) is False
        assert maintainer.stats.removals_ignored == 2
        assert maintainer.triples == 0

    def test_remove_then_oracle_on_repeated_churn(self):
        """Hammer one condition across the boundary many times."""
        maintainer = StreamingRDFind(h=2)
        maintainer.add(("a", "p", "x"))
        maintainer.add(("a", "q", "x"))
        maintainer.add(("b", "q", "y"))
        for _ in range(5):
            maintainer.add(("b", "p", "y"))
            maintainer.remove(("b", "p", "y"))
        assert maintained_decoded(maintainer) == oracle_decoded(
            maintainer.as_dataset(), 2
        )


class TestIncrementality:
    def test_insertion_can_break_a_cind(self):
        maintainer = StreamingRDFind(h=2)
        maintainer.add_all(
            [("a", "p", "x"), ("b", "p", "y"), ("a", "q", "x"), ("b", "q", "y")]
        )
        before = {maintainer.render(sc) for sc in maintainer.pertinent_cinds()}
        assert "(s, p=q) ⊆ (s, p=p)  [support=2]" in before
        maintainer.add(("c", "q", "z"))  # c has q but not p
        after = {maintainer.render(sc) for sc in maintainer.pertinent_cinds()}
        assert not any(line.startswith("(s, p=q) ⊆ (s, p=p)") for line in after)
        assert "(s, p=p) ⊆ (s, p=q)  [support=2]" in after

    def test_clean_dependents_not_recomputed(self):
        """Inserting a triple touching fresh values must not recompute the
        whole adjacency."""
        maintainer = StreamingRDFind(h=2)
        maintainer.add_all(random_rdf(1200, n_triples=60))
        maintainer.pertinent_cinds()  # settle the cache
        before = maintainer.stats.dependents_recomputed

        maintainer.add(("totally", "new", "terms"))
        maintainer.pertinent_cinds()
        # fresh terms activate nothing at h=2 — no recomputation at all
        assert maintainer.stats.dependents_recomputed == before

    def test_add_under_active_conditions_recomputes_only_what_reaches_h(self):
        """With every condition of the new triple active already, each
        capture it feeds shrinks its own row in place; a full intersection
        is due only where a capture's support just reached h."""
        h = 2
        maintainer = StreamingRDFind(h=h)
        dataset = random_rdf(1202, n_triples=80, n_subjects=4, n_objects=4)
        maintainer.add_all(dataset)
        terms = [sorted({t[slot] for t in dataset}) for slot in range(3)]
        tried = silent = 0
        for triple in itertools.product(*terms):
            if triple in maintainer.store:
                continue
            encoded = maintainer.dictionary.encode_triple(triple)
            if not all(
                condition in maintainer._active
                for condition in conditions_of_triple(encoded, maintainer.scope)
            ):
                continue
            maintainer.broad_cinds()  # settle the cache
            below = {
                code_capture(code)
                for code, values in maintainer._witnesses.items()
                if len(values) == h - 1
            }
            before = maintainer.stats.dependents_recomputed
            assert maintainer.add(triple)
            assert maintainer.broad_cinds() == rows_from_scratch(maintainer)
            reached = sum(maintainer.capture_support(c) == h for c in below)
            recomputed = maintainer.stats.dependents_recomputed - before
            assert recomputed == reached
            tried += 1
            silent += recomputed == 0
        assert tried >= 5 and silent >= 5

    def test_remove_recomputes_at_most_the_evidence_it_retracted(self):
        """Only a capture that lost a value needs its intersection again;
        the captures that shared a group with it drop it in place."""
        maintainer = StreamingRDFind(h=2)
        dataset = list(random_rdf(1203, n_triples=80, n_subjects=4, n_objects=4))
        maintainer.add_all(dataset)
        total = 0
        for triple in dataset[::3]:
            maintainer.broad_cinds()  # settle the cache
            recomputed = maintainer.stats.dependents_recomputed
            retracted = maintainer.stats.evidences_retracted
            if not maintainer.remove(triple):
                continue  # the generator repeats triples
            assert maintainer.broad_cinds() == rows_from_scratch(maintainer)
            recomputed = maintainer.stats.dependents_recomputed - recomputed
            assert recomputed <= maintainer.stats.evidences_retracted - retracted
            total += recomputed
        assert total > 0

    def test_repeated_queries_without_updates_are_free(self):
        maintainer = StreamingRDFind(h=2)
        maintainer.add_all(random_rdf(1201, n_triples=40))
        first = maintainer.pertinent_cinds()
        recomputed = maintainer.stats.dependents_recomputed
        second = maintainer.pertinent_cinds()
        assert maintainer.stats.dependents_recomputed == recomputed
        assert {(sc.cind, sc.support) for sc in first} == {
            (sc.cind, sc.support) for sc in second
        }


_SCOPES = {
    "full": ConditionScope.full,
    "predicates_only": ConditionScope.predicates_only,
    "no_predicate_projections": ConditionScope.no_predicate_projections,
}
_term = st.sampled_from(["a", "b", "c", "d", "e"])
_script = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _term, st.sampled_from(["p", "q", "r"]), _term),
        st.tuples(st.just("remove"), st.integers(min_value=0)),
        st.tuples(st.just("query")),
    ),
    max_size=90,
)


class TestExactInvalidation:
    """The cache invariant: a served row is the intersection computed now."""

    @settings(max_examples=150, deadline=None)
    @given(
        script=_script,
        scope=st.sampled_from(sorted(_SCOPES)),
        h=st.integers(min_value=1, max_value=4),
    )
    def test_cached_rows_equal_recomputation_at_any_point(self, script, scope, h):
        maintainer = StreamingRDFind(h=h, scope=_SCOPES[scope]())
        live = []
        for op, *args in script:
            if op == "add":
                if maintainer.add(tuple(args)):
                    live.append(tuple(args))
            elif op == "remove":
                if live:  # a live triple, so evidence really retracts
                    assert maintainer.remove(live.pop(args[0] % len(live)))
            else:
                assert maintainer.broad_cinds() == rows_from_scratch(maintainer)
        assert maintainer.broad_cinds() == rows_from_scratch(maintainer)

    @settings(max_examples=100, deadline=None)
    @given(
        script=_script,
        scope=st.sampled_from(sorted(_SCOPES)),
        h=st.integers(min_value=1, max_value=3),
    )
    def test_clean_rows_are_exact_after_every_event(self, script, scope, h):
        """The invariant on codes, checked between queries too: every
        cached row outside the dirty set is the intersection computed now,
        every dirty one a subset of it — the bound ``_refs_of`` may stop
        at, which therefore answers exactly for any capture at any time."""
        maintainer = StreamingRDFind(h=h, scope=_SCOPES[scope]())
        live = []
        for op, *args in script:
            if op == "add":
                if maintainer.add(tuple(args)):
                    live.append(tuple(args))
            elif op == "remove":
                if live:
                    assert maintainer.remove(live.pop(args[0] % len(live)))
            else:
                maintainer.broad_cinds()
                assert not maintainer._dirty
            for code, row in maintainer._refs_cache.items():
                if code not in maintainer._dirty:
                    assert row == maintainer._refs_of(code)
                    assert len(maintainer._witnesses[code]) >= h
                elif code in maintainer._witnesses:  # else torn down: no row due
                    assert row <= full_intersection(maintainer, code)
            assert maintainer._holders == holders_from_scratch(maintainer)
            for code in maintainer._witnesses:
                assert maintainer._refs_of(code) == full_intersection(maintainer, code)


class TestHolderIndex:
    """A loss walks the rows that hold the leaver, not its whole group."""

    def test_a_loss_touches_only_the_holders(self, tmp_path):
        """``x`` is in the interpretation of every ``(s | p=…)`` capture
        below, each with a cached row; only ``knows`` (the same subjects as
        ``likes``) holds ``likes``.  ``likes`` losing ``x`` rewrites that
        one row and dirties ``likes`` itself."""
        scope = ConditionScope.predicates_only()
        maintainer = StreamingRDFind(h=2, scope=scope)
        triples = [("x", "likes", "b"), ("y", "likes", "b"), ("y", "likes", "c")]
        triples += [("x", "knows", "e"), ("y", "knows", "f")]
        for i in range(12):
            triples += [("x", f"q{i}", "g"), (f"z{i}", f"q{i}", "g")]
        maintainer.add_all(triples)
        maintainer.document_json()
        encode = maintainer.dictionary.encode
        likes, knows = (
            capture_code((Attr.S, UnaryCondition(Attr.P, encode(predicate))))
            for predicate in ("likes", "knows")
        )
        x = encode("x")
        group = maintainer._groups[x]
        assert len(group & maintainer._refs_cache.keys()) == 14
        assert {m for m in group if likes in maintainer._refs_cache[m]} == {knows}
        assert not maintainer._touched and not maintainer._dirty

        assert maintainer.remove(("x", "likes", "b"))
        assert maintainer._touched == {knows}
        assert maintainer._dirty == {likes}
        assert likes not in maintainer._holders
        result = RDFind(RDFindConfig(support_threshold=2, scope=scope)).discover(
            maintainer.materialize()
        )
        path = tmp_path / "batch.json"
        dump_result(result, path)
        assert maintainer.document_json() == path.read_text("utf-8")


_triple = st.tuples(_term, st.sampled_from(["p", "q", "r"]), _term)
_bulk_script = st.lists(
    st.one_of(
        st.tuples(st.just("add_all"), st.lists(_triple, min_size=1, max_size=8)),
        st.tuples(st.just("remove"), st.integers(min_value=0)),
        st.tuples(st.just("query")),
    ),
    max_size=90,
)


def assert_cache_invariant(maintainer):
    """Clean rows are exact and at or above h, dirty ones lower bounds."""
    for code, row in maintainer._refs_cache.items():
        if code not in maintainer._dirty:
            assert row == full_intersection(maintainer, code)
            assert len(maintainer._witnesses[code]) >= maintainer.h
        elif code in maintainer._witnesses:  # else torn down: no row due
            assert row <= full_intersection(maintainer, code)
    assert maintainer._holders == holders_from_scratch(maintainer)


class TestBulkAdd:
    """``add_all`` reaches the state one ``add`` per triple reaches."""

    @settings(max_examples=150, deadline=None)
    @given(
        script=_bulk_script,
        scope=st.sampled_from(sorted(_SCOPES)),
        h=st.integers(min_value=1, max_value=4),
    )
    def test_bulk_add_equals_one_add_at_a_time(self, script, scope, h):
        """Cold or warm, before or after a query: postings, counts, active set,
        witness counts, groups and every counter but the walk-order
        dependent ``groups_intersected`` agree after each op, the served
        rows and bytes after each query, and the bulk side keeps the
        cache invariant between queries."""
        bulk = StreamingRDFind(h=h, scope=_SCOPES[scope]())
        twin = StreamingRDFind(h=h, scope=_SCOPES[scope]())
        live = []
        for op, *args in script:
            if op == "add_all":  # of one: what the other tests' ``add`` is
                added = [triple for triple in args[0] if twin.add(triple)]
                assert bulk.add_all(args[0]) == len(added)
                live.extend(added)
            elif op == "remove":
                if live:
                    triple = live.pop(args[0] % len(live))
                    assert bulk.remove(triple) and twin.remove(triple)
            else:
                assert bulk.document_json() == twin.document_json()
                assert bulk.pertinent_cinds() == twin.pertinent_cinds()
                assert bulk._refs_cache == twin._refs_cache
                assert not bulk._dirty
            assert list(bulk.store.live()) == list(twin.store.live())
            for state in ("_postings", "_counts", "_active", "_witnesses", "_groups"):
                assert getattr(bulk, state) == getattr(twin, state), state
            ours, theirs = bulk.stats.to_dict(), twin.stats.to_dict()
            del ours["groups_intersected"], theirs["groups_intersected"]
            assert ours == theirs
            assert_cache_invariant(bulk)

    def test_reactivated_capture_shrinks_its_stale_row(self):
        """A torn-down capture keeps its row as a bound; activated again
        before the next query, the row must shrink to the groups it joins
        (``add a p a · query · remove · add a p b`` at h=1)."""
        maintainer = StreamingRDFind(h=1)
        maintainer.add(("a", "p", "a"))
        maintainer.broad_cinds()
        maintainer.remove(("a", "p", "a"))
        maintainer.add(("a", "p", "b"))
        assert_cache_invariant(maintainer)
        assert maintainer.broad_cinds() == rows_from_scratch(maintainer)

    def test_malformed_triple_leaves_the_store_untouched(self):
        maintainer = StreamingRDFind(h=1)
        with pytest.raises(IndexError):
            maintainer.add_all([("a", "p", "b"), ("a", "p")])
        assert maintainer.triples == 0 and not maintainer._postings
        assert not maintainer._counts


def assert_frequencies(maintainer):
    """Unary postings and binary counts, recounted from the live triples."""
    postings, counts = {}, Counter()
    store = maintainer.store
    for triple in store.live():
        for condition in conditions_of_triple(triple, maintainer.scope):
            if len(condition) == 2:
                postings.setdefault(tuple(condition), set()).add(store._ids[triple])
            else:
                counts[tuple(condition)] += 1
    assert maintainer._postings == postings
    assert maintainer._counts == counts
    assert all(len(condition) == 2 for condition in maintainer._postings)
    assert all(len(condition) == 4 for condition in maintainer._counts)
    assert all(count > 0 for count in maintainer._counts.values())
    assert maintainer._active == {
        condition
        for condition, frequency in itertools.chain(
            ((c, len(ids)) for c, ids in postings.items()), counts.items()
        )
        if frequency >= maintainer.h
    }


class TestConditionFrequencies:
    """A unary condition keeps its posting, a binary one only its count."""

    @settings(max_examples=150, deadline=None)
    @given(
        script=_script,
        scope=st.sampled_from(sorted(_SCOPES)),
        h=st.integers(min_value=1, max_value=4),
    )
    def test_postings_and_counts_follow_the_live_triples(self, script, scope, h):
        maintainer = StreamingRDFind(h=h, scope=_SCOPES[scope]())
        live = []
        for op, *args in script:
            if op == "add":
                if maintainer.add(tuple(args)):
                    live.append(tuple(args))
            elif op == "remove":
                if live:
                    assert maintainer.remove(live.pop(args[0] % len(live)))
            else:
                maintainer.document_json()
            assert_frequencies(maintainer)

    def test_a_binary_condition_back_fills_from_the_meet_of_its_parts(self):
        """``p=p ∧ o=x`` drops below h and crosses it again: its captures
        are rebuilt from ``posting(p=p) & posting(o=x)``, which hold more
        than the meet, into the witnesses a fresh maintainer builds."""
        maintainer = StreamingRDFind(h=2)
        maintainer.add_all(
            [("a", "p", "x"), ("b", "p", "x"), ("c", "p", "y"), ("d", "q", "x")]
        )
        lookup = maintainer.dictionary.lookup
        binary = (1, lookup("p"), 2, lookup("x"))
        assert binary in maintainer._active and maintainer._counts[binary] == 2
        maintainer.document_json()
        assert maintainer.remove(("b", "p", "x"))
        assert binary not in maintainer._active and maintainer._counts[binary] == 1
        maintainer.document_json()
        activated = maintainer.stats.conditions_activated
        assert maintainer.add(("e", "p", "x"))
        assert binary in maintainer._active
        assert maintainer.stats.conditions_activated > activated
        unary = maintainer._postings[binary[:2]], maintainer._postings[binary[2:]]
        assert all(len(ids) == 3 for ids in unary) and len(unary[0] & unary[1]) == 2
        fresh = StreamingRDFind(h=2, store=DeltaStore(maintainer.dictionary))
        fresh.add_all_encoded(list(maintainer.store.live()))
        assert maintainer._witnesses == fresh._witnesses
        assert maintainer._groups == fresh._groups
        assert maintainer.document_json() == fresh.document_json()
        assert maintainer.document_json() == document_from_scratch(maintainer)


def replayed(script, h, scope):
    """A maintainer that lived through ``script``, queries included."""
    maintainer = StreamingRDFind(h=h, scope=_SCOPES[scope]())
    live = []
    for op, *args in script:
        if op == "add":
            if maintainer.add(tuple(args)):
                live.append(tuple(args))
        elif op == "remove":
            if live:
                assert maintainer.remove(live.pop(args[0] % len(live)))
        else:
            maintainer.document_json()
    return maintainer


class TestIncrementalDocument:
    """The blocks, positions and rules a query keeps are only ever seen
    through the bytes they spell, so the bytes are compared at every point."""

    @settings(max_examples=80, deadline=None)
    @given(
        # several scripts on end: long enough for warm state to matter
        script=st.lists(_script, min_size=1, max_size=6).map(
            lambda scripts: list(itertools.chain.from_iterable(scripts))
        ),
        scope=st.sampled_from(sorted(_SCOPES)),
        h=st.integers(min_value=1, max_value=3),
    )
    def test_document_after_every_event_is_the_fresh_document(self, script, scope, h):
        """Whatever was served before (the script's queries), the document
        after each event is the one a maintainer new to the live triples
        writes, and the one rebuilt from nothing."""
        for upto in range(1, len(script) + 1):
            if script[upto - 1][0] == "query":
                continue  # the next event's replay asks here
            warm = replayed(script[:upto], h, scope)
            fresh = StreamingRDFind(h=h, scope=_SCOPES[scope]())
            fresh.add_all(warm.as_dataset())
            document = warm.document_json()
            assert document == fresh.document_json()
            assert document == document_from_scratch(warm)

    @pytest.mark.parametrize("scope", sorted(_SCOPES))
    def test_what_moves_a_block(self, scope):
        """A term dying and returning, a re-added triple, a rule appearing
        and breaking, a dependent crossing its neighbour: one warm
        maintainer, compared with the rebuild after every event."""
        maintainer = StreamingRDFind(h=2, scope=_SCOPES[scope]())
        seen = set()
        for op, triple in mixed_ops(2600, n_triples=30, n_ops=160) + [
            ("add", ("a", "p", "x")),
            ("add", ("b", "p", "x")),  # o=x → p=p holds ...
            ("add", ("b", "q", "x")),  # ... and breaks
            ("remove", ("a", "p", "x")),  # the first occurrence of a, p, x
            ("add", ("a", "p", "x")),  # back, at the end of the order
        ]:
            maintainer.apply(op, triple)
            assert maintainer.document_json() == document_from_scratch(maintainer)
            seen.add(maintainer.document_json())
        assert len(seen) > 3
        assert any('"lhs"' in document for document in seen) == (
            maintainer.scope.allow_binary
        )
        assert maintainer.stats.terms_repositioned > 0
        assert maintainer.stats.blocks_rebuilt > 0

    def test_a_relaxation_row_moves_the_binary_dependents_that_read_it(self):
        """``(s, p=type ∧ o=Gene) ⊆ (s, p=name)`` is minimal until
        ``(s, p=type) ⊆ (s, p=name)`` holds — which an event that touches
        no value of the binary dependent can bring about."""
        maintainer = StreamingRDFind(h=2)
        maintainer.add_all(
            [
                ("g1", "type", "Gene"), ("g2", "type", "Gene"),
                ("x", "type", "Disease"), ("z", "type", "Disease"),
                ("y", "likes", "Gene"),  # keeps o=Gene → p=type from being a rule
                ("g1", "name", "n1"), ("g2", "name", "n2"), ("z", "name", "n4"),
            ]
        )  # fmt: skip

        def gene_rows(document):
            return [
                row
                for row in json.loads(document)["cinds"]
                if row["dep"]["cond"] == [["p", "type"], ["o", "Gene"]]
                and row["ref"]["cond"] == [["p", "name"]]
            ]

        assert len(gene_rows(maintainer.document_json())) == 1
        maintainer.add(("x", "name", "n3"))  # x is no Gene
        document = maintainer.document_json()
        assert document == document_from_scratch(maintainer)
        assert gene_rows(document) == []
        maintainer.remove(("x", "name", "n3"))
        assert maintainer.document_json() == document_from_scratch(maintainer)
        assert len(gene_rows(maintainer.document_json())) == 1

    def test_an_idle_query_returns_the_same_string(self):
        maintainer = StreamingRDFind(h=2)
        maintainer.add_all(random_rdf(1201, n_triples=60))
        document = maintainer.document_json()
        rebuilt = maintainer.stats.blocks_rebuilt
        walked = maintainer.stats.groups_intersected
        assert maintainer.document_json() is document
        assert maintainer.stats.blocks_rebuilt == rebuilt > 0
        assert maintainer.stats.groups_intersected == walked > 0
        maintainer.add(("brand", "new", "terms"))  # below h: names nothing
        assert maintainer.document_json() is document
        assert maintainer.stats.blocks_rebuilt == rebuilt

    def test_one_triple_rebuilds_a_handful_of_blocks(self):
        """Diseasome-sized state: what a delta costs follows the delta."""
        from repro.datasets import registry

        triples = [tuple(t) for t in registry.load("Diseasome")]
        maintainer = StreamingRDFind(h=10)
        maintainer.add_all(triples[:-200])
        document = maintainer.document_json()
        blocks = len(maintainer._blocks)
        assert blocks > 300
        for triple in triples[-200::20]:
            before = maintainer.stats.to_dict()
            assert maintainer.add(triple)
            changed = maintainer.document_json()
            after = maintainer.stats.to_dict()
            assert after["blocks_rebuilt"] - before["blocks_rebuilt"] < 60
            assert after["groups_intersected"] - before["groups_intersected"] < 2000
            assert (changed is document) == (changed == document)
            document = changed
        assert document == document_from_scratch(maintainer)


class TestCodesInsideCapturesOutside:
    """A capture is an int from the triple to the query boundary."""

    @pytest.mark.parametrize("scope", sorted(_SCOPES))
    def test_ints_inside_captures_outside(self, scope):
        maintainer = StreamingRDFind(h=2, scope=_SCOPES[scope]())
        for op, triple in mixed_ops(2500):
            maintainer.apply(op, triple)
            if op == "remove":
                maintainer.broad_cinds()  # fill the row cache along the way
        broad = maintainer.broad_cinds()
        assert broad

        def is_code(code):
            return type(code) is int

        assert all(map(is_code, maintainer._witnesses))
        assert all(is_code(c) for group in maintainer._groups.values() for c in group)
        assert all(map(is_code, maintainer._refs_cache))
        assert all(is_code(c) for row in maintainer._refs_cache.values() for c in row)
        assert all(map(is_code, maintainer._dirty))
        # Conditions are plain tuples of plain ints.
        assert all(
            type(condition) is tuple and all(type(x) is int for x in condition)
            for condition in itertools.chain(maintainer._postings, maintainer._counts)
        )

        returned = list(broad)
        for refs, _support in broad.values():
            returned.extend(refs)
        assert all(type(capture) is Capture for capture in returned)
        # One object per distinct code: equal captures are the same object.
        memo = maintainer._decoded
        assert all(capture is memo[code] for code, capture in list(memo.items()))
        assert all(code_capture(code) == capture for code, capture in memo.items())
        by_value = {}
        for capture in returned:
            assert by_value.setdefault(capture, capture) is capture
        assert len(by_value) <= len(memo)

    def test_scope_plan_matches_conditions_of_triple(self):
        """The per-scope plan spells ``conditions_of_triple`` and the
        captures each condition feeds, for every scope."""
        from repro.core.cind import capture_code
        from repro.streaming.maintainer import _fed

        triple = (7, 8, 9)
        for name in sorted(_SCOPES):
            scope = _SCOPES[name]()
            maintainer = StreamingRDFind(h=1, scope=scope)
            planned = maintainer._conditions(triple)
            assert [c for c, _feeds in planned] == list(
                conditions_of_triple(triple, scope)
            )
            for condition, feeds in planned:
                used = {condition[0]} | set(condition[2:3])
                expected = {
                    (int(attr), capture_code((attr, condition)))
                    for attr in scope.projection_attrs
                    if attr not in used
                }
                assert set(_fed(condition, feeds)) == expected


class TestStatsAndStore:
    def test_stats_to_dict_matches_fields(self):
        """Satellite 2: to_dict() exposes every counter, StageMetrics-style."""
        maintainer = StreamingRDFind(h=1)
        maintainer.add(("a", "b", "c"))
        maintainer.remove(("a", "b", "c"))
        stats = maintainer.stats.to_dict()
        assert stats["triples_added"] == 1
        assert stats["triples_removed"] == 1
        assert set(stats) >= {
            "triples_added",
            "triples_removed",
            "duplicates_ignored",
            "removals_ignored",
            "conditions_activated",
            "conditions_deactivated",
            "evidences_applied",
            "evidences_retracted",
            "dependents_recomputed",
            "compactions",
            "queries",
        }
        assert all(isinstance(value, int) for value in stats.values())

    def test_delta_store_retracts_terms(self):
        store = DeltaStore()
        store.add(("a", "b", "c"))
        store.add(("a", "b", "d"))
        assert store.remove(("a", "b", "c")) is not None
        live = store.materialize("live")
        assert len(live) == 1
        decoded = live.decode()
        assert list(decoded) == [("a", "b", "d")]

    def test_as_dataset_roundtrip(self):
        dataset = random_rdf(2400, n_triples=25)
        maintainer = StreamingRDFind(h=1)
        maintainer.add_all(dataset)
        assert maintainer.as_dataset() == dataset

    def test_validation_and_repr(self):
        with pytest.raises(ValueError):
            StreamingRDFind(h=0)
        maintainer = StreamingRDFind(h=2)
        maintainer.add(("a", "b", "c"))
        assert "1 live triples" in repr(maintainer).replace(",", "")
