"""Federated ingestion torture tests: faults in, identical bytes out.

The acceptance criteria of the federation arc (ROADMAP item 4), all
exercised offline against the deterministic mock endpoint:

* a fetch that rode out scripted timeouts, 429s, 503s, truncated pages,
  and malformed JSON produces a **byte-identical** encoded dataset (and
  discovery result) to a clean fetch and to parsing the file locally;
* the circuit breaker walks exactly the closed→open→half-open paths its
  fault script was written to cause;
* a resumable fetch survives mid-fetch death, torn tail frames, and
  corrupt workspaces — and refuses (typed error) to resume someone
  else's workspace;
* a federation job with a dead source degrades into a partial,
  completeness-stamped result document instead of raising.
"""

from __future__ import annotations

import json
import os
import urllib.error

import pytest

from repro.core.retry import RetryPolicy
from repro.dataflow.checkpoint import dataset_digest
from repro.federation.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.federation.client import SparqlEndpointClient, binding_to_term
from repro.apps.integration import discover_cross_cinds
from repro.federation.cross import (
    FederatedResult,
    federated_discover,
    federated_result_to_dict,
)
from repro.federation.errors import (
    CircuitOpenError,
    FederationError,
    FetchMismatchError,
    MalformedResponseError,
    PermanentEndpointError,
    TransientEndpointError,
)
from repro.federation.ingest import (
    PAGES_NAME,
    AdaptivePager,
    fetch_endpoint,
    page_query,
)
from repro.federation.mock import EndpointFaultScript, MockSparqlEndpoint
from repro.rdf.model import Dataset, Triple
from repro.rdf.ntriples import (
    literal_parts,
    make_literal,
    parse_ntriples_file,
    write_ntriples_file,
)
from repro.storage.columnar import EncodedDataset

SCAN = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }"

#: Gnarly terms: every escape class, language tags, datatypes, unicode.
GNARLY = Dataset(
    [
        Triple("http://ex/s1", "http://ex/p", '"line\\nbreak"'),
        Triple("http://ex/s1", "http://ex/p", '"quo\\"te"@en'),
        Triple(
            "http://ex/s2", "http://ex/p",
            '"42"^^<http://www.w3.org/2001/XMLSchema#integer>',
        ),
        Triple("http://ex/s2", "http://ex/p", '"café"@fr'),
        Triple("_:b0", "http://ex/p", '"tab\\there"'),
        Triple("http://ex/s3", "http://ex/p", "_:b0"),
    ]
)


def drug_dataset(n=60):
    return Dataset(
        [
            Triple(f"http://ex/drug{i % 9}", "http://ex/treats",
                   f"http://ex/disease{i % 4}")
            for i in range(n)
        ]
        + [
            Triple(f"http://ex/disease{i % 4}", "http://ex/label", f'"d{i % 4}"')
            for i in range(20)
        ]
        + list(GNARLY)
    )


@pytest.fixture()
def data_file(tmp_path):
    path = str(tmp_path / "data.nt")
    write_ntriples_file(drug_dataset(), path)
    return path


def local_digest(path):
    """The reference digest: the file parsed and encoded locally."""
    parsed = parse_ntriples_file(path)
    return dataset_digest(
        EncodedDataset.from_terms([(t.s, t.p, t.o) for t in parsed], name="x")
    )


def fast_client(url, retries=6, threshold=20, timeout=0.15, seed=0):
    return SparqlEndpointClient(
        url,
        timeout=timeout,
        retry=RetryPolicy(
            max_retries=retries, backoff_seconds=0.001, jitter=0.5, seed=seed
        ),
        breaker=CircuitBreaker(endpoint=url, failure_threshold=threshold),
    )


# ----------------------------------------------------------------------
# term conversion: SPARQL JSON <-> stored terms, byte for byte
# ----------------------------------------------------------------------
class TestBindingConversion:
    def test_round_trip_through_mock_bindings(self):
        from repro.federation.mock import _term_to_binding

        for triple in GNARLY:
            for term in triple:
                assert binding_to_term(_term_to_binding(term)) == term

    def test_literal_parts_inverse(self):
        for term in ('"a\\"b"', '"x"@en-GB', '"7"^^<http://ex/int>', '"ü"'):
            assert make_literal(*literal_parts(term)) == term

    def test_malformed_bindings_raise(self):
        with pytest.raises(MalformedResponseError):
            binding_to_term({"value": "x"})  # no type
        with pytest.raises(MalformedResponseError):
            binding_to_term({"type": "literal"})  # no value
        with pytest.raises(MalformedResponseError):
            binding_to_term({"type": "wat", "value": "x"})
        with pytest.raises(MalformedResponseError):
            binding_to_term(
                {"type": "literal", "value": "x", "xml:lang": "en",
                 "datatype": "http://ex/t"}
            )


# ----------------------------------------------------------------------
# circuit breaker: scripted state walks
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_closed_open_halfopen_closed_walk(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            endpoint="ep", failure_threshold=3, cooldown_seconds=10.0,
            time_source=clock,
        )
        assert breaker.state == CLOSED
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED  # below threshold
        breaker.record_failure()  # trips
        assert breaker.state == OPEN and breaker.opens == 1
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.check()
        assert 0 < excinfo.value.retry_in <= 10.0
        clock.now = 10.0  # cooldown elapses -> lazy half-open
        assert breaker.state == HALF_OPEN
        breaker.record_success()  # probe succeeds
        assert breaker.state == CLOSED
        assert breaker.transitions == [
            (CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED),
        ]

    def test_halfopen_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            endpoint="ep", failure_threshold=1, cooldown_seconds=5.0,
            time_source=clock,
        )
        breaker.record_failure()
        clock.now = 5.0
        assert breaker.state == HALF_OPEN
        breaker.record_failure()  # failed probe: straight back to open
        assert breaker.state == OPEN and breaker.opens == 2
        clock.now = 9.9  # fresh cooldown, not the stale one
        with pytest.raises(CircuitOpenError):
            breaker.check()
        clock.now = 10.0
        assert breaker.state == HALF_OPEN
        assert breaker.transitions == [
            (CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, OPEN),
            (OPEN, HALF_OPEN),
        ]

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED  # never two *consecutive* failures

    def test_breaker_opens_under_scripted_consecutive_faults(self, data_file):
        """End to end: 5 scripted consecutive faults trip a threshold-5
        breaker mid-fetch; the fetch dies with CircuitOpenError."""
        faults = EndpointFaultScript.from_spec(
            "timeout,429,truncate,malformed,503"
        )
        with MockSparqlEndpoint(data_file, faults=faults, stall_seconds=0.3) as ep:
            client = fast_client(ep.url, retries=8, threshold=5)
            with pytest.raises(CircuitOpenError):
                fetch_endpoint(client, page_size=16)
            assert client.breaker.opens == 1
            assert client.breaker.transitions == [(CLOSED, OPEN)]


# ----------------------------------------------------------------------
# client: error taxonomy, retry-after, GET->POST fallback
# ----------------------------------------------------------------------
class TestClientClassification:
    def classify(self, data_file, directive, **client_kwargs):
        faults = EndpointFaultScript.from_spec(directive)
        with MockSparqlEndpoint(data_file, faults=faults, stall_seconds=0.3) as ep:
            client = fast_client(ep.url, retries=0, **client_kwargs)
            with pytest.raises(FederationError) as excinfo:
                client.select(page_query(0, 5))
        return excinfo.value

    def test_timeout_is_transient(self, data_file):
        error = self.classify(data_file, "timeout", timeout=0.05)
        assert isinstance(error, TransientEndpointError)

    def test_429_is_transient_with_retry_after(self, data_file):
        error = self.classify(data_file, "429")
        assert isinstance(error, TransientEndpointError)
        assert error.status == 429
        assert error.retry_after == pytest.approx(0.01)

    def test_503_is_transient(self, data_file):
        error = self.classify(data_file, "503")
        assert isinstance(error, TransientEndpointError)
        assert error.status == 503

    def test_truncated_body_is_malformed(self, data_file):
        error = self.classify(data_file, "truncate")
        assert isinstance(error, MalformedResponseError)

    def test_invalid_json_is_malformed(self, data_file):
        error = self.classify(data_file, "malformed")
        assert isinstance(error, MalformedResponseError)

    def test_bad_query_is_permanent_and_spares_the_breaker(self, data_file):
        with MockSparqlEndpoint(data_file) as ep:
            client = fast_client(ep.url, retries=3)
            with pytest.raises(PermanentEndpointError) as excinfo:
                client.select("SELECT ?x WHERE { ?x <http://ex/p> ?y }")
            assert excinfo.value.status == 400
            # No retries burned, breaker untouched: the endpoint is fine.
            assert client.retries == 0
            assert client.breaker.state == CLOSED

    def test_connection_refused_is_transient(self):
        client = fast_client("http://127.0.0.1:9/sparql", retries=1, timeout=0.2)
        with pytest.raises(TransientEndpointError):
            client.select(page_query(0, 5))
        assert client.retries == 1

    def test_retry_after_hint_shapes_the_delay(self, data_file):
        faults = EndpointFaultScript.from_spec("429")
        slept = []
        with MockSparqlEndpoint(data_file, faults=faults,
                                retry_after_seconds=0.5) as ep:
            client = SparqlEndpointClient(
                ep.url, timeout=1.0,
                retry=RetryPolicy(max_retries=1, backoff_seconds=0.001,
                                  max_backoff_seconds=5.0, jitter=0.0),
                sleeper=slept.append,
            )
            client.select(page_query(0, 5))
        assert slept == [pytest.approx(0.5)]


class TestGetPostFallback:
    def test_long_query_goes_as_post(self, data_file):
        with MockSparqlEndpoint(data_file) as ep:
            client = fast_client(ep.url)
            client.get_url_limit = 200
            padded = SCAN.replace("WHERE", " " * 300 + "WHERE") + " LIMIT 5"
            rows = client.select(padded)
            assert len(rows) == 5
            assert client.get_to_post_fallbacks == 1
            # Short queries still go as GETs.
            client.select(page_query(0, 5))
            assert client.get_to_post_fallbacks == 1

    def test_http_414_triggers_immediate_post_fallback(self):
        """A server capping URLs tighter than get_url_limit: the client
        re-sends as POST without burning retry budget."""
        import email.message

        calls = []
        body = json.dumps(
            {"head": {"vars": ["s", "p", "o"]}, "results": {"bindings": []}}
        ).encode()

        class Response:
            def __enter__(self):
                return self

            def __exit__(self, *args):
                return False

            def read(self):
                return body

        def opener(request, timeout=None):
            calls.append(request.get_method())
            if request.get_method() == "GET":
                raise urllib.error.HTTPError(
                    request.full_url, 414, "URI Too Long",
                    email.message.Message(), None,
                )
            return Response()

        client = SparqlEndpointClient(
            "http://ep.test/sparql", opener=opener,
            retry=RetryPolicy(max_retries=0),
        )
        assert client.select(page_query(0, 5)) == []
        assert calls == ["GET", "POST"]
        assert client.get_to_post_fallbacks == 1
        assert client.retries == 0


# ----------------------------------------------------------------------
# adaptive pagination
# ----------------------------------------------------------------------
class TestAdaptivePager:
    def test_shrink_halves_to_floor_and_grow_doubles_to_cap(self):
        pager = AdaptivePager(page_size=100, min_page_size=10)
        assert pager.shrink() and pager.page_size == 50
        assert pager.shrink() and pager.page_size == 25
        assert pager.shrink() and pager.page_size == 12
        assert pager.shrink() and pager.page_size == 10  # clamped at floor
        assert not pager.shrink()  # at the floor: nothing left to adapt
        pager.grow()
        pager.grow()
        assert pager.page_size == 40
        for _ in range(10):
            pager.grow()
        assert pager.page_size == 100  # capped at the initial size

    def test_fetch_halves_limit_on_timeouts_and_regrows(self, data_file):
        # Two stretches of persistent timeouts (each outlasting the
        # client's whole budget of 1 attempt) force two halvings; the
        # successes after them re-grow the page.
        faults = EndpointFaultScript.from_spec("ok,timeout,ok,timeout,ok")
        with MockSparqlEndpoint(data_file, faults=faults, stall_seconds=0.3) as ep:
            # The deadline can exceed the stall: a timeout directive closes
            # the connection after stalling, faulting either way.  Keeping
            # it generous stops loaded test machines failing honest pages.
            client = fast_client(ep.url, retries=0, threshold=50, timeout=0.5)
            result = fetch_endpoint(client, page_size=32, min_page_size=4)
        assert result.page_shrinks == 2
        assert result.complete
        with MockSparqlEndpoint(data_file) as ep:
            clean = fetch_endpoint(fast_client(ep.url), page_size=32)
        assert dataset_digest(result.encoded) == dataset_digest(clean.encoded)


# ----------------------------------------------------------------------
# the torture test: byte-identical output under seeded fault barrages
# ----------------------------------------------------------------------
class TestByteIdentityUnderFaults:
    def test_scripted_fault_barrage_is_byte_identical(self, data_file):
        reference = local_digest(data_file)
        faults = EndpointFaultScript.from_spec(
            "timeout,429,ok,truncate,ok,malformed,503,ok,429-plain,timeout"
        )
        with MockSparqlEndpoint(data_file, faults=faults, stall_seconds=0.3) as ep:
            client = fast_client(ep.url, retries=8, threshold=20)
            result = fetch_endpoint(client, page_size=16)
        assert result.complete
        assert dataset_digest(result.encoded) == reference
        assert client.retries > 0  # the barrage actually happened

    def test_seeded_fault_mix_is_byte_identical_and_reproducible(self, data_file):
        reference = local_digest(data_file)
        applied = []
        for _run in range(2):
            faults = EndpointFaultScript.seeded(
                seed=42, length=12, fault_rate=0.4,
                kinds=("429", "truncate", "malformed", "503"),
            )
            with MockSparqlEndpoint(data_file, faults=faults) as ep:
                client = fast_client(ep.url, retries=8, threshold=20, seed=42)
                result = fetch_endpoint(client, page_size=16)
            assert dataset_digest(result.encoded) == reference
            applied.append(tuple(faults.applied))
        assert applied[0] == applied[1]  # same seed, same barrage

    def test_discovery_over_faulty_fetch_matches_local(self, data_file, tmp_path):
        from repro.core.discovery import RDFind, RDFindConfig
        from tests.result_oracle import result_to_dict

        faults = EndpointFaultScript.from_spec("429,ok,truncate,ok,malformed")
        with MockSparqlEndpoint(data_file, faults=faults) as ep:
            fetched = fetch_endpoint(fast_client(ep.url, retries=8), page_size=16)
        local = parse_ntriples_file(data_file).encode()
        config = RDFindConfig(support_threshold=5)
        doc_fetched = result_to_dict(RDFind(config).discover(fetched.encoded))
        doc_local = result_to_dict(RDFind(config).discover(local))
        assert json.dumps(doc_fetched, sort_keys=True) == json.dumps(
            doc_local, sort_keys=True
        )


# ----------------------------------------------------------------------
# resumable workspaces
# ----------------------------------------------------------------------
class TestResumableFetch:
    def kill_midway(self, ep, ws):
        """A fetch that dies after ~2 pages (persistent timeouts)."""
        client = SparqlEndpointClient(
            ep.url, timeout=0.5,
            retry=RetryPolicy(max_retries=0),
            breaker=CircuitBreaker(endpoint=ep.url, failure_threshold=4),
        )
        with pytest.raises(FederationError):
            fetch_endpoint(client, page_size=20, min_page_size=10, workspace=ws)

    def test_resume_after_midfetch_death(self, data_file, tmp_path):
        ws = str(tmp_path / "ws")
        reference = local_digest(data_file)
        faults = EndpointFaultScript.from_spec("ok,ok,ok," + "timeout," * 6)
        with MockSparqlEndpoint(data_file, faults=faults, stall_seconds=0.25) as ep:
            self.kill_midway(ep, ws)
            result = fetch_endpoint(
                fast_client(ep.url), page_size=20, workspace=ws
            )
        assert result.resumed_rows > 0
        assert dataset_digest(result.encoded) == reference
        assert not [name for name in os.listdir(ws) if ".tmp" in name]

    def test_torn_tail_frame_is_dropped(self, data_file, tmp_path):
        ws = str(tmp_path / "ws")
        reference = local_digest(data_file)
        with MockSparqlEndpoint(data_file) as ep:
            first = fetch_endpoint(fast_client(ep.url), page_size=16, workspace=ws)
            pages_path = os.path.join(ws, PAGES_NAME)
            whole = os.path.getsize(pages_path)
            with open(pages_path, "ab") as handle:
                handle.write(b"\x00\x00\x01\x00torn")  # header + partial payload
            result = fetch_endpoint(fast_client(ep.url), page_size=16, workspace=ws)
        assert result.resumed_rows == first.rows  # the tail was dropped
        assert os.path.getsize(pages_path) == whole  # and truncated away
        assert dataset_digest(result.encoded) == reference

    def test_corrupt_frame_restarts_cleanly(self, data_file, tmp_path, capsys):
        ws = str(tmp_path / "ws")
        reference = local_digest(data_file)
        with MockSparqlEndpoint(data_file) as ep:
            fetch_endpoint(fast_client(ep.url), page_size=16, workspace=ws)
            pages_path = os.path.join(ws, PAGES_NAME)
            with open(pages_path, "r+b") as handle:
                handle.seek(12)  # inside the first frame's payload
                original = handle.read(1)
                handle.seek(12)
                handle.write(bytes([original[0] ^ 0xFF]))
            result = fetch_endpoint(fast_client(ep.url), page_size=16, workspace=ws)
        assert result.resumed_rows == 0  # warned clean restart
        assert "corrupt" in capsys.readouterr().err
        assert dataset_digest(result.encoded) == reference

    def test_workspace_of_a_different_fetch_is_refused(self, data_file, tmp_path):
        ws = str(tmp_path / "ws")
        with MockSparqlEndpoint(data_file) as ep:
            fetch_endpoint(fast_client(ep.url), page_size=16, workspace=ws)
        with MockSparqlEndpoint(data_file) as other:
            # New ephemeral port -> different endpoint identity.
            with pytest.raises(FetchMismatchError):
                fetch_endpoint(fast_client(other.url), page_size=16, workspace=ws)

    def test_no_resume_flag_refetches_from_scratch(self, data_file, tmp_path):
        ws = str(tmp_path / "ws")
        with MockSparqlEndpoint(data_file) as ep:
            fetch_endpoint(fast_client(ep.url), page_size=16, workspace=ws)
            result = fetch_endpoint(
                fast_client(ep.url), page_size=16, workspace=ws, resume=False
            )
        assert result.resumed_rows == 0 and result.rows > 0


# ----------------------------------------------------------------------
# cross-endpoint discovery and graceful degradation
# ----------------------------------------------------------------------
def write_pair(tmp_path):
    left = Dataset(
        [Triple(f"http://ex/drug{i}", "http://ex/treats",
                f"http://ex/disease{i % 4}") for i in range(40)]
    )
    right = Dataset(
        [Triple(f"http://ex/disease{i % 4}", "http://ex/label",
                f'"d{i % 4}"') for i in range(40)]
    )
    lp, rp = str(tmp_path / "l.nt"), str(tmp_path / "r.nt")
    write_ntriples_file(left, lp)
    write_ntriples_file(right, rp)
    return lp, rp


def document_via_strings(result):
    """The result document recomputed the long way round: every usable
    source decoded to strings and re-encoded by the public pairwise API
    (what ``federated_discover`` did before it ran on its id columns)."""
    usable = [source for source in result.sources if source.usable]
    pairs = [
        (
            left.name,
            right.name,
            discover_cross_cinds(
                left.encoded.decode(),
                right.encoded.decode(),
                h=result.support_threshold,
                dictionary=result.dictionary,
            ),
        )
        for left in usable
        for right in usable
        if left is not right
    ]
    return federated_result_to_dict(
        FederatedResult(
            result.sources, pairs, result.dictionary, result.support_threshold
        )
    )


class TestFederatedDiscovery:
    def test_two_healthy_sources_find_cross_cinds(self, tmp_path):
        lp, rp = write_pair(tmp_path)
        with MockSparqlEndpoint(lp) as a, MockSparqlEndpoint(rp) as b:
            result = federated_discover(
                [("drugs", a.url), ("diseases", b.url)], h=2, page_size=16
            )
        assert result.complete and result.cind_count > 0
        document = federated_result_to_dict(result)
        assert document["complete"] is True
        assert [s["status"] for s in document["sources"]] == [
            "complete", "complete",
        ]
        assert json.dumps(document) == json.dumps(document_via_strings(result))

    def test_dead_source_degrades_to_partial_document(self, tmp_path):
        lp, rp = write_pair(tmp_path)

        def factory(url):
            return fast_client(url, retries=1, timeout=0.2)

        with MockSparqlEndpoint(lp) as a, MockSparqlEndpoint(rp) as b:
            result = federated_discover(
                [("drugs", a.url), ("dead", "http://127.0.0.1:9/sparql"),
                 ("diseases", b.url)],
                h=2, page_size=16, client_factory=factory,
            )
        assert not result.complete
        document = federated_result_to_dict(result)
        statuses = {s["name"]: s["status"] for s in document["sources"]}
        assert statuses == {
            "drugs": "complete", "dead": "failed", "diseases": "complete",
        }
        assert "TransientEndpointError" in next(
            s["error"] for s in document["sources"] if s["name"] == "dead"
        )
        # Pairs among the healthy sources still ran; none touch the corpse.
        pair_names = {(p["left"], p["right"]) for p in document["pairs"]}
        assert pair_names == {("drugs", "diseases"), ("diseases", "drugs")}
        assert document["complete"] is False
        assert json.dumps(document) == json.dumps(document_via_strings(result))

    def test_each_usable_source_is_interpreted_once(self, tmp_path, monkeypatch):
        from repro.federation import cross

        interpreted = []
        capture_interpretations = cross.capture_interpretations

        def counting(triples, h, scope):
            interpreted.append(triples.name)
            return capture_interpretations(triples, h, scope)

        monkeypatch.setattr(cross, "capture_interpretations", counting)
        lp, rp = write_pair(tmp_path)
        with MockSparqlEndpoint(lp) as a, MockSparqlEndpoint(rp) as b, \
                MockSparqlEndpoint(lp) as c:
            result = federated_discover(
                [("drugs", a.url), ("diseases", b.url), ("more-drugs", c.url)],
                h=2, page_size=16,
            )
        assert len(result.pairs) == 6
        assert interpreted == ["drugs", "diseases", "more-drugs"]
        document = federated_result_to_dict(result)
        assert json.dumps(document) == json.dumps(document_via_strings(result))

    def test_circuit_opening_midjob_yields_partial_source(self, tmp_path):
        """A source that dies partway contributes its salvaged pages."""
        lp, rp = write_pair(tmp_path)
        faults = EndpointFaultScript.from_spec("ok,ok," + "timeout," * 8)

        def factory(url):
            # A generous deadline (vs the stall below) so a loaded test
            # machine cannot fail an honest page; only scripted stalls do.
            return SparqlEndpointClient(
                url, timeout=0.5,
                retry=RetryPolicy(max_retries=0),
                breaker=CircuitBreaker(endpoint=url, failure_threshold=3),
            )

        with MockSparqlEndpoint(lp, faults=faults, stall_seconds=1.0) as a, \
                MockSparqlEndpoint(rp) as b:
            result = federated_discover(
                [("flaky", a.url), ("diseases", b.url)],
                h=2, page_size=16,
                workspace_dir=str(tmp_path / "fed-ws"),
                client_factory=factory,
            )
        flaky = next(s for s in result.sources if s.name == "flaky")
        assert flaky.status == "partial"
        assert 0 < flaky.triples < 40  # some pages salvaged, not all
        assert not result.complete
        # The partial source still participates in discovery.
        assert {left for left, _right, _ in result.pairs} == {"flaky", "diseases"}

    def test_fewer_than_two_sources_is_a_config_error(self):
        with pytest.raises(ValueError):
            federated_discover(["http://127.0.0.1:9/sparql"], h=2)


# ----------------------------------------------------------------------
# mock endpoint determinism
# ----------------------------------------------------------------------
class TestMockDeterminism:
    def test_seeded_script_reproduces(self):
        one = EndpointFaultScript.seeded(seed=3, length=20, fault_rate=0.5)
        two = EndpointFaultScript.seeded(seed=3, length=20, fault_rate=0.5)
        assert one.directives == two.directives
        assert one.directives != EndpointFaultScript.seeded(
            seed=4, length=20, fault_rate=0.5
        ).directives
        assert any(d != "ok" for d in one.directives)

    def test_response_bytes_are_deterministic(self, data_file):
        with MockSparqlEndpoint(data_file) as ep:
            first = ep.answer(page_query(0, 100))
        with MockSparqlEndpoint(data_file) as ep:
            second = ep.answer(page_query(0, 100))
        assert first == second

    def test_unknown_directive_rejected(self):
        with pytest.raises(ValueError):
            EndpointFaultScript(["explode"])


# ----------------------------------------------------------------------
# front doors: CLI and job server accept endpoints
# ----------------------------------------------------------------------
class TestFrontDoors:
    def test_fetch_cli_writes_snapshot_and_discover_matches_local(
        self, data_file, tmp_path
    ):
        from repro.cli import main
        from repro.storage.snapshot import load_snapshot

        snap = str(tmp_path / "fetched.snap")
        out_ep = str(tmp_path / "ep.json")
        out_local = str(tmp_path / "local.json")
        with MockSparqlEndpoint(data_file) as ep:
            assert main([
                "fetch", ep.url, "-o", snap,
                "--workspace", str(tmp_path / "ws"), "--page-size", "16",
            ]) == 0
            assert main([
                "discover", f"endpoint:{ep.url}", "-s", "5", "-o", out_ep,
            ]) == 0
        assert main(["discover", data_file, "-s", "5", "-o", out_local]) == 0
        with open(out_ep, "rb") as a, open(out_local, "rb") as b:
            assert a.read() == b.read()
        # The snapshot holds the same bytes the local parse produces.
        assert dataset_digest(load_snapshot(snap)) == local_digest(data_file)

    def test_federate_cli_partial_exit_code(self, tmp_path):
        from repro.cli import main

        lp, rp = write_pair(tmp_path)
        document_path = str(tmp_path / "fed.json")
        with MockSparqlEndpoint(lp) as a:
            code = main([
                "federate", f"drugs={a.url}",
                "dead=http://127.0.0.1:9/sparql",
                "-s", "2", "-o", document_path,
                "--retries", "0", "--timeout", "0.2",
            ])
        assert code == 3  # partial result signalled
        with open(document_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["complete"] is False
        statuses = {s["name"]: s["status"] for s in document["sources"]}
        assert statuses == {"drugs": "complete", "dead": "failed"}

    def test_job_server_accepts_endpoint_refs(self, data_file, tmp_path):
        from repro.server.client import ServerError
        from tests.test_server import make_server

        with MockSparqlEndpoint(data_file) as ep:
            server, client = make_server(tmp_path / "jobs")
            try:
                # A non-http(s) endpoint ref is refused at admission...
                with pytest.raises(ServerError) as excinfo:
                    client.submit(
                        dataset="endpoint:ftp://nope", support_threshold=5
                    )
                assert excinfo.value.status == 400
                # ...a real one runs end to end.
                job = client.submit(
                    dataset=f"endpoint:{ep.url}", support_threshold=5
                )
                client.wait(job["id"], timeout=120)
                raw = client.raw_result(job["id"])
            finally:
                server.stop()
        out_local = str(tmp_path / "local.json")
        from repro.cli import main

        assert main(["discover", data_file, "-s", "5", "-o", out_local]) == 0
        with open(out_local, "rb") as handle:
            assert raw == handle.read()
