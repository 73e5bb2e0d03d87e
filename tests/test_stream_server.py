"""The /streams HTTP surface: live maintenance sessions over the wire."""

import json

import pytest

from repro.core.discovery import RDFind, RDFindConfig
from repro.server import DiscoveryServer, JobService, ServerError, ServiceConfig
from repro.server.client import ServerClient
from repro.server.streams import StreamManager
from repro.streaming import StreamingRDFind
from tests.conftest import random_rdf
from tests.result_oracle import result_to_dict


def make_server(job_dir):
    config = ServiceConfig(job_dir=str(job_dir), poll_interval_seconds=0.02)
    server = DiscoveryServer(JobService(config), port=0).start()
    return server, ServerClient(server.url)


def deltas_for(dataset, remove_every=0):
    deltas = [
        {"op": "add", "s": t.s, "p": t.p, "o": t.o} for t in dataset
    ]
    if remove_every:
        deltas += [
            {"op": "remove", "s": t.s, "p": t.p, "o": t.o}
            for t in list(dataset)[::remove_every]
        ]
    return deltas


class TestStreamEndpoints:
    @pytest.fixture
    def served(self, tmp_path):
        server, client = make_server(tmp_path / "jobs")
        yield server, client
        server.stop()

    def test_create_apply_results_roundtrip(self, served):
        _server, client = served
        stream = client.create_stream(support_threshold=2, compact_every=0)
        assert stream["id"] == "st-000001"
        assert stream["triples"] == 0

        dataset = random_rdf(31, n_triples=40)
        applied = client.post_deltas(stream["id"], deltas_for(dataset, 5))
        assert applied["added"] == len(dataset)
        assert applied["removed"] > 0
        assert applied["last_seq"] == applied["applied"]

        page = client.stream_results(stream["id"])
        assert page["count"] == len(page["cinds"])
        assert page["support_threshold"] == 2

        # Raw results are byte-identical to the batch pipeline.
        mirror = StreamingRDFind(h=2)
        for delta in deltas_for(dataset, 5):
            mirror.apply(delta["op"], (delta["s"], delta["p"], delta["o"]))
        batch = RDFind(RDFindConfig(support_threshold=2)).discover(
            mirror.materialize()
        )
        expected = json.dumps(
            result_to_dict(batch), ensure_ascii=False, indent=1
        ).encode("utf-8")
        assert client.raw_stream_results(stream["id"]) == expected

        listed = client.streams()
        assert [entry["id"] for entry in listed] == [stream["id"]]

    def test_restarted_server_recovers_streams(self, tmp_path):
        server, client = make_server(tmp_path / "jobs")
        try:
            stream = client.create_stream(support_threshold=2, compact_every=25)
            dataset = random_rdf(32, n_triples=40)
            total = client.post_deltas(stream["id"], deltas_for(dataset))["applied"]
            assert total > 25
            expected = client.raw_stream_results(stream["id"])
        finally:
            server.stop()

        server, client = make_server(tmp_path / "jobs")
        try:
            status = client.stream(stream["id"])
            assert status["resumed_from_checkpoint"] is True
            # cadence 25 -> one checkpoint at 25, only the tail replays
            assert status["replayed_records"] == total - 25
            assert client.raw_stream_results(stream["id"]) == expected
            # The recovered stream keeps accepting updates.
            more = client.post_deltas(
                stream["id"],
                [{"op": "add", "s": "fresh", "p": "p", "o": "o"}],
            )
            assert more["added"] == 1
        finally:
            server.stop()

    def test_compact_endpoint(self, served):
        _server, client = served
        stream = client.create_stream(support_threshold=1)
        client.post_deltas(
            stream["id"], deltas_for(random_rdf(33, n_triples=10))
        )
        status = client.compact_stream(stream["id"])
        assert status["stats"]["compactions"] == 1

    def test_validation_errors(self, served):
        _server, client = served
        with pytest.raises(ServerError) as excinfo:
            client.create_stream(support_threshold=0)
        assert excinfo.value.status == 400
        with pytest.raises(ServerError) as excinfo:
            client.create_stream(support_threshold=2, scope="bogus")
        assert excinfo.value.status == 400
        with pytest.raises(ServerError) as excinfo:
            client.stream("st-999999")
        assert excinfo.value.status == 404
        stream = client.create_stream(support_threshold=2)
        with pytest.raises(ServerError) as excinfo:
            client.post_deltas(stream["id"], [{"op": "upsert", "s": "a",
                                               "p": "b", "o": "c"}])
        assert excinfo.value.status == 400
        with pytest.raises(ServerError) as excinfo:
            client.post_deltas(stream["id"], [{"op": "add", "s": "a"}])
        assert excinfo.value.status == 400
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", f"/streams/{stream['id']}/deltas",
                            body={"rows": []})
        assert excinfo.value.status == 400


class TestStreamManager:
    def test_manager_recovery_without_http(self, tmp_path):
        manager = StreamManager(str(tmp_path / "streams"))
        created = manager.create({"support_threshold": 2, "compact_every": 0})
        manager.apply_deltas(
            created["id"],
            {"deltas": deltas_for(random_rdf(34, n_triples=12))},
        )
        manager.compact(created["id"])
        raw = manager.raw_results(created["id"])
        manager.close()

        recovered = StreamManager(str(tmp_path / "streams"))
        try:
            assert recovered.raw_results(created["id"]) == raw
            # New streams allocate past the recovered index.
            second = recovered.create({"support_threshold": 1})
            assert second["id"] == "st-000002"
        finally:
            recovered.close()

    def test_batch_size_cap(self, tmp_path):
        manager = StreamManager(str(tmp_path / "streams"))
        try:
            created = manager.create({"support_threshold": 1})
            from repro.server.service import BadRequestError
            from repro.server.streams import MAX_DELTAS_PER_BATCH

            oversized = [{"op": "add", "s": "a", "p": "b", "o": "c"}] * (
                MAX_DELTAS_PER_BATCH + 1
            )
            with pytest.raises(BadRequestError):
                manager.apply_deltas(created["id"], {"deltas": oversized})
        finally:
            manager.close()
