"""Discovery-as-a-service: the async job server and its result cache.

The acceptance criteria are the tentpole's: an HTTP job's result must be
byte-identical to a CLI run of the same config; resubmitting an
identical config must be served from the fingerprint cache without a
second compute; killing the server mid-job and restarting it must
resume the job from its checkpoint and complete it.

Everything timing-sensitive is pinned with the ``hold`` request hook (a
worker parks until a ``release`` file appears in its job dir), so no
test sleeps for "long enough" — they wait for observable states.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time

import pytest

from repro.cli import _load_input
from repro.core.discovery import RDFind, RDFindConfig
from repro.dataflow.metrics import JobMetrics, StageMetrics
from repro.server import (
    DiscoveryServer,
    JobRequest,
    JobService,
    JobStore,
    ServerClient,
    ServerError,
    ServiceConfig,
)
from repro.server.store import atomic_write_json, read_json
from tests.result_oracle import result_to_dict

COUNTRIES = {"dataset": "Countries", "support_threshold": 5, "scale": 0.25}


def make_server(job_dir, **overrides):
    """A running server on an ephemeral port, scheduler polling fast."""
    config = ServiceConfig(
        job_dir=str(job_dir), poll_interval_seconds=0.02, **overrides
    )
    server = DiscoveryServer(JobService(config), port=0).start()
    return server, ServerClient(server.url)


def release(server, job_id):
    """Unpark a held worker (the ``hold`` hook's release file)."""
    open(os.path.join(server.service.store.job_dir(job_id), "release"), "w").close()


def wait_running_attempt(client, job_id, attempt, timeout=30.0):
    """Wait until the job's Nth attempt is observably running."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = client.job(job_id)
        if status["state"] == "running" and status["attempts"] == attempt:
            return status
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never reached running attempt {attempt}")


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One shared server with a completed Countries job, torn down last."""
    server, client = make_server(tmp_path_factory.mktemp("jobs"))
    job = client.submit(**COUNTRIES)
    client.wait(job["id"], timeout=300)
    yield server, client, job["id"]
    server.stop()


@pytest.fixture
def tiny_nt(tmp_path):
    """A 12-triple N-Triples file: jobs over it finish in milliseconds."""
    path = tmp_path / "tiny.nt"
    lines = [
        f"<http://x/s{i % 4}> <http://x/p{i % 3}> <http://x/o{i % 5}> ."
        for i in range(12)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestEndpoints:
    def test_healthz_and_datasets(self, served):
        _server, client, _job = served
        health = client.healthz()
        assert health["status"] == "ok" and health["admitting"]
        assert health["jobs"]["succeeded"] >= 1
        names = {spec["name"] for spec in client.datasets()}
        assert {"Diseasome", "Countries"} <= names

    def test_job_status_has_final_metrics(self, served):
        _server, client, job_id = served
        status = client.job(job_id)
        assert status["state"] == "succeeded"
        assert status["result_summary"]["pertinent_cinds"] > 0
        # A finished job's "progress" is its final JobMetrics document.
        assert status["progress"]["summary"]["stages"] > 0
        assert status["progress"]["job_name"]

    def test_jobs_listing(self, served):
        _server, client, job_id = served
        assert job_id in {record["id"] for record in client.jobs()}

    def test_result_byte_identical_to_direct_run(self, served):
        """The acceptance criterion: HTTP result == CLI run, byte for byte."""
        _server, client, job_id = served
        dataset = _load_input("dataset:Countries", scale=0.25)
        direct = RDFind(RDFindConfig(support_threshold=5)).discover(dataset)
        expected = json.dumps(
            result_to_dict(direct), ensure_ascii=False, indent=1
        ).encode("utf-8")
        assert client.raw_result(job_id) == expected

    def test_finished_job_dir_holds_no_temp_files(self, served):
        server, _client, job_id = served
        job_dir = server.service.store.job_dir(job_id)
        names = [name for _dir, _subdirs, files in os.walk(job_dir) for name in files]
        assert "result.json" in names and "outcome.json" in names
        assert not [name for name in names if ".tmp" in name]

    def test_result_pagination(self, served):
        _server, client, job_id = served
        first = client.result(job_id, offset=0, limit=3)
        total = first["total_cinds"]
        assert total > 3 and len(first["cinds"]) == 3
        assert len(first["association_rules"]) == first["total_association_rules"]
        middle = client.result(job_id, offset=3, limit=3)
        assert middle["cinds"] != first["cinds"]
        assert middle["association_rules"] == []  # only page 0 carries ARs
        tail = client.result(job_id, offset=total - 1)
        assert len(tail["cinds"]) == 1
        # Pages stitch back into the full document, order preserved.
        everything = client.result(job_id)
        assert everything["cinds"][:3] == first["cinds"]
        assert everything["cinds"][3:6] == middle["cinds"]

    def test_cache_hit_skips_recompute(self, served):
        """Identical resubmission: same record, no second worker spawned."""
        server, client, job_id = served
        spawned = server.service.started_jobs
        again = client.submit(**COUNTRIES)
        assert again["id"] == job_id and again["cache"] == "hit"
        assert server.service.started_jobs == spawned
        # Different config -> different fingerprint -> a fresh job.
        other = client.submit(**dict(COUNTRIES, support_threshold=6))
        assert other["id"] != job_id and other["cache"] == "miss"
        client.wait(other["id"], timeout=300)

    def test_error_statuses(self, served, tmp_path):
        _server, client, _job = served
        with pytest.raises(ServerError) as excinfo:
            client.submit(dataset="NoSuchDataset")
        assert excinfo.value.status == 400
        with pytest.raises(ServerError) as excinfo:
            client.job("j999999")
        assert excinfo.value.status == 404
        with pytest.raises(ServerError) as excinfo:
            client.submit(dataset="Countries", support_threshold=0)
        assert excinfo.value.status == 400
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", "/no/such/route")
        assert excinfo.value.status == 404


class TestAdmission:
    def test_join_capacity_and_cancel(self, tmp_path):
        server, client = make_server(
            tmp_path / "jobs", max_concurrent_jobs=1, max_queued_jobs=1
        )
        try:
            held = client.submit(**COUNTRIES, hold=True)
            client.wait_state(held["id"], "running")
            queued = client.submit(**dict(COUNTRIES, support_threshold=6, hold=True))
            assert client.job(queued["id"])["state"] == "queued"
            # Queue full: a third distinct config is turned away with 429.
            with pytest.raises(ServerError) as excinfo:
                client.submit(**dict(COUNTRIES, support_threshold=7))
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == 5
            # ... but an identical in-flight config joins, not queues.
            twin = client.submit(**COUNTRIES, hold=True)
            assert twin["id"] == held["id"] and twin["cache"] == "joined"
            # Cancel mid-run: terminal "cancelled", never cached.
            client.cancel(held["id"])
            assert (
                client.wait(held["id"], expect="cancelled", timeout=30)["state"]
                == "cancelled"
            )
            resubmit = client.submit(**COUNTRIES, hold=True)
            assert resubmit["id"] != held["id"] and resubmit["cache"] == "miss"
            # Cancel the rest (some may have started once the held slot
            # freed — a running cancel lands when the scheduler reaps the
            # terminated worker); a second cancel is idempotent.
            for job_id in (queued["id"], resubmit["id"]):
                client.cancel(job_id)
                client.wait(job_id, expect="cancelled", timeout=30)
                assert client.cancel(job_id)["state"] == "cancelled"
        finally:
            server.stop()

    def test_concurrent_identical_submissions_share_one_job(self, tmp_path, tiny_nt):
        """A thundering herd of one config: one job id, one worker spawned."""
        from concurrent.futures import ThreadPoolExecutor

        server, client = make_server(tmp_path / "jobs")
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                herd = list(
                    pool.map(
                        lambda _i: client.submit(dataset=tiny_nt, support_threshold=2),
                        range(8),
                    )
                )
            assert len({job["id"] for job in herd}) == 1
            assert [job["cache"] for job in herd].count("miss") == 1
            client.wait(herd[0]["id"], timeout=120)
            assert server.service.started_jobs == 1
        finally:
            server.stop()

    def test_not_admitting_is_503(self, tmp_path):
        server, client = make_server(tmp_path / "jobs")
        try:
            server.service.stop_admitting()
            assert client.healthz()["admitting"] is False
            with pytest.raises(ServerError) as excinfo:
                client.submit(**COUNTRIES)
            assert excinfo.value.status == 503
        finally:
            server.stop()


class TestRecovery:
    def test_worker_crash_resumes_from_checkpoint(self, tmp_path, tiny_nt):
        """A worker dying mid-job is retried and *resumes*, not recomputes."""
        server, client = make_server(tmp_path / "jobs")
        try:
            job = client.submit(
                dataset=tiny_nt, support_threshold=2, crash_point="after:fc"
            )
            final = client.wait(job["id"], timeout=120)
            assert final["state"] == "succeeded"
            assert final["attempts"] == 2  # first worker crashed, second resumed
            assert final["result_summary"]["resumed_stages"] >= 1
        finally:
            server.stop()

    @pytest.mark.parametrize("legacy_storage_key", [False, True])
    def test_server_restart_resumes_inflight_job(
        self, tmp_path, tiny_nt, legacy_storage_key
    ):
        """The acceptance criterion: kill the server mid-job, restart,
        and the orphaned job is requeued and completes — also when the
        persisted request still carries the retired ``storage`` field."""
        job_dir = tmp_path / "jobs"
        server, client = make_server(job_dir)
        job = client.submit(dataset=tiny_nt, support_threshold=2, hold=True)
        client.wait_state(job["id"], "running")
        server.stop(graceful=False)  # the server dies; the record says running
        store = JobStore(str(job_dir))
        if legacy_storage_key:
            path = os.path.join(store.job_dir(job["id"]), "job.json")
            document = read_json(path)
            document["request"]["storage"] = "strings"
            atomic_write_json(path, document)
        assert store.get(job["id"]).state == "running"
        release(server, job["id"])
        server2, client2 = make_server(job_dir)
        try:
            final = client2.wait(job["id"], timeout=120)
            assert final["state"] == "succeeded"
            assert final["result_summary"]["pertinent_cinds"] >= 0
        finally:
            server2.stop()

    def test_job_requeued_across_the_capture_code_upgrade_completes(
        self, tmp_path, tiny_nt
    ):
        """The old release's worker got past ``cg`` (version-1 step files,
        ``Capture``-valued groups), the server was upgraded and restarted:
        the requeued job recomputes instead of resuming and succeeds."""
        from repro.server import worker
        from tests.test_checkpoint import rewrite_as_version_1

        job_dir = tmp_path / "jobs"
        server, client = make_server(job_dir)
        job = client.submit(dataset=tiny_nt, support_threshold=2, hold=True)
        client.wait_state(job["id"], "running")
        server.stop(graceful=False)
        store = JobStore(str(job_dir))
        request = store.get(job["id"]).request
        config = worker._build_config(request, store.checkpoint_dir(job["id"]))
        direct = RDFind(config).discover(worker._load_dataset(request))
        rewrite_as_version_1(store.checkpoint_dir(job["id"]))
        release(server, job["id"])
        server2, client2 = make_server(job_dir)
        try:
            final = client2.wait(job["id"], timeout=120)
            assert final["state"] == "succeeded"
            assert final["result_summary"]["resumed_stages"] == 0
            assert final["result_summary"]["pertinent_cinds"] == len(direct.cinds)
            assert client2.raw_result(job["id"]) == json.dumps(
                result_to_dict(direct), ensure_ascii=False, indent=1
            ).encode("utf-8")
        finally:
            server2.stop()

    def test_graceful_stop_requeues_running_jobs(self, tmp_path):
        server, client = make_server(tmp_path / "jobs")
        job = client.submit(**COUNTRIES, hold=True)
        client.wait_state(job["id"], "running")
        server.stop(graceful=True)
        record = server.service.store.get(job["id"])
        assert record.state == "queued" and record.attempts == 1

    def test_exhausted_retries_fail(self, tmp_path, tiny_nt):
        """A worker that dies on every attempt lands the job in "failed".

        Injected crash points deliberately fire once per boundary (the
        manifest persists the count so resumed runs pass), so a
        *persistent* crash is simulated the blunt way: SIGKILL each
        attempt's held worker before it reaches any checkpoint.
        """
        server, client = make_server(tmp_path / "jobs", max_attempts=2)
        try:
            job = client.submit(dataset=tiny_nt, support_threshold=2, hold=True)
            for attempt in (1, 2):
                wait_running_attempt(client, job["id"], attempt)
                server.service._procs[job["id"]].kill()
            final = client.wait(job["id"], expect="failed", timeout=60)
            assert final["attempts"] == 2
            assert "worker died" in final["error"]
            # Failed runs have no result and are never served from cache.
            with pytest.raises(ServerError) as excinfo:
                client.result(job["id"])
            assert excinfo.value.status == 409
            fresh = client.submit(dataset=tiny_nt, support_threshold=2, hold=True)
            assert fresh["id"] != job["id"] and fresh["cache"] == "miss"
        finally:
            server.stop()

    def test_worker_reported_failure_adopts_outcome(self, tmp_path, tiny_nt):
        """A worker *exception* (vs death) is a verdict, not a retry."""
        server, client = make_server(tmp_path / "jobs")
        try:
            job = client.submit(dataset=tiny_nt, support_threshold=2, hold=True)
            client.wait_state(job["id"], "running")
            os.unlink(tiny_nt)  # the load inside the worker will now fail
            release(server, job["id"])
            final = client.wait(job["id"], expect="failed", timeout=60)
            assert final["attempts"] == 1  # failed cleanly, not requeued
            assert final["error"]
        finally:
            server.stop()


class TestWorkerJob:
    def test_job_writes_the_result_without_building_cind_rows(
        self, tmp_path, tiny_nt, monkeypatch
    ):
        """The worker writes minimality's blocks and counts from the stats."""
        from repro.core.discovery import DiscoveryResult
        from repro.server import worker

        store = JobStore(str(tmp_path / "jobs"))
        record = store.create(JobRequest(dataset=tiny_nt, support_threshold=2))
        direct = RDFind(RDFindConfig(support_threshold=2)).discover(
            _load_input(tiny_nt)
        )
        expected = json.dumps(result_to_dict(direct), ensure_ascii=False, indent=1)

        def unbuilt(_result):
            raise AssertionError("result.cinds was built")

        monkeypatch.setattr(DiscoveryResult, "cinds", property(unbuilt))
        assert worker.run_job(store.job_dir(record.id)) == 0
        outcome = store.outcome(record.id)
        assert outcome["state"] == "succeeded", outcome
        assert outcome["summary"]["pertinent_cinds"] == direct.stats.num_pertinent_cinds
        assert store.raw_result(record.id) == expected.encode("utf-8")


class TestStore:
    def test_request_validation(self):
        with pytest.raises(ValueError):
            JobRequest(dataset="")
        with pytest.raises(ValueError):
            JobRequest(dataset="Countries", scope="bogus")
        with pytest.raises(ValueError):
            JobRequest(dataset="Countries", variant="bogus")
        with pytest.raises(ValueError):
            JobRequest(dataset="Countries", executor="threads")
        with pytest.raises(ValueError):
            JobRequest.from_json({"dataset": "Countries", "zork": 1})
        with pytest.raises(ValueError, match="unknown request fields: storage"):
            JobRequest.from_json({"dataset": "Countries", "storage": "encoded"})
        with pytest.raises(ValueError):
            JobRequest.from_json(["not", "an", "object"])

    def test_request_roundtrip_and_fingerprint(self, monkeypatch):
        request = JobRequest(dataset="Countries", support_threshold=7, scale=0.5)
        assert JobRequest.from_json(request.to_json()) == request
        assert request.fingerprint() == request.fingerprint()
        assert (
            request.fingerprint()
            != JobRequest(dataset="Countries", support_threshold=8).fingerprint()
        )
        # The executor default chain is part of the key: an explicit
        # "serial" and an unset executor (defaulting to serial)
        # fingerprint the same, so they share one cache entry.  Clear the
        # ambient override so "unset" really defaults to serial when the
        # suite runs under RDFIND_EXECUTOR=process.
        monkeypatch.delenv("RDFIND_EXECUTOR", raising=False)
        explicit = JobRequest(dataset="Countries", executor="serial")
        implicit = JobRequest(dataset="Countries")
        assert explicit.fingerprint() == implicit.fingerprint()

    def test_find_by_fingerprint_preferences(self, tmp_path):
        store = JobStore(str(tmp_path / "jobs"))
        request = JobRequest(dataset="Countries")
        fingerprint = request.fingerprint()
        first = store.create(request)
        # A failed run is not a cache entry.
        store.save(dataclasses.replace(first, state="failed"))
        assert store.find_by_fingerprint(fingerprint) is None
        # A succeeded twin is; an active twin beats it.
        second = store.create(request)
        store.save(dataclasses.replace(second, state="succeeded"))
        assert store.find_by_fingerprint(fingerprint).id == second.id
        third = store.create(request)
        assert store.find_by_fingerprint(fingerprint).id == third.id
        assert store.counts()["queued"] == 1

    def test_requeue_preserves_attempts(self, tmp_path):
        store = JobStore(str(tmp_path / "jobs"))
        record = store.create(JobRequest(dataset="Countries"))
        running = dataclasses.replace(
            record, state="running", started=1.0, attempts=2, error="x"
        )
        requeued = store.requeue(running)
        assert requeued.state == "queued"
        assert requeued.attempts == 2  # attempts survive; they bound retries
        assert requeued.started is None and requeued.error is None

    def test_atomic_write_and_read_json(self, tmp_path):
        path = str(tmp_path / "doc.json")
        atomic_write_json(path, {"a": 1})
        assert read_json(path) == {"a": 1}
        assert os.listdir(tmp_path) == ["doc.json"]
        assert read_json(str(tmp_path / "missing.json")) is None


class TestMetricsSatellite:
    def test_to_dict_is_json_safe_and_summary_matches(self):
        metrics = JobMetrics(job_name="probe", parallelism=2, executor="serial")
        stage = StageMetrics(name="fc")
        stage.partition_seconds.extend([0.25, 0.75])
        stage.records_in.extend([10, 20])
        stage.records_out.extend([5, 5])
        metrics.stages.append(stage)
        document = json.loads(json.dumps(metrics.to_dict()))
        assert document["job_name"] == "probe"
        assert document["summary"] == metrics.summary()
        (stage_doc,) = document["stages"]
        assert stage_doc["name"] == "fc"
        assert stage_doc["parallel_seconds"] == 0.75
        assert stage_doc["cpu_seconds"] == 1.0
        assert stage_doc["total_in"] == 30 and stage_doc["total_out"] == 10
