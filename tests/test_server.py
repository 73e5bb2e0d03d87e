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
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import _load_input
from repro.core.discovery import RDFind, RDFindConfig
from repro.core.framing import atomic_write_json, fingerprint_fields
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
from repro.server.store import read_json
from tests.conftest import reaped_pid
from tests.result_oracle import result_to_dict

COUNTRIES = {"dataset": "Countries", "support_threshold": 5, "scale": 0.25}

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def direct_bytes(dataset: str, h: int, scale: float = 1.0) -> bytes:
    """What ``discover -o`` writes for the same job."""
    result = RDFind(RDFindConfig(support_threshold=h)).discover(
        _load_input(dataset, scale=scale)
    )
    return json.dumps(result_to_dict(result), ensure_ascii=False, indent=1).encode(
        "utf-8"
    )


def make_server(job_dir, **overrides):
    """A running server on an ephemeral port."""
    config = ServiceConfig(job_dir=str(job_dir), **overrides)
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


def worker_pids(directory):
    """PIDs of live ``repro.server.worker`` processes whose cwd is the
    job store ``directory`` (where the service starts every worker)."""
    directory = os.path.realpath(str(directory))
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                argv = handle.read().split(b"\0")
            cwd = os.readlink(f"/proc/{entry}/cwd")
        except OSError:
            continue  # gone, or not ours to look at
        if b"repro.server.worker" in argv and os.path.realpath(cwd) == directory:
            pids.append(int(entry))
    return pids


def wait_until(predicate, timeout=10.0, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.02)


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

    def test_record_without_an_executor_restarts_and_resumes(self, tmp_path, tiny_nt):
        """A job dir from before executors were pinned at admission: the
        record says ``"executor": null`` and the manifest carries a
        ``mode``.  The dead attempt checkpointed every phase; the
        restarted server's worker runs on the default backend, so the
        fingerprints agree and both phases resume."""
        from repro.server import worker

        job_dir = tmp_path / "jobs"
        store = JobStore(str(job_dir))
        request = JobRequest(dataset=tiny_nt, support_threshold=2)
        record = store.create(request)
        checkpoint_dir = store.checkpoint_dir(record.id)
        RDFind(worker._build_config(request, checkpoint_dir)).discover(
            worker._load_dataset(request)
        )
        manifest = os.path.join(checkpoint_dir, "manifest.json")
        atomic_write_json(manifest, dict(read_json(manifest), mode="phase"))
        document = dataclasses.replace(record, state="running", attempts=1).to_json()
        document["request"].update(executor=None, workers=None)
        atomic_write_json(store.record_path(record.id), document)
        server, client = make_server(job_dir)
        try:
            final = client.wait(record.id, timeout=120)
            assert final["state"] == "succeeded"
            assert final["attempts"] == 2
            assert final["result_summary"]["resumed_stages"] == 2
            assert client.raw_result(record.id) == direct_bytes(tiny_nt, 2)
        finally:
            server.stop()

    def test_graceful_stop_requeues_running_jobs(self, tmp_path):
        server, client = make_server(tmp_path / "jobs")
        job = client.submit(**COUNTRIES, hold=True)
        client.wait_state(job["id"], "running")
        server.stop(graceful=True)
        record = server.service.store.get(job["id"])
        assert record.state == "queued" and record.attempts == 1

    def test_graceful_stop_sweeps_tmp_litter(self, tmp_path, tiny_nt):
        """A dead writer's torn publish under the job dir is gone after a
        graceful stop; records, results and a ``*.tmp`` that
        ``atomic_write`` did not name stay."""
        server, client = make_server(tmp_path / "jobs")
        job = client.submit(dataset=tiny_nt, support_threshold=2)
        client.wait(job["id"], timeout=60)
        store = server.service.store
        litter = os.path.join(store.job_dir(job["id"]), f"result.json.{reaped_pid()}.tmp")
        stray = os.path.join(store.directory, "stray.tmp")
        for path in (litter, stray):
            with open(path, "w") as handle:
                handle.write("torn")
        result = client.raw_result(job["id"])
        server.stop(graceful=True)
        assert not os.path.exists(litter)
        assert os.path.exists(stray)
        assert store.get(job["id"]).state == "succeeded"
        with open(store.result_path(job["id"]), "rb") as handle:
            assert handle.read() == result

    def test_start_sweeps_the_job_store(self, tmp_path):
        """A dead server's and dead workers' temps anywhere in the store
        are gone once the next service starts; its own stay."""
        store = JobStore(str(tmp_path / "jobs"))
        checkpoint = os.path.join(store.job_dir("j000001"), "checkpoint")
        os.makedirs(checkpoint)
        os.makedirs(store.snapshot_dir())
        dead = [
            os.path.join(checkpoint, f"fc.ckpt.{reaped_pid()}.tmp"),
            os.path.join(store.snapshot_dir(), f"d.snap.{reaped_pid()}.tmp"),
        ]
        own = os.path.join(store.job_dir("j000001"), f"job.json.{os.getpid()}.tmp")
        for path in (*dead, own):
            with open(path, "w") as handle:
                handle.write("torn")
        server, _client = make_server(store.directory)
        try:
            assert not [path for path in dead if os.path.exists(path)]
            assert os.path.exists(own)
        finally:
            server.stop()

    def test_reaped_workers_temp_is_swept(self, tmp_path, tiny_nt):
        """A live worker's temp stays; once the scheduler reaps the dead
        worker, its job dir is swept before the retry starts."""
        server, client = make_server(tmp_path / "jobs")
        try:
            job = client.submit(dataset=tiny_nt, support_threshold=2, hold=True)
            wait_running_attempt(client, job["id"], 1)
            worker = server.service._procs[job["id"]]
            litter = os.path.join(
                server.service.store.job_dir(job["id"]), f"result.json.{worker.pid}.tmp"
            )
            with open(litter, "w") as handle:
                handle.write("torn")
            worker.kill()
            wait_running_attempt(client, job["id"], 2)
            assert not os.path.exists(litter)
            release(server, job["id"])
            assert client.wait(job["id"], timeout=120)["state"] == "succeeded"
        finally:
            server.stop()

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
            # The worker's stderr went to the job's log at hand-off.
            with open(server.service.store.log_path(job["id"])) as handle:
                assert f"worker: job {job['id']} failed" in handle.read()
        finally:
            server.stop()


class TestWarmWorkers:
    """A job is handed to the pre-started spare worker; the service moves
    on wake-ups; no worker outlives the service that started it."""

    def test_job_runs_on_the_spare_with_the_bytes_of_discover_o(
        self, tmp_path, tiny_nt
    ):
        from repro.cli import main

        server, client = make_server(tmp_path / "jobs")
        try:
            spare = server.service._spare
            job = client.submit(dataset=tiny_nt, support_threshold=2, hold=True)
            client.wait_state(job["id"], "running")
            with server.service._lock:  # the hand-off is done under it
                assert server.service._procs[job["id"]] is spare
                assert server.service._spare not in (None, spare)  # the next
            release(server, job["id"])
            final = client.wait(job["id"], timeout=120)
            assert final["attempts"] == 1 and server.service.started_jobs == 1
            out = tmp_path / "cli.json"
            assert main(["discover", tiny_nt, "-s", "2", "--limit", "0",
                         "-o", str(out)]) == 0
            assert client.raw_result(job["id"]) == out.read_bytes()
        finally:
            server.stop()

    def test_concurrent_jobs_each_get_a_worker(self, tmp_path, tiny_nt):
        """More jobs than the one idle spare: each hand-off takes the spare
        just started (still importing, or not), never a busy worker."""
        server, client = make_server(tmp_path / "jobs", max_concurrent_jobs=3)
        try:
            jobs = [
                client.submit(dataset=tiny_nt, support_threshold=h, hold=True)
                for h in (2, 3, 4)
            ]
            for job in jobs:
                client.wait_state(job["id"], "running")
            with server.service._lock:
                procs = {id(server.service._procs[job["id"]]) for job in jobs}
            assert len(procs) == 3
            for job in jobs:
                release(server, job["id"])
            for job, h in zip(jobs, (2, 3, 4)):
                client.wait(job["id"], timeout=120)
                assert client.raw_result(job["id"]) == direct_bytes(tiny_nt, h)
        finally:
            server.stop()
        assert worker_pids(server.service.store.directory) == []

    def test_cancel_and_crash_retry_on_spares(self, tmp_path, tiny_nt):
        server, client = make_server(tmp_path / "jobs")
        try:
            held = client.submit(dataset=tiny_nt, support_threshold=2, hold=True)
            client.wait_state(held["id"], "running")
            client.cancel(held["id"])
            assert client.wait(held["id"], expect="cancelled", timeout=30)
            crashing = client.submit(
                dataset=tiny_nt, support_threshold=3, crash_point="after:fc"
            )
            final = client.wait(crashing["id"], timeout=120)
            assert final["attempts"] == 2
            assert final["result_summary"]["resumed_stages"] >= 1
            assert server.service.started_jobs == 3  # jobs started, not processes
        finally:
            server.stop()

    def test_a_dead_spare_is_replaced_not_handed_a_job(self, tmp_path, tiny_nt):
        server, client = make_server(tmp_path / "jobs")
        try:
            dead = server.service._spare
            dead.kill()
            dead.wait(timeout=10)
            job = client.submit(dataset=tiny_nt, support_threshold=2)
            final = client.wait(job["id"], timeout=120)
            assert final["attempts"] == 1
            assert client.raw_result(job["id"]) == direct_bytes(tiny_nt, 2)
        finally:
            server.stop()

    def test_long_poll_answers_when_the_job_ends(self, tmp_path, tiny_nt):
        server, client = make_server(tmp_path / "jobs")
        try:
            job = client.submit(dataset=tiny_nt, support_threshold=2, hold=True)
            client.wait_state(job["id"], "running")
            assert client.job(job["id"])["state"] == "running"  # a plain GET
            held = client._request("GET", f"/jobs/{job['id']}?wait=0.2")
            assert held["state"] == "running"  # the wait ran out
            threading.Timer(0.3, release, (server, job["id"])).start()
            began = time.monotonic()
            done = client._request("GET", f"/jobs/{job['id']}?wait=60")
            assert done["state"] == "succeeded"
            assert time.monotonic() - began < 30  # answered by the finish
            for bad in ("-1", "nan", "soon"):
                with pytest.raises(ServerError) as excinfo:
                    client._request("GET", f"/jobs/{job['id']}?wait={bad}")
                assert excinfo.value.status == 400
        finally:
            server.stop()

    def test_long_poll_answers_on_stop(self, tmp_path, tiny_nt):
        server, client = make_server(tmp_path / "jobs")
        job = client.submit(dataset=tiny_nt, support_threshold=2, hold=True)
        client.wait_state(job["id"], "running")
        service = server.service
        answers = []
        poller = threading.Thread(
            target=lambda: answers.append(service.job_status(job["id"], wait=60))
        )
        poller.start()
        wait_until(lambda: service._changed._waiters, what="the long-poll")
        began = time.monotonic()
        server.stop()
        poller.join(timeout=30)
        assert not poller.is_alive() and time.monotonic() - began < 30
        assert answers[0]["state"] == "queued"  # requeued by the stop

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    @pytest.mark.parametrize("delay", [0.0, 0.005, 0.02, 0.1])
    def test_stop_racing_a_hand_off_reaps_every_worker(
        self, tmp_path, tiny_nt, monkeypatch, delay
    ):
        started = []
        start_worker = JobService._start_worker

        def recording(service):
            proc = start_worker(service)
            started.append(proc)
            return proc

        monkeypatch.setattr(JobService, "_start_worker", recording)
        server, client = make_server(tmp_path / "jobs")
        client.submit(dataset=tiny_nt, support_threshold=2)
        time.sleep(delay)
        server.stop()
        assert len(started) >= 1
        assert all(proc.returncode is not None for proc in started)
        assert worker_pids(server.service.store.directory) == []

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_a_killed_server_leaves_no_worker(self, tmp_path):
        job_dir = tmp_path / "jobs"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--job-dir", str(job_dir)],
            env=dict(os.environ, PYTHONPATH=SRC),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stdout.readline().split()
            ServerClient(banner[banner.index("on") + 1]).wait_ready()
            wait_until(lambda: worker_pids(job_dir), what="the spare")
        finally:
            proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()
        wait_until(lambda: not worker_pids(job_dir), timeout=5.0,
                   what="the spare to exit")


class TestRunSettings:
    def test_server_settings_reach_the_worker(self, tmp_path):
        """``serve``'s runtime flags travel to every worker on its command
        line; the faults they inject leave the result bytes alone."""
        server, client = make_server(tmp_path / "jobs", run_settings={"fault_seed": 3})
        try:
            job = client.submit(**COUNTRIES)
            final = client.wait(job["id"], timeout=300)
            assert final["progress"]["summary"]["faults_injected"] > 0
            assert client.raw_result(job["id"]) == direct_bytes(
                "dataset:Countries", 5, scale=0.25
            )
            again = client.submit(**COUNTRIES)
            assert again["id"] == job["id"] and again["cache"] == "hit"
        finally:
            server.stop()


#: A field of a ``POST /jobs`` body with a value that must be refused, not
#: coerced: a bool is no count, a string no number, a count is whole.
_BAD_FIELDS = [
    ("support_threshold", True),
    ("support_threshold", 2.9),
    ("support_threshold", "7"),
    ("parallelism", False),
    ("parallelism", 4.0),
    ("scale", "nan"),
    ("scale", float("nan")),
    ("scale", float("inf")),
    ("scale", True),
    ("scale", 0),
    ("hold", "false"),
    ("hold", 1),
    ("scope", 5),
    ("variant", ["rdfind"]),
    ("crash_point", 7),
    ("executor", "process"),
    ("executor", "threads"),
    ("workers", 2),
    ("workers", 0),
]


class TestRequestBodies:
    @pytest.mark.parametrize(
        "field, value", _BAD_FIELDS, ids=[f"{name}={value!r}" for name, value in _BAD_FIELDS]
    )
    def test_a_bad_field_is_a_400_naming_it(self, served, field, value):
        _server, client, _job = served
        before = client.jobs()
        with pytest.raises(ServerError) as excinfo:
            client.submit(**{**COUNTRIES, field: value})
        assert excinfo.value.status == 400
        assert field in excinfo.value.payload["error"]
        assert client.jobs() == before


class TestOlderStores:
    def test_a_store_from_before_the_pool_went_carries_over(self, tmp_path, tiny_nt):
        """Finished records as the release with the process pool wrote
        them: ``executor`` pinned to ``"serial"`` at admission, or null from
        before pinning, and ``workers`` null.  A new service recovers both,
        and resubmitting the first request is a cache hit on the same job
        with the same result bytes."""
        from repro.server import worker

        store = JobStore(str(tmp_path / "jobs"))
        ids = []
        for h, executor in ((2, "serial"), (3, None)):
            record = store.create(JobRequest(dataset=tiny_nt, support_threshold=h))
            assert worker.run_job(store.job_dir(record.id)) == 0
            metrics = read_json(store.metrics_path(record.id))
            metrics["summary"].update(executor="serial", workers=1)
            atomic_write_json(store.metrics_path(record.id), metrics)
            document = dict(
                record.to_json(),
                # An unset executor was keyed as "serial" then too.
                fingerprint=fingerprint_fields(
                    dataset=tiny_nt, scale=1.0, h=h, scope="full", variant="rdfind",
                    parallelism=4, executor="serial", workers=None, hold=False,
                    crash_point=None,
                ),
                state="succeeded",
                started=record.created,
                finished=record.created,
                attempts=1,
                result_summary=store.outcome(record.id)["summary"],
            )
            document["request"].update(executor=executor, workers=None)
            atomic_write_json(store.record_path(record.id), document)
            ids.append(record.id)
        server, client = make_server(tmp_path / "jobs")
        try:
            jobs = client.jobs()
            assert [job["id"] for job in jobs] == ids
            assert {job["state"] for job in jobs} == {"succeeded"}
            again = client.submit(dataset=tiny_nt, support_threshold=2)
            assert again["id"] == ids[0] and again["cache"] == "hit"
            assert client.raw_result(ids[0]) == direct_bytes(tiny_nt, 2)
            assert server.service.started_jobs == 0
        finally:
            server.stop()


class TestWorkerJob:
    def test_worker_import_loads_no_http_machinery(self):
        """An idle spare holds only what a job runs."""
        probe = (
            "import sys, repro.server.worker; "
            "print(sorted(m for m in sys.modules if m in "
            "('http.server', 'urllib.request', 'multiprocessing', "
            "'concurrent.futures', 'logging') or m.startswith('repro.apps')))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_ambient_runtime_variables_do_not_reach_a_job(
        self, tmp_path, tiny_nt, monkeypatch
    ):
        """The variables that once configured every run in the process:
        a plain job still runs once, unresumed.  (In a subprocess: a crash
        point that fires aborts its process.)"""
        store = JobStore(str(tmp_path / "jobs"))
        record = store.create(JobRequest(dataset=tiny_nt, support_threshold=2))
        monkeypatch.setenv("RDFIND_CRASH_POINT", "after:fc")
        done = subprocess.run(
            [sys.executable, "-m", "repro.server.worker", store.job_dir(record.id)],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outcome = store.outcome(record.id)
        assert outcome["state"] == "succeeded"
        assert outcome["summary"]["resumed_stages"] == 0
        assert store.raw_result(record.id) == direct_bytes(tiny_nt, 2)

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
        with pytest.raises(ValueError, match="executor"):
            JobRequest.from_json({"dataset": "Countries", "executor": "threads"})
        with pytest.raises(ValueError):
            JobRequest.from_json({"dataset": "Countries", "zork": 1})
        with pytest.raises(ValueError, match="unknown request fields: storage"):
            JobRequest.from_json({"dataset": "Countries", "storage": "encoded"})
        with pytest.raises(ValueError):
            JobRequest.from_json(["not", "an", "object"])

    def test_request_roundtrip_and_fingerprint(self):
        request = JobRequest(dataset="Countries", support_threshold=7, scale=0.5)
        assert JobRequest.from_json(request.to_json()) == request
        assert request.fingerprint() == request.fingerprint()
        assert (
            request.fingerprint()
            != JobRequest(dataset="Countries", support_threshold=8).fingerprint()
        )
        # A stored request's "serial" executor is dropped on load, so it
        # shares one cache entry with a request that names none.
        explicit = JobRequest.from_json({"dataset": "Countries", "executor": "serial"})
        assert explicit == JobRequest(dataset="Countries")

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
        metrics = JobMetrics(job_name="probe", parallelism=2)
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
