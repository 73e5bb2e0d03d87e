"""Stdlib client for the discovery job server.

Used by the test suite, the CI smoke leg, and the cache benchmark — and
small enough to crib for any script::

    from repro.server.client import ServerClient

    client = ServerClient("http://127.0.0.1:8745")
    job = client.submit(dataset="Diseasome", support_threshold=10)
    client.wait(job["id"])
    page = client.result(job["id"], limit=20)

Every method raises :class:`ServerError` (carrying the HTTP status and
decoded error body) on a non-2xx response, so callers never parse error
strings out of band.

Resilience (shared :mod:`repro.core.retry` machinery, seeded jitter so
delay sequences reproduce):

* idempotent GETs transparently retry on *transient connection* errors
  (refused/reset/unreachable — never on HTTP error statuses, which are
  real answers);
* :meth:`ServerClient.submit` retries a 429 (queue full) within the
  bounded retry budget, honoring the server's ``Retry-After`` hint —
  safe because submission is fingerprint-deduplicated server-side.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, List, Optional

from repro.core.retry import RetryPolicy
from repro.server.store import TERMINAL_STATES

__all__ = ["DEFAULT_CLIENT_RETRY", "ServerClient", "ServerError"]

#: Conservative default: 2 retries, 50 ms → 200 ms with ±50% seeded
#: jitter, hints capped at 1 s.  Enough to ride out a server restart or
#: a queue-full blip without turning a dead server into a long hang.
DEFAULT_CLIENT_RETRY = RetryPolicy(
    max_retries=2,
    backoff_seconds=0.05,
    backoff_factor=2.0,
    max_backoff_seconds=1.0,
    jitter=0.5,
    seed=0,
)


class ServerError(RuntimeError):
    """A non-2xx server response (or an unreachable server)."""

    def __init__(self, message: str, status: Optional[int] = None,
                 payload: Optional[Dict[str, Any]] = None,
                 retry_after_header: Optional[str] = None) -> None:
        super().__init__(message)
        self.status = status
        self.payload = payload or {}
        self.retry_after_header = retry_after_header

    @property
    def retry_after(self) -> Optional[int]:
        """Server's backoff hint on a 429, in seconds.

        Prefers the JSON body's ``retry_after`` field; falls back to the
        HTTP ``Retry-After`` response header, so the hint survives even
        when a proxy or a non-JSON error path produced the 429.
        """
        value = self.payload.get("retry_after")
        if value is None:
            value = self.retry_after_header
        if value is None:
            return None
        try:
            return int(float(value))
        except (TypeError, ValueError):
            return None


class ServerClient:
    """Minimal JSON-over-HTTP client; one instance per server.

    ``retry`` tunes the transient-GET/429-submit retry schedule (pass
    ``RetryPolicy(max_retries=0)`` to disable retries entirely);
    ``sleeper`` injects the backoff wait for tests.
    """

    def __init__(self, base_url: str, timeout: float = 30.0,
                 retry: Optional[RetryPolicy] = None,
                 sleeper: Callable[[float], None] = time.sleep) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry = retry if retry is not None else DEFAULT_CLIENT_RETRY
        self._sleep = sleeper
        #: Transparent retries performed, by cause (a test/debug surface).
        self.transient_retries = 0
        self.submit_retries = 0

    # -- transport -----------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        raw: bool = False,
    ) -> Any:
        """One endpoint call; transparent bounded retry for GET transients.

        Only connection-level failures (``status is None``) of idempotent
        GETs are retried here — an HTTP error status is the server's
        actual answer and is raised as-is.
        """
        retry_number = 0
        while True:
            try:
                return self._request_once(method, path, body=body, raw=raw)
            except ServerError as error:
                if (
                    method == "GET"
                    and error.status is None
                    and retry_number < self.retry.max_retries
                ):
                    retry_number += 1
                    self.transient_retries += 1
                    self._sleep(
                        self.retry.delay(retry_number, key=f"{method} {path}")
                    )
                    continue
                raise

    def _request_once(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        raw: bool = False,
    ) -> Any:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                content = response.read()
        except urllib.error.HTTPError as error:
            content = error.read()
            try:
                payload = json.loads(content.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                payload = {"error": content.decode("utf-8", "replace")}
            raise ServerError(
                f"{method} {path} -> {error.code}: "
                f"{payload.get('error', 'unknown error')}",
                status=error.code,
                payload=payload,
                retry_after_header=error.headers.get("Retry-After"),
            ) from None
        except (urllib.error.URLError, OSError) as error:
            raise ServerError(f"{method} {path} failed: {error}") from error
        if raw:
            return content
        return json.loads(content.decode("utf-8"))

    # -- endpoints -----------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def datasets(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/datasets")["datasets"]

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/jobs")["jobs"]

    def submit(self, **fields: Any) -> Dict[str, Any]:
        """Submit a job; returns the record dict with ``cache`` attached.

        Fields mirror :class:`repro.server.store.JobRequest` (``dataset``
        required; ``support_threshold``, ``scale``, ``scope``,
        ``variant``, ``parallelism``, ``executor``, ``workers``
        optional).

        A 429 (queue full) is retried within the bounded retry budget,
        waiting at least the server's ``Retry-After`` hint (capped by the
        policy's backoff ceiling) with seeded jitter.  Resubmission is
        safe: identical requests fingerprint-join the existing job
        server-side.  Once the budget is spent, the 429 propagates.
        """
        retry_number = 0
        while True:
            try:
                response = self._request("POST", "/jobs", body=fields)
                break
            except ServerError as error:
                if error.status == 429 and retry_number < self.retry.max_retries:
                    retry_number += 1
                    self.submit_retries += 1
                    self._sleep(
                        self.retry.delay_with_hint(
                            retry_number,
                            key="POST /jobs",
                            hint=error.retry_after,
                        )
                    )
                    continue
                raise
        job = response["job"]
        job["cache"] = response["cache"]
        return job

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def result(
        self, job_id: str, offset: int = 0, limit: Optional[int] = None
    ) -> Dict[str, Any]:
        query = f"?offset={offset}"
        if limit is not None:
            query += f"&limit={limit}"
        return self._request("GET", f"/jobs/{job_id}/result{query}")

    def raw_result(self, job_id: str) -> bytes:
        """The full result document bytes (diffable against ``discover -o``)."""
        return self._request("GET", f"/jobs/{job_id}/result?raw=1", raw=True)

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/jobs/{job_id}/cancel", body={})["job"]

    # -- streaming endpoints -------------------------------------------

    def streams(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/streams")["streams"]

    def create_stream(self, **fields: Any) -> Dict[str, Any]:
        """Create a streaming-maintenance stream.

        Fields: ``support_threshold`` (required), ``scope``
        (full/predicates), ``compact_every``.
        """
        return self._request("POST", "/streams", body=fields)["stream"]

    def stream(self, stream_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/streams/{stream_id}")["stream"]

    def post_deltas(
        self, stream_id: str, deltas: List[Dict[str, str]]
    ) -> Dict[str, Any]:
        """Apply ``[{"op", "s", "p", "o"}, ...]`` to a stream."""
        return self._request(
            "POST", f"/streams/{stream_id}/deltas", body={"deltas": deltas}
        )

    def stream_results(self, stream_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/streams/{stream_id}/results")

    def raw_stream_results(self, stream_id: str) -> bytes:
        """The stream's batch-identical result document bytes."""
        return self._request(
            "GET", f"/streams/{stream_id}/results?raw=1", raw=True
        )

    def compact_stream(self, stream_id: str) -> Dict[str, Any]:
        return self._request(
            "POST", f"/streams/{stream_id}/compact", body={}
        )["stream"]

    # -- polling helpers -----------------------------------------------

    def wait_ready(self, timeout: float = 30.0, poll: float = 0.1) -> Dict[str, Any]:
        """Block until /healthz answers (server boot)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.healthz()
            except ServerError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(poll)

    def wait(
        self,
        job_id: str,
        timeout: float = 300.0,
        poll: float = 0.1,
        expect: str = "succeeded",
    ) -> Dict[str, Any]:
        """Poll until the job is terminal; returns its final status.

        Raises :class:`ServerError` when the terminal state is not
        ``expect`` (pass ``expect=None`` to accept any terminal state),
        or on timeout.
        """
        deadline = time.monotonic() + timeout
        while True:
            status = self.job(job_id)
            if status["state"] in TERMINAL_STATES:
                if expect is not None and status["state"] != expect:
                    raise ServerError(
                        f"job {job_id} ended {status['state']!r} "
                        f"(expected {expect!r}): {status.get('error')}"
                    )
                return status
            if time.monotonic() >= deadline:
                raise ServerError(
                    f"timed out after {timeout}s waiting for job {job_id} "
                    f"(state {status['state']!r})"
                )
            time.sleep(poll)

    def wait_state(
        self, job_id: str, state: str, timeout: float = 60.0, poll: float = 0.05
    ) -> Dict[str, Any]:
        """Poll until the job reaches ``state`` (e.g. ``running``)."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.job(job_id)
            if status["state"] == state:
                return status
            if status["state"] in TERMINAL_STATES or time.monotonic() >= deadline:
                raise ServerError(
                    f"job {job_id} is {status['state']!r}, expected {state!r}"
                )
            time.sleep(poll)
