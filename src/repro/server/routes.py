"""The HTTP surface of the discovery job server (stdlib only).

A thin, mechanical layer: parse the request, call one
:class:`~repro.server.service.JobService` method, render JSON.  All
policy (admission, caching, scheduling) lives in the service; all
persistence in the store.

Routes::

    GET  /healthz                 liveness + job counts + admission state
    GET  /datasets                the Table 2 registry
    GET  /jobs                    all job records
    POST /jobs                    submit (JobRequest body) -> record + cache status
    GET  /jobs/<id>               record + live JobMetrics progress
    GET  /jobs/<id>/result        paginated CINDs (?offset=&limit=), or the
                                  raw result document bytes with ?raw=1
                                  (byte-identical to `rdfind discover -o`)
    POST /jobs/<id>/cancel        cancel a queued/running job

    GET  /streams                 all streaming-maintenance streams
    POST /streams                 create a stream (h/scope/compact cadence)
    GET  /streams/<id>            status + MaintenanceStats counters
    POST /streams/<id>/deltas     apply a batch of add/remove deltas
    GET  /streams/<id>/results    the stream's result document, paged and
                                  shaped as a job's result (?raw=1 too)
    POST /streams/<id>/compact    checkpoint the stream state now

Error mapping: BadRequest -> 400, UnknownJob -> 404, Conflict -> 409,
OverCapacity -> 429 (with ``Retry-After``), NotAdmitting -> 503.  Every
error body is ``{"error": "..."}``.
"""

from __future__ import annotations

import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.datasets.registry import DATASETS
from repro.server.service import (
    BadRequestError,
    ConflictError,
    JobService,
    NotAdmittingError,
    OverCapacityError,
    UnknownJobError,
)
from repro.server.store import JobRequest
from repro.server.streams import StreamManager

__all__ = ["DiscoveryServer"]

#: Submission bodies larger than this are rejected outright.
MAX_BODY_BYTES = 1 << 20


def result_page(
    result_id: str, document: Dict[str, Any], offset: int, limit: Optional[int]
) -> Dict[str, Any]:
    """One page of a result document's CINDs (plus all ARs on page 0):
    a job's and a stream's alike."""
    if offset < 0:
        raise BadRequestError(f"offset must be >= 0, got {offset}")
    if limit is not None and limit < 0:
        raise BadRequestError(f"limit must be >= 0, got {limit}")
    cinds = document.get("cinds", [])
    page = cinds[offset:] if limit is None else cinds[offset : offset + limit]
    return {
        "id": result_id,
        "format": document.get("format"),
        "version": document.get("version"),
        "variant": document.get("variant"),
        "support_threshold": document.get("support_threshold"),
        "total_cinds": len(cinds),
        "offset": offset,
        "limit": limit,
        "cinds": page,
        "association_rules": (
            document.get("association_rules", []) if offset == 0 else []
        ),
        "total_association_rules": len(document.get("association_rules", [])),
    }


class _JsonHandler(BaseHTTPRequestHandler):
    """Dispatches requests to the bound service; one instance per request."""

    server_version = "rdfind-server/1.0"
    protocol_version = "HTTP/1.1"

    # Set by DiscoveryServer when the handler class is specialized.
    service: JobService = None  # type: ignore[assignment]
    streams: StreamManager = None  # type: ignore[assignment]
    quiet: bool = True

    # -- plumbing ------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.quiet:
            super().log_message(format, *args)

    def _send_json(
        self,
        status: int,
        payload: Any,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        self._send_bytes(status, body, "application/json; charset=utf-8", headers)

    def _send_bytes(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise BadRequestError(
                f"request body too large ({length} > {MAX_BODY_BYTES} bytes)"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise BadRequestError(f"request body is not valid JSON: {error}")

    def _route(self) -> Tuple[str, Dict[str, str]]:
        parsed = urlparse(self.path)
        query = {
            key: values[-1]
            for key, values in parse_qs(parsed.query, keep_blank_values=True).items()
        }
        return parsed.path.rstrip("/") or "/", query

    # -- dispatch ------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        try:
            path, query = self._route()
            handler = self._resolve(method, path)
            if handler is None:
                raise UnknownJobError(f"no route {method} {path}")
            handler(query)
        except BadRequestError as error:
            self._send_json(400, {"error": str(error)})
        except UnknownJobError as error:
            self._send_json(404, {"error": str(error)})
        except ConflictError as error:
            self._send_json(409, {"error": str(error)})
        except OverCapacityError as error:
            self._send_json(
                429,
                {"error": str(error), "retry_after": error.retry_after_seconds},
                headers={"Retry-After": str(error.retry_after_seconds)},
            )
        except NotAdmittingError as error:
            self._send_json(503, {"error": str(error)})
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except Exception as error:  # noqa: BLE001 - never kill the server
            self._send_json(500, {"error": f"{type(error).__name__}: {error}"})

    def _resolve(self, method: str, path: str):
        if method == "GET":
            if path == "/healthz":
                return self._get_healthz
            if path == "/datasets":
                return self._get_datasets
            if path == "/jobs":
                return self._get_jobs
            if path == "/streams":
                return self._get_streams
            parts = path.strip("/").split("/")
            if len(parts) == 2 and parts[0] == "jobs":
                return lambda query: self._get_job(parts[1], query)
            if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
                return lambda query: self._send_result(
                    parts[1], query, self.service.raw_result
                )
            if len(parts) == 2 and parts[0] == "streams":
                return lambda query: self._get_stream(parts[1], query)
            if len(parts) == 3 and parts[0] == "streams" and parts[2] == "results":
                return lambda query: self._send_result(
                    parts[1], query, self.streams.raw_results
                )
        elif method == "POST":
            if path == "/jobs":
                return self._post_job
            if path == "/streams":
                return self._post_stream
            parts = path.strip("/").split("/")
            if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
                return lambda query: self._post_cancel(parts[1], query)
            if len(parts) == 3 and parts[0] == "streams" and parts[2] == "deltas":
                return lambda query: self._post_stream_deltas(parts[1], query)
            if len(parts) == 3 and parts[0] == "streams" and parts[2] == "compact":
                return lambda query: self._post_stream_compact(parts[1], query)
        return None

    # -- endpoints -----------------------------------------------------

    def _get_healthz(self, _query: Dict[str, str]) -> None:
        self._send_json(
            200,
            {
                "status": "ok",
                "admitting": self.service.admitting,
                "jobs": self.service.counts(),
            },
        )

    def _get_datasets(self, _query: Dict[str, str]) -> None:
        self._send_json(
            200,
            {
                "datasets": [
                    {
                        "name": spec.name,
                        "paper_size_mb": spec.paper_size_mb,
                        "paper_triples": spec.paper_triples,
                        "note": spec.note,
                    }
                    for spec in DATASETS.values()
                ]
            },
        )

    def _get_jobs(self, _query: Dict[str, str]) -> None:
        self._send_json(200, {"jobs": self.service.list_jobs()})

    def _post_job(self, _query: Dict[str, str]) -> None:
        body = self._read_body()
        try:
            request = JobRequest.from_json(body)
        except (TypeError, ValueError) as error:
            raise BadRequestError(str(error))
        record, cache = self.service.submit(request)
        status = 200 if cache in ("hit", "joined") else 201
        self._send_json(status, {"job": record.to_json(), "cache": cache})

    def _get_job(self, job_id: str, _query: Dict[str, str]) -> None:
        self._send_json(200, self.service.job_status(job_id))

    def _send_result(
        self, result_id: str, query: Dict[str, str], raw: Callable[[str], bytes]
    ) -> None:
        """A job's or a stream's result document: its bytes with
        ``?raw=1``, else one :func:`result_page` (``?offset=&limit=``)."""
        if query.get("raw") in ("1", "true", "yes"):
            self._send_bytes(200, raw(result_id), "application/json; charset=utf-8")
            return
        try:
            offset = int(query.get("offset", 0))
            limit = int(query["limit"]) if query.get("limit") else None
        except ValueError as error:
            raise BadRequestError(f"bad pagination parameter: {error}")
        document = json.loads(raw(result_id))
        self._send_json(200, result_page(result_id, document, offset, limit))

    def _post_cancel(self, job_id: str, _query: Dict[str, str]) -> None:
        self._read_body()  # drain (keep-alive hygiene); cancel takes no body
        record = self.service.cancel(job_id)
        self._send_json(200, {"job": record.to_json()})

    # -- streaming endpoints -------------------------------------------

    def _get_streams(self, _query: Dict[str, str]) -> None:
        self._send_json(200, {"streams": self.streams.list_streams()})

    def _post_stream(self, _query: Dict[str, str]) -> None:
        self._send_json(201, {"stream": self.streams.create(self._read_body())})

    def _get_stream(self, stream_id: str, _query: Dict[str, str]) -> None:
        self._send_json(200, {"stream": self.streams.status(stream_id)})

    def _post_stream_deltas(self, stream_id: str, _query: Dict[str, str]) -> None:
        body = self._read_body()
        if not isinstance(body, dict):
            raise BadRequestError("delta batch must be a JSON object")
        self._send_json(200, self.streams.apply_deltas(stream_id, body))

    def _post_stream_compact(self, stream_id: str, _query: Dict[str, str]) -> None:
        self._read_body()  # drain; compaction takes no body
        self._send_json(200, {"stream": self.streams.compact(stream_id)})


class DiscoveryServer:
    """Owns the HTTP server + service pair.

    ``port=0`` binds an ephemeral port (tests); the bound address is
    available as :attr:`host`/:attr:`port` after construction.  `start`
    serves from a background thread (programmatic use); `serve_forever`
    blocks (the CLI).  `stop` shuts both layers down; with
    ``graceful=False`` the service skips requeueing — the test double
    for a hard server death.
    """

    def __init__(
        self,
        service: JobService,
        host: str = "127.0.0.1",
        port: int = 0,
        quiet: bool = True,
        streams: Optional[StreamManager] = None,
    ) -> None:
        self.service = service
        self.streams = streams or StreamManager(
            os.path.join(service.config.job_dir, "streams")
        )
        handler = type(
            "BoundJsonHandler",
            (_JsonHandler,),
            {"service": service, "streams": self.streams, "quiet": quiet},
        )
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self.host, self.port = self.httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "DiscoveryServer":
        """Start the service and serve HTTP from a background thread."""
        self.service.start()
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="discovery-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking variant for the CLI: service up, then serve until
        `shutdown` (usually from a signal handler) unblocks it."""
        self.service.start()
        try:
            self.httpd.serve_forever(poll_interval=0.2)
        finally:
            self.httpd.server_close()
            self.service.stop(graceful=True)
            self.streams.close()

    def shutdown(self) -> None:
        """Unblock `serve_forever` (safe to call from a signal handler
        via a helper thread)."""
        self.httpd.shutdown()

    def stop(self, graceful: bool = True) -> None:
        """Tear down the background-thread variant."""
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.service.stop(graceful=graceful)
        self.streams.close()
