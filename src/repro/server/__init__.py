"""Discovery-as-a-service: the long-running RDFind job server.

The checkpoint subsystem (PR 5) already gives every discovery job a
durable, fingerprinted identity — this package puts a front door on it.
A :class:`~repro.server.routes.DiscoveryServer` accepts jobs over HTTP
(dataset ref + ``h``/scope/variant config), hands each one to
a checkpoint-enabled worker subprocess started ahead of it (the idle
*spare*, its imports done), and serves status — long-polled with
``?wait=`` —, live :class:`~repro.dataflow.metrics.JobMetrics` progress,
paginated results, and cancellation.  Identical configurations are deduplicated through a
result cache keyed on the same BLAKE2b ``fingerprint_fields`` scheme the
checkpoint manifests use: a finished twin is served from cache without
recompute, an in-flight twin is joined rather than duplicated.

Layering (each module only knows the one below it)::

    routes.py    HTTP surface: stdlib ThreadingHTTPServer, JSON in/out
    service.py   admission/queueing, the worker pool + spare, the result cache
    store.py     durable job records + artifacts next to checkpoint dirs
    worker.py    the per-job subprocess (a spare until it is handed a job)
    streams.py   /streams endpoints: live add/remove maintenance sessions
    client.py    stdlib urllib client used by tests, CI, and scripts

Stdlib-only by design — the server adds no dependency the reproduction
does not already have.
"""

import importlib

#: Where each public name lives.  Imported on first use, so a worker
#: (``python -m repro.server.worker``) loads no HTTP machinery.
_EXPORTS = {
    "DiscoveryServer": "repro.server.routes",
    "JobRecord": "repro.server.store",
    "JobRequest": "repro.server.store",
    "JobService": "repro.server.service",
    "JobStore": "repro.server.store",
    "ServerClient": "repro.server.client",
    "ServerError": "repro.server.client",
    "ServiceConfig": "repro.server.service",
    "StreamManager": "repro.server.streams",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_EXPORTS[name]), name)
