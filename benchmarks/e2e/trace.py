"""Spans recorded from outside the program, one per layer boundary.

The benchmark may not edit ``src/``, so a traced run replaces — where the
*caller* binds them — the public entry points the front doors call into
each layer with shims that push a span (name, start, end, parent, run id)
onto an in-memory list.  A layer's self time is its span's duration minus
its direct children's.  End-to-end numbers never come from a traced run.

Later PRs may rename or remove an entry point and may not edit this
file: a target that no longer resolves is listed under ``Tracer.absent``
and its metrics report 0 instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

Counts = Dict[str, float]


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into Tracer.spans
    run: int


class Shim(NamedTuple):
    """One patched entry point: ``module`` attribute path ``attr``."""

    name: str
    module: str
    attr: str
    on_return: Optional[Callable[[Counts, object], None]] = None


class Tracer:
    """In-memory span list for one run, plus counts read at the boundaries."""

    def __init__(self, run: int = 0) -> None:
        self.run = run
        self.spans: List[Span] = []
        self.counts: Counts = {}
        self.absent: List[str] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        start = time.perf_counter()
        self.spans.append(Span(name, start, start, parent, self.run))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index] = Span(
                name, start, time.perf_counter(), parent, self.run
            )

    def wrap(self, shim: Shim, target: Callable) -> Callable:
        @functools.wraps(target)
        def traced(*args, **kwargs):
            with self.span(shim.name):
                value = target(*args, **kwargs)
            if shim.on_return is not None:
                shim.on_return(self.counts, value)
            return value

        return traced

    @contextmanager
    def installed(self, shims: List[Shim]) -> Iterator[None]:
        """Patch every resolvable shim target; restore them on exit."""
        undo: List[Tuple[object, str, object]] = []
        try:
            for shim in shims:
                resolved = _resolve(shim.module, shim.attr)
                if resolved is None:
                    if shim.name not in self.absent:
                        self.absent.append(shim.name)
                    continue
                owner, attr, target = resolved
                setattr(owner, attr, self.wrap(shim, target))
                undo.append((owner, attr, target))
            yield
        finally:
            for owner, attr, target in reversed(undo):
                setattr(owner, attr, target)

    def times(self) -> Dict[str, Tuple[float, float]]:
        """``name -> (total seconds, self seconds)`` summed over all spans."""
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.end - span.start
        result: Dict[str, Tuple[float, float]] = {}
        for span, covered in zip(self.spans, children):
            total, own = result.get(span.name, (0.0, 0.0))
            duration = span.end - span.start
            result[span.name] = (total + duration, own + duration - covered)
        return result


def _resolve(module: str, attr: str) -> Optional[Tuple[object, str, object]]:
    """``(owner, last attribute, current value)`` or None when it is gone."""
    try:
        owner: object = importlib.import_module(module)
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, last, getattr(owner, last)
    except (ImportError, AttributeError):
        return None


# -- batch: what cli.main calls, where cli / core.discovery bind it --------


def _parsed(counts: Counts, dataset) -> None:
    counts["rdf.ntriples.triples"] = len(dataset)


def _encoded(counts: Counts, encoded) -> None:
    counts["rdf.model.terms"] = len(encoded.dictionary)


def _discovered(counts: Counts, result) -> None:
    stats, metrics = result.stats, result.metrics
    counts["core.frequent_conditions.frequent_unary"] = stats.num_frequent_unary
    counts["core.frequent_conditions.frequent_binary"] = stats.num_frequent_binary
    counts["core.frequent_conditions.association_rules"] = (
        stats.num_association_rules
    )
    counts["core.capture_groups.capture_groups"] = stats.num_capture_groups
    counts["core.extraction.broad_cinds"] = stats.num_broad_cinds
    counts["core.minimality.pertinent_cinds"] = stats.num_pertinent_cinds
    counts["core.minimality.minimal_share"] = stats.num_pertinent_cinds / max(
        1, stats.num_broad_cinds
    )
    counts["dataflow.engine.stages"] = len(metrics.stages)
    counts["dataflow.engine.shuffled_records"] = metrics.shuffled_records
    counts["dataflow.engine.stage_wall_s"] = metrics.wall_clock_seconds
    counts["dataflow.gcpause.suppressed_collections"] = (
        metrics.total_gc_suppressed_collections
    )


ROOT_SPAN = "root"

BATCH_SHIMS = [
    Shim("rdf.ntriples.parse", "repro.cli", "parse_ntriples_file", _parsed),
    Shim("rdf.model.encode", "repro.rdf.model", "Dataset.encode", _encoded),
    Shim("core.discovery.discover", "repro.core.discovery", "RDFind.discover",
         _discovered),
    Shim("core.frequent_conditions.detect", "repro.core.discovery",
         "detect_frequent_conditions"),
    Shim("core.capture_groups.create", "repro.core.discovery",
         "create_capture_groups"),
    Shim("core.extraction.extract", "repro.core.discovery", "extract_broad_cinds"),
    Shim("core.minimality.consolidate", "repro.core.discovery",
         "consolidate_pertinent"),
    Shim("core.serialization.dump", "repro.cli", "dump_result"),
]

STREAM_SHIMS = [
    Shim("streaming.changelog.append", "repro.streaming.changelog",
         "ChangeLog.append"),
    Shim("streaming.changelog.sync", "repro.streaming.changelog", "ChangeLog.sync"),
    Shim("streaming.maintainer.apply", "repro.streaming.maintainer",
         "StreamingRDFind.apply"),
    Shim("streaming.maintainer.broad_cinds", "repro.streaming.maintainer",
         "StreamingRDFind.broad_cinds"),
    Shim("streaming.maintainer.association_rules", "repro.streaming.maintainer",
         "StreamingRDFind.association_rules"),
    Shim("streaming.maintainer.batch_result", "repro.streaming.maintainer",
         "StreamingRDFind.batch_result"),
    Shim("streaming.maintainer.result_document", "repro.streaming.maintainer",
         "StreamingRDFind.result_document"),
    Shim("streaming.maintainer.document_json", "repro.streaming.maintainer",
         "StreamingRDFind.document_json"),
    Shim("core.minimality.consolidate", "repro.streaming.maintainer",
         "consolidate_pertinent"),
]


def _readers(tracer: Tracer, scale: float = 1.0):
    """``total(name)`` and ``own(name)`` seconds; 0 for a span never seen."""
    times = tracer.times()

    def total(name: str) -> float:
        return times.get(name, (0.0, 0.0))[0] * scale

    def own(name: str) -> float:
        return times.get(name, (0.0, 0.0))[1] * scale

    return total, own


def batch_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced ``cli.main`` call under a root span."""
    total, own = _readers(tracer)
    metrics = {
        "cli.main_s": total(ROOT_SPAN),
        "cli.unattributed_s": own(ROOT_SPAN),
        "rdf.ntriples.parse_s": total("rdf.ntriples.parse"),
        "rdf.model.encode_s": total("rdf.model.encode"),
        "core.discovery.discover_self_s": own("core.discovery.discover"),
        "core.frequent_conditions.detect_s": total("core.frequent_conditions.detect"),
        "core.capture_groups.create_s": total("core.capture_groups.create"),
        "core.extraction.extract_s": total("core.extraction.extract"),
        "core.minimality.consolidate_s": total("core.minimality.consolidate"),
        "core.serialization.dump_s": total("core.serialization.dump"),
    }
    metrics.update(tracer.counts)
    return metrics


def stream_metrics(tracer: Tracer, batches: int) -> Dict[str, float]:
    """Per-layer means per batch over the traced batches (root span each)."""
    total, own = _readers(tracer, scale=1.0 / max(1, batches))
    maintainer = "streaming.maintainer."
    return {
        "streaming.session.unattributed_s": own(ROOT_SPAN),
        maintainer + "document_json_s": total(maintainer + "document_json"),
        maintainer + "document_json_self_s": own(maintainer + "document_json"),
        maintainer + "result_document_self_s": own(maintainer + "result_document"),
        maintainer + "batch_result_self_s": own(maintainer + "batch_result"),
        maintainer + "broad_cinds_s": total(maintainer + "broad_cinds"),
        maintainer + "association_rules_s": total(maintainer + "association_rules"),
        maintainer + "apply_s": total(maintainer + "apply"),
        "core.minimality.consolidate_s": total("core.minimality.consolidate"),
        "streaming.changelog.append_s": total("streaming.changelog.append"),
        "streaming.changelog.sync_s": total("streaming.changelog.sync"),
    }
