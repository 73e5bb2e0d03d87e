"""The four workloads: set-up, timed operations, byte checks, layer numbers.

Each function takes a :class:`Run` and returns its metrics by name: the
end-to-end ones and, on a traced run, the per-layer ones as well.
End-to-end numbers use only what a user reaches for — the
console entry ``repro.cli:main`` in a subprocess, ``ServerClient`` and
``StreamSession`` — with default flags; the load generator is this one
process, one client, closed loop (the next operation starts when the
previous one has completed).  A traced run (``run.trace``) makes one
operation's worth of the same calls and adds the per-layer numbers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from benchmarks.e2e import trace
from benchmarks.e2e.reference import Normalizer, Reference

Metrics = Dict[str, float]

#: Exactly what ``pyproject.toml`` installs as ``rdfind`` (not ``-m
#: repro.cli``, which breaks the day ``cli.py`` becomes a package).
CLI = [sys.executable, "-c", "from repro.cli import main; raise SystemExit(main())"]

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: No operation takes a tenth of this; a run must end within 180 s.
OP_TIMEOUT_S = 100.0
#: Set up five times and report the mean, unless set-up is so long
#: (stream: ~9 s) that once is all the driver's time cap affords.
SETUPS = 5
SETUP_BUDGET_S = 5.0
BATCH_UPDATES = 16


class Input(NamedTuple):
    dataset: str
    scale: float
    h: int


class Size(NamedTuple):
    """Full-size inputs and minimum sample counts, or the self-test's."""

    name: str
    inputs: Dict[str, Input]
    discover_reps: int
    stream_batches: int  # minimum; the golden digest is taken after this one
    serve_cycles: int
    serve_hits: int
    reopens: int


FULL = Size(
    "full",
    {
        "discover_diseasome": Input("Diseasome", 1.0, 10),
        "discover_countries": Input("Countries", 1.0, 3),
        "stream_diseasome": Input("Diseasome", 1.0, 10),
        "serve_diseasome": Input("Diseasome", 1.0, 10),
    },
    discover_reps=3, stream_batches=8, serve_cycles=2, serve_hits=25, reopens=3,
)
SMOKE = Size(
    "smoke",
    {
        "discover_diseasome": Input("Countries", 0.2, 10),
        "discover_countries": Input("Countries", 0.2, 3),
        "stream_diseasome": Input("Countries", 0.2, 10),
        "serve_diseasome": Input("Countries", 0.2, 10),
    },
    discover_reps=1, stream_batches=3, serve_cycles=1, serve_hits=3, reopens=1,
)


@dataclass
class Run:
    """One invocation: its arguments, scratch space and operation tally."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    size: Size
    tmp: Path
    env: Dict[str, str]
    reference: Reference
    #: Golden digest the result bytes must match, if there is one for this
    #: size and seed; every result must also equal the run's first one.
    expected: Optional[str] = None
    first_digest: Optional[str] = None
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def input(self) -> Input:
        return self.size.inputs[self.workload]

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def matches(self, digest: Optional[str]) -> bool:
        if digest is None:
            return False
        if self.first_digest is None:
            self.first_digest = digest
        return digest == (self.expected or self.first_digest)

    def keep_going(self, done: int, minimum: int, started: float) -> bool:
        if done < minimum:
            return True
        # A traced run measures layers, not throughput: the minimum is enough.
        return not self.trace and time.perf_counter() - started < self.seconds


def golden(size: Size, workload: str) -> Optional[str]:
    try:
        return json.loads(GOLDEN_PATH.read_text())[size.name].get(workload)
    except (OSError, KeyError, ValueError):
        return None


def digest_of(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def percentile(values: List[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def repeat_setup(
    run: Run, make: Callable[[], object], discard: Callable[[object], None]
) -> Tuple[object, float]:
    """Set up until SETUPS are made or the budget is spent; mean seconds."""
    timed = Normalizer(run.reference)
    while True:
        started = time.perf_counter()
        made = make()
        timed.add(time.perf_counter() - started)
        enough = len(timed.work) >= SETUPS or sum(timed.work) >= SETUP_BUDGET_S
        if enough or run.size is SMOKE or run.trace:
            timed.finish()
            return made, timed.normalized_s
        discard(made)


def timing_metrics(setup_s: float, ops: Normalizer, peak_rss_mb: float) -> Metrics:
    ops.finish()
    print(f"(raw seconds: operation {ops.raw_s:.6g} s mean of {len(ops.work)}, "
          f"reference loop {ops.loop_s:.6g} s mean of {len(ops.loops)})")
    return {
        "setup_s": setup_s,
        "op_norm_s": ops.normalized_s,
        "peak_rss_mb": peak_rss_mb,
        "host.op_wall_s": ops.raw_s,
        "host.reference_loop_s": ops.loop_s,
    }


def spawn(run: Run, argv: List[str], **popen) -> subprocess.Popen:
    return subprocess.Popen(
        argv, env=run.env, cwd=run.tmp, stdin=subprocess.DEVNULL, **popen
    )


def reap(proc: subprocess.Popen, timeout: float) -> Tuple[int, float]:
    """Wait for a child via ``wait4``; ``(exit code, peak RSS in MiB)``.

    The peak covers the child and every descendant it waited for.  A
    child that outlives ``timeout`` is killed and reports its signal.
    """
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_cli(run: Run, *args: object) -> Tuple[int, float, float]:
    """One ``rdfind`` subprocess: ``(exit code, peak RSS MiB, wall s)``."""
    started = time.perf_counter()
    proc = spawn(run, CLI + [str(arg) for arg in args], stdout=subprocess.DEVNULL)
    code, peak = reap(proc, OP_TIMEOUT_S)
    return code, peak, time.perf_counter() - started


def generate(run: Run, target: Path) -> Path:
    code, _peak, _wall = run_cli(
        run, "generate", run.input.dataset, "--scale", run.input.scale, "-o", target
    )
    if code != 0:
        raise RuntimeError(f"generate {run.input.dataset} exited {code}")
    return target


def discover_argv(run: Run, source: Path, out: Path) -> List[str]:
    return ["discover", str(source), "-s", str(run.input.h), "--limit", "0",
            "-o", str(out)]


def discover_once(run: Run, source: Path, label: str) -> Tuple[float, float]:
    """A byte-checked ``discover`` subprocess: ``(wall s, peak RSS MiB)``."""
    out = run.tmp / "out.json"
    code, peak, wall = run_cli(run, *discover_argv(run, source, out))
    digest = digest_of(out.read_bytes()) if code == 0 and out.exists() else None
    run.op(run.matches(digest), f"{label}: exit {code}, result digest {digest}")
    out.unlink(missing_ok=True)
    return wall, peak


# -- discover_diseasome / discover_countries ---------------------------------


def discover(run: Run) -> Metrics:
    source, setup_s = repeat_setup(
        run, lambda: generate(run, run.tmp / "input.nt"), lambda made: None
    )
    ops = Normalizer(run.reference)
    peaks: List[float] = []
    started = time.perf_counter()
    reps = 1 if run.trace else run.size.discover_reps
    while run.keep_going(len(peaks), reps, started):
        wall, peak = discover_once(run, source, f"discover #{len(peaks)}")
        ops.add(wall)
        peaks.append(peak)
    metrics = timing_metrics(setup_s, ops, statistics.median(peaks))
    if run.trace:
        metrics.update(traced_discover(run, source))
    return metrics


def traced_discover(run: Run, source: Path) -> Metrics:
    """In-process ``cli.main``: untraced, behind the shims, untraced again."""
    imports = []
    for _ in range(3):
        started = time.perf_counter()
        code, _peak = reap(
            spawn(run, [sys.executable, "-c", "import repro.cli"]), OP_TIMEOUT_S
        )
        imports.append(time.perf_counter() - started)
        run.op(code == 0, f"import repro.cli exited {code}")

    from repro.cli import main

    out = run.tmp / "traced.json"
    argv = discover_argv(run, source, out)

    def call(label: str, root) -> float:
        out.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            started = time.perf_counter()
            with root:
                code = main(argv)
            wall = time.perf_counter() - started
        digest = digest_of(out.read_bytes()) if out.exists() else None
        run.op(code == 0 and run.matches(digest),
               f"{label} cli.main: exit {code}, result digest {digest}")
        return wall

    # Untraced before and after: a process's first call runs a few percent
    # slower than its later ones, which a single pair would book as overhead.
    before = call("untraced", contextlib.nullcontext())
    tracer = trace.Tracer()
    with tracer.installed(trace.BATCH_SHIMS):
        call("traced", tracer.span(trace.ROOT_SPAN))
    after = call("untraced", contextlib.nullcontext())
    layers = trace.batch_metrics(tracer)
    layers["cli.import_s"] = statistics.median(imports)
    layers["core.serialization.result_bytes"] = out.stat().st_size
    layers["trace.overhead_share"] = layers["cli.main_s"] / ((before + after) / 2) - 1.0
    report_absent(tracer.absent)
    return layers


def report_absent(absent: List[str]) -> None:
    """Name the layers whose entry point is gone (their metrics read 0)."""
    print("absent_layers: " + json.dumps(sorted(absent)))


# -- stream_diseasome --------------------------------------------------------


class Stream(NamedTuple):
    session: object
    directory: Path
    live: List[Tuple[str, str, str]]
    pool: List[Tuple[str, str, str]]
    save_s: float


def open_stream(run: Run) -> Stream:
    """Load the first 90% of the dataset, compact, fill the query caches."""
    from repro.datasets import registry
    from repro.streaming import StreamSession

    triples = [
        (t.s, t.p, t.o) for t in registry.load(run.input.dataset, scale=run.input.scale)
    ]
    split = int(len(triples) * 0.9)
    directory = Path(tempfile.mkdtemp(dir=run.tmp, prefix="stream-"))
    session = StreamSession(str(directory), h=run.input.h, fsync=True)
    session.load_initial(triples[:split])
    started = time.perf_counter()
    session.compact()
    save_s = time.perf_counter() - started
    session.document_json()  # first query recomputes every dependent: not steady state
    return Stream(session, directory, triples[:split], triples[split:], save_s)


def close_stream(stream: Stream) -> None:
    stream.session.close()
    shutil.rmtree(stream.directory)


def update_script(seed: int, stream: Stream) -> Iterator[List[Tuple[str, str, str, str]]]:
    """Endless seeded batches: remove a live triple or add a held-out one."""
    rng = random.Random(seed)
    live, pool = stream.live, stream.pool
    while True:
        batch = []
        for _ in range(BATCH_UPDATES):
            if live and (not pool or rng.random() < 0.5):
                batch.append(("remove", *live.pop(rng.randrange(len(live)))))
            else:
                fresh = pool.pop(rng.randrange(len(pool)))
                live.append(fresh)
                batch.append(("add", *fresh))
        yield batch


def batch_oracle(run: Run, session) -> bytes:
    """``discover -o`` bytes for the session's live triples, computed in-process."""
    from repro.core.discovery import RDFind, RDFindConfig
    from repro.core.serialization import dump_result

    result = RDFind(RDFindConfig(support_threshold=run.input.h)).discover(
        session.maintainer.materialize()
    )
    path = run.tmp / "oracle.json"
    dump_result(result, path)
    return path.read_bytes()


def stream(run: Run) -> Metrics:
    from repro.streaming import StreamSession

    made, setup_s = repeat_setup(run, lambda: open_stream(run), close_stream)
    session = made.session
    script = update_script(run.seed, made)
    tracer = trace.Tracer()
    before = session.status()

    ops = Normalizer(run.reference)
    traced_walls: List[float] = []
    ignored = 0
    document = ""
    started = time.perf_counter()
    # A traced run shims every other batch, so traced and untraced batches
    # share one session and the difference of their medians is the overhead.
    # It runs the whole --seconds too: batches differ, four are no sample.
    while len(ops.work) < run.size.stream_batches or (
        time.perf_counter() - started < run.seconds
    ):
        batch = next(script)
        index = len(ops.work)
        shims = trace.STREAM_SHIMS if run.trace and index % 2 else []
        with tracer.installed(shims):
            began = time.perf_counter()
            with tracer.span(trace.ROOT_SPAN) if shims else contextlib.nullcontext():
                counts = session.apply_batch(batch)
                document = session.document_json()
            wall = time.perf_counter() - began
        if shims:
            traced_walls.append(wall)
        ops.add(wall)
        ignored += counts["ignored"]
        ok = counts["applied"] == len(batch)
        if index + 1 == run.size.stream_batches:  # where the golden digest is taken
            ok = ok and run.matches(digest_of(document.encode("utf-8")))
        run.op(ok, f"batch #{index}: applied {counts}, or its document is not golden")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after = session.status()

    final = document.encode("utf-8")
    run.op(final == batch_oracle(run, session),
           "final stream document differs from batch discover on the live triples")

    walls = list(ops.work)
    layers = timing_metrics(setup_s, ops, peak)
    if not run.trace:
        close_stream(made)
        return layers

    layers.update(trace.stream_metrics(tracer, len(traced_walls)))
    layers["trace.overhead_share"] = (
        statistics.median(traced_walls) / statistics.median(walls[0::2]) - 1.0
    )
    layers["streaming.session.refresh_ms_p90"] = 1000.0 * percentile(walls, 0.9)
    stats_before, stats_after = before["stats"], after["stats"]
    layers["streaming.maintainer.dependents_recomputed"] = (
        stats_after["dependents_recomputed"] - stats_before["dependents_recomputed"]
    ) / len(walls)
    layers["streaming.maintainer.updates_ignored"] = ignored
    layers["streaming.maintainer.document_bytes"] = len(final)
    layers["streaming.changelog.records"] = after["changelog_seq"] - before["changelog_seq"]
    layers["streaming.changelog.bytes"] = (
        after["changelog_bytes"] - before["changelog_bytes"]
    )
    layers["streaming.compaction.save_s"] = made.save_s
    layers["streaming.compaction.checkpoint_bytes"] = tree_bytes(
        made.directory / "checkpoints"
    )
    reopens = []
    for _ in range(run.size.reopens):
        session.close()
        began = time.perf_counter()
        session = StreamSession(str(made.directory), h=run.input.h, fsync=True)
        reopens.append(time.perf_counter() - began)
        run.op(session.document_json().encode("utf-8") == final,
               "reopened session serves a different document")
    layers["streaming.session.reopen_s"] = statistics.median(reopens)
    layers["streaming.session.replayed_records"] = session.replayed_records
    close_stream(made._replace(session=session))
    report_absent(tracer.absent)
    return layers


# -- serve_diseasome ---------------------------------------------------------


class Server(NamedTuple):
    proc: subprocess.Popen
    client: object
    job_dir: Path
    source: Path
    boot_s: float


def boot_server(run: Run) -> Server:
    """Generate the input and start ``rdfind serve`` on an ephemeral port."""
    from repro.server.client import ServerClient

    source = generate(run, run.tmp / "input.nt")
    job_dir = Path(tempfile.mkdtemp(dir=run.tmp, prefix="jobs-"))
    started = time.perf_counter()
    proc = spawn(
        run, CLI + ["serve", "--port", "0", "--job-dir", str(job_dir)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        banner = proc.stdout.readline()  # "rdfind server listening on <url> (..."
        words = banner.split()
        if "on" not in words:
            raise RuntimeError(f"serve did not start: {banner!r}")
        client = ServerClient(words[words.index("on") + 1])
        client.wait_ready()
    except Exception:
        stop_server(Server(proc, None, job_dir, source, 0.0))
        raise
    return Server(proc, client, job_dir, source, time.perf_counter() - started)


def stop_server(server: Server) -> float:
    """SIGTERM and reap: peak RSS in MiB of the server and its workers."""
    server.proc.send_signal(signal.SIGTERM)
    _code, peak = reap(server.proc, 30.0)
    server.proc.stdout.close()
    shutil.rmtree(server.job_dir)
    return peak


def serve(run: Run) -> Metrics:
    from repro.server.client import ServerError

    server, setup_s = repeat_setup(run, lambda: boot_server(run), stop_server)
    client = server.client
    ops = Normalizer(run.reference)
    hits: List[float] = []
    jobs: List[Dict[str, float]] = []
    try:
        started = time.perf_counter()
        while run.keep_going(len(ops.work), run.size.serve_cycles, started):
            # The cache key is the request, path included: a new name for
            # the same bytes is a miss of the result and snapshot caches.
            source = run.tmp / f"input-{len(ops.work)}.nt"
            os.link(server.source, source)
            request = {"dataset": str(source), "support_threshold": run.input.h}
            try:
                began = time.perf_counter()
                job = client.submit(**request)
                submitted = time.perf_counter()
                status = client.wait(job["id"], timeout=OP_TIMEOUT_S)
                fetching = time.perf_counter()
                raw = client.raw_result(job["id"])
                ended = time.perf_counter()
            except ServerError as error:
                run.op(False, f"cold job #{len(ops.work)}: {error}")
                ended = time.perf_counter()
            ops.add(ended - began)
            if run.failed:
                break
            digest = digest_of(raw)
            run.op(job["cache"] == "miss" and run.matches(digest),
                   f"cold job #{len(ops.work)}: cache {job['cache']}, result "
                   f"digest {digest}")
            jobs.append(job_layers(server, status, submitted - began, ended - fetching))
            for _ in range(run.size.serve_hits):
                began = time.perf_counter()
                try:
                    again = client.submit(**request)
                    ok = again["cache"] == "hit" and again["id"] == job["id"]
                except ServerError:
                    ok = False
                hits.append(time.perf_counter() - began)
                run.op(ok, "identical resubmission was not served from the cache")
        snapshot_bytes = tree_bytes(server.job_dir / "snapshots")
    finally:
        peak = stop_server(server)

    metrics = timing_metrics(setup_s, ops, peak)
    if not run.trace or not jobs:
        return metrics
    layers = {name: statistics.median(job[name] for job in jobs) for name in jobs[0]}
    absent = sorted(name for name, value in layers.items() if value != value)
    layers.update({name: 0.0 for name in absent})
    layers["server.boot_s"] = server.boot_s
    layers["storage.snapshot.bytes"] = snapshot_bytes / len(ops.work)
    layers["server.cache_hit_ms_p50"] = 1000.0 * statistics.median(hits)
    layers["server.cache_hit_ms_p90"] = 1000.0 * percentile(hits, 0.9)
    # The same job by the CLI, bytes checked against the served ones: what
    # serving adds.
    wall, _peak = discover_once(run, server.source, "discover (CLI twin)")
    layers["server.premium_s"] = statistics.median(ops.work) - wall
    report_absent(absent)
    return {**metrics, **layers}


def job_layers(
    server: Server, status: Dict[str, object], submit_s: float, get_s: float
) -> Dict[str, float]:
    """One cold job's server-side numbers; NaN where a field is gone."""
    nan = float("nan")

    def number(mapping: object, *path: str) -> float:
        for key in path:
            mapping = mapping.get(key) if isinstance(mapping, dict) else None
        return float(mapping) if isinstance(mapping, (int, float)) else nan

    try:
        outcome = json.loads(
            (server.job_dir / str(status.get("id")) / "outcome.json").read_text()
        )
    except (OSError, ValueError):
        outcome = None
    wall = number(status, "finished") - number(status, "started")
    elapsed = number(outcome, "elapsed_seconds")
    return {
        "server.submit_ms": 1000.0 * submit_s,
        "server.queue_wait_s": number(status, "started") - number(status, "created"),
        "server.worker_wall_s": wall,
        "server.worker_elapsed_s": elapsed,
        "server.worker_overhead_s": wall - elapsed,
        "server.discover_stage_wall_s": number(
            status, "progress", "summary", "wall_clock_seconds"
        ),
        "server.checkpoint_s": number(
            status, "progress", "summary", "checkpoint_seconds"
        ),
        "server.checkpoint_bytes": number(
            status, "progress", "summary", "checkpoint_bytes"
        ),
        "server.result_get_ms": 1000.0 * get_s,
    }


WORKLOADS: Dict[str, Callable[[Run], Metrics]] = {
    "discover_diseasome": discover,
    "discover_countries": discover,
    "stream_diseasome": stream,
    "serve_diseasome": serve,
}
