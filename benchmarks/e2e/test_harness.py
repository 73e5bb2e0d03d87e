"""Self-test of the benchmark harness (``pytest benchmarks/e2e -q``, < 20 s).

Runs every workload at ``--smoke`` size (Countries at scale 0.2, one
repetition, three stream batches) and checks the harness itself: the
contract file, the metric declarations, layer attribution adding up,
degradation when a wrapped entry point is gone, and compare's verdicts.
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.e2e import compare, spec, trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def test_contract_file_is_written_from_spec():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert contract == spec.benchmark_json()
    assert contract["paths"] == ["benchmarks/e2e"]
    assert 1 <= contract["run_seconds"] <= 60


def test_metric_declarations():
    workloads = [name for name, _why in spec.WORKLOADS]
    end_to_end = [m.name for m in spec.END_TO_END]
    layers = [m.name for m in spec.PER_LAYER]
    names = workloads + end_to_end + layers
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(end_to_end) <= 16 and "setup_s" in end_to_end
    assert 1 <= len(layers) <= 128
    assert all(len(why) <= 200 and "\n" not in why for _name, why in spec.WORKLOADS)
    assert all(0 < m.bound <= 0.25 for m in spec.END_TO_END)
    for layer in spec.PER_LAYER:
        assert layer.moves in end_to_end, layer
        assert layer.workloads and set(layer.workloads) <= set(workloads), layer


def test_golden_says_served_bytes_are_cli_bytes():
    golden = json.loads((HERE / "golden.json").read_text())
    for size in ("full", "smoke"):
        assert set(golden[size]) == {name for name, _why in spec.WORKLOADS}
        assert golden[size]["serve_diseasome"] == golden[size]["discover_diseasome"]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--runs", "1",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


def test_smoke_prints_every_metric_and_fails_nothing(smoke):
    assert set(smoke["stamp"]) == {"commit", "python", "platform", "nproc"}
    for name, _why in spec.WORKLOADS:
        result = smoke["workloads"][name]
        assert result["failed"] == 0 and result["attempted"] >= 2
        for metric in spec.END_TO_END:
            (value,) = result["end_to_end"][metric.name]
            assert value > 0, (name, metric.name)
        assert set(result["per_layer"]) == {m.name for m in spec.PER_LAYER}
        for layer in spec.PER_LAYER:
            exercised = name in layer.workloads
            sign_free = layer.name in (
                "trace.overhead_share", "server.premium_s",
                "streaming.maintainer.updates_ignored",
                "dataflow.gcpause.suppressed_collections",
            )
            value = result["per_layer"][layer.name]
            assert sign_free or (value > 0) == exercised, (name, layer.name, value)


def test_a_seed_without_golden_digest_is_checked_against_the_oracle():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "1",
         "--workload", "stream_diseasome"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 4
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_traced_layers_and_unattributed_sum_to_main(smoke):
    for name in spec.BATCH:
        layers = smoke["workloads"][name]["per_layer"]
        parts = [
            "cli.unattributed_s", "rdf.ntriples.parse_s", "rdf.model.encode_s",
            "core.discovery.discover_self_s", "core.frequent_conditions.detect_s",
            "core.capture_groups.create_s", "core.extraction.extract_s",
            "core.minimality.consolidate_s", "core.serialization.dump_s",
        ]
        assert sum(layers[part] for part in parts) == pytest.approx(
            layers["cli.main_s"], rel=1e-9
        )


def test_self_time_is_duration_minus_children():
    tracer = trace.Tracer()
    with tracer.span("outer"):
        time.sleep(0.01)
        with tracer.span("inner"):
            time.sleep(0.02)
        with tracer.span("inner"):
            pass
    times = tracer.times()
    outer_total, outer_self = times["outer"]
    inner_total, inner_self = times["inner"]
    assert inner_total == inner_self >= 0.02
    assert outer_self == pytest.approx(outer_total - inner_total)
    assert [span.parent for span in tracer.spans] == [None, 0, 0]


def test_absent_entry_point_is_listed_not_fatal():
    import repro.cli

    original = repro.cli.dump_result
    tracer = trace.Tracer()
    shims = [
        trace.Shim("core.serialization.dump", "repro.cli", "dump_result"),
        trace.Shim("renamed.function", "repro.cli", "no_such_function"),
        trace.Shim("renamed.method", "repro.core.discovery", "RDFind.no_such"),
        trace.Shim("removed.module", "repro.no_such_module", "anything"),
    ]
    with tracer.installed(shims), tracer.span(trace.ROOT_SPAN):
        assert repro.cli.dump_result is not original
    assert repro.cli.dump_result is original
    assert tracer.absent == ["renamed.function", "renamed.method", "removed.module"]
    metrics = trace.batch_metrics(tracer)
    assert metrics["core.capture_groups.create_s"] == 0.0
    assert metrics["cli.main_s"] > 0.0


def test_compare_verdicts():
    lower = spec.EndToEnd("t_s", "s", "lower", 0.10, "")
    higher = spec.EndToEnd("r", "1/s", "higher", 0.10, "")
    steady = [1.00, 1.01, 0.99, 1.00]
    assert compare.verdict(lower, steady, [1.30, 1.31, 1.29, 1.30])[0] == "regressed"
    assert compare.verdict(lower, steady, [0.70, 0.71, 0.69, 0.70])[0] == "improved"
    assert compare.verdict(higher, steady, [0.70, 0.71, 0.69, 0.70])[0] == "regressed"
    assert compare.verdict(lower, steady, [1.02, 1.03, 1.01, 1.02])[0] == "unchanged"
    # Inside the bound but one side's own runs are wider than it: not "unchanged".
    assert compare.verdict(lower, steady, [0.8, 1.0, 1.2, 1.05])[0] == "unresolved"
    assert compare.verdict(lower, [1.0], [1.02])[0] == "unresolved"
    assert compare.verdict(lower, [1.0], [1.5])[0] == "regressed"
