"""Smoke tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    return captured.out


class TestCli:
    def test_datasets(self, capsys):
        out = run(capsys, "datasets")
        assert "Diseasome" in out and "3,000,673,968" in out

    def test_discover_dataset_input(self, capsys):
        out = run(
            capsys, "discover", "dataset:Countries", "--scale", "0.1",
            "-s", "5", "-n", "3",
        )
        assert "pertinent" in out and "⊆" in out

    def test_removed_path_selection_flags_are_rejected(self, capsys):
        discover = ["discover", "dataset:Countries", "-s", "5"]
        for argv in (
            discover + ["--storage", "strings"],
            discover + ["--planner", "static"],
            discover + ["--oom-recovery"],
            ["snapshot", "save", "dataset:Countries", "-o", "c.snap", "--remap"],
            ["stream", "state", "-s", "5", "--no-fsync"],
        ):
            with pytest.raises(SystemExit) as raised:
                main(argv)
            assert raised.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_serial_run_does_not_import_the_process_pool(self):
        """``multiprocessing`` and the pool are imported where a pool is built."""
        script = (
            "import sys; from repro.cli import main; "
            "code = main(['discover', 'dataset:Countries', '--scale', '0.05', "
            "'-s', '5', '-n', '1', '--executor', 'serial']); "
            "loaded = [m for m in ('concurrent.futures.process', 'multiprocessing') "
            "if m in sys.modules]; sys.exit(code or bool(loaded))"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, timeout=120
        )
        assert done.returncode == 0, done.stderr.decode()

    def test_discover_variant_de(self, capsys):
        out = run(
            capsys, "discover", "dataset:Countries", "--scale", "0.1",
            "-s", "5", "--variant", "de", "-n", "2",
        )
        assert "RDFind-DE" in out

    def test_discover_predicates_scope(self, capsys):
        out = run(
            capsys, "discover", "dataset:Countries", "--scale", "0.1",
            "-s", "5", "--scope", "predicates", "-n", "2",
        )
        assert "pertinent" in out

    def test_generate_then_discover_file(self, capsys, tmp_path):
        path = tmp_path / "tiny.nt"
        out = run(capsys, "generate", "Countries", "-o", str(path), "--scale", "0.05")
        assert "wrote" in out
        out = run(capsys, "discover", str(path), "-s", "3", "-n", "2")
        assert "pertinent" in out

    def test_funnel(self, capsys):
        out = run(capsys, "funnel", "dataset:Countries", "--scale", "0.05", "-s", "3")
        assert "all CIND candidates" in out

    def test_funnel_exhaustive_adds_the_enumerated_rows(self, capsys, tmp_path):
        from repro.rdf.ntriples import serialize_ntriples
        from tests.conftest import random_rdf

        path = tmp_path / "tiny.nt"
        path.write_text(
            serialize_ntriples(random_rdf(710, n_triples=40)), encoding="utf-8"
        )
        plain = run(capsys, "funnel", str(path), "-s", "2")
        exhaustive = run(capsys, "funnel", str(path), "-s", "2", "--exhaustive")
        assert "all CINDs" not in plain
        assert "all CINDs" in exhaustive and "minimal CINDs" in exhaustive

    def test_parallelism_does_not_change_the_result_bytes(self, capsys, tmp_path):
        # -p is the paper's scale-out axis (Fig. 9): it moves the simulated
        # runtime, never an output byte.
        outputs = []
        for workers in ("1", "3"):
            path = tmp_path / f"p{workers}.json"
            run(
                capsys, "discover", "dataset:Countries", "--scale", "0.1",
                "-s", "5", "-p", workers, "-o", str(path),
            )
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_spill_plane_writes_the_same_bytes_and_says_it_ran(
        self, capsys, monkeypatch, tmp_path
    ):
        import re

        monkeypatch.delenv("RDFIND_SHUFFLE", raising=False)
        discover = ["discover", "dataset:Countries", "--scale", "0.1", "-s", "5"]
        inline = run(capsys, *discover, "-o", str(tmp_path / "inline.json"))
        spill = run(
            capsys, *discover, "--shuffle", "spill",
            "--memory-budget-bytes", "4096", "-o", str(tmp_path / "spill.json"),
        )
        assert "spill:" not in inline
        assert re.search(r"^spill: [1-9]\d* runs, [\d,]+ bytes, \d+ merge passes$", spill, re.M)
        assert (tmp_path / "inline.json").read_bytes() == (
            tmp_path / "spill.json"
        ).read_bytes()

    def test_histogram(self, capsys):
        out = run(capsys, "histogram", "dataset:Countries", "--scale", "0.05")
        assert "frequency" in out

    def test_ontology(self, capsys):
        out = run(
            capsys, "ontology", "dataset:Countries", "--scale", "0.3", "-s", "5"
        )
        assert "ontology hints" in out

    def test_facts(self, capsys):
        out = run(capsys, "facts", "dataset:DB14-MPCE", "--scale", "0.05", "-s", "5")
        assert "knowledge facts" in out

    def test_discover_json_export(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        out = run(
            capsys, "discover", "dataset:Countries", "--scale", "0.1",
            "-s", "5", "-n", "1", "-o", str(path),
        )
        assert "full result written" in out
        import json

        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["format"] == "rdfind-result"
        assert payload["cinds"]

    def test_advise(self, capsys):
        out = run(capsys, "advise", "dataset:Countries", "--scale", "0.2")
        assert "query minimization" in out and "broad captures" in out

    def test_rank(self, capsys):
        out = run(
            capsys, "rank", "dataset:Countries", "--scale", "0.2",
            "-s", "5", "-n", "3",
        )
        assert "ranked" in out and "score=" in out

    def test_inds(self, capsys):
        out = run(capsys, "inds", "dataset:Countries", "--scale", "0.2")
        assert "plain INDs" in out

    def test_cross(self, capsys, tmp_path):
        left = tmp_path / "a.nt"
        right = tmp_path / "b.nt"
        left.write_text(
            "".join(f"<c{i}> <capital> <city{i}> .\n" for i in range(4)),
            encoding="utf-8",
        )
        right.write_text(
            "".join(f"<city{i}> <rdf:type> <City> .\n" for i in range(6)),
            encoding="utf-8",
        )
        out = run(capsys, "cross", str(left), str(right), "-s", "4")
        assert "cross-dataset CINDs" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["no-such-command"])

    def test_bad_scope_rejected(self):
        with pytest.raises(SystemExit):
            main(["discover", "dataset:Countries", "--scope", "bogus"])
