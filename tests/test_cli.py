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


class TestLimit:
    """``-n/--limit`` is a non-negative row count on every subcommand."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["discover", "dataset:Countries"],
            ["ontology", "dataset:Countries"],
            ["facts", "dataset:Countries"],
            ["rank", "dataset:Countries"],
            ["cross", "dataset:Countries", "dataset:Countries"],
            ["stream", "state"],
            ["profile", "dataset:Countries"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_limit_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as raised:
            main([*argv, "-n", "-1"])
        assert raised.value.code == 2
        assert "argument -n/--limit: must be >= 0, got -1" in capsys.readouterr().err

    def test_non_integer_limit_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["discover", "dataset:Countries", "--limit", "few"])
        assert raised.value.code == 2
        assert "invalid non_negative_int value: 'few'" in capsys.readouterr().err

    def test_discover_to_a_file_never_builds_the_cind_rows(
        self, capsys, monkeypatch, tmp_path
    ):
        from repro.core.discovery import DiscoveryResult, RDFind, RDFindConfig
        from repro.core.serialization import dump_result
        from repro.datasets.registry import load

        expected = tmp_path / "expected.json"
        dump_result(
            RDFind(RDFindConfig(support_threshold=5)).discover(
                load("Countries", scale=0.1, encoded=True)
            ),
            expected,
        )

        def unbuilt(_result):
            raise AssertionError("result.cinds was built")

        monkeypatch.setattr(DiscoveryResult, "cinds", property(unbuilt))
        path = tmp_path / "out.json"
        out = run(
            capsys, "discover", "dataset:Countries", "--scale", "0.1", "-s", "5",
            "--limit", "0", "-o", str(path),
        )
        assert "⊆" not in out and "full result written" in out
        assert path.read_bytes() == expected.read_bytes()

    def test_limit_prints_the_first_rows_in_result_order(self, capsys):
        from repro.core.discovery import RDFind, RDFindConfig
        from repro.datasets.registry import load

        result = RDFind(RDFindConfig(support_threshold=5)).discover(
            load("Countries", scale=0.1, encoded=True)
        )
        out = run(
            capsys, "discover", "dataset:Countries", "--scale", "0.1", "-s", "5",
            "-n", "5",
        )
        lines = out.splitlines()
        rules = lines.index("association rules:")
        # Summary lines (the run, and spill or fault lines) are not indented.
        assert [line for line in lines[:rules] if line.startswith("  ")] == [
            "  " + row.render(result.dictionary) for row in result.cinds[:5]
        ]
        assert lines[rules + 1 :] == [
            "  " + rule.render(result.dictionary)
            for rule in result.association_rules[:5]
        ]
