"""Smoke tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import _run_settings, build_parser, main

#: The runtime flags as they once were on every RDFind-adjacent
#: subcommand, each with a value to pass (``None``: a switch).
_RUNTIME_FLAGS = {
    "--faults": "1",
    "--max-retries": "1",
    "--shuffle": "spill",
    "--memory-budget-bytes": "4096",
    "--spill-dir": "spill",
    "--checkpoint": "phase",
    "--checkpoint-dir": "ckpt",
    "--resume": None,
    "--crash-point": "after:fc",
}

#: The subcommands that take the runtime flags.
_RUNTIME_COMMANDS = (
    "discover", "funnel", "ontology", "facts", "rank", "profile", "serve"
)

#: (subcommand, option) pairs that parsed and did nothing: runtime flags
#: on subcommands that never run RDFind, the checkpoint flags on a server
#: whose workers own their checkpoints, the retired granularity, the
#: plane switch, and the byte budget and directory of the removed
#: on-disk shuffle.
_REMOVED_PAIRS = (
    [(cmd, flag) for cmd in ("histogram", "advise", "inds") for flag in _RUNTIME_FLAGS]
    + [
        ("serve", flag)
        for flag in ("--checkpoint", "--checkpoint-dir", "--resume", "--crash-point")
    ]
    + [
        (cmd, "--checkpoint")
        for cmd in ("discover", "funnel", "ontology", "facts", "rank", "profile")
    ]
    + [(cmd, "--shuffle") for cmd in _RUNTIME_COMMANDS]
    + [
        (cmd, flag)
        for cmd in _RUNTIME_COMMANDS
        for flag in ("--memory-budget-bytes", "--spill-dir")
    ]
)


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
            discover + ["--executor", "serial"],
            discover + ["--workers", "2"],
            discover + ["--task-timeout-seconds", "1"],
            ["serve", "--job-dir", "jobs", "--executor", "serial"],
            ["serve", "--job-dir", "jobs", "--workers", "2"],
            ["serve", "--job-dir", "jobs", "--task-timeout-seconds", "1"],
            ["snapshot", "save", "dataset:Countries", "-o", "c.snap", "--remap"],
            ["stream", "state", "-s", "5", "--no-fsync"],
        ):
            with pytest.raises(SystemExit) as raised:
                main(argv)
            assert raised.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flag", _REMOVED_PAIRS, ids=lambda value: value.lstrip("-")
    )
    def test_runtime_flags_only_where_a_run_honours_them(self, capsys, command, flag):
        argv = (
            ["serve", "--job-dir", "jobs"]
            if command == "serve"
            else [command, "dataset:Countries"]
        )
        argv.append(flag)
        if _RUNTIME_FLAGS[flag] is not None:
            argv.append(_RUNTIME_FLAGS[flag])
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args(argv)
        assert raised.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_runtime_flags_arrive_as_config_keywords(self, tmp_path):
        argv = ["discover", "dataset:Countries", "--faults", "0", "--max-retries", "3",
                "--checkpoint-dir", str(tmp_path / "ckpt"), "--resume",
                "--crash-point", "after:fc", "--crash-point", "before:ex"]
        assert _run_settings(build_parser().parse_args(argv)) == {
            "fault_seed": 0,
            "max_retries": 3,
            "checkpoint_dir": str(tmp_path / "ckpt"),
            "resume": True,
            "crash_points": ("after:fc", "before:ex"),
        }
        # Flags left out stay out: the config's own defaults apply.
        plain = build_parser().parse_args(["funnel", "dataset:Countries"])
        assert _run_settings(plain) == {}

    def test_serial_run_does_not_import_the_process_pool(self):
        """A run starts no processes and logs nothing, so it imports
        neither the process machinery nor ``logging``."""
        script = (
            "import sys; from repro.cli import main; "
            "code = main(['discover', 'dataset:Countries', '--scale', '0.05', "
            "'-s', '5', '-n', '1']); "
            "loaded = [m for m in ('multiprocessing', 'concurrent.futures', 'logging') "
            "if m in sys.modules]; sys.exit(code or (f'loaded {loaded}' if loaded else 0))"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, timeout=120
        )
        assert done.returncode == 0, done.stderr.decode()

    def test_a_closed_pipe_ends_quietly(self):
        """``rdfind discover … | head -c 10``: no traceback, status 141."""
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        child = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "discover", "dataset:Countries",
                "--scale", "0.2", "-s", "3", "-n", "100000",  # ~400 KB of rows
            ],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert child.stdout.read(10) == b"RDFind h=3"
        child.stdout.close()
        stderr = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=120) == 141  # 128 + SIGPIPE (README)
        assert stderr == ""

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


#: Per kind of unreadable input: (argv with ``{}`` for the input, how to
#: make the input under a temp dir — ``None``: a name, not a path — and
#: what the reason says).
_BAD_INPUTS = {
    "missing file": (["discover", "{}"], None, "No such file or directory"),
    "missing, histogram": (["histogram", "{}"], None, "No such file or directory"),
    "directory": (["discover", "{}"], "mkdir", "Is a directory"),
    "bad N-Triples": (["discover", "{}"], ("bad.nt", "<a> <b> .\n"), "line 1"),
    "bad Turtle": (["discover", "{}"], ("bad.ttl", "@prefix : <x> .\n:a :b\n"), "line 3"),
    "not a snapshot": (["discover", "{}"], ("bad.snap", "hello"), "not an RDFind snapshot"),
    "unknown dataset": (["discover", "dataset:Nope"], None, "unknown dataset 'Nope'"),
    "unknown, generate": (["generate", "Nope", "-o", "x.nt"], None, "unknown dataset"),
}


class TestBadInput:
    """An input that cannot be read is one error line and exit 1, as
    ``rdfind stream``'s bad delta is, never a traceback."""

    @pytest.mark.parametrize("kind", sorted(_BAD_INPUTS))
    def test_reported_as_one_error_line(self, tmp_path, kind):
        argv, make, reason = _BAD_INPUTS[kind]
        path = tmp_path / "missing.nt"
        if make == "mkdir":
            path = tmp_path / "adir"
            path.mkdir()
        elif make is not None:
            path = tmp_path / make[0]
            path.write_text(make[1], encoding="utf-8")
        argv = [arg.format(path) for arg in argv]
        spec = argv[1]
        with pytest.raises(SystemExit) as raised:
            main(argv)
        message = raised.value.code  # SystemExit(str): printed to stderr, status 1
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith(f"error: {spec}: ") and reason in message


class TestNumericFlags:
    """A count out of range is a usage error, not a traceback."""

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["discover", "dataset:Countries", "-s", "0"], "-s/--support", 0),
            (["discover", "dataset:Countries", "-s", "-3"], "-s/--support", -3),
            (["discover", "dataset:Countries", "-p", "0"], "-p/--parallelism", 0),
            (["funnel", "dataset:Countries", "-s", "0"], "-s/--support", 0),
            (["inds", "dataset:Countries", "-p", "-1"], "-p/--parallelism", -1),
            (["cross", "dataset:Countries", "dataset:Countries", "-s", "0"], "-s/--support", 0),
            (["profile", "dataset:Countries", "-p", "0"], "-p/--parallelism", 0),
        ],
        ids=lambda part: "-".join(part) if isinstance(part, list) else None,
    )
    def test_count_below_one_is_a_usage_error(self, capsys, argv, flag, value):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be >= 1, got {value}" in err
        assert "Traceback" not in err

    def test_negative_max_retries_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["discover", "dataset:Countries", "--max-retries", "-1"])
        assert raised.value.code == 2
        assert "argument --max-retries: must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag, bound",
        [
            (["fetch", "http://x/sparql", "-o", "x.snap", "--page-size", "0"],
             "--page-size", "must be >= 1, got 0"),
            (["fetch", "http://x/sparql", "-o", "x.snap", "--min-page-size", "0"],
             "--min-page-size", "must be >= 1, got 0"),
            (["fetch", "http://x/sparql", "-o", "x.snap", "--retries", "-1"],
             "--retries", "must be >= 0, got -1"),
            (["fetch", "http://x/sparql", "-o", "x.snap", "--timeout", "0"],
             "--timeout", "must be > 0, got 0.0"),
            (["fetch", "http://x/sparql", "-o", "x.snap", "--timeout", "nan"],
             "--timeout", "must be > 0, got nan"),
            (["fetch", "http://x/sparql", "-o", "x.snap", "--breaker-threshold", "0"],
             "--breaker-threshold", "must be >= 1, got 0"),
            (["fetch", "http://x/sparql", "-o", "x.snap", "--jitter", "2"],
             "--jitter", "must be in [0, 1], got 2.0"),
            (["fetch", "http://x/sparql", "-o", "x.snap", "--backoff", "-0.5"],
             "--backoff", "must be >= 0, got -0.5"),
            (["fetch", "http://x/sparql", "-o", "x.snap", "--breaker-cooldown", "-1"],
             "--breaker-cooldown", "must be >= 0, got -1.0"),
            (["federate", "http://a/sparql", "http://b/sparql", "--retries", "-1"],
             "--retries", "must be >= 0, got -1"),
            (["serve", "--job-dir", "d", "--max-concurrent-jobs", "0"],
             "--max-concurrent-jobs", "must be >= 1, got 0"),
            (["serve", "--job-dir", "d", "--max-queued-jobs", "-1"],
             "--max-queued-jobs", "must be >= 0, got -1"),
        ],
        ids=lambda part: "-".join(part) if isinstance(part, list) else None,
    )
    def test_endpoint_server_and_seconds_bounds(self, capsys, argv, flag, bound):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {bound}" in err
        assert "Traceback" not in err

    def test_serve_requires_a_job_dir(self, capsys):
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args(["serve"])
        assert raised.value.code == 2
        assert "--job-dir" in capsys.readouterr().err

    def test_profile_support_zero_asks_the_advisor(self, capsys):
        parser = build_parser()
        assert parser.parse_args(["profile", "dataset:Countries", "-s", "0"]).support == 0
        with pytest.raises(SystemExit) as raised:
            parser.parse_args(["profile", "dataset:Countries", "-s", "-1"])
        assert raised.value.code == 2
        assert "argument -s/--support: must be >= 0, got -1" in capsys.readouterr().err


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
        # Summary lines (the run, and fault or checkpoint lines) are not indented.
        assert [line for line in lines[:rules] if line.startswith("  ")] == [
            "  " + row.render(result.dictionary) for row in result.cinds[:5]
        ]
        assert lines[rules + 1 :] == [
            "  " + rule.render(result.dictionary)
            for rule in result.association_rules[:5]
        ]
