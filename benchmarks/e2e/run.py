"""The benchmark's one command.

The driver's form — one workload, one result object on the last line::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload`` it runs all four, each run in a fresh interpreter so
order cannot matter, prints every metric by name with its unit, and with
``--out FILE`` writes the runs for ``compare.py``.  ``--seed`` drives only
the stream update script; the datasets come from ``repro.datasets`` with
their own fixed seeds, so result bytes are comparable across seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
if not __package__:
    # Run as a script: import through the package, so that trace.py in
    # this directory cannot shadow the standard library's module.
    sys.path[0] = str(ROOT)

from benchmarks.e2e import spec  # noqa: E402

#: The seed golden.json's stream digest was taken at.
GOLDEN_SEED = 0
#: Set once the environment is the clean one below.
CLEAN_MARK = "BENCH_E2E_CLEAN"
#: Scratch space: inside the checkout, one directory per run, removed after.
TMP_ROOT = ROOT / ".bench_e2e_tmp"


def clean_env() -> Dict[str, str]:
    """What a user who types the default command has: no ``RDFIND_*`` knob.

    Hash seed pinned so set and dict orders — and with them timings and
    peak memory — repeat; no bytecode written while measuring (``main``
    compiles ``src`` once, before set-up).
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("RDFIND_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    paths = [str(ROOT / "src"), *env.get("PYTHONPATH", "").split(os.pathsep)]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(p for p in paths if p))
    env[CLEAN_MARK] = "1"
    return env


def stamp() -> Dict[str, object]:
    """Where the numbers were taken; nothing that differs between two runs."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "commit": commit,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def run_workload(args: argparse.Namespace) -> int:
    from benchmarks.e2e import workloads
    from benchmarks.e2e.reference import Reference

    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
        check=True, stdout=subprocess.DEVNULL,
    )
    size = workloads.SMOKE if args.smoke else workloads.FULL
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT, prefix=args.workload + "-"))
    tempfile.tempdir = str(tmp)
    env = {**os.environ, "TMPDIR": str(tmp)}
    reference = Reference(env, **({"keys": 20_000} if args.smoke else {}))
    run = workloads.Run(
        workload=args.workload,
        seed=args.seed,
        seconds=0.0 if args.smoke else args.seconds,
        trace=bool(args.trace),
        size=size,
        tmp=tmp,
        env=env,
        reference=reference,
    )
    at_golden_seed = args.workload != "stream_diseasome" or args.seed == GOLDEN_SEED
    if at_golden_seed and not args.update_golden:
        run.expected = workloads.golden(size, args.workload)
    try:
        measured = workloads.WORKLOADS[args.workload](run)
    finally:
        reference.close()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run's scratch is still in there

    if args.update_golden and at_golden_seed and run.failed == 0:
        known = json.loads(workloads.GOLDEN_PATH.read_text())
        known.setdefault(size.name, {})[args.workload] = run.first_digest
        workloads.GOLDEN_PATH.write_text(
            json.dumps(known, indent=1, sort_keys=True) + "\n"
        )

    units = {m.name: m.unit for m in (spec.PER_LAYER if args.trace else spec.END_TO_END)}
    values = {name: measured.get(name, 0.0) for name in units}
    print("stamp: " + json.dumps(stamp(), sort_keys=True))
    for name, unit in units.items():
        print(f"{name:<48} {values[name]:>16.6g} {unit}")
    for problem in run.problems:
        print("FAILED: " + problem)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0 if run.failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload: ``--runs`` untraced runs on successive seeds, one traced."""
    results: Dict[str, Dict[str, object]] = {}
    status = 0
    for name, _why in spec.WORKLOADS:
        untraced = [
            child(args, name, args.seed + n, trace=0) for n in range(args.runs)
        ]
        traced = child(args, name, args.seed, trace=1)
        runs = [*untraced, traced]
        if any(run is None or not run["correct"] for run in runs):
            status = 1
        results[name] = {
            "end_to_end": {
                m.name: [run["metrics"][m.name]["value"] for run in untraced if run]
                for m in spec.END_TO_END
            },
            "per_layer": {
                key: entry["value"]
                for key, entry in (traced["metrics"] if traced else {}).items()
            },
            "attempted": sum(run["attempted"] for run in runs if run),
            "failed": sum(run["failed"] for run in runs if run),
        }
        print(f"\n== {name}: {results[name]['failed']} of "
              f"{results[name]['attempted']} operations failed")
        for metric in spec.END_TO_END:
            values = results[name]["end_to_end"][metric.name]
            if values:
                print(f"{metric.name:<48} {statistics.median(values):>14.6g} "
                      f"{metric.unit:<6} median of {len(values)} runs "
                      f"[{min(values):.6g} .. {max(values):.6g}]")
        moved_here = {m.name for m in spec.PER_LAYER if name in m.workloads}
        for metric in spec.PER_LAYER:
            if metric.name in moved_here and metric.name in results[name]["per_layer"]:
                value = results[name]["per_layer"][metric.name]
                print(f"{metric.name:<48} {value:>14.6g} {metric.unit:<6} "
                      f"-> {metric.moves}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "stamp": stamp(),
            "seconds": args.seconds,
            "size": "smoke" if args.smoke else "full",
            "workloads": results,
        }, indent=1, sort_keys=True) + "\n")
    return status


def child(args: argparse.Namespace, name: str, seed: int, trace: int) -> Optional[Dict]:
    """One single-workload run in a fresh interpreter; its result object."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    argv += ["--smoke"] * args.smoke + ["--update-golden"] * args.update_golden
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    sys.stdout.write("".join(f"  {line}\n" for line in lines if line.startswith(
        ("FAILED", "absent_layers"))))
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"  {name} seed {seed} trace {trace}: exit {done.returncode}, no result")
        return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[name for name, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test size: Countries at scale 0.2, minimum counts")
    parser.add_argument("--runs", type=int, default=3,
                        help="untraced runs per workload when running all of them")
    parser.add_argument("--out", help="write all workloads' runs here (for compare.py)")
    parser.add_argument("--update-golden", action="store_true",
                        help="record this run's result digests in golden.json")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.benchmark_json(), indent=2) + "\n"
        )
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT} holds no src/repro to measure", file=sys.stderr)
        return 2
    if os.environ.get(CLEAN_MARK) != "1":
        sys.stdout.flush()
        os.execve(
            sys.executable,
            [sys.executable, str(Path(__file__).resolve()), *(argv or sys.argv[1:])],
            clean_env(),
        )
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
