"""Assemble EXPERIMENTS.md from a benchmark-run log.

Usage::

    pytest benchmarks/ --benchmark-only | tee bench.log
    python benchmarks/make_experiments_md.py bench.log

The benches print their paper-style result tables through the
ExperimentReport hook (see ``benchmarks/conftest.py``); this script
extracts those sections from the captured log, pairs each with its
paper-vs-measured verdict, and rewrites the results block of
EXPERIMENTS.md between the ``RESULTS:BEGIN``/``RESULTS:END`` markers.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Dict, List, Tuple

#: Verdict commentary per experiment, keyed by section-title prefix.
VERDICTS: Dict[str, str] = {
    "Table 2": (
        "**Verdict — reproduced (scaled).** Countries/Diseasome/LUBM-1 are "
        "generated at full paper size (±5-6%); the larger datasets at the "
        "documented fractions. All planted showcase structures are present "
        "(asserted by `tests/test_datasets.py`)."
    ),
    "Figure 2": (
        "**Verdict — shape reproduced.** Every funnel layer shrinks by "
        "orders of magnitude: candidates ≫ frequent-condition candidates "
        "≫ broad candidates ≫ broad ≫ pertinent ≫ ARs, with the top three "
        "layers within a factor of ~2 of the paper's counts. The *bottom* "
        "layers land lower than the paper's (3.3k broad vs 915k): the "
        "real Diseasome's disease/gene networks are more mutually "
        "redundant than the synthetic stand-in, so fewer of the candidate "
        "inclusions actually hold here. The exhaustive all-valid/"
        "all-minimal layers are computed on a scaled Diseasome — at full "
        "size they are the >10⁹ quantities whose intractability the paper "
        "demonstrates."
    ),
    "Figure 4": (
        "**Verdict — reproduced.** Frequency-1 conditions dominate every "
        "dataset (paper, DBpedia: 86% at frequency 1, 99% below 16; the "
        "synthetic stand-ins match within a few points), which is what "
        "powers the frequent-condition pruning."
    ),
    "Figure 7": (
        "**Verdict — failure pattern reproduced exactly; runtime gap "
        "compressed.** Standard Cinderella exceeds the calibrated memory "
        "budget on every Diseasome run and Cinderella* at the sweep's low "
        "end, while RDFind completes everything — the paper's pattern. "
        "Where both complete, RDFind wins on Diseasome (~2×) and trades "
        "places on tiny Countries (paper: Cin*/Pos up to 20 s faster there "
        "due to Flink start-up). The paper's 8-419× magnitudes do not "
        "transfer: its Cinderella ran over a real DBMS with disk and "
        "JDBC, ours over the in-process `repro.sqldb` engine."
    ),
    "Figure 8": (
        "**Verdict — all three shapes reproduced.** Runtime grows slightly "
        "super-linearly; pertinent CINDs grow with the input; ARs peak and "
        "then decline as accumulating data violates exact rules — at "
        "1/7500 of the paper's scale."
    ),
    "Figure 9": (
        "**Verdict — reproduced.** Near-linear simulated scale-out with "
        "~7-8× average speed-up at 10 workers (paper: 8.14×); the "
        "20-worker column mirrors the paper's extra 1.38× from intra-node "
        "threads."
    ),
    "Figure 10": (
        "**Verdict — shape reproduced.** Runtimes are flat for large h and "
        "rise toward the sweep floor. The floors sit above each dataset's "
        "per-entity fan-out (see the bench header): below them the "
        "pertinent set itself explodes into millions (measured: 18.6M on "
        "Diseasome at h=5), the same low-support blow-up the paper's "
        "Figure 10 shows as a steep wall."
    ),
    "Figure 11": (
        "**Verdict — reproduced.** CIND counts are inverse in h, rising "
        "steeply at low supports (the paper's two-orders-in, "
        "three-orders-out relation shows in the Countries column); ARs "
        "account for roughly 10-50% of results throughout, as the paper "
        "notes. The associatedBand ⊑ associatedMusicalArtist pair is "
        "rediscovered on both the s- and o-side."
    ),
    "Figure 12": (
        "**Verdict — reproduced with one documented deviation.** NF is "
        "drastically inferior everywhere: ~3× slower where it completes "
        "(Countries) and over the single-node budget on every full-size "
        "Diseasome run. DE ≈ RDFind on the small datasets except Diseasome "
        "h=10, where DE's combiner state (17.9M cells) exceeds the budget "
        "that the paper's 40 GB cluster absorbed."
    ),
    "Figure 13": (
        "**Verdict — shape reproduced; failure locus shifted by scaling.** "
        "DE is occasionally marginally faster at large h (pure overhead "
        "regime, exactly the paper's finding) and loses or dies at small "
        "h. The paper's DE failures hit DB14-MPCE/PLE at 33M/153M triples; "
        "at 1/220-1/850 scale the same quadratic dominant-group blow-up "
        "manifests on DrugBank instead."
    ),
    "Figure 14": (
        "**Verdict — reproduced.** Q2 minimizes 6 → 3 patterns via three "
        "discovered CINDs, returns identical rows, and speeds up ~7× here "
        "(paper: ~3× in RDF-3X; the ratio depends on the engine, the "
        "direction and mechanism — joins removed — are the same). The "
        "control query Q1 is correctly left intact."
    ),
    "Section 8.6": (
        "**Verdict — reproduced.** The minimal-first strategy never beats "
        "the extract-then-consolidate design and is up to ~2.5× slower "
        "than RDFind-DE (paper: up to 3×), with byte-identical output."
    ),
    "Storage encoding": (
        "**Verdict — physical layout only.** Dictionary-encoded columns "
        "shrink the resident set ~4× vs string triples; they are the one "
        "representation discovery runs on (a string dataset is encoded "
        "on entry). The storage-v2 "
        "layer (frequency-ordered codes + per-column bit packing, frozen "
        "varint posting lists) shrinks the column payload a further "
        "≥2× (measured ~3×) with identical content. Not a paper "
        "experiment — this reproduces the dictionary-encoding + "
        "vertical-partitioning design of the in-memory RDF stores the "
        "paper builds on."
    ),
    "Snapshot load": (
        "**Verdict — warm start is effectively free; output "
        "byte-identical (asserted).** Not a paper experiment — this "
        "characterizes the mmap snapshot format (`rdfind snapshot`, "
        "`repro.storage.snapshot`). Loading Diseasome from a CRC-framed "
        "snapshot (three `frombytes` column adoptions + lazy term "
        "decode off the mapping) beats N-Triples parse+encode by ≥20× "
        "(measured ~25-30×), reproduces the exact checkpoint dataset "
        "digest, and discovery from the snapshot serializes "
        "byte-identically to the parse-from-source run on both "
        "executors. Corrupted or truncated snapshots raise typed errors "
        "and the cache path falls back to re-parsing (pinned by "
        "`tests/test_snapshot.py`)."
    ),
    "Fault recovery": (
        "**Verdict — recovery guarantee holds; overhead is bounded.** Not "
        "a paper experiment — this characterizes the fault-tolerance layer "
        "the paper inherits from Flink for free. With a seeded FaultPlan "
        "injecting transient task failures, a worker crash, and "
        "stragglers into every phase, discovery completes with CINDs/ARs "
        "byte-identical to the clean run (asserted), paying only the "
        "re-executed tasks. Adaptive OOM recovery (`--oom-recovery`) "
        "turns a budget-exceeded abort into a completed run by key-"
        "splitting the offending partitions, at a modest slowdown."
    ),
    "Checkpoint/resume": (
        "**Verdict — crash-resumability holds; durability is cheap at "
        "this scale.** Not a paper experiment — this characterizes the "
        "driver-level checkpointing standing in for resubmitting a lost "
        "Flink job against its last completed state. Persisting the fc/"
        "cg/ex phase boundaries costs a few MB of framed pickle I/O and "
        "a few percent of wall-clock; a resume after a simulated "
        "post-phase-1 crash skips FCDetector entirely and a fully-"
        "durable resume replays almost nothing, both with output "
        "identical to the uncheckpointed run (asserted). The SIGKILL-"
        "level crash/resume acceptance path — exit at an injected crash "
        "point, relaunch with `--resume`, byte-compare the result JSON — "
        "is pinned by `tests/test_checkpoint.py` on both executors."
    ),
    "Spilling shuffle": (
        "**Verdict — bounded memory bought at a bounded slowdown; output "
        "byte-identical (asserted).** Not a paper experiment — this "
        "characterizes the disk-backed data plane standing in for Flink's "
        "out-of-core shuffle, which the paper's billion-evidence groupings "
        "rely on. With a spill budget far below the inline shuffle's "
        "working set, discovery completes with identical CINDs/ARs while "
        "the shuffle state lives in CRC-framed sorted runs on disk; the "
        "runtime premium is the write-sort-merge tax. Peak RSS stays "
        "within noise of the inline run's — at this scale the resident "
        "dataset dominates both legs; the O(budget) bound on *shuffle* "
        "state is pinned directly by `tests/test_shuffle.py`'s "
        "peak-state assertions."
    ),
    "Server cache": (
        "**Verdict — cache reuse holds; a fingerprint hit is effectively "
        "free.** Not a paper experiment — this characterizes the "
        "discovery-as-a-service layer (`rdfind serve`). A warm resubmission "
        "of an identical config is answered from the stored result document "
        "in milliseconds (bytes asserted identical to the cold run, which "
        "pays admission + worker subprocess + full discovery), and a "
        "thundering herd of identical concurrent clients is collapsed onto "
        "a single in-flight job — one worker spawned, every client handed "
        "the same job id. Byte-identity of the HTTP result against the "
        "CLI's `discover -o` is pinned by `tests/test_server.py`."
    ),
    "Streaming maintenance": (
        "**Verdict — delta maintenance beats full re-discovery at every "
        "batch size; results agree exactly (asserted).** Not a paper "
        "experiment — this characterizes the streaming update subsystem "
        "(`rdfind stream`, `repro.streaming`). After loading ~90% of "
        "Diseasome, applying an add/remove batch to the maintainer and "
        "re-querying costs a small fraction of re-running batch RDFind "
        "on the materialized dataset (~150× for single-update batches, "
        "~10× at 512-update batches, where the one-off reactivation "
        "backfills amortize). The CIND sets agree exactly per batch, and "
        "byte-identity of the streamed result document against "
        "`discover -o` plus SIGKILL-resume from the changelog+checkpoint "
        "pair are pinned by `tests/test_streaming.py` and "
        "`tests/test_stream_session.py`."
    ),
    "Federation ingest": (
        "**Verdict — faults cost backoff time, never correctness.** Not "
        "a paper experiment — this characterizes the federated ingestion "
        "layer (`rdfind fetch`, `repro.federation`). Fetching Diseasome "
        "through the deterministic mock SPARQL endpoint with a seeded "
        "fault script (timeouts, 429s, 503s, truncated and malformed "
        "bodies injected into ~35% of early requests) produces a "
        "dictionary-encoded dataset with exactly the local parse's "
        "digest — same as the clean fetch — at a modest wall-clock "
        "premium that is almost entirely deliberate backoff sleeps. "
        "The full taxonomy/breaker/resume behavior is pinned by "
        "`tests/test_federation.py`; cross-endpoint partial-result "
        "discovery by its `TestFederatedDiscovery` cases."
    ),
    "Parallel scaling": (
        "**Verdict — infrastructure landed; speedup is hardware-gated.** "
        "The process executor produces byte-identical CINDs/ARs to serial "
        "on every run (asserted). On a single-core container the bench "
        "instead characterizes the overhead floor: per-stage pickling/IPC "
        "multiplies wall-clock ~4-5× with zero cores to win back, which "
        "is why `serial` stays the default. The ≥1.5× at 4 workers "
        "acceptance assertion arms automatically on machines with ≥4 "
        "cores, where the compute-dense stages (cg/group-by-value, "
        "ex/merge-candidates) dominate and parallelize."
    ),
}

_SECTION_RE = re.compile(r"^=+ (.+?) =+$")


def extract_sections(log_text: str) -> List[Tuple[str, List[str]]]:
    """(title, lines) pairs for every report section in the log."""
    sections: List[Tuple[str, List[str]]] = []
    current: List[str] = []
    title = None
    for line in log_text.splitlines():
        match = _SECTION_RE.match(line.strip())
        if match and any(
            match.group(1).startswith(prefix)
            for prefix in (
                "Table",
                "Figure",
                "Section",
                "Storage",
                "Snapshot",
                "Vectorized",
                "Parallel",
                "Fault",
                "Spilling",
                "Checkpoint",
                "Server",
                "Federation",
            )
        ):
            if title is not None:
                sections.append((title, current))
            title = match.group(1)
            current = []
        elif title is not None:
            if line.startswith(("----", "====", "benchmark:")) or "short test summary" in line:
                sections.append((title, current))
                title = None
                current = []
            else:
                current.append(line.rstrip())
    if title is not None:
        sections.append((title, current))
    return sections


def render_results(sections: List[Tuple[str, List[str]]]) -> str:
    """The markdown results block."""
    seen_verdicts = set()
    out: List[str] = []
    for title, lines in sections:
        out.append(f"### {title}")
        out.append("")
        out.append("```")
        out.extend(line for line in lines if line.strip())
        out.append("```")
        verdict_key = next(
            (key for key in VERDICTS if title.startswith(key)), None
        )
        if verdict_key and verdict_key not in seen_verdicts:
            seen_verdicts.add(verdict_key)
            out.append("")
            out.append(VERDICTS[verdict_key])
        out.append("")
    return "\n".join(out)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    log_path = Path(argv[1])
    experiments_path = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
    sections = extract_sections(log_path.read_text(encoding="utf-8"))
    if not sections:
        print("no report sections found in the log", file=sys.stderr)
        return 1
    results = render_results(sections)
    text = experiments_path.read_text(encoding="utf-8")
    begin = "<!-- RESULTS:BEGIN (filled from the final benchmark run) -->"
    end = "<!-- RESULTS:END -->"
    head, _sep, rest = text.partition(begin)
    _old, _sep2, tail = rest.partition(end)
    experiments_path.write_text(
        head + begin + "\n" + results + end + tail, encoding="utf-8"
    )
    print(f"wrote {len(sections)} sections to {experiments_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
