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
        "**Verdict — not reproduced: about half the paper's speed-up.** "
        "The simulated scale-out is sub-linear. In three standalone runs "
        "each, 10 workers averaged 4.13× before the keyed kernels folded "
        "whole partitions (3.95×, 4.66×, 3.78×) and 3.92× after (3.80×, "
        "4.19×, 3.78×); the suite run that filled this table read 3.70× "
        "(paper: 8.14×). The bench's `average > 4.0` gate failed in 5 of "
        "these 7 runs. Folding shrank the one-worker cg/ex stages more "
        "than the ten-worker ones, and the ten-worker column is held by "
        "the serial `fc/unary-columnar/merge` and by per-partition costs: "
        "ROADMAP item 2 has the breakdown and the plan. The 20-worker "
        "column still gains over 10 workers, as the paper's intra-node "
        "threads do."
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
            for prefix in ("Table", "Figure", "Section")
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
