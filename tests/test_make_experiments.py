"""Tests for the EXPERIMENTS.md assembly tool."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.make_experiments_md import (  # noqa: E402
    VERDICTS,
    extract_sections,
    render_results,
)

SAMPLE_LOG = """\
...some pytest noise...
================= Figure 7 — RDFind vs Cinderella, Countries ==================
     h |    RDFind |   Cin/Pos
     5 |     0.74s |     0.44s
= Figure 9 — scale-out, LinkedMDB (simulated parallel runtime) =
      h |       1w |      10w
     25 |    7.40 |    0.97
average speed-up at 10 workers: 7.45x (paper: 8.14x)
--------------------------- benchmark: 43 tests ---------------------------
test_noise 1.0 2.0
"""


class TestExtraction:
    def test_sections_found_with_titles(self):
        sections = extract_sections(SAMPLE_LOG)
        titles = [title for title, _lines in sections]
        assert titles == [
            "Figure 7 — RDFind vs Cinderella, Countries",
            "Figure 9 — scale-out, LinkedMDB (simulated parallel runtime)",
        ]

    def test_section_bodies_captured(self):
        sections = dict(extract_sections(SAMPLE_LOG))
        fig9 = sections["Figure 9 — scale-out, LinkedMDB (simulated parallel runtime)"]
        assert any("7.45x" in line for line in fig9)

    def test_benchmark_table_not_swallowed(self):
        sections = dict(extract_sections(SAMPLE_LOG))
        for lines in sections.values():
            assert not any("test_noise" in line for line in lines)

    def test_empty_log(self):
        assert extract_sections("nothing here") == []


class TestRendering:
    def test_markdown_structure(self):
        text = render_results(extract_sections(SAMPLE_LOG))
        assert "### Figure 7 — RDFind vs Cinderella, Countries" in text
        assert text.count("```") % 2 == 0

    def test_verdicts_attached_once(self):
        log = SAMPLE_LOG + SAMPLE_LOG.replace("Countries", "Diseasome")
        text = render_results(extract_sections(log))
        assert text.count(VERDICTS["Figure 7"][:40]) == 1

    def test_all_experiments_have_verdicts(self):
        expected = {
            "Table 2", "Figure 2", "Figure 4", "Figure 7", "Figure 8",
            "Figure 9", "Figure 10", "Figure 11", "Figure 12", "Figure 13",
            "Figure 14", "Section 8.6",
        }
        assert set(VERDICTS) == expected
