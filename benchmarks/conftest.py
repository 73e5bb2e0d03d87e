"""Shared infrastructure for the benchmark harness.

Each ``bench_*`` module regenerates one table or figure of the paper's
evaluation (see DESIGN.md §4).  Benchmarks print paper-style rows through
the session-scoped :class:`ExperimentReport`, which is dumped at the end
of the pytest run (so the rows survive output capturing), and share a
:class:`DiscoveryCache` so that figures derived from the same runs (e.g.
Figures 10 and 11) measure each configuration only once.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import pytest

from repro.core.conditions import ConditionScope
from repro.core.discovery import DiscoveryResult, RDFind, RDFindConfig
from repro.datasets import registry


class ExperimentReport:
    """Accumulates printable result rows per experiment."""

    def __init__(self) -> None:
        self._sections: List[Tuple[str, List[str]]] = []

    def section(self, title: str) -> "SectionWriter":
        lines: List[str] = []
        self._sections.append((title, lines))
        return SectionWriter(lines)

    def dump(self, terminal) -> None:
        for title, lines in self._sections:
            terminal.write_sep("=", title)
            for line in lines:
                terminal.write_line(line)


class SectionWriter:
    def __init__(self, lines: List[str]) -> None:
        self._lines = lines

    def row(self, text: str) -> None:
        self._lines.append(text)


_REPORT = ExperimentReport()


@pytest.fixture(scope="session")
def report() -> ExperimentReport:
    return _REPORT


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    _REPORT.dump(terminalreporter)


class DiscoveryCache:
    """Memoizes discovery runs keyed by dataset/config parameters."""

    def __init__(self) -> None:
        self._datasets: Dict[Tuple[str, float], object] = {}
        self._runs: Dict[Tuple, Tuple[DiscoveryResult, float]] = {}

    def dataset(self, name: str, scale: float = 1.0):
        key = (name, scale)
        if key not in self._datasets:
            self._datasets[key] = registry.load(name, scale=scale, encoded=True)
        return self._datasets[key]

    def run(
        self,
        name: str,
        h: int,
        scale: float = 1.0,
        parallelism: int = 4,
        variant: str = "rdfind",
        predicates_only: bool = False,
        memory_budget: Optional[int] = None,
    ) -> Tuple[DiscoveryResult, float]:
        """Discovery result plus wall-clock seconds (cached)."""
        key = (
            name, h, scale, parallelism, variant, predicates_only, memory_budget,
        )
        if key not in self._runs:
            encoded = self.dataset(name, scale)
            builders = {
                "rdfind": RDFindConfig,
                "de": RDFindConfig.direct_extraction,
                "nf": RDFindConfig.no_frequent_conditions,
            }
            scope = (
                ConditionScope.predicates_only()
                if predicates_only
                else ConditionScope.full()
            )
            config = builders[variant](
                support_threshold=h,
                parallelism=parallelism,
                scope=scope,
                memory_budget=memory_budget,
            )
            started = time.perf_counter()
            result = RDFind(config).discover(encoded)
            elapsed = time.perf_counter() - started
            self._runs[key] = (result, elapsed)
        return self._runs[key]


_CACHE = DiscoveryCache()


@pytest.fixture(scope="session")
def cache() -> DiscoveryCache:
    return _CACHE


def once(benchmark, fn, *args, **kwargs):
    """Run a costly benchmark body exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
