"""Execute module doctests so the examples in docstrings stay true.

A maintainer docstring once shipped an example that silently drifted
from the real API (``add`` returns ``True``/``False``; the example showed
no output).  Running the doctests as a test leg keeps every embedded
example honest.
"""

import doctest

import pytest

import repro.streaming.changelog
import repro.streaming.compaction
import repro.streaming.delta
import repro.streaming.maintainer
import repro.streaming.session

MODULES = [
    repro.streaming.changelog,
    repro.streaming.compaction,
    repro.streaming.delta,
    repro.streaming.maintainer,
    repro.streaming.session,
]


@pytest.mark.parametrize(
    "module", MODULES, ids=[module.__name__ for module in MODULES]
)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module.__name__}: {results.failed} failed"


def test_maintainer_examples_actually_run():
    """The doctest must exercise the API, not be vacuously empty."""
    results = doctest.testmod(repro.streaming.maintainer, verbose=False)
    assert results.attempted > 0
    assert results.failed == 0
