"""The docs may only name files and flags that exist.

A deletion sweep leaves dangling references behind — a README row for a
removed flag, a pointer to a removed benchmark script.  Every
``tests/…py`` / ``benchmarks/…py`` / ``examples/…py`` / ``src/…py`` /
``BENCH_*.json`` path, every ``--flag`` token and every dotted
``repro.x.y`` name in the user-facing documents must resolve against the
tree, the registered parsers and the importable package.
"""

import argparse
import importlib
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent

DOCUMENTS = sorted(
    [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / ".claude/skills/verify/SKILL.md"]
    + list((ROOT / "docs").glob("*.md"))
)

#: Parsers built inside ``main()``; their flags are read off the source.
SCRIPT_PARSERS = ("src/repro/federation/mock.py", "benchmarks/e2e/run.py")

#: Flags of other tools (pytest-benchmark, pip) plus argparse's own.
FOREIGN_FLAGS = {"--help", "--benchmark-only", "--no-build-isolation"}

#: The one place a removed flag is named on purpose.
REMOVED_FLAGS_SENTENCE = "there is no --storage / --planner flag any more"

_PATH_RE = re.compile(
    r"(?:tests|benchmarks|examples|src)/[\w./-]*\.py|BENCH_\w+\.json"
)
_FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
_DOTTED_RE = re.compile(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+")


def _parser_flags(parser: argparse.ArgumentParser) -> set:
    flags = set()
    for action in parser._actions:
        flags.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _parser_flags(sub)
    return flags


@pytest.fixture(scope="module")
def registered_flags() -> set:
    flags = _parser_flags(build_parser()) | FOREIGN_FLAGS
    for script in SCRIPT_PARSERS:
        source = (ROOT / script).read_text(encoding="utf-8")
        flags.update(re.findall(r'"(--[a-z][\w-]*)"', source))
    return flags


@pytest.mark.parametrize("document", DOCUMENTS, ids=lambda path: path.name)
def test_named_paths_and_flags_exist(document, registered_flags):
    text = document.read_text(encoding="utf-8").replace(REMOVED_FLAGS_SENTENCE, "")
    missing = sorted(
        path for path in set(_PATH_RE.findall(text)) if not (ROOT / path).exists()
    )
    assert not missing, f"{document.name} names files that do not exist: {missing}"
    unknown = sorted(set(_FLAG_RE.findall(text)) - registered_flags)
    assert not unknown, f"{document.name} names unregistered flags: {unknown}"


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix, then walk attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        try:
            for attribute in parts[cut:]:
                target = getattr(target, attribute)
        except AttributeError:
            return False
        return True
    return False


@pytest.mark.parametrize("document", DOCUMENTS, ids=lambda path: path.name)
def test_named_modules_import(document):
    text = document.read_text(encoding="utf-8")
    dangling = sorted(
        name for name in set(_DOTTED_RE.findall(text)) if not _resolves(name)
    )
    assert not dangling, f"{document.name} names modules that do not import: {dangling}"
