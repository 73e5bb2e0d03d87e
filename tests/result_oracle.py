"""The document-building result codec and the ``Capture``-form
minimality, kept as oracles.

``json.dumps(result_to_dict(result), ensure_ascii=False, indent=1)`` is
the definition of an ``rdfind-result`` document's bytes.  Production code
never builds this nested dict — :func:`repro.core.serialization.write_result`
writes the same bytes straight to a stream — and the tests compare the
two.  The functions were moved here unchanged from
``repro.core.serialization`` when the direct encoder replaced them.

:func:`consolidate_pertinent` is the broad-to-pertinent consolidation over
``Capture`` tuples, moved here unchanged from ``repro.core.minimality``
when minimality moved to capture codes and blocks: the differential
tests decode the code consolidation and compare it to this one.
"""

from __future__ import annotations

import json
from typing import Dict, FrozenSet, List, Tuple

from repro.core.cind import (
    CIND,
    Capture,
    SupportedCIND,
    decode_capture,
    decode_condition,
)
from repro.core.conditions import Condition, UnaryCondition
from repro.core.discovery import DiscoveryResult
from repro.core.serialization import FORMAT_NAME, FORMAT_VERSION


def _condition_to_json(condition: Condition) -> List[List[str]]:
    if isinstance(condition, UnaryCondition):
        return [[condition.attr.symbol, condition.value]]
    return [
        [part.attr.symbol, part.value] for part in condition.unary_parts()
    ]


def _capture_to_json(capture: Capture) -> Dict:
    return {
        "attr": capture.attr.symbol,
        "cond": _condition_to_json(capture.condition),
    }


def result_to_dict(result: DiscoveryResult) -> Dict:
    """Render a discovery result as a JSON-ready dict (strings inlined)."""
    dictionary = result.dictionary
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "support_threshold": result.support_threshold,
        "variant": result.config.variant_name,
        "cinds": [
            {
                "dep": _capture_to_json(
                    decode_capture(sc.cind.dependent, dictionary)
                ),
                "ref": _capture_to_json(
                    decode_capture(sc.cind.referenced, dictionary)
                ),
                "support": sc.support,
            }
            for sc in result.cinds
        ],
        "association_rules": [
            {
                "lhs": _condition_to_json(
                    decode_condition(sa.rule.lhs, dictionary)
                )[0],
                "rhs": _condition_to_json(
                    decode_condition(sa.rule.rhs, dictionary)
                )[0],
                "support": sa.support,
            }
            for sa in result.association_rules
        ],
    }


def result_json(result: DiscoveryResult) -> str:
    """The text ``dump_result`` must write for ``result``."""
    return json.dumps(result_to_dict(result), ensure_ascii=False, indent=1)


#: The extractor's adjacency form, decoded: dependent capture -> (exact
#: referenced captures, support).
BroadCINDs = Dict[Capture, Tuple[FrozenSet[Capture], int]]


def consolidate_pertinent(broad: BroadCINDs) -> List[SupportedCIND]:
    """Keep only the minimal CINDs among the broad ones.

    ``broad`` is the extractor's adjacency form: dependent capture ->
    (exact referenced captures, support).  Each row is reduced with set
    differences on the capture tuples themselves:

    * **trivial** references go: the dependent itself and, for a binary
      dependent, its own unary relaxations;
    * **dependent-implied** ones go: whatever a relaxation ``(α, φ1')``
      of the dependent references in the broad set, the tighter
      ``(α, φ1)`` references by inference, because
      ``I(α, φ1) ⊆ I(α, φ1')``.  (Past the trivial test the implier is
      never trivial: the reference is not that relaxation.);
    * **referenced-implied** ones go: a binary reference in the row
      implies the same capture relaxed to either unary part — the
      tightened implier shares the dependent, hence the row.

    All rows of one dependent share its support, so the result order
    ``(-support, dependent, referenced)`` is the dependents sorted once
    and each row's survivors sorted on their own.
    """
    pertinent: List[SupportedCIND] = []
    rows = sorted(broad.items(), key=lambda row: (-row[1][1], row[0]))
    for dependent, (refs, support) in rows:
        minimal = set(refs)
        minimal.discard(dependent)
        for relaxed in dependent.unary_relaxations():
            minimal.discard(relaxed)
            entry = broad.get(relaxed)
            if entry is not None:
                minimal.difference_update(entry[0])
        # Plain tuples hash and compare equal to the captures they spell.
        for attr, condition in refs:
            if len(condition) == 4:
                attr1, value1, attr2, value2 = condition
                minimal.discard((attr, (attr1, value1)))
                minimal.discard((attr, (attr2, value2)))
        pertinent.extend(
            SupportedCIND(CIND(dependent, referenced), support)
            for referenced in sorted(minimal)
        )
    return pertinent
