"""The document-building result codec, kept as the byte oracle.

``json.dumps(result_to_dict(result), ensure_ascii=False, indent=1)`` is
the definition of an ``rdfind-result`` document's bytes.  Production code
never builds this nested dict — :func:`repro.core.serialization.write_result`
writes the same bytes straight to a stream — and the tests compare the
two.  The functions were moved here unchanged from
``repro.core.serialization`` when the direct encoder replaced them.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.core.cind import Capture, decode_capture, decode_condition
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
