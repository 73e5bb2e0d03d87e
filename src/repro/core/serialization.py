"""Serializing discovery results (JSON) and binary frame streams.

Discovery is the expensive step; its consumers (the query minimizer, the
ontology and knowledge apps, downstream tooling) often run later or
elsewhere.  :class:`ResultEncoder` renders ordered CINDs and ARs as the
rows of a self-contained JSON document (term strings inlined, no
dictionary needed to read it) and is the only producer of those bytes.
Its unit is minimality's *block* — one dependent's pertinent CINDs, a
string per block (:meth:`ResultEncoder.block`): :func:`write_result`
(``dump_result``: CLI, server worker) writes the blocks one at a time,
never a chunk of them, since one chunk of Countries' blocks at h=3 is
the whole 38 MB document; the streaming maintainer's ``document_json``
keeps them per dependent.  Ids and capture codes stay the resident form
up to this boundary; a term is decoded and escaped once per distinct
capture, not once per row.
:func:`parse_result_dict` reads such documents back into string-valued
structures ready for :class:`repro.sparql.minimizer.QueryMinimizer`.

It also exposes the *binary frame* layer the spilling shuffle
(:mod:`repro.dataflow.shuffle`) builds its run files on: length-prefixed,
CRC-checked byte frames (defined in :mod:`repro.core.framing`, which is
dependency-free so the shuffle can import it without pulling in the
discovery result types; re-exported here as the serialization facade).
A frame on disk is ``[4-byte big-endian payload length][4-byte CRC32 of
the payload][payload]``; a stream of frames ends at clean EOF.
Corruption surfaces as :class:`FrameCorruptionError` (checksum mismatch)
and a short read as :class:`FrameTruncatedError`, so a reader can
distinguish "bit rot" from "writer died mid-frame".

Schema (version 1)::

    {
      "format": "rdfind-result",
      "version": 1,
      "support_threshold": 25,
      "variant": "RDFind",
      "cinds": [
        {"dep": {"attr": "s", "cond": [["p", "memberOf"]]},
         "ref": {"attr": "s", "cond": [["p", "rdf:type"]]},
         "support": 2},
        ...
      ],
      "association_rules": [
        {"lhs": ["o", "gradStudent"], "rhs": ["p", "rdf:type"], "support": 2},
        ...
      ]
    }
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, Iterable, Iterator, List, TextIO, Tuple, Union

from repro.core.cind import (
    CIND,
    AssociationRule,
    Capture,
    SupportedAR,
    SupportedCIND,
)
from repro.core.conditions import (
    BinaryCondition,
    Condition,
    UnaryCondition,
    is_binary,
)
from repro.core.discovery import DiscoveryResult
from repro.core.framing import (  # noqa: F401  (re-exported facade)
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    FrameCorruptionError,
    FrameError,
    FrameTruncatedError,
    iter_frames,
    pack_frame,
    read_frame,
    write_frame,
)
from repro.rdf.model import Attr

FORMAT_NAME = "rdfind-result"
FORMAT_VERSION = 1

_quote = json.encoder.encode_basestring


def _condition_from_json(payload: List[List[str]]) -> Condition:
    if len(payload) == 1:
        ((symbol, value),) = payload
        return UnaryCondition(Attr.from_symbol(symbol), value)
    if len(payload) == 2:
        (s1, v1), (s2, v2) = payload
        return BinaryCondition.make(
            Attr.from_symbol(s1), v1, Attr.from_symbol(s2), v2
        )
    raise ValueError(f"malformed condition payload: {payload!r}")


def _capture_from_json(payload: Dict) -> Capture:
    return Capture(
        Attr.from_symbol(payload["attr"]),
        _condition_from_json(payload["cond"]),
    )


class ResultEncoder(dict):
    """The one template of a version-1 document, a block at a time.

    Exactly the text the stdlib encoder renders for the schema above with
    ``ensure_ascii=False, indent=1``, without ever building the document.
    It is its own memo: ``encoder[key]`` is a capture's JSON object, its
    terms decoded by ``decode``, escaped and indented once however many
    rows name it; a key is the capture or what ``capture_of`` maps to one.
    """

    def __init__(self, decode: Callable[[int], str], capture_of=None) -> None:
        self.decode, self.capture_of = decode, capture_of

    def pair(self, part: UnaryCondition, depth: int) -> str:
        """``[symbol, term]`` as the stdlib encoder indents it at ``depth``."""
        inner = "\n" + " " * (depth + 1)
        return (
            f"[{inner}{_quote(part.attr.symbol)},"
            f"{inner}{_quote(self.decode(part.value))}\n{' ' * depth}]"
        )

    def __missing__(self, key) -> str:
        capture = self.capture_of(key) if self.capture_of else key
        condition = capture.condition
        parts = condition.unary_parts() if is_binary(condition) else (condition,)
        cond = ",\n     ".join(self.pair(part, 5) for part in parts)
        fragment = self[key] = (
            f'{{\n    "attr": {_quote(capture.attr.symbol)},'
            f'\n    "cond": [\n     {cond}\n    ]\n   }}'
        )
        return fragment

    def block(self, dependent, support: int, refs: Iterable) -> str:
        """The rows ``dependent ⊆ ref`` of each of ``refs`` (at least
        one), joined by ``",\\n"``: the text that differs between them is
        the referenced capture."""
        head = f'  {{\n   "dep": {self[dependent]},\n   "ref": '
        tail = f',\n   "support": {support}\n  }}'
        return head + f"{tail},\n{head}".join(map(self.__getitem__, refs)) + tail

    def cind_rows(self, cinds: Iterable[Tuple[Tuple, int]]) -> Iterator[str]:
        """A row per ``((dependent key, referenced key), support)``."""
        return (
            self.block(dependent, support, (referenced,))
            for (dependent, referenced), support in cinds
        )

    def rule_rows(self, rules: Iterable[SupportedAR]) -> Iterator[str]:
        """A row per association rule."""
        return (
            f'  {{\n   "lhs": {self.pair(lhs, 3)},\n   "rhs": {self.pair(rhs, 3)},'
            f'\n   "support": {support}\n  }}'
            for (lhs, rhs), support in rules
        )


def _array(rows: Iterator[str]) -> Iterator[str]:
    """A JSON array of rendered rows (or blocks), a piece per row and seam."""
    opener = "[\n"
    for row in rows:
        yield opener
        yield row
        opener = ",\n"
    yield "[]" if opener == "[\n" else "\n ]"


def result_pieces(
    support_threshold: int,
    variant: str,
    cind_rows: Iterator[str],
    rule_rows: Iterator[str],
) -> Iterator[str]:
    """The document around :class:`ResultEncoder` rows (or blocks of rows
    already joined by ``",\\n"``), as the pieces to write or join."""
    yield (
        f'{{\n "format": {_quote(FORMAT_NAME)},\n "version": {FORMAT_VERSION},'
        f'\n "support_threshold": {support_threshold},'
        f'\n "variant": {_quote(variant)},\n "cinds": '
    )
    yield from _array(cind_rows)
    yield ',\n "association_rules": '
    yield from _array(rule_rows)
    yield "\n}"


def write_result(handle: TextIO, result: DiscoveryResult) -> None:
    """Write ``result`` as a version-1 document straight to a text stream:
    its blocks one string each, its rules a row each."""
    encoder = ResultEncoder(result.dictionary.decode, result.captures.__getitem__)
    blocks = (encoder.block(*block) for block in result.blocks)
    rules = encoder.rule_rows(result.association_rules)
    h, variant = result.support_threshold, result.config.variant_name
    handle.writelines(result_pieces(h, variant, blocks, rules))


def dump_result(result: DiscoveryResult, path: Union[str, os.PathLike]) -> None:
    """Write a discovery result as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        write_result(handle, result)


def parse_result_dict(
    payload: Dict,
) -> Tuple[List[SupportedCIND], List[SupportedAR], int]:
    """Read a result document into string-valued CINDs/ARs plus its h.

    The returned structures use string term values (like
    :func:`repro.core.cind.decode_cind` output) and plug directly into
    :meth:`QueryMinimizer <repro.sparql.minimizer.QueryMinimizer>` and the
    apps' canonicalization helpers.
    """
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_NAME:
        raise ValueError(f"not a {FORMAT_NAME} document")
    if payload.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported version {payload.get('version')!r}")
    try:
        cinds = [
            SupportedCIND(
                CIND(
                    _capture_from_json(row["dep"]),
                    _capture_from_json(row["ref"]),
                ),
                int(row["support"]),
            )
            for row in payload.get("cinds", [])
        ]
        rules = [
            SupportedAR(
                AssociationRule(
                    _condition_from_json([row["lhs"]]),
                    _condition_from_json([row["rhs"]]),
                ),
                int(row["support"]),
            )
            for row in payload.get("association_rules", [])
        ]
        return cinds, rules, int(payload.get("support_threshold", 1))
    except (KeyError, TypeError, AttributeError) as error:
        # A missing key, a non-list row or a non-string attribute symbol:
        # callers handle ValueError, the only error a document may raise.
        raise ValueError(f"malformed {FORMAT_NAME} document: {error!r}") from error


def load_result(
    path: Union[str, os.PathLike],
) -> Tuple[List[SupportedCIND], List[SupportedAR], int]:
    """Read a JSON result document written by :func:`dump_result`."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_result_dict(json.load(handle))
