"""N-Triples parsing and serialization.

RDFind's prototype "accepts N-Triples files as inputs" (Appendix C).  This
module implements a pragmatic, line-based N-Triples 1.1 reader/writer:

* URIs ``<...>``, blank nodes ``_:label`` (kept verbatim, treated like URIs
  downstream, as the paper prescribes), and literals ``"..."`` with optional
  language tag or ``^^<datatype>``.
* The standard string escapes (``\\n``, ``\\t``, ``\\"``, ``\\\\``,
  ``\\uXXXX``, ``\\UXXXXXXXX``).
* Comments (``# ...``) and blank lines are skipped.
* Blank-node labels may hold dots but do not end in one (N-Triples 1.1),
  so ``_:b.`` is ``_:b`` followed by the statement's dot.

The cursor parser (:func:`parse_ntriples_line`) is the authority on all of
that and on every error.  The file loader first tries one regex for the
canonical line shape (:data:`_FAST_LINE`) and interns the terms straight
into id columns; see ``docs/algorithm.md``, "Input loading".

Terms are represented as plain strings that keep just enough surface syntax
to round-trip: URIs and blank nodes are stored bare (no angle brackets),
literals are stored with surrounding double quotes plus any suffix, e.g.
``"42"^^<http://www.w3.org/2001/XMLSchema#integer>`` or ``"chat"@fr``.
``is_literal``/``is_blank`` classify stored terms.

:func:`write_ntriples_file` serializes each distinct term once per call.
Escaping is one ``str.translate`` (an IRI also writes ``>`` as
``\\u003E``), and a literal's closing quote is found by one regex, so no
Python loop runs per character of a term.
"""

from __future__ import annotations

import io
import os
import re
from itertools import islice
from typing import IO, Iterable, Iterator, List, Optional, Sequence, Union

from repro.rdf.model import Dataset, EncodedDataset, Triple


class NTriplesParseError(ValueError):
    """Raised when a line cannot be parsed as an N-Triples statement."""

    def __init__(self, message: str, line_number: int, line: str) -> None:
        super().__init__(f"line {line_number}: {message}: {line.strip()!r}")
        self.line_number = line_number
        self.line = line


_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}

_UNICODE_ESCAPE = re.compile(r"u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}")
_ESCAPES_INV = {
    "\\": "\\\\",
    "\n": "\\n",
    "\r": "\\r",
    '"': '\\"',
    "\t": "\\t",
}
_ESCAPE_TABLE = str.maketrans(_ESCAPES_INV)
#: An IRI also writes ``>``, which would end it early, as a UCHAR.
_IRI_ESCAPE_TABLE = str.maketrans({**_ESCAPES_INV, ">": "\\u003E"})
#: A literal's quoted part from its opening character: a backslash takes
#: whatever character follows it, so an escaped quote does not close it.
_QUOTED = re.compile(r'.[^"\\]*(?:\\.[^"\\]*)*"', re.DOTALL).match
#: ``_:`` and a label.  A dot belongs to the label only when more of the
#: label follows it, so ``_:b.`` ends a statement and ``_:b.c`` is one label.
_BLANK = re.compile(r"_:[^ \t.]*(?:\.+[^ \t.#][^ \t.]*)*").match


def is_literal(term: str) -> bool:
    """True if a stored term is a literal (starts with a double quote)."""
    return term.startswith('"')


def is_blank(term: str) -> bool:
    """True if a stored term is a blank node label."""
    return term.startswith("_:")


def literal_value(term: str) -> str:
    """The unescaped lexical value of a literal (datatype/lang stripped)."""
    if not is_literal(term):
        raise ValueError(f"not a literal: {term!r}")
    closing = _closing_quote(term)
    return _unescape(term[1:closing], 0, term)


def _closing_quote(term: str) -> int:
    match = _QUOTED(term)
    if match is None:
        raise ValueError(f"unterminated literal: {term!r}")
    return match.end() - 1


def _unescape(text: str, line_number: int, line: str) -> str:
    if "\\" not in text:
        return text
    out: List[str] = []
    index = 0
    length = len(text)
    while index < length:
        ch = text[index]
        if ch != "\\":
            out.append(ch)
            index += 1
            continue
        if index + 1 >= length:
            raise NTriplesParseError("dangling escape", line_number, line)
        code = text[index + 1]
        if code in _ESCAPES:
            out.append(_ESCAPES[code])
            index += 2
        else:  # exactly 4 / 8 hex digits spelling a code point, or nothing
            match = _UNICODE_ESCAPE.match(text, index + 1)
            if match is None or int(match[0][1:], 16) >= 0x110000:
                bad = text[index : index + 10]
                raise NTriplesParseError(f"bad escape {bad}", line_number, line)
            out.append(chr(int(match[0][1:], 16)))
            index = match.end()
    return "".join(out)


def _escape(text: str) -> str:
    return text.translate(_ESCAPE_TABLE)


class _LineParser:
    """Cursor-based parser for a single N-Triples line."""

    __slots__ = ("line", "pos", "line_number")

    def __init__(self, line: str, line_number: int) -> None:
        self.line = line
        self.pos = 0
        self.line_number = line_number

    def error(self, message: str) -> NTriplesParseError:
        return NTriplesParseError(message, self.line_number, self.line)

    def skip_ws(self) -> None:
        line = self.line
        pos = self.pos
        while pos < len(line) and line[pos] in " \t":
            pos += 1
        self.pos = pos

    def at_end(self) -> bool:
        return self.pos >= len(self.line)

    def expect(self, char: str) -> None:
        if self.at_end() or self.line[self.pos] != char:
            raise self.error(f"expected {char!r}")
        self.pos += 1

    def parse_term(self, allow_literal: bool) -> str:
        self.skip_ws()
        if self.at_end():
            raise self.error("unexpected end of statement")
        ch = self.line[self.pos]
        if ch == "<":
            return self._parse_uri()
        if ch == "_":
            return self._parse_blank()
        if ch == '"':
            if not allow_literal:
                raise self.error("literal not allowed here")
            return self._parse_literal()
        raise self.error(f"unexpected character {ch!r}")

    def _parse_uri(self) -> str:
        end = self.line.find(">", self.pos + 1)
        if end < 0:
            raise self.error("unterminated URI")
        uri = self.line[self.pos + 1 : end]
        self.pos = end + 1
        return _unescape(uri, self.line_number, self.line)

    def _parse_blank(self) -> str:
        match = _BLANK(self.line, self.pos)
        if match is None:
            raise self.error("malformed blank node")
        self.pos = match.end()
        return match[0]

    def _parse_literal(self) -> str:
        line = self.line
        start = self.pos
        match = _QUOTED(line, start)
        if match is None:
            raise self.error("unterminated literal")
        pos = match.end() - 1
        value = _unescape(line[start + 1 : pos], self.line_number, line)
        pos += 1
        suffix = ""
        if pos < len(line) and line[pos] == "@":
            tag_end = pos + 1
            while tag_end < len(line) and line[tag_end] not in " \t.":
                tag_end += 1
            suffix = line[pos:tag_end]
            pos = tag_end
        elif line.startswith("^^<", pos):
            dt_end = line.find(">", pos + 3)
            if dt_end < 0:
                raise self.error("unterminated datatype URI")
            suffix = line[pos : dt_end + 1]
            pos = dt_end + 1
        self.pos = pos
        return f'"{_escape(value)}"{suffix}'


def parse_ntriples_line(line: str, line_number: int = 1) -> Optional[Triple]:
    """Parse one N-Triples line; None for blank/comment lines."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    parser = _LineParser(line.rstrip("\r\n"), line_number)
    subject = parser.parse_term(allow_literal=False)
    predicate = parser.parse_term(allow_literal=False)
    obj = parser.parse_term(allow_literal=True)
    parser.skip_ws()
    parser.expect(".")
    parser.skip_ws()
    if not parser.at_end() and not parser.line[parser.pos :].lstrip().startswith("#"):
        raise parser.error("trailing content after '.'")
    return Triple(subject, predicate, obj)


def parse_ntriples(source: Union[str, IO[str], Iterable[str]]) -> Iterator[Triple]:
    """Yield triples from N-Triples text, a file object, or line iterable."""
    if isinstance(source, str):
        source = io.StringIO(source)
    for line_number, line in enumerate(source, start=1):
        triple = parse_ntriples_line(line, line_number)
        if triple is not None:
            yield triple


#: The canonical shape: blanks between terms and only blanks after the dot,
#: no backslash or empty URI, no quote, tab, CR or LF in a literal.  No term
#: needs unescaping or can end earlier than the cursor ends it.
_FAST_LINE = re.compile(
    r'[ \t]*(?:<([^>\\]+)>|(_:[^ \t.]*))[ \t]+<([^>\\]+)>[ \t]+'
    r'(?:<([^>\\]+)>|(_:[^ \t.]*|"[^"\\\t\r\n]*"(?:@[^ \t.]*|\^\^<[^>\\]*>)?))'
    r"[ \t]*\.[ \t]*[\r\n]*"
).fullmatch


def _term_rows(lines: Iterable[str]) -> Iterator[Sequence[str]]:
    """``(s, p, o)`` rows: by :data:`_FAST_LINE`, else by the cursor parser."""
    for line_number, line in enumerate(lines, start=1):
        match = _FAST_LINE(line)
        if match is not None:
            yield match[1] or match[2], match[3], match[4] or match[5]
        elif (triple := parse_ntriples_line(line, line_number)) is not None:
            yield triple


def parse_ntriples_file(path: Union[str, os.PathLike], name: str = "") -> Dataset:
    """Parse an N-Triples file into an id-backed :class:`Dataset`: terms are
    interned straight into id columns (:meth:`Dataset.from_encoded`)."""
    with open(path, "r", encoding="utf-8") as handle:
        encoded = EncodedDataset.from_terms(_term_rows(handle), name=name or str(path))
    return Dataset.from_encoded(encoded)


def literal_parts(term: str) -> "tuple[str, Optional[str], Optional[str]]":
    """Split a stored literal into ``(value, language, datatype)``.

    ``value`` is the unescaped lexical value; exactly one of
    ``language``/``datatype`` is set when the literal carries a suffix.
    This is the bridge to exchange formats that carry the three parts
    separately (the SPARQL 1.1 JSON results format used by
    :mod:`repro.federation`).
    """
    if not is_literal(term):
        raise ValueError(f"not a literal: {term!r}")
    closing = _closing_quote(term)
    value = _unescape(term[1:closing], 0, term)
    suffix = term[closing + 1 :]
    if suffix.startswith("@"):
        return value, suffix[1:], None
    if suffix.startswith("^^<") and suffix.endswith(">"):
        return value, None, suffix[3:-1]
    return value, None, None


def make_literal(
    value: str, language: Optional[str] = None, datatype: Optional[str] = None
) -> str:
    """Build a stored literal term from its parts (inverse of
    :func:`literal_parts`).

    The value is escaped with the parser's canonical escape set, so a
    literal round-tripped through ``literal_parts``/``make_literal``
    reproduces the stored term byte for byte — the property federated
    ingestion relies on for byte-identical re-encoding of remote data.
    """
    if language is not None and datatype is not None:
        raise ValueError("a literal has a language tag or a datatype, not both")
    suffix = ""
    if language:
        suffix = f"@{language}"
    elif datatype:
        suffix = f"^^<{datatype}>"
    return f'"{_escape(value)}"{suffix}'


def serialize_term(term: str) -> str:
    """Render a stored term in N-Triples surface syntax.

    Literal values are normalized through unescape/re-escape so that raw
    control characters (possible in programmatically built literals)
    serialize as proper escape sequences.
    """
    if is_literal(term):
        closing = _closing_quote(term)
        value = _unescape(term[1:closing], 0, term)
        suffix = term[closing + 1 :]
        return f'"{_escape(value)}"{suffix}'
    if is_blank(term):
        return term
    return f"<{term.translate(_IRI_ESCAPE_TABLE)}>"


def serialize_triple(triple: Triple) -> str:
    """Render a triple as one N-Triples statement (without newline)."""
    return (
        f"{serialize_term(triple.s)} {serialize_term(triple.p)} "
        f"{serialize_term(triple.o)} ."
    )


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    """Render triples as N-Triples text."""
    return "".join(serialize_triple(t) + "\n" for t in triples)


class _TermMemo(dict):
    """``memo[term]`` is ``serialize_term(term)``, computed once per term."""

    __slots__ = ()

    def __missing__(self, term: str) -> str:
        self[term] = text = serialize_term(term)
        return text


def write_ntriples_file(
    triples: Iterable[Triple], path: Union[str, os.PathLike]
) -> int:
    """Write triples to an N-Triples file; returns the statement count.

    Each distinct term is serialized once per call, and the statements
    reach the file in batches."""
    memo = _TermMemo()
    rows = iter(triples)
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        while batch := [
            f"{memo[s]} {memo[p]} {memo[o]} .\n" for s, p, o in islice(rows, 8192)
        ]:
            handle.writelines(batch)
            count += len(batch)
    return count
