"""Tests for the N-Triples parser and serializer."""

import os
import tempfile

import pytest
from hypothesis import event, given, strategies as st

from repro.rdf.model import Dataset, Triple
from repro.rdf.ntriples import (
    _FAST_LINE,
    NTriplesParseError,
    _term_rows,
    is_blank,
    is_literal,
    literal_value,
    parse_ntriples,
    parse_ntriples_file,
    parse_ntriples_line,
    serialize_ntriples,
    serialize_term,
    serialize_triple,
    write_ntriples_file,
)


class TestParseLine:
    def test_plain_uris(self):
        triple = parse_ntriples_line("<a> <b> <c> .")
        assert triple == Triple("a", "b", "c")

    def test_literal_object(self):
        triple = parse_ntriples_line('<a> <b> "hello" .')
        assert triple.o == '"hello"'

    def test_language_tagged_literal(self):
        triple = parse_ntriples_line('<a> <b> "chat"@fr .')
        assert triple.o == '"chat"@fr'

    def test_datatyped_literal(self):
        line = '<a> <b> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .'
        triple = parse_ntriples_line(line)
        assert triple.o == '"42"^^<http://www.w3.org/2001/XMLSchema#integer>'

    def test_blank_nodes(self):
        triple = parse_ntriples_line("_:b1 <p> _:b2 .")
        assert triple.s == "_:b1"
        assert triple.o == "_:b2"

    def test_escapes_in_literal(self):
        triple = parse_ntriples_line(r'<a> <b> "line\nbreak\t\"q\"" .')
        assert literal_value(triple.o) == 'line\nbreak\t"q"'

    def test_unicode_escape(self):
        triple = parse_ntriples_line(r'<a> <b> "é" .')
        assert "é" in triple.o

    def test_long_unicode_escapes_in_literal_and_uri(self):
        triple = parse_ntriples_line(
            r'<http://x/café\U0001F600> <b> "café \U0001F600" .'
        )
        assert triple.s == "http://x/café\U0001F600"
        assert literal_value(triple.o) == "café \U0001F600"
        again = parse_ntriples_line(serialize_triple(triple))
        assert again == triple
        assert serialize_term(again.o) == '"café \U0001F600"'

    @pytest.mark.parametrize(
        "line, escape",
        [
            (r'<a> <b> "x\u12" .', r"\u12"),  # truncated: not U+0012
            (r'<a> <b> "x\uZZZZ" .', r"\uZZZZ"),
            (r'<a> <b> "x\U0011FFFF" .', r"\U0011FFFF"),  # beyond U+10FFFF
            (r'<a> <b> "x\u+12a" .', r"\u+12a"),  # int() would take the sign
            (r"<a\u12> <b> <c> .", r"\u12"),
            (r"<a> <b\U0011FFFF> <c> .", r"\U0011FFFF"),
        ],
    )
    def test_bad_unicode_escape_is_a_parse_error_with_its_line(self, line, escape):
        with pytest.raises(NTriplesParseError) as caught:
            parse_ntriples_line(line, line_number=7)
        assert caught.value.line_number == 7
        assert f"bad escape {escape}" in str(caught.value)

    def test_comment_line_returns_none(self):
        assert parse_ntriples_line("# a comment") is None

    def test_blank_line_returns_none(self):
        assert parse_ntriples_line("   ") is None

    def test_trailing_comment_allowed(self):
        triple = parse_ntriples_line("<a> <b> <c> . # trailing")
        assert triple == Triple("a", "b", "c")

    def test_literal_subject_rejected(self):
        with pytest.raises(NTriplesParseError):
            parse_ntriples_line('"lit" <b> <c> .')

    def test_missing_dot_rejected(self):
        with pytest.raises(NTriplesParseError):
            parse_ntriples_line("<a> <b> <c>")

    def test_unterminated_uri_rejected(self):
        with pytest.raises(NTriplesParseError):
            parse_ntriples_line("<a <b> <c> .")

    def test_unterminated_literal_rejected(self):
        with pytest.raises(NTriplesParseError):
            parse_ntriples_line('<a> <b> "open .')

    def test_trailing_garbage_rejected(self):
        with pytest.raises(NTriplesParseError):
            parse_ntriples_line("<a> <b> <c> . <junk>")

    @pytest.mark.parametrize("eol", ["\r\n", "\r", "\n\r\n", "\n"])
    def test_every_ntriples_eol_ends_a_statement(self, eol):
        """EOL is ``[\\r\\n]+``; a string source is not newline-translated."""
        assert parse_ntriples_line("<a> <b> <c> ." + eol) == Triple("a", "b", "c")
        assert parse_ntriples_line('<a> <b> "x\\u00e9" . # c' + eol).o == '"xé"'
        assert list(parse_ntriples("<a> <b> <c> ." + eol)) == [Triple("a", "b", "c")]

    @pytest.mark.parametrize(
        "line", ["<a> <b>\r<c> .", "<a>\r<b> <c> .", "<a> <b> <c>\r.", "<a> <b> <c> .\r<d>"]
    )
    def test_carriage_return_inside_a_statement_is_an_error(self, line):
        with pytest.raises(NTriplesParseError):
            parse_ntriples_line(line)

    def test_error_carries_line_number(self):
        try:
            parse_ntriples_line("<bad", line_number=42)
        except NTriplesParseError as error:
            assert error.line_number == 42
        else:  # pragma: no cover
            pytest.fail("expected NTriplesParseError")


class TestParseDocument:
    def test_multiline_document(self):
        text = "<a> <b> <c> .\n# comment\n\n<d> <e> \"f\" .\n"
        triples = list(parse_ntriples(text))
        assert len(triples) == 2

    def test_file_roundtrip(self, tmp_path):
        dataset = Dataset.from_tuples(
            [("http://ex/s", "http://ex/p", '"value"'), ("_:b", "http://ex/p", "http://ex/o")]
        )
        path = tmp_path / "data.nt"
        count = write_ntriples_file(dataset, path)
        assert count == 2
        assert parse_ntriples_file(path) == dataset


class TestSerialize:
    def test_uri_gets_angle_brackets(self):
        assert serialize_term("http://ex/a") == "<http://ex/a>"

    def test_literal_kept_verbatim(self):
        assert serialize_term('"x"@en') == '"x"@en'

    def test_blank_kept_verbatim(self):
        assert serialize_term("_:b0") == "_:b0"

    def test_triple_statement(self):
        statement = serialize_triple(Triple("a", "b", '"c"'))
        assert statement == '<a> <b> "c" .'

    def test_document(self):
        text = serialize_ntriples([Triple("a", "b", "c")])
        assert text == "<a> <b> <c> .\n"


class TestClassifiers:
    def test_is_literal(self):
        assert is_literal('"x"')
        assert not is_literal("http://ex/a")

    def test_is_blank(self):
        assert is_blank("_:b")
        assert not is_blank("http://ex/a")

    def test_literal_value_strips_decorations(self):
        assert literal_value('"v"@en') == "v"
        assert literal_value('"v"^^<dt>') == "v"

    def test_literal_value_rejects_non_literal(self):
        with pytest.raises(ValueError):
            literal_value("http://ex/a")


_uri = st.text(
    alphabet=st.characters(
        whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters=":/#._-"
    ),
    min_size=1,
    max_size=20,
)
_literal_text = st.text(max_size=20)


class TestRoundtripProperties:
    @given(st.lists(st.tuples(_uri, _uri, _uri), max_size=20))
    def test_uri_triples_roundtrip(self, rows):
        dataset = Dataset.from_tuples(rows)
        parsed = Dataset(parse_ntriples(serialize_ntriples(dataset)))
        assert parsed == dataset

    @given(_uri, _uri, _literal_text)
    def test_literal_roundtrip_preserves_value(self, s, p, text):
        source = Triple(s, p, '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"')
        (parsed,) = list(parse_ntriples(serialize_triple(source) + "\n"))
        # Value may re-escape differently but must denote the same string.
        assert literal_value(parsed.o) == literal_value(source.o)


# ----------------------------------------------------------------------
# the fast line shape against the cursor parser (the oracle)
# ----------------------------------------------------------------------

_GOOD_ESCAPES = [
    r"\t", r"\b", r"\n", r"\r", r"\f", r"\"", r"\'", "\\\\",
    r"\u00e9", r"\U0001F600",
]
_BAD_ESCAPES = [r"\u12", r"\uZZZZ", r"\U0011FFFF", r"\u+12a", r"\x", "\\"]
_PLAIN = ["a", "b", "é", "/", ":", "-", "0"]
#: What is legal, or at least harmless, inside a literal but ends or
#: derails a statement anywhere else.
_LITERAL_NOISE = [">", "<", "#", " . ", " ", "_:", "@", "^^", "."]


def _text(pieces, min_size=0):
    return st.lists(st.sampled_from(pieces), min_size=min_size, max_size=5).map("".join)


def _terms(uri_pieces, literal_pieces, suffixes):
    """``(subject, predicate, object)`` surface-syntax strategies."""
    uri = _text(uri_pieces).map("<{}>".format)
    blank = _text(["b", "1", "-", "<", '"'], min_size=0).map("_:{}".format)
    literal = st.builds(
        '"{}"{}'.format, _text(literal_pieces), st.sampled_from(suffixes)
    )
    return st.one_of(uri, blank), uri, st.one_of(uri, blank, literal)


_SUFFIXES = ["", "", "@en", "@en-US", "^^<dt>", "^^<http://x/y#int>"]
_canonical_terms = _terms(_PLAIN, _PLAIN + _LITERAL_NOISE, _SUFFIXES)
_well_formed_terms = _terms(
    _PLAIN + _GOOD_ESCAPES[-2:],
    _PLAIN + _GOOD_ESCAPES + _LITERAL_NOISE,
    _SUFFIXES,
)
_wild_subject, _wild_predicate, _wild_object = _terms(
    _PLAIN + _GOOD_ESCAPES + _BAD_ESCAPES + [" ", "<", '"', "\t"],
    _PLAIN + _GOOD_ESCAPES + _BAD_ESCAPES + _LITERAL_NOISE + ["\t", "\r"],
    _SUFFIXES + ["@", "^^<dt", "^^dt", "x", '"'],
)
_broken = st.sampled_from(["<a", "_b", '"open', "", "a", '"lit"'])
_gap = st.sampled_from([" ", " ", "\t", "", "  ", " \t "])
_eol = st.sampled_from(["\n", "\n", "", "\r\n", "\r"])
_well_formed_end = st.sampled_from([".", ".", " .", " . ", " . # comment", ".#c", "\t.\t"])
_wild_end = st.sampled_from([".", " .", "", " . junk", " . <x>", "..", " .\x0b# c", ";"])

_well_formed_lines = st.one_of(
    st.builds(
        "{0}{3}{1}{3}{2}{4}{5}".format,
        *_canonical_terms, st.sampled_from([" ", "\t"]), st.sampled_from([" .", "."]), _eol,
    ),
    st.builds(
        "{0}{3}{4}{1}{4}{2}{5}{6}".format,
        *_well_formed_terms, _gap, st.sampled_from([" ", "\t", "  "]),
        _well_formed_end, _eol,
    ),
    st.sampled_from(["\n", "   \n", "# a comment\n", "<a><b><c>.\n", "_:b<p> <p> <o> .\n"]),
)
_wild_lines = st.builds(
    "{0}{1}{2}{3}{4}{5}{6}{7}".format,
    _gap, st.one_of(_wild_subject, _broken), _gap,
    st.one_of(_wild_predicate, _broken), _gap,
    st.one_of(_wild_object, _broken), st.one_of(_well_formed_end, _wild_end), _eol,
)


def _outcome(parse):
    """A parse's result, or what identifies its error."""
    try:
        return parse()
    except NTriplesParseError as error:
        return (str(error), error.line_number)


class TestFastLineShape:
    """The regex either declines a line or returns the cursor's triple."""

    @pytest.mark.parametrize(
        "line",
        [
            "<a> <b> <c> .\n",
            "<http://x/a#b>\t<p> _:b1 .",
            "_:s <p> _: .",
            '_:b1  <p>  "a > b < c # d . e" .\r\n',
            '  <a> <b> "chat"@fr-BE.',
            '<a> <b> "42"^^<http://www.w3.org/2001/XMLSchema#integer> . \n',
            "<a <b> <c> <d> .",
            "_:b<p> <p> <o> .",
        ],
    )
    def test_canonical_lines_take_the_fast_path(self, line):
        assert _FAST_LINE(line) is not None
        assert list(_term_rows([line])) == [parse_ntriples_line(line)]

    @pytest.mark.parametrize(
        "line",
        [
            "<a><b><c>.",
            "<> <b> <c> .",
            "<a> _:p <c> .",
            r"<a\u00e9> <b> <c> .",
            r'<a> <b> "x\ty" .',
            '<a> <b> "x\ty" .',
            '<a> <b> "x\ry" .',
            r'<a> <b> "x"^^<d\u00e9> .',
            "<a> <b> <c> . # comment",
            "_:b<p> <o> .",
            "<a> <b> _:b.c .",
            "<a> <b> <c> . \n \n",
            "# <a> <b> <c> .",
            '"lit" <b> <c> .',
        ],
    )
    def test_everything_else_is_left_to_the_cursor(self, line):
        assert _FAST_LINE(line) is None
        expected = _outcome(lambda: parse_ntriples_line(line))
        actual = _outcome(lambda: list(_term_rows([line])))
        assert actual == ([expected] if isinstance(expected, Triple) else expected or [])

    @given(st.one_of(_well_formed_lines, _wild_lines))
    def test_line_differential(self, line):
        expected = _outcome(lambda: parse_ntriples_line(line, 3))
        match = _FAST_LINE(line)
        event("fast" if match else "error" if type(expected) is tuple else "cursor")
        if match is not None:
            assert isinstance(expected, Triple)
        actual = _outcome(lambda: list(_term_rows(["\n", "# c\n", line])))
        if isinstance(expected, Triple):
            assert actual == [expected] and type(actual[0][2]) is str
        else:
            assert actual == (expected or [])

    @given(
        st.lists(_well_formed_lines, max_size=12),
        st.lists(st.integers(0, 11), max_size=6),
        st.none() | st.tuples(st.integers(0, 12), _wild_lines),
    )
    def test_file_differential(self, lines, repeats, wild):
        """``parse_ntriples_file(p).encode()`` is the cursor's ``Dataset``
        encoded — columns, term order and sizes — or the same error."""
        lines = [line if line.endswith(("\n", "\r")) else line + "\n" for line in lines]
        lines += [lines[index] for index in repeats if index < len(lines)]
        if wild is not None:
            lines.insert(wild[0], wild[1] + "\n")
        handle, path = tempfile.mkstemp(suffix=".nt")
        try:
            with os.fdopen(handle, "w", encoding="utf-8", newline="") as out:
                out.writelines(lines)

            def by_cursor():
                with open(path, encoding="utf-8") as source:
                    return Dataset(parse_ntriples(source), name=path).encode()

            expected = _outcome(by_cursor)
            actual = _outcome(lambda: parse_ntriples_file(path).encode())
        finally:
            os.unlink(path)
        if type(expected) is tuple:
            assert actual == expected
            return
        assert actual.columns == expected.columns
        assert list(actual.dictionary.terms()) == list(expected.dictionary.terms())
        assert actual.nbytes() == expected.nbytes()
        assert actual.dictionary.nbytes() == expected.dictionary.nbytes()
        assert actual.name == expected.name
