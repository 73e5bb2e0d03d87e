"""Tests for the N-Triples parser and serializer."""

import pytest
from hypothesis import given, strategies as st

from repro.rdf.model import Dataset, Triple
from repro.rdf.ntriples import (
    NTriplesParseError,
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
