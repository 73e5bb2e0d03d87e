"""Tests for discovery-result JSON serialization."""

import dataclasses
import itertools
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.cind import capture_code, code_capture, decode_cind, decode_condition
from repro.core.discovery import RDFind, RDFindConfig, find_pertinent_cinds
from repro.core.serialization import (
    ResultEncoder,
    dump_result,
    load_result,
    parse_result_dict,
    result_pieces,
)
from repro.rdf.model import Dataset
from repro.sparql import QueryMinimizer, lubm_q2
from tests.conftest import random_rdf
from tests.result_oracle import result_json, result_to_dict


@pytest.fixture(scope="module")
def result():
    return find_pertinent_cinds(random_rdf(990, n_triples=45).encode(), support_threshold=2)


def dumped(result, directory) -> str:
    """What ``dump_result`` writes for ``result``, read back as text."""
    path = directory / "result.json"
    dump_result(result, path)
    return path.read_bytes().decode("utf-8")


def joined(result, blocks: bool) -> str:
    """``result`` through the row-level entry point, pieces joined.

    Row by row keyed by the captures themselves, or — the stream's way —
    keyed by capture codes, the rows of a dependent joined into one block.
    """
    if not blocks:
        rows = ResultEncoder(result.dictionary.decode)
        cinds = rows.cind_rows(result.cinds)
    else:
        rows = ResultEncoder(result.dictionary.decode, code_capture)
        cinds = (
            ",\n".join(
                rows.cind_rows(
                    ((capture_code(dep), capture_code(ref)), support)
                    for (dep, ref), support in block
                )
            )
            for _dependent, block in itertools.groupby(
                result.cinds, key=lambda sc: sc.cind.dependent
            )
        )
    return "".join(
        result_pieces(
            result.support_threshold,
            result.config.variant_name,
            cinds,
            rows.rule_rows(result.association_rules),
        )
    )


def decoded_rows(result):
    """The result's CINDs and ARs over term strings, as comparable sets."""
    dictionary = result.dictionary
    return (
        {(decode_cind(sc.cind, dictionary), sc.support) for sc in result.cinds},
        {
            (
                decode_condition(sa.rule.lhs, dictionary),
                decode_condition(sa.rule.rhs, dictionary),
                sa.support,
            )
            for sa in result.association_rules
        },
    )


class TestRoundtrip:
    def test_header_fields(self, result):
        payload = result_to_dict(result)
        assert payload["format"] == "rdfind-result"
        assert payload["support_threshold"] == 2
        assert payload["variant"] == "RDFind"

    def test_cinds_roundtrip_decoded(self, result):
        cinds, rules, h = parse_result_dict(result_to_dict(result))
        assert h == 2
        expected_cinds, expected_rules = decoded_rows(result)
        assert {(sc.cind, sc.support) for sc in cinds} == expected_cinds
        assert {
            (sa.rule.lhs, sa.rule.rhs, sa.support) for sa in rules
        } == expected_rules

    def test_file_roundtrip(self, result, tmp_path):
        path = tmp_path / "result.json"
        dump_result(result, path)
        cinds, rules, h = load_result(path)
        assert len(cinds) == len(result.cinds)
        assert len(rules) == len(result.association_rules)
        assert h == 2
        # the document must be plain JSON
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle)["format"] == "rdfind-result"

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            parse_result_dict({"format": "something-else"})
        with pytest.raises(ValueError):
            parse_result_dict({"format": "rdfind-result", "version": 99})


#: Every escaping class of the JSON string grammar, and what
#: ``ensure_ascii=False`` must pass through raw: quote, backslash, named
#: and \u-escaped control characters, DEL, non-ASCII, the JS line
#: separators and astral code points.
_NASTY = ['"', "\\", "\n", "\t", "\r", "\b", "\f", "\x00", "\x1f", "\x7f",
          "é", "ß", "日", "\u2028", "\u2029", "\ufeff", "😀", "𝔘", "/", " "]
_terms = st.lists(
    st.text(
        alphabet=st.one_of(
            st.sampled_from(_NASTY),
            st.characters(blacklist_categories=("Cs",)),
        ),
        max_size=5,
    ),
    min_size=2,
    max_size=6,
    unique=True,
)
_VARIANTS = [
    RDFindConfig,
    RDFindConfig.direct_extraction,
    RDFindConfig.no_frequent_conditions,
]


class TestEncoderBytes:
    """``write_result`` against the document-building oracle, byte for byte."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        data=st.data(),
        terms=_terms,
        variant=st.sampled_from(_VARIANTS),
        h=st.integers(min_value=1, max_value=3),
    )
    def test_bytes_equal_indented_json_of_the_oracle_dict(
        self, data, terms, variant, h, tmp_path_factory
    ):
        term = st.sampled_from(terms)
        rows = data.draw(
            st.lists(st.tuples(term, term, term), min_size=1, max_size=30)
        )
        result = RDFind(variant(support_threshold=h)).discover(
            Dataset.from_tuples(rows)
        )
        text = dumped(result, tmp_path_factory.mktemp("encoder"))
        assert text == result_json(result)
        assert joined(result, blocks=data.draw(st.booleans())) == text

        cinds, rules, parsed_h = parse_result_dict(json.loads(text))
        assert parsed_h == h
        expected_cinds, expected_rules = decoded_rows(result)
        assert {(sc.cind, sc.support) for sc in cinds} == expected_cinds
        assert {
            (sa.rule.lhs, sa.rule.rhs, sa.support) for sa in rules
        } == expected_rules

    @pytest.mark.parametrize("keep_cinds", [False, True])
    @pytest.mark.parametrize("keep_rules", [False, True])
    def test_empty_lists_are_written_inline(self, keep_cinds, keep_rules, tmp_path):
        from repro.datasets import lubm

        full = find_pertinent_cinds(lubm(scale=0.1).encode(), support_threshold=5)
        assert full.cinds and full.association_rules
        result = dataclasses.replace(
            full,
            blocks=full.blocks if keep_cinds else [],
            association_rules=full.association_rules if keep_rules else [],
        )
        text = dumped(result, tmp_path)
        assert text == result_json(result)
        assert joined(result, blocks=False) == joined(result, blocks=True) == text
        assert ('"cinds": []' in text) == (not keep_cinds)
        assert ('"association_rules": []' in text) == (not keep_rules)

    def test_rows_beyond_one_write_chunk(self, tmp_path):
        """More rows than the encoder joins per write: the seams are commas."""
        result = find_pertinent_cinds(
            random_rdf(7, n_triples=400, n_subjects=40, n_objects=40).encode(),
            support_threshold=1,
        )
        assert len(result.cinds) > 2 * 4096
        assert dumped(result, tmp_path) == result_json(result)
        assert joined(result, blocks=False) == result_json(result)
        assert joined(result, blocks=True) == result_json(result)
        # Blocks cross a seam too: the same rows two to a block.
        encoder = ResultEncoder(result.dictionary.decode)
        rows = list(encoder.cind_rows(result.cinds))
        pairs = (",\n".join(rows[at : at + 2]) for at in range(0, len(rows), 2))
        pieces = result_pieces(
            result.support_threshold,
            result.config.variant_name,
            pairs,
            encoder.rule_rows(result.association_rules),
        )
        assert "".join(pieces) == result_json(result)


@pytest.fixture(scope="module")
def many_rows():
    """A result of more than 2 x 4,096 CINDs."""
    result = find_pertinent_cinds(
        random_rdf(7, n_triples=400, n_subjects=40, n_objects=40).encode(),
        support_threshold=1,
    )
    assert len(result.cinds) > 2 * 4096 and result.association_rules
    return result


class TestBlockWriter:
    """``write_result`` writes one string per block, whatever the blocks."""

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=600), min_size=1, max_size=8),
        keep_cinds=st.booleans(),
        keep_rules=st.booleans(),
    )
    def test_blocks_of_any_size_write_the_oracle_bytes(
        self, many_rows, sizes, keep_cinds, keep_rules, tmp_path_factory
    ):
        """The result's rows re-cut into blocks of ``sizes`` refs in turn:
        a block names its first row's dependent and support."""
        rows = [
            (dependent, support, referenced)
            for dependent, support, refs in many_rows.blocks
            for referenced in refs
        ]
        blocks, at = [], 0
        for size in itertools.cycle(sizes):
            if at >= len(rows) or not keep_cinds:
                break
            cut = rows[at : at + size]
            blocks.append((cut[0][0], cut[0][1], [ref for _d, _s, ref in cut]))
            at += size
        result = dataclasses.replace(
            many_rows,
            blocks=blocks,
            association_rules=many_rows.association_rules if keep_rules else [],
        )
        text = dumped(result, tmp_path_factory.mktemp("blocks"))
        assert text == result_json(result)
        assert ('"cinds": []' in text) == (not keep_cinds)
        assert ('"association_rules": []' in text) == (not keep_rules)


class TestMalformedDocuments:
    """A damaged document is a ``ValueError``, whatever the damage."""

    @pytest.fixture
    def payload(self):
        def row():
            return {
                "dep": {"attr": "s", "cond": [["p", "a"], ["o", "b"]]},
                "ref": {"attr": "s", "cond": [["p", "c"]]},
                "support": 2,
            }

        payload = {
            "format": "rdfind-result",
            "version": 1,
            "support_threshold": 2,
            "variant": "RDFind",
            "cinds": [row(), row()],
            "association_rules": [
                {"lhs": ["o", "b"], "rhs": ["p", "a"], "support": 2}
            ],
        }
        cinds, rules, _h = parse_result_dict(payload)
        assert len(cinds) == 2 and len(rules) == 1
        return payload

    def test_not_an_object(self):
        for document in ([], "rdfind-result", 7, None):
            with pytest.raises(ValueError):
                parse_result_dict(document)

    @pytest.mark.parametrize("key", ["dep", "ref", "support"])
    def test_cind_row_missing_a_key(self, payload, key):
        del payload["cinds"][0][key]
        with pytest.raises(ValueError):
            parse_result_dict(payload)

    @pytest.mark.parametrize("key", ["lhs", "rhs", "support"])
    def test_rule_row_missing_a_key(self, payload, key):
        del payload["association_rules"][0][key]
        with pytest.raises(ValueError):
            parse_result_dict(payload)

    @pytest.mark.parametrize(
        "cond",
        [
            [],
            [["p"]],
            [["p", "a", "b"]],
            [["p", "a"], ["o", "b"], ["s", "c"]],
            [["p", "a"], ["p", "b"]],
            [["x", "a"]],
            [[7, "a"]],
            [7],
            7,
            None,
        ],
    )
    def test_wrong_arity_or_type_in_cond(self, payload, cond):
        payload["cinds"][0]["dep"]["cond"] = cond
        with pytest.raises(ValueError):
            parse_result_dict(payload)

    @pytest.mark.parametrize("row", [None, 7, "dep", ["dep", "ref", "support"]])
    def test_row_is_not_an_object(self, payload, row):
        payload["cinds"][0] = row
        with pytest.raises(ValueError):
            parse_result_dict(payload)
        payload["cinds"] = payload["cinds"][1:]
        payload["association_rules"][0] = row
        with pytest.raises(ValueError):
            parse_result_dict(payload)

    @pytest.mark.parametrize("rows", [None, 7, {"dep": 1}])
    def test_row_list_is_not_a_list(self, payload, rows):
        payload["cinds"] = rows
        with pytest.raises(ValueError):
            parse_result_dict(payload)

    @pytest.mark.parametrize("support", [None, "many", [3]])
    def test_support_is_not_a_number(self, payload, support):
        payload["cinds"][0]["support"] = support
        with pytest.raises(ValueError):
            parse_result_dict(payload)


class TestReuseInMinimizer:
    def test_loaded_result_drives_the_minimizer(self, tmp_path):
        """Discover once, save, reload, minimize — the advertised flow."""
        from repro.datasets import lubm
        from repro.core.cind import AssociationRule

        dataset = lubm(scale=0.25)
        result = find_pertinent_cinds(dataset.encode(), support_threshold=5)
        path = tmp_path / "lubm-cinds.json"
        dump_result(result, path)

        cinds, rules, _h = load_result(path)
        minimizer = QueryMinimizer(
            (sc.cind for sc in cinds),
            (AssociationRule(sa.rule.lhs, sa.rule.rhs) for sa in rules),
        )
        report = minimizer.minimize(lubm_q2())
        assert len(report.minimized.patterns) == 3
