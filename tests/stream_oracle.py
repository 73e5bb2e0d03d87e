"""The stream document rebuilt from nothing but the live state.

What ``StreamingRDFind.document_json()`` did per query before it kept
its rows, positions, rules and blocks between queries: intersect every
row afresh, join the exact ARs over every frequent condition, filter the
AR-embedding captures out, consolidate, walk the whole store for every
term's first occurrence, sort every row and encode the lot.  It reads
the live triples, the maintainer's evidence (groups, witnesses) and none
of its caches or condition frequencies, so it is the reference the
incremental document must equal byte for byte at every point.
"""

from collections import Counter
from itertools import chain

from repro.core.cind import (
    AssociationRule,
    SupportedAR,
    code_capture,
)
from repro.core.conditions import UnaryCondition, conditions_of_triple, is_binary
from repro.core.serialization import ResultEncoder, result_pieces
from repro.rdf.model import Attr
from repro.streaming.maintainer import BATCH_VARIANT
from tests.result_oracle import consolidate_pertinent


def full_intersection(maintainer, code):
    """Lemma 3, literally: every group of the capture's values, intersected."""
    groups = [maintainer._groups[value] for value in maintainer._witnesses[code]]
    return frozenset(set.intersection(*groups) - {code})


def holders_from_scratch(maintainer):
    """The transpose of the cached rows: capture -> the dependents whose
    row holds it (so no capture maps to an empty set)."""
    holders = {}
    for dependent, row in maintainer._refs_cache.items():
        for code in row:
            holders.setdefault(code, set()).add(dependent)
    return holders


def rows_from_scratch(maintainer):
    """``broad_cinds()`` with no cache: every row intersected afresh.

    The maintainer holds capture codes; they are decoded here, at the
    assertion.
    """
    rows = {}
    for code, values in maintainer._witnesses.items():
        if len(values) >= maintainer.h:
            refs = full_intersection(maintainer, code)
            if refs:
                rows[code_capture(code)] = (
                    frozenset(map(code_capture, refs)),
                    len(values),
                )
    return rows


def rules_from_scratch(maintainer):
    """Exact ARs: the join over every frequent binary condition.

    The frequencies are counted afresh from the live triples, not read
    from the maintainer's postings or counts, so a miscount there shows.
    """
    frequencies = Counter(
        chain.from_iterable(
            conditions_of_triple(triple, maintainer.scope)
            for triple in maintainer.store.live()
        )
    )
    rules = []
    for condition, count in frequencies.items():
        if not is_binary(condition) or count < maintainer.h:
            continue
        first = UnaryCondition(Attr(condition[0]), condition[1])
        second = UnaryCondition(Attr(condition[2]), condition[3])
        if frequencies[first] == count:
            rules.append(SupportedAR(AssociationRule(first, second), count))
        if frequencies[second] == count:
            rules.append(SupportedAR(AssociationRule(second, first), count))
    return rules


def document_from_scratch(maintainer):
    """The result document of the live triples, nothing reused."""
    rules = rules_from_scratch(maintainer)
    pruned = {sar.rule.binary_condition for sar in rules}
    filtered = {}
    for dependent, (refs, support) in rows_from_scratch(maintainer).items():
        if dependent.condition in pruned:
            continue
        kept = frozenset(ref for ref in refs if ref.condition not in pruned)
        if kept:
            filtered[dependent] = (kept, support)
    cinds = consolidate_pertinent(filtered)

    flat = list(chain.from_iterable(maintainer.store.live()))
    # Written back to front, so a term's first position is what stays.
    first = dict(zip(reversed(flat), range(len(flat), 0, -1)))

    def positioned(condition):
        if is_binary(condition):
            attr1, value1, attr2, value2 = condition
            return (attr1, first[value1], attr2, first[value2])
        return (condition.attr, first[condition.value])

    def capture_key(capture):
        return (capture.attr, positioned(capture.condition))

    cinds.sort(
        key=lambda sc: (
            -sc.support,
            capture_key(sc.cind.dependent),
            capture_key(sc.cind.referenced),
        )
    )
    rules.sort(
        key=lambda sar: (
            -sar.support,
            positioned(sar.rule.lhs),
            positioned(sar.rule.rhs),
        )
    )
    encoder = ResultEncoder(maintainer.dictionary.decode)
    rows = encoder.cind_rows(cinds), encoder.rule_rows(rules)
    return "".join(result_pieces(maintainer.h, BATCH_VARIANT, *rows))
