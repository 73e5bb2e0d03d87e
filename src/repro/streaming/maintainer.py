"""StreamingRDFind: pertinent-CIND maintenance under adds *and* removes.

Re-running discovery from scratch per update batch is wasteful, so this
module maintains the discovery state incrementally:

* per-condition posting sets — their sizes are the exact condition
  frequencies — so that a condition *crossing* the support threshold
  back-fills its captures from the already-seen triples (the subtle part
  of maintaining the frequent-condition pruning online);
* capture groups (Lemma 3's structure) and, per capture, its live-witness
  counts, whose key view is the interpretation and whose size the support;
* a per-dependent cache of referenced-capture intersections (*rows*),
  kept exact per evidence event instead of re-derived per group.

Every one of these structures can grow and shrink.  Inside, a capture is
its :func:`repro.core.cind.capture_code` int and a condition a plain int
tuple, from the moment a triple arrives until a query is answered; which
captures a condition feeds is a per-scope plan computed once, so an
evidence event is shifts, an ``or``, two dict lookups and a set add.
``Capture`` objects exist at one boundary only: :meth:`broad_cinds`
decodes its rows through a per-maintainer memo, one object per code.

The cache invariant — every cached row not in the *dirty set* equals
what :meth:`StreamingRDFind._refs_of` would compute now — is maintained
straight from Lemma 3 (``c ⊆ c'`` iff ``c'`` is in every capture group
that holds ``c``).  One event changes one ``(capture, value)`` pair:

* capture ``c`` **gains** value ``v``: ``c``'s clean row becomes
  ``row ∩ group[v]`` (no clean row — new, below h, already dirty — marks
  ``c`` dirty); every *other* member ``d`` of ``group[v]`` with a cached
  row gains ``c`` iff ``I(d) ⊆ I(c)`` (it cannot have held ``c`` before:
  ``v ∈ I(d)``, ``v ∉ I(c)``);
* capture ``c`` **loses** ``v``: every other member of ``group[v]`` with
  a cached row drops ``c``; only ``c`` itself is marked dirty, because
  its row may grow;
* capture ``c`` is **torn down** (its condition fell below h): the loss
  rule for each of its values.

Per-event work is bounded by the members that hold a cached row, not by
group size, so a bulk load (nothing cached yet) pays nothing and a query
recomputes only the captures that lost a value, reached h or were
(re)built — ``MaintenanceStats.dependents_recomputed`` counts those.

Monotonicity is what keeps a delta cheap: within one delta class, every
quantity moves in only one direction, so only that direction is checked.

* An **add** can only *raise* condition frequencies (so only the
  crossed-below-h → activate transition is tested), only *grow*
  interpretations and groups, and only *add* evidence — per
  ``(capture, value)`` the live-witness count goes up.
* A **remove** can only *lower* frequencies (only the dropped-below-h →
  deactivate transition is tested), only *shrink* interpretations and
  groups, and only *retract* evidence — a value leaves an interpretation
  exactly when its witness count hits zero.

Two query surfaces:

* :meth:`pertinent_cinds` — the maintainer's native semantics (no
  AR-equivalence rewriting), validated against
  ``NaiveProfiler(..., prune_ar_equivalents=False)``;
* :meth:`batch_result` / :meth:`result_document` /
  :meth:`document_json` — the *batch pipeline's* semantics, derived on
  demand: exact association rules from the maintained frequencies,
  AR-embedding binary captures filtered out of the adjacency, the rows
  ordered by each term's first occurrence in live insertion order (the
  id order of a cold batch encode) and written by the one result
  encoder, so the document is **byte-identical** to
  ``rdfind discover -o`` on the materialized dataset.  (The batch
  pipeline bakes AR rewriting into its capture groups; here an AR can be
  broken by a later delta, so the rewrite must stay at query time.)
"""

from __future__ import annotations

import io
from dataclasses import dataclass, fields
from itertools import chain, combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from repro.core.cind import (
    AssociationRule,
    Capture,
    SupportedAR,
    SupportedCIND,
    capture_code,
    code_capture,
)
from repro.core.conditions import (
    Condition,
    ConditionScope,
    UnaryCondition,
    is_binary,
)
from repro.core.extraction import BroadCINDs, _Memo
from repro.core.minimality import consolidate_pertinent
from repro.core.serialization import write_result
from repro.rdf.model import (
    ALL_ATTRS,
    Attr,
    Dataset,
    EncodedDataset,
    EncodedTriple,
    TermDictionary,
    Triple,
)
from repro.streaming.delta import DeltaStore

__all__ = ["MaintenanceStats", "StreamingRDFind"]

TripleLike = Union[Triple, Tuple[str, str, str]]

#: The variant label the batch pipeline stamps into result documents for
#: its default configuration (the one the streaming document mirrors).
BATCH_VARIANT = "RDFind"

#: What a condition shape feeds: ``(α, low code bits)`` per capture.
Feeds = Tuple[Tuple[int, int], ...]


@dataclass
class MaintenanceStats:
    """Work counters across a maintainer's lifetime."""

    triples_added: int = 0
    triples_removed: int = 0
    duplicates_ignored: int = 0
    removals_ignored: int = 0
    conditions_activated: int = 0
    conditions_deactivated: int = 0
    evidences_applied: int = 0
    evidences_retracted: int = 0
    dependents_recomputed: int = 0
    compactions: int = 0
    queries: int = 0

    def to_dict(self) -> Dict[str, int]:
        """JSON-safe rendering of every counter.

        Mirrors :meth:`repro.dataflow.metrics.StageMetrics.to_dict`:
        plain ints under the field names, so the job server can stream
        maintenance progress exactly like it streams job metrics.
        """
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}


def _fed(condition: Tuple[int, ...], feeds: Feeds) -> List[Tuple[int, int]]:
    """``(α, capture code)`` of every capture ``condition`` feeds."""
    if len(condition) == 2:
        base = condition[1] << 4
    else:
        base = ((condition[3] + 1) << 36) | (condition[1] << 4)
    return [(alpha, base | low) for alpha, low in feeds]


class StreamingRDFind:
    """Maintains pertinent CINDs across triple insertions and removals.

    >>> maintainer = StreamingRDFind(h=2)
    >>> maintainer.add(("patrick", "rdf:type", "gradStudent"))
    True
    >>> maintainer.remove(("patrick", "rdf:type", "gradStudent"))
    True
    >>> maintainer.remove(("patrick", "rdf:type", "gradStudent"))
    False
    >>> maintainer.pertinent_cinds()
    []
    """

    def __init__(
        self,
        h: int,
        scope: Optional[ConditionScope] = None,
        store: Optional[DeltaStore] = None,
    ) -> None:
        if h < 1:
            raise ValueError(f"support threshold must be >= 1, got {h}")
        self.h = h
        self.scope = scope if scope is not None else ConditionScope.full()
        self.store = store if store is not None else DeltaStore()
        self.stats = MaintenanceStats()

        # The per-scope plan: each condition shape (β, γ) — γ None for a
        # unary one, in ``conditions_of_triple`` order — with its feeds.
        attrs = [int(a) for a in ALL_ATTRS if a in self.scope.condition_attrs]
        shapes = [(beta, None) for beta in attrs]
        if self.scope.allow_binary:
            shapes.extend(combinations(attrs, 2))
        projections = sorted(map(int, self.scope.projection_attrs))
        self._plan: Tuple[Tuple[int, Optional[int], Feeds], ...] = tuple(
            (
                beta,
                gamma,
                tuple(
                    (alpha, (alpha << 2) | (beta if gamma is None else 3))
                    for alpha in projections
                    if alpha != beta and alpha != gamma
                ),
            )
            for beta, gamma in shapes
        )

        #: condition -> ids of the live triples satisfying it; its size
        #: is the condition's frequency.
        self._postings: Dict[Tuple[int, ...], Set[int]] = {}
        self._active: Set[Tuple[int, ...]] = set()

        # Lemma 3 structures over capture codes: value -> captures, and
        # capture -> value -> live-witness count (how many live triples
        # put the value into the capture's interpretation; it retracts
        # exactly when the count hits zero).  The key view of a capture's
        # witness dict *is* its interpretation.
        self._groups: Dict[int, Set[int]] = {}
        self._witnesses: Dict[int, Dict[int, int]] = {}

        self._dirty: Set[int] = set()
        self._refs_cache: Dict[int, FrozenSet[int]] = {}
        #: code -> its Capture, one object per distinct code (as the batch
        #: extractor decodes its result).
        self._decoded = _Memo(code_capture)

    @property
    def dictionary(self) -> TermDictionary:
        return self.store.dictionary

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def _conditions(self, triple: EncodedTriple) -> List[Tuple[Tuple[int, ...], Feeds]]:
        """Every in-scope condition of ``triple`` with its shape's feeds."""
        return [
            (
                (beta, triple[beta])
                if gamma is None
                else (beta, triple[beta], gamma, triple[gamma]),
                feeds,
            )
            for beta, gamma, feeds in self._plan
        ]

    def add(self, triple: TripleLike) -> bool:
        """Insert one triple; returns ``False`` for duplicates."""
        return self.add_encoded(self.dictionary.encode_triple(triple))

    def add_encoded(self, encoded: EncodedTriple) -> bool:
        """:meth:`add` for a triple of this dictionary's ids (the one path)."""
        triple_id = self.store.add_encoded(encoded)
        if triple_id is None:
            self.stats.duplicates_ignored += 1
            return False
        self.stats.triples_added += 1
        postings, active, h = self._postings, self._active, self.h
        for condition, feeds in self._conditions(encoded):
            posting = postings.get(condition)
            if posting is None:
                posting = postings[condition] = set()
            posting.add(triple_id)
            if condition in active:
                for alpha, code in _fed(condition, feeds):
                    self._gain(code, encoded[alpha])
            elif len(posting) >= h:
                self._activate(condition, feeds)
        return True

    def remove(self, triple: TripleLike) -> bool:
        """Retract one triple; returns ``False`` if it is not present."""
        removed = self.store.remove(triple)
        if removed is None:
            self.stats.removals_ignored += 1
            return False
        triple_id, encoded = removed
        self.stats.triples_removed += 1
        postings, active, h = self._postings, self._active, self.h
        for condition, feeds in self._conditions(encoded):
            posting = postings[condition]
            posting.discard(triple_id)
            if not posting:
                del postings[condition]
            if condition in active:
                if len(posting) < h:
                    self._deactivate(condition, feeds)
                else:
                    for alpha, code in _fed(condition, feeds):
                        self._lose(code, encoded[alpha])
        return True

    def add_all(self, triples: Iterable[TripleLike]) -> int:
        """Insert many triples; returns how many were new."""
        return sum(1 for triple in triples if self.add(triple))

    def apply(self, op: str, triple: TripleLike) -> bool:
        """Dispatch one ``add``/``remove`` delta (the changelog's ops)."""
        if op == "add":
            return self.add(triple)
        if op == "remove":
            return self.remove(triple)
        raise ValueError(f"unknown delta op {op!r} (use add/remove)")

    # -- threshold transitions -----------------------------------------

    def _activate(self, condition: Tuple[int, ...], feeds: Feeds) -> None:
        """A condition crossed *up* to h: back-fill from live postings."""
        self._active.add(condition)
        self.stats.conditions_activated += 1
        fed = _fed(condition, feeds)
        triple_of = self.store.triple
        for triple_id in self._postings[condition]:
            triple = triple_of(triple_id)
            for alpha, code in fed:
                self._gain(code, triple[alpha])

    def _deactivate(self, condition: Tuple[int, ...], feeds: Feeds) -> None:
        """A condition dropped *below* h: tear its captures down whole."""
        self._active.discard(condition)
        self.stats.conditions_deactivated += 1
        for _alpha, code in _fed(condition, feeds):
            for value in self._witnesses.pop(code, ()):
                self._leave_group(code, value)
            self._dirty.add(code)

    # -- per-triple evidence -------------------------------------------

    def _gain(self, capture: int, value: int) -> None:
        """One more live triple puts ``value`` into ``capture``."""
        witnesses = self._witnesses.get(capture)
        if witnesses is None:
            witnesses = self._witnesses[capture] = {}
        count = witnesses.get(value)
        if count:
            witnesses[value] = count + 1
            return
        witnesses[value] = 1
        group = self._groups.get(value)
        if group is None:
            group = self._groups[value] = set()
        group.add(capture)
        self.stats.evidences_applied += 1
        # The gainer's own row can only shrink, to members of the
        # group it joined; with no clean row to shrink it is dirty.
        cache = self._refs_cache
        row = cache.get(capture)
        if row is None or capture in self._dirty:
            self._dirty.add(capture)
        else:
            cache[capture] = row & group
        # Any other member gains the gainer iff its interpretation is
        # now covered.  The keys-view intersection walks the smaller
        # side in C: an empty cache (bulk load) or a giant group of
        # uncached captures costs no per-member work.
        interpretation = witnesses.keys()
        for member in cache.keys() & group:
            if member != capture and self._witnesses[member].keys() <= interpretation:
                cache[member] = cache[member] | {capture}

    def _lose(self, capture: int, value: int) -> None:
        """One witness of ``value`` in ``capture`` is gone."""
        witnesses = self._witnesses[capture]
        remaining = witnesses[value] - 1
        if remaining:
            witnesses[value] = remaining
            return
        del witnesses[value]
        if not witnesses:
            del self._witnesses[capture]
        self._leave_group(capture, value)
        # The leaver's own row may grow (fewer groups to intersect).
        self._dirty.add(capture)
        self.stats.evidences_retracted += 1

    def _leave_group(self, capture: int, value: int) -> None:
        """``capture`` lost ``value``: it leaves the group and its members' rows."""
        group = self._groups[value]
        group.discard(capture)
        if not group:
            del self._groups[value]
            return
        cache = self._refs_cache
        for member in cache.keys() & group:
            row = cache[member]
            if capture in row:
                cache[member] = row - {capture}

    # ------------------------------------------------------------------
    # queries (maintainer semantics: no AR rewriting)
    # ------------------------------------------------------------------

    def capture_support(self, capture: Capture) -> int:
        """Current support (interpretation size) of a capture."""
        return len(self._witnesses.get(capture_code(capture), ()))

    def _refs_of(self, dependent: int) -> FrozenSet[int]:
        """Exact referenced set: intersection over the dependent's groups."""
        groups = map(self._groups.__getitem__, self._witnesses[dependent])
        refs = set.intersection(*sorted(groups, key=len))  # smallest first
        refs.discard(dependent)
        return frozenset(refs)

    def broad_cinds(self) -> BroadCINDs:
        """Current broad CINDs in adjacency form (recomputing dirty rows).

        The one boundary where codes become :class:`Capture` objects.
        """
        self.stats.queries += 1
        witnesses = self._witnesses
        for dependent in self._dirty:
            if len(witnesses.get(dependent, ())) >= self.h:
                self._refs_cache[dependent] = self._refs_of(dependent)
                self.stats.dependents_recomputed += 1
            else:
                self._refs_cache.pop(dependent, None)
        self._dirty.clear()
        decoded = self._decoded
        return {
            decoded[dependent]: (
                frozenset(map(decoded.__getitem__, refs)),
                len(witnesses[dependent]),
            )
            for dependent, refs in self._refs_cache.items()
            if refs
        }

    def pertinent_cinds(self) -> List[SupportedCIND]:
        """Current pertinent (broad and minimal) CINDs."""
        return consolidate_pertinent(self.broad_cinds())

    def render(self, supported: SupportedCIND) -> str:
        """Render a result row with this maintainer's dictionary."""
        return supported.render(self.dictionary)

    # ------------------------------------------------------------------
    # queries (batch semantics: AR rewriting at query time)
    # ------------------------------------------------------------------

    def association_rules(self) -> List[SupportedAR]:
        """Exact ARs among the currently frequent conditions (Lemma 2).

        ``lhs → rhs`` is exact iff ``freq(lhs ∧ rhs) == freq(lhs)``;
        both frequencies are exact (posting-set sizes), so this is a
        pure query-time join over the frequent binary conditions.
        """
        postings = self._postings
        rules: List[SupportedAR] = []
        for condition in self._active:  # exactly the conditions at or above h
            if len(condition) != 4:
                continue
            count = len(postings[condition])
            first = UnaryCondition(Attr(condition[0]), condition[1])
            second = UnaryCondition(Attr(condition[2]), condition[3])
            if len(postings[first]) == count:
                rules.append(SupportedAR(AssociationRule(first, second), count))
            if len(postings[second]) == count:
                rules.append(SupportedAR(AssociationRule(second, first), count))
        rules.sort(key=lambda sar: (-sar.support, sar.rule))
        return rules

    def batch_result(self) -> Tuple[List[SupportedCIND], List[SupportedAR]]:
        """CINDs and ARs under the batch pipeline's semantics.

        The batch pipeline never builds captures over AR-embedding binary
        conditions (their extent equals a unary twin's, Section 5.1).
        Filtering those captures out of the maintained adjacency — as
        dependents and inside referenced sets — yields exactly the batch
        broad set: pruning removes the same members from every group, so
        intersect-then-filter equals filter-then-intersect, and supports
        (dependent interpretation sizes) are untouched.
        """
        rules = self.association_rules()
        pruned = {sar.rule.binary_condition for sar in rules}
        filtered: BroadCINDs = {}
        for dependent, (refs, support) in self.broad_cinds().items():
            if dependent.condition in pruned:
                continue
            kept = frozenset(
                referenced
                for referenced in refs
                if referenced.condition not in pruned
            )
            if kept:
                filtered[dependent] = (kept, support)
        return consolidate_pertinent(filtered), rules

    def result_document(self) -> Tuple[List[SupportedCIND], List[SupportedAR]]:
        """:meth:`batch_result` in the row order of ``rdfind discover -o``.

        The batch pipeline sorts by the ids a cold encode of the
        materialized dataset assigns, and such an id is nothing but the
        rank of the term's first occurrence in live insertion order.  (The
        streaming dictionary keeps ids of terms only dead triples used,
        so its own id order differs.)  One pass over the live id triples
        gives every term's first-occurrence position; the rows are sorted
        with the batch key under those positions and keep their stream
        ids, which :meth:`document_json` decodes.
        """
        cinds, rules = self.batch_result()
        flat = list(chain.from_iterable(self.store.live()))
        # Written back to front, so a term's first position is what stays.
        first = dict(zip(reversed(flat), range(len(flat), 0, -1)))

        def positioned(condition: Condition) -> Tuple[int, ...]:
            """``condition`` with each term id replaced by its position."""
            if is_binary(condition):
                attr1, value1, attr2, value2 = condition
                return (attr1, first[value1], attr2, first[value2])
            return (condition.attr, first[condition.value])

        # One key object per capture: equal keys then compare by identity,
        # and a query allocates per distinct capture, not per row.
        keys: Dict[Capture, Tuple] = {}

        def capture_key(capture: Capture) -> Tuple:
            key = keys.get(capture)
            if key is None:
                key = keys[capture] = (capture.attr, positioned(capture.condition))
            return key

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
        return cinds, rules

    def document_json(self) -> str:
        """The live dataset's result document, byte-identical to batch.

        :meth:`result_document` rows through the one result encoder,
        :func:`repro.core.serialization.write_result`: exactly what
        ``rdfind discover -o`` writes for the materialized dataset.
        """
        cinds, rules = self.result_document()
        buffer = io.StringIO()
        write_result(
            buffer, self.h, BATCH_VARIANT, cinds, rules, self.dictionary.decode
        )
        return buffer.getvalue()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def triples(self) -> int:
        """Number of live triples."""
        return len(self.store)

    def as_dataset(self, name: str = "") -> Dataset:
        """The live triples as a decodable snapshot."""
        return self.store.as_dataset(name=name)

    def materialize(self, name: str = "") -> EncodedDataset:
        """The live triples freshly encoded (see :meth:`DeltaStore.materialize`)."""
        return self.store.materialize(name=name)

    def __repr__(self) -> str:
        return (
            f"<StreamingRDFind h={self.h}: {self.triples:,} live triples, "
            f"{len(self._active):,} active conditions, "
            f"{len(self._dirty):,} dirty captures>"
        )
