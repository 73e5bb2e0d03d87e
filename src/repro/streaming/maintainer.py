"""StreamingRDFind: pertinent-CIND maintenance under adds *and* removes.

Re-running discovery from scratch per update batch is wasteful, so this
module maintains the discovery state incrementally:

* exact condition frequencies and per-condition posting lists, so that a
  condition *crossing* the support threshold back-fills its captures from
  the already-seen triples (the subtle part of maintaining the
  frequent-condition pruning online);
* capture groups (Lemma 3's structure), interpretations and capture
  supports;
* a per-dependent cache of referenced-capture intersections (*rows*),
  kept exact per evidence event instead of re-derived per group.

Every one of these structures can grow and shrink.

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
from collections import Counter
from dataclasses import dataclass, fields
from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from repro.core.cind import AssociationRule, Capture, SupportedAR, SupportedCIND
from repro.core.conditions import (
    Condition,
    ConditionScope,
    conditions_of_triple,
    is_binary,
)
from repro.core.minimality import consolidate_pertinent
from repro.core.serialization import write_result
from repro.rdf.model import (
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

        self._frequencies: Counter = Counter()
        self._postings: Dict[Condition, Set[int]] = {}
        self._active: Set[Condition] = set()

        # Lemma 3 structures: value -> captures, capture -> values.
        self._groups: Dict[int, Set[Capture]] = {}
        self._interpretations: Dict[Capture, Set[int]] = {}
        #: (capture, value) live-witness counts: how many live triples
        #: put ``value`` into ``capture``'s interpretation.  The value
        #: retracts exactly when its count hits zero.
        self._evidence: Dict[Capture, Counter] = {}

        self._dirty: Set[Capture] = set()
        self._refs_cache: Dict[Capture, FrozenSet[Capture]] = {}

    @property
    def dictionary(self) -> TermDictionary:
        return self.store.dictionary

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def add(self, triple: TripleLike) -> bool:
        """Insert one triple; returns ``False`` for duplicates."""
        applied = self.store.add(triple)
        if applied is None:
            self.stats.duplicates_ignored += 1
            return False
        triple_id, encoded = applied
        self.stats.triples_added += 1
        for condition in conditions_of_triple(encoded, self.scope):
            self._frequencies[condition] += 1
            self._postings.setdefault(condition, set()).add(triple_id)
            if condition in self._active:
                self._apply_evidence(condition, encoded)
            elif self._frequencies[condition] >= self.h:
                self._activate(condition)
        return True

    def remove(self, triple: TripleLike) -> bool:
        """Retract one triple; returns ``False`` if it is not present."""
        removed = self.store.remove(triple)
        if removed is None:
            self.stats.removals_ignored += 1
            return False
        triple_id, encoded = removed
        self.stats.triples_removed += 1
        for condition in conditions_of_triple(encoded, self.scope):
            remaining = self._frequencies[condition] - 1
            if remaining:
                self._frequencies[condition] = remaining
            else:
                del self._frequencies[condition]
            postings = self._postings[condition]
            postings.discard(triple_id)
            if not postings:
                del self._postings[condition]
            if condition in self._active:
                if remaining < self.h:
                    self._deactivate(condition)
                else:
                    self._retract_evidence(condition, encoded)
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

    def _activate(self, condition: Condition) -> None:
        """A condition crossed *up* to h: back-fill from live postings."""
        self._active.add(condition)
        self.stats.conditions_activated += 1
        triple_of = self.store.triple
        for triple_id in self._postings[condition]:
            self._apply_evidence(condition, triple_of(triple_id))

    def _deactivate(self, condition: Condition) -> None:
        """A condition dropped *below* h: tear its captures down whole."""
        self._active.discard(condition)
        self.stats.conditions_deactivated += 1
        used = set(condition.attrs)
        for attr in self.scope.projection_attrs:
            if attr in used:
                continue
            capture = Capture(attr, condition)
            for value in self._interpretations.pop(capture, ()):
                self._leave_group(capture, value)
            self._evidence.pop(capture, None)
            self._dirty.add(capture)

    # -- per-triple evidence -------------------------------------------

    def _apply_evidence(self, condition: Condition, triple: EncodedTriple) -> None:
        """One live triple now witnesses ``condition``'s captures."""
        used = set(condition.attrs)
        for attr in self.scope.projection_attrs:
            if attr in used:
                continue
            capture = Capture(attr, condition)
            value = triple[int(attr)]
            witnesses = self._evidence.setdefault(capture, Counter())
            witnesses[value] += 1
            if witnesses[value] > 1:
                continue
            interpretation = self._interpretations.setdefault(capture, set())
            interpretation.add(value)
            group = self._groups.setdefault(value, set())
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
            interpretations = self._interpretations
            for member in cache.keys() & group:
                if member != capture and interpretations[member] <= interpretation:
                    cache[member] = cache[member] | {capture}

    def _retract_evidence(self, condition: Condition, triple: EncodedTriple) -> None:
        """One witness of ``condition``'s captures is gone."""
        used = set(condition.attrs)
        for attr in self.scope.projection_attrs:
            if attr in used:
                continue
            capture = Capture(attr, condition)
            value = triple[int(attr)]
            witnesses = self._evidence[capture]
            remaining = witnesses[value] - 1
            if remaining:
                witnesses[value] = remaining
                continue
            del witnesses[value]
            self._leave_group(capture, value)
            # The leaver's own row may grow (fewer groups to intersect).
            self._dirty.add(capture)
            interpretation = self._interpretations[capture]
            interpretation.discard(value)
            if not interpretation:
                del self._interpretations[capture]
                del self._evidence[capture]
            self.stats.evidences_retracted += 1

    def _leave_group(self, capture: Capture, value: int) -> None:
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
        return len(self._interpretations.get(capture, ()))

    def _refs_of(self, dependent: Capture) -> FrozenSet[Capture]:
        """Exact referenced set: intersection over the dependent's groups."""
        values = self._interpretations[dependent]
        iterator = iter(values)
        refs: Set[Capture] = set(self._groups[next(iterator)])
        for value in iterator:
            refs &= self._groups[value]
            if len(refs) == 1:  # only the dependent itself left
                break
        refs.discard(dependent)
        return frozenset(refs)

    def broad_cinds(self) -> Dict[Capture, Tuple[FrozenSet[Capture], int]]:
        """Current broad CINDs in adjacency form (recomputing dirty rows)."""
        self.stats.queries += 1
        for dependent in self._dirty:
            support = self.capture_support(dependent)
            if support >= self.h:
                self._refs_cache[dependent] = self._refs_of(dependent)
                self.stats.dependents_recomputed += 1
            else:
                self._refs_cache.pop(dependent, None)
        self._dirty.clear()
        return {
            dependent: (refs, self.capture_support(dependent))
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
        both frequencies are maintained exactly, so this is a pure
        query-time join over the frequent binary conditions.
        """
        frequencies = self._frequencies
        h = self.h
        rules: List[SupportedAR] = []
        for condition, count in frequencies.items():
            if count < h or not is_binary(condition):
                continue
            first, second = condition.unary_parts()
            if frequencies.get(first) == count:
                rules.append(SupportedAR(AssociationRule(first, second), count))
            if frequencies.get(second) == count:
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
        filtered: Dict[Capture, Tuple[FrozenSet[Capture], int]] = {}
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
