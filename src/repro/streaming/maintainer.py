"""StreamingRDFind: pertinent-CIND maintenance under adds *and* removes.

Re-running discovery from scratch per update batch is wasteful, so this
module maintains the discovery state incrementally:

* exact condition frequencies and per-condition posting lists, so that a
  condition *crossing* the support threshold back-fills its captures from
  the already-seen triples (the subtle part of maintaining the
  frequent-condition pruning online);
* capture groups (Lemma 3's structure), interpretations and capture
  supports;
* a per-dependent cache of referenced-capture intersections, invalidated
  only for captures whose groups changed — the *dirty set*.  A triple
  touches at most three groups, so typical updates re-derive only a small
  fraction of the adjacency (values with giant groups, e.g. ``rdf:type``,
  dirty more — skew hurts incrementality exactly as it hurts the batch
  extractor).

Every one of these structures can grow and shrink.

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

Either way, a touched group dirties only its own members, so a query
re-derives referenced sets for the few dependents an update actually
reached.

Two query surfaces:

* :meth:`pertinent_cinds` — the maintainer's native semantics (no
  AR-equivalence rewriting), validated against
  ``NaiveProfiler(..., prune_ar_equivalents=False)``;
* :meth:`batch_result` / :meth:`result_document` — the *batch pipeline's*
  semantics, derived on demand: exact association rules from the
  maintained frequencies, AR-embedding binary captures filtered out of
  the adjacency, and the document re-encoded through a fresh dictionary
  in materialization order so it is **byte-identical** to
  ``rdfind discover -o`` on the materialized dataset.  (The batch
  pipeline bakes AR rewriting into its capture groups; here an AR can be
  broken by a later delta, so the rewrite must stay at query time.)
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, fields
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from repro.core.cind import (
    AssociationRule,
    Capture,
    SupportedAR,
    SupportedCIND,
    decode_capture,
    decode_condition,
)
from repro.core.conditions import (
    BinaryCondition,
    Condition,
    ConditionScope,
    UnaryCondition,
    conditions_of_triple,
    is_binary,
)
from repro.core.minimality import consolidate_pertinent
from repro.core.serialization import (
    FORMAT_NAME,
    FORMAT_VERSION,
    _capture_to_json,
    _condition_to_json,
)
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
        """A condition dropped *below* h: tear its captures down whole.

        Every member of every group a torn capture sat in may have cached
        this capture in its referenced set, so each touched group is
        dirtied before the capture leaves it.
        """
        self._active.discard(condition)
        self.stats.conditions_deactivated += 1
        used = set(condition.attrs)
        for attr in self.scope.projection_attrs:
            if attr in used:
                continue
            capture = Capture(attr, condition)
            for value in self._interpretations.pop(capture, ()):
                group = self._groups[value]
                self._dirty.update(group)
                group.discard(capture)
                if not group:
                    del self._groups[value]
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
            self._interpretations.setdefault(capture, set()).add(value)
            group = self._groups.setdefault(value, set())
            group.add(capture)
            # The group's membership changed: every member's cached
            # referenced set may be stale.
            self._dirty.update(group)
            self.stats.evidences_applied += 1

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
            group = self._groups[value]
            # Dirty while the capture is still a member: the leaver's own
            # refs may grow (fewer values to intersect over) and every
            # other member may lose the leaver from its refs.
            self._dirty.update(group)
            group.discard(capture)
            if not group:
                del self._groups[value]
            interpretation = self._interpretations[capture]
            interpretation.discard(value)
            if not interpretation:
                del self._interpretations[capture]
                del self._evidence[capture]
            self.stats.evidences_retracted += 1

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

    def result_document(self) -> Dict:
        """The batch-identical result document for the live dataset.

        Byte-for-byte what ``rdfind discover -o`` writes for the
        materialized dataset.  The streaming dictionary retains ids for
        terms only dead triples ever used, so its id order differs from
        a cold batch encode; the document therefore re-encodes every
        result through a fresh dictionary built in materialization order
        and sorts with the batch keys in that id space.
        """
        cinds, rules = self.batch_result()
        fresh = TermDictionary()
        decode = self.dictionary.decode
        for s, p, o in self.store.live():
            fresh.encode(decode(s))
            fresh.encode(decode(p))
            fresh.encode(decode(o))

        def recode_condition(condition: Condition) -> Condition:
            decoded = decode_condition(condition, self.dictionary)
            if isinstance(decoded, UnaryCondition):
                return UnaryCondition(
                    decoded.attr, fresh.encode_existing(decoded.value)
                )
            return BinaryCondition(
                decoded.attr1,
                fresh.encode_existing(decoded.value1),
                decoded.attr2,
                fresh.encode_existing(decoded.value2),
            )

        def recode_capture(capture: Capture) -> Capture:
            return Capture(capture.attr, recode_condition(capture.condition))

        recoded_cinds = sorted(
            (
                SupportedCIND(
                    type(sc.cind)(
                        recode_capture(sc.cind.dependent),
                        recode_capture(sc.cind.referenced),
                    ),
                    sc.support,
                )
                for sc in cinds
            ),
            key=lambda sc: (-sc.support, sc.cind),
        )
        recoded_rules = sorted(
            (
                SupportedAR(
                    AssociationRule(
                        recode_condition(sar.rule.lhs),
                        recode_condition(sar.rule.rhs),
                    ),
                    sar.support,
                )
                for sar in rules
            ),
            key=lambda sar: (-sar.support, sar.rule),
        )
        return {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "support_threshold": self.h,
            "variant": BATCH_VARIANT,
            "cinds": [
                {
                    "dep": _capture_to_json(
                        decode_capture(sc.cind.dependent, fresh)
                    ),
                    "ref": _capture_to_json(
                        decode_capture(sc.cind.referenced, fresh)
                    ),
                    "support": sc.support,
                }
                for sc in recoded_cinds
            ],
            "association_rules": [
                {
                    "lhs": _condition_to_json(
                        decode_condition(sar.rule.lhs, fresh)
                    )[0],
                    "rhs": _condition_to_json(
                        decode_condition(sar.rule.rhs, fresh)
                    )[0],
                    "support": sar.support,
                }
                for sar in recoded_rules
            ],
        }

    def document_json(self) -> str:
        """:meth:`result_document` serialized exactly like ``dump_result``."""
        return json.dumps(self.result_document(), ensure_ascii=False, indent=1)

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
