"""StreamingRDFind: pertinent-CIND maintenance under adds *and* removes.

Re-running discovery from scratch per update batch is wasteful, so this
module maintains the discovery state incrementally:

* per-unary-condition posting sets and per-binary-condition counts —
  the exact condition frequencies — so that a condition *crossing* the
  support threshold back-fills its captures from the already-seen
  triples (a binary one from the meet of its two unary postings; the
  subtle part of maintaining the frequent-condition pruning online);
* capture groups (Lemma 3's structure) and, per capture, its live-witness
  counts, whose key view is the interpretation and whose size the support;
* a per-dependent cache of referenced-capture intersections (*rows*),
  kept exact per evidence event instead of re-derived per group;
* what a result document is made of — first-occurrence positions of the
  terms it names, the exact rules, one rendered block per dependent —
  so that a query costs what changed since the last one.

Every one of these structures can grow and shrink.  Inside, a capture is
its :func:`repro.core.cind.capture_code` int and a condition a plain int
tuple, from the moment a triple arrives until a query is answered; which
captures a condition feeds is a per-scope plan computed once, so an
evidence event is shifts, an ``or``, two dict lookups and a set add.
``Capture`` objects come from a per-maintainer memo, one object per
code: the document decodes what it sorts and renders, and
:meth:`pertinent_cinds` / :meth:`broad_cinds` what they return; the
rows, their minimality and the blocks stay codes.

The cache invariant has two clauses: a cached row outside the *dirty
set* equals Lemma 3's intersection (``c ⊆ c'`` iff ``c'`` is in every
capture group that holds ``c``) as computed now, and a dirty one is a
subset of it — a lower bound that lets :meth:`StreamingRDFind._refs_of`
stop early.  One event changes one ``(capture, value)`` pair:

* capture ``c`` **gains** value ``v``: ``c``'s row, exact or bound,
  becomes ``row ∩ group[v]`` (no row — new, below h — marks ``c``
  dirty); every *other* member ``d`` of ``group[v]`` with a cached row
  gains ``c`` iff ``I(d) ⊆ I(c)`` (it cannot have held ``c`` before:
  ``v ∈ I(d)``, ``v ∉ I(c)``);
* capture ``c`` **loses** ``v``: every other member of ``group[v]`` whose
  row holds ``c`` drops it — ``holders[c] ∩ group[v]``, read off the
  *holder index*, the rows' exact transpose; only ``c`` itself is marked
  dirty, because its row may grow — from what it was, which stays as the
  bound;
* capture ``c`` is **torn down** (its condition fell below h): the loss
  rule for each of its values.

Both rules only remove false and add true members, whatever the row's
state.  Per-event work is bounded by cached rows, not by group size — a
gain tests the group's cached members for coverage, a loss visits only
its holders — and adds arrive in bulk (:meth:`StreamingRDFind.add_all`:
frequencies first, each touched condition looked at once, activations
counted rather than replayed), so a bulk add pays nothing for rows it
does not change — into cold state nothing is cached, into warm state
only cached members of the groups it reaches are looked at — and a
query recomputes only the captures that lost a value, reached h or were
(re)built — ``MaintenanceStats.dependents_recomputed`` counts those.
The holder index also names the rows a flipped association rule makes
stale.  It is derived state, written with the rows and never
checkpointed: a compaction load or a reopen rebuilds it with them.

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

One answer, the *batch pipeline's*: :meth:`document_json` (through
:meth:`result_document` and :meth:`batch_result`) holds exact
association rules from the maintained frequencies, AR-embedding binary
captures filtered out of the adjacency, rows ordered by each term's
first live occurrence (the id order of a cold batch encode) and
rendered by the one result encoder, so the document is
**byte-identical** to ``rdfind discover -o`` on the materialized
dataset.  :meth:`pertinent_cinds` decodes the same blocks, so its rows
and their order are ``DiscoveryResult.cinds`` of that run.  (The batch
pipeline bakes AR rewriting into its capture groups; here an AR can be
broken by a later delta, so the rewrite stays at query time — applied
to the blocks that changed, not to the lot.)
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass, fields
from itertools import chain, combinations
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from repro.core.cind import (
    AssociationRule,
    Capture,
    SupportedAR,
    SupportedCIND,
    capture_code,
    code_capture,
    unary_part_codes,
)
from repro.core.conditions import ConditionScope, UnaryCondition
from repro.core.extraction import BroadCINDs, _Memo
from repro.core.minimality import Block, block_cinds, consolidate_pertinent
from repro.core.serialization import ResultEncoder, result_pieces
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
    groups_intersected: int = 0
    terms_repositioned: int = 0
    blocks_rebuilt: int = 0
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
        #: condition attribute -> its binary partners; the unposted attributes.
        self._partners = {
            a: [b for b in attrs if b != a and self.scope.allow_binary] for a in attrs
        }
        self._unposted = [a for a in map(int, ALL_ATTRS) if a not in attrs]

        #: unary condition -> ids of the live triples satisfying it, whose
        #: size is its frequency; binary condition -> its frequency (> 0).
        self._postings: Dict[Tuple[int, ...], Set[int]] = {}
        self._counts: Dict[Tuple[int, ...], int] = {}
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
        #: capture -> the dependents whose cached row holds it: the exact
        #: transpose of _refs_cache (no empty sets), written with it by
        #: _set_row / _hold only.  Derived state, never checkpointed.
        self._holders: Dict[int, Set[int]] = {}
        #: code -> its Capture, one object per distinct code (as the batch
        #: extractor decodes its result).
        self._decoded = _Memo(code_capture)

        # What a query keeps rather than rebuilds.  Rows rewritten since
        # the last _settle(), dependents due a new block; each non-empty
        # row as last settled; unary capture -> settled binary ones relaxing
        # to it; named term -> position (see _position), terms that lost it.
        self._touched: Set[int] = set()
        self._stale: Set[int] = set()
        self._settled: Dict[int, FrozenSet[int]] = {}
        self._relaxers: Dict[int, Set[int]] = {}
        self._first: Dict[int, int] = {}
        self._moved: Set[int] = set()
        # (lhs attr, lhs value, rhs attr) -> (sort key, row, rule, pruned
        # capture) of the exact rule, checked again for what is in _resized.
        self._resized: Set[Tuple[int, ...]] = set()
        self._rules: Dict[Tuple[int, int, int], Tuple] = {}
        self._pruned: Set[int] = set()
        self._rule_order: List[Tuple] = []
        # Blocks: dependent -> (sort key, minimality's block, rendered rows,
        # terms named), the same tuples in document order, and the document.
        self._blocks: Dict[int, Tuple] = {}
        self._order: List[Tuple] = []
        self._encoder = ResultEncoder(self.dictionary.decode, self._decoded.__getitem__)
        self._document: Optional[str] = None

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
        """Insert one triple (a bulk add of one); ``False`` for a duplicate."""
        return bool(self.add_all((triple,)))

    def add_all(self, triples: Iterable[TripleLike]) -> int:
        """Insert many triples; returns how many were new.

        All are encoded first: a malformed one raises with nothing stored.
        """
        return self.add_all_encoded(list(map(self.dictionary.encode_triple, triples)))

    def add_all_encoded(self, triples: Iterable[EncodedTriple]) -> int:
        """:meth:`add_all` at id level — the one add path, bulk by construction.

        Stores the new triples, extends the postings and counts shape by
        shape, and only then looks at each touched condition once: an
        active one gains what the new triples show (the per-event rule, so
        cached rows stay exact), one that reached h is activated from all
        its live triples.  The state reached is a function of the live
        triple set.
        """
        ids: List[int] = []
        fresh: List[EncodedTriple] = []
        for triple in triples:
            triple_id = self.store.add_encoded(triple)
            if triple_id is None:
                self.stats.duplicates_ignored += 1
            else:
                ids.append(triple_id)
                fresh.append(triple)
        self.stats.triples_added += len(fresh)
        postings, counts, active, h = self._postings, self._counts, self._active, self.h
        for beta, gamma, feeds in self._plan:
            gained: Dict[Tuple[int, ...], List[EncodedTriple]] = {}
            crossed: Set[Tuple[int, ...]] = set()
            for triple_id, triple in zip(ids, fresh):
                if gamma is None:
                    condition = (beta, triple[beta])
                    posting = postings.get(condition)
                    if posting is None:
                        posting = postings[condition] = set()
                    posting.add(triple_id)
                    count = len(posting)
                else:
                    condition = (beta, triple[beta], gamma, triple[gamma])
                    count = counts[condition] = counts.get(condition, 0) + 1
                if condition in active:
                    gained.setdefault(condition, []).append(triple)
                elif count >= h:
                    crossed.add(condition)
            self._resized.update(gained)
            for condition, shown in gained.items():
                for alpha, code in _fed(condition, feeds):
                    for triple in shown:
                        self._gain(code, triple[alpha])
            for condition in crossed:
                self._activate(condition, feeds)
        return len(fresh)

    def remove(self, triple: TripleLike) -> bool:
        """Retract one triple; returns ``False`` if it is not present."""
        removed = self.store.remove(triple)
        if removed is None:
            self.stats.removals_ignored += 1
            return False
        triple_id, encoded = removed
        self.stats.triples_removed += 1
        for position, term in enumerate(encoded, 3 * triple_id):
            if self._first.get(term) == position:  # its first occurrence
                del self._first[term]
                self._moved.add(term)
                self.stats.terms_repositioned += 1
        postings, counts, active, h = self._postings, self._counts, self._active, self.h
        for condition, feeds in self._conditions(encoded):
            if len(condition) == 2:
                posting = postings[condition]
                posting.discard(triple_id)
                count = len(posting)
                if not count:
                    del postings[condition]
            else:
                count = counts.pop(condition) - 1
                if count:
                    counts[condition] = count
            if condition in active:
                self._resized.add(condition)
                if count < h:
                    self._deactivate(condition, feeds)
                else:
                    for alpha, code in _fed(condition, feeds):
                        self._lose(code, encoded[alpha])
        return True

    def apply(self, op: str, triple: TripleLike) -> bool:
        """Dispatch one ``add``/``remove`` delta (the changelog's ops)."""
        if op == "add":
            return self.add(triple)
        if op == "remove":
            return self.remove(triple)
        raise ValueError(f"unknown delta op {op!r} (use add/remove)")

    # -- threshold transitions -----------------------------------------

    def _activate(self, condition: Tuple[int, ...], feeds: Feeds) -> None:
        """A condition crossed *up* to h: back-fill from its live triples.

        A unary condition's are its posting, a binary one's the meet of
        its two unary parts' postings (it keeps only a count).  Each fed
        capture starts empty (one condition feeds it), so its witness
        counts are one ``Counter`` over those rows; it then joins its
        groups value by value as :meth:`_gain` would, its interpretation
        already final.
        """
        self._active.add(condition)
        self._resized.add(condition)
        self.stats.conditions_activated += 1
        postings = self._postings
        if len(condition) == 2:
            ids = postings[condition]
        else:
            ids = postings[condition[:2]] & postings[condition[2:]]
        rows = list(map(self.store.triple, ids))
        groups, cache = self._groups, self._refs_cache
        for alpha, code in _fed(condition, feeds):
            witnesses = dict(Counter(map(itemgetter(alpha), rows)))
            self._witnesses[code] = witnesses
            self.stats.evidences_applied += len(witnesses)
            # A row survives a tear-down as a bound: it shrinks as in _gain.
            row = cache.get(code)
            (self._dirty if row is None else self._touched).add(code)
            interpretation = witnesses.keys()
            for value in witnesses:
                group = groups.get(value)
                if group is None:
                    group = groups[value] = set()
                group.add(code)
                if row is not None:
                    row &= group
                for member in cache.keys() & group if cache else ():
                    covered = self._witnesses[member].keys() <= interpretation
                    if covered and member != code:
                        self._hold(member, code, True)
            if row is not None:
                self._set_row(code, row)

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
        # The gainer's own row — exact or a lower bound — can only shrink,
        # to members of the group it joined; with no row it is dirty.
        cache = self._refs_cache
        row = cache.get(capture)
        if row is None:
            self._dirty.add(capture)
        else:
            self._set_row(capture, row & group)
            self._touched.add(capture)
        # Any other member gains the gainer iff its interpretation is
        # now covered.  The keys-view intersection walks the smaller
        # side in C: an empty cache (bulk load) or a giant group of
        # uncached captures costs no per-member work.
        interpretation = witnesses.keys()
        for member in cache.keys() & group:
            if member != capture and self._witnesses[member].keys() <= interpretation:
                self._hold(member, capture, True)

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
        """``capture`` lost ``value``: it leaves the group, and the rows of
        the members that hold it (its holders in the group) drop it."""
        group = self._groups[value]
        group.discard(capture)
        if not group:
            del self._groups[value]
            return
        held = self._holders.get(capture)
        for member in held & group if held else ():
            self._hold(member, capture, False)

    def _hold(self, member: int, capture: int, holds: bool) -> None:
        """``member``'s cached row gains (or drops) ``capture``."""
        cache, holders = self._refs_cache, self._holders
        if holds:
            cache[member] = cache[member] | {capture}
            holders.setdefault(capture, set()).add(member)
        else:
            cache[member] = cache[member] - {capture}
            held = holders[capture]
            held.discard(member)
            if not held:
                del holders[capture]
        self._touched.add(member)

    def _set_row(self, dependent: int, row: Optional[FrozenSet[int]]) -> None:
        """Replace ``dependent``'s cached row (``None``: drop it)."""
        cache, holders = self._refs_cache, self._holders
        old = cache.get(dependent, frozenset())
        if row is None:
            cache.pop(dependent, None)
            row = frozenset()
        else:
            cache[dependent] = row
        for capture in old - row:
            held = holders[capture]
            held.discard(dependent)
            if not held:
                del holders[capture]
        for capture in row - old:
            holders.setdefault(capture, set()).add(dependent)

    # ------------------------------------------------------------------
    # rows
    # ------------------------------------------------------------------

    def capture_support(self, capture: Capture) -> int:
        """Current support (interpretation size) of a capture."""
        return len(self._witnesses.get(capture_code(capture), ()))

    def _refs_of(self, dependent: int) -> FrozenSet[int]:
        """Exact referenced set: Lemma 3's intersection, cut short.

        The cached row, if any, is a lower bound: the walk over the groups
        ends once no more candidates beyond it are left than groups were
        walked; their interpretations settle those (``I(dependent) ⊆ I(c)``).
        """
        witnesses, groups = self._witnesses, self._groups
        values = witnesses[dependent].keys()
        bound = self._refs_cache.get(dependent, frozenset())
        refs, walked = None, 0
        for value in values:
            refs = groups[value] if refs is None else refs & groups[value]
            walked += 1
            if len(refs) - len(bound) - 1 <= walked:
                break
        self.stats.groups_intersected += walked
        return frozenset(
            c
            for c in refs
            if c in bound or c != dependent and values <= witnesses[c].keys()
        )

    def _settle(self) -> None:
        """Make the dirty rows exact (or drop them below h) and mark stale
        every rewritten row, and the binary dependents relaxing to a row
        that differs from its last settled one."""
        self.stats.queries += 1
        witnesses, cache, touched = self._witnesses, self._refs_cache, self._touched
        for dependent in self._dirty:
            if len(witnesses.get(dependent, ())) >= self.h:
                self._set_row(dependent, self._refs_of(dependent))
                self.stats.dependents_recomputed += 1
            else:
                self._set_row(dependent, None)
        touched.update(self._dirty)
        self._dirty.clear()
        settled, stale = self._settled, self._stale
        for code in touched:
            row = cache.get(code, frozenset())
            if row != settled.pop(code, frozenset()):
                stale.update(self._relaxers.get(code, ()))
            if row:
                settled[code] = row
            for part in unary_part_codes(code):
                relaxers = self._relaxers.setdefault(part, set())
                (relaxers.add if row else relaxers.discard)(code)
        stale.update(touched)
        touched.clear()

    def broad_cinds(self) -> Dict[Capture, Tuple[FrozenSet[Capture], int]]:
        """Current broad CINDs in adjacency form (no AR rewriting), the
        settled rows decoded."""
        self._settle()
        decode, witnesses = self._decoded.__getitem__, self._witnesses
        return {
            decode(code): (frozenset(map(decode, row)), len(witnesses[code]))
            for code, row in self._settled.items()
        }

    # ------------------------------------------------------------------
    # queries (the batch answer: AR rewriting at query time)
    # ------------------------------------------------------------------

    def _position(self, term: int) -> int:
        """``3 * triple_id + column`` of ``term``'s first live occurrence.

        Orders terms like a cold batch encode's ids.  Kept for the terms
        the document names until that occurrence goes; refilled from the
        unary postings, and the store for a column the scope posts none for.
        """
        position = self._first.get(term)
        if position is None:
            posted = ((a, self._postings.get((a, term))) for a in self._partners)
            position = min((3 * min(ids) + a for a, ids in posted if ids), default=None)
            if self._unposted:
                position = self.store.first_position(term, self._unposted, position)
            self._first[term] = position
        return position

    def _sort_key(self, code: int) -> Tuple:
        """The batch sort key of capture ``code``, positions for term ids."""
        attr, condition = self._decoded[code]
        key = list(condition)
        key[1::2] = map(self._position, key[1::2])
        return attr, tuple(key)

    def association_rules(self) -> List[SupportedAR]:
        """Exact ARs among the currently frequent conditions (Lemma 2).

        ``lhs → rhs`` is exact iff ``freq(lhs ∧ rhs) == freq(lhs)``, a binary
        count and a posting size only an update holding ``lhs`` moves: just
        the conditions resized since the last call are looked at again, where
        any triple of ``lhs`` shows the one possible ``rhs``.  Document order.
        """
        postings, rules, position = self._postings, self._rules, self._position
        moved = self._moved
        if moved:  # sort keys hold positions: look again at rules naming a moved term
            self._resized.update(
                key[:2]
                for key, entry in rules.items()
                if key[1] in moved or entry[2].rule.rhs.value in moved
            )
        changed, flipped = False, set()
        for attr, value in [c for c in self._resized if len(c) == 2]:
            posting = postings.get((attr, value), ())
            for other in self._partners[attr]:
                entry, count = None, len(posting)
                if count >= self.h:
                    partner = self.store.triple(next(iter(posting)))[other]
                    lhs, rhs = (attr, value), (other, partner)
                    binary = lhs + rhs if attr < other else rhs + lhs
                    if self._counts.get(binary, 0) == count:
                        sides = (UnaryCondition(Attr(a), v) for a, v in (lhs, rhs))
                        rule = SupportedAR(AssociationRule(*sides), count)
                        key = (attr, position(value)), (other, position(partner))
                        entry = (
                            (-count, *key),
                            next(self._encoder.rule_rows((rule,))),
                            rule,
                            capture_code((3 - attr - other, binary)),
                        )
                old = rules.pop((attr, value, other), None)
                if entry is not None:
                    rules[attr, value, other] = entry
                changed = changed or entry != old
                if (entry and entry[3]) != (old and old[3]):
                    flipped.update(e[3] for e in (entry, old) if e)
        self._resized.clear()
        if flipped:  # whatever names a capture whose rule came or went is stale
            self._pruned = {entry[3] for entry in rules.values()}
            self._stale.update(flipped)
            for pruned in flipped:
                self._stale.update(self._holders.get(pruned, ()))
        if changed:
            self._rule_order, self._document = sorted(rules.values()), None
        return [entry[2] for entry in self._rule_order]

    def batch_result(self) -> Tuple[Set[int], List[Block]]:
        """The stale dependents and their CINDs under the batch semantics,
        as minimality's blocks in document order.

        Stale is a dependent whose row or support changed, a binary one
        relaxing to a changed row, one naming a capture whose AR status
        flipped or a re-positioned term.  Only their rows are consolidated,
        with the relaxation rows those read (whose CINDs come along).

        The batch pipeline never builds captures over AR-embedding binary
        conditions (their extent equals a unary twin's, Section 5.1).
        Filtering them out of the maintained rows — as dependents and as
        references — yields exactly the batch broad set: pruning removes
        the same members from every group, so intersect-then-filter equals
        filter-then-intersect, and supports are untouched.
        """
        self.association_rules()  # first: the rows it reads may be bounds
        self._settle()
        stale, moved, cache = self._stale, self._moved, self._refs_cache
        if moved:
            stale.update(b[1][0] for b in self._order if not moved.isdisjoint(b[3]))
            moved.clear()
        pruned, witnesses = self._pruned, self._witnesses
        rows: BroadCINDs = {}
        for code in chain(stale, *map(unary_part_codes, stale)):
            row = code not in pruned and cache.get(code)
            if row and not row.isdisjoint(pruned):
                row = row - pruned
            if row:
                rows[code] = (row, len(witnesses[code]))
        return stale, consolidate_pertinent(rows, self._sort_key)

    def result_document(self) -> Tuple[List[Tuple], List[Tuple]]:
        """The document's blocks and rules, in ``rdfind discover -o`` order.

        A dependent's pertinent rows share support and dependent key, so
        they are one contiguous *block*; blocks, and the rows of one, sort
        by the batch key under :meth:`_position`.  Only the stale blocks
        are keyed and rendered again, by the maintainer's one
        :class:`ResultEncoder`: a capture is decoded once in its lifetime.
        """
        stale, cinds = self.batch_result()
        blocks, order, decoded = self._blocks, self._order, self._decoded
        for code in stale & blocks.keys():
            del order[bisect_left(order, blocks.pop(code))]
            self._document = None
        for block in cinds:
            dependent, support, refs = block
            if dependent in stale:
                terms = (decoded[c].condition[1::2] for c in (dependent, *refs))
                blocks[dependent] = entry = (
                    (-support, self._sort_key(dependent)),
                    block,
                    self._encoder.block(dependent, support, refs),
                    frozenset(chain.from_iterable(terms)),
                )
                insort(order, entry)
                self.stats.blocks_rebuilt += 1
                self._document = None
        stale.clear()
        return order, self._rule_order

    def document_json(self) -> str:
        """The live dataset's result document, byte-identical to batch.

        What ``rdfind discover -o`` writes for the materialized dataset,
        through the same encoder; the last call's string if nothing changed.
        """
        blocks, rules = self.result_document()
        if self._document is None:
            texts = (block[2] for block in blocks), (rule[1] for rule in rules)
            self._document = "".join(result_pieces(self.h, BATCH_VARIANT, *texts))
        return self._document

    def pertinent_cinds(self) -> List[SupportedCIND]:
        """The document's pertinent CINDs in document order: the rows of
        ``rdfind discover`` on the materialized dataset."""
        blocks, _rules = self.result_document()
        decode = self._decoded.__getitem__
        return list(block_cinds((block[1] for block in blocks), decode))

    def render(self, supported: SupportedCIND) -> str:
        """Render a result row with this maintainer's dictionary."""
        return supported.render(self.dictionary)

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
