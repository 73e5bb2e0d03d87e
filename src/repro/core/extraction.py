"""CINDExtractor: from capture groups to broad CINDs (Section 7).

The extractor enumerates CIND candidate sets from capture groups
(Lemma 3: ``c ⊆ c'`` is valid iff ``c'`` occurs in every group that
contains ``c``), aggregates them by dependent capture with intersection,
and keeps the dependents whose group-membership count — their support —
reaches the threshold.

Directly doing this is quadratic in group size and collapses on *dominant*
capture groups (Section 7.1), so the full extractor adds the paper's three
countermeasures (Section 7.2):

* **Capture-support pruning** — the second phase of lazy pruning: captures
  occurring in fewer than ``h`` groups can be neither dependent nor
  referenced in a broad CIND, so they are deleted from all groups first.
* **Load balancing** — each worker compares its capture groups' estimated
  processing load ``|G|²`` against the cluster-average load; groups above
  it are *dominant* and are split into per-worker work units.
* **Approximate-validate extraction** — dominant groups emit candidate
  sets whose referenced captures are encoded in a constant-size Bloom
  filter (O(n) instead of O(n²) space), held as one int.  Candidate sets
  are merged with Algorithm 3 (exact ∩ exact, Bloom AND Bloom, exact
  probed against Bloom); merged sets with Bloom lineage are *uncertain*
  and are re-validated against the retained work units, which restores
  exactness.

Disabling the countermeasures yields the paper's RDFind-DE ablation
(direct extraction, Section 8.5).

Implementation note: the paper builds one Bloom filter per candidate set
(``Bloom(G − {c})``).  Building n filters of n-1 elements each would be
O(n²) work — the very cost the filters exist to avoid — so we build a
single filter per dominant group (containing all of G) and share it across
that group's candidate sets; the dependent capture itself is filtered out
when results are materialized, and the validation pass corrects any
self-hit exactly as it corrects other false positives.

From the capture groups that come in to the broad CINDs that go out, a
capture is its :func:`~repro.core.cind.capture_code` int; nothing in
between is specific to captures, and minimality consolidates the codes
(:mod:`repro.core.minimality`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple, Union

from repro.dataflow.bloom import int_key_mask
from repro.dataflow.engine import (
    DataSet,
    ExecutionEnvironment,
    pair_key,
    pair_value,
)

#: Referenced-capture collection of a candidate set: an exact set of
#: capture codes, or an approximate one — a Bloom filter's bits as an int.
Refs = Union[FrozenSet[int], int]

#: Candidate-set value: (referenced captures, support count, approx flag).
CandidateValue = Tuple[Refs, int, bool]

#: A work unit: (dependent captures to process, the full dominant group).
WorkUnit = Tuple[FrozenSet[int], FrozenSet[int]]

#: Bloom-filter size used for dominant-group candidate sets; the paper
#: found 64 bytes (512 bits) to perform best.
DEFAULT_CANDIDATE_BLOOM_BITS = 512
DEFAULT_CANDIDATE_BLOOM_HASHES = 4


@dataclass(frozen=True)
class ExtractionConfig:
    """Knobs of the extraction phase."""

    h: int
    prune_capture_support: bool = True
    balance_dominant_groups: bool = True
    candidate_bloom_bits: int = DEFAULT_CANDIDATE_BLOOM_BITS
    candidate_bloom_hashes: int = DEFAULT_CANDIDATE_BLOOM_HASHES

    def __post_init__(self) -> None:
        if self.h < 1:
            raise ValueError(f"support threshold must be >= 1, got {self.h}")


@dataclass
class ExtractionStats:
    """Telemetry of one extraction run (feeds Figure 2 style funnels)."""

    groups_total: int = 0
    groups_after_pruning: int = 0
    captures_total: int = 0
    captures_pruned: int = 0
    dominant_groups: int = 0
    work_units: int = 0
    uncertain_candidates: int = 0
    broad_dependents: int = 0
    broad_cind_count: int = 0


#: Result: dependent capture code -> (exact referenced codes, support).
BroadCINDs = Dict[int, Tuple[FrozenSet[int], int]]


class _Memo(dict):
    """``memo[key]`` is ``fn(key)``, computed once per distinct key."""

    def __init__(self, fn) -> None:
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def extract_broad_cinds(
    env: ExecutionEnvironment,
    groups: DataSet,
    config: ExtractionConfig,
) -> Tuple[BroadCINDs, ExtractionStats]:
    """Run the CINDExtractor over a dataset of capture groups.

    Returns the broad CINDs in adjacency form over capture codes — for
    every dependent capture with support >= h and any reference, the
    exact set of referenced captures that co-occur with it in *every*
    group — plus run statistics.  Trivial inclusions are *not* filtered
    here (minimality does that); the dependent capture itself never
    appears among its references.
    """
    stats = ExtractionStats()
    stats.groups_total = groups.count()

    # Stage-granularity checkpointing: the capture-support pruning scan
    # (one full pass over all groups) becomes a durable boundary.  The
    # boundary value carries the pruned partitions *and* the stats the
    # pruning pass computed, so a resumed run reports identical funnels.
    ckpt = getattr(env, "checkpoint", None)
    if ckpt is not None and not ckpt.enabled("stage"):
        ckpt = None

    if config.prune_capture_support:
        if ckpt is not None:
            partitions, counters = ckpt.step(
                "ex/pruned-groups",
                "stage",
                partial(_pruned_groups_payload, env, groups, config, stats),
            )
            stats.captures_total, stats.captures_pruned, stats.groups_after_pruning = counters
            groups = env.from_partitions(partitions, name="ex/pruned-groups")
        else:
            groups = _prune_capture_support(env, groups, config, stats)
    else:
        stats.groups_after_pruning = stats.groups_total

    if config.balance_dominant_groups:
        average_load = _average_worker_load(env, groups)
    else:
        average_load = float("inf")

    work_units = _build_work_units(env, groups, average_load, stats)
    masks = _Memo(
        partial(
            int_key_mask,
            num_bits=config.candidate_bloom_bits,
            num_hashes=config.candidate_bloom_hashes,
        )
    )

    # Candidate generation is FUSED into the keyed aggregation (Flink's
    # operator chaining): a group's candidate sets fold into the combiner
    # as they are produced, so the quadratic flatMap output is never
    # materialized.  Non-dominant groups emit the group frozenset itself
    # as the initial reference set (shared, not copied per dependent) and
    # a materialize step removes each dependent from its own final set
    # (see _materialize_shared_refs).
    #
    # Under a record-count memory budget the combiner *state* (one
    # referenced set per dependent capture seen so far) is priced —
    # exactly the footprint that kills RDFind-DE on dominant groups.
    merged = groups.flat_map_reduce_by_key(
        _SharedRefsCandidateEmitter(masks, average_load),
        partial(_merge_candidate_values, masks),
        state_cost_fn=(
            _candidate_state_cost if env.memory_budget is not None else None
        ),
        name="ex/merge-candidates",
    ).map(_materialize_shared_refs, name="ex/materialize-refs")
    broad = merged.filter(
        partial(_support_at_least, config.h), name="ex/broadness-filter"
    )

    certain: Dict[int, Tuple[FrozenSet[int], int]] = {}
    uncertain: Dict[int, Refs] = {}
    counts: Dict[int, int] = {}
    for dependent, (refs, count, approx) in broad.collect(name="ex/collect"):
        counts[dependent] = count
        if not approx:
            certain[dependent] = (refs, count)
        elif refs:
            uncertain[dependent] = refs
    stats.uncertain_candidates = len(uncertain)

    if uncertain:
        validated = _validate_uncertain(env, work_units, masks, uncertain)
        for dependent, refs in validated.items():
            certain[dependent] = (refs, counts[dependent])

    result: BroadCINDs = {
        dependent: row for dependent, row in certain.items() if row[0]
    }
    stats.broad_dependents = len(result)
    stats.broad_cind_count = sum(len(refs) for refs, _count in result.values())
    return result, stats


# ----------------------------------------------------------------------
# capture-support pruning (Figure 6, steps 1-3)
# ----------------------------------------------------------------------


def _emit_capture_counters(group: FrozenSet[int]) -> Iterator[Tuple[int, int]]:
    for capture in group:
        yield capture, 1


def _support_below(h: int, pair: Tuple[int, int]) -> bool:
    return pair[1] < h


def _support_at_least(h: int, pair) -> bool:
    """Broadness filter on ``(dependent, (refs, count, approx))`` pairs."""
    return pair[1][1] >= h


def _difference_from(prunable: FrozenSet[int], group: FrozenSet[int]):
    return group.difference(prunable)


def _pruned_groups_payload(
    env: ExecutionEnvironment,
    groups: DataSet,
    config: ExtractionConfig,
    stats: ExtractionStats,
):
    """The ex/pruned-groups checkpoint value: partitions + pruning stats."""
    pruned = _prune_capture_support(env, groups, config, stats)
    counters = (
        stats.captures_total,
        stats.captures_pruned,
        stats.groups_after_pruning,
    )
    return pruned.partitions, counters


def _prune_capture_support(
    env: ExecutionEnvironment,
    groups: DataSet,
    config: ExtractionConfig,
    stats: ExtractionStats,
) -> DataSet:
    # The counter flat_map is fused into the keyed reduction: the
    # per-capture (capture, 1) records fold into the combiner as they are
    # produced instead of being materialized first.
    supports = groups.flat_map_reduce_by_key(
        _emit_capture_counters,
        operator.add,
        name="ex/capture-support",
    )
    stats.captures_total = supports.count()
    prunable = frozenset(
        supports.filter(
            partial(_support_below, config.h), name="ex/prunable-filter"
        )
        .map(pair_key, name="ex/prunable-captures")
        .broadcast(name="ex/prunable-broadcast")
    )
    stats.captures_pruned = len(prunable)
    if not prunable:
        stats.groups_after_pruning = stats.groups_total
        return groups
    pruned = groups.map(
        partial(_difference_from, prunable), name="ex/prune-groups"
    ).filter(len, name="ex/drop-empty-groups")
    stats.groups_after_pruning = pruned.count()
    return pruned


# ----------------------------------------------------------------------
# load estimation (Figure 6, steps 5-6)
# ----------------------------------------------------------------------


def _partition_load(partition: List[FrozenSet[int]], _worker: int) -> List[int]:
    return [sum(len(g) ** 2 for g in partition)]


def _average_worker_load(env: ExecutionEnvironment, groups: DataSet) -> float:
    """Average per-worker processing load, estimated as sum of |G|^2."""
    partial_loads = groups.map_partition(
        _partition_load, name="ex/estimate-loads"
    ).collect(name="ex/collect-loads")
    total = sum(partial_loads)
    return total / env.parallelism


# ----------------------------------------------------------------------
# candidate generation (Figure 6, step 7)
# ----------------------------------------------------------------------


class _SharedRefsCandidateEmitter:
    """Per-group candidate-set producer (consumed by the fused reduce).

    A dominant group shares one Bloom filter over all its captures — the
    ``|`` of their probe masks — as every dependent's reference set.  A
    regular group ``G`` shares the group frozenset itself as every
    dependent's initial reference set, where the paper emits ``G − {c}``
    per dependent ``c`` — a fresh frozenset each, quadratic allocation
    per group.  After merging, a candidate's reference set differs from
    the paper's only by containing its own dependent: every value merged
    under key ``c`` came from a group (or a dominant group's Bloom
    filter, which has no false negatives) containing ``c``, so ``c``
    survives every exact intersection and every Bloom probe.
    :func:`_materialize_shared_refs` removes it and recomputes the
    approx flag.

    A module-level class so the fused combine task stays picklable under
    the process executor.
    """

    __slots__ = ("masks", "average_load")

    def __init__(self, masks: _Memo, average_load: float) -> None:
        self.masks = masks
        self.average_load = average_load

    def __call__(
        self, group: FrozenSet[int]
    ) -> Iterator[Tuple[int, CandidateValue]]:
        size = len(group)
        if size * size > self.average_load:
            masks = self.masks
            bloom = 0
            for capture in group:
                bloom |= masks[capture]
            value = (bloom, 1, True)
        else:
            value = (group, 1, False)
        for capture in group:
            yield capture, value


def _materialize_shared_refs(pair):
    """Remove a candidate's own dependent from its shared reference set.

    Exact reference sets produced by :class:`_SharedRefsCandidateEmitter`
    are ``(∩ G_i)``, which contains the dependent; the CIND's referenced
    captures are ``(∩ G_i) − {c}``.  Bloom-valued sets stay as they are
    (the validation pass filters the dependent out).  The approx flag is
    recomputed against the corrected set, so a set that is empty once its
    dependent is gone counts as certain (Algorithm 3, line 10).
    """
    dependent, (refs, count, approx) = pair
    if type(refs) is not int:
        refs = refs.difference((dependent,))
    return dependent, (refs, count, approx and bool(refs))


def _candidate_state_cost(value: CandidateValue) -> int:
    """Combiner-state price of one candidate set (cells).

    An exact set costs one cell per member: the shared set holds the
    referenced captures plus the dependent itself, i.e. ``|refs| + 1``.
    """
    refs, _count, _approx = value
    if type(refs) is int:
        return 8  # constant-size filter
    return len(refs)


class _WorkUnitSplitter:
    """Chunk each dominant group into per-worker work units (picklable)."""

    __slots__ = ("average_load", "parallelism")

    def __init__(self, average_load: float, parallelism: int) -> None:
        self.average_load = average_load
        self.parallelism = parallelism

    def __call__(
        self, partition: List[FrozenSet[int]], _worker: int
    ) -> Iterator[WorkUnit]:
        for group in partition:
            size = len(group)
            if size * size > self.average_load:
                members = sorted(group)
                chunk_size = -(-size // self.parallelism)  # ceil division
                for start in range(0, size, chunk_size):
                    chunk = frozenset(members[start : start + chunk_size])
                    yield (chunk, group)


def _build_work_units(
    env: ExecutionEnvironment,
    groups: DataSet,
    average_load: float,
    stats: ExtractionStats,
) -> DataSet:
    """Split dominant groups into per-worker work units."""
    work_units = groups.map_partition(
        _WorkUnitSplitter(average_load, env.parallelism),
        name="ex/split-dominant-groups",
    ).rebalance(name="ex/rebalance-work-units")
    stats.work_units = work_units.count()
    stats.dominant_groups = sum(
        1
        for partition in groups.partitions
        for group in partition
        if len(group) ** 2 > average_load
    )
    return work_units


# ----------------------------------------------------------------------
# candidate merging (Algorithm 3)
# ----------------------------------------------------------------------


def _merge_candidate_values(
    masks: _Memo, a: CandidateValue, b: CandidateValue
) -> CandidateValue:
    """Merge two candidate sets for the same dependent capture.

    Exact sets intersect exactly; two Bloom filters intersect via bitwise
    AND — ``&`` either way; a mixed pair probes the exact set's members
    against the filter (a member may be in it iff none of its mask bits
    is absent).  The result is *approximate* (needs validation) when any
    input was approximate and the merged reference set is non-empty
    (Algorithm 3, line 10).
    """
    refs_a, count_a, approx_a = a
    refs_b, count_b, approx_b = b
    if type(refs_a) is type(refs_b):
        refs: Refs = refs_a & refs_b
    else:
        exact, bloom = (refs_b, refs_a) if type(refs_a) is int else (refs_a, refs_b)
        refs = _probe_members(masks, exact, bloom)
    return refs, count_a + count_b, (approx_a or approx_b) and bool(refs)


def _probe_members(masks: _Memo, exact, bloom: int) -> FrozenSet[int]:
    """The members of ``exact`` that may be in the filter ``bloom``."""
    absent = ~bloom
    return frozenset([c for c in exact if not masks[c] & absent])


# ----------------------------------------------------------------------
# validation of uncertain candidates (Figure 6, steps 9-10)
# ----------------------------------------------------------------------


def _validate_uncertain(
    env: ExecutionEnvironment,
    work_units: DataSet,
    masks: _Memo,
    uncertain: Dict[int, Refs],
) -> Dict[int, FrozenSet[int]]:
    """Re-derive exact referenced sets for Bloom-tainted candidates.

    The uncertain candidate map is broadcast; every worker scans its work
    units and, for each uncertain dependent capture it hosts, intersects
    the dominant group's exact members with the candidate's reference
    collection.  Intersecting these validation sets across all hosting
    work units yields the exact result (see module docstring for why).
    """
    broadcast_stage = env.metrics.new_stage("ex/broadcast-uncertain")
    broadcast_stage.broadcast_records = len(uncertain) * env.parallelism

    validated = work_units.flat_map(
        _ValidationEmitter(masks, uncertain), name="ex/validation-sets"
    ).reduce_by_key(
        key_fn=pair_key,
        value_fn=pair_value,
        reduce_fn=operator.and_,
        name="ex/merge-validation-sets",
    )
    return dict(validated.collect(name="ex/collect-validated"))


class _ValidationEmitter:
    """Per-work-unit validation sets for the uncertain candidates.

    Carries the broadcast uncertain-candidate map so the flat_map stays
    picklable under the process executor.
    """

    __slots__ = ("masks", "uncertain")

    def __init__(self, masks: _Memo, uncertain: Dict[int, Refs]) -> None:
        self.masks = masks
        self.uncertain = uncertain

    def __call__(self, unit: WorkUnit) -> Iterator[Tuple[int, FrozenSet[int]]]:
        chunk, group = unit
        for dependent in chunk:
            refs = self.uncertain.get(dependent)
            if refs is None:
                continue
            if type(refs) is int:
                members = _probe_members(self.masks, group, refs)
                yield dependent, members.difference((dependent,))
            else:
                yield dependent, group & refs
