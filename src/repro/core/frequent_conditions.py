"""FCDetector: frequent condition discovery and AR extraction (Section 5).

This is the first phase of RDFind's lazy pruning.  It follows the data
flow of the paper's Figure 5:

1.  *Frequent unary conditions* — every worker emits a ``(condition, 1)``
    counter per triple attribute, counters are aggregated with local
    pre-aggregation ("early aggregation"), and non-frequent conditions are
    dropped (steps 1-2).
2.  *Compaction* — workers build partial Bloom filters over their frequent
    unary conditions and one worker unions them bit-wise (steps 3-4); the
    union is broadcast (step 5).
3.  *Frequent binary conditions* — Algorithm 1: per triple, unary
    conditions are probed against the Bloom filter and only pairs of
    (apparently) frequent unaries spawn binary counters, which are then
    aggregated and filtered (steps 6-7).  Candidates are never
    materialized globally — this is the paper's "on-demand candidate
    checking" that replaces Apriori's in-memory candidate tree.
4.  *Binary compaction* — a second Bloom filter (steps 8-9).
5.  *Association rules* — frequent unary counters are joined with frequent
    binary counters on the embedded unary condition; equal counts yield an
    exact AR (step 11, Lemma 2).

Bloom-filter false positives can let a binary candidate with a
non-frequent unary part be *counted*, but never let it survive: a binary
condition's frequency is bounded by its parts', so the ``>= h`` filter is
exact.  Downstream (Algorithm 2) false positives are likewise harmless —
they can only create captures whose support is below ``h``, which the
capture-support pruning or the final broadness filter removes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Set, Tuple

from repro.core.cind import AssociationRule, SupportedAR
from repro.core.conditions import (
    BinaryCondition,
    Condition,
    ConditionScope,
    UnaryCondition,
)
from repro.dataflow.bloom import BloomFilter
from repro.dataflow.engine import DataSet, ExecutionEnvironment, pair_key


#: Default false-positive rate for the condition Bloom filters.
DEFAULT_FP_RATE = 0.01


@dataclass
class FrequentConditions:
    """Output of the FCDetector.

    ``unary_counts``/``binary_counts`` hold the exact frequencies of the
    *frequent* conditions only.  The Bloom filters are what the downstream
    phases probe (matching the paper); the exact dicts additionally serve
    the statistics module and the tests.
    """

    h: int
    scope: ConditionScope
    unary_counts: Dict[UnaryCondition, int]
    binary_counts: Dict[BinaryCondition, int]
    unary_bloom: BloomFilter
    binary_bloom: BloomFilter
    association_rules: List[SupportedAR] = field(default_factory=list)

    @property
    def rule_set(self) -> Set[AssociationRule]:
        """The bare rules, for O(1) membership tests in Algorithm 2."""
        return {sar.rule for sar in self.association_rules}

    def is_frequent(self, condition: Condition) -> bool:
        """Exact frequency check against the retained counters."""
        if isinstance(condition, UnaryCondition):
            return condition in self.unary_counts
        return condition in self.binary_counts

    def frequency(self, condition: Condition) -> int:
        """Exact frequency of a frequent condition (0 if not frequent)."""
        if isinstance(condition, UnaryCondition):
            return self.unary_counts.get(condition, 0)
        return self.binary_counts.get(condition, 0)


def _local_bloom(
    capacity: int, fp_rate: float, partition: List[Tuple[Condition, int]]
) -> BloomFilter:
    """One worker's partial Bloom filter over its counter partition."""
    bloom = BloomFilter.for_capacity(capacity, fp_rate)
    for condition, _count in partition:
        bloom.add(condition)
    return bloom


def _build_bloom(
    counters: DataSet, capacity: int, fp_rate: float, name: str
) -> BloomFilter:
    """Distributed Bloom construction: local partials, bit-wise OR union."""
    return counters.reduce_partitions(
        partial(_local_bloom, max(1, capacity), fp_rate),
        lambda a, b: a.union_update(b),  # merge runs on the driver
        name=name,
    )


def detect_frequent_conditions(
    env: ExecutionEnvironment,
    batches: DataSet,
    h: int,
    scope: Optional[ConditionScope] = None,
    fp_rate: float = DEFAULT_FP_RATE,
) -> FrequentConditions:
    """Run the FCDetector over a dataset of column batches.

    Parameters
    ----------
    env:
        The execution environment (fixes parallelism, gathers metrics).
    batches:
        The triple source from
        :func:`~repro.dataflow.kernels.batch_dataset`: one
        :class:`~repro.storage.columnar.TripleBatch` per worker.  The
        counting stages run as batch kernels over the id columns; the
        Bloom/AR stages run on the dataflow engine.
    h:
        The user-defined support threshold; conditions below it are
        pruned (Lemma 1 makes this sound for broad-CIND discovery).
    scope:
        Attribute restrictions; defaults to the general setting.
    fp_rate:
        Target false-positive rate of the condition Bloom filters.
    """
    # Imported here: the kernels import repro.core, whose package import
    # reaches this module.
    from repro.dataflow.kernels import binary_counts_kernel, unary_counts_kernel

    if h < 1:
        raise ValueError(f"support threshold must be >= 1, got {h}")
    scope = scope if scope is not None else ConditionScope.full()

    # Stage-granularity checkpointing: the counting stages (the expensive
    # part of the phase) become durable boundaries.  The Bloom unions are
    # bit-wise ORs and the AR list is sorted at the end, so neither
    # depends on the order of a restored count dict.
    ckpt = getattr(env, "checkpoint", None)
    if ckpt is not None and not ckpt.enabled("stage"):
        ckpt = None

    def step(name: str, compute):
        return ckpt.step(name, "stage", compute) if ckpt is not None else compute()

    # Steps 1-2: frequent unary conditions with early aggregation.
    unary_counts: Dict[UnaryCondition, int] = step(
        "fc/unary", partial(unary_counts_kernel, env, batches, scope, h)
    )
    frequent_unary = env.from_collection(
        unary_counts.items(), name="fc/unary-frequent"
    )

    # Steps 3-5: unary Bloom filter, built distributedly and broadcast.
    unary_bloom = _build_bloom(
        frequent_unary, len(unary_counts), fp_rate, name="fc/unary-bloom"
    )
    bloom_stage = env.metrics.new_stage("fc/unary-bloom-broadcast")
    bloom_stage.broadcast_records = env.parallelism

    binary_counts: Dict[BinaryCondition, int] = {}
    if scope.allow_binary and len(scope.condition_attrs) >= 2:
        # Steps 6-7: frequent binary conditions (Algorithm 1).
        binary_counts = step(
            "fc/binary",
            partial(binary_counts_kernel, env, batches, scope, unary_bloom, h),
        )
        frequent_binary = env.from_collection(
            binary_counts.items(), name="fc/binary-frequent"
        )
        # Steps 8-9: binary Bloom filter.
        binary_bloom = _build_bloom(
            frequent_binary, len(binary_counts), fp_rate, name="fc/binary-bloom"
        )
    else:
        frequent_binary = env.from_collection((), name="fc/binary-empty")
        binary_bloom = BloomFilter.for_capacity(1, fp_rate)

    # Step 11: association rules by joining unary and binary counters.
    association_rules = step(
        "fc/rules",
        partial(_extract_association_rules, frequent_unary, frequent_binary),
    )

    return FrequentConditions(
        h=h,
        scope=scope,
        unary_counts=unary_counts,
        binary_counts=binary_counts,
        unary_bloom=unary_bloom,
        binary_bloom=binary_bloom,
        association_rules=association_rules,
    )


def _explode_binary_parts(pair):
    """``(u1 ∧ u2, n)`` → one join record per embedded unary part."""
    condition, count = pair
    for part in condition.unary_parts():
        yield part, condition, count


def _match_association_rules(key, unary_records, binary_records):
    """Equal-count join groups yield exact ARs (Lemma 2)."""
    if not unary_records:
        return
    (_condition, unary_count) = unary_records[0]
    for _part, binary_condition, binary_count in binary_records:
        if binary_count == unary_count:
            other = binary_condition.other_part(key)
            yield SupportedAR(AssociationRule(key, other), binary_count)


def _extract_association_rules(
    frequent_unary: DataSet, frequent_binary: DataSet
) -> List[SupportedAR]:
    """Join unary and binary counters on the embedded unary condition.

    A frequent binary counter ``(u1 ∧ u2, n)`` joins with both of its
    parts; if a part's counter equals ``n``, the part determines the other
    (confidence 1) and ``part → other`` is an AR with support ``n``
    (Lemma 2).
    """
    binaries_by_part = frequent_binary.flat_map(
        _explode_binary_parts, name="fc/ar-explode"
    )
    rules = frequent_unary.co_group(
        binaries_by_part,
        key_self=pair_key,
        key_other=pair_key,
        fn=_match_association_rules,
        name="fc/ar-join",
    ).collect(name="fc/ar-collect")
    rules.sort(key=lambda sar: (-sar.support, sar.rule))
    return rules
