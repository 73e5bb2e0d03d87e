"""Batch kernels: the operators of the three discovery phases' hot stages.

A *batch kernel* consumes one
:class:`~repro.storage.columnar.TripleBatch` — a worker's slice of the
encoded dataset kept as three parallel id ``array`` columns — instead of
a stream of per-triple Python records.  The kernels fuse whole operator
chains into one pass per partition (no intermediate record lists), and
pay the expensive per-record work (Bloom probes, capture codes) once per
distinct key: a column has far fewer distinct ids than elements, the
unary filter keeps its decisions for the job (``_passing_ids``), and a
batch decides each binary ``(v_beta, v_gamma)`` pair once, probing plain
id tuples through ``BloomFilter.int_key_probe``.

Exactness (checked by ``tests/test_kernels.py`` against the
record-at-a-time transcriptions of Algorithms 1-2 in
``tests/record_oracle.py``):

* The frequent-condition counting kernels produce the same count dicts
  as per-triple counters; their consumers (Bloom unions, sorted AR
  lists, sorted final output) do not depend on dict order.
* The capture-group kernel (:class:`EvidenceBatchKernel`) folds a whole
  partition's evidences into one ``value -> (codes)`` table, priced or
  not (the engine prices it by its keys), in exactly the per-triple,
  per-projection order of Algorithm 2 — batch ``i`` holds round-robin
  partition ``i``'s triples in partition order — and a dict iterates in
  first-insertion order, so the fused combiner builds the same
  aggregation dict and the shuffle routes the same buckets as a
  per-triple ``flat_map`` + ``reduce_by_key`` would.

Every task here is module-level, like the engine's own.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import combinations
from typing import Dict, List, Set, Tuple

from repro.core.cind import capture_code
from repro.core.conditions import (
    BinaryCondition,
    ConditionScope,
    UnaryCondition,
)
from repro.dataflow.engine import DataSet, ExecutionEnvironment, record_cells
from repro.storage.columnar import EncodedDataset, TripleBatch, build_triple_batches

__all__ = [
    "EvidenceBatchKernel",
    "batch_dataset",
    "unary_counts_kernel",
    "binary_counts_kernel",
]


def batch_dataset(env: ExecutionEnvironment, columns: EncodedDataset) -> DataSet:
    """The triple source: one column batch per worker.

    Batch ``i`` holds the triples round-robin partition ``i`` would hold,
    in the same order — the layout the order-sensitive evidence kernel
    relies on.  Recorded as the ``source/triples`` stage, and each batch
    is charged against the record-count memory budget at its
    ``budget_cells`` (3 cells per triple).
    """
    batches = build_triple_batches(columns, env.parallelism)
    return env.from_batches(
        batches,
        sizes=[len(batch) for batch in batches],
        name="source/triples",
        cost_fn=record_cells,
    )


# ----------------------------------------------------------------------
# frequent-condition counting kernels (FCDetector steps 1-2 and 6-7)
# ----------------------------------------------------------------------


class _UnaryBatchCounter:
    """Per-partition unary condition counting over id columns."""

    __slots__ = ("attrs",)

    def __init__(self, attrs: Tuple) -> None:
        self.attrs = attrs

    def __call__(self, partition: List[TripleBatch]) -> Dict:
        counters: Dict = {attr: Counter() for attr in self.attrs}
        for batch in partition:
            for attr in self.attrs:
                # Counter.update over an array iterates at C speed.
                counters[attr].update(batch.column(attr))
        return counters


def _merge_counters(a: Dict, b: Dict) -> Dict:
    """Merge two workers' per-attribute (or per-pair) counter tables."""
    for key, counter in b.items():
        a[key].update(counter)
    return a


def unary_counts_kernel(
    env: ExecutionEnvironment,
    batches: DataSet,
    scope: ConditionScope,
    h: int,
) -> Dict[UnaryCondition, int]:
    """Frequent unary conditions with their counts (steps 1-2).

    Runs the per-partition counting on the executor and merges the
    partial per-attribute counters on the driver.  The merged table holds one counter per distinct condition;
    that is the state the record-count memory budget is charged.
    """
    attrs = tuple(sorted(scope.condition_attrs))
    merged = batches.reduce_partitions(
        _UnaryBatchCounter(attrs),
        _merge_counters,
        name="fc/unary-columnar",
    )
    env._check_budget(
        "fc/unary-columnar", sum(len(merged[attr]) for attr in attrs)
    )
    counts: Dict[UnaryCondition, int] = {}
    for attr in attrs:
        for value, count in merged[attr].items():
            if count >= h:
                counts[UnaryCondition(attr, value)] = count
    return counts


def _passing_ids(column, attr, unary_bloom) -> Set[int]:
    """The distinct ids of ``column`` whose unary condition passes the filter.

    One probe per distinct id and job — a column has far fewer distinct ids
    than elements, and the filter keeps the ids decided and those that
    passed (``decisions``) for the next batch and stage — on plain
    ``(attr, value)`` tuples, which hash like their ``UnaryCondition``.
    Without a filter (RDFind-NF) every id passes.
    """
    distinct = set(column)
    if unary_bloom is None:
        return distinct
    seen, passed = unary_bloom.decisions.setdefault(attr, (set(), set()))
    fresh = distinct - seen
    if fresh:
        probe = unary_bloom.int_key_probe()
        attr = int(attr)
        passed.update(value for value in fresh if probe((attr, value)))
        seen |= fresh
    return distinct & passed


class _BinaryBatchCounter:
    """Per-partition Algorithm 1 over id columns, one probe per distinct id."""

    __slots__ = ("attrs", "pairs", "unary_bloom")

    def __init__(self, attrs: Tuple, unary_bloom) -> None:
        self.attrs = attrs
        self.pairs = tuple(combinations(attrs, 2))
        self.unary_bloom = unary_bloom

    def __call__(self, partition: List[TripleBatch]) -> Dict:
        counters: Dict = {pair: Counter() for pair in self.pairs}
        for batch in partition:
            passing = {
                attr: _passing_ids(batch.column(attr), attr, self.unary_bloom)
                for attr in self.attrs
            }
            for attr1, attr2 in self.pairs:
                passing1 = passing[attr1]
                passing2 = passing[attr2]
                counters[(attr1, attr2)].update(
                    pair
                    for pair in zip(batch.column(attr1), batch.column(attr2))
                    if pair[0] in passing1 and pair[1] in passing2
                )
        return counters


def binary_counts_kernel(
    env: ExecutionEnvironment,
    batches: DataSet,
    scope: ConditionScope,
    unary_bloom,
    h: int,
) -> Dict[BinaryCondition, int]:
    """Frequent binary conditions with their counts: Algorithm 1 (steps 6-7).

    Each attribute pair's merged counter table is charged against the
    record-count memory budget, one pair at a time.
    """
    attrs = tuple(sorted(scope.condition_attrs))
    merged = batches.reduce_partitions(
        _BinaryBatchCounter(attrs, unary_bloom),
        _merge_counters,
        name="fc/binary-columnar",
    )
    counts: Dict[BinaryCondition, int] = {}
    for attr1, attr2 in combinations(attrs, 2):
        pair_counter = merged[(attr1, attr2)]
        env._check_budget("fc/binary-columnar", len(pair_counter))
        for (v1, v2), count in pair_counter.items():
            if count >= h:
                counts[BinaryCondition(attr1, v1, attr2, v2)] = count
    return counts


# ----------------------------------------------------------------------
# capture-evidence kernel (CGCreator, Algorithm 2)
# ----------------------------------------------------------------------


class EvidenceBatchKernel:
    """Algorithm 2 over one column batch, for ``flat_map_reduce_by_key``.

    Per triple and projection attribute, the two candidate unary
    conditions are probed against the unary-condition Bloom filter; if
    both pass, the binary condition is probed against the binary filter
    and checked against the known association rules.  A frequent, non-AR
    binary condition yields a single binary capture evidence; an
    AR-embedding or infrequent one yields the passing unary evidences.
    Evidences — a capture is its :func:`~repro.core.cind.capture_code` —
    are folded per value in per-triple, per-projection order: ``fold``
    builds a partition's table in one pass, each value's codes as a
    tuple in first-insertion order (``capture_groups.Evidence``).  The
    table costs one record per value and never shrinks, so the engine
    prices it once, after the fold.

    The passing ids are computed once per batch and condition attribute
    (:func:`_passing_ids`) and shared by all projections; each
    projection maps its passing ids to their unary codes, so the
    per-triple work is two dict lookups per projection.  Only when *both*
    parts pass is the binary decision looked up, memoized per batch and
    distinct ``(v_beta, v_gamma)`` pair — those are the pairs that repeat
    (a frequent binary condition occurs at least ``h`` times).  Keys are
    plain tuples of column indexes and ids, which hash and compare like
    the conditions and rules the filter and rule set hold.
    """

    __slots__ = ("projections", "unary_bloom", "binary_bloom", "rules", "allow_binary")

    def __init__(
        self, scope: ConditionScope, frequent
    ) -> None:
        self.projections = tuple(
            (attr, scope.condition_attrs_for(attr))
            for attr in sorted(scope.projection_attrs)
        )
        if frequent is not None:
            self.unary_bloom = frequent.unary_bloom
            self.binary_bloom = frequent.binary_bloom
            self.rules = frozenset(frequent.rule_set)
        else:
            self.unary_bloom = self.binary_bloom = None
            self.rules = frozenset()
        self.allow_binary = scope.allow_binary

    def fold(
        self, partition: List[TripleBatch], _reduce_fn, _sink
    ) -> Dict[int, Tuple[int, ...]]:
        """The whole partition's evidences in one table."""
        table: Dict[int, Dict[int, None]] = defaultdict(dict)
        for batch in partition:
            self._fold_batch(batch, table)
        for value, codes in table.items():
            table[value] = tuple(codes)
        return table

    def _fold_batch(self, batch: TripleBatch, table: Dict[int, Dict[int, None]]) -> None:
        """Fold ``batch``'s rows into ``table``; its passing ids, codes and
        pair memos are bound once and freed on return."""
        if batch.s.itemsize > 4:
            raise ValueError("capture codes cover array('i') term ids only")
        passing = {
            attr: _passing_ids(batch.column(attr), attr, self.unary_bloom)
            for attr in {attr for _alpha, attrs in self.projections for attr in attrs}
        }
        # One plan per projection: alpha, beta, gamma as column indexes,
        # the unary code of every id passing as beta / as gamma, and the
        # pair memo.  A projection with a single in-scope condition
        # attribute has no gamma: nothing passes there.
        plans = []
        for alpha, condition_attrs in self.projections:
            codes = [
                {value: capture_code((alpha, (attr, value))) for value in passing[attr]}
                for attr in condition_attrs
            ]
            if codes:
                plans.append(
                    (
                        int(alpha),
                        int(condition_attrs[0]),
                        int(condition_attrs[-1]),
                        codes[0],
                        codes[1] if len(codes) == 2 else {},
                        {},
                    )
                )
        bloom = self.binary_bloom
        binary_probe = None if bloom is None else bloom.int_key_probe()
        rules = self.rules
        allow_binary = self.allow_binary
        for row in zip(*batch.columns):
            for alpha, beta, gamma, beta_codes, gamma_codes, pairs in plans:
                beta_code = beta_codes.get(row[beta])
                gamma_code = gamma_codes.get(row[gamma])
                if beta_code is None:
                    if gamma_code is not None:
                        table[row[alpha]][gamma_code] = None
                elif gamma_code is None:
                    table[row[alpha]][beta_code] = None
                else:
                    pair = (row[beta], row[gamma])
                    codes = pairs.get(pair)
                    if codes is None:
                        v_beta, v_gamma = pair
                        # frequent (the filter) and embedding no AR
                        binary = (beta, v_beta, gamma, v_gamma)
                        if (
                            allow_binary
                            and (binary_probe is None or binary_probe(binary))
                            and ((beta, v_beta), (gamma, v_gamma)) not in rules
                            and ((gamma, v_gamma), (beta, v_beta)) not in rules
                        ):
                            codes = {capture_code((alpha, binary)): None}
                        else:
                            codes = {beta_code: None, gamma_code: None}
                        pairs[pair] = codes
                    table[row[alpha]].update(codes)
