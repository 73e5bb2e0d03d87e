"""Batch kernels: the operators of the three discovery phases' hot stages.

A *batch kernel* consumes one
:class:`~repro.storage.columnar.TripleBatch` — a worker's slice of the
encoded dataset kept as three parallel id ``array`` columns — instead of
a stream of per-triple Python records.  The kernels fuse whole operator
chains into one pass per partition (no intermediate record lists), and
pay the expensive per-record work (Bloom probes, capture codes) once per
distinct id: a column has far fewer distinct ids than elements, and the
unary filter keeps those decisions for the job (``_passing_ids``).

Exactness (checked by ``tests/test_kernels.py`` against the
record-at-a-time transcriptions of Algorithms 1-2 in
``tests/record_oracle.py``):

* The frequent-condition counting kernels produce the same count dicts
  as per-triple counters; their consumers (Bloom unions, sorted AR
  lists, sorted final output) do not depend on dict order.
* The capture-group kernel (:class:`EvidenceBatchKernel`) folds evidences
  into a ``value -> {codes}`` dict, :data:`EVIDENCE_FOLD_ROWS` triples at
  a time, in exactly the per-triple, per-projection order of Algorithm 2 —
  batch ``i`` holds round-robin partition ``i``'s triples in partition
  order — and a dict iterates in first-insertion order, so the fused
  combiner builds the same aggregation dict and the shuffle routes the
  same buckets as a per-triple ``flat_map`` + ``reduce_by_key`` would.

Everything here is module-level (and picklable), so the kernels run
unchanged on the ``serial`` and ``process`` executor backends.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Iterator, List, Set, Tuple

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


def _merge_attr_counters(a: Dict, b: Dict) -> Dict:
    for attr, counter in b.items():
        a[attr].update(counter)
    return a


def unary_counts_kernel(
    env: ExecutionEnvironment,
    batches: DataSet,
    scope: ConditionScope,
    h: int,
) -> Dict[UnaryCondition, int]:
    """Frequent unary conditions with their counts (steps 1-2).

    Runs the per-partition counting on the executor (real cores under the
    process backend) and merges the partial per-attribute counters on the
    driver.  The merged table holds one counter per distinct condition;
    that is the state the record-count memory budget is charged.
    """
    attrs = tuple(sorted(scope.condition_attrs))
    merged = batches.reduce_partitions(
        _UnaryBatchCounter(attrs),
        _merge_attr_counters,
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
    passed (``decisions``) for the next batch and stage — on the same
    ``UnaryCondition`` keys the filter was built from.  Without a filter
    (RDFind-NF) every id passes.
    """
    distinct = set(column)
    if unary_bloom is None:
        return distinct
    seen, passed = unary_bloom.decisions.setdefault(attr, (set(), set()))
    probe = unary_bloom.contains_int_key
    fresh = distinct - seen
    passed.update(value for value in fresh if probe(UnaryCondition(attr, value)))
    seen |= fresh
    return distinct & passed


class _BinaryBatchCounter:
    """Per-partition Algorithm 1 over id columns, one probe per distinct id."""

    __slots__ = ("attrs", "pairs", "unary_bloom")

    def __init__(self, attrs: Tuple, unary_bloom) -> None:
        self.attrs = attrs
        pairs = []
        for index, attr1 in enumerate(attrs):
            for attr2 in attrs[index + 1 :]:
                pairs.append((attr1, attr2))
        self.pairs = tuple(pairs)
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


def _merge_pair_counters(a: Dict, b: Dict) -> Dict:
    for pair, counter in b.items():
        a[pair].update(counter)
    return a


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
        _merge_pair_counters,
        name="fc/binary-columnar",
    )
    counts: Dict[BinaryCondition, int] = {}
    for index, attr1 in enumerate(attrs):
        for attr2 in attrs[index + 1 :]:
            pair_counter = merged[(attr1, attr2)]
            env._check_budget("fc/binary-columnar", len(pair_counter))
            for (v1, v2), count in pair_counter.items():
                if count >= h:
                    counts[BinaryCondition(attr1, v1, attr2, v2)] = count
    return counts


# ----------------------------------------------------------------------
# capture-evidence kernel (CGCreator, Algorithm 2)
# ----------------------------------------------------------------------

#: Rows folded into the kernel's own table between hand-overs to the engine's
#: combiner: the kernel's transient state is bounded whatever the batch size.
EVIDENCE_FOLD_ROWS = 4096


class EvidenceBatchKernel:
    """Algorithm 2 over one column batch, for ``flat_map_reduce_by_key``.

    Per triple and projection attribute, the two candidate unary
    conditions are probed against the unary-condition Bloom filter; if
    both pass, the binary condition is probed against the binary filter
    and checked against the known association rules.  A frequent, non-AR
    binary condition yields a single binary capture evidence; an
    AR-embedding or infrequent one yields the passing unary evidences.
    Evidences — a capture is its :func:`~repro.core.cind.capture_code` —
    are folded per value in per-triple, per-projection order, and the
    generator yields a chunk's ``(value, {codes})`` pairs as first seen.

    The passing ids are computed once per batch and condition attribute
    (:func:`_passing_ids`) and shared by all projections; each
    projection maps its passing ids to their unary codes, so the
    per-triple work is two dict lookups per projection.  Only when *both*
    parts pass is the binary decision looked up, memoized per distinct
    ``(v_beta, v_gamma)`` pair — those are the pairs that repeat (a
    frequent binary condition occurs at least ``h`` times).
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

    def _binary_code(self, alpha, beta, gamma, v_beta: int, v_gamma: int) -> int:
        """The binary capture's code, or 0 where the unary evidences stand in.

        The attributes arrive as plain column indexes; they hash and
        compare like their ``Attr``, so filter and rule keys are the same.
        """
        binary = BinaryCondition(beta, v_beta, gamma, v_gamma)
        if not self.allow_binary or not (
            self.binary_bloom is None or self.binary_bloom.contains_int_key(binary)
        ):
            return 0
        unary_beta = UnaryCondition(beta, v_beta)
        unary_gamma = UnaryCondition(gamma, v_gamma)
        if (unary_beta, unary_gamma) in self.rules or (
            unary_gamma,
            unary_beta,
        ) in self.rules:
            return 0
        return capture_code((alpha, binary))

    def __call__(self, batch: TripleBatch) -> Iterator[Tuple[int, Set[int]]]:
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
        for start in range(0, len(batch), EVIDENCE_FOLD_ROWS):
            stop = start + EVIDENCE_FOLD_ROWS
            table: Dict[int, Set[int]] = defaultdict(set)
            for row in zip(*(column[start:stop] for column in batch.columns)):
                for alpha, beta, gamma, beta_codes, gamma_codes, pairs in plans:
                    beta_code = beta_codes.get(row[beta])
                    gamma_code = gamma_codes.get(row[gamma])
                    if beta_code is None:
                        if gamma_code is not None:
                            table[row[alpha]].add(gamma_code)
                    elif gamma_code is None:
                        table[row[alpha]].add(beta_code)
                    else:
                        pair = (row[beta], row[gamma])
                        codes = pairs.get(pair)
                        if codes is None:
                            code = self._binary_code(alpha, beta, gamma, *pair)
                            codes = pairs[pair] = (
                                (code,) if code else (beta_code, gamma_code)
                            )
                        table[row[alpha]].update(codes)
            yield from table.items()
