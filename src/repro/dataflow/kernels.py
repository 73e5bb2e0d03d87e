"""Batch kernels: the operators of the three discovery phases' hot stages.

A *batch kernel* consumes one
:class:`~repro.storage.columnar.TripleBatch` — a worker's slice of the
encoded dataset kept as three parallel id ``array`` columns — instead of
a stream of per-triple Python records.  The kernels fuse whole operator
chains into one pass per partition (no intermediate record lists), and
amortize the expensive per-record work (Bloom probes, capture
construction) behind per-id caches: a column has far fewer distinct ids
than elements, so each probe/object is paid once per distinct id instead
of once per triple.

Exactness (checked by ``tests/test_kernels.py`` against the
record-at-a-time transcriptions of Algorithms 1-2 in
``tests/record_oracle.py``):

* The frequent-condition counting kernels produce the same count dicts
  as per-triple counters; their consumers (Bloom unions, sorted AR
  lists, sorted final output) do not depend on dict order.
* The capture-group kernel (:class:`EvidenceBatchKernel`) yields
  ``(value, {capture})`` pairs in exactly the per-triple, per-projection
  order of Algorithm 2 — batch ``i`` holds round-robin partition ``i``'s
  triples in partition order
  (:func:`~repro.storage.columnar.build_triple_batches`), so the fused
  combiner builds the same aggregation dict and the shuffle routes the
  same buckets as a per-triple ``flat_map`` + ``reduce_by_key`` would.

Everything here is module-level (and picklable), so the kernels run
unchanged on the ``serial`` and ``process`` executor backends.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterator, List, Set, Tuple

from repro.core.cind import Capture
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


class _BinaryBatchCounter:
    """Per-partition Algorithm 1 over id columns, probes cached per id."""

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
        unary_bloom = self.unary_bloom
        probe_caches: Dict = {attr: {} for attr in self.attrs}
        counters: Dict = {pair: Counter() for pair in self.pairs}
        for batch in partition:
            for attr1, attr2 in self.pairs:
                cache1 = probe_caches[attr1]
                cache2 = probe_caches[attr2]
                pair_counter = counters[(attr1, attr2)]
                for v1, v2 in zip(batch.column(attr1), batch.column(attr2)):
                    hit1 = cache1.get(v1)
                    if hit1 is None:
                        hit1 = cache1[v1] = (
                            unary_bloom is None
                            or unary_bloom.contains_int_key(
                                UnaryCondition(attr1, v1)
                            )
                        )
                    if not hit1:
                        continue
                    hit2 = cache2.get(v2)
                    if hit2 is None:
                        hit2 = cache2[v2] = (
                            unary_bloom is None
                            or unary_bloom.contains_int_key(
                                UnaryCondition(attr2, v2)
                            )
                        )
                    if hit2:
                        pair_counter[(v1, v2)] += 1
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

#: Cache sentinel: a probed-and-pruned condition id (vs "not cached yet").
_PRUNED = object()


class EvidenceBatchKernel:
    """Algorithm 2 over one column batch, for ``flat_map_reduce_by_key``.

    Per triple and projection attribute, the two candidate unary
    conditions are probed against the unary-condition Bloom filter; if
    both pass, the binary condition is probed against the binary filter
    and checked against the known association rules.  A frequent, non-AR
    binary condition yields a single binary capture evidence; an
    AR-embedding or infrequent one yields the passing unary evidences.
    The generator yields ``(value, {capture})`` singleton-set pairs in
    per-triple, per-projection order.

    The speed comes from the caches: per projection, the full
    bloom-probe / rule-check / capture-construction decision is computed
    once per distinct condition-value combination and replayed as a tuple
    of shared (immutable, value-hashed) :class:`Capture` objects for
    every other triple carrying the same ids.
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

    def _probe_capture(self, cache: dict, alpha, attr, value: int):
        """Capture for a unary-case condition id (``_PRUNED`` if pruned)."""
        unary = UnaryCondition(attr, value)
        if self.unary_bloom is None or self.unary_bloom.contains_int_key(unary):
            entry = Capture(alpha, unary)
        else:
            entry = _PRUNED
        cache[value] = entry
        return entry

    def _probe_unary(self, cache: dict, attr, value: int):
        """``(ok, condition)`` for one condition id, memoized per attr.

        A column has far fewer distinct ids than elements, so the Bloom
        probe — pure-Python double hashing — and the condition object
        are paid once per distinct id.
        """
        entry = cache.get(value)
        if entry is None:
            unary = UnaryCondition(attr, value)
            entry = cache[value] = (
                self.unary_bloom is None
                or self.unary_bloom.contains_int_key(unary),
                unary,
            )
        return entry

    def _binary_captures(
        self, alpha, beta, gamma, beta_entry, gamma_entry
    ) -> Tuple[Capture, ...]:
        """The capture template one (v_beta, v_gamma) id pair produces."""
        beta_ok, unary_beta = beta_entry
        gamma_ok, unary_gamma = gamma_entry
        if beta_ok and gamma_ok:
            binary = BinaryCondition(
                beta, unary_beta.value, gamma, unary_gamma.value
            )
            binary_ok = (
                self.binary_bloom is None
                or self.binary_bloom.contains_int_key(binary)
            )
            if (
                binary_ok
                and (unary_beta, unary_gamma) not in self.rules
                and (unary_gamma, unary_beta) not in self.rules
            ):
                return (Capture(alpha, binary),)
            return (Capture(alpha, unary_beta), Capture(alpha, unary_gamma))
        if beta_ok:
            return (Capture(alpha, unary_beta),)
        if gamma_ok:
            return (Capture(alpha, unary_gamma),)
        return ()

    def __call__(
        self, batch: TripleBatch
    ) -> Iterator[Tuple[int, Set[Capture]]]:
        columns = batch.columns
        # Per-projection execution plans: (True, value_col, beta_col,
        # gamma_col, beta, gamma, alpha, beta_cache, gamma_cache,
        # pair_cache) for the binary case, (False, value_col,
        # [(alpha, attr, col, cache), ...]) for unaries.  The unary
        # caches are keyed by condition id; the pair cache memoizes the
        # full decision per distinct (v_beta, v_gamma) combination.
        plans = []
        for alpha, condition_attrs in self.projections:
            value_col = columns[int(alpha)]
            if len(condition_attrs) == 2 and self.allow_binary:
                beta, gamma = condition_attrs
                plans.append(
                    (
                        True,
                        value_col,
                        columns[int(beta)],
                        columns[int(gamma)],
                        beta,
                        gamma,
                        alpha,
                        {},
                        {},
                        {},
                    )
                )
            else:
                unary_plans = [
                    (alpha, attr, columns[int(attr)], {})
                    for attr in condition_attrs
                ]
                plans.append((False, value_col, unary_plans))
        for index in range(len(batch)):
            for plan in plans:
                if plan[0]:
                    (
                        _b,
                        value_col,
                        beta_col,
                        gamma_col,
                        beta,
                        gamma,
                        alpha,
                        beta_cache,
                        gamma_cache,
                        pair_cache,
                    ) = plan
                    pair = (beta_col[index], gamma_col[index])
                    captures = pair_cache.get(pair)
                    if captures is None:
                        captures = pair_cache[pair] = self._binary_captures(
                            alpha,
                            beta,
                            gamma,
                            self._probe_unary(beta_cache, beta, pair[0]),
                            self._probe_unary(gamma_cache, gamma, pair[1]),
                        )
                    if captures:
                        value = value_col[index]
                        for capture in captures:
                            yield value, {capture}
                else:
                    _b, value_col, unary_plans = plan
                    value = value_col[index]
                    for alpha, attr, col, cache in unary_plans:
                        entry = cache.get(col[index])
                        if entry is None:
                            entry = self._probe_capture(cache, alpha, attr, col[index])
                        capture = entry
                        if capture is not _PRUNED:
                            yield value, {capture}
