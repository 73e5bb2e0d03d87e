"""Record-at-a-time reference implementations of the hot operators.

The transcriptions of Algorithm 1 (binary condition counters),
Algorithm 2 (capture evidences) and the per-dependent candidate-set
emitter of Section 7, one Python record per triple, evidence or
candidate — the shape the paper describes them in.  Production code runs
the batch kernels (``repro.dataflow.kernels``) and the shared-refs
candidate emitter (``repro.core.extraction``); the tests compare those
against this module: same count dicts, same capture-group partitions,
same result bytes.

Between CGCreator and the end of extraction production code holds a
capture as its int code; this module still builds the ``Capture`` the
paper describes per triple and speaks codes through the public
``capture_code`` only, and its candidate filters through the public
``int_key_mask``.

The classes and the ``_dataflow_*`` functions were moved here unchanged
from ``repro.core`` when the kernels became the only production path.
:func:`detect_frequent_conditions` and :func:`create_capture_groups`
take the same arguments as their production namesakes, and
:func:`discover` runs the whole pipeline on them.
"""

from __future__ import annotations

import operator
from functools import partial
from typing import Dict, FrozenSet, Iterator, Optional, Set, Tuple
from unittest import mock

from repro.core import discovery, extraction
from repro.core.capture_groups import _expand_group_value
from repro.core.cind import Capture, capture_code
from repro.core.conditions import (
    BinaryCondition,
    Condition,
    ConditionScope,
    UnaryCondition,
)
from repro.core.discovery import DiscoveryResult, RDFind, RDFindConfig
from repro.core.extraction import CandidateValue
from repro.core.frequent_conditions import (
    DEFAULT_FP_RATE,
    FrequentConditions,
    _build_bloom,
    _extract_association_rules,
)
from repro.dataflow.bloom import BloomFilter
from repro.dataflow.engine import (
    DataSet,
    ExecutionEnvironment,
    pair_key,
    pair_value,
)
from repro.rdf.model import Attr, EncodedTriple


class _UnaryCounterEmitter:
    """Per-triple ``(unary condition, 1)`` counters (Figure 5, step 1)."""

    __slots__ = ("attrs",)

    def __init__(self, scope: ConditionScope) -> None:
        self.attrs = tuple(sorted(scope.condition_attrs))

    def __call__(
        self, triple: EncodedTriple
    ) -> Iterator[Tuple[UnaryCondition, int]]:
        for attr in self.attrs:
            yield UnaryCondition(attr, triple[int(attr)]), 1


class _BinaryCounterEmitter:
    """Algorithm 1: on-demand binary candidate creation via Bloom probes."""

    __slots__ = ("attrs", "pairs", "unary_bloom")

    def __init__(self, scope: ConditionScope, unary_bloom: BloomFilter) -> None:
        self.attrs = tuple(sorted(scope.condition_attrs))
        pairs = []
        for index, attr1 in enumerate(self.attrs):
            for attr2 in self.attrs[index + 1 :]:
                pairs.append((attr1, attr2))
        self.pairs = tuple(pairs)
        self.unary_bloom = unary_bloom

    def __call__(
        self, triple: EncodedTriple
    ) -> Iterator[Tuple[BinaryCondition, int]]:
        unary_bloom = self.unary_bloom
        probed = {
            attr: UnaryCondition(attr, triple[int(attr)]) in unary_bloom
            for attr in self.attrs
        }
        for attr1, attr2 in self.pairs:
            if probed[attr1] and probed[attr2]:
                yield (
                    BinaryCondition(
                        attr1, triple[int(attr1)], attr2, triple[int(attr2)]
                    ),
                    1,
                )


def _count_at_least(h: int, pair: Tuple[Condition, int]) -> bool:
    """Frequency filter used via ``functools.partial`` (picklable)."""
    return pair[1] >= h


def _dataflow_unary_counts(
    env: ExecutionEnvironment,
    triples: DataSet,
    scope: ConditionScope,
    h: int,
) -> Tuple[Dict[UnaryCondition, int], DataSet]:
    """Record-at-a-time path for steps 1-2 (counts dict + frequent dataset)."""
    unary_counters = triples.flat_map(
        _UnaryCounterEmitter(scope), name="fc/unary-counters"
    ).reduce_by_key(
        key_fn=pair_key,
        value_fn=pair_value,
        reduce_fn=operator.add,
        name="fc/unary-aggregate",
    )
    frequent_unary = unary_counters.filter(
        partial(_count_at_least, h), name="fc/unary-filter"
    )
    return dict(frequent_unary.collect(name="fc/unary-collect")), frequent_unary


def _dataflow_binary_counts(
    env: ExecutionEnvironment,
    triples: DataSet,
    scope: ConditionScope,
    unary_bloom: BloomFilter,
    h: int,
) -> Tuple[Dict[BinaryCondition, int], DataSet]:
    """Record-at-a-time path for Algorithm 1 (counts dict + frequent dataset)."""
    binary_counters = triples.flat_map(
        _BinaryCounterEmitter(scope, unary_bloom),
        name="fc/binary-counters",
    ).reduce_by_key(
        key_fn=pair_key,
        value_fn=pair_value,
        reduce_fn=operator.add,
        name="fc/binary-aggregate",
    )
    frequent_binary = binary_counters.filter(
        partial(_count_at_least, h), name="fc/binary-filter"
    )
    return (
        dict(frequent_binary.collect(name="fc/binary-collect")),
        frequent_binary,
    )


class _EvidenceEmitter:
    """The per-triple evidence function (Algorithm 2).

    A module-level class rather than a closure so the process executor can
    pickle it; the Bloom filters and rule set travel with the instance to
    each pool worker once per stage.
    """

    __slots__ = ("projections", "unary_bloom", "binary_bloom", "rules", "allow_binary")

    def __init__(
        self, scope: ConditionScope, frequent: Optional[FrequentConditions]
    ) -> None:
        self.projections: Tuple[Tuple[Attr, Tuple[Attr, ...]], ...] = tuple(
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

    def __call__(self, triple: EncodedTriple) -> Iterator[Tuple[int, int]]:
        for value, capture in self._evidences(triple):
            yield value, capture_code(capture)

    def _evidences(
        self, triple: EncodedTriple
    ) -> Iterator[Tuple[int, Capture]]:
        unary_bloom = self.unary_bloom
        binary_bloom = self.binary_bloom
        rules = self.rules
        for alpha, condition_attrs in self.projections:
            value = triple[int(alpha)]
            if len(condition_attrs) == 2 and self.allow_binary:
                beta, gamma = condition_attrs
                v_beta = triple[int(beta)]
                v_gamma = triple[int(gamma)]
                unary_beta = UnaryCondition(beta, v_beta)
                unary_gamma = UnaryCondition(gamma, v_gamma)
                beta_ok = unary_bloom is None or unary_beta in unary_bloom
                gamma_ok = unary_bloom is None or unary_gamma in unary_bloom
                if beta_ok and gamma_ok:
                    binary = BinaryCondition(beta, v_beta, gamma, v_gamma)
                    binary_ok = binary_bloom is None or binary in binary_bloom
                    if (
                        binary_ok
                        and (unary_beta, unary_gamma) not in rules
                        and (unary_gamma, unary_beta) not in rules
                    ):
                        yield value, Capture(alpha, binary)
                    else:
                        yield value, Capture(alpha, unary_beta)
                        yield value, Capture(alpha, unary_gamma)
                elif beta_ok:
                    yield value, Capture(alpha, unary_beta)
                elif gamma_ok:
                    yield value, Capture(alpha, unary_gamma)
            else:
                for attr in condition_attrs:
                    unary = UnaryCondition(attr, triple[int(attr)])
                    if unary_bloom is None or unary in unary_bloom:
                        yield value, Capture(alpha, unary)


def _singleton_capture_set(pair: Tuple[int, int]) -> Set[int]:
    """Seed accumulator for one evidence record."""
    return {pair[1]}


class _CandidateEmitter:
    """Per-group candidate-set producer (consumed by the fused reduce).

    A module-level class so the fused combine task stays picklable under
    the process executor.
    """

    __slots__ = ("masks", "average_load")

    def __init__(self, masks, average_load: float) -> None:
        self.masks = masks  # code -> int_key_mask(code, bits, hashes)
        self.average_load = average_load

    def __call__(
        self, group: FrozenSet[int]
    ) -> Iterator[Tuple[int, CandidateValue]]:
        size = len(group)
        if size * size > self.average_load:
            bloom = 0
            for capture in group:
                bloom |= self.masks[capture]
            for capture in group:
                yield capture, (bloom, 1, True)
        else:
            for capture in group:
                yield capture, (group.difference((capture,)), 1, False)


def _candidate_state_cost(value: CandidateValue) -> int:
    """Combiner-state price of one candidate set (cells)."""
    refs, _count, _approx = value
    if isinstance(refs, int):
        return 8  # constant-size filter
    return len(refs) + 1


# ----------------------------------------------------------------------
# the phases and the pipeline on the record operators
# ----------------------------------------------------------------------


def _triple_records(env: ExecutionEnvironment, batches: DataSet) -> DataSet:
    """The per-triple record view of a batch dataset, partition for partition."""
    return env.from_partitions(
        [
            [EncodedTriple(*row) for batch in partition for row in zip(*batch.columns)]
            for partition in batches.partitions
        ],
        name="source/triple-records",
    )


def detect_frequent_conditions(
    env: ExecutionEnvironment,
    batches: DataSet,
    h: int,
    scope: Optional[ConditionScope] = None,
    fp_rate: float = DEFAULT_FP_RATE,
) -> FrequentConditions:
    """The FCDetector with per-triple counters for steps 1-2 and 6-7."""
    scope = scope if scope is not None else ConditionScope.full()
    triples = _triple_records(env, batches)
    unary_counts, frequent_unary = _dataflow_unary_counts(env, triples, scope, h)
    unary_bloom = _build_bloom(
        frequent_unary, len(unary_counts), fp_rate, name="fc/unary-bloom"
    )
    binary_counts: Dict[BinaryCondition, int] = {}
    if scope.allow_binary and len(scope.condition_attrs) >= 2:
        binary_counts, frequent_binary = _dataflow_binary_counts(
            env, triples, scope, unary_bloom, h
        )
        binary_bloom = _build_bloom(
            frequent_binary, len(binary_counts), fp_rate, name="fc/binary-bloom"
        )
    else:
        frequent_binary = env.from_collection((), name="fc/binary-empty")
        binary_bloom = BloomFilter.for_capacity(1, fp_rate)
    return FrequentConditions(
        h=h,
        scope=scope,
        unary_counts=unary_counts,
        binary_counts=binary_counts,
        unary_bloom=unary_bloom,
        binary_bloom=binary_bloom,
        association_rules=_extract_association_rules(
            frequent_unary, frequent_binary
        ),
    )


def create_capture_groups(
    env: ExecutionEnvironment,
    batches: DataSet,
    scope: Optional[ConditionScope] = None,
    frequent: Optional[FrequentConditions] = None,
) -> DataSet:
    """The CGCreator with per-triple evidences: flat_map, then reduce."""
    scope = scope if scope is not None else ConditionScope.full()
    evidences = _triple_records(env, batches).flat_map(
        _EvidenceEmitter(scope, frequent), name="cg/evidences"
    )
    grouped = evidences.reduce_by_key(
        key_fn=pair_key,
        value_fn=_singleton_capture_set,
        reduce_fn=operator.ior,
        name="cg/group-by-value",
    )
    return grouped.rebalance(name="cg/rebalance").map(
        _expand_group_value, name="cg/expand"
    )


def per_dependent_candidates():
    """Make ``extract_broad_cinds`` emit ``G − {c}`` per dependent ``c``.

    The production merge stage then folds the reference sets the paper
    describes (priced at ``|refs| + 1`` under a memory budget); its
    remove-the-dependent step finds nothing to remove.
    """
    return mock.patch.multiple(
        extraction,
        _SharedRefsCandidateEmitter=_CandidateEmitter,
        _candidate_state_cost=_candidate_state_cost,
    )


def discover(dataset, config: RDFindConfig) -> DiscoveryResult:
    """``RDFind(config).discover(dataset)`` on the record operators."""
    with mock.patch.multiple(
        discovery,
        detect_frequent_conditions=detect_frequent_conditions,
        create_capture_groups=create_capture_groups,
    ), per_dependent_candidates():
        return RDFind(config).discover(dataset)
