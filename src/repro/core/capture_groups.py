"""CGCreator: capture evidences and capture groups (Section 6).

A *capture evidence* states that a value occurs in a capture's
interpretation; a *capture group* is the set of captures sharing one
value.  Lemma 3 reduces CIND validity to capture-group membership, which
is what makes groups the central data structure of the extraction phase.

Evidence creation follows Algorithm 2 exactly
(:class:`~repro.dataflow.kernels.EvidenceBatchKernel`): per triple and
projection attribute, the two candidate unary conditions are probed
against the unary-condition Bloom filter; if both pass, the binary
condition is probed against the binary filter and checked against the
known association rules.
A frequent, non-AR binary condition yields a *single* binary capture
evidence — it *subsumes* the two unary evidences (they are recovered
during group aggregation, see :func:`expand_captures`), which keeps the
shuffle volume at one record instead of three.  An AR-embedding binary
condition is skipped entirely: its capture is extent-equal to a unary
capture (equivalence pruning, Section 5.1), so the unary evidences are
emitted instead.

With ``frequent=None`` the creator runs unpruned — every condition is
treated as frequent and no ARs exist.  That is the RDFind-NF ablation of
Section 8.5.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Set, Tuple

from repro.core.cind import unary_part_codes
from repro.core.conditions import ConditionScope
from repro.core.frequent_conditions import FrequentConditions
from repro.dataflow.engine import DataSet, ExecutionEnvironment

#: A capture group: the captures that share one common value, each as its
#: :func:`~repro.core.cind.capture_code`.
CaptureGroup = FrozenSet[int]

#: A value's evidence codes in ``cg/group-by-value``: one fold's, in
#: first-insertion order, or the merge ``(a, b)`` of two.
Evidence = Tuple


def expand_captures(codes: Set[int]) -> CaptureGroup:
    """Recover the unary captures a binary capture evidence subsumes.

    A binary evidence ``v ∈ (α, φ1 ∧ φ2)`` implies ``v ∈ (α, φ1)`` and
    ``v ∈ (α, φ2)``; both unary conditions are frequent whenever the
    binary one is (the Apriori property), so no extra frequency check is
    needed here.
    """
    expanded = set(codes)
    for code in codes:
        if code >> 36:  # a unary code has no parts (``unary_part_codes``)
            expanded.update(unary_part_codes(code))
    return frozenset(expanded)


def create_capture_groups(
    env: ExecutionEnvironment,
    batches: DataSet,
    scope: Optional[ConditionScope] = None,
    frequent: Optional[FrequentConditions] = None,
) -> DataSet:
    """Run the CGCreator: evidences → grouped and expanded capture groups.

    Returns a :class:`~repro.dataflow.engine.DataSet` of
    :data:`CaptureGroup` (frozensets of capture codes); the grouping values are
    discarded after aggregation, as in the paper ("the system discards the
    values as they are no longer needed").  Before ``cg/expand`` a value's
    codes are :data:`Evidence` tuples: no group is also held as a set.

    Parameters
    ----------
    env, batches:
        The environment and the triple source from
        :func:`~repro.dataflow.kernels.batch_dataset` (one
        :class:`~repro.storage.columnar.TripleBatch` per worker).
        Algorithm 2 runs as the fused
        :class:`~repro.dataflow.kernels.EvidenceBatchKernel`: evidence
        emission and the grouping combiner in one pass.
    scope:
        Attribute restrictions (defaults to the general setting).
    frequent:
        FCDetector output; ``None`` disables the frequent-condition
        pruning (the RDFind-NF ablation).
    """
    # Imported here: the kernels import repro.core, whose package import
    # reaches this module.
    from repro.dataflow.kernels import EvidenceBatchKernel

    scope = scope if scope is not None else ConditionScope.full()
    grouped = batches.flat_map_reduce_by_key(
        EvidenceBatchKernel(scope, frequent),
        merge_evidence,
        name="cg/group-by-value",
    )
    # Round-robin the groups before the expensive per-group work: the hash
    # partitioning above clusters by value, so the few very large groups
    # (paper Section 7.1: they emerge from values like rdf:type) would
    # otherwise pile onto single workers ("the capture groups are
    # distributed among the workers after this step").
    rebalanced = grouped.rebalance(name="cg/rebalance")
    return rebalanced.map(_expand_group_value, name="cg/expand")


def merge_evidence(a: Evidence, b: Evidence) -> Evidence:
    """The ``cg/group-by-value`` reduce; :func:`evidence_set` replays it."""
    return (a, b)


def evidence_set(evidence: Evidence) -> Set[int]:
    """The set a fold of sets builds (codes added one by one, a merge as
    ``a |= b``): its history fixes the group's member order, which the
    priced candidate state's running peak follows."""
    rights = []
    while type(evidence[0]) is not int:  # walk down the merges' left spine
        evidence, right = evidence
        rights.append(right)
    codes = set(evidence)
    for right in reversed(rights):
        codes |= evidence_set(right)
    return codes


def _expand_group_value(pair: Tuple[int, Evidence]) -> CaptureGroup:
    """Drop the grouping value and expand subsumed unary captures."""
    return expand_captures(evidence_set(pair[1]))

