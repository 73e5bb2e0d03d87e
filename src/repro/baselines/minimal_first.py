"""Minimal-CINDs-first: the strategy Section 8.6 evaluates and rejects.

Instead of extracting *all* broad CINDs and consolidating afterwards,
this strategy makes multiple passes over the capture groups, extracting
one dependent/referenced arity class at a time and using each pass's
results to shrink the next pass's candidates:

1. **Pass 1 — Ψ1:2** (unary dependent, binary referenced): these can
   never be implied, so all of them are minimal.
2. **Pass 2 — Ψ1:1 and Ψ2:2**: extracted, then those implied by a pass-1
   CIND (referenced tightening for Ψ1:1, dependent relaxation for Ψ2:2)
   are discarded.
3. **Pass 3 — Ψ2:1**: extracted, then those implied by a *valid* Ψ1:1 or
   Ψ2:2 CIND are discarded.

The output equals RDFind's pertinent set (tests assert this), but the
capture groups are scanned three times and the candidate bookkeeping is
repeated per pass — which is why the paper measured it "up to 3 times
slower even than RDFind-DE" and kept the extract-then-consolidate design.
"""

from __future__ import annotations

import time
from itertools import groupby
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.core.capture_groups import create_capture_groups
from repro.core.cind import CIND, Capture, SupportedCIND, capture_code, code_capture
from repro.core.conditions import ConditionScope
from repro.core.discovery import DiscoveryResult, DiscoveryStats, RDFindConfig
from repro.core.frequent_conditions import detect_frequent_conditions
from repro.dataflow.engine import DataSet, ExecutionEnvironment
from repro.dataflow.gcpause import gc_paused
from repro.dataflow.kernels import batch_dataset
from repro.rdf.model import Dataset, EncodedDataset

CapturePredicate = Callable[[Capture], bool]


def _extract_class(
    groups: DataSet,
    h: int,
    dep_pred: CapturePredicate,
    ref_pred: CapturePredicate,
    pass_name: str,
) -> Dict[Capture, Tuple[FrozenSet[Capture], int]]:
    """One restricted extraction pass over the capture groups."""

    def emit(group: FrozenSet[Capture]):
        refs = frozenset(capture for capture in group if ref_pred(capture))
        for capture in group:
            if dep_pred(capture):
                yield capture, (refs - {capture}, 1)

    merged = groups.flat_map(emit, name=f"{pass_name}/candidates").reduce_by_key(
        key_fn=lambda pair: pair[0],
        value_fn=lambda pair: pair[1],
        reduce_fn=lambda a, b: (a[0] & b[0], a[1] + b[1]),
        name=f"{pass_name}/merge",
    )
    broad = merged.filter(
        lambda pair: pair[1][1] >= h, name=f"{pass_name}/broadness"
    )
    return dict(broad.collect(name=f"{pass_name}/collect"))


def minimal_first_discover(
    dataset: Union[Dataset, EncodedDataset],
    h: int,
    parallelism: int = 4,
    scope: Optional[ConditionScope] = None,
) -> DiscoveryResult:
    """Run the minimal-first strategy end to end.

    Returns a :class:`~repro.core.discovery.DiscoveryResult` whose
    ``cinds`` equal RDFind's pertinent set; only the extraction strategy
    differs (and its runtime, which is the point of Section 8.6).
    """
    if isinstance(dataset, Dataset):
        dataset = dataset.encode()
    scope = scope if scope is not None else ConditionScope.full()
    config = RDFindConfig(
        support_threshold=h,
        parallelism=parallelism,
        scope=scope,
        prune_capture_support=False,
        balance_dominant_groups=False,
    )
    started = time.perf_counter()
    with gc_paused():
        env = ExecutionEnvironment(parallelism=parallelism, name=f"minimal-first(h={h})")
        batches = batch_dataset(env, dataset)
        frequent = detect_frequent_conditions(env, batches, h=h, scope=scope)
        # The passes work on the captures themselves; decode the codes here.
        groups = create_capture_groups(
            env, batches, scope=scope, frequent=frequent
        ).map(_decode_group, name="mf/decode-groups")

        unary = lambda c: c.is_unary  # noqa: E731 - local arity predicates
        binary = lambda c: c.is_binary  # noqa: E731

        # Pass 1: Ψ1:2 — all minimal by construction.
        pass1 = _extract_class(groups, h, unary, binary, "mf/pass1")
        pertinent: List[SupportedCIND] = list(_materialize(pass1))

        # Pass 2: Ψ1:1 and Ψ2:2, pruned against pass 1.
        pass2_11 = _extract_class(groups, h, unary, unary, "mf/pass2-11")
        pass2_22 = _extract_class(groups, h, binary, binary, "mf/pass2-22")
        for supported in _materialize(pass2_11):
            if not _ref_tightenable(supported.cind, pass1):
                pertinent.append(supported)
        for supported in _materialize(pass2_22):
            if not _dep_relaxable(supported.cind, pass1):
                pertinent.append(supported)

        # Pass 3: Ψ2:1, pruned against the *valid* pass-2 classes.
        pass3 = _extract_class(groups, h, binary, unary, "mf/pass3")
        for supported in _materialize(pass3):
            if _dep_relaxable(supported.cind, pass2_11):
                continue
            if _ref_tightenable(supported.cind, pass2_22):
                continue
            pertinent.append(supported)

    pertinent.sort(key=lambda sc: (-sc.support, sc.cind))
    by_dependent = groupby(pertinent, key=lambda sc: (sc.cind.dependent, sc.support))
    blocks = [  # handed over as the pipeline hands it over
        (capture_code(dep), support, [capture_code(sc.cind.referenced) for sc in rows])
        for (dep, support), rows in by_dependent
    ]
    elapsed = time.perf_counter() - started
    stats = DiscoveryStats(
        num_triples=len(dataset),
        num_frequent_unary=len(frequent.unary_counts),
        num_frequent_binary=len(frequent.binary_counts),
        num_association_rules=len(frequent.association_rules),
        num_pertinent_cinds=len(pertinent),
    )
    return DiscoveryResult(
        blocks=blocks,
        association_rules=list(frequent.association_rules),
        dictionary=dataset.dictionary,
        config=config,
        stats=stats,
        metrics=env.metrics,
        elapsed_seconds=elapsed,
    )


def _decode_group(group: FrozenSet[int]) -> FrozenSet[Capture]:
    return frozenset(map(code_capture, group))


def _materialize(
    adjacency: Dict[Capture, Tuple[FrozenSet[Capture], int]]
):
    """Adjacency rows to non-trivial SupportedCINDs."""
    for dependent, (refs, support) in adjacency.items():
        for referenced in refs:
            cind = CIND(dependent, referenced)
            if not cind.is_trivial():
                yield SupportedCIND(cind, support)


def _dep_relaxable(
    cind: CIND, impliers: Dict[Capture, Tuple[FrozenSet[Capture], int]]
) -> bool:
    """Is some dependent relaxation of ``cind`` among ``impliers``?"""
    for relaxed in cind.dependent.unary_relaxations():
        entry = impliers.get(relaxed)
        if entry is None:
            continue
        refs, _support = entry
        implier = CIND(relaxed, cind.referenced)
        if cind.referenced in refs and not implier.is_trivial():
            return True
    return False


def _ref_tightenable(
    cind: CIND, impliers: Dict[Capture, Tuple[FrozenSet[Capture], int]]
) -> bool:
    """Is some referenced tightening of ``cind`` among ``impliers``?"""
    entry = impliers.get(cind.dependent)
    if entry is None:
        return False
    refs, _support = entry
    referenced = cind.referenced
    for capture in refs:
        if capture.attr != referenced.attr or not capture.is_binary:
            continue
        if referenced.condition in capture.condition.unary_parts():
            return True
    return False
