"""Broad-to-pertinent consolidation: minimality filtering (Section 7.3).

A broad CIND is *minimal* — and hence pertinent — unless it can be
inferred from another valid CIND by

* **dependent implication**: relaxing a binary dependent condition to one
  of its unary parts, or
* **referenced implication**: tightening a unary referenced condition to a
  binary one.

Any such implier has at least the support of the implied CIND (the
dependent either grows or stays identical), so an implier of a broad CIND
is itself broad; checking membership in the broad set is therefore a
complete minimality test.  The paper organizes this as two consolidation
rounds over the four arity classes (Ψ2:1 against Ψ1:1 and Ψ2:2, then Ψ1:1
and Ψ2:2 against Ψ1:2); the set-membership formulation here performs the
identical checks in a single pass.
"""

from __future__ import annotations

from typing import List

from repro.core.cind import CIND, SupportedCIND
from repro.core.extraction import BroadCINDs


def broad_cind_list(broad: BroadCINDs) -> List[SupportedCIND]:
    """Flatten the adjacency form into non-trivial ``SupportedCIND`` rows."""
    result: List[SupportedCIND] = []
    for dependent, (refs, support) in broad.items():
        for referenced in refs:
            cind = CIND(dependent, referenced)
            if not cind.is_trivial():
                result.append(SupportedCIND(cind, support))
    result.sort(key=lambda sc: (-sc.support, sc.cind))
    return result


def consolidate_pertinent(broad: BroadCINDs) -> List[SupportedCIND]:
    """Keep only the minimal CINDs among the broad ones.

    ``broad`` is the extractor's adjacency form: dependent capture ->
    (exact referenced captures, support).  Each row is reduced with set
    differences on the capture tuples themselves:

    * **trivial** references go: the dependent itself and, for a binary
      dependent, its own unary relaxations;
    * **dependent-implied** ones go: whatever a relaxation ``(α, φ1')``
      of the dependent references in the broad set, the tighter
      ``(α, φ1)`` references by inference, because
      ``I(α, φ1) ⊆ I(α, φ1')``.  (Past the trivial test the implier is
      never trivial: the reference is not that relaxation.);
    * **referenced-implied** ones go: a binary reference in the row
      implies the same capture relaxed to either unary part — the
      tightened implier shares the dependent, hence the row.

    All rows of one dependent share its support, so the result order
    ``(-support, dependent, referenced)`` is the dependents sorted once
    and each row's survivors sorted on their own.
    """
    pertinent: List[SupportedCIND] = []
    rows = sorted(broad.items(), key=lambda row: (-row[1][1], row[0]))
    for dependent, (refs, support) in rows:
        minimal = set(refs)
        minimal.discard(dependent)
        for relaxed in dependent.unary_relaxations():
            minimal.discard(relaxed)
            entry = broad.get(relaxed)
            if entry is not None:
                minimal.difference_update(entry[0])
        # Plain tuples hash and compare equal to the captures they spell.
        for attr, condition in refs:
            if len(condition) == 4:
                attr1, value1, attr2, value2 = condition
                minimal.discard((attr, (attr1, value1)))
                minimal.discard((attr, (attr2, value2)))
        pertinent.extend(
            SupportedCIND(CIND(dependent, referenced), support)
            for referenced in sorted(minimal)
        )
    return pertinent
