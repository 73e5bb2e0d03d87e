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

It runs over capture codes (:func:`repro.core.cind.capture_code`), the
form the extractor and the streaming maintainer hold: every removal is a
set difference of ints, and :func:`~repro.core.cind.unary_part_codes`
spells both a binary dependent's relaxations and a binary reference's
unary parts.  All pertinent CINDs of one dependent share its support, so
the result is a list of *blocks* ``(dependent, support, refs)`` — one per
dependent, its references in order — rather than a row per CIND; a
caller's sort key on codes orders blocks and references alike
(:func:`capture_rank` gives batch's, ``Capture`` order).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Tuple

from repro.core.cind import CIND, Capture, SupportedCIND, unary_part_codes
from repro.core.extraction import BroadCINDs

#: One dependent's pertinent CINDs: (dependent, support, referenced codes).
Block = Tuple[int, int, List[int]]

#: A capture code's ``Capture``.
Decode = Callable[[int], Capture]


def capture_rank(broad: BroadCINDs, decode: Decode) -> Callable[[int], int]:
    """Each code ``broad`` names -> its rank in ``Capture`` order: a sort
    key ordering codes as their captures compare, for one ``decode`` and
    one sort per distinct capture instead of ``Capture`` comparisons."""
    codes = set(broad).union(*(refs for refs, _support in broad.values()))
    ranked = sorted(codes, key=decode)
    return dict(zip(ranked, range(len(ranked)))).__getitem__


def block_cinds(blocks: Iterable[Block], decode: Decode) -> Iterator[SupportedCIND]:
    """The ``SupportedCIND`` rows that ``blocks`` spell, in order."""
    for dependent, support, refs in blocks:
        capture = decode(dependent)
        for referenced in refs:
            yield SupportedCIND(CIND(capture, decode(referenced)), support)


def broad_cind_list(broad: BroadCINDs, decode: Decode) -> List[SupportedCIND]:
    """Flatten the adjacency form into non-trivial ``SupportedCIND`` rows:
    a dependent is never among its references, so the trivial ones are a
    binary dependent's unary relaxations."""
    rows = [
        (dependent, support, refs.difference(unary_part_codes(dependent)))
        for dependent, (refs, support) in broad.items()
    ]
    return sorted(block_cinds(rows, decode), key=lambda sc: (-sc.support, sc.cind))


def consolidate_pertinent(rows: BroadCINDs, key: Callable) -> List[Block]:
    """Keep only the minimal CINDs among the broad ones, as blocks.

    ``rows`` is the adjacency form over codes: dependent -> (exact
    referenced codes, support).  Each row is reduced with set
    differences:

    * **trivial** references go: the dependent itself and, for a binary
      dependent, its own unary relaxations;
    * **dependent-implied** ones go: whatever a relaxation ``(α, φ1')``
      of the dependent references in ``rows``, the tighter ``(α, φ1)``
      references by inference, because ``I(α, φ1) ⊆ I(α, φ1')``.  (Past
      the trivial test the implier is never trivial: the reference is
      not that relaxation.);
    * **referenced-implied** ones go: a binary reference in the row
      implies the same capture relaxed to either unary part — the
      tightened implier shares the dependent, hence the row.

    A dependent left with no reference has no block.  Blocks are ordered
    by ``(-support, key(dependent))``, a block's references by ``key``.
    """
    blocks: List[Block] = []
    for dependent, (refs, support) in rows.items():
        minimal = set(refs)
        minimal.discard(dependent)
        for relaxed in unary_part_codes(dependent):
            minimal.discard(relaxed)
            entry = rows.get(relaxed)
            if entry is not None:
                minimal.difference_update(entry[0])
        for referenced in refs:
            if referenced >> 36:  # a binary capture (see capture_code)
                minimal.difference_update(unary_part_codes(referenced))
        if minimal:
            blocks.append((dependent, support, sorted(minimal, key=key)))
    blocks.sort(key=lambda block: (-block[1], key(block[0])))
    return blocks
