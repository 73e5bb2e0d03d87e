"""Compare two result files written by ``run.py --out``.

    python -m benchmarks.e2e.compare old.json new.json

One row per workload and end-to-end metric, judged against the metric's
bound in ``spec.py``: *regressed* or *improved* when the medians differ by
more than the bound and by more than either side's own run-to-run spread
(quartile distance over median); otherwise *unresolved* when a spread is
wider than the bound or unknown (fewer than two runs) — never
"unchanged" — and *unchanged* only when both sides are steadier than the
bound.  Every ratio is printed with its base.  Exits 1 on a regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import List, Optional, Tuple

from benchmarks.e2e import spec


def spread(values: List[float]) -> Optional[float]:
    """Quartile distance as a share of the median; None below two runs."""
    if len(values) < 2:
        return None
    first, _median, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def verdict(
    metric: spec.EndToEnd, old: List[float], new: List[float]
) -> Tuple[str, float]:
    """``(verdict, share by which the new median is worse than the old)``."""
    base, changed = statistics.median(old), statistics.median(new)
    worse = (changed - base) / base
    if metric.better == "higher":
        worse = -worse
    spreads = [spread(old), spread(new)]
    known = None not in spreads
    noise = max(s for s in spreads if s is not None) if known else 0.0
    if abs(worse) > max(metric.bound, noise):
        return ("regressed" if worse > 0 else "improved"), worse
    if not known or noise > metric.bound:
        return "unresolved", worse
    return "unchanged", worse


def percent(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{100 * value:.1f}%"


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0]) as handle:
        old = json.load(handle)
    with open(argv[1]) as handle:
        new = json.load(handle)
    print(f"old: {old['stamp']}\nnew: {new['stamp']}")
    regressed = False
    for name, _why in spec.WORKLOADS:
        before, after = old["workloads"].get(name), new["workloads"].get(name)
        if not before or not after:
            print(f"\n{name}: missing on one side")
            continue
        print(f"\n{name}")
        for metric in spec.END_TO_END:
            a = before["end_to_end"].get(metric.name) or []
            b = after["end_to_end"].get(metric.name) or []
            if not a or not b:
                print(f"  {metric.name:<14} missing on one side")
                continue
            word, worse = verdict(metric, a, b)
            regressed |= word == "regressed"
            base, changed = statistics.median(a), statistics.median(b)
            print(
                f"  {metric.name:<14} {word:<10} {changed:.6g} {metric.unit} is "
                f"x{changed / base:.4f} of {base:.6g} {metric.unit} "
                f"({percent(worse)} worse, bound {percent(metric.bound)}; "
                f"spread {percent(spread(a))} of {len(a)} runs -> "
                f"{percent(spread(b))} of {len(b)} runs)"
            )
        for layer in spec.PER_LAYER:
            if name not in layer.workloads:
                continue
            a = before["per_layer"].get(layer.name, 0.0)
            b = after["per_layer"].get(layer.name, 0.0)
            ratio = f"x{b / a:.4f} of" if a else "was"
            print(f"    {layer.name:<46} {b:.6g} {layer.unit} {ratio} {a:.6g} "
                  f"{layer.unit} -> {layer.moves}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
