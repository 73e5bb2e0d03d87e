"""Demo: maintaining CINDs while triples stream in and out.

Feeds the Countries dataset to the streaming maintainer in batches,
querying the pertinent set after each batch, then retracts the last
batch again, and shows how little work each update needs compared to
re-running discovery from scratch.

Run with::

    python examples/incremental_maintenance.py
"""

import json
import time

from repro import find_pertinent_cinds
from repro.datasets import countries
from repro.streaming import StreamingRDFind


def main() -> None:
    dataset = list(countries(scale=0.5))
    h = 10
    batch_size = len(dataset) // 5
    print(f"{len(dataset):,} triples arriving in 5 batches, h={h}\n")

    maintainer = StreamingRDFind(h=h)
    print(f"{'batch':>6} | {'triples':>8} | {'CINDs':>7} | {'recomputed':>11} | {'query':>8}")
    for batch_index in range(5):
        batch = dataset[batch_index * batch_size : (batch_index + 1) * batch_size]
        maintainer.add_all(batch)
        before = maintainer.stats.dependents_recomputed
        started = time.perf_counter()
        pertinent = maintainer.pertinent_cinds()
        elapsed = time.perf_counter() - started
        recomputed = maintainer.stats.dependents_recomputed - before
        print(
            f"{batch_index + 1:>6} | {maintainer.triples:>8,} | "
            f"{len(pertinent):>7,} | {recomputed:>11,} | {elapsed * 1000:>6.1f}ms"
        )

    # Removals retract evidence the same way additions apply it.
    for triple in batch:
        maintainer.remove(triple)
    print(
        f"\nafter removing the last batch again: {maintainer.triples:,} triples, "
        f"{len(maintainer.pertinent_cinds()):,} CINDs"
    )

    # Idle query: nothing dirty, nothing recomputed.
    before = maintainer.stats.dependents_recomputed
    maintainer.pertinent_cinds()
    print(
        f"idle re-query recomputed "
        f"{maintainer.stats.dependents_recomputed - before} dependents"
    )

    # Sanity: the maintainer's batch-semantics view (AR-equivalence
    # rewriting applied at query time) matches batch discovery — its
    # document is what `rdfind discover -o` would write, kept per
    # dependent and re-rendered only where the deltas reached.
    batch_result = find_pertinent_cinds(
        maintainer.materialize(), support_threshold=h
    )
    document = json.loads(maintainer.document_json())
    print(
        f"batch re-discovery on the same snapshot: "
        f"{len(batch_result.cinds):,} pertinent CINDs "
        f"(maintainer.document_json(): {len(document['cinds']):,}, "
        f"{maintainer.stats.blocks_rebuilt:,} blocks rendered so far)"
    )


if __name__ == "__main__":
    main()
