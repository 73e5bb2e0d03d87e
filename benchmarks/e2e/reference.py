"""A fixed computation timed beside the workload, so host speed cancels.

The boxes this benchmark runs on share their cores: the same ``discover``
took 5.6 s and, a quarter of an hour later, 7-9 s, with child CPU time
moving like wall time.  Raw seconds then spread by 20-40% between runs of
one commit, beyond any bound the contract allows.  So every run interleaves
this loop — dict, set and tuple work over ~100 MB, like the program's —
with the operations it times, and reports::

    mean(operation seconds) / mean(reference seconds) * NOMINAL_S

that is, seconds on a host where the loop takes ``NOMINAL_S`` (what it takes
on the reference box when undisturbed).  Slow drift cancels; what remains is
the ~1 s bursts that hit the two unequally (README, "Steadiness").

The loop runs in a helper process: its memory must not count as the
stream workload's, and the session's heap must not slow its collections.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import Dict, List

#: Seconds one ``loop()`` takes on the undisturbed 2-core reference box.
NOMINAL_S = 0.25
#: Time the loop again once this many seconds of work have gone by.
EVERY_S = 2.0


#: Keys the loop groups, probes and ranks; the self-test uses far fewer.
KEYS = 400_000


def loop(keys) -> float:
    started = time.perf_counter()
    groups: Dict[int, set] = {}
    for key in keys:
        groups.setdefault(key[0], set()).add(key)
    found = sum(1 for key in keys if key in groups[key[0]])
    ranked = sorted(groups.items(), key=lambda item: len(item[1]))
    if found != len(keys) or not ranked:
        raise RuntimeError("reference loop lost a key")
    return time.perf_counter() - started


def serve(count: int) -> None:
    """Helper process: one line in, one loop, its seconds out."""
    import random

    rng = random.Random(1)
    keys = [
        (rng.randrange(30000), rng.randrange(3), rng.randrange(30000))
        for _ in range(count)
    ]
    for _line in sys.stdin:
        print(repr(loop(keys)), flush=True)


class Reference:
    """The helper process; ``measure()`` is one loop's seconds."""

    def __init__(self, env: Dict[str, str], keys: int = KEYS) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__, str(keys)], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self.measure()  # builds the keys; the first loop is not representative

    def measure(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


class Normalizer:
    """Collects timed work with the loop interleaved; reference-speed seconds."""

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        self.work: List[float] = []
        self.loops = [reference.measure()]
        self._since = 0.0

    def add(self, seconds: float) -> None:
        self.work.append(seconds)
        self._since += seconds
        if self._since >= EVERY_S:
            self.loops.append(self.reference.measure())
            self._since = 0.0

    def finish(self) -> None:
        if self._since:
            self.loops.append(self.reference.measure())
            self._since = 0.0

    @property
    def raw_s(self) -> float:
        return statistics.mean(self.work)

    @property
    def loop_s(self) -> float:
        return statistics.mean(self.loops)

    @property
    def normalized_s(self) -> float:
        return self.raw_s / self.loop_s * NOMINAL_S


if __name__ == "__main__":
    serve(int(sys.argv[1]))
