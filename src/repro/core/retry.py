"""Shared retry/backoff machinery: one policy, many subsystems.

Three independent layers of this codebase re-execute failed work with
exponential backoff: the dataflow engine's task retries
(:mod:`repro.dataflow.faults`, where this machinery originally lived),
the federated SPARQL endpoint client (:mod:`repro.federation.client`),
and the job-server HTTP client (:mod:`repro.server.client`).  They must
agree on two things:

* the **backoff schedule** — bounded exponential growth with a cap, so a
  flapping dependency is neither hammered nor waited on forever; and
* **determinism** — every probabilistic choice (here: jitter) is a pure
  BLAKE2b function of a seed and a caller-supplied key, never
  ``random``.  Two runs with the same seed produce byte-identical delay
  sequences, which is what lets fault-injected runs be replayed and
  compared bit-for-bit against clean ones (the discipline PR 3
  established for task execution).

Jitter exists because synchronized clients retrying in lockstep re-ambush
a recovering server (the "thundering herd" of the retry literature); it
is expressed as a ± fraction of the base delay.  A policy with
``jitter=0`` reproduces the legacy dataflow schedule exactly.

This module is stdlib-only and imports nothing from the rest of the
package, so anything — core, dataflow, server, federation — may depend
on it.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = [
    "RetryPolicy",
    "SimulatedClock",
    "unit_draw",
]

_SCALE = float(1 << 64)


def unit_draw(seed: int, key: str) -> float:
    """A deterministic uniform draw in ``[0, 1)`` for one decision slot.

    BLAKE2b rather than ``random``: the draw must not depend on call
    order, thread interleaving, or ``PYTHONHASHSEED`` — only on
    ``(seed, key)``.
    """
    digest = hashlib.blake2b(
        f"{seed}|{key}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / _SCALE


class SimulatedClock:
    """Accumulates backoff waits instead of sleeping.

    The dataflow engine's tasks are pure functions over payloads: nothing
    external heals with time, so real sleeps would only slow the run
    down.  The clock keeps the *accounting* of an exponential-backoff
    schedule (what a cluster would have waited) observable without
    paying it.  Network clients, whose peers genuinely do heal with
    time, use ``time.sleep`` instead.
    """

    __slots__ = ("elapsed",)

    def __init__(self) -> None:
        self.elapsed = 0.0

    def sleep(self, seconds: float) -> None:
        self.elapsed += seconds


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded re-execution with exponential backoff and seeded jitter.

    ``max_retries`` is the number of *re*-executions per operation (0
    disables retrying).  The base delay before retry ``n`` (1-based) is
    ``backoff_seconds * backoff_factor ** (n - 1)``, capped at
    ``max_backoff_seconds``.  With ``jitter > 0`` the delay is spread
    deterministically over ``base * (1 ± jitter)``: the draw is a pure
    function of ``(seed, key, n)``, so a fixed seed yields an identical
    delay sequence on every run — across every subsystem that shares the
    policy (regression-tested in ``tests/test_retry.py``).
    """

    max_retries: int = 2
    backoff_seconds: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_seconds: float = 5.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_seconds < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff must be >= 0 with factor >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay(self, retry_number: int, key: str = "") -> float:
        """Backoff before the ``retry_number``-th retry (1-based).

        ``key`` names the operation being retried (an endpoint URL, a
        stage/task slot, an HTTP path) so that concurrent retry loops
        under one seed de-synchronize from each other while each loop
        stays individually reproducible.
        """
        base = min(
            self.max_backoff_seconds,
            self.backoff_seconds * self.backoff_factor ** (retry_number - 1),
        )
        if not self.jitter or not base:
            return base
        # unit_draw is in [0, 1); spread it to [-1, 1) around the base.
        spread = 2.0 * unit_draw(self.seed, f"{key}|retry|{retry_number}") - 1.0
        return base * (1.0 + self.jitter * spread)

    def delay_with_hint(
        self, retry_number: int, key: str = "", hint: Optional[float] = None
    ) -> float:
        """The delay, honoring a server-supplied backoff hint.

        ``hint`` is a ``Retry-After`` value in seconds: the wait is at
        least the hint (the server knows its own recovery schedule
        better than our exponential guess) but never beyond
        ``max_backoff_seconds`` — a proxy advertising ``Retry-After:
        3600`` must not park a bounded retry loop for an hour.
        """
        delay = self.delay(retry_number, key)
        if hint is not None and hint > 0:
            delay = max(delay, min(float(hint), self.max_backoff_seconds))
        return delay

    def delays(self, key: str = "") -> "list[float]":
        """The full delay schedule (``max_retries`` entries) for ``key``."""
        return [self.delay(n, key) for n in range(1, self.max_retries + 1)]

    def is_retryable(self, error: BaseException) -> bool:
        """Whether re-executing can possibly change the outcome.

        Anything that is an ``Exception`` is; ``KeyboardInterrupt`` and
        friends are not.  Subsystems with richer failure taxonomies
        (the dataflow engine's deterministic OOM, the federation
        client's permanent-vs-transient split) override this.
        """
        return isinstance(error, Exception)

    def call(
        self,
        func: Callable[[], "object"],
        key: str = "",
        sleeper: Callable[[float], None] = time.sleep,
        hint_for: Optional[Callable[[BaseException], Optional[float]]] = None,
    ) -> "object":
        """Run ``func`` under this policy; the shared retry loop.

        Retries on any failure :meth:`is_retryable` accepts, sleeping
        the (jittered) schedule between attempts via ``sleeper``.
        ``hint_for`` extracts a server backoff hint (``Retry-After``)
        from a failure, which :meth:`delay_with_hint` then honors.
        """
        retry_number = 0
        while True:
            try:
                return func()
            except BaseException as error:  # noqa: BLE001 - re-raised below
                retry_number += 1
                if retry_number > self.max_retries or not self.is_retryable(error):
                    raise
                hint = hint_for(error) if hint_for is not None else None
                sleeper(self.delay_with_hint(retry_number, key, hint))
