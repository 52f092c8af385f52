"""Deterministic retry with exponential backoff: the runtime's one retry loop.

A :class:`RetryPolicy` decides **how often** a failure re-executes and
**when** (exponential backoff capped at :data:`MAX_DELAY`).  **Whether**
a failure re-executes is not a policy knob: it is the taxonomy's
:data:`~repro.service.errors.TRANSIENT_KINDS`, read through
:attr:`JobError.transient <repro.service.errors.JobError.transient>`.
The jitter that de-synchronizes concurrent retries is *counter-seeded*:
the delay for attempt *i* under seed *s* is a pure function of ``(s, i)``
computed through SHA-256, never the process-global ``random`` state —
so a retried batch replays the exact same backoff schedule, which is
what makes fault-injection tests (and post-mortem reproduction of a
flaky run) deterministic.

:func:`retry_call` is the only retry loop in the runtime: the runner
calls it per job and the worker pool per chunk.
"""

from __future__ import annotations

import hashlib
import time as _time
from dataclasses import dataclass
from typing import Callable

from repro.service.errors import from_exception
from repro.service.metrics import METRICS, RETRIES
from repro.service.trace import TRACER

#: The cap on any single backoff delay, in seconds.
MAX_DELAY = 2.0

#: Each delay is stretched by up to this fraction, drawn
#: deterministically from ``(seed, attempt)``.
JITTER = 0.1


def _unit(seed: int, counter: int) -> float:
    """A deterministic uniform-[0,1) draw keyed on ``(seed, counter)``."""
    digest = hashlib.sha256(f"{seed}:{counter}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to re-execute and how long to wait in between.

    ``max_attempts`` counts the first try (3 means up to two retries);
    ``base_delay`` is the first backoff, doubled on each further retry.
    """

    max_attempts: int = 3
    base_delay: float = 0.05

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0:
            raise ValueError("base_delay must be non-negative")

    def delay(self, attempt: int, seed: int = 0) -> float:
        """Backoff before retry *attempt* (0-based): capped exponential
        growth plus deterministic counter-seeded jitter."""
        base = min(MAX_DELAY, self.base_delay * (2**attempt))
        return base * (1.0 + JITTER * _unit(seed, attempt))

    def schedule(self, seed: int = 0) -> list:
        """The full delay schedule this policy would sleep through."""
        return [self.delay(i, seed) for i in range(self.max_attempts - 1)]


def token_seed(token: str) -> int:
    """A stable integer seed derived from an arbitrary token string."""
    digest = hashlib.sha256(str(token).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def retry_call(
    fn: Callable[[], object],
    policy: RetryPolicy,
    *,
    seed: int = 0,
    sleep: Callable[[float], None] = _time.sleep,
):
    """Run *fn*, re-executing transient failures under *policy*.

    A failure whose taxonomy kind is transient re-executes until
    ``policy.max_attempts`` is spent; each retry increments the
    ``retries`` counter, records a ``retry`` trace event and sleeps the
    deterministic backoff delay.  Any other failure, or the last one,
    is re-raised **as it was raised** — classifying it for a report is
    the caller's job, done once.
    """
    attempt = 0
    while True:
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 — re-raised unless transient
            error = from_exception(exc)
            if not error.transient or attempt + 1 >= policy.max_attempts:
                raise
            METRICS.inc(RETRIES)
            TRACER.event("retry", attempt=attempt, kind=error.kind)
            sleep(policy.delay(attempt, seed))
            attempt += 1
