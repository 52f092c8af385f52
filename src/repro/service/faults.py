"""A deterministic fault-injection harness for the batch runtime.

Recovery code that is never executed is broken code waiting to be
discovered in production.  This module plants **deterministic,
probabilistic** faults at the runtime's three failure surfaces so that
every recovery path (typed parse errors, job retry, chunk re-execution,
cache quarantine) is exercised by ordinary tests and benchmarks:

- ``job``   — inside :meth:`BatchRunner._run_timed`, before execution;
- ``chunk`` — inside the pool's Monte-Carlo chunk evaluation;
- ``cache`` — inside :class:`ResultCache` get/put/save/load;
- ``parse`` — inside lenient JSONL parsing, per line.

A fault plan is ``kind:rate:seed`` (``--inject-fault worker_crash:0.2:7``
or the ``REPRO_FAULTS`` environment variable, comma-separated for
several plans).  Whether call *n* on a given ``(kind, site, token)``
fires is a pure SHA-256 function of ``(seed, kind, site, token, n)`` —
no global ``random`` state, no wall clock — so a "20% worker-crash"
batch fails the *same* chunks on every run, retries included, and a
passing fault test can never go flaky.
"""

from __future__ import annotations

import hashlib
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.service.errors import KINDS, JobError
from repro.service.metrics import FAULTS_INJECTED, METRICS

#: Which taxonomy kinds each instrumented site can raise.
SITE_KINDS: Dict[str, Tuple[str, ...]] = {
    "job": ("worker_crash", "budget", "internal"),
    "chunk": ("worker_crash",),
    "cache": ("cache_corrupt",),
    "parse": ("parse", "validation"),
}


class InjectedFault(JobError):
    """A fault raised by the harness; classified as its planned kind."""

    def __init__(self, kind: str, site: str, token: str, attempt: int):
        super().__init__(
            f"injected {kind} fault at {site}:{token} (call {attempt})",
            kind=kind,
            code="injected_fault",
            details={"site": site, "token": str(token), "call": attempt},
        )


@dataclass(frozen=True)
class FaultSpec:
    """One fault plan: raise *kind* with probability *rate* under *seed*."""

    kind: str
    rate: float
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (expected one of {KINDS})"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")

    def spec(self) -> str:
        return f"{self.kind}:{self.rate}:{self.seed}"


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse one ``kind:rate[:seed]`` plan (seed defaults to 0)."""
    parts = text.strip().split(":")
    if len(parts) not in (2, 3) or not parts[0]:
        raise ValueError(
            f"fault spec must be kind:rate[:seed], got {text!r}"
        )
    try:
        rate = float(parts[1])
        seed = int(parts[2]) if len(parts) == 3 else 0
    except ValueError:
        raise ValueError(
            f"fault spec must be kind:rate[:seed], got {text!r}"
        ) from None
    return FaultSpec(kind=parts[0], rate=rate, seed=seed)


def parse_fault_specs(text: str) -> Tuple[FaultSpec, ...]:
    """Parse a comma-separated plan list (empty text means no plans)."""
    return tuple(
        parse_fault_spec(part)
        for part in (text or "").split(",")
        if part.strip()
    )


def _unit(seed: int, kind: str, site: str, token: str, n: int) -> float:
    """Deterministic uniform-[0,1) draw for one instrumented call."""
    blob = f"{seed}|{kind}|{site}|{token}|{n}".encode("utf-8")
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class FaultInjector:
    """The registry of active fault plans and per-site call counters.

    Counters are keyed on ``(kind, site, token)`` — not on a global call
    sequence — so thread scheduling cannot change which call of a token
    fires, and a retried chunk (call 1, 2, …) rolls fresh but
    reproducible dice.
    """

    def __init__(self, specs: Sequence[FaultSpec] = ()):
        self._lock = threading.Lock()
        self._plans: Dict[str, FaultSpec] = {}
        self._counts: Dict[Tuple[str, str, str], int] = {}
        self.configure(specs)

    def configure(self, specs: Sequence[FaultSpec]) -> None:
        """Install *specs* (one per kind; later entries win) and reset
        the call counters."""
        with self._lock:
            self._plans = {spec.kind: spec for spec in specs}
            self._counts.clear()

    def clear(self) -> None:
        """Remove every plan and reset the counters."""
        self.configure(())

    @property
    def active(self) -> bool:
        return bool(self._plans)

    def specs(self) -> Tuple[FaultSpec, ...]:
        with self._lock:
            return tuple(self._plans.values())

    def maybe_raise(
        self,
        site: str,
        token: str,
        kinds: Optional[Iterable[str]] = None,
    ) -> None:
        """Roll the dice for one instrumented call; raise on a hit.

        *kinds* defaults to the site's conventional kinds.  No-op when
        no plan matches, so instrumentation costs one dict lookup on the
        fault-free path.
        """
        if not self._plans:
            return
        for kind in kinds if kinds is not None else SITE_KINDS.get(site, ()):
            spec = self._plans.get(kind)
            if spec is None:
                continue
            key = (kind, site, str(token))
            with self._lock:
                n = self._counts.get(key, 0)
                self._counts[key] = n + 1
            if _unit(spec.seed, kind, site, str(token), n) < spec.rate:
                METRICS.inc(FAULTS_INJECTED)
                raise InjectedFault(kind, site, str(token), n)


#: The process-wide injector; inert unless configured (env or CLI).
FAULTS = FaultInjector()


def configure_from_env(environ=None) -> Tuple[FaultSpec, ...]:
    """Install plans from ``REPRO_FAULTS`` (no-op when unset/empty)."""
    environ = os.environ if environ is None else environ
    specs = parse_fault_specs(environ.get("REPRO_FAULTS", ""))
    if specs:
        FAULTS.configure(specs)
    return specs


@contextmanager
def fault_injection(*specs):
    """Temporarily install fault plans on the global injector.

    Accepts :class:`FaultSpec` instances or ``kind:rate[:seed]`` strings;
    restores the previous plans (and fresh counters) on exit.
    """
    resolved = tuple(
        spec if isinstance(spec, FaultSpec) else parse_fault_spec(spec)
        for spec in specs
    )
    previous = FAULTS.specs()
    FAULTS.configure(resolved)
    try:
        yield FAULTS
    finally:
        FAULTS.configure(previous)


# Honor REPRO_FAULTS for any entry point (pytest, CLI, embedding code).
configure_from_env()
