"""The public measure API (façade over the engines)."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Union

from repro.core.bruteforce import inf_k_bruteforce
from repro.core.montecarlo import MCEstimate, ric_montecarlo
from repro.core.positions import Position, PositionedInstance
from repro.core.symbolic import inf_k_symbolic, ric_exact


def inf_k(
    instance: PositionedInstance,
    p: Position,
    k: int,
    method: str = "symbolic",
) -> float:
    """``INF_I^k(p | Σ)`` in bits.

    *method*: ``"symbolic"`` (exact, pattern counting) or ``"bruteforce"``
    (exact, literal enumeration; tiny instances only).
    """
    if method == "symbolic":
        return inf_k_symbolic(instance, p, k)
    if method == "bruteforce":
        return inf_k_bruteforce(instance, p, k)
    raise ValueError(f"unknown method {method!r}")


def ric(
    instance: PositionedInstance,
    p: Position,
    method: str = "exact",
    samples: int = 200,
    seed: int = 0,
) -> Union[Fraction, MCEstimate]:
    """The relative information content ``RIC_I(p | Σ) ∈ [0, 1]``.

    *method*: ``"exact"`` returns a :class:`~fractions.Fraction` (sweeps
    all revealed sets); ``"montecarlo"`` returns an
    :class:`~repro.core.montecarlo.MCEstimate` and scales to instances the
    exact sweep cannot handle.  The Monte-Carlo path is deterministic in
    ``(samples, seed)`` (see :func:`~repro.core.montecarlo.ric_montecarlo`).
    """
    if method == "exact":
        return ric_exact(instance, p)
    if method == "montecarlo":
        return ric_montecarlo(instance, p, samples=samples, seed=seed)
    raise ValueError(f"unknown method {method!r}")


def ric_profile(
    instance: PositionedInstance,
    method: str = "exact",
    samples: int = 200,
    seed: int = 0,
) -> Dict[Position, Union[Fraction, MCEstimate]]:
    """``RIC`` for every position of the instance."""
    return {
        p: ric(instance, p, method=method, samples=samples, seed=seed)
        for p in instance.positions
    }
