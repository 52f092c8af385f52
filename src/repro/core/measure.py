"""The public measure API: the exact engines, one call per quantity.

Engine choice (Monte Carlo, brute force, budgets) belongs to the
planner in :mod:`repro.engine`; these functions always run the exact
engine for their quantity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict

from repro.core.positions import Position, PositionedInstance
from repro.core.symbolic import inf_k_symbolic, ric_exact


def inf_k(instance: PositionedInstance, p: Position, k: int) -> float:
    """``INF_I^k(p | Σ)`` in bits, exact by symbolic pattern counting."""
    return inf_k_symbolic(instance, p, k)


def ric(instance: PositionedInstance, p: Position) -> Fraction:
    """The relative information content ``RIC_I(p | Σ) ∈ [0, 1]``, as an
    exact :class:`~fractions.Fraction` (sweeps all revealed sets).

    For instances too wide for the exact sweep, use
    :func:`~repro.core.montecarlo.ric_montecarlo` or the planner.
    """
    return ric_exact(instance, p)


def ric_profile(instance: PositionedInstance) -> Dict[Position, Fraction]:
    """Exact ``RIC`` for every position of the instance."""
    return {p: ric(instance, p) for p in instance.positions}
