"""The symbolic engine: exact finite-``k`` values and the exact limit.

Built on :mod:`repro.core.patterns`.  For every revealed set ``X``:

- finite ``k``: the satisfying-completion count of each candidate class is
  an exact integer (a polynomial in ``k`` evaluated via falling
  factorials), giving the exact conditional entropy ``H_k(p | X)``;
- the limit: only the leading term of each polynomial matters.  Writing
  ``N_v(k) ~ c_v·k^{d_v}`` for the revealed values and
  ``N_fresh(k) ~ c_g·k^{d_g}`` for a single fresh candidate (of which
  there are ``~k``), the entropy ratio converges to the probability mass
  the fresh continuum carries among the leading-degree classes:

  ``r(X) = c_g·[d_g+1 = D] / (Σ_{v: d_v = D} c_v + c_g·[d_g+1 = D])``

  with ``D = max(max_v d_v, d_g + 1)``.  The relative information content
  is the exact average of ``r(X)`` over all ``X`` — a rational number.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.core.patterns import max_fresh, pattern_counts
from repro.core.positions import Position, PositionedInstance
from repro.core.worlds import FRESH, World
from repro.service.metrics import METRICS
from repro.service.trace import TRACER

#: The exact-sweep size limit: ``ric_exact`` / ``inf_k_symbolic`` refuse
#: instances with more positions, and the planner degrades past it.
#: ``repro.service.budget`` imports it, so the engines here import that
#: module's ``check_deadline`` inside their functions.
EXACT_MAX_POSITIONS = 18


def falling_factorial(n: int, b: int) -> int:
    """``n (n−1) ⋯ (n−b+1)``; 1 when ``b = 0``; 0 when ``n < b``."""
    if b < 0:
        raise ValueError("negative block count")
    result = 1
    for i in range(b):
        result *= n - i
        if result == 0:
            return 0
    return max(result, 0) if n >= b else 0


def revealed_subsets(
    instance: PositionedInstance, p: Position
) -> Iterator[frozenset]:
    """All subsets of ``Pos(I) − {p}`` (the measure's outer average)."""
    others = [q for q in instance.positions if q != p]
    for size in range(len(others) + 1):
        for combo in combinations(others, size):
            yield frozenset(combo)


def world_entropy_k(world: World, k: int) -> float:
    """Exact ``H_k(p | X)`` in bits for the given world."""
    m = len(world.fixed_values)
    if k < m:
        raise ValueError(f"k={k} smaller than the revealed pool ({m})")

    weights: List[Tuple[int, int]] = []  # (count of candidates, N per candidate)
    for v in world.fixed_values:
        counts = pattern_counts(world, v)
        n_v = sum(c * falling_factorial(k - m, b) for b, c in counts.items())
        weights.append((1, n_v))
    fresh_counts = pattern_counts(world, FRESH)
    n_f = sum(
        c * falling_factorial(k - m - 1, b) for b, c in fresh_counts.items()
    )
    weights.append((k - m, n_f))

    total = sum(mult * n for mult, n in weights)
    if total == 0:
        raise ArithmeticError(
            "no satisfying completion; the instance must satisfy its "
            "constraints and use integer values within [1, k]"
        )
    entropy = 0.0
    for mult, n in weights:
        if mult == 0 or n == 0:
            continue
        prob = n / total
        entropy -= mult * prob * math.log2(prob)
    return entropy


def world_limit_ratio(world: World) -> Fraction:
    """The exact limit ``lim_k H_k(p|X) / log2 k`` for the given world."""
    leading: List[Tuple[int, int]] = []  # (degree, coeff) for fixed candidates
    for v in world.fixed_values:
        stat = max_fresh(world, v)
        if stat is not None:
            leading.append(stat)
    fresh_stat = max_fresh(world, FRESH)

    degree = max(
        [d for d, _c in leading]
        + ([fresh_stat[0] + 1] if fresh_stat is not None else [])
    )
    fixed_mass = sum(c for d, c in leading if d == degree)
    fresh_mass = (
        fresh_stat[1]
        if fresh_stat is not None and fresh_stat[0] + 1 == degree
        else 0
    )
    return Fraction(fresh_mass, fixed_mass + fresh_mass)


def inf_k_symbolic(
    instance: PositionedInstance,
    p: Position,
    k: int,
    max_positions: int = EXACT_MAX_POSITIONS,
    deadline: Optional[float] = None,
) -> float:
    """Exact ``INF_I^k(p | Σ)`` in bits (averaged over all revealed sets).

    The sweep is over ``2^(n−1)`` revealed sets; *max_positions* guards the
    exponent (use the Monte-Carlo engine beyond it).  *deadline* is
    checked once per world (see :func:`repro.service.budget.check_deadline`).
    """
    from repro.service.budget import check_deadline

    n = len(instance.positions)
    if n > max_positions + 1:
        raise ValueError(
            f"{n} positions exceed the exact-sweep budget; "
            "use ric_montecarlo / sampled engines instead"
        )
    total = 0.0
    count = 0
    with TRACER.span("ric.sweep", engine="entropy_k", positions=n) as span:
        for revealed in revealed_subsets(instance, p):
            check_deadline(deadline)
            total += world_entropy_k(World(instance, p, revealed), k)
            count += 1
        span.set(worlds=count)
    METRICS.inc("ric.sweeps")
    METRICS.inc("ric.sweep.worlds", count)
    return total / count


def ric_exact(
    instance: PositionedInstance,
    p: Position,
    max_positions: int = EXACT_MAX_POSITIONS,
    deadline: Optional[float] = None,
) -> Fraction:
    """The exact relative information content ``RIC_I(p | Σ) ∈ [0, 1]``.

    *deadline* is checked once per world, as in :func:`inf_k_symbolic`.
    """
    from repro.service.budget import check_deadline

    n = len(instance.positions)
    if n > max_positions + 1:
        raise ValueError(
            f"{n} positions exceed the exact-sweep budget; "
            "use ric_montecarlo instead"
        )
    total = Fraction(0)
    count = 0
    with TRACER.span("ric.sweep", engine="exact", positions=n) as span:
        for revealed in revealed_subsets(instance, p):
            check_deadline(deadline)
            total += world_limit_ratio(World(instance, p, revealed))
            count += 1
        span.set(worlds=count)
    METRICS.inc("ric.sweeps")
    METRICS.inc("ric.sweep.worlds", count)
    return total / count
