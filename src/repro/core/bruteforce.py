"""The brute-force engine: literal enumeration over ``[k]``.

Ground truth for validating the symbolic engine on tiny instances.  Every
revealed set ``X``, every candidate value ``a ∈ [k]`` and every completion
in ``[k]^(#erased)`` is enumerated and checked against the constraints.
Exponential in everything — guarded accordingly.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Optional

from repro.core.positions import Position, PositionedInstance
from repro.core.symbolic import revealed_subsets
from repro.core.worlds import World


def world_entropy_k_bruteforce(world: World, k: int) -> float:
    """``H_k(p | X)`` by literal enumeration (values are ``1..k``)."""
    counts = {}
    domain = range(1, k + 1)
    for a in domain:
        n_a = 0
        for completion in product(domain, repeat=world.num_erased):
            if world.satisfies(a, completion):
                n_a += 1
        counts[a] = n_a
    total = sum(counts.values())
    if total == 0:
        raise ArithmeticError(
            "no satisfying completion; instance values must lie in [1, k]"
        )
    entropy = 0.0
    for n_a in counts.values():
        if n_a:
            prob = n_a / total
            entropy -= prob * math.log2(prob)
    return entropy


def inf_k_bruteforce(
    instance: PositionedInstance,
    p: Position,
    k: int,
    max_worlds: Optional[int] = 5_000_000,
    deadline: Optional[float] = None,
) -> float:
    """Exact ``INF_I^k(p | Σ)`` by literal enumeration.

    *max_worlds* bounds ``2^(n−1) · k^(e+1)`` oracle calls (roughly); it
    exists to keep accidental large runs from hanging.  *deadline* is
    checked once per world (see :func:`repro.service.budget.check_deadline`).
    """
    from repro.service.budget import check_deadline

    n = len(instance.positions)
    rough_cost = (2 ** (n - 1)) * (k ** min(n, 1 + n - 1))
    if max_worlds is not None and rough_cost > max_worlds * k:
        raise ValueError(
            f"brute force over {n} positions at k={k} is out of budget; "
            "use the symbolic engine"
        )
    total = 0.0
    count = 0
    for revealed in revealed_subsets(instance, p):
        check_deadline(deadline)
        total += world_entropy_k_bruteforce(World(instance, p, revealed), k)
        count += 1
    return total / count
