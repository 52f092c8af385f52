"""The Monte-Carlo engine: sampled revealed sets, exact per-world limits.

The outer average of the measure is over ``2^(n−1)`` revealed sets — the
only exponential the symbolic engine cannot remove.  This engine samples
revealed sets uniformly (each position revealed independently with
probability 1/2, which is exactly the uniform distribution over subsets)
and computes the **exact** limit ratio of each sampled world, so the
estimator is unbiased for ``RIC`` with per-sample values in ``[0, 1]``.

Determinism and chunking
------------------------

Sampling is **counter-based**: sample ``j`` draws its revealed set from
a private ``random.Random`` seeded by ``mix(seed, j)``.
That makes the estimate a pure function of ``(instance, p, samples,
seed)`` — independent of chunk boundaries, worker count, and evaluation
order — so a chunked parallel run (:func:`ric_mc_chunk` sharded over
``[0, samples)`` and combined with :func:`merge_mc_chunks`) reproduces
the serial result **exactly**, and cache keys built from ``(…, samples,
seed)`` are sound.

``ric_montecarlo`` therefore never touches the global :mod:`random`
state: with no arguments it uses ``seed=0`` (reproducible by default).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.positions import Position, PositionedInstance
from repro.core.symbolic import world_limit_ratio
from repro.core.worlds import World
from repro.service.metrics import METRICS
from repro.service.trace import TRACER

#: Knuth-style multiplicative mixer; decorrelates consecutive sample
#: indices before they seed the per-sample Mersenne Twister.
_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _sample_rng(seed: int, index: int) -> random.Random:
    """The private RNG of sample *index* under master *seed*."""
    return random.Random(((seed + 1) * _MIX + index * 0x85EBCA6B) & _MASK)


@dataclass(frozen=True)
class MCEstimate:
    """A Monte-Carlo estimate with a normal-approximation standard error."""

    mean: float
    stderr: float
    samples: int

    def ci95(self) -> tuple:
        """A 95% confidence interval (normal approximation)."""
        half = 1.96 * self.stderr
        return (max(0.0, self.mean - half), min(1.0, self.mean + half))

    def __float__(self) -> float:
        return self.mean


@dataclass(frozen=True)
class MCChunk:
    """Mergeable sufficient statistics of one shard of samples.

    A chunk carries the running sum and sum of squares of its per-world
    limit ratios; chunks from disjoint index ranges merge associatively,
    so any partition of ``[0, samples)`` yields the same estimate.
    """

    total: float
    total_sq: float
    samples: int

    def merge(self, other: "MCChunk") -> "MCChunk":
        """Combine two disjoint shards."""
        return MCChunk(
            total=self.total + other.total,
            total_sq=self.total_sq + other.total_sq,
            samples=self.samples + other.samples,
        )


def ric_mc_chunk(
    instance: PositionedInstance,
    p: Position,
    start: int,
    count: int,
    seed: int = 0,
    deadline: Optional[float] = None,
) -> MCChunk:
    """Evaluate samples ``start … start+count−1`` of the seeded estimator.

    The shard is deterministic in ``(instance, p, start, count, seed)``;
    sharding ``[0, samples)`` across workers and merging reproduces the
    unchunked :func:`ric_montecarlo` result exactly.  *deadline* is
    checked once per sample (see
    :func:`repro.service.budget.check_deadline`).
    """
    from repro.service.budget import check_deadline

    if count < 0:
        raise ValueError("negative chunk size")
    others = [q for q in instance.positions if q != p]
    total = 0.0
    total_sq = 0.0
    with TRACER.span("mc.chunk", start=start, count=count, seed=seed):
        for j in range(start, start + count):
            check_deadline(deadline)
            rng = _sample_rng(seed, j)
            revealed = frozenset(q for q in others if rng.random() < 0.5)
            ratio = float(world_limit_ratio(World(instance, p, revealed)))
            total += ratio
            total_sq += ratio * ratio
    METRICS.inc("ric.mc.samples", count)
    METRICS.inc("ric.mc.chunks")
    return MCChunk(total=total, total_sq=total_sq, samples=count)


def merge_mc_chunks(chunks: Iterable[MCChunk]) -> MCEstimate:
    """Fold disjoint chunks into the final :class:`MCEstimate`."""
    merged = MCChunk(0.0, 0.0, 0)
    for chunk in chunks:
        merged = merged.merge(chunk)
    if merged.samples <= 0:
        raise ValueError("need at least one sample")
    mean = merged.total / merged.samples
    variance = max(0.0, merged.total_sq / merged.samples - mean * mean)
    stderr = math.sqrt(variance / merged.samples)
    return MCEstimate(mean=mean, stderr=stderr, samples=merged.samples)


def ric_montecarlo(
    instance: PositionedInstance,
    p: Position,
    samples: int = 200,
    seed: int = 0,
    deadline: Optional[float] = None,
) -> MCEstimate:
    """Estimate ``RIC_I(p | Σ)`` from *samples* random revealed sets.

    The counter-based sampler under *seed* (see the module docstring) is
    deterministic, chunkable, and never touches the global :mod:`random`
    state.  *deadline* is checked once per sample.
    """
    if samples <= 0:
        raise ValueError("need at least one sample")
    return merge_mc_chunks(
        [ric_mc_chunk(instance, p, 0, samples, seed, deadline)]
    )
