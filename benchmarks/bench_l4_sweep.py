"""L4 — per-layer perf rung 4: one exact sweep and one Monte-Carlo chunk.

The exact sweep averages the rung-3 limit ratio over all 2048 revealed
sets of the 12-position instances; the MC chunk evaluates 200 seeded
samples (with the chunk's revealed-set memo).  Same instances as rungs
2 and 3.
"""

from fractions import Fraction

from repro.core.montecarlo import ric_mc_chunk
from repro.core.symbolic import ric_exact

from benchmarks.bench_l2_certain import fd_case, mvd_case

ROUNDS = 5


def _bench(benchmark, fn):
    """Time *fn* after one warm-up call (which compiles the kernel);
    returns the warm-up's result."""
    result = fn()
    benchmark.pedantic(fn, rounds=ROUNDS, iterations=1)
    return result


def test_l4_exact_sweep_fd(benchmark):
    inst, p = fd_case()
    _bench(benchmark, lambda: ric_exact(inst, p))


def test_l4_exact_sweep_mvd(benchmark):
    inst, p = mvd_case()
    assert _bench(benchmark, lambda: ric_exact(inst, p)) == Fraction(10049, 12288)


def test_l4_mc_chunk_fd(benchmark):
    inst, p = fd_case()
    _bench(benchmark, lambda: ric_mc_chunk(inst, p, 0, 200, seed=0))
