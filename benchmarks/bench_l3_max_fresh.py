"""L3 — per-layer perf rung 3: ``max_fresh`` on one world.

The leading term of one world's satisfying-pattern polynomial for every
candidate class: the pruned, iteratively deepened pattern search that
calls the rung-2 certain check at every node.  Same worlds as rung 2.
"""

from repro.core.patterns import max_fresh

from benchmarks.bench_l2_certain import fd_case, half_revealed_world, mvd_case

ROUNDS = 7


def _bench_world(benchmark, case, iterations):
    world = half_revealed_world(case)

    def run():
        return [max_fresh(world, c) for c in world.candidate_classes()]

    assert any(stat is not None for stat in run())
    benchmark.pedantic(run, rounds=ROUNDS, iterations=iterations, warmup_rounds=1)


def test_l3_max_fresh_fd(benchmark):
    _bench_world(benchmark, fd_case(), iterations=200)


def test_l3_max_fresh_mvd(benchmark):
    _bench_world(benchmark, mvd_case(), iterations=20)
