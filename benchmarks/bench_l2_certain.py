"""L2 — per-layer perf rung 2: one certain-violation check.

The pattern search asks, after writing each label, whether some
dependency is now violated whatever the unassigned cells become.  This
rung times one such test on a mid-search grid: the incremental test of
the newly assigned cell (what the search calls) and the full check (what
it runs once at the root), on an FD world and on the MVD witness.

The fixtures here are reused by the rungs above (``bench_l3_max_fresh``,
``bench_l4_sweep``).
"""

from repro.core.positions import PositionedInstance
from repro.core.worlds import FRESH, World
from repro.dependencies import FD, MVD
from repro.relational import Relation, RelationSchema

ROUNDS = 7
ITERATIONS = 2000


def fd_case():
    """The E10/E17 workload family at 4 rows (12 positions): 3-attribute
    rows under ``B -> C``, two of them agreeing on B; measured at row 0's
    C."""
    schema = RelationSchema("R", ("A", "B", "C"))
    rows = [(i, 2, 3) if i < 2 else (i, 20 + i, 30 + i) for i in range(4)]
    inst = PositionedInstance.from_relation(Relation(schema, rows), [FD("B", "C")])
    return inst, inst.position("R", 0, "C")


def mvd_case():
    """The MVD witness ``R(A,B,C); A ->> B`` (12 positions, 10049/12288),
    measured at row 0's B."""
    schema = RelationSchema("R", ("A", "B", "C"))
    rows = [(0, 0, 0), (0, 1, 1), (0, 0, 1), (0, 1, 0)]
    inst = PositionedInstance.from_relation(Relation(schema, rows), [MVD("A", "B")])
    return inst, inst.position("R", 0, "B")


def half_revealed_world(case) -> World:
    """The world of *case* revealing every other position but ``p``."""
    inst, p = case
    others = [q for q in inst.positions if q != p]
    return World(inst, p, frozenset(others[::2]))


def mid_search(world: World) -> int:
    """Put *world* in a mid-search state: fresh candidate, the first half
    of its erased cells assigned as the search would first reach them
    (a new fresh block when that is not certainly violated, else the
    first label that is not).  Returns the last assigned cell."""
    world.begin(FRESH)
    m = len(world.fixed_values)
    last = world.num_erased // 2
    for i in range(last + 1):
        for label in [m + i, *range(m), FRESH]:
            world.assign(i, label)
            if not world.certainly_violated(i):
                break
    return last


def _bench_check(benchmark, case, incremental: bool):
    world = half_revealed_world(case)
    cell = mid_search(world)
    check = (lambda: world.certainly_violated(cell)) if incremental else world.certainly_violated
    assert check() is False
    benchmark.pedantic(check, rounds=ROUNDS, iterations=ITERATIONS, warmup_rounds=1)


def test_l2_certain_fd_incremental(benchmark):
    _bench_check(benchmark, fd_case(), incremental=True)


def test_l2_certain_fd_full(benchmark):
    _bench_check(benchmark, fd_case(), incremental=False)


def test_l2_certain_mvd_incremental(benchmark):
    _bench_check(benchmark, mvd_case(), incremental=True)


def test_l2_certain_mvd_full(benchmark):
    _bench_check(benchmark, mvd_case(), incremental=False)
