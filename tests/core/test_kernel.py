"""Property tests for the compiled, int-coded dependency kernel.

- The incremental certain-violation check of one newly assigned cell
  equals the full check at every node of a random assignment path.
- Pruning never changes a search result: ``max_fresh`` with and without
  it agree, and both agree with the unpruned pattern counts.
- An independent satisfaction oracle: for the uniform distribution on a
  relation's rows, Kenig's J-measure of an acyclic join dependency
  (Σ H(bags) − Σ H(separators) − H(all); an MVD A ↠ B | C is the JD
  {AB, AC} and its J is I(B; C | A)) is zero exactly when the JD holds.
  The zero test is exact: for every tuple ``x``,
  ``n(x) · Π n(x_sep) = Π n(x_bag)`` (row counts of the projections),
  the count form of ``p(x) = Π p(x_bag) / Π p(x_sep)``.
- Deadlines are checked inside the pattern search.
"""

from itertools import product
from math import prod
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fastcheck import Kernel, compile_dependency
from repro.core.patterns import DEADLINE_EVERY, max_fresh, pattern_counts
from repro.core.positions import PositionedInstance
from repro.core.symbolic import world_limit_ratio
from repro.core.worlds import FRESH, World
from repro.dependencies.fd import FD
from repro.dependencies.jd import JD
from repro.dependencies.mvd import MVD
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema
from repro.service import budget
from repro.service.budget import StageTimeout

ABC = RelationSchema("R", ("A", "B", "C"))
ABCD = RelationSchema("R", ("A", "B", "C", "D"))

PRUNING_DEPS = [
    FD("A", "B"),
    FD("B", "C"),
    FD("AB", "C"),
    FD("A", "BC"),
    MVD("A", "B"),
    MVD("B", "C"),
    MVD("C", "AB"),
]
ALL_DEPS = PRUNING_DEPS + [JD("AB", "AC"), JD("AB", "BC", "CA")]


@st.composite
def worlds(draw, max_erased=8):
    """A small instance under one or two dependencies, one of its
    positions and a revealed set leaving at most *max_erased* cells."""
    rows = draw(
        st.lists(
            st.tuples(*[st.integers(0, 2)] * 3), min_size=1, max_size=3
        )
    )
    deps = draw(st.lists(st.sampled_from(ALL_DEPS), min_size=1, max_size=2))
    inst = PositionedInstance.from_relation(Relation(ABC, rows), deps)
    positions = inst.positions
    p = draw(st.sampled_from(positions))
    others = [q for q in positions if q != p]
    flags = draw(st.lists(st.booleans(), min_size=len(others), max_size=len(others)))
    revealed = [q for q, f in zip(others, flags) if f]
    hidden = [q for q, f in zip(others, flags) if not f]
    revealed += hidden[max_erased:]
    return World(inst, p, frozenset(revealed))


class TestIncrementalCheck:
    @settings(max_examples=150, deadline=None)
    @given(worlds(), st.data())
    def test_incremental_equals_full_on_every_node(self, world, data):
        candidate = data.draw(st.sampled_from(world.candidate_classes()))
        world.begin(candidate)
        if world.certainly_violated():
            return  # the search stops at the root: no path to follow
        m = len(world.fixed_values)
        fixed = list(range(m)) + ([FRESH] if candidate == FRESH else [])
        blocks = 0
        for i in range(world.num_erased):
            label = data.draw(st.sampled_from(fixed + list(range(m, m + blocks + 1))))
            blocks = max(blocks, label - m + 1)
            world.assign(i, label)
            full = world.certainly_violated()
            assert world.certainly_violated(i) == full
            if full:
                break  # the parent of every later node would be violated

    @settings(max_examples=60, deadline=None)
    @given(worlds(max_erased=5))
    def test_full_check_is_sound_at_the_root(self, world):
        for candidate in world.candidate_classes():
            world.begin(candidate)
            if world.certainly_violated():
                assert pattern_counts(world, candidate) == {}


class TestPruningPreservesResults:
    @settings(max_examples=100, deadline=None)
    @given(worlds())
    def test_max_fresh_with_and_without_pruning(self, world):
        for candidate in world.candidate_classes():
            assert max_fresh(world, candidate, prune=True) == max_fresh(
                world, candidate, prune=False
            )

    @settings(max_examples=60, deadline=None)
    @given(worlds(max_erased=5))
    def test_max_fresh_is_the_leading_pattern_count(self, world):
        for candidate in world.candidate_classes():
            counts = pattern_counts(world, candidate)
            expected = (max(counts), counts[max(counts)]) if counts else None
            assert max_fresh(world, candidate) == expected


def j_measure_is_zero(rows, bags):
    """Exact zero test of the J-measure of the acyclic JD *bags*
    (column-index tuples in running-intersection order) on the uniform
    distribution over the distinct *rows*."""
    rows = {tuple(r) for r in rows}
    seps = [
        tuple(sorted(set(bag) & set().union(*bags[:i])))
        for i, bag in enumerate(bags)
        if i
    ]

    def n(cols, x):
        return sum(all(r[c] == x[c] for c in cols) for r in rows)

    arity = len(next(iter(rows)))
    domains = [sorted({r[c] for r in rows}) for c in range(arity)]
    everything = tuple(range(arity))
    for x in product(*domains):
        lhs = n(everything, x) * prod(n(sep, x) for sep in seps)
        if lhs != prod(n(bag, x) for bag in bags):
            return False
    return True


def bags_of(dep, schema):
    """The JD bags (column indices) of an MVD or JD on *schema*."""
    if isinstance(dep, MVD):
        lhs, rhs = set(dep.lhs), set(dep.rhs)
        comps = [lhs | rhs, set(schema.attributes) - (rhs - lhs)]
    else:
        comps = dep.components
    return [tuple(sorted(schema.index(a) for a in comp)) for comp in comps]


#: Acyclic dependencies, JD components listed in running-intersection order.
ACYCLIC = [
    (ABC, MVD("A", "B")),
    (ABC, MVD("B", "C")),
    (ABC, MVD("C", "AB")),
    (ABC, JD("AB", "AC")),
    (ABC, JD("AB", "BC")),
    (ABCD, MVD("A", "B")),
    (ABCD, MVD("AB", "C")),
    (ABCD, JD("AB", "BC", "CD")),
    (ABCD, JD("AB", "AC", "AD")),
    (ABCD, JD("ABC", "CD")),
]


class TestJMeasureOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(ACYCLIC), st.data())
    def test_compiled_checks_agree_with_j_measure(self, case, data):
        schema, dep = case
        rows = data.draw(
            st.lists(
                st.tuples(*[st.integers(0, 2)] * schema.arity),
                min_size=1,
                max_size=6,
            )
        )
        relation = Relation(schema, rows)
        grid = [list(r) for r in relation.sorted_rows()]
        oracle = j_measure_is_zero(grid, bags_of(dep, schema))
        compiled = compile_dependency(dep, schema)
        assert compiled.holds(grid) == oracle
        assert dep.is_satisfied_by(relation) == oracle
        kernel = Kernel([schema], [grid], {"R": [dep]})
        assert kernel.satisfied([grid]) == oracle
        if isinstance(dep, MVD):
            # On complete rows "certainly violated" is "violated".
            assert kernel.certainly_violated([grid]) == (not oracle)
            assert compiled.certain(grid) == (not oracle)

    def test_oracle_sees_a_missing_witness(self):
        rows = [(0, 0, 0), (0, 1, 1)]
        assert not j_measure_is_zero(rows, [(0, 1), (0, 2)])
        assert j_measure_is_zero(rows + [(0, 0, 1), (0, 1, 0)], [(0, 1), (0, 2)])


def witness_world(revealed=0):
    """A world of the MVD witness revealing its first *revealed* cells."""
    rows = [(0, 0, 0), (0, 1, 1), (0, 0, 1), (0, 1, 0)]
    inst = PositionedInstance.from_relation(Relation(ABC, rows), [MVD("A", "B")])
    p = inst.position("R", 0, "B")
    others = [q for q in inst.positions if q != p]
    return World(inst, p, frozenset(others[:revealed]))


class TestDeadlineInsideSearch:
    def test_past_deadline_raises_from_the_search(self):
        world = witness_world()
        past = perf_counter() - 1.0
        with pytest.raises(StageTimeout):
            max_fresh(world, FRESH, deadline=past)
        with pytest.raises(StageTimeout):
            pattern_counts(world, FRESH, deadline=past)
        with pytest.raises(StageTimeout):
            world_limit_ratio(world, deadline=past)

    def test_deadline_checked_every_few_nodes(self, monkeypatch):
        calls = []

        def counting(deadline):
            calls.append(deadline)

        monkeypatch.setattr(budget, "check_deadline", counting)
        # Six erased cells and a fresh candidate forced to deficit 6: the
        # unpruned search visits tens of thousands of nodes.
        world = witness_world(revealed=5)
        assert max_fresh(world, FRESH, prune=False, deadline=123.0) == (0, 2)
        assert len(calls) > 1
        assert set(calls) == {123.0}

    def test_no_deadline_changes_nothing(self):
        world = witness_world()
        assert DEADLINE_EVERY > 0
        assert max_fresh(world, FRESH) == max_fresh(world, FRESH, deadline=None)


class TestSharedKernel:
    def test_threads_share_one_instance(self):
        """Worlds of one instance on several threads share its compiled
        kernel (built lazily, possibly by two threads at once) but never
        a grid: every thread's sweep gives the serial value."""
        import sys
        import threading

        from repro.core.symbolic import ric_exact

        rows = [(0, 0, 0), (0, 1, 0), (1, 0, 1)]
        make = lambda: PositionedInstance.from_relation(  # noqa: E731
            Relation(ABC, rows), [MVD("A", "B"), FD("C", "A")]
        )
        serial = make()
        expected = ric_exact(serial, serial.position("R", 0, "B"))
        shared = make()
        p = shared.position("R", 0, "B")
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=lambda: results.append(ric_exact(shared, p)))
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * 4
