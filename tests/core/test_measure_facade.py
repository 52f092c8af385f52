"""Tests for the measure façade and engine guards."""

import pytest

from repro.core.bruteforce import inf_k_bruteforce
from repro.core.measure import ric_profile
from repro.core.montecarlo import ric_montecarlo
from repro.core.positions import PositionedInstance
from repro.core.symbolic import inf_k_symbolic, ric_exact
from repro.dependencies.fd import FD
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema

AB = RelationSchema("R", ("A", "B"))


def tiny():
    return PositionedInstance.from_relation(Relation(AB, [(1, 2)]), [])


class TestFacade:
    def test_profile_covers_all_positions(self):
        inst = tiny()
        profile = ric_profile(inst)
        assert set(profile) == set(inst.positions)

    def test_profile_montecarlo_mode(self):
        inst = tiny()
        profile = {
            p: ric_montecarlo(inst, p, samples=10) for p in inst.positions
        }
        assert all(float(v) == 1.0 for v in profile.values())


class TestGuards:
    def test_exact_sweep_budget(self):
        schema = RelationSchema("W", tuple("ABCDEFGHIJ"))
        rel = Relation(schema, [tuple(range(10)), tuple(range(10, 20))])
        inst = PositionedInstance.from_relation(rel, [])
        with pytest.raises(ValueError, match="budget"):
            ric_exact(inst, inst.positions[0])
        with pytest.raises(ValueError, match="budget"):
            inf_k_symbolic(inst, inst.positions[0], 25)

    def test_bruteforce_budget(self):
        schema = RelationSchema("W", tuple("ABCDEF"))
        rel = Relation(schema, [tuple(range(1, 7)), tuple(range(7, 13))])
        inst = PositionedInstance.from_relation(rel, [])
        with pytest.raises(ValueError, match="budget"):
            inf_k_bruteforce(inst, inst.positions[0], 12)

    def test_symbolic_k_below_pool_rejected(self):
        schema = RelationSchema("T", ("A", "B", "C"))
        rel = Relation(schema, [(1, 2, 3), (4, 5, 6)])
        inst = PositionedInstance.from_relation(rel, [FD("A", "B")])
        with pytest.raises(ValueError, match="smaller than the revealed"):
            inf_k_symbolic(inst, inst.positions[0], 2)


class TestChaseGuard:
    def test_max_steps_safety_net(self):
        from repro.chase.engine import chase
        from repro.dependencies.mvd import MVD

        schema = RelationSchema("T", ("A", "B", "C"))
        rel = Relation(schema, [(1, 2, 3), (1, 5, 6), (1, 8, 9)])
        with pytest.raises(RuntimeError, match="max_steps"):
            chase(rel, [MVD("A", "B")], max_steps=1)
