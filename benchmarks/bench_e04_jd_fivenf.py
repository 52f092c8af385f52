"""E4 — The join-dependency anomaly.

The paper shows the classical JD normal forms drift apart from
well-designedness: PJ/NF is sufficient but not necessary, and schemas
satisfying the weaker 5NFR-style conditions can still harbor redundancy.
The canonical carrier is ``R(A,B,C)`` with the ternary
``⋈[AB, BC, CA]``: three "witness" tuples force a fourth, whose positions
carry strictly less than full information.

Expected shape: the schema fails PJ/NF; on the forced-tuple instance the
forced positions measure < 1 while a JD-free control instance measures 1.
"""

from repro.core import PositionedInstance, ric_montecarlo
from repro.core.measure import ric
from repro.dependencies import JD
from repro.normalforms import is_pjnf
from repro.relational import Relation, RelationSchema

from benchmarks.common import print_table

JD3 = JD("AB", "BC", "CA")
SCHEMA = RelationSchema("R", ("A", "B", "C"))


def forced_instance() -> Relation:
    """(1,2,3) is forced by the other three tuples under the ternary JD."""
    return Relation(SCHEMA, [(1, 2, 9), (1, 8, 3), (7, 2, 3), (1, 2, 3)])


def control_instance() -> Relation:
    """No two tuples join-compatible: the JD never fires."""
    return Relation(SCHEMA, [(1, 2, 3), (4, 5, 6)])


def test_e4_table(benchmark):
    def run():
        rows = []
        rows.append(("PJ/NF?", is_pjnf("ABC", [], [JD3]), "paper: No"))

        inst = PositionedInstance.from_relation(forced_instance(), [JD3])
        ordered = sorted(forced_instance().rows, key=repr)
        forced_row = ordered.index((1, 2, 3))
        for attr in "ABC":
            pos = inst.position("R", forced_row, attr)
            est = ric_montecarlo(inst, pos, samples=100, seed=1)
            rows.append(
                (f"RIC forced-tuple {attr}", f"{est.mean:.3f}", "paper: < 1")
            )

        control = PositionedInstance.from_relation(control_instance(), [JD3])
        value = ric(control, control.position("R", 0, "A"))
        rows.append(("RIC control position", str(value), "paper: = 1"))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("E4: ternary JD redundancy", ["quantity", "measured", "expected"], rows)

    assert rows[0][1] is False
    for _q, measured, _e in rows[1:4]:
        assert float(measured) < 1.0
    assert rows[4][1] == "1"


def test_e4_jd_satisfaction_kernel(benchmark):
    rel = forced_instance()
    assert benchmark(lambda: JD3.is_satisfied_by(rel))
