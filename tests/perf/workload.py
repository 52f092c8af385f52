"""The tiny shared RIC workload the perf tests plan and calibrate on."""

from repro.core import PositionedInstance
from repro.dependencies import FD
from repro.engine import Problem
from repro.relational import Relation, RelationSchema


def instance_with_rows(n_rows: int) -> PositionedInstance:
    schema = RelationSchema("R", ("A", "B", "C"))
    rows = [(i, 2, 3) if i < 2 else (i, 20 + i, 30 + i) for i in range(n_rows)]
    return PositionedInstance.from_relation(
        Relation(schema, rows), [FD("B", "C")]
    )


def small_problem(n_rows: int = 2, **kwargs) -> Problem:
    inst = instance_with_rows(n_rows)
    return Problem(inst, inst.position("R", 0, "C"), **kwargs)
