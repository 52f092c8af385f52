"""The problem record: construction, shape, validation."""

import pytest

from repro.core import PositionedInstance
from repro.dependencies import FD
from repro.engine import Problem
from repro.relational import Relation, RelationSchema
from repro.service.errors import ValidationError

DESIGN = "R(A,B,C); B->C"
ROWS = [[1, 2, 3], [4, 2, 3]]


def problem(**kwargs):
    defaults = dict(op="ric", method="auto", samples=200, seed=0)
    defaults.update(kwargs)
    return Problem.from_design(DESIGN, ROWS, (0, "C"), **defaults)


class TestConstruction:
    def test_from_design_positions_the_rows_like_the_constructor(self):
        schema = RelationSchema("R", ("A", "B", "C"))
        inst = PositionedInstance.from_relation(
            Relation(schema, [tuple(r) for r in ROWS]), [FD("B", "C")]
        )
        direct = Problem(inst, inst.position("R", 0, "C"), method="auto")
        parsed = problem()
        assert parsed.position == direct.position
        assert parsed.instance.rows_of("R") == inst.rows_of("R")
        assert parsed.instance.positions == inst.positions

    def test_from_design_holds_the_live_instance(self):
        prob = problem()
        assert len(prob.instance) == 6
        assert str(prob.position) == "R[0].C"
        assert prob.instance.check_original()

    def test_shape_properties(self):
        prob = problem()
        assert prob.num_positions == 6
        assert prob.num_dependencies == 1


class TestValidation:
    def test_unknown_method_is_a_typed_validation_error(self):
        with pytest.raises(ValidationError, match="method"):
            problem(method="turbo")

    def test_unknown_method_is_still_a_value_error(self):
        with pytest.raises(ValueError):
            problem(method="turbo")

    def test_inf_k_methods_are_not_ric_methods(self):
        with pytest.raises(ValidationError, match="method"):
            problem(method="symbolic")
        with pytest.raises(ValidationError, match="method"):
            problem(op="inf_k", method="montecarlo", k=2)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValidationError, match="operation"):
            problem(op="ric2")

    def test_inf_k_requires_k(self):
        with pytest.raises(ValidationError, match="k"):
            problem(op="inf_k", method="symbolic")

    def test_nonpositive_samples_rejected(self):
        with pytest.raises(ValidationError, match="samples"):
            problem(samples=0)
