"""The planner: deterministic plans, budget fallback, execution."""

from fractions import Fraction

import pytest

from repro.core import PositionedInstance
from repro.core.montecarlo import MCEstimate
from repro.dependencies import FD
from repro.engine import PLANNER, Planner, Problem, plan_and_run
from repro.relational import Relation, RelationSchema
from repro.service.budget import Budget, BudgetExceeded
from repro.service.errors import ValidationError
from repro.service.metrics import METRICS
from repro.service.trace import TRACER, tracing


def instance_with_rows(n_rows: int) -> PositionedInstance:
    schema = RelationSchema("R", ("A", "B", "C"))
    rows = [(i, 2, 3) if i < 2 else (i, 20 + i, 30 + i) for i in range(n_rows)]
    return PositionedInstance.from_relation(
        Relation(schema, rows), [FD("B", "C")]
    )


def problem(n_rows=2, **kwargs):
    inst = instance_with_rows(n_rows)
    return Problem.from_instance(inst, inst.position("R", 0, "C"), **kwargs)


class TestPlanDeterminism:
    def test_plan_is_a_pure_function_of_problem_and_budget(self):
        prob = problem(3, samples=60, seed=2)
        budget = Budget(exact_max_positions=4)
        assert PLANNER.plan(prob, budget) == PLANNER.plan(prob, budget)
        # A fresh planner instance agrees too: no hidden state.
        assert Planner().plan(prob, budget) == PLANNER.plan(prob, budget)

    def test_plan_never_runs_an_engine(self):
        METRICS.reset()
        PLANNER.plan(problem(2))
        snapshot = METRICS.snapshot()["counters"]
        assert snapshot.get("planner.plans") == 1
        assert not any(k.startswith("engine.runs") for k in snapshot)
        assert not any(k.startswith("ric.") for k in snapshot)

    def test_budget_changes_the_plan(self):
        prob = problem(3)  # 9 positions
        roomy = PLANNER.plan(prob, Budget(exact_max_positions=18))
        tight = PLANNER.plan(prob, Budget(exact_max_positions=4))
        assert roomy.chosen == "exact"
        assert tight.chosen == "montecarlo"


class TestFallbackChain:
    def test_auto_chain_matches_the_old_budget_ladder(self):
        # The pre-planner service/budget.py ladder was exact then
        # Monte Carlo; the planner's auto chain must be identical.
        plan = PLANNER.plan(problem(2))
        assert plan.engines == ("exact", "montecarlo")
        assert plan.chosen == "exact"
        assert plan.fallbacks == ("montecarlo",)

    def test_pinned_method_has_no_fallbacks(self):
        plan = PLANNER.plan(problem(2, method="montecarlo"))
        assert plan.engines == ("montecarlo",)
        assert plan.fallbacks == ()

    def test_oversized_exact_is_skipped_with_a_reason(self):
        plan = PLANNER.plan(problem(3), Budget(exact_max_positions=4))
        step = plan.steps[0]
        assert (step.engine, step.action) == ("exact", "skip:size")
        assert "positions" in step.estimate.reason
        assert plan.uses("montecarlo") and not plan.uses("exact")

    def test_exhausted_chain_raises_the_structured_error(self):
        # Same stage history the old degradation ladder produced.
        prob = problem(6, samples=2_000)
        budget = Budget(wall_seconds=0.05, exact_max_positions=4)
        with pytest.raises(BudgetExceeded) as excinfo:
            PLANNER.plan_and_run(prob, budget=budget)
        assert excinfo.value.stages == [
            ("exact", "skipped:size"),
            ("montecarlo", "timeout"),
        ]

    def test_explain_names_every_stage(self):
        text = PLANNER.plan(problem(3), Budget(exact_max_positions=4)).explain()
        assert "skip exact" in text
        assert "chosen montecarlo" in text
        assert "exceed the exact-sweep budget" in text


class TestExecution:
    def test_exact_value_matches_the_direct_engine(self):
        result = plan_and_run(problem(2))
        assert result.value == Fraction(7, 8)
        assert result.engine == "exact"

    def test_pinned_montecarlo_runs_with_problem_parameters(self):
        result = plan_and_run(problem(2, method="montecarlo", samples=40))
        assert isinstance(result.value, MCEstimate)
        assert result.value.samples == 40

    def test_unknown_method_is_a_typed_error_not_a_bare_valueerror(self):
        with pytest.raises(ValidationError) as excinfo:
            problem(2, method="quantum")
        assert excinfo.value.kind == "validation"
        assert excinfo.value.details["option"] == "method"


class TestInstrumentation:
    def test_plan_and_run_emits_the_planner_span_tree(self):
        with tracing():
            plan_and_run(problem(2))
        spans = TRACER.drain()
        names = [s["name"] for s in spans]
        assert "plan" in names
        assert names.count("cost_estimate") == 2  # exact + montecarlo
        assert "engine_run" in names
        run = next(s for s in spans if s["name"] == "engine_run")
        assert run["attrs"]["engine"] == "exact"
        assert run["attrs"]["ok"] is True

    def test_counters_cover_plans_runs_and_degradations(self):
        METRICS.reset()
        plan_and_run(problem(3), budget=Budget(exact_max_positions=4))
        counters = METRICS.snapshot()["counters"]
        assert counters["planner.plans"] == 1
        assert counters["engine.runs{engine=montecarlo}"] == 1
        assert counters["budget.degradations"] == 1
        METRICS.reset()
