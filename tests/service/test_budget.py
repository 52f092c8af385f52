"""Budgets: degradation ladder, wall-clock timeouts, structured errors."""

import threading
from fractions import Fraction
from time import perf_counter

import pytest

from repro.core import PositionedInstance, witness_instance
from repro.core.montecarlo import MCEstimate
from repro.dependencies import FD, MVD
from repro.engine import PLANNER, Problem
from repro.relational import Relation, RelationSchema
from repro.service.budget import Budget, BudgetExceeded
from repro.service.pool import WorkerPool


def instance_with_rows(n_rows: int) -> PositionedInstance:
    schema = RelationSchema("R", ("A", "B", "C"))
    rows = [(i, 2, 3) if i < 2 else (i, 20 + i, 30 + i) for i in range(n_rows)]
    return PositionedInstance.from_relation(
        Relation(schema, rows), [FD("B", "C")]
    )


def problem(inst, p, method="auto", samples=200, seed=0) -> Problem:
    return Problem.from_instance(
        inst, p, method=method, samples=samples, seed=seed
    )


def live_budget_threads() -> int:
    return sum(t.name == "repro-budget" for t in threading.enumerate())


class TestLadder:
    def test_small_instance_stays_exact(self):
        inst = instance_with_rows(2)
        p = inst.position("R", 0, "C")
        budget = Budget()
        result = PLANNER.plan_and_run(problem(inst, p), budget=budget)
        assert result.engine == "exact"
        assert result.value == Fraction(7, 8)

    def test_oversized_instance_degrades_to_montecarlo(self):
        inst = instance_with_rows(3)  # 9 positions > 4-position allowance
        p = inst.position("R", 0, "C")
        budget = Budget(exact_max_positions=4)
        result = PLANNER.plan_and_run(
            problem(inst, p, samples=60, seed=2), budget=budget
        )
        assert result.engine == "montecarlo"
        assert isinstance(result.value, MCEstimate)
        assert result.value.samples == 60

    def test_pinned_method_skips_the_ladder(self):
        inst = instance_with_rows(2)
        p = inst.position("R", 0, "C")
        result = PLANNER.plan_and_run(
            problem(inst, p, method="montecarlo", samples=40),
            budget=Budget(),
        )
        assert result.engine == "montecarlo"
        assert isinstance(result.value, MCEstimate)

    def test_degraded_estimate_is_deterministic(self):
        inst = instance_with_rows(3)
        p = inst.position("R", 0, "C")
        prob = problem(inst, p, samples=50, seed=9)
        budget = Budget(exact_max_positions=4)
        first = PLANNER.plan_and_run(prob, budget=budget)
        second = PLANNER.plan_and_run(prob, budget=budget)
        assert first.value == second.value


class TestTimeout:
    def test_exhausted_ladder_raises_structured_error(self):
        inst = instance_with_rows(6)  # exact skipped by size
        p = inst.position("R", 0, "C")
        # A sample count worth seconds of work under a 50 ms clock: the
        # Monte-Carlo stage cannot finish, so the ladder exhausts.
        budget = Budget(wall_seconds=0.05, exact_max_positions=4)
        with pytest.raises(BudgetExceeded) as excinfo:
            PLANNER.plan_and_run(
                problem(inst, p, samples=2_000), budget=budget
            )
        err = excinfo.value
        assert ("exact", "skipped:size") in err.stages
        assert ("montecarlo", "timeout") in err.stages
        assert err.elapsed > 0
        payload = err.to_dict()
        assert payload["error"] == "budget_exceeded"
        assert payload["budget"]["wall_seconds"] == 0.05

    def test_no_wall_clock_means_no_timeout(self):
        inst = instance_with_rows(2)
        p = inst.position("R", 0, "C")
        budget = Budget(wall_seconds=None)
        result = PLANNER.plan_and_run(problem(inst, p), budget=budget)
        assert result.value == Fraction(7, 8)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            Budget(wall_seconds=0)


class TestCooperativeDeadline:
    """A timed-out stage stops where its engine checks the deadline: no
    stage thread is left running and no later work queues behind it."""

    def test_exact_stage_stops_at_the_deadline(self):
        inst, p = witness_instance("ABC", [], [MVD("A", "B")])
        budget = Budget(wall_seconds=0.5)
        with pytest.raises(BudgetExceeded) as excinfo:
            PLANNER.plan_and_run(problem(inst, p), budget=budget)
        err = excinfo.value
        assert err.stages == [("exact", "timeout"), ("montecarlo", "timeout")]
        assert err.elapsed < 0.5 + 0.5
        assert live_budget_threads() == 0

    def test_process_pool_is_free_after_a_timeout(self):
        inst = instance_with_rows(6)
        p = inst.position("R", 0, "C")
        pool = WorkerPool(workers=2, use_processes=True)
        try:
            with pytest.raises(BudgetExceeded) as excinfo:
                PLANNER.plan_and_run(
                    problem(inst, p, method="montecarlo", samples=2_000),
                    budget=Budget(wall_seconds=0.05),
                    pool=pool,
                )
            assert excinfo.value.stages == [("montecarlo", "timeout")]
            assert live_budget_threads() == 0

            started = perf_counter()
            result = PLANNER.plan_and_run(
                problem(inst, p, method="montecarlo", samples=20),
                budget=Budget(),
                pool=pool,
            )
            assert perf_counter() - started < 1.0
        finally:
            pool.shutdown()
        assert result.engine == "montecarlo"
        assert result.value.samples == 20
        assert live_budget_threads() == 0
