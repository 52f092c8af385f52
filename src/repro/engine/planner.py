"""The planner: one place where engine choice, budgets, and
instrumentation live.

``plan(problem, budget)`` is a **deterministic pure function** of the
problem IR and the budget limits: it costs every candidate engine
through the :class:`~repro.engine.cost.CostModel`, pins the requested
method (or walks the operation's preference ladder for ``"auto"``), and
emits an explainable :class:`Plan` — the chosen engine, every estimate,
and the fallback chain.  No engine runs during planning.

``execute`` then walks the plan under the budget's wall clock: a stage
whose estimate was infeasible is skipped (recorded, like the old
``service/budget.py`` degradation); a running stage gets an absolute
deadline, which its engine checks once per world and stops at with
:class:`~repro.service.budget.StageTimeout`; and when the chain is
exhausted the structured
:class:`~repro.service.budget.BudgetExceeded` carries the full stage
history — byte-compatible with the pre-planner behavior.

``plan_and_run`` is the two in sequence.  The planner caches nothing:
results are cached one layer up, by the batch runner's
:class:`~repro.service.cache.ResultCache` keyed on
:func:`~repro.service.jobs.job_key`.

Instrumentation: ``plan`` and per-engine ``cost_estimate`` spans during
planning, one ``engine_run`` span per attempted stage, and counters
``planner.plans`` / ``engine.runs{engine=…}`` in the shared registry
(reset per batch by ``run_batch``).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Optional, Tuple

from repro.engine.cost import CostEstimate, CostModel
from repro.engine.engines import get_engine
from repro.engine.problem import Problem
from repro.service.budget import Budget, BudgetExceeded, StageTimeout
from repro.service.metrics import METRICS
from repro.service.trace import TRACER

#: ``"auto"`` preference ladders per operation: exactness first, the
#: scalable estimator (or the enumeration ground truth) as fallback.
AUTO_LADDERS = {
    "ric": ("exact", "montecarlo"),
    "inf_k": ("symbolic", "bruteforce"),
}


@dataclass(frozen=True)
class PlanStep:
    """One stage of the fallback chain: run it, or skip it and say why."""

    engine: str
    action: str  # "run" | "skip:size"
    estimate: CostEstimate

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "action": self.action,
            "estimate": self.estimate.to_dict(),
        }


@dataclass(frozen=True)
class Plan:
    """An explainable engine-selection decision for one problem."""

    key: str
    op: str
    method: str
    chosen: Optional[str]
    steps: Tuple[PlanStep, ...]
    wall_seconds: Optional[float]

    @property
    def engines(self) -> Tuple[str, ...]:
        """Every engine in the chain, in attempt order."""
        return tuple(step.engine for step in self.steps)

    @property
    def fallbacks(self) -> Tuple[str, ...]:
        """The chain after the chosen engine."""
        runnable = [s.engine for s in self.steps if s.action == "run"]
        if self.chosen in runnable:
            return tuple(runnable[runnable.index(self.chosen) + 1:])
        return tuple(runnable)

    def uses(self, engine: str) -> bool:
        """Whether *engine* may run under this plan (chosen or fallback)."""
        return any(
            step.engine == engine and step.action == "run"
            for step in self.steps
        )

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "op": self.op,
            "method": self.method,
            "chosen": self.chosen,
            "fallbacks": list(self.fallbacks),
            "wall_seconds": self.wall_seconds,
            "steps": [step.to_dict() for step in self.steps],
        }

    def explain(self) -> str:
        """A human-readable rendering (the ``--explain-plan`` output)."""
        lines = [
            f"plan {self.key[:16]}… op={self.op} method={self.method} "
            f"wall_seconds={self.wall_seconds}"
        ]
        for index, step in enumerate(self.steps, start=1):
            est = step.estimate
            cost = (
                f"worlds={est.worlds:g} units={est.units:g}"
                if est.units != float("inf")
                else "units=inf"
            )
            if est.seconds is not None:
                cost += f" ~{est.seconds:.3g}s"
            if step.action == "run":
                role = "chosen" if step.engine == self.chosen else "fallback"
                lines.append(f"  {index}. {role} {step.engine}  [{cost}]")
            else:
                lines.append(
                    f"  {index}. skip {step.engine}  [{cost}] — {est.reason}"
                )
        if self.chosen is None:
            lines.append("  no feasible engine: execution would fail fast")
        return "\n".join(lines)


@dataclass(frozen=True)
class ExecutionResult:
    """What ``plan_and_run`` hands back to callers."""

    value: Any
    engine: str
    plan: Plan


class Planner:
    """Cost-based engine selection with budget-driven fallback.

    One planner instance is stateless apart from its cost model; the
    module-level :data:`PLANNER` is the default every caller shares.
    """

    def __init__(self, cost_model: Optional[CostModel] = None):
        self.cost_model = cost_model or CostModel()

    def load_calibration(self, path: str) -> None:
        """Swap in a cost model calibrated from ``cost_calibration.json``
        (written by ``python -m repro perf calibrate``).

        Estimates then carry predicted wall seconds; engine *selection*
        is unchanged, so plans stay deterministic and bit-identical.
        """
        from repro.engine.cost import load_calibration

        self.cost_model = CostModel(calibration=load_calibration(path))

    # ------------------------------------------------------------------
    # planning (pure)
    # ------------------------------------------------------------------

    def ladder(self, problem: Problem) -> Tuple[str, ...]:
        """The engine chain the plan will consider, in attempt order."""
        if problem.method != "auto":
            return (problem.method,)
        return AUTO_LADDERS[problem.op]

    def plan(
        self, problem: Problem, budget: Optional[Budget] = None
    ) -> Plan:
        """Cost every chain engine and fix the fallback chain.

        Deterministic: the same ``(problem, budget)`` pair always yields
        an identical plan — no clocks, no randomness, no engine runs.
        """
        budget = budget or Budget()
        key = problem.canonical_key()
        steps = []
        with TRACER.span(
            "plan", key=key[:16], op=problem.op, method=problem.method
        ):
            for name in self.ladder(problem):
                engine = get_engine(name)
                with TRACER.span("cost_estimate", engine=name):
                    estimate = engine.cost(
                        problem,
                        self.cost_model,
                        exact_max_positions=budget.exact_max_positions,
                    )
                steps.append(
                    PlanStep(
                        engine=name,
                        action="run" if estimate.feasible else "skip:size",
                        estimate=estimate,
                    )
                )
        chosen = next(
            (step.engine for step in steps if step.action == "run"), None
        )
        METRICS.inc("planner.plans")
        return Plan(
            key=key,
            op=problem.op,
            method=problem.method,
            chosen=chosen,
            steps=tuple(steps),
            wall_seconds=budget.wall_seconds,
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(
        self,
        problem: Problem,
        plan: Plan,
        budget: Optional[Budget] = None,
        pool=None,
    ) -> Tuple[Any, str]:
        """Walk the plan's chain under the budget; ``(value, engine)``.

        Skipped stages and timeouts are recorded exactly as the old
        degradation ladder recorded them; an exhausted chain raises the
        structured :class:`~repro.service.budget.BudgetExceeded`.
        """
        budget = budget or Budget()
        attempts = []
        started = perf_counter()

        for step in plan.steps:
            if step.action != "run":
                attempts.append((step.engine, "skipped:size"))
                METRICS.inc("budget.degradations")
                TRACER.event(
                    "budget.degrade", stage=step.engine, reason="size"
                )
                continue
            engine = get_engine(step.engine)
            # Every stage gets at least 1 ms, even after an earlier one
            # used up the wall.
            deadline = (
                None
                if budget.wall_seconds is None
                else max(started + budget.wall_seconds, perf_counter() + 0.001)
            )
            try:
                # The span carries the stage's unit estimate (and the
                # calibrated prediction, when one is loaded) next to its
                # measured duration — the (units, seconds) pairs
                # ``repro perf calibrate`` replays to fit the model.
                with TRACER.span(
                    "engine_run",
                    engine=step.engine,
                    op=problem.op,
                    key=plan.key[:16],
                    units=step.estimate.units,
                ) as span:
                    if step.estimate.seconds is not None:
                        span.set(predicted_seconds=step.estimate.seconds)
                    stage_started = perf_counter()
                    value = engine.run(problem, pool=pool, deadline=deadline)
                    span.set(ok=True)
                METRICS.inc("engine.runs", engine=step.engine)
                METRICS.observe(
                    f"engine.run.{step.engine}",
                    perf_counter() - stage_started,
                )
                return value, step.engine
            except StageTimeout:
                attempts.append((step.engine, "timeout"))
                METRICS.inc("budget.timeouts")
                TRACER.event("budget.timeout", stage=step.engine)

        raise BudgetExceeded(attempts, perf_counter() - started, budget)

    def plan_and_run(
        self,
        problem: Problem,
        budget: Optional[Budget] = None,
        pool=None,
    ) -> ExecutionResult:
        """Plan *problem*, then execute the plan."""
        plan = self.plan(problem, budget=budget)
        value, engine = self.execute(problem, plan, budget=budget, pool=pool)
        return ExecutionResult(value=value, engine=engine, plan=plan)


#: The default planner every thin caller goes through.
PLANNER = Planner()


def plan_and_run(
    problem: Problem,
    budget: Optional[Budget] = None,
    pool=None,
) -> ExecutionResult:
    """Module-level convenience over :data:`PLANNER`."""
    return PLANNER.plan_and_run(problem, budget=budget, pool=pool)
