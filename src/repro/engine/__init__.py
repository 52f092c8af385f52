"""The plan/executor layer over the RIC engines.

One place where cost estimation, engine choice, degradation, and
instrumentation live — callers build a
:class:`~repro.engine.problem.Problem`, call :func:`plan_and_run`, and
render the :class:`~repro.engine.planner.Plan`:

>>> from repro.engine import Problem, plan_and_run
>>> from repro.core import PositionedInstance
>>> from repro.dependencies import FD
>>> from repro.relational import Relation, RelationSchema
>>> schema = RelationSchema("R", ("A", "B", "C"))
>>> inst = PositionedInstance.from_relation(
...     Relation(schema, [(1, 2, 3), (4, 2, 3)]), [FD("B", "C")])
>>> problem = Problem(inst, inst.position("R", 0, "C"))
>>> result = plan_and_run(problem)
>>> str(result.value), result.engine
('7/8', 'exact')

Modules:

- :mod:`repro.engine.problem` — the problem record (live instance,
  target position, operation, method and engine parameters);
- :mod:`repro.engine.cost` — the cost model (world counts / sweep sizes
  per engine, pure functions of the problem's shape);
- :mod:`repro.engine.engines` — the engine registry wrapping the core
  code paths (``exact``, ``montecarlo``, ``symbolic``, ``bruteforce``);
- :mod:`repro.engine.planner` — the planner/executor with budget
  fallback.

See ``src/repro/engine/README.md`` for how to register a new engine.
"""

from repro.engine.cost import CostEstimate, CostModel
from repro.engine.engines import (
    Engine,
    get_engine,
    register,
    registered_engines,
)
from repro.engine.planner import (
    PLANNER,
    ExecutionResult,
    Plan,
    Planner,
    PlanStep,
    plan_and_run,
)
from repro.engine.problem import INF_K_METHODS, OPS, RIC_METHODS, Problem

__all__ = [
    "CostEstimate",
    "CostModel",
    "Engine",
    "ExecutionResult",
    "INF_K_METHODS",
    "OPS",
    "PLANNER",
    "Plan",
    "PlanStep",
    "Planner",
    "Problem",
    "RIC_METHODS",
    "get_engine",
    "plan_and_run",
    "register",
    "registered_engines",
]
