"""Registered engine implementations wrapping the core code paths.

Each engine adapts one of the existing computations in
:mod:`repro.core` to the planner's uniform surface: declare the
operation it solves, accept a :class:`~repro.engine.problem.Problem`,
return the raw value.  Engines never choose themselves — selection,
budgeting, and instrumentation belong to the
:class:`~repro.engine.planner.Planner`.

Registering a new engine (a sharded exact sweep, a vectorized sampler,
an approximate-JD loss estimator) is three steps: subclass
:class:`Engine`, give it a cost formula (extend
:class:`~repro.engine.cost.CostModel` or override :meth:`Engine.cost`),
and call :func:`register`.  No caller changes — the planner picks it up
wherever its estimate wins.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.symbolic import EXACT_MAX_POSITIONS
from repro.engine.cost import CostEstimate, CostModel
from repro.engine.problem import Problem
from repro.service.errors import ValidationError


class Engine:
    """One way to compute one operation (see the module docstring).

    ``name`` doubles as the user-facing method string (``"exact"``,
    ``"montecarlo"``, ``"symbolic"``, ``"bruteforce"``); ``op`` is the
    operation the engine answers; ``kind`` says whether the answer is
    exact or an estimate (rendered in plans and result payloads).
    """

    name: str = ""
    op: str = "ric"
    kind: str = "exact"

    def supports(self, problem: Problem) -> bool:
        return problem.op == self.op

    def cost(
        self,
        problem: Problem,
        model: CostModel,
        exact_max_positions: int = EXACT_MAX_POSITIONS,
    ) -> CostEstimate:
        return model.estimate(
            problem, self.name, exact_max_positions=exact_max_positions
        )

    def run(self, problem: Problem, pool=None, deadline=None):
        """Compute the raw value; *deadline* (an absolute
        ``perf_counter()`` reading, ``None`` for no limit) must be passed
        to :func:`repro.service.budget.check_deadline` once per world."""
        raise NotImplementedError


class ExactEngine(Engine):
    """The exact limit: symbolic per-world ratios swept over all worlds."""

    name = "exact"
    op = "ric"
    kind = "exact"

    def run(self, problem: Problem, pool=None, deadline=None):
        from repro.core.symbolic import ric_exact

        instance, p = problem.resolved_instance(), problem.position_obj()
        return ric_exact(instance, p, deadline=deadline)


class MonteCarloEngine(Engine):
    """Sampled worlds with exact per-world limits (deterministic in
    ``(samples, seed)``); shards across a worker pool when given one."""

    name = "montecarlo"
    op = "ric"
    kind = "estimate"

    def run(self, problem: Problem, pool=None, deadline=None):
        from repro.core.montecarlo import ric_montecarlo

        estimate = ric_montecarlo if pool is None else pool.ric_montecarlo
        return estimate(
            problem.resolved_instance(),
            problem.position_obj(),
            samples=problem.samples,
            seed=problem.seed,
            deadline=deadline,
        )


class SymbolicKEngine(Engine):
    """Exact finite-``k`` entropy via polynomial pattern counting."""

    name = "symbolic"
    op = "inf_k"
    kind = "exact"

    def run(self, problem: Problem, pool=None, deadline=None):
        from repro.core.symbolic import inf_k_symbolic

        instance, p = problem.resolved_instance(), problem.position_obj()
        return inf_k_symbolic(instance, p, problem.k, deadline=deadline)


class BruteForceEngine(Engine):
    """Exact finite-``k`` entropy by literal enumeration (ground truth
    for tiny instances; exponential in everything)."""

    name = "bruteforce"
    op = "inf_k"
    kind = "exact"

    def run(self, problem: Problem, pool=None, deadline=None):
        from repro.core.bruteforce import inf_k_bruteforce

        instance, p = problem.resolved_instance(), problem.position_obj()
        return inf_k_bruteforce(instance, p, problem.k, deadline=deadline)


#: The live registry: name -> engine instance.
_REGISTRY: Dict[str, Engine] = {}


def register(engine: Engine) -> Engine:
    """Add *engine* to the registry (replacing any same-named one)."""
    if not engine.name:
        raise ValueError("engines must carry a non-empty name")
    _REGISTRY[engine.name] = engine
    return engine


def get_engine(name: str) -> Engine:
    """The registered engine called *name* (typed error when unknown)."""
    engine = _REGISTRY.get(name)
    if engine is None:
        raise ValidationError(
            f"unknown engine {name!r} (registered: {sorted(_REGISTRY)})",
            details={"engine": name, "registered": sorted(_REGISTRY)},
        )
    return engine


def registered_engines(op: Optional[str] = None) -> Tuple[Engine, ...]:
    """Every registered engine, optionally filtered to one operation."""
    engines = tuple(_REGISTRY[name] for name in sorted(_REGISTRY))
    if op is None:
        return engines
    return tuple(e for e in engines if e.op == op)


register(ExactEngine())
register(MonteCarloEngine())
register(SymbolicKEngine())
register(BruteForceEngine())
