"""Per-job budgets: wall-clock limits, typed exhaustion errors, and the
cooperative stage deadline the planner executes under.

The exact ``RIC`` sweep is ``Θ(2^(n−1))`` in the number of positions, so
an unguarded service would hang on the first oversized request.  A
:class:`Budget` bounds each job two ways:

- **size** — instances with more than ``exact_max_positions`` positions
  never enter the exact sweep (the planner's cost model marks the stage
  infeasible and the plan skips it);
- **time** — each plan stage runs under an absolute deadline on the
  planner's ``perf_counter`` clock.  The engines call
  :func:`check_deadline` once per world (or per sample), which raises
  :class:`StageTimeout` once the deadline has passed; the stage stops
  there and the next stage gets what is left.  When the chain is
  exhausted the job fails with a structured :class:`BudgetExceeded`
  carrying the stage history — never a hang, never a bare
  ``TimeoutError``.

Because the check runs on the stage's own thread (or worker process),
a timed-out stage really stops: it holds no CPU after the timeout beyond
the one world it was evaluating.

Which engines form the chain, and in which order, is **not** decided
here: every selection decision lives in
:class:`repro.engine.planner.Planner`.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Tuple

from repro.core import EXACT_MAX_POSITIONS
from repro.service.validate import check_positive_int, check_timeout


class StageTimeout(TimeoutError):
    """A plan stage ran past its deadline (see :func:`check_deadline`)."""


def check_deadline(deadline: Optional[float]) -> None:
    """Raise :class:`StageTimeout` once *deadline* has passed.

    *deadline* is an absolute ``perf_counter()`` reading, or ``None`` for
    no limit.  Engines call this once per world or sample.
    """
    if deadline is not None and perf_counter() >= deadline:
        raise StageTimeout()


@dataclass(frozen=True)
class Budget:
    """Resource limits applied to a single job.

    ``wall_seconds=None`` disables the clock (size limits still apply);
    ``exact_max_positions`` defaults to the engines' own sweep guard and
    is the exact→Monte-Carlo degradation threshold.  What a job computes
    (including Monte-Carlo ``samples``/``seed``) is the
    :class:`~repro.engine.problem.Problem`'s, not the budget's.
    """

    wall_seconds: Optional[float] = None
    exact_max_positions: int = EXACT_MAX_POSITIONS

    def __post_init__(self):
        # Shared bounds validation (raises ValidationError, a ValueError).
        check_timeout("wall_seconds", self.wall_seconds)
        check_positive_int("exact_max_positions", self.exact_max_positions)

    def to_dict(self) -> dict:
        return {
            "wall_seconds": self.wall_seconds,
            "exact_max_positions": self.exact_max_positions,
        }


class BudgetExceeded(RuntimeError):
    """Every plan stage was skipped or timed out.

    Structured: ``stages`` lists ``(stage, outcome)`` pairs in attempt
    order (outcomes: ``"skipped:size"``, ``"timeout"``), ``elapsed`` is
    the wall-clock spent, ``budget`` the limits that were in force.
    """

    def __init__(
        self,
        stages: List[Tuple[str, str]],
        elapsed: float,
        budget: Budget,
    ):
        self.stages = list(stages)
        self.elapsed = elapsed
        self.budget = budget
        detail = ", ".join(f"{stage}={outcome}" for stage, outcome in stages)
        super().__init__(
            f"budget exhausted after {elapsed:.3f}s ({detail}; "
            f"wall_seconds={budget.wall_seconds})"
        )

    def to_dict(self) -> dict:
        """JSON-safe error payload for batch results."""
        return {
            "error": "budget_exceeded",
            "stages": [list(pair) for pair in self.stages],
            "elapsed": self.elapsed,
            "budget": self.budget.to_dict(),
        }
