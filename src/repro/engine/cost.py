"""The cost model: per-engine work estimates from the problem IR alone.

Every engine's dominant cost is a product of an **outer loop** (revealed
sets swept or sampled) and a **per-world** term (pattern search or
completion enumeration).  Both are pure functions of the IR shape —
position count, dependency count, ``samples``, ``k`` — so cost
estimation never touches the instance, never runs an engine, and is
deterministic by construction.  The units are abstract "world visits",
comparable *between* engines on the same problem; the planner only ever
compares estimates, it never interprets them as seconds.

Feasibility mirrors the engines' own hard guards (the exact sweep's
``max_positions``, brute force's ``max_worlds``) so a plan never chooses
a stage the engine itself would refuse.

**Calibration** (optional): ``python -m repro perf calibrate`` fits one
observed seconds-per-unit constant per engine from recorded
``engine_run`` spans and writes ``cost_calibration.json``; a model built
with ``CostModel(calibration=load_calibration(path))`` (or
``CostModel.with_calibration(path)``) then attaches predicted wall
seconds to every estimate.  Calibration *enriches* estimates — plans,
``--explain-plan``, and the perf tooling show the seconds — but never
changes engine selection, so planning stays deterministic and identical
with or without it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.symbolic import EXACT_MAX_POSITIONS
from repro.engine.problem import Problem

#: Mirrors ``inf_k_bruteforce``'s default oracle-call ceiling.
BRUTEFORCE_MAX_WORLDS = 5_000_000


@dataclass(frozen=True)
class CostEstimate:
    """What one engine is predicted to cost on one problem.

    ``worlds`` is the outer-loop size (revealed sets visited), ``units``
    the total abstract work (worlds x per-world term); ``feasible`` is
    False when the engine's own hard guard would reject the problem, and
    ``reason`` says why.  ``seconds`` is the predicted wall-clock cost —
    present only on estimates from a calibrated model, and advisory:
    selection never depends on it.
    """

    engine: str
    worlds: float
    units: float
    feasible: bool
    reason: str = ""
    seconds: Optional[float] = None

    def to_dict(self) -> dict:
        payload = {
            "engine": self.engine,
            "worlds": self.worlds,
            "units": self.units,
            "feasible": self.feasible,
            "reason": self.reason,
        }
        if self.seconds is not None:
            payload["seconds"] = self.seconds
        return payload


def _pow2(exponent: int) -> float:
    """``2**exponent`` as a float, saturating instead of overflowing."""
    try:
        return float(2**exponent)
    except OverflowError:
        return float("inf")


def load_calibration(path: str) -> Dict[str, float]:
    """Per-engine seconds-per-unit constants from ``cost_calibration.json``.

    The file is written by ``python -m repro perf calibrate`` (see
    :mod:`repro.perf.calibrate`); raises ``ValueError`` when *path* is
    not a calibration document, so a wrong file never silently yields an
    empty calibration.
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or "engines" not in document:
        raise ValueError(
            f"{path} is not a cost-calibration document "
            "(expected the output of 'repro perf calibrate')"
        )
    calibration: Dict[str, float] = {}
    for engine, entry in document["engines"].items():
        coefficient = entry.get("seconds_per_unit")
        if not isinstance(coefficient, (int, float)) or coefficient <= 0:
            raise ValueError(
                f"{path}: engine {engine!r} carries an invalid "
                f"seconds_per_unit {coefficient!r}"
            )
        calibration[str(engine)] = float(coefficient)
    return calibration


class CostModel:
    """Estimates engine cost from the IR (see the module docstring).

    *calibration* maps engine names to observed seconds-per-unit
    constants (see :func:`load_calibration`); when present, estimates
    carry predicted wall seconds.  The exact-sweep size guard is not the
    model's: the planner passes each call the budget's
    ``exact_max_positions``.
    """

    def __init__(self, calibration: Optional[Dict[str, float]] = None):
        self.calibration = dict(calibration or {})

    @classmethod
    def with_calibration(cls, path: str) -> "CostModel":
        """A model whose calibration is loaded from *path*."""
        return cls(calibration=load_calibration(path))

    def predicted_seconds(self, engine: str, units: float) -> Optional[float]:
        """Calibrated wall-clock prediction (None when uncalibrated)."""
        coefficient = self.calibration.get(engine)
        if coefficient is None or units == float("inf"):
            return None
        return coefficient * units

    def estimate(
        self,
        problem: Problem,
        engine: str,
        exact_max_positions: int = EXACT_MAX_POSITIONS,
    ) -> CostEstimate:
        """The :class:`CostEstimate` of *engine* on *problem* when the
        exact sweep is allowed *exact_max_positions* positions."""
        n = problem.num_positions
        per_world = max(1, n) * (problem.num_dependencies + 1)

        if engine in ("exact", "symbolic"):
            worlds = _pow2(max(0, n - 1))
            feasible = n <= exact_max_positions + 1
            units = worlds * per_world
            return CostEstimate(
                engine=engine,
                worlds=worlds,
                units=units,
                feasible=feasible,
                reason=(
                    ""
                    if feasible
                    else f"{n} positions exceed the exact-sweep "
                    f"budget ({exact_max_positions})"
                ),
                seconds=self.predicted_seconds(engine, units),
            )
        if engine == "montecarlo":
            samples = problem.samples
            units = float(samples) * per_world
            return CostEstimate(
                engine=engine,
                worlds=float(samples),
                units=units,
                feasible=True,
                seconds=self.predicted_seconds(engine, units),
            )
        if engine == "bruteforce":
            k = problem.k or 0
            worlds = _pow2(max(0, n - 1))
            # Every world enumerates up to k^(erased+1) completions; the
            # erased set can be all other positions, so k^n bounds it —
            # the same rough figure inf_k_bruteforce guards on.
            try:
                completions = float(k**n)
            except OverflowError:
                completions = float("inf")
            units = worlds * completions
            feasible = (
                n <= exact_max_positions + 1
                and units <= BRUTEFORCE_MAX_WORLDS * max(k, 1)
            )
            return CostEstimate(
                engine=engine,
                worlds=worlds,
                units=units,
                feasible=feasible,
                reason=(
                    ""
                    if feasible
                    else f"~{units:.0f} enumerations exceed the brute-force "
                    f"budget"
                ),
                seconds=self.predicted_seconds(engine, units),
            )
        raise ValueError(f"no cost formula for engine {engine!r}")
