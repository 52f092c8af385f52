"""The problem record: the live inputs of one computation.

A :class:`Problem` is everything the planner needs to choose, cost, and
run an engine: the positioned instance (schema, constraints and rows),
the target position, the operation (``"ric"`` — the limit measure — or
``"inf_k"`` — the finite-``k`` entropy), the requested method, and the
engine-relevant parameters (``samples``/``seed`` for sampled engines,
``k`` for finite-``k`` ones).

A problem has no serialized form and no key of its own.  Results are
cached one layer up, by the batch runner under
:func:`~repro.service.jobs.job_key`, whose canonical payload covers the
same parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.positions import Position, PositionedInstance
from repro.service.errors import ValidationError
from repro.service.validate import (
    MAX_SAMPLES,
    RIC_METHODS,
    check_method,
    check_positive_int,
)

#: Operations the planner understands.
OPS = ("ric", "inf_k")

#: Methods accepted by ``inf_k`` problems (``"auto"`` delegates to the
#: planner); ``ric`` problems accept :data:`RIC_METHODS`.
INF_K_METHODS = ("auto", "symbolic", "bruteforce")


@dataclass(frozen=True)
class Problem:
    """One RIC/entropy computation over a live positioned instance."""

    instance: PositionedInstance
    position: Position
    op: str = "ric"
    method: str = "auto"
    samples: int = 200
    seed: int = 0
    k: Optional[int] = None

    def __post_init__(self):
        if self.op not in OPS:
            raise ValidationError(
                f"unknown operation {self.op!r} (expected one of {OPS})"
            )
        check_method(
            "method",
            self.method,
            RIC_METHODS if self.op == "ric" else INF_K_METHODS,
        )
        check_positive_int("samples", self.samples, maximum=MAX_SAMPLES)
        if self.op == "inf_k":
            if self.k is None:
                raise ValidationError("inf_k problems need a domain size k")
            check_positive_int("k", self.k)
        if not self.instance.schemas:
            raise ValidationError("a problem needs at least one relation")

    @classmethod
    def from_design(
        cls,
        design: str,
        rows,
        position: Tuple[int, str],
        op: str = "ric",
        method: str = "auto",
        samples: int = 200,
        seed: int = 0,
        k: Optional[int] = None,
    ) -> "Problem":
        """Build from design notation text plus concrete rows.

        *position* is the ``(row_index, attribute)`` pair of the batch
        job format (the relation is implied by the design).
        """
        from repro.relational.parser import parse_design
        from repro.relational.relation import Relation

        schema, deps = parse_design(design)
        instance = PositionedInstance.from_relation(
            Relation(schema, [tuple(r) for r in rows]), deps
        )
        return cls(
            instance,
            instance.position(schema.name, int(position[0]), str(position[1])),
            op=op,
            method=method,
            samples=samples,
            seed=seed,
            k=k,
        )

    # ------------------------------------------------------------------
    # shape (the cost model's inputs)
    # ------------------------------------------------------------------

    @property
    def num_positions(self) -> int:
        """Total position count of the instance (the sweep exponent)."""
        return len(self.instance)

    @property
    def num_dependencies(self) -> int:
        return len(self.instance.all_constraints)
