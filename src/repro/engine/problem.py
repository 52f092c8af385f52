"""The canonical problem IR: one hashable value describing a computation.

A :class:`Problem` is everything the planner needs to choose, cost, and
run an engine: the schema and constraints, the instance rows, the target
position, the operation (``"ric"`` — the limit measure — or ``"inf_k"``
— the finite-``k`` entropy), the requested method, and the
engine-relevant parameters (``samples``/``seed`` for sampled engines,
``k`` for finite-``k`` ones).

Serialization reuses the canonicalization rules of
:mod:`repro.service.jobs` — attribute order, dependency order, and row
order are normalized away, and :func:`canonical_digest` is the same
SHA-256-over-canonical-JSON helper that backs :func:`job_key` — so two
textually different but semantically identical requests share one
:meth:`Problem.canonical_key`.  The key *includes* every engine-relevant
parameter: the method, ``samples`` and ``seed`` whenever the method can
sample, and ``k`` for finite-``k`` operations.  It names a
:class:`~repro.engine.planner.Plan`; results are cached by the batch
runner under :func:`~repro.service.jobs.job_key`, which covers the same
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from repro.core.positions import Position, PositionedInstance
from repro.service.errors import ValidationError
from repro.service.jobs import canonical_digest
from repro.service.validate import (
    MAX_SAMPLES,
    check_method,
    check_positive_int,
)

#: Operations the planner understands.
OPS = ("ric", "inf_k")

#: Methods accepted per operation (``"auto"`` delegates to the planner).
RIC_METHODS = ("auto", "exact", "montecarlo")
INF_K_METHODS = ("auto", "symbolic", "bruteforce")

#: One relation of the IR: (schema text, dependency strings, row tuples).
RelationIR = Tuple[str, Tuple[str, ...], Tuple[Tuple[Any, ...], ...]]


def _freeze_relation(
    schema: str, deps, rows
) -> RelationIR:
    return (
        str(schema),
        tuple(sorted(str(d) for d in deps)),
        tuple(tuple(row) for row in rows),
    )


@dataclass(frozen=True)
class Problem:
    """A canonical, hashable description of one RIC/entropy computation.

    *relations* holds ``(schema_text, sorted_dep_strings, rows)`` triples
    (rows in the canonical sorted-row order of
    :class:`~repro.core.positions.PositionedInstance`); *position* is a
    ``(relation, row, attribute)`` triple over that ordering.  Equality
    and hashing cover exactly the fields that determine the answer.
    """

    op: str
    relations: Tuple[RelationIR, ...]
    position: Tuple[str, int, str]
    method: str = "auto"
    samples: int = 200
    seed: int = 0
    k: Optional[int] = None
    #: A pre-built instance to run on (identity only — never part of the
    #: key; the canonical payload is always derived from the IR fields).
    instance: Optional[PositionedInstance] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        if self.op not in OPS:
            raise ValidationError(
                f"unknown operation {self.op!r} (expected one of {OPS})"
            )
        check_method("method", self.method, self.method_choices(self.op))
        check_positive_int("samples", self.samples, maximum=MAX_SAMPLES)
        if self.op == "inf_k":
            if self.k is None:
                raise ValidationError("inf_k problems need a domain size k")
            check_positive_int("k", self.k)
        if not self.relations:
            raise ValidationError("a problem needs at least one relation")
        object.__setattr__(
            self,
            "relations",
            tuple(
                _freeze_relation(schema, deps, rows)
                for schema, deps, rows in self.relations
            ),
        )
        object.__setattr__(
            self,
            "position",
            (
                str(self.position[0]),
                int(self.position[1]),
                str(self.position[2]),
            ),
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @staticmethod
    def method_choices(op: str) -> Tuple[str, ...]:
        """The method names valid for *op* (``"auto"`` always included)."""
        return RIC_METHODS if op == "ric" else INF_K_METHODS

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
        return cls.from_instance(
            instance,
            instance.position(schema.name, int(position[0]), str(position[1])),
            op=op,
            method=method,
            samples=samples,
            seed=seed,
            k=k,
        )

    @classmethod
    def from_instance(
        cls,
        instance: PositionedInstance,
        p: Position,
        op: str = "ric",
        method: str = "auto",
        samples: int = 200,
        seed: int = 0,
        k: Optional[int] = None,
    ) -> "Problem":
        """Build from an already-positioned instance (no re-parsing)."""
        relations = tuple(
            _freeze_relation(
                str(schema),
                (str(d) for d in instance.constraints_for(schema.name)),
                instance.rows_of(schema.name),
            )
            for schema in instance.schemas
        )
        return cls(
            op=op,
            relations=relations,
            position=(p.relation, p.row, p.attribute),
            method=method,
            samples=samples,
            seed=seed,
            k=k,
            instance=instance,
        )

    # ------------------------------------------------------------------
    # execution material
    # ------------------------------------------------------------------

    def resolved_instance(self) -> PositionedInstance:
        """The live instance to run engines on (built once, memoized)."""
        if self.instance is not None:
            return self.instance
        from repro.relational.parser import parse_design
        from repro.relational.relation import Relation

        relations = []
        constraints = {}
        for schema_text, deps, rows in self.relations:
            schema, parsed = parse_design(
                "; ".join((schema_text,) + deps) if deps else schema_text
            )
            relations.append(Relation(schema, [tuple(r) for r in rows]))
            constraints[schema.name] = list(parsed)
        instance = PositionedInstance(relations, constraints)
        object.__setattr__(self, "instance", instance)
        return instance

    def position_obj(self) -> Position:
        """The target :class:`~repro.core.positions.Position`."""
        relation, row, attribute = self.position
        return self.resolved_instance().position(relation, row, attribute)

    # ------------------------------------------------------------------
    # shape (pure functions of the IR — the cost model's inputs)
    # ------------------------------------------------------------------

    @property
    def num_positions(self) -> int:
        """Total position count of the instance (the sweep exponent)."""
        return sum(
            len(rows) * (len(rows[0]) if rows else 0)
            for _, _, rows in self.relations
        )

    @property
    def num_dependencies(self) -> int:
        return sum(len(deps) for _, deps, _ in self.relations)

    @property
    def samples_if_sampled(self) -> Optional[int]:
        """``samples`` when the method can sample, else None."""
        if self.method in ("auto", "montecarlo"):
            return self.samples
        return None

    # ------------------------------------------------------------------
    # canonical serialization (the cache-key basis)
    # ------------------------------------------------------------------

    def canonical(self) -> dict:
        """The canonical JSON-safe payload (see the module docstring).

        Rows are re-sorted by ``repr`` exactly as
        :meth:`repro.service.jobs.MeasureJob.canonical` does, so the key
        is independent of row presentation order.
        """
        payload = {
            "op": self.op,
            "relations": [
                {
                    "schema": schema,
                    "deps": list(deps),
                    "rows": sorted([list(r) for r in rows], key=repr),
                }
                for schema, deps, rows in self.relations
            ],
            "position": list(self.position),
            "method": self.method,
        }
        if self.samples_if_sampled is not None:
            payload["samples"] = self.samples
            payload["seed"] = self.seed
        if self.op == "inf_k":
            payload["k"] = self.k
        return payload

    def canonical_key(self) -> str:
        """The content address of this problem (SHA-256, hex)."""
        return canonical_digest(self.canonical())
