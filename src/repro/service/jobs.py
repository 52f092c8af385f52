"""Typed job requests for the batch runtime, with canonical serialization.

Three job kinds cover the library's entry points:

- :class:`AdviseJob` — ``repro.advisor.advise`` over a design string;
- :class:`MeasureJob` — ``RIC`` of one position of a concrete instance;
- :class:`RPQJob` — regular path query evaluation over an edge list.

Each job knows its **canonical payload**: a JSON-safe dict in which every
order-insensitive component (attribute order in the schema text,
dependency order, row order, edge order) has been normalized, so that two
textually different but semantically identical requests hash to the same
:func:`job_key`.  The content-addressed cache is keyed on exactly this
hash, which is why Monte-Carlo jobs carry ``(samples, seed)`` in their
payload — the deterministic estimator makes the cached value a pure
function of the key.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.relational.parser import parse_design
from repro.service.errors import JobError
from repro.service.errors import ValidationError
from repro.service.faults import FAULTS
from repro.service.validate import RIC_METHODS, check_method

#: Methods accepted by measure-style jobs (the shared option schema).
MEASURE_METHODS = RIC_METHODS


class JobSpecError(ValidationError):
    """A malformed job request (bad kind, missing field, bad value).

    Carries the taxonomy kind ``validation`` by default; JSONL syntax
    failures are raised with ``kind="parse"``.  Remains a ``ValueError``
    for pre-taxonomy callers.
    """



def _canonical_design(design: str) -> Tuple[str, Tuple[str, ...]]:
    """Normalize a design string: sorted-attribute schema text plus the
    sorted dependency strings (parse-validated)."""
    schema, deps = parse_design(design)
    return str(schema), tuple(sorted(str(d) for d in deps))


@dataclass(frozen=True)
class AdviseJob:
    """Run the schema advisor over *design* notation text."""

    design: str
    measure: bool = True
    method: str = "exact"
    samples: int = 200
    seed: int = 0
    id: Optional[str] = None

    def __post_init__(self):
        check_method(
            "method",
            self.method,
            choices=("exact", "montecarlo", "auto"),
            error_cls=JobSpecError,
        )
        if self.samples <= 0:
            raise JobSpecError("samples must be positive")

    @property
    def kind(self) -> str:
        return "advise"

    def canonical(self) -> dict:
        schema, deps = _canonical_design(self.design)
        payload = {
            "kind": self.kind,
            "schema": schema,
            "deps": list(deps),
            "measure": self.measure,
            "method": self.method,
        }
        # Any method that can sample ("montecarlo", or "auto" degrading
        # to it) must key on (samples, seed) — an exact result may never
        # answer a sampled request with different parameters.
        if self.measure and self.method != "exact":
            payload["samples"] = self.samples
            payload["seed"] = self.seed
        return payload

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "design": self.design,
            "measure": self.measure,
            "method": self.method,
            "samples": self.samples,
            "seed": self.seed,
            **({"id": self.id} if self.id is not None else {}),
        }


@dataclass(frozen=True)
class MeasureJob:
    """Measure ``RIC`` of one position of a concrete instance.

    *design* gives the schema and Σ (``"R(A,B,C); B->C"``); *rows* the
    instance tuples in the schema's **sorted** attribute order; *position*
    a ``(row_index, attribute)`` pair over the canonical (sorted-row)
    positioning.  *method* ``"auto"`` lets the budget ladder pick
    exact-vs-Monte-Carlo at run time.
    """

    design: str
    rows: Tuple[Tuple[Any, ...], ...]
    position: Tuple[int, str]
    method: str = "exact"
    samples: int = 200
    seed: int = 0
    id: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(
            self, "rows", tuple(tuple(row) for row in self.rows)
        )
        object.__setattr__(
            self, "position", (int(self.position[0]), str(self.position[1]))
        )
        check_method(
            "method",
            self.method,
            choices=MEASURE_METHODS,
            error_cls=JobSpecError,
        )
        if self.samples <= 0:
            raise JobSpecError("samples must be positive")
        if not self.rows:
            raise JobSpecError("measure job needs at least one row")

    @property
    def kind(self) -> str:
        return "measure"

    def canonical(self) -> dict:
        schema, deps = _canonical_design(self.design)
        payload = {
            "kind": self.kind,
            "schema": schema,
            "deps": list(deps),
            # Relations are sets: row order is not meaningful, and the
            # canonical positioning sorts rows anyway.
            "rows": sorted([list(r) for r in self.rows], key=repr),
            "position": list(self.position),
            "method": self.method,
        }
        if self.method != "exact":
            payload["samples"] = self.samples
            payload["seed"] = self.seed
        return payload

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "design": self.design,
            "rows": [list(r) for r in self.rows],
            "position": list(self.position),
            "method": self.method,
            "samples": self.samples,
            "seed": self.seed,
            **({"id": self.id} if self.id is not None else {}),
        }


@dataclass(frozen=True)
class RPQJob:
    """Evaluate a regular path query over an edge-list graph.

    *edges* are ``(source, label, target)`` triples; *source* (optional)
    restricts the answer to pairs starting there.
    """

    edges: Tuple[Tuple[Any, str, Any], ...]
    query: str
    source: Optional[Any] = None
    id: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(
            self, "edges", tuple(tuple(e) for e in self.edges)
        )
        for edge in self.edges:
            if len(edge) != 3:
                raise JobSpecError(
                    f"edge must be (source, label, target): {edge!r}"
                )
        if not self.query:
            raise JobSpecError("rpq job needs a query")

    @property
    def kind(self) -> str:
        return "rpq"

    def canonical(self) -> dict:
        return {
            "kind": self.kind,
            "edges": sorted([list(e) for e in self.edges], key=repr),
            "query": self.query,
            "source": self.source,
        }

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "edges": [list(e) for e in self.edges],
            "query": self.query,
            **({"source": self.source} if self.source is not None else {}),
            **({"id": self.id} if self.id is not None else {}),
        }


Job = Any  # AdviseJob | MeasureJob | RPQJob (3.10-friendly alias)

_KINDS = {"advise": AdviseJob, "measure": MeasureJob, "rpq": RPQJob}


def job_key(job: Job) -> str:
    """The content address of *job*: SHA-256 over a canonical JSON
    rendering (sorted keys, compact separators, ``default=str``) of its
    canonical payload."""
    blob = json.dumps(
        job.canonical(), sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def job_from_dict(data: dict) -> Job:
    """Build a job from a decoded JSONL record (``kind`` selects the type)."""
    if not isinstance(data, dict):
        raise JobSpecError(
            f"job record must be an object, got {type(data).__name__}"
        )
    kind = data.get("kind")
    cls = _KINDS.get(kind)
    if cls is None:
        raise JobSpecError(
            f"unknown job kind {kind!r} (expected one of {sorted(_KINDS)})"
        )
    fields = {k: v for k, v in data.items() if k != "kind"}
    try:
        return cls(**fields)
    except TypeError as exc:
        raise JobSpecError(f"bad {kind} job: {exc}") from None


def _parse_line(lineno: int, line: str) -> Job:
    """Decode and validate one JSONL line (typed, line-numbered errors)."""
    FAULTS.maybe_raise("parse", f"line:{lineno}")
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise JobSpecError(
            f"line {lineno}: invalid JSON ({exc})",
            kind="parse",
            details={"line": lineno},
        ) from None
    try:
        return job_from_dict(record)
    except JobSpecError as exc:
        raise JobSpecError(
            f"line {lineno}: {exc}",
            kind=exc.kind,
            details={**exc.details, "line": lineno},
        ) from None


def parse_jsonl(text: str):
    """Parse a JSONL job file into a job list, failing on the first bad
    line (line numbers in errors).  See :func:`parse_jsonl_lenient` for
    the fault-tolerant variant the batch runner uses."""
    return [
        job
        for _, job, error in parse_jsonl_lenient(text, _strict=True)
        if error is None
    ]


def parse_jsonl_lenient(
    text: str, _strict: bool = False
) -> List[Tuple[int, Optional[Job], Optional[JobSpecError]]]:
    """Parse a JSONL job file, reporting bad lines instead of aborting.

    Returns ``(lineno, job, error)`` triples in line order — exactly one
    of ``job``/``error`` is set per triple.  A malformed line therefore
    costs one failed entry in the batch report, never the batch.
    """
    records: List[Tuple[int, Optional[Job], Optional[JobError]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            records.append((lineno, _parse_line(lineno, line), None))
        except JobError as exc:  # JobSpecError or an injected fault
            if _strict:
                raise
            records.append((lineno, None, exc))
    return records
