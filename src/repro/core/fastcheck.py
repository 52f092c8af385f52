"""The dependency kernel: checks compiled once per instance, over int cells.

The possible-worlds engines test constraints millions of times, so every
dependency is compiled once per relational instance into column-index
specs and three closures over raw row arrays (lists of lists):

- ``holds(rows)`` — two-valued satisfaction of a complete relation.  It
  inspects only equalities, so it works on any hashable cell values;
  duplicate rows collapse as under set semantics, matching the
  ``is_satisfied_by`` reference methods exactly.
- ``certain(rows)`` — the three-valued test of the pattern search: True
  only when the dependency is violated for **every** way of filling the
  cells that hold :data:`UNKNOWN`.  This full check is the reference.
- ``touch(rows, t)`` — the incremental form of ``certain``: given that
  *rows* were not certainly violated before one cell of row *t* was
  assigned, is the relation certainly violated now?  An FD re-examines
  only the row pairs through *t* (the tableau rule: a branch closes as
  soon as its new literal contradicts, so only that literal is checked),
  and is only consulted when the assigned column lies in its lhs ∪ rhs.
  An MVD re-runs its full check: its witness condition can fail through
  any pair once *t* stops being a compatible witness, and a pairs-through-
  *t* variant measured slower on the benchmark instances.

JDs get no sound cheap test and never prune (``certain``/``touch`` are
``None``).

Cell coding
-----------

The pattern search writes small ints into a world's grid: revealed values
are ``0 … m−1`` (in ``repr`` order), fresh block ``b`` is ``m + b``, a
fresh candidate is :data:`FRESH` (``−1``) and a not-yet-assigned cell is
:data:`UNKNOWN` (``−2``).  Distinct codes stand for distinct values — the
dependencies are generic, so that is all they can observe.
"""

from __future__ import annotations

from itertools import product
from operator import itemgetter
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.dependencies.fd import FD
from repro.dependencies.jd import JD
from repro.dependencies.mvd import MVD
from repro.relational.schema import RelationSchema

#: The code of a fresh candidate value (outside the revealed pool).
FRESH = -1

#: The code of a cell the pattern search has not assigned yet.
UNKNOWN = -2

Rows = List[List[Any]]


class CompiledDependency:
    """One dependency compiled against a schema (see the module docstring)."""

    __slots__ = ("holds", "certain", "touch", "columns")

    def __init__(
        self,
        holds: Callable[[Rows], bool],
        certain: Optional[Callable[[Rows], bool]] = None,
        touch: Optional[Callable[[Rows, List[Any]], bool]] = None,
        columns: Sequence[int] = (),
    ):
        self.holds = holds
        self.certain = certain
        self.touch = touch
        #: Columns whose assignment can change the ``certain`` verdict.
        self.columns = frozenset(columns)


def compile_dependency(dep: Any, schema: RelationSchema) -> CompiledDependency:
    """Compile *dep* against *schema* to column-index checks."""
    if isinstance(dep, FD):
        return _compile_fd(dep, schema)
    if isinstance(dep, MVD):
        return _compile_mvd(dep, schema)
    if isinstance(dep, JD):
        return _compile_jd(dep, schema)
    raise TypeError(f"unsupported dependency: {dep!r}")


def _compile_fd(fd: FD, schema: RelationSchema) -> CompiledDependency:
    lhs = tuple(schema.index(a) for a in sorted(fd.lhs))
    rhs = tuple(schema.index(a) for a in sorted(fd.rhs))

    key_of = _key_getter(lhs)
    val_of = _key_getter(rhs)

    def holds(rows: Rows) -> bool:
        seen: dict = {}
        for row in rows:
            val = val_of(row)
            if seen.setdefault(key_of(row), val) != val:
                return False
        return True

    # touch(rows, t): a pair through row t with known-equal lhs and a rhs
    # column where both cells are known and differ.  Specialized by arity.
    if len(lhs) == 1 and len(rhs) == 1:
        (l,), (r,) = lhs, rhs

        def touch(rows: Rows, t: List[Any]) -> bool:
            b = t[r]
            a = t[l]
            if b == UNKNOWN or a == UNKNOWN:
                return False
            for s in rows:
                if s[l] == a:
                    v = s[r]
                    if v != b and v != UNKNOWN:
                        return True
            return False

    elif len(rhs) == 1:
        (r,) = rhs

        def touch(rows: Rows, t: List[Any]) -> bool:
            b = t[r]
            if b == UNKNOWN:
                return False
            for i in lhs:
                if t[i] == UNKNOWN:
                    return False
            key = key_of(t)
            for s in rows:
                v = s[r]
                if v != b and v != UNKNOWN and key_of(s) == key:
                    return True
            return False

    else:

        def touch(rows: Rows, t: List[Any]) -> bool:
            for i in lhs:
                if t[i] == UNKNOWN:
                    return False
            known = [(i, t[i]) for i in rhs if t[i] != UNKNOWN]
            if not known:
                return False
            key = key_of(t)
            for s in rows:
                if key_of(s) == key:
                    for i, b in known:
                        v = s[i]
                        if v != b and v != UNKNOWN:
                            return True
            return False

    def certain(rows: Rows) -> bool:
        # A certain violation is a pair with known-equal lhs and a rhs
        # column where both cells are known and differ; every pair goes
        # through one of its rows.
        for t in rows:
            if touch(rows, t):
                return True
        return False

    return CompiledDependency(holds, certain, touch, lhs + rhs)


def _compile_mvd(mvd: MVD, schema: RelationSchema) -> CompiledDependency:
    uni = schema.attrset
    lhs = tuple(schema.index(a) for a in sorted(mvd.lhs & uni))
    mid = tuple(schema.index(a) for a in sorted((mvd.rhs - mvd.lhs) & uni))
    rest = tuple(schema.index(a) for a in sorted(uni - mvd.lhs - mvd.rhs))
    head = lhs + mid
    witness_idx = head + rest

    def holds(rows: Rows) -> bool:
        groups: dict = {}
        for row in rows:
            key = tuple([row[i] for i in lhs])
            combo = (tuple([row[i] for i in mid]), tuple([row[i] for i in rest]))
            groups.setdefault(key, set()).add(combo)
        for combos in groups.values():
            if len(combos) == 1:
                continue
            mids = {m for m, _ in combos}
            rests = {r for _, r in combos}
            if len(combos) != len(mids) * len(rests):
                return False
        return True

    n_lhs, n_head = len(lhs), len(head)
    view = _tuple_getter(witness_idx)

    def certain(rows: Rows) -> bool:
        # For t1, t2 agreeing on lhs, the witness (lhs, mid of t1; rest of
        # t2) must be a row.  Once the witness is fully known and no row
        # can still become it (every row has a known cell that differs),
        # the MVD is violated whatever the unknown cells become.  Rows are
        # read in witness column order: lhs, mid, rest.
        views = list(map(view, rows))
        complete = set()
        partial = []
        for w in views:
            if UNKNOWN in w:
                partial.append(w)
            else:
                complete.add(w)
        for w1 in views:
            top = w1[:n_head]
            if UNKNOWN in top:
                continue  # t1's part of every witness is not pinned yet
            key = top[:n_lhs]
            for w2 in views:
                if w2[:n_lhs] != key:
                    continue
                witness = top + w2[n_head:]
                if witness in complete or UNKNOWN in witness:
                    continue
                for w in partial:
                    for a, b in zip(w, witness):
                        if a != b and a != UNKNOWN:
                            break
                    else:
                        break  # this row may still become the witness
                else:
                    return True
        return False

    def touch(rows: Rows, t: List[Any]) -> bool:
        return certain(rows)

    return CompiledDependency(holds, certain, touch, witness_idx)


def _compile_jd(jd: JD, schema: RelationSchema) -> CompiledDependency:
    comp_idx = [
        tuple(schema.index(a) for a in sorted(comp & schema.attrset))
        for comp in jd.components
    ]
    # Column order of the reassembled tuple: schema order; for each column
    # remember one component that carries it plus, for join compatibility,
    # all (component, position) pairs per attribute.
    attr_sources: Dict[str, List[Tuple[int, int]]] = {}
    for ci, comp in enumerate(jd.components):
        for pos, a in enumerate(sorted(comp & schema.attrset)):
            attr_sources.setdefault(a, []).append((ci, pos))
    col_source = [attr_sources[a][0] for a in schema.attributes]
    shared = [srcs for srcs in attr_sources.values() if len(srcs) > 1]

    def holds(rows: Rows) -> bool:
        row_set = {tuple(row) for row in rows}
        projections = [
            {tuple([row[i] for i in idx]) for row in row_set} for idx in comp_idx
        ]
        for combo in product(*projections):
            compatible = True
            for srcs in shared:
                (c0, p0) = srcs[0]
                v = combo[c0][p0]
                for c, p in srcs[1:]:
                    if combo[c][p] != v:
                        compatible = False
                        break
                if not compatible:
                    break
            if not compatible:
                continue
            joined = tuple(combo[c][p] for c, p in col_source)
            if joined not in row_set:
                return False
        return True

    return CompiledDependency(holds)


def _key_getter(idx: Tuple[int, ...]) -> Callable[[List[Any]], Any]:
    """``row -> the cells at idx`` at C speed: a scalar for one column, a
    tuple for several (consistent per dependency, so keys compare)."""
    if idx:
        return itemgetter(*idx)
    return lambda row: ()


def _tuple_getter(idx: Tuple[int, ...]) -> Callable[[List[Any]], tuple]:
    """``row -> tuple(row[i] for i in idx)``, at C speed when it can be."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return lambda row: tuple([row[i] for i in idx])


class Kernel:
    """One relational instance compiled once: its constraints and values.

    *schemas*, *rows* (per relation, in canonical order) and
    *constraints* (``relation name -> dependencies``) are the instance's.
    The kernel holds no per-world state, so one kernel serves every world
    of every thread; a grid is a list with one row array per relation,
    in schema order.
    """

    def __init__(
        self,
        schemas: Sequence[RelationSchema],
        rows: Sequence[Sequence[Sequence[Any]]],
        constraints: Mapping[str, Sequence[Any]],
    ):
        #: The instance's distinct values in ``repr`` order, and each
        #: cell's index into it: a world codes its revealed values by
        #: their rank among these.
        self.values = sorted({v for rel in rows for row in rel for v in row}, key=repr)
        rank = {v: k for k, v in enumerate(self.values)}
        self.value_ids = [[[rank[v] for v in row] for row in rel] for rel in rows]
        compiled = [
            [compile_dependency(dep, schema) for dep in constraints.get(schema.name, ())]
            for schema in schemas
        ]
        #: ``(relation index, holds)`` for every dependency.
        self.holds = [(r, c.holds) for r, deps in enumerate(compiled) for c in deps]
        #: ``(relation index, certain)`` for every dependency that prunes.
        self.certain = [
            (r, c.certain)
            for r, deps in enumerate(compiled)
            for c in deps
            if c.certain is not None
        ]
        #: ``touches[r][col]``: incremental checks an assignment to column
        #: *col* of relation *r* can trigger.
        self.touches = [
            [
                tuple(c.touch for c in deps if c.touch is not None and col in c.columns)
                for col in range(schema.arity)
            ]
            for schema, deps in zip(schemas, compiled)
        ]
        #: True when at least one dependency supports pruning.
        self.prunes = bool(self.certain)
        #: True when some incremental check rescans its whole relation
        #: (an MVD's); the pattern search memoizes those verdicts.
        self.rescans = any(
            isinstance(dep, MVD)
            for schema in schemas
            for dep in constraints.get(schema.name, ())
        )

    def satisfied(self, grid: Sequence[Rows]) -> bool:
        """Does the complete *grid* satisfy every constraint?"""
        for r, holds in self.holds:
            if not holds(grid[r]):
                return False
        return True

    def certainly_violated(self, grid: Sequence[Rows]) -> bool:
        """The full three-valued check over every pruning dependency."""
        for r, certain in self.certain:
            if certain(grid[r]):
                return True
        return False
