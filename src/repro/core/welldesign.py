"""Well-designedness: theory-side tests and measured witnesses.

The paper's headline theorems identify "well-designed" (``RIC ≡ 1`` over
all instances and positions) with syntactic normal forms:

- FDs only: well-designed ⟺ BCNF;
- FDs + MVDs: well-designed ⟺ 4NF;
- with JDs neither PJ/NF nor 5NFR coincides with it (PJ/NF is sufficient).

:func:`is_well_designed_theory` applies the appropriate characterization.
The measured side: :func:`witness_instance` constructs, for a violating FD
or MVD, the canonical instance on which some position provably scores
``RIC < 1`` — experiments E2/E3 confirm this with the exact engine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional, Tuple

from repro.core.measure import ric_profile
from repro.core.positions import Position, PositionedInstance
from repro.dependencies.fd import FD
from repro.dependencies.mvd import MVD
from repro.normalforms.checks import find_4nf_violation, is_4nf, is_bcnf
from repro.normalforms.bcnf import find_bcnf_violation
from repro.relational.attributes import AttrsLike, attrset
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema


def is_well_designed_theory(
    universe: AttrsLike,
    fds: Iterable[FD] = (),
    mvds: Iterable[MVD] = (),
) -> bool:
    """Whether ``(universe, fds ∪ mvds)`` is well-designed, by the paper's
    characterizations (BCNF for FD-only sets, 4NF otherwise)."""
    fds, mvds = list(fds), list(mvds)
    if not mvds:
        return is_bcnf(universe, fds)
    return is_4nf(universe, fds, mvds)


def witness_instance(
    universe: AttrsLike,
    fds: Iterable[FD] = (),
    mvds: Iterable[MVD] = (),
) -> Optional[Tuple[PositionedInstance, Position]]:
    """A (instance, position) pair witnessing ``RIC < 1`` for a schema that
    is not well-designed, or ``None`` when it is.

    The construction follows the paper's proofs: a violating FD ``X → Y``
    yields two tuples agreeing on ``X ∪ Y`` and fresh elsewhere (the
    duplicated ``Y`` value is redundant); a violating MVD ``X ↠ Y`` yields
    the four-tuple product instance whose "mixed" tuples are forced.
    """
    uni = attrset(universe)
    fds, mvds = list(fds), list(mvds)
    cols = tuple(sorted(uni))
    schema = RelationSchema("R", cols)

    fd_violation = find_bcnf_violation(uni, fds)
    mvd_violation = (
        find_4nf_violation(uni, fds, mvds) if mvds or fd_violation is None else None
    )

    if fd_violation is not None:
        x, y = fd_violation.lhs, fd_violation.rhs - fd_violation.lhs
        counter = [0]

        def fresh() -> int:
            counter[0] += 1
            return counter[0]

        shared = {a: fresh() for a in sorted(x | y)}
        row1 = tuple(shared[a] if a in x | y else fresh() for a in cols)
        row2 = tuple(shared[a] if a in x | y else fresh() for a in cols)
        relation = Relation(schema, [row1, row2])
        instance = PositionedInstance.from_relation(relation, fds + mvds)
        target_attr = sorted(y)[0]
        pos = instance.position("R", 0, target_attr)
        return instance, pos

    if mvd_violation is not None:
        x = mvd_violation.lhs
        y = (mvd_violation.rhs - mvd_violation.lhs) & uni
        z = uni - mvd_violation.lhs - mvd_violation.rhs
        counter = [0]

        def fresh() -> int:
            counter[0] += 1
            return counter[0]

        xvals = {a: fresh() for a in sorted(x)}
        y1 = {a: fresh() for a in sorted(y)}
        y2 = {a: fresh() for a in sorted(y)}
        z1 = {a: fresh() for a in sorted(z)}
        z2 = {a: fresh() for a in sorted(z)}

        def row(yv, zv):
            merged = {**xvals, **yv, **zv}
            return tuple(merged[a] for a in cols)

        relation = Relation(schema, [row(y1, z1), row(y2, z2), row(y1, z2), row(y2, z1)])
        instance = PositionedInstance.from_relation(relation, fds + mvds)
        # The "mixed" tuple (y1, z2) is forced by the MVD given the others;
        # its Y-position carries redundant information.
        rows_sorted = list(
            Relation(schema, relation.rows).sorted_rows()
        )
        mixed = row(y1, z2)
        idx = rows_sorted.index(mixed)
        target_attr = sorted(y)[0] if y else sorted(z)[0]
        pos = instance.position("R", idx, target_attr)
        return instance, pos

    return None


def redundant_positions(instance: PositionedInstance) -> List[Position]:
    """Positions whose ``RIC`` falls strictly below 1."""
    profile = ric_profile(instance)
    return [p for p, value in profile.items() if float(value) < 1.0]


def min_ric(instance: PositionedInstance) -> Fraction:
    """The smallest ``RIC`` over all positions."""
    return min(ric_profile(instance).values(), key=float)
