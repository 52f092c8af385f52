"""Information-theoretic gains of normalization.

The paper justifies normalization algorithms by showing decomposition
steps never *lose* information content.  This module makes that claim
measurable: project an instance onto a decomposition's fragments, position
both sides, and compare ``RIC`` statistics before and after.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Sequence

from repro.core.measure import ric_profile
from repro.core.positions import PositionedInstance
from repro.normalforms.fragment import Fragment
from repro.relational.algebra import project
from repro.relational.relation import DatabaseInstance, Relation


def decompose_instance(
    relation: Relation, fragments: Sequence[Fragment]
) -> DatabaseInstance:
    """Project *relation* onto each fragment's attributes."""
    return DatabaseInstance(
        [project(relation, frag.attributes, name=frag.name) for frag in fragments]
    )


@dataclass(frozen=True)
class GainReport:
    """``RIC`` statistics before and after a decomposition."""

    before_min: Fraction
    before_avg: Fraction
    after_min: Fraction
    after_avg: Fraction
    positions_before: int
    positions_after: int

    @property
    def min_gain(self) -> Fraction:
        """Increase of the worst-case information content."""
        return self.after_min - self.before_min

    @property
    def avg_gain(self) -> Fraction:
        """Increase of the average information content."""
        return self.after_avg - self.before_avg

    def __str__(self) -> str:
        return (
            f"min RIC {float(self.before_min):.4f} -> {float(self.after_min):.4f}, "
            f"avg RIC {float(self.before_avg):.4f} -> {float(self.after_avg):.4f} "
            f"({self.positions_before} -> {self.positions_after} positions)"
        )


def _profile_stats(instance: PositionedInstance):
    profile = ric_profile(instance)
    values = list(profile.values())
    total = sum(values, Fraction(0))
    return min(values), total / len(values)


def normalization_gain(
    relation: Relation,
    dependencies: Iterable,
    fragments: Sequence[Fragment],
) -> GainReport:
    """Measure ``RIC`` before/after decomposing *relation* into *fragments*.

    The original instance is positioned with *dependencies*; each fragment
    instance is positioned with the fragment's own projected dependencies.
    """
    before = PositionedInstance.from_relation(relation, list(dependencies))
    before_min, before_avg = _profile_stats(before)

    decomposed = decompose_instance(relation, fragments)
    after_values: List[Fraction] = []
    for frag in fragments:
        frag_instance = PositionedInstance.from_relation(
            decomposed[frag.name], list(frag.fds) + list(frag.mvds)
        )
        after_values.extend(ric_profile(frag_instance).values())

    after_min = min(after_values)
    after_avg = sum(after_values, Fraction(0)) / len(after_values)
    return GainReport(
        before_min=before_min,
        before_avg=before_avg,
        after_min=after_min,
        after_avg=after_avg,
        positions_before=len(before.positions),
        positions_after=len(after_values),
    )
