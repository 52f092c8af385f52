"""Tests for the compiled dependency checks (hot path of the engines).

The compiled closures must agree with the reference ``is_satisfied_by``
methods on every instance — checked exhaustively on small value grids and
under Hypothesis.  Three-valued cases use the kernel's int cell coding:
``UNKNOWN`` marks an unassigned cell.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fastcheck import UNKNOWN, Kernel, compile_dependency
from repro.dependencies.fd import FD
from repro.dependencies.jd import JD
from repro.dependencies.mvd import MVD
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema

SCHEMA = RelationSchema("R", ("A", "B", "C"))

rows3 = st.lists(
    st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2)),
    min_size=1,
    max_size=5,
)

DEPS = [
    FD("A", "B"),
    FD("AB", "C"),
    MVD("A", "B"),
    MVD("B", "AC"),
    JD("AB", "AC"),
    JD("AB", "BC", "CA"),
]


class TestCompiledAgreesWithReference:
    @settings(max_examples=40, deadline=None)
    @given(rows3, st.sampled_from(DEPS))
    def test_agreement(self, rows, dep):
        relation = Relation(SCHEMA, rows)
        mutable = [list(r) for r in relation.sorted_rows()]
        holds = compile_dependency(dep, SCHEMA).holds
        assert holds(mutable) == dep.is_satisfied_by(relation)

    def test_check_sees_mutations(self):
        mutable = [[1, 2, 3], [1, 9, 3]]
        holds = compile_dependency(FD("A", "B"), SCHEMA).holds
        assert not holds(mutable)
        mutable[1][1] = 2
        assert holds(mutable)

    def test_unsupported_dependency_rejected(self):
        with pytest.raises(TypeError):
            compile_dependency(object(), SCHEMA)


class TestCertainViolation:
    @staticmethod
    def certain(dep, rows):
        """The kernel's full three-valued check on one relation."""
        kernel = Kernel([SCHEMA], [[]], {"R": [dep]})
        return kernel.certainly_violated([rows])

    def test_fd_concrete_violation_is_certain(self):
        rows = [[1, 2, 3], [1, 9, 3]]
        assert self.certain(FD("A", "B"), rows)

    def test_fd_unknown_masks_violation(self):
        rows = [[1, UNKNOWN, 3], [1, 9, 3]]
        assert not self.certain(FD("A", "B"), rows)

    def test_fd_unknown_in_lhs_masks(self):
        rows = [[UNKNOWN, 2, 3], [1, 9, 3]]
        assert not self.certain(FD("A", "B"), rows)

    def test_fd_third_row_violation_found(self):
        # Row 0's rhs is unknown but rows 1 and 2 certainly clash.
        rows = [[1, UNKNOWN, 0], [1, 5, 0], [1, 6, 0]]
        assert self.certain(FD("A", "B"), rows)

    def test_mvd_missing_pinned_witness_is_certain(self):
        # Rows agree on A; the required witness (1, 2, 6) cannot be any
        # row: all cells concrete and no row compatible.
        rows = [[1, 2, 3], [1, 5, 6], [1, 9, 9], [1, 8, 8]]
        assert self.certain(MVD("A", "B"), rows)

    def test_mvd_unknown_witness_cell_not_certain(self):
        # The (t1=row0, t2=row1) witness (1,2,?) is not pinned, and the
        # (t1=row1, t2=row0) witness (1,5,3) is matched by row1 itself
        # via its unknown C — no certain violation either way.
        rows = [[1, 2, 3], [1, 5, UNKNOWN]]
        assert not self.certain(MVD("A", "B"), rows)

    def test_mvd_compatible_row_with_unknowns_not_certain(self):
        rows = [[1, 2, 3], [1, 5, 6], [1, UNKNOWN, UNKNOWN], [1, 8, 8]]
        assert not self.certain(MVD("A", "B"), rows)

    def test_jd_never_prunes(self):
        rows = [[1, 2, 3]]
        assert not self.certain(JD("AB", "AC"), rows)
        assert compile_dependency(JD("AB", "AC"), SCHEMA).certain is None
        assert not Kernel([SCHEMA], [[]], {"R": [JD("AB", "AC")]}).prunes

    @settings(max_examples=40, deadline=None)
    @given(rows3, st.sampled_from(DEPS))
    def test_soundness_on_concrete_rows(self, rows, dep):
        """With no unknowns, 'certainly violated' must equal 'violated'
        for FDs/MVDs (JDs opt out of pruning)."""
        relation = Relation(SCHEMA, rows)
        mutable = [list(r) for r in relation.sorted_rows()]
        certain = self.certain(dep, mutable)
        actual = not dep.is_satisfied_by(relation)
        if isinstance(dep, JD):
            assert certain is False
        else:
            assert certain == actual
