"""Possible-worlds templates: one per (position, revealed set) pair.

A :class:`World` fixes the measured position ``p`` and the revealed set
``X``.  It is a cheap view over its instance's compiled kernel
(:attr:`repro.core.positions.PositionedInstance.kernel`, built once per
instance and process): the revealed value pool, the erased positions,
and a private int grid of the instance's cells, coded as in
:mod:`repro.core.fastcheck` — revealed values ``0 … m−1`` in ``repr``
order, fresh block ``b`` as ``m + b``, a fresh candidate as
:data:`FRESH` and an unassigned cell as :data:`UNKNOWN`.  The grid is
per world, so worlds on different threads never share mutable state.

The pattern search (:mod:`repro.core.patterns`) writes labels straight
into the grid cells :attr:`World.cell_rows` / :attr:`World.cell_cols`,
asks :meth:`World.certainly_violated` after each write (incremental: only
the checks the new cell can touch), and :meth:`World.satisfies` at each
leaf.  Engines differ only in how they enumerate or count the satisfying
completions of a world.

Instances without a kernel (XML documents) supply only ``make_oracle``
over values: their worlds decode codes to values at the oracle boundary
(fresh codes become distinct :class:`FreshValue` sentinels) and never
prune.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.fastcheck import FRESH, UNKNOWN
from repro.core.positions import Position, PositionedInstance

__all__ = ["FRESH", "UNKNOWN", "FreshValue", "World"]


@dataclass(frozen=True)
class FreshValue:
    """A decoded fresh value: distinct from every concrete value.

    Generic constraints only inspect equalities, so a completion that
    uses "some value outside the revealed pool" can be handed to a
    value-level oracle as a sentinel; two sentinels with different tags
    stand for two distinct fresh values.  The tag of a fresh candidate
    is ``FRESH`` (−1), of fresh block ``b`` it is ``b``.
    """

    tag: int

    def __repr__(self) -> str:
        return f"*{self.tag}"


class World:
    """The possible-worlds template for measuring ``p`` after revealing ``X``."""

    def __init__(
        self,
        instance: PositionedInstance,
        p: Position,
        revealed: FrozenSet[Position],
    ):
        if p in revealed:
            raise ValueError("the measured position cannot be revealed")
        self.instance = instance
        self.p = p
        self.revealed = revealed = frozenset(revealed)
        kernel = getattr(instance, "kernel", None)
        if kernel is None:
            self._init_value_oracle(instance)
            return
        cells = instance.cells
        p_cell = cells[p]
        revealed_cells = [cells[q] for q in revealed]
        hidden = set(revealed_cells)
        hidden.add(p_cell)
        self.erased: List[Position] = []
        erased_cells = []
        for q, cell in cells.items():
            if cell not in hidden:
                self.erased.append(q)
                erased_cells.append(cell)
        value_ids = kernel.value_ids
        ids = sorted({value_ids[r][i][c] for r, i, c in revealed_cells})
        code = {v: k for k, v in enumerate(ids)}
        values = kernel.values
        self.fixed_values: Tuple[Any, ...] = tuple([values[v] for v in ids])
        self.grid = grid = [
            [[UNKNOWN] * len(row) for row in rel] for rel in value_ids
        ]
        for r, i, c in revealed_cells:
            grid[r][i][c] = code[value_ids[r][i][c]]
        r, i, self._cand_col = p_cell
        self._cand_row = grid[r][i]
        #: The row array and column of each erased cell, in erased order.
        self.cell_rows: List[List[int]] = [grid[r][i] for r, i, _c in erased_cells]
        self.cell_cols: List[int] = [c for _r, _i, c in erased_cells]
        self._cell_rel = [grid[r] for r, _i, _c in erased_cells]
        touches = kernel.touches
        self._cell_touch = [touches[r][c] for r, _i, c in erased_cells]
        #: True when some constraint supports certain-violation pruning.
        self.prunes = kernel.prunes
        #: True when the incremental checks rescan whole relations.
        self.rescans = kernel.rescans
        self._satisfied = kernel.satisfied
        self._certain = kernel.certainly_violated

    def _init_value_oracle(self, instance: Any) -> None:
        """The value-level path of an instance without a kernel."""
        self.erased = [
            q for q in instance.positions if q != self.p and q not in self.revealed
        ]
        self.fixed_values = tuple(
            sorted({instance.value_at(q) for q in self.revealed}, key=repr)
        )
        oracle = instance.make_oracle([self.p] + self.erased)
        row = [UNKNOWN] * (1 + len(self.erased))
        self.grid = [[row]]
        self._cand_row, self._cand_col = row, 0
        self.cell_rows = [row] * len(self.erased)
        self.cell_cols = list(range(1, len(row)))
        self.prunes = self.rescans = False
        decode = self.decode
        self._satisfied: Callable[[Any], bool] = lambda grid: oracle(
            [decode(v) for v in row]
        )

    @property
    def num_erased(self) -> int:
        """Number of erased positions (completion dimensions)."""
        return len(self.erased)

    def candidate_classes(self) -> List[int]:
        """Symmetry classes for the candidate value at ``p``, as codes.

        Each revealed value is its own class (``0 … m−1``); all values
        outside the revealed pool are interchangeable and represented by
        :data:`FRESH`.
        """
        return list(range(len(self.fixed_values))) + [FRESH]

    def decode(self, code: int) -> Any:
        """The value a cell code stands for: a revealed value, or a
        :class:`FreshValue` for a fresh candidate or block."""
        m = len(self.fixed_values)
        if 0 <= code < m:
            return self.fixed_values[code]
        if code == UNKNOWN:
            raise ValueError("an unassigned cell has no value")
        return FreshValue(FRESH if code == FRESH else code - m)

    def encode(self, values: Sequence[Any]) -> List[int]:
        """Codes for concrete *values*: a revealed value gets its code,
        every other distinct value its own fresh code ``m, m+1, …``."""
        codes = {v: k for k, v in enumerate(self.fixed_values)}
        out = []
        for v in values:
            c = codes.get(v)
            if c is None:
                c = codes[v] = len(codes)
            out.append(c)
        return out

    def begin(self, candidate: int) -> None:
        """Start a search: ``p := candidate`` and every erased cell
        :data:`UNKNOWN`."""
        self._cand_row[self._cand_col] = candidate
        for row, c in zip(self.cell_rows, self.cell_cols):
            row[c] = UNKNOWN

    def assign(self, cell: int, code: int) -> None:
        """Write *code* into erased cell number *cell*."""
        self.cell_rows[cell][self.cell_cols[cell]] = code

    def satisfies(self, candidate: int, completion: Sequence[int]) -> bool:
        """Oracle: does ``p := candidate`` plus *completion* (codes) at the
        erased positions satisfy every constraint?"""
        self._cand_row[self._cand_col] = candidate
        for row, c, v in zip(self.cell_rows, self.cell_cols, completion):
            row[c] = v
        return self._satisfied(self.grid)

    def certainly_violated(self, cell: Optional[int] = None) -> bool:
        """Sound pruning test on the current grid: is some constraint
        violated however its :data:`UNKNOWN` cells are filled?

        With *cell* (an erased-cell number) the test is incremental: it
        assumes the grid was not certainly violated before *cell* was
        assigned and runs only the checks that cell's column can touch.
        Without it, every pruning check runs in full.  Always ``False``
        when no constraint prunes.
        """
        if not self.prunes:
            return False
        if cell is None:
            return self._certain(self.grid)
        rows = self._cell_rel[cell]
        t = self.cell_rows[cell]
        for touch in self._cell_touch[cell]:
            if touch(rows, t):
                return True
        return False
