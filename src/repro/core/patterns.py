"""Equality-pattern enumeration for the symbolic engine.

FDs, MVDs, JDs and XFDs are *generic*: satisfaction is invariant under
permutations of the domain.  Hence, for a fixed world and candidate class,
the set of satisfying completions over ``[k]`` splits into equality
patterns: each erased position is labeled either with one of the fixed
values (revealed pool ∪ candidate) or with one of ``b`` pairwise-distinct
fresh values.  A pattern with ``b`` fresh blocks accounts for exactly
``(k−m)(k−m−1)⋯(k−m−b+1)`` completions, where ``m`` is the number of
distinct fixed values — so satisfying-completion counts are polynomials in
``k`` and the ``k → ∞`` limit of the entropy ratio is computable exactly.

Labels are the world's int cell codes (:mod:`repro.core.fastcheck`):
revealed values ``0 … m−1``, a fresh candidate ``FRESH``, fresh block
``b`` as ``m + b``.  Two enumerators:

- :func:`pattern_counts` — all satisfying patterns grouped by ``b``
  (exact finite-``k`` counts; cost grows like an augmented Bell number of
  the erased-position count, so it is guarded).
- :func:`max_fresh` — only the maximum ``b`` and how many patterns attain
  it (the leading term of the polynomial; branch-and-bound pruned, fast in
  the common all-fresh-satisfiable case).  It writes each label into the
  world's grid, asks the world's incremental certain-violation test about
  that one cell, and restores the cell to ``UNKNOWN`` on backtrack.

Both take the stage *deadline* and call
:func:`repro.service.budget.check_deadline` on their first search node
and every :data:`DEADLINE_EVERY` nodes after it, so a stage overshoots
its budget by a bounded slice of one world, not by the whole world.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.worlds import FRESH, UNKNOWN, World

#: Search nodes between two deadline checks inside one world.
DEADLINE_EVERY = 256


class PatternBudgetExceeded(RuntimeError):
    """Raised when pattern enumeration would exceed the configured budget."""


def _deadline_check(deadline: Optional[float]) -> Callable[[], None]:
    """``check_deadline(deadline)`` as a thunk; a no-op without a deadline
    (the budget module imports this package, so it is imported late)."""
    if deadline is None:
        return lambda: None
    from repro.service.budget import check_deadline

    return lambda: check_deadline(deadline)


def _fixed_labels(world: World, candidate: int) -> List[int]:
    """The non-fresh labels an erased cell can take: the revealed codes,
    plus the candidate itself when it is fresh."""
    labels = list(range(len(world.fixed_values)))
    if candidate == FRESH:
        labels.append(FRESH)
    return labels


def pattern_counts(
    world: World,
    candidate: int,
    max_leaves: int = 2_000_000,
    deadline: Optional[float] = None,
) -> Dict[int, int]:
    """Count satisfying patterns by number of fresh blocks.

    Returns ``{b: count}`` for the given candidate class.  *max_leaves*
    bounds the number of leaf oracle calls (raises
    :class:`PatternBudgetExceeded` beyond it).
    """
    check_deadline = _deadline_check(deadline)
    fixed_labels = _fixed_labels(world, candidate)
    m = len(world.fixed_values)
    erased = world.num_erased
    assignment: List[int] = [UNKNOWN] * erased
    counts: Dict[int, int] = {}
    leaves = 0
    nodes = 0

    def recurse(i: int, blocks: int) -> None:
        nonlocal leaves, nodes
        if not nodes % DEADLINE_EVERY:
            check_deadline()
        nodes += 1
        if i == erased:
            leaves += 1
            if leaves > max_leaves:
                raise PatternBudgetExceeded(
                    f"more than {max_leaves} patterns for world "
                    f"(erased={erased})"
                )
            if world.satisfies(candidate, assignment):
                counts[blocks] = counts.get(blocks, 0) + 1
            return
        for label in fixed_labels:
            assignment[i] = label
            recurse(i + 1, blocks)
        for label in range(m, m + blocks):
            assignment[i] = label
            recurse(i + 1, blocks)
        assignment[i] = m + blocks
        recurse(i + 1, blocks + 1)
        assignment[i] = UNKNOWN

    recurse(0, 0)
    return counts


def max_fresh(
    world: World,
    candidate: int,
    prune: bool = True,
    deadline: Optional[float] = None,
) -> Optional[Tuple[int, int]]:
    """The leading term of the satisfying-pattern polynomial.

    Returns ``(d, c)``: the maximum number of fresh blocks ``d`` over
    satisfying patterns and the number ``c`` of patterns attaining it, or
    ``None`` if no pattern satisfies the constraints.

    Iterative deepening on the *deficit* (number of erased positions not
    opening a fresh block): a pattern with deficit ``δ`` has
    ``b = erased − δ`` fresh blocks, and constraint forcing pins only a
    few cells in practice, so the search is exponential in ``δ`` only.
    Deficit 0 is the all-distinct completion — a single oracle call in the
    common well-designed case.

    ``prune=False`` disables the certain-violation subtree pruning — kept
    only for the ablation benchmark (``bench_a01``) and the kernel's
    property tests; results must be identical either way.
    """
    check_deadline = _deadline_check(deadline)
    fixed_labels = _fixed_labels(world, candidate)
    m = len(world.fixed_values)
    erased = world.num_erased
    rows, cols = world.cell_rows, world.cell_cols
    assignment: List[int] = [UNKNOWN] * erased
    world.begin(candidate)
    prune = prune and world.prunes
    nodes = 0

    check_deadline()
    if prune and world.certainly_violated():
        return None  # violated whatever the completion: dead class

    certainly_violated = world.certainly_violated
    if prune and world.rescans:
        # An MVD's check rescans the whole relation, and the deepening
        # rounds revisit identical prefixes: memoize its verdict per
        # prefix (it depends on the assigned prefix only).
        memo: Dict[tuple, bool] = {}
        check = certainly_violated

        def certainly_violated(i: int) -> bool:
            key = tuple(assignment[: i + 1])
            verdict = memo.get(key)
            if verdict is None:
                verdict = memo[key] = check(i)
            return verdict

    found = 0
    budget = 0  # the deficit of the current deepening round

    def recurse(i: int, blocks: int, spent: int) -> None:
        nonlocal found, nodes
        nodes += 1
        if not nodes % DEADLINE_EVERY:
            check_deadline()
        if i == erased:
            if spent == budget and world.satisfies(candidate, assignment):
                found += 1
            return
        row, c = rows[i], cols[i]
        # New fresh block: free.
        label = m + blocks
        row[c] = assignment[i] = label
        if not (prune and certainly_violated(i)):
            recurse(i + 1, blocks + 1, spent)
        # Reusing a block or taking a fixed label costs one deficit;
        # skip when the budget cannot be met exactly anyway.  Patterns
        # that underspend are produced by smaller budgets, so the leaf
        # requires spent == budget — no double counting across rounds.
        if spent < budget:
            for label in range(m, m + blocks):
                row[c] = assignment[i] = label
                if not (prune and certainly_violated(i)):
                    recurse(i + 1, blocks, spent + 1)
            for label in fixed_labels:
                row[c] = assignment[i] = label
                if not (prune and certainly_violated(i)):
                    recurse(i + 1, blocks, spent + 1)
        row[c] = assignment[i] = UNKNOWN

    for budget in range(erased + 1):
        recurse(0, 0, 0)
        if found:
            return erased - budget, found
    return None
