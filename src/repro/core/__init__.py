"""The information-theoretic measure of Arenas & Libkin (PODS 2003).

This package is the primary contribution of the reproduced paper: an
executable definition of *how much information a position in a database
instance carries*, given the schema constraints.

Quick tour
----------

>>> from repro.relational import Relation, RelationSchema
>>> from repro.dependencies import FD
>>> from repro.core import PositionedInstance, ric
>>> schema = RelationSchema("R", ("A", "B", "C"))
>>> inst = PositionedInstance.from_relation(
...     Relation(schema, [(1, 2, 3), (1, 2, 4)]), [FD("A", "B")])
>>> pos = inst.position("R", 0, "B")     # the duplicated B value
>>> float(ric(inst, pos)) < 1.0          # redundant -> less than full info
True

The measure: for domain size ``k``, reveal a uniformly random subset ``X``
of the other positions, erase the rest, and consider all ``Σ``-satisfying
completions over ``[k]``; the entropy of the induced distribution on the
value at ``p``, averaged over ``X`` and normalized by ``log2 k``, tends to
the **relative information content** ``RIC ∈ [0, 1]`` as ``k → ∞``.
``RIC = 1`` everywhere characterizes well-designed schemas (BCNF for FDs,
4NF for FDs+MVDs, XNF for XML).

Engines
-------
- :func:`repro.core.bruteforce.inf_k_bruteforce` — literal enumeration
  (ground truth for tiny cases).
- :func:`repro.core.symbolic.inf_k_symbolic` /
  :func:`repro.core.symbolic.ric_exact` — equality-pattern counting; exact
  polynomial-in-``k`` counts and the exact rational limit.
- :func:`repro.core.montecarlo.ric_montecarlo` — sampled ``X`` with exact
  per-``X`` limits; scales to larger instances.

:func:`ric`, :func:`ric_profile` and :func:`inf_k` always run the exact
engine for their quantity.  Choosing an engine by method name, with
fallbacks under a budget, is the planner's job (:mod:`repro.engine`).
"""

from repro.core.positions import Position, PositionedInstance
from repro.core.bruteforce import inf_k_bruteforce
from repro.core.symbolic import EXACT_MAX_POSITIONS, inf_k_symbolic, ric_exact
from repro.core.montecarlo import MCEstimate, ric_montecarlo
from repro.core.measure import inf_k, ric, ric_profile
from repro.core.welldesign import (
    is_well_designed_theory,
    min_ric,
    redundant_positions,
    witness_instance,
)
from repro.core.gains import decompose_instance, normalization_gain

__all__ = [
    "EXACT_MAX_POSITIONS",
    "Position",
    "PositionedInstance",
    "inf_k_bruteforce",
    "inf_k_symbolic",
    "ric_exact",
    "ric_montecarlo",
    "MCEstimate",
    "inf_k",
    "ric",
    "ric_profile",
    "is_well_designed_theory",
    "redundant_positions",
    "min_ric",
    "witness_instance",
    "decompose_instance",
    "normalization_gain",
]
