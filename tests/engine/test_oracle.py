"""Cross-engine oracle: every engine agrees with its ground truth.

Brute-force enumeration is the paper-literal definition for finite
``k``; the symbolic engine must match it exactly on every small
instance.  The planner must hand back values **bit-identical** to the
direct core calls of PRs 1–3 — it adds selection, never perturbation.
"""

import pytest

from repro.core import PositionedInstance
from repro.core.bruteforce import inf_k_bruteforce
from repro.core.montecarlo import ric_montecarlo
from repro.core.symbolic import ric_exact
from repro.dependencies import FD, MVD
from repro.engine import Problem, plan_and_run
from repro.relational import Relation, RelationSchema
from repro.service.pool import WorkerPool

#: Values stay within [1, 3] — brute force enumerates completions over
#: the domain ``1..k``, so instance values must fit in the smallest k.
SMALL_INSTANCES = [
    # (label, schema attrs, deps, rows, position attr)
    ("fd", ("A", "B", "C"), [FD("B", "C")], [(1, 2, 3), (3, 2, 3)], "C"),
    ("key", ("A", "B"), [FD("A", "B")], [(1, 2), (2, 1)], "B"),
    (
        "mvd",
        ("A", "B", "C"),
        [MVD("A", "B")],
        [(1, 2, 3), (1, 3, 2)],
        "B",
    ),
]


def build(attrs, deps, rows) -> PositionedInstance:
    schema = RelationSchema("R", attrs)
    return PositionedInstance.from_relation(Relation(schema, rows), deps)


@pytest.mark.parametrize(
    "label,attrs,deps,rows,attr",
    SMALL_INSTANCES,
    ids=[case[0] for case in SMALL_INSTANCES],
)
class TestCrossEngine:
    @pytest.mark.parametrize("k", [3, 4])
    def test_symbolic_matches_bruteforce(
        self, label, attrs, deps, rows, attr, k
    ):
        inst = build(attrs, deps, rows)
        p = inst.position("R", 0, attr)
        symbolic = plan_and_run(
            Problem(inst, p, op="inf_k", method="symbolic", k=k)
        )
        assert symbolic.engine == "symbolic"
        assert symbolic.value == pytest.approx(
            inf_k_bruteforce(inst, p, k), abs=1e-12
        )

    def test_bruteforce_engine_matches_direct_call(
        self, label, attrs, deps, rows, attr
    ):
        inst = build(attrs, deps, rows)
        p = inst.position("R", 0, attr)
        result = plan_and_run(
            Problem(inst, p, op="inf_k", method="bruteforce", k=3)
        )
        assert result.engine == "bruteforce"
        assert result.value == inf_k_bruteforce(inst, p, 3)

    def test_planner_exact_is_bit_identical_to_ric_exact(
        self, label, attrs, deps, rows, attr
    ):
        inst = build(attrs, deps, rows)
        p = inst.position("R", 0, attr)
        result = plan_and_run(Problem(inst, p, method="exact"))
        assert result.value == ric_exact(inst, p)


class TestMonteCarloBitIdentity:
    def test_planner_mc_equals_the_direct_estimator(self):
        inst = build(("A", "B", "C"), [FD("B", "C")], [(1, 2, 3), (4, 2, 3)])
        p = inst.position("R", 0, "C")
        for samples, seed in [(50, 0), (80, 7), (128, 42)]:
            direct = ric_montecarlo(inst, p, samples=samples, seed=seed)
            planned = plan_and_run(
                Problem(
                    inst, p, method="montecarlo", samples=samples, seed=seed
                )
            )
            assert planned.value == direct  # mean, stderr, samples

    def test_sharded_mc_equals_the_single_threaded_estimator(self):
        # The pool shards the sample range; the counter-based sampler
        # makes the merged estimate independent of the chunking.
        inst = build(("A", "B", "C"), [FD("B", "C")], [(1, 2, 3), (4, 2, 3)])
        p = inst.position("R", 0, "C")
        prob = Problem(inst, p, method="montecarlo", samples=80, seed=7)
        pool = WorkerPool(workers=3)
        try:
            sharded = plan_and_run(prob, pool=pool)
        finally:
            pool.shutdown()
        assert sharded.value == ric_montecarlo(inst, p, samples=80, seed=7)
