"""E3 — Well-designed ⟺ 4NF for FD+MVD schemas.

Same protocol as E2 with multivalued dependencies in play.  The witness
side uses the four-tuple product instance whose mixed tuples the MVD
forces; its positions must measure strictly below 1.  Monte Carlo (exact
per-world limits) is used for the 12-position witness profile — the exact
sweep is reserved for the single spot-checked position.

Expected shape: agreement on every row; witness positions < 1.
"""

from repro.core import PositionedInstance, ric, ric_montecarlo
from repro.core.welldesign import witness_instance
from repro.dependencies import FD, MVD
from repro.normalforms import is_4nf

from benchmarks.common import print_table

SCHEMAS = [
    ("independent-facts", "CTX", [], [MVD("C", "T")]),
    ("key-mvd", "ABC", [FD("A", "BC")], [MVD("A", "B")]),
    ("plain-fd-violation", "ABC", [FD("B", "C")], []),
    ("trivial-mvd", "AB", [], [MVD("A", "B")]),
]


def test_e3_table(benchmark):
    def run():
        rows = []
        for name, universe, fds, mvds in SCHEMAS:
            syntactic = is_4nf(universe, fds, mvds)
            witness = witness_instance(universe, fds, mvds)
            if witness is None:
                measured = "well-designed"
                agree = syntactic
            else:
                inst, pos = witness
                estimate = ric_montecarlo(inst, pos, samples=120, seed=0)
                measured = f"RIC({pos}) ~ {estimate.mean:.3f}"
                agree = (not syntactic) and estimate.mean < 1 - 2 * max(
                    estimate.stderr, 1e-6
                )
            rows.append((name, syntactic, measured, agree))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "E3: 4NF <=> well-designed (measured, MC with exact per-world limits)",
        ["schema", "4NF", "measured", "directions agree"],
        rows,
    )
    assert all(row[3] for row in rows)


def test_e3_exact_spot_check(benchmark):
    """One exact (non-sampled) value on the MVD witness: a 3-attr MVD
    schema instance small enough for the full sweep."""
    witness = witness_instance("CTX", [], [MVD("C", "T")])
    assert witness is not None
    inst, pos = witness

    value = benchmark.pedantic(
        lambda: ric(inst, pos), rounds=1, iterations=1
    )
    print(f"\nE3 exact witness value: RIC({pos}) = {value} ({float(value):.4f})")
    assert value < 1
