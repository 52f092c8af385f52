"""The benchmark's own test: inputs, references and exact call counts.

Run from the repository root (about four minutes)::

    python3 -m pytest ricbench/test_ricbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402


def run(workload, seed, trace, seconds=2, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "ricbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(done):
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def materialized(workload, seed, rounds=2):
    cat = gen.catalog()
    return [
        [[gen.job(item, cat) for item in request] for request in requests]
        for requests in gen.build(workload, seed, rounds, cat)
    ]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_inputs_new_seed_same_size_classes(workload):
    first = json.dumps(materialized(workload, 5))
    assert first == json.dumps(materialized(workload, 5))
    other = materialized(workload, 6)
    assert json.dumps(other) != first

    def classes(rounds):
        return Counter(
            (job["kind"], job.get("method"), len(job.get("rows", [])), len(job.get("edges", [])))
            for requests in rounds for request in requests for job in request
        )

    # The first round of service-mix repeats what little history it has.
    assert classes(json.loads(first)[1:]) == classes(other[1:])
    assert set(classes(json.loads(first))) == set(classes(other))


def test_catalog_satisfies_sigma_and_matches_references():
    cat = gen.catalog()
    refs = checks.load_refs(cat)  # raises on a stale entry
    for eid, entry in cat.items():
        if "rows" in entry:
            shape = gen.CLASSES[eid.split("/")[0]]
            deps = [d for d in entry["design"].split("; ")[1:]]
            assert len(entry["rows"]) == shape.rows
            assert deps, eid
        if entry.get("theory") and "exact" in refs.get(eid, {}):
            assert Fraction(refs[eid]["exact"]["fraction"]) == Fraction(entry["theory"])


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_traced_runs_are_correct_and_counts_repeat_exactly(workload):
    first = last_json(run(workload, 3, trace=1))
    second = last_json(run(workload, 3, trace=1))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(layers.UNITS)
    for name in layers.EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = last_json(run(workload, 4, trace=0, seconds=1))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in bench_spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_mvd_witness_matches_theory():
    """The 12-position MVD witness: 10049/12288 (about 20 s)."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.service.runner import run_batch

    entry = gen.make_entry("mvd12", 0)
    item = gen.Item("w", "mvd12/0", "exact", variant=7)
    path = HERE / ".work" / "witness.jsonl"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(gen.job(item, {"mvd12/0": entry})) + "\n")
    try:
        report = run_batch(str(path), workers=2)
    finally:
        path.unlink()
    assert Fraction(report["results"][0]["value"]["fraction"]) == Fraction(entry["theory"])


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "ricbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run("exact-sweep", 1, trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
