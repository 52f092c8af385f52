"""The batch runner and the ``python -m repro batch`` CLI."""

import json

import pytest

from repro.__main__ import main
from repro.service.budget import Budget
from repro.service.jobs import AdviseJob, MeasureJob, RPQJob
from repro.service.metrics import METRICS, Metrics
from repro.service.runner import BatchRunner, run_batch
from repro.service.pool import WorkerPool

THREE_JOBS = [
    '{"kind": "advise", "id": "a1", "design": "R(A,B,C); B->C"}',
    '{"kind": "measure", "id": "m1", "design": "T(A,B,C); B->C",'
    ' "rows": [[1,2,3],[4,2,3]], "position": [0, "C"],'
    ' "method": "montecarlo", "samples": 80, "seed": 7}',
    '{"kind": "rpq", "id": "r1", "edges": [["a","knows","b"],'
    ' ["b","knows","c"]], "query": "knows+", "source": "a"}',
]


def write_jobs(tmp_path, lines=THREE_JOBS):
    path = tmp_path / "jobs.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestBatchRunner:
    def test_mixed_batch_in_input_order(self):
        runner = BatchRunner(pool=WorkerPool(workers=2), metrics=Metrics())
        try:
            report = runner.run(
                [
                    AdviseJob(design="R(A,B,C); B->C", id="a"),
                    MeasureJob(
                        design="T(A,B,C); B->C",
                        rows=((1, 2, 3), (4, 2, 3)),
                        position=(0, "C"),
                        id="m",
                    ),
                    RPQJob(
                        edges=(("a", "l", "b"),), query="l", source="a", id="r"
                    ),
                ]
            )
        finally:
            runner.pool.shutdown()
        assert report["ok"] == 3 and report["failed"] == 0
        assert [entry["id"] for entry in report["results"]] == ["a", "m", "r"]
        advise_value = report["results"][0]["value"]
        assert advise_value["well_designed"] is False
        assert advise_value["witness"]["ric"]["fraction"] == "7/8"
        measure_value = report["results"][1]["value"]
        assert measure_value["method"] == "exact"
        assert measure_value["fraction"] == "7/8"
        rpq_value = report["results"][2]["value"]
        assert rpq_value["reachable"] == ["b"]

    def test_second_run_is_fully_cached(self):
        jobs = [
            AdviseJob(design="R(A,B,C); B->C"),
            MeasureJob(
                design="T(A,B,C); B->C",
                rows=((1, 2, 3), (4, 2, 3)),
                position=(0, "C"),
                method="montecarlo",
                samples=60,
            ),
        ]
        runner = BatchRunner(pool=WorkerPool(workers=2), metrics=Metrics())
        try:
            first = runner.run(jobs)
            second = runner.run(jobs)
        finally:
            runner.pool.shutdown()
        assert all(not entry["cached"] for entry in first["results"])
        assert all(entry["cached"] for entry in second["results"])
        assert second["results"] == [
            {**entry, "seconds": 0.0, "cached": True}
            for entry in first["results"]
        ]
        # The hits ran no job: each kind was executed once, by `first`.
        timers = runner.metrics.snapshot()["timers"]
        assert timers["job.advise"]["count"] == 1
        assert timers["job.measure"]["count"] == 1

    def test_job_errors_do_not_kill_the_batch(self):
        runner = BatchRunner(pool=WorkerPool(workers=2), metrics=Metrics())
        try:
            report = runner.run(
                [
                    AdviseJob(design="R(A,B,C); B->C", id="good"),
                    MeasureJob(
                        design="T(A,B); A->B",
                        rows=((1, 2),),
                        position=(5, "B"),  # no such row
                        id="bad",
                    ),
                ]
            )
        finally:
            runner.pool.shutdown()
        assert report["ok"] == 1 and report["failed"] == 1
        bad = report["results"][1]
        assert bad["ok"] is False
        assert "error" in bad

    def test_budget_exceeded_is_structured_in_results(self):
        runner = BatchRunner(
            pool=WorkerPool(workers=2),
            budget=Budget(wall_seconds=0.05, exact_max_positions=4),
            metrics=Metrics(),
        )
        try:
            report = runner.run(
                [
                    MeasureJob(
                        design="R(A,B,C); B->C",
                        rows=tuple(
                            (i, 2, 3) if i < 2 else (i, 20 + i, 30 + i)
                            for i in range(6)
                        ),
                        position=(0, "C"),
                        method="auto",
                        samples=2_000,
                    )
                ]
            )
        finally:
            runner.pool.shutdown()
        entry = report["results"][0]
        assert entry["ok"] is False
        assert entry["error"]["error"] == "budget_exceeded"
        assert ["exact", "skipped:size"] in entry["error"]["stages"]


class TestPlanOncePerJob:
    def test_each_measure_miss_is_planned_once(self, tmp_path):
        # Scheduling and execution share one plan per measure job, on
        # both the fan-out (exact) and the sharded (MC, auto) axes.
        design, rows = "T(A,B,C); B->C", [[1, 2, 3], [4, 2, 3]]
        measures = [
            {"method": "exact"},
            {"method": "montecarlo", "samples": 40, "seed": 1},
            {"method": "auto", "samples": 40},
        ]
        lines = [
            json.dumps(
                {
                    "kind": "measure",
                    "design": design,
                    "rows": rows,
                    "position": [0, "C"],
                    **options,
                }
            )
            for options in measures
        ] + [THREE_JOBS[2]]
        report = run_batch(write_jobs(tmp_path, lines), workers=2)
        assert report["ok"] == len(lines)
        assert report["metrics"]["counters"]["planner.plans"] == len(measures)


class TestBatchCLI:
    def test_three_job_smoke(self, tmp_path, capsys):
        code = main(["batch", write_jobs(tmp_path), "--workers", "2"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["jobs"] == 3 and report["failed"] == 0
        assert {entry["id"] for entry in report["results"]} == {
            "a1",
            "m1",
            "r1",
        }
        # Nonzero engine counters after a batch run (acceptance
        # criterion).  The CLI records into the process-global registry,
        # which other tests may already have fed — assert lower bounds.
        counters = report["metrics"]["counters"]
        assert counters["chase.steps"] > 0 or counters["chase.runs"] > 0
        assert counters["ric.sweeps"] > 0
        assert counters["ric.mc.samples"] >= 80

    def test_rerun_with_persistent_cache_hits_everything(self, tmp_path, capsys):
        jobs = write_jobs(tmp_path)
        cache = str(tmp_path / "cache.json")
        assert main(["batch", jobs, "--cache", cache]) == 0
        capsys.readouterr()
        assert main(["batch", jobs, "--cache", cache]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(entry["cached"] for entry in report["results"])
        assert report["cache"]["hit_rate"] == 1.0
        assert report["cache"]["misses"] == 0

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["batch", write_jobs(tmp_path), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["jobs"] == 3

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = main(["batch", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_jobs_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "advise"}\n', encoding="utf-8")
        assert main(["batch", str(path)]) == 2
        assert "error" in capsys.readouterr().err


class TestAdvisorCLIFlags:
    def test_montecarlo_method_flag(self, capsys):
        code = main(
            ["--method", "montecarlo", "--samples", "100", "--seed", "7",
             "R(A,B,C); B->C"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "RIC ≈" in out
        assert "100 samples" in out

    def test_montecarlo_is_deterministic_in_seed(self, capsys):
        args = ["--method", "montecarlo", "--samples", "60", "--seed", "3",
                "R(A,B,C); B->C"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    def test_default_method_is_exact(self, capsys):
        main(["R(A,B,C); B->C"])
        assert "7/8" in capsys.readouterr().out
