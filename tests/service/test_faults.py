"""The fault-injection harness: determinism, every kind, recovery paths."""

import json

import pytest

from repro.__main__ import main
from repro.service.cache import ResultCache
from repro.service.errors import KINDS
from repro.service.faults import (
    FAULTS,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    fault_injection,
    parse_fault_spec,
    parse_fault_specs,
)
from repro.service.jobs import AdviseJob, MeasureJob, parse_jsonl_lenient
from repro.service.metrics import FAULTS_INJECTED, METRICS, RETRIES
from repro.service.pool import WorkerPool
from repro.service.retry import RetryPolicy
from repro.service.runner import BatchRunner

JOBS_JSONL = "\n".join(
    [
        '{"kind": "advise", "id": "a1", "design": "R(A,B,C); B->C"}',
        '{"kind": "measure", "id": "m1", "design": "T(A,B,C); B->C",'
        ' "rows": [[1,2,3],[4,2,3]], "position": [0, "C"],'
        ' "method": "montecarlo", "samples": 80, "seed": 7}',
        '{"kind": "rpq", "id": "r1", "edges": [["a","knows","b"],'
        ' ["b","knows","c"]], "query": "knows+", "source": "a"}',
    ]
)


class TestSpecs:
    def test_parse_single_spec(self):
        assert parse_fault_spec("worker_crash:0.2:7") == FaultSpec(
            "worker_crash", 0.2, 7
        )
        assert parse_fault_spec("parse:0.5") == FaultSpec("parse", 0.5, 0)

    def test_parse_spec_list(self):
        specs = parse_fault_specs("worker_crash:0.2:7, cache_corrupt:0.1")
        assert specs == (
            FaultSpec("worker_crash", 0.2, 7),
            FaultSpec("cache_corrupt", 0.1, 0),
        )
        assert parse_fault_specs("") == ()
        assert parse_fault_specs(None) == ()

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            parse_fault_spec("nonsense:0.5")
        with pytest.raises(ValueError):
            parse_fault_spec("worker_crash")
        with pytest.raises(ValueError):
            parse_fault_spec("worker_crash:1.5")
        with pytest.raises(ValueError):
            parse_fault_spec("worker_crash:x:y")


class TestDeterminism:
    def test_same_plan_same_faults(self):
        def roll(injector):
            fired = []
            for token in range(50):
                try:
                    injector.maybe_raise("chunk", str(token))
                except InjectedFault:
                    fired.append(token)
            return fired

        a = FaultInjector([FaultSpec("worker_crash", 0.3, 11)])
        b = FaultInjector([FaultSpec("worker_crash", 0.3, 11)])
        assert roll(a) == roll(b)
        assert roll(FaultInjector([FaultSpec("worker_crash", 0.3, 12)])) != (
            roll(FaultInjector([FaultSpec("worker_crash", 0.3, 11)]))
        )

    def test_rate_zero_never_one_always(self):
        never = FaultInjector([FaultSpec("worker_crash", 0.0, 1)])
        never.maybe_raise("chunk", "t")  # no raise
        always = FaultInjector([FaultSpec("worker_crash", 1.0, 1)])
        with pytest.raises(InjectedFault):
            always.maybe_raise("chunk", "t")

    def test_call_counter_gives_retries_fresh_dice(self):
        injector = FaultInjector([FaultSpec("worker_crash", 1.0, 1)])
        with pytest.raises(InjectedFault) as first:
            injector.maybe_raise("chunk", "t")
        with pytest.raises(InjectedFault) as second:
            injector.maybe_raise("chunk", "t")
        assert first.value.details["call"] == 0
        assert second.value.details["call"] == 1

    def test_inactive_injector_is_a_noop(self):
        injector = FaultInjector()
        assert not injector.active
        injector.maybe_raise("chunk", "t")

    def test_context_manager_restores_previous_plans(self):
        before = FAULTS.specs()
        with fault_injection("internal:1.0:3"):
            assert any(s.kind == "internal" for s in FAULTS.specs())
        assert FAULTS.specs() == before


class TestEveryKindInjects:
    """Each taxonomy kind fires at its site and surfaces as a typed,
    JSON-shaped error — the recovery paths are exercised, not assumed."""

    def test_kind_coverage_of_sites(self):
        from repro.service.faults import SITE_KINDS

        covered = {kind for kinds in SITE_KINDS.values() for kind in kinds}
        assert covered == set(KINDS)

    def run_one_advise(self, retry=None):
        runner = BatchRunner(
            pool=WorkerPool(workers=2, retry=retry), retry=retry
        )
        try:
            return runner.run([AdviseJob(design="R(A,B,C); B->C", id="a")])
        finally:
            runner.pool.shutdown()

    def assert_typed_error(self, entry, kind):
        assert entry["ok"] is False
        error = entry["error"]
        assert error["kind"] == kind
        assert error["error"] == "injected_fault"
        assert isinstance(error["message"], str)
        json.dumps(error)

    def test_internal_fault_at_job_site(self):
        METRICS.reset()
        with fault_injection("internal:1.0:5"):
            report = self.run_one_advise()
        self.assert_typed_error(report["results"][0], "internal")

    def test_budget_fault_at_job_site(self):
        METRICS.reset()
        with fault_injection("budget:1.0:5"):
            report = self.run_one_advise()
        self.assert_typed_error(report["results"][0], "budget")

    def test_worker_crash_at_job_site_recovers_by_retry(self):
        METRICS.reset()
        # Rate 0.6: some attempts fail, some succeed — deterministic.
        retry = RetryPolicy(max_attempts=8, base_delay=0.0)
        with fault_injection("worker_crash:0.6:5"):
            report = self.run_one_advise(retry=retry)
        entry = report["results"][0]
        assert entry["ok"] is True
        # Every injected crash cost exactly one retry.
        assert METRICS.get(RETRIES) == METRICS.get(FAULTS_INJECTED) >= 1

    def test_parse_and_validation_faults_at_parse_site(self):
        for kind in ("parse", "validation"):
            with fault_injection(f"{kind}:1.0:5"):
                records = parse_jsonl_lenient(
                    '{"kind": "advise", "design": "R(A,B); A->B"}'
                )
            (lineno, job, error) = records[0]
            assert job is None and lineno == 1
            assert error.kind == kind
            payload = error.to_dict()
            assert payload["kind"] == kind
            assert payload["error"] == "injected_fault"

    def test_cache_corrupt_fault_degrades_to_miss(self):
        METRICS.reset()
        with fault_injection("cache_corrupt:1.0:5"):
            runner = BatchRunner(pool=WorkerPool(workers=2))
            try:
                report = runner.run(
                    [AdviseJob(design="R(A,B,C); B->C", id="a")]
                )
            finally:
                runner.pool.shutdown()
        # Both the read and the write failed, yet the job succeeded.
        assert report["results"][0]["ok"] is True
        assert METRICS.get("cache.read_errors") == 1
        assert METRICS.get("cache.write_errors") == 1
        assert METRICS.get(FAULTS_INJECTED) == 2

    def test_cache_corrupt_fault_quarantines_on_load(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = ResultCache()
        cache.put("k", {"v": 1})
        cache.save(path)
        with fault_injection("cache_corrupt:1.0:5"):
            with pytest.raises(InjectedFault):
                cache.save(path)  # save is also instrumented
            loaded = ResultCache.load(path)
        assert loaded.recovered_from == path + ".corrupt"
        assert len(loaded) == 0


class TestChunkRecovery:
    def test_sharded_mc_recovers_bit_identically(self):
        job = MeasureJob(
            design="T(A,B,C); B->C",
            rows=((1, 2, 3), (4, 2, 3)),
            position=(0, "C"),
            method="montecarlo",
            samples=200,
            seed=7,
            id="m",
        )

        def run(faulty):
            METRICS.reset()
            retry = RetryPolicy(max_attempts=8, base_delay=0.0)
            runner = BatchRunner(
                pool=WorkerPool(workers=4, retry=retry), retry=retry
            )
            try:
                if faulty:
                    with fault_injection("worker_crash:0.5:9"):
                        return runner.run([job])
                return runner.run([job])
            finally:
                runner.pool.shutdown()

        clean = run(faulty=False)
        stormy = run(faulty=True)
        assert stormy["results"][0]["ok"] is True
        assert METRICS.get(RETRIES) == METRICS.get(FAULTS_INJECTED) > 0
        # Recovery preserves bit-identical estimates (counter-based
        # sampling; chunks re-executed, never resampled differently).
        assert (
            stormy["results"][0]["value"] == clean["results"][0]["value"]
        )


class TestFaultAccounting:
    def test_report_counts_every_retry_fault_and_plan(self):
        # One registry: the report's counters hold the chunk retries, the
        # injected faults and the planner/engine counts of the same run.
        METRICS.reset()
        jobs = [
            MeasureJob(
                design="T(A,B,C); B->C",
                rows=((1, 2, 3), (4, 2, 3), (5, 6, 7)),
                position=(0, "C"),
                method="montecarlo",
                samples=400,
                seed=seed,
                id=f"m{seed}",
            )
            for seed in range(4)
        ] + [AdviseJob(design="R(A,B,C); B->C", id="a")]
        retry = RetryPolicy(max_attempts=10, base_delay=0.0)
        runner = BatchRunner(
            pool=WorkerPool(workers=4, retry=retry), retry=retry
        )
        try:
            with fault_injection("worker_crash:0.3:13"):
                report = runner.run(jobs)
        finally:
            runner.pool.shutdown()
        assert report["failed"] == 0
        counters = report["metrics"]["counters"]
        assert counters["retries"] == counters["faults_injected"] > 0
        assert counters["planner.plans"] >= 4
        assert counters["engine.runs{engine=montecarlo}"] == 4


class TestFaultCLI:
    def test_worker_crash_batch_completes_correctly(self, tmp_path, capsys):
        """Acceptance: --inject-fault worker_crash:0.2:7 still succeeds."""
        path = tmp_path / "jobs.jsonl"
        path.write_text(JOBS_JSONL + "\n", encoding="utf-8")
        try:
            code = main(
                ["batch", str(path), "--workers", "2",
                 "--inject-fault", "worker_crash:0.2:7",
                 "--retries", "6"]
            )
            report = json.loads(capsys.readouterr().out)
        finally:
            FAULTS.clear()
        assert code == 0
        assert report["failed"] == 0
        counters = report["metrics"]["counters"]
        assert counters.get("faults_injected", 0) >= 1
        # Correctness under fire: the Monte-Carlo estimate matches the
        # fault-free deterministic value.
        measure = next(
            e for e in report["results"] if e["id"] == "m1"
        )
        capsys.readouterr()
        clean_code = main(["batch", str(path), "--workers", "2"])
        clean = json.loads(capsys.readouterr().out)
        assert clean_code == 0
        clean_measure = next(
            e for e in clean["results"] if e["id"] == "m1"
        )
        assert measure["value"] == clean_measure["value"]

    def test_bad_fault_spec_exits_two(self, tmp_path, capsys):
        path = tmp_path / "jobs.jsonl"
        path.write_text(JOBS_JSONL + "\n", encoding="utf-8")
        code = main(
            ["batch", str(path), "--inject-fault", "bogus:0.5"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err
