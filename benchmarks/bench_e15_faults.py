"""E15 — batch throughput under injected faults.

Runs the same Monte-Carlo measurement batch under increasing injected
``worker_crash`` rates and reports throughput plus retry/fault counters.
Recovery is required to be *free of correctness cost*: counter-based
sampling makes re-executed chunks bit-identical, so every fault rate
must reproduce the fault-free estimates exactly.

Expected shape: throughput degrades gracefully with the fault rate
(retried chunks cost wall-clock, nothing else); values never drift.
"""

import time

from repro.service.faults import fault_injection
from repro.service.jobs import MeasureJob
from repro.service.metrics import FAULTS_INJECTED, METRICS, RETRIES
from repro.service.pool import WorkerPool
from repro.service.retry import RetryPolicy
from repro.service.runner import BatchRunner

from benchmarks.common import print_table

FAULT_RATES = (0.0, 0.1, 0.3)


def batch_jobs(count=8, samples=3000):
    return [
        MeasureJob(
            design="T(A,B,C); B->C",
            rows=((1, 2, 3), (4, 2, 3), (5, 6, 7)),
            position=(0, "C"),
            method="montecarlo",
            samples=samples,
            seed=seed,
            id=f"m{seed}",
        )
        for seed in range(count)
    ]


def run_batch_under_rate(jobs, rate, seed=13):
    METRICS.reset()
    retry = RetryPolicy(max_attempts=10, base_delay=0.0)
    runner = BatchRunner(pool=WorkerPool(workers=4, retry=retry), retry=retry)
    try:
        start = time.perf_counter()
        if rate > 0.0:
            with fault_injection(f"worker_crash:{rate}:{seed}"):
                report = runner.run(jobs)
        else:
            report = runner.run(jobs)
        elapsed = time.perf_counter() - start
    finally:
        runner.pool.shutdown()
    assert report["failed"] == 0
    injected = METRICS.get(FAULTS_INJECTED)
    retries = METRICS.get(RETRIES)
    values = [entry["value"] for entry in report["results"]]
    return elapsed, injected, retries, values


def test_e15_fault_rate_table(benchmark):
    jobs = batch_jobs()

    def run():
        rows = []
        baseline = None
        for rate in FAULT_RATES:
            elapsed, injected, retries, values = run_batch_under_rate(
                jobs, rate
            )
            if baseline is None:
                baseline = values
            # Recovery must not change a single bit of any estimate.
            assert values == baseline
            rows.append(
                (
                    f"{rate:.1f}",
                    len(jobs),
                    injected,
                    retries,
                    f"{len(jobs) / max(elapsed, 1e-9):.1f} jobs/s",
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "E15: Monte-Carlo batch under injected worker_crash faults",
        ["fault rate", "jobs", "faults injected", "retries", "throughput"],
        rows,
    )
    # Faults were actually exercised at the non-zero rates, and with no
    # failed job every injected crash (job or chunk site) cost exactly
    # one retry.
    assert rows[0][2] == 0
    assert all(r[2] > 0 for r in rows[1:])
    assert all(r[3] == r[2] for r in rows[1:])


def test_e15_clean_batch_kernel(benchmark):
    jobs = batch_jobs(count=4, samples=1500)
    benchmark.pedantic(
        lambda: run_batch_under_rate(jobs, 0.0), rounds=2, iterations=1
    )


def test_e15_faulty_batch_kernel(benchmark):
    jobs = batch_jobs(count=4, samples=1500)
    benchmark.pedantic(
        lambda: run_batch_under_rate(jobs, 0.3), rounds=2, iterations=1
    )
