"""JSONL batch execution through the pool and the result cache.

The runner takes a job list (usually parsed from a JSONL file, one job
object per line — see :mod:`repro.service.jobs`), consults the
content-addressed cache for each, and executes the misses:

- measure jobs whose :class:`~repro.engine.planner.Plan` may run the
  Monte-Carlo engine run on the main thread with their **sample range
  sharded across the pool** (the intra-job axis);
- every other job fans out to the pool as an independent future (the
  inter-job axis).

Which engines may run is the planner's decision — the runner only asks
``plan.uses("montecarlo")``; it holds no engine-selection logic of its
own.

Keeping the two axes on disjoint scheduling paths makes the design
deadlock-free: a sharded job never waits on pool slots held by other
sharded jobs.  Results come back in input order as JSON-safe dicts with
per-job timing and the cache key, followed by the cache stats and a
:func:`repro.service.metrics.Metrics.snapshot` of the engines' counters.

Fault tolerance (see also :mod:`repro.service.errors`):

- every job failure is a **typed** entry — a
  :class:`~repro.service.errors.JobError` payload with its taxonomy
  ``kind``, machine-readable code, and captured traceback — never an
  anonymous string, and never fatal to the batch;
- **transient** failures (``worker_crash``, ``cache_corrupt``) re-execute
  under the runner's :class:`~repro.service.retry.RetryPolicy` with
  deterministic backoff, both per job here and per chunk inside the pool;
- a malformed JSONL line becomes a ``parse``/``validation`` entry with
  its line number; the remaining lines still run;
- with a :class:`~repro.service.checkpoint.Checkpoint`, completed results
  are durably appended as the batch progresses and a ``--resume`` run
  skips them bit-identically;
- cache read/write failures degrade to a miss (recorded in metrics) —
  a damaged cache costs recomputation, never a wrong or missing result.
"""

from __future__ import annotations

import json
import time as _time
from fractions import Fraction
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.advisor import DesignReport, advise
from repro.core.montecarlo import MCEstimate
from repro.engine import PLANNER, Plan, Problem
from repro.graph.graphdb import GraphDB
from repro.graph.rpq import rpq_eval, rpq_reachable
from repro.relational.attributes import fmt_attrs
from repro.service.budget import Budget
from repro.service.cache import ResultCache
from repro.service.checkpoint import Checkpoint
from repro.service.errors import JobError, from_exception
from repro.service.faults import FAULTS
from repro.service.jobs import (
    AdviseJob,
    Job,
    MeasureJob,
    RPQJob,
    job_key,
    parse_jsonl_lenient,
)
from repro.service.metrics import METRICS, RETRIES, Metrics
from repro.service.pool import WorkerPool
from repro.service.retry import RetryPolicy, token_seed
from repro.service.trace import TRACER


def ric_payload(value) -> dict:
    """JSON-safe rendering of an exact or estimated ``RIC`` value."""
    if isinstance(value, MCEstimate):
        low, high = value.ci95()
        return {
            "kind": "montecarlo",
            "mean": value.mean,
            "stderr": value.stderr,
            "samples": value.samples,
            "ci95": [low, high],
            "value": value.mean,
        }
    if isinstance(value, Fraction):
        return {
            "kind": "exact",
            "fraction": str(value),
            "value": float(value),
        }
    return {"kind": "float", "value": float(value)}


def report_payload(report: DesignReport) -> dict:
    """JSON-safe rendering of a :class:`~repro.advisor.DesignReport`."""
    return {
        "schema": str(report.schema),
        "fds": [str(fd) for fd in report.fds],
        "mvds": [str(mvd) for mvd in report.mvds],
        "minimal_cover": [str(fd) for fd in report.minimal_cover],
        "keys": [fmt_attrs(key) for key in report.keys],
        "normal_forms": {
            "2nf": report.in_2nf,
            "3nf": report.in_3nf,
            "bcnf": report.in_bcnf,
            "4nf": report.in_4nf,
        },
        "well_designed": report.well_designed,
        "witness": (
            None
            if report.witness_position is None
            else {
                "position": report.witness_position,
                "ric": (
                    None
                    if report.witness_ric is None
                    else ric_payload(report.witness_ric)
                ),
            }
        ),
        "repairs": [
            {
                "method": repair.method,
                "fragments": [str(f) for f in repair.fragments],
                "lossless": repair.lossless,
                "dependency_preserving": repair.dependency_preserving,
            }
            for repair in report.repairs
        ],
        "summary": report.summary(),
    }


class BatchRunner:
    """Execute job batches through one pool, cache, budget, and policy."""

    def __init__(
        self,
        pool: Optional[WorkerPool] = None,
        cache: Optional[ResultCache] = None,
        budget: Optional[Budget] = None,
        metrics: Metrics = METRICS,
        retry: Optional[RetryPolicy] = None,
        shard_pool: Optional[WorkerPool] = None,
    ):
        self._owns_pool = pool is None
        self.retry = retry or (pool.retry if pool is not None else RetryPolicy())
        self.pool = pool or WorkerPool(workers=4, retry=self.retry)
        self.cache = cache if cache is not None else ResultCache()
        self.budget = budget or Budget()
        self.metrics = metrics
        # Job fan-out always stays on `pool` (thread-backed: it submits
        # bound methods of this runner, which do not pickle); Monte-Carlo
        # chunk sharding may be routed to a separate, possibly
        # process-backed, pool.
        self.shard_pool = shard_pool if shard_pool is not None else self.pool
        self._batch_span: Optional[str] = None

    # ------------------------------------------------------------------
    # single-job execution (cache-oblivious)
    # ------------------------------------------------------------------

    def execute(self, job: Job) -> dict:
        """Run one job and return its JSON-safe value dict."""
        if isinstance(job, AdviseJob):
            return self._execute_advise(job)
        if isinstance(job, MeasureJob):
            return self._execute_measure(job)
        if isinstance(job, RPQJob):
            return self._execute_rpq(job)
        raise TypeError(f"unsupported job: {job!r}")

    def _execute_advise(self, job: AdviseJob) -> dict:
        report = advise(
            job.design,
            measure_witness=job.measure,
            method=job.method,
            samples=job.samples,
            seed=job.seed,
        )
        return report_payload(report)

    def _measure_problem(self, job: MeasureJob) -> Problem:
        return Problem.from_design(
            job.design,
            job.rows,
            job.position,
            method=job.method,
            samples=job.samples,
            seed=job.seed,
        )

    def _plan_for(self, job: MeasureJob) -> Plan:
        """The planner's decision for *job* (pure and deterministic, so
        the scheduling-time plan and the execution-time plan agree)."""
        return PLANNER.plan(self._measure_problem(job), budget=self.budget)

    def _shards_samples(self, job: Job) -> bool:
        """Whether *job*'s plan may run the Monte-Carlo engine (the
        sample range then shards across the pool instead of the job
        fanning out as one future)."""
        if not isinstance(job, MeasureJob):
            return False
        try:
            return self._plan_for(job).uses("montecarlo")
        except Exception:  # noqa: BLE001 — scheduling guess only; the
            # execution path re-raises and classifies the real error.
            return False

    def _execute_measure(self, job: MeasureJob) -> dict:
        problem = self._measure_problem(job)
        result = PLANNER.plan_and_run(
            problem, budget=self.budget, pool=self.shard_pool
        )
        payload = ric_payload(result.value)
        payload["method"] = result.engine
        payload["position"] = str(problem.position_obj())
        return payload

    def _execute_rpq(self, job: RPQJob) -> dict:
        graph = GraphDB.from_edges(job.edges)
        if job.source is not None:
            nodes = rpq_reachable(graph, job.query, job.source)
            return {
                "source": job.source,
                "reachable": sorted(nodes, key=repr),
                "count": len(nodes),
            }
        pairs = rpq_eval(graph, job.query)
        return {
            "pairs": [list(pair) for pair in sorted(pairs, key=repr)],
            "count": len(pairs),
        }

    # ------------------------------------------------------------------
    # batch execution (cache + resume + fan-out)
    # ------------------------------------------------------------------

    def run(
        self,
        jobs: Sequence[Job],
        checkpoint: Optional[Checkpoint] = None,
        resume_map: Optional[Dict[str, dict]] = None,
    ) -> dict:
        """Run *jobs*, returning the full batch report dict.

        With *checkpoint*, each executed result is durably appended as it
        completes and the file is atomically compacted to input order at
        the end.  With *resume_map* (a :meth:`Checkpoint.load` result),
        already-completed jobs are reused without re-execution.

        When tracing is enabled the batch runs under a ``batch.run``
        root span and every job opens a ``job`` span re-rooted under it
        (jobs execute on pool threads, outside this thread's nesting
        stack).
        """
        with TRACER.span("batch.run", jobs=len(jobs)) as span:
            self._batch_span = TRACER.current_id()
            try:
                report = self._run(jobs, checkpoint, resume_map)
            finally:
                self._batch_span = None
            span.set(ok=report["ok"], failed=report["failed"])
            return report

    def _run(
        self,
        jobs: Sequence[Job],
        checkpoint: Optional[Checkpoint] = None,
        resume_map: Optional[Dict[str, dict]] = None,
    ) -> dict:
        batch_start = perf_counter()
        resume_map = resume_map or {}
        results: List[Optional[dict]] = [None] * len(jobs)
        sharded: List[Tuple[int, Job, str]] = []
        fanout: List[Tuple[int, Job, str]] = []
        resumed = 0

        for index, job in enumerate(jobs):
            key = job_key(job)
            cached = self._cache_get(key)
            if cached is not None:
                self.metrics.inc("runner.cache_hits")
                results[index] = self._entry(
                    job, key, ok=True, value=cached, seconds=0.0, cached=True
                )
            elif key in resume_map and resume_map[key].get("ok"):
                # Reuse the checkpointed result verbatim (deterministic
                # estimators make it equal to a re-execution).  The cache
                # is deliberately NOT warmed here: intra-batch duplicates
                # then take the same path as in an uninterrupted run, so
                # the finalized checkpoint stays byte-identical.
                entry = dict(resume_map[key])
                entry.update(id=job.id, seconds=0.0, resumed=True)
                results[index] = entry
                self.metrics.inc("runner.checkpoint_hits")
                resumed += 1
            elif self._shards_samples(job):
                sharded.append((index, job, key))
            else:
                fanout.append((index, job, key))

        futures = [
            (index, job, key, self.pool.executor.submit(self._timed, job, key))
            for index, job, key in fanout
        ]
        for index, job, key in sharded:
            results[index] = self._complete(
                job, key, *self._run_timed(job, key), checkpoint=checkpoint
            )
        for index, job, key, future in futures:
            results[index] = self._complete(
                job, key, *future.result(), checkpoint=checkpoint
            )

        if checkpoint is not None:
            checkpoint.finalize(
                entry for entry in results if entry and entry["ok"]
            )

        ok = sum(1 for entry in results if entry and entry["ok"])
        report = {
            "jobs": len(jobs),
            "ok": ok,
            "failed": len(jobs) - ok,
            "elapsed_seconds": perf_counter() - batch_start,
            "results": results,
            "cache": self.cache.stats(),
            "metrics": self.metrics.snapshot(),
        }
        if resume_map or checkpoint is not None:
            report["resumed"] = resumed
        return report

    def _timed(self, job: Job, token: str):
        return self._run_timed(job, token)

    def _run_timed(self, job: Job, token: str):
        """Execute one job, capturing ``(value|None, error|None, seconds)``.

        Failures are classified through the error taxonomy; transient
        kinds re-execute under the retry policy with a deterministic
        (token-seeded) backoff schedule.  The returned error is the
        typed JSON payload — jobs must not kill the batch, but neither
        may they fail anonymously.
        """
        start = perf_counter()
        attempt = 0
        with TRACER.span(
            "job", parent_id=self._batch_span, kind=job.kind, id=job.id
        ) as span:
            while True:
                try:
                    FAULTS.maybe_raise("job", token)
                    with self.metrics.timer(f"job.{job.kind}"):
                        value = self.execute(job)
                    return value, None, perf_counter() - start
                except Exception as exc:  # noqa: BLE001 — classified below
                    error = self._classify(exc)
                    if (
                        self.retry.is_retryable(error.kind)
                        and attempt + 1 < self.retry.max_attempts
                    ):
                        self.metrics.inc(RETRIES)
                        span.event("retry", attempt=attempt, kind=error.kind)
                        _time.sleep(
                            self.retry.delay(attempt, token_seed(token))
                        )
                        attempt += 1
                        continue
                    self.metrics.inc("runner.errors", kind=error.kind)
                    span.set(failed=error.kind)
                    return None, error.to_dict(), perf_counter() - start

    @staticmethod
    def _classify(exc: BaseException) -> JobError:
        return from_exception(exc)

    def _complete(
        self,
        job: Job,
        key: str,
        value,
        error,
        seconds,
        checkpoint: Optional[Checkpoint] = None,
    ) -> dict:
        if error is None:
            self._cache_put(key, value)
            entry = self._entry(
                job, key, ok=True, value=value, seconds=seconds, cached=False
            )
            if checkpoint is not None:
                checkpoint.append(key, entry)
            return entry
        self.metrics.inc("runner.job_errors")
        return self._entry(
            job, key, ok=False, error=error, seconds=seconds, cached=False
        )

    # ------------------------------------------------------------------
    # cache guards: a damaged cache degrades to a miss, never an abort
    # ------------------------------------------------------------------

    def _cache_get(self, key: str):
        try:
            return self.cache.get(key)
        except JobError as exc:
            if exc.kind != "cache_corrupt":
                raise
            self.metrics.inc("cache.read_errors")
            return None

    def _cache_put(self, key: str, value) -> None:
        try:
            self.cache.put(key, value)
        except JobError as exc:
            if exc.kind != "cache_corrupt":
                raise
            self.metrics.inc("cache.write_errors")

    @staticmethod
    def _entry(
        job: Job,
        key: str,
        ok: bool,
        seconds: float,
        cached: bool,
        value: Any = None,
        error: Any = None,
    ) -> dict:
        entry = {
            "id": job.id,
            "kind": job.kind,
            "key": key,
            "ok": ok,
            "cached": cached,
            "seconds": seconds,
        }
        if ok:
            entry["value"] = value
        else:
            entry["error"] = error
        return entry

    def shutdown(self) -> None:
        """Release the pool if this runner created it."""
        if self._owns_pool:
            self.pool.shutdown()


def _parse_error_entry(lineno: int, error: JobError) -> dict:
    """The failed result entry for an unparseable JSONL line."""
    return {
        "id": None,
        "kind": None,
        "line": lineno,
        "ok": False,
        "cached": False,
        "seconds": 0.0,
        "error": error.to_dict(),
    }


def run_batch(
    path: str,
    workers: int = 4,
    cache: Optional[ResultCache] = None,
    budget: Optional[Budget] = None,
    metrics: Metrics = METRICS,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    retry: Optional[RetryPolicy] = None,
    use_processes: bool = False,
    reset_metrics: bool = True,
) -> dict:
    """Execute the JSONL job file at *path* and return the batch report.

    Malformed lines become typed ``parse``/``validation`` entries (with
    their line numbers) in the report instead of aborting the batch; a
    file with *no* parseable job at all raises
    :class:`~repro.service.errors.JobError` (a batch-level failure).

    With *checkpoint_path*, completed results are durably appended as the
    run progresses; *resume* additionally loads the file first and skips
    every job already completed (bit-identically — the estimators are
    deterministic and wall-clock fields are excluded from checkpoints).

    With *use_processes*, Monte-Carlo chunk sharding runs on a
    **process** pool (CPU parallelism past the GIL); worker-side engine
    counters and spans are piggybacked back and merged, so the report's
    metrics snapshot is complete either way.  Job fan-out stays on
    threads (runner state does not pickle, and sharded jobs must not
    queue behind fanned-out ones).

    *reset_metrics* (default) zeroes *metrics* before the batch so the
    report counts **this batch only** — repeated ``run_batch`` calls in
    one process (library use) otherwise accumulate forever.  Pass
    ``False`` to keep accumulating into a shared registry.
    """
    if reset_metrics:
        metrics.reset()
    with open(path, "r", encoding="utf-8") as handle:
        records = parse_jsonl_lenient(handle.read())
    jobs = [job for _, job, error in records if error is None]
    parse_errors = sum(1 for _, _, error in records if error is not None)
    if records and not jobs:
        raise JobError(
            f"no parseable jobs in {path} ({parse_errors} bad line"
            f"{'s' if parse_errors != 1 else ''})",
            kind="parse",
            details={"path": path, "bad_lines": parse_errors},
        )

    checkpoint = (
        Checkpoint(checkpoint_path, metrics=metrics)
        if checkpoint_path
        else None
    )
    resume_map = checkpoint.load() if (checkpoint and resume) else None

    shard_pool = (
        WorkerPool(workers=workers, use_processes=True, retry=retry)
        if use_processes
        else None
    )
    runner = BatchRunner(
        pool=WorkerPool(workers=workers, retry=retry),
        cache=cache,
        budget=budget,
        metrics=metrics,
        retry=retry,
        shard_pool=shard_pool,
    )
    try:
        report = runner.run(jobs, checkpoint=checkpoint, resume_map=resume_map)
    finally:
        runner.pool.shutdown()
        if shard_pool is not None:
            shard_pool.shutdown()
        if checkpoint is not None:
            checkpoint.close()

    if parse_errors:
        # Interleave the bad-line entries back at their line positions.
        merged: List[dict] = []
        job_entries = iter(report["results"])
        for lineno, _, error in records:
            if error is None:
                merged.append(next(job_entries))
            else:
                merged.append(_parse_error_entry(lineno, error))
        report["results"] = merged
        report["jobs"] = len(records)
        report["failed"] += parse_errors
    report["parse_errors"] = parse_errors
    return report


def format_report(report: dict, indent: int = 2) -> str:
    """Pretty-print a batch report as JSON text."""
    return json.dumps(report, indent=indent, sort_keys=False, default=str)
