"""The worker pool: sharded Monte-Carlo estimation and job fan-out.

Two parallelism axes, both ``concurrent.futures``-backed:

- **within a job** — :func:`ric_montecarlo_parallel` splits the sample
  range ``[0, samples)`` into near-equal contiguous chunks, evaluates
  each via :func:`repro.core.montecarlo.ric_mc_chunk`, and merges the
  sufficient statistics.  Because the sampler is counter-based (sample
  ``j`` is seeded by ``(seed, j)``), the merged estimate is **bit-equal**
  to the serial one for any worker count;
- **across jobs** — :meth:`WorkerPool.map` fans independent thunks out
  over the same executor.

Threads are the default executor: chunk evaluation releases no locks and
the instances are small, so thread fan-out costs nothing to set up and is
correct everywhere; pass ``use_processes=True`` for CPU-bound sharding on
multi-core machines (jobs and instances are picklable by construction).

Chunk execution is **fault-tolerant**: :meth:`WorkerPool.map_retrying`
re-executes only the chunks whose futures failed with a *transient*
taxonomy kind (``worker_crash``, ``cache_corrupt``), keeping every
completed chunk, under the pool's :class:`~repro.service.retry.RetryPolicy`
with deterministic backoff.  A broken executor (``BrokenProcessPool``
after a worker SIGKILL, a shut-down thread pool) is rebuilt in place
before the retry round.  Because chunk results are order-merged
sufficient statistics, a recovered estimate is still bit-identical to
the failure-free one.

Chunk evaluation is also the runtime's **cross-process telemetry seam**:
a chunk that runs in a worker process snapshots its local
:data:`~repro.service.metrics.METRICS` and finished spans and piggybacks
them on the chunk result; the dispatching side merges the snapshots and
adopts the spans under the span that scheduled the work, so the parent's
metrics report and trace tree are complete under process sharding.
"""

from __future__ import annotations

import os
import time as _time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.montecarlo import (
    MCChunk,
    MCEstimate,
    merge_mc_chunks,
    ric_mc_chunk,
)
from repro.core.positions import Position, PositionedInstance
from repro.service.budget import StageTimeout
from repro.service.errors import from_exception
from repro.service.faults import FAULTS
from repro.service.metrics import METRICS, RETRIES
from repro.service.retry import RetryPolicy, token_seed
from repro.service.trace import TRACER
from repro.service.validate import MAX_WORKERS, check_positive_int


def chunk_ranges(samples: int, chunks: int) -> List[Tuple[int, int]]:
    """Split ``[0, samples)`` into *chunks* contiguous ``(start, count)``
    ranges differing in size by at most one (empty ranges dropped)."""
    if samples <= 0:
        raise ValueError("need at least one sample")
    chunks = max(1, min(chunks, samples))
    base, extra = divmod(samples, chunks)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for i in range(chunks):
        count = base + (1 if i < extra else 0)
        if count:
            ranges.append((start, count))
            start += count
    return ranges


def _eval_chunk(args) -> Tuple[MCChunk, Optional[dict]]:
    """Module-level chunk worker (picklable for process pools).

    The fault harness rolls per-chunk dice keyed on the chunk's stable
    ``(seed, start, count)`` identity — never on thread scheduling — so
    an injected crash hits the same chunk on every run.

    Returns ``(chunk, telemetry)``.  In a worker *process* (detected by
    comparing PIDs against the submitting process), the worker's
    process-local ``METRICS`` and finished spans are snapshotted and
    piggybacked on the result so the parent can fold them into its own
    registry — otherwise every counter the engines record under
    ``use_processes=True`` would silently vanish.  The child registry is
    reset around each chunk so the telemetry is exactly that chunk's
    delta (a fork-started worker inherits the parent's counters; without
    the reset they would be double-counted on merge).  In thread mode
    (same PID) telemetry is ``None`` — the engines already recorded into
    the shared registry.

    The stage *deadline* is an absolute reading of the submitting
    process's ``perf_counter()``; a worker process re-bases it on *left*,
    the seconds that remained when the chunk was submitted.
    """
    (instance, p, start, count, seed, deadline, left,
     parent_pid, parent_span, trace) = args
    in_child = os.getpid() != parent_pid
    if in_child:
        METRICS.reset()
        TRACER.reset()
        TRACER.set_enabled(trace)
        if left is not None:
            deadline = _time.perf_counter() + left
    FAULTS.maybe_raise("chunk", f"{seed}:{start}+{count}")
    with TRACER.span(
        "pool.chunk",
        parent_id=None if in_child else parent_span,
        start=start,
        count=count,
    ):
        chunk = ric_mc_chunk(instance, p, start, count, seed, deadline)
    if not in_child:
        return chunk, None
    telemetry = {
        "pid": os.getpid(),
        "metrics": METRICS.snapshot(),
        "spans": TRACER.drain(),
        "dropped": TRACER.dropped,
    }
    METRICS.reset()
    return chunk, telemetry


class WorkerPool:
    """A fixed-size worker pool over threads (default) or processes.

    Usable as a context manager; otherwise call :meth:`shutdown` when
    done.  An externally managed ``executor`` may be injected instead
    (the pool then never shuts it down — and never rebuilds it after a
    crash, since its lifecycle belongs to the caller).
    """

    def __init__(
        self,
        workers: int = 4,
        use_processes: bool = False,
        executor: Optional[Executor] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        check_positive_int("workers", workers, maximum=MAX_WORKERS)
        self.workers = workers
        self.retry = retry or RetryPolicy()
        self._use_processes = use_processes
        self._owned = executor is None
        if executor is not None:
            self._executor = executor
        else:
            self._executor = self._new_executor()

    def _new_executor(self) -> Executor:
        if self._use_processes:
            return ProcessPoolExecutor(max_workers=self.workers)
        return ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-pool"
        )

    @property
    def executor(self) -> Executor:
        return self._executor

    def rebuild(self) -> None:
        """Replace a broken owned executor with a fresh one.

        Futures already completed keep their results; only the pending
        work the caller chooses to resubmit runs on the new executor.
        Injected executors are left alone (the owner decides).
        """
        if not self._owned:
            return
        try:
            self._executor.shutdown(wait=False)
        except Exception:  # noqa: BLE001 — a broken pool may refuse even this
            pass
        self._executor = self._new_executor()
        METRICS.inc("pool.rebuilds")

    def map(self, fn: Callable, items: Sequence) -> list:
        """Apply *fn* to every item concurrently, preserving order.

        Exceptions propagate from the first failing item, matching the
        serial ``[fn(x) for x in items]`` contract.
        """
        futures = [self._executor.submit(fn, item) for item in items]
        return [future.result() for future in futures]

    def map_retrying(
        self,
        fn: Callable,
        items: Sequence,
        tokens: Optional[Sequence[str]] = None,
        sleep: Callable[[float], None] = _time.sleep,
    ) -> list:
        """Order-preserving map that re-executes transiently failed items.

        Each retry round resubmits only the failed indices (completed
        results are never recomputed), rebuilding the executor first if
        it broke.  A non-retryable failure, or a retryable one that
        exhausts ``retry.max_attempts``, raises its taxonomy-wrapped
        :class:`~repro.service.errors.JobError`; a
        :class:`~repro.service.budget.StageTimeout` is raised as it is.
        """
        tokens = (
            [str(t) for t in tokens]
            if tokens is not None
            else [str(i) for i in range(len(items))]
        )
        results: List = [None] * len(items)
        pending = list(range(len(items)))
        attempt = 0
        while pending:
            futures = {}
            for index in pending:
                futures[index] = self._submit_safe(fn, items[index])
            failed: List[int] = []
            last_error = None
            for index, future in futures.items():
                try:
                    results[index] = future.result()
                except StageTimeout:
                    raise  # the stage is over: nothing to retry or wrap
                except Exception as exc:  # noqa: BLE001 — classified below
                    error = from_exception(exc)
                    if not self.retry.is_retryable(error.kind):
                        raise error from exc
                    failed.append(index)
                    last_error = error
            if not failed:
                return results
            if attempt + 1 >= self.retry.max_attempts:
                raise last_error
            METRICS.inc(RETRIES, len(failed))
            METRICS.inc("pool.chunk_retries", len(failed))
            TRACER.event(
                "retry",
                attempt=attempt,
                failed=len(failed),
                kind=last_error.kind,
            )
            if getattr(self._executor, "_broken", False):
                self.rebuild()
            sleep(self.retry.delay(attempt, seed=token_seed(tokens[failed[0]])))
            pending = failed
            attempt += 1
        return results

    def _submit_safe(self, fn, item):
        """Submit, rebuilding the executor once if submission itself
        fails on a broken/shut-down pool."""
        try:
            return self._executor.submit(fn, item)
        except (BrokenExecutor, RuntimeError):
            self.rebuild()
            return self._executor.submit(fn, item)

    def ric_montecarlo(
        self,
        instance: PositionedInstance,
        p: Position,
        samples: int = 200,
        seed: int = 0,
        deadline: Optional[float] = None,
    ) -> MCEstimate:
        """Sharded, deterministic Monte-Carlo ``RIC`` (see module doc).

        Chunks run through :meth:`map_retrying`, so transient worker
        failures re-execute only the affected ranges; the merged
        estimate is bit-identical to the failure-free serial result.
        Every chunk checks *deadline* once per sample, and the first
        :class:`~repro.service.budget.StageTimeout` is raised here.
        """
        ranges = chunk_ranges(samples, self.workers)
        left = None if deadline is None else deadline - _time.perf_counter()
        METRICS.inc("pool.mc.shards", len(ranges))
        parent_pid = os.getpid()
        trace = TRACER.enabled
        with TRACER.span("pool.mc", shards=len(ranges), samples=samples):
            # Chunks run on pool threads (or processes): thread-local
            # nesting cannot see this span, so its ID is passed along
            # explicitly and every chunk re-roots under it.
            parent_span = TRACER.current_id()
            results = self.map_retrying(
                _eval_chunk,
                [
                    (instance, p, start, count, seed, deadline, left,
                     parent_pid, parent_span, trace)
                    for start, count in ranges
                ],
                tokens=[f"{seed}:{start}+{count}" for start, count in ranges],
            )
        chunks = []
        for chunk, telemetry in results:
            if telemetry is not None:
                METRICS.merge(telemetry["metrics"])
                TRACER.adopt(
                    telemetry["spans"],
                    parent_id=parent_span,
                    dropped=telemetry.get("dropped", 0),
                )
            chunks.append(chunk)
        return merge_mc_chunks(chunks)

    def shutdown(self) -> None:
        """Release the executor (no-op for injected executors)."""
        if self._owned:
            self._executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def ric_montecarlo_parallel(
    instance: PositionedInstance,
    p: Position,
    samples: int = 200,
    seed: int = 0,
    workers: int = 4,
    use_processes: bool = False,
) -> MCEstimate:
    """One-shot convenience wrapper around :meth:`WorkerPool.ric_montecarlo`.

    With a fixed *seed* the result is identical for every *workers* value
    (including the serial ``ric_montecarlo(instance, p, samples, seed=seed)``).
    """
    with WorkerPool(workers=workers, use_processes=use_processes) as pool:
        return pool.ric_montecarlo(instance, p, samples=samples, seed=seed)
