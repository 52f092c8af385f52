"""Per-layer measurement for the traced run.

Two sources, both read from outside the program:

- the program's own tracer (``repro.service.trace.TRACER``), whose spans
  ``batch.run``, ``job``, ``plan``, ``engine_run``, ``ric.sweep``,
  ``pool.mc``, ``pool.chunk``, ``mc.chunk`` and ``rpq.search`` are
  drained after every request, and its counters in ``METRICS``;
- wrappers this module installs around public functions.  Hot per-node
  calls (``World.satisfies``, ``World.certainly_violated``,
  ``max_fresh``) only add integers to ``METRICS`` counters, never a span
  per call.  The wrappers are installed before any process pool forks,
  so worker processes inherit them and the pool's telemetry piggyback
  returns their counts.

A layer's self time is its span's duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import Counter
from contextlib import contextmanager

#: name -> unit of every per-layer metric, in report order.
UNITS = {
    "core.worlds.built": "count",
    "core.worlds.build_us": "us",
    "core.worlds.oracle_calls": "count",
    "core.worlds.oracle_us": "us",
    "core.worlds.certain_calls": "count",
    "core.worlds.certain_us": "us",
    "core.worlds.prune_frac": "ratio",
    "core.patterns.max_fresh_calls": "count",
    "core.patterns.max_fresh_self_s": "s",
    "core.symbolic.worlds": "count",
    "core.symbolic.worlds_per_s": "worlds/s",
    "core.mc.samples": "count",
    "core.mc.sample_us": "us",
    "service.pool.mc_overhead_ms": "ms",
    "service.pool.chunk_bytes": "bytes",
    "service.pool.spinup_ms": "ms",
    "engine.plan_calls_per_job": "calls/job",
    "engine.plan_us": "us",
    "engine.cache_hits": "count",
    "engine.run_overhead_us": "us",
    "service.jobs.parse_us_per_job": "us",
    "service.jobs.key_calls_per_job": "calls/job",
    "service.jobs.key_us_per_job": "us",
    "service.cache.hit_frac": "ratio",
    "service.cache.exec_per_distinct": "ratio",
    "service.runner.queue_wait_ms": "ms",
    "service.budget.timeouts": "count",
    "service.budget.degradations": "count",
    "service.budget.live_stage_threads": "count",
    "service.budget.fallback_frac": "ratio",
    "advisor.syntactic_ms": "ms",
    "normalforms.decompose_ms": "ms",
    "chase.runs": "count",
    "chase.steps": "count",
    "graph.build_ms": "ms",
    "graph.rpq_ms": "ms",
    "graph.rpq_expansions": "count",
    "trace.overhead_frac": "ratio",
}

#: Counts that repeat exactly between runs of the same inputs.
EXACT_COUNTS = (
    "core.worlds.built",
    "core.worlds.oracle_calls",
    "core.worlds.certain_calls",
    "core.patterns.max_fresh_calls",
    "core.symbolic.worlds",
    "core.mc.samples",
    "service.cache.hit_frac",
    "chase.steps",
    "graph.rpq_expansions",
)


def _counting(metrics, name, fn, flag=False):
    """*fn* recording its calls and nanoseconds into counters
    ``bench.<name>.calls`` / ``.ns`` (and ``.true`` with *flag*)."""
    calls, ns, true = f"bench.{name}.calls", f"bench.{name}.ns", f"bench.{name}.true"
    clock = time.perf_counter_ns

    def wrapper(*args, **kwargs):
        start = clock()
        result = fn(*args, **kwargs)
        metrics.inc(ns, clock() - start)
        metrics.inc(calls)
        if flag and result:
            metrics.inc(true)
        return result

    return wrapper


def _interval_union(intervals):
    total, end = 0.0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans, name):
    """Self seconds of every span called *name*: its duration minus the
    union of its children's intervals."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    out = []
    for span in spans:
        if span["name"] == name:
            covered = _interval_union(
                (c["ts"], c["ts"] + c["dur"]) for c in children.get(span["id"], ())
            )
            out.append(span["dur"] - covered)
    return out


class Recorder:
    """Installs the wrappers and folds every request's telemetry."""

    def __init__(self):
        self.counters = Counter()
        self.spans = Counter()  # summed seconds / counts from spans
        self.jobs = self.executed = self.cached = self.requests = 0
        self.measure_executed = self.fallbacks = 0
        self.keys = set()
        self.live_stage_threads = 0

    @contextmanager
    def installed(self):
        from repro import advisor
        from repro.core import symbolic
        from repro.core.worlds import World
        from repro.graph.graphdb import GraphDB
        from repro.service import pool, runner
        from repro.service.metrics import METRICS
        from repro.service.trace import TRACER

        def chunk_bytes(map_retrying):
            def wrapper(self, fn, items, *args, **kwargs):
                if fn is pool._eval_chunk:
                    METRICS.inc("bench.chunk.count", len(items))
                    METRICS.inc("bench.chunk.bytes", sum(len(pickle.dumps(i)) for i in items))
                return map_retrying(self, fn, items, *args, **kwargs)

            return wrapper

        def parse_counting(parse):
            def wrapper(text, *args, **kwargs):
                start = time.perf_counter_ns()
                records = parse(text, *args, **kwargs)
                METRICS.inc("bench.parse.ns", time.perf_counter_ns() - start)
                METRICS.inc("bench.parse.jobs", len(records))
                return records

            return wrapper

        from_edges = GraphDB.__dict__["from_edges"].__func__
        patches = [
            (World, "__init__", _counting(METRICS, "world", World.__init__)),
            (World, "satisfies", _counting(METRICS, "oracle", World.satisfies)),
            (
                World,
                "certainly_violated",
                _counting(METRICS, "certain", World.certainly_violated, flag=True),
            ),
            (symbolic, "max_fresh", _counting(METRICS, "max_fresh", symbolic.max_fresh)),
            (runner, "parse_jsonl_lenient", parse_counting(runner.parse_jsonl_lenient)),
            (runner, "job_key", _counting(METRICS, "job_key", runner.job_key)),
            (runner, "advise", _counting(METRICS, "advise", runner.advise)),
            (advisor, "plan_and_run", _counting(METRICS, "witness", advisor.plan_and_run)),
            (pool.WorkerPool, "__init__", _counting(METRICS, "pool_up", pool.WorkerPool.__init__)),
            (pool.WorkerPool, "shutdown", _counting(METRICS, "pool_down", pool.WorkerPool.shutdown)),
            (pool.WorkerPool, "map_retrying", chunk_bytes(pool.WorkerPool.map_retrying)),
            (GraphDB, "from_edges", classmethod(_counting(METRICS, "graph_build", from_edges))),
        ]
        for name in ("bcnf_decompose", "threenf_synthesize", "fournf_decompose"):
            patches.append(
                (advisor, name, _counting(METRICS, "decompose", getattr(advisor, name)))
            )
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        TRACER.reset()
        TRACER.enable()
        try:
            yield self
        finally:
            TRACER.disable()
            TRACER.reset()
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def on_report(self, items, report):
        """Fold one request's report, spans and thread census."""
        from repro.service.trace import TRACER

        self.requests += 1
        self.counters.update(report["metrics"]["counters"])
        for item, result in zip(items, report["results"]):
            self.jobs += 1
            self.keys.add(result.get("key"))
            if result.get("cached"):
                self.cached += 1
                continue
            self.executed += 1
            if item.check in ("exact", "mc"):
                self.measure_executed += 1
                engine = (result.get("value") or {}).get("method")
                wanted = "exact" if item.check == "exact" else "montecarlo"
                self.fallbacks += result["ok"] and engine != wanted
        self.live_stage_threads = max(
            self.live_stage_threads,
            sum(t.name == "repro-budget" and t.is_alive() for t in threading.enumerate()),
        )
        spans = TRACER.drain()
        by_id = {span["id"]: span for span in spans}
        acc = self.spans
        for span in spans:
            name, dur = span["name"], span["dur"]
            acc[f"{name}.n"] += 1
            acc[f"{name}.s"] += dur
            if name == "ric.sweep" and span["attrs"].get("engine") == "exact":
                acc["exact_sweep.s"] += dur
            elif name == "job":
                batch = by_id.get(span["parent"])
                if batch is not None:
                    acc["queue_wait.s"] += span["ts"] - batch["ts"]
        for span in spans:
            if span["name"] == "pool.mc":
                chunks = [s["dur"] for s in spans if s["parent"] == span["id"] and s["name"] == "pool.chunk"]
                acc["pool_overhead.s"] += span["dur"] - max(chunks, default=0.0)
        acc["engine_self.s"] += sum(self_times(spans, "engine_run"))

    def metrics(self):
        """Every per-layer metric except ``trace.overhead_frac``."""
        c, s = self.counters, self.spans

        def per(num, den, scale=1.0):
            return num * scale / den if den else 0.0

        jobs, requests = self.jobs, self.requests
        certain = c["bench.certain.calls"]
        inner_ns = c["bench.oracle.ns"] + c["bench.certain.ns"]
        advise_calls = c["bench.advise.calls"]
        rpq_jobs = c["bench.graph_build.calls"]
        return {
            "core.worlds.built": c["bench.world.calls"],
            "core.worlds.build_us": per(c["bench.world.ns"], c["bench.world.calls"], 1e-3),
            "core.worlds.oracle_calls": c["bench.oracle.calls"],
            "core.worlds.oracle_us": per(c["bench.oracle.ns"], c["bench.oracle.calls"], 1e-3),
            "core.worlds.certain_calls": certain,
            "core.worlds.certain_us": per(c["bench.certain.ns"], certain, 1e-3),
            "core.worlds.prune_frac": per(c["bench.certain.true"], certain),
            "core.patterns.max_fresh_calls": c["bench.max_fresh.calls"],
            "core.patterns.max_fresh_self_s": (c["bench.max_fresh.ns"] - inner_ns) * 1e-9,
            "core.symbolic.worlds": c["ric.sweep.worlds"],
            "core.symbolic.worlds_per_s": per(c["ric.sweep.worlds"], s["exact_sweep.s"]),
            "core.mc.samples": c["ric.mc.samples"],
            "core.mc.sample_us": per(s["mc.chunk.s"], c["ric.mc.samples"], 1e6),
            "service.pool.mc_overhead_ms": per(s["pool_overhead.s"], s["pool.mc.n"], 1e3),
            "service.pool.chunk_bytes": per(c["bench.chunk.bytes"], c["bench.chunk.count"]),
            "service.pool.spinup_ms": per(
                c["bench.pool_up.ns"] + c["bench.pool_down.ns"], requests, 1e-6
            ),
            "engine.plan_calls_per_job": per(c["planner.plans"], jobs),
            "engine.plan_us": per(s["plan.s"], s["plan.n"], 1e6),
            "engine.cache_hits": c["planner.cache_hits"],
            "engine.run_overhead_us": per(s["engine_self.s"], s["engine_run.n"], 1e6),
            "service.jobs.parse_us_per_job": per(c["bench.parse.ns"], c["bench.parse.jobs"], 1e-3),
            "service.jobs.key_calls_per_job": per(c["bench.job_key.calls"], jobs),
            "service.jobs.key_us_per_job": per(c["bench.job_key.ns"], jobs, 1e-3),
            "service.cache.hit_frac": per(self.cached, jobs),
            "service.cache.exec_per_distinct": per(self.executed, len(self.keys)),
            "service.runner.queue_wait_ms": per(s["queue_wait.s"], s["job.n"], 1e3),
            "service.budget.timeouts": c["budget.timeouts"],
            "service.budget.degradations": c["budget.degradations"],
            "service.budget.live_stage_threads": self.live_stage_threads,
            "service.budget.fallback_frac": per(self.fallbacks, self.measure_executed),
            "advisor.syntactic_ms": per(
                c["bench.advise.ns"] - c["bench.witness.ns"], advise_calls, 1e-6
            ),
            "normalforms.decompose_ms": per(c["bench.decompose.ns"], advise_calls, 1e-6),
            "chase.runs": c["chase.runs"],
            "chase.steps": c["chase.steps"],
            "graph.build_ms": per(c["bench.graph_build.ns"], rpq_jobs, 1e-6),
            "graph.rpq_ms": per(s["rpq.search.s"], rpq_jobs, 1e3),
            "graph.rpq_expansions": c["rpq.expansions"],
        }
