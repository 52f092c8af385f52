"""The RIC benchmark: closed-loop batch workloads through ``run_batch``.

Usage, from the repository root::

    python3 ricbench/run.py --workload exact-sweep --seed 1 --seconds 30 --trace 0

One client sends one request — a ``run_batch`` call on a JSONL job
file written before timing starts — waits for its report, then sends
the next, until ``--seconds`` have passed at the end of a round.  Every
output is checked (see ``checks.py``).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs a fixed number of rounds twice,
untraced and then traced with the layer wrappers of ``layers.py``, and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark times the program from outside: it reads the clock and
``resource.getrusage`` around public calls and uses nothing of
``repro.perf`` or ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402

WORKERS = 2

#: Rounds written before timing; a run stops early if it uses them all.
MAX_ROUNDS = {"exact-sweep": 12, "mc-sharded": 40, "service-mix": 24}

#: Rounds of each pass of a traced run, per 10 s of ``--seconds``.
TRACE_ROUNDS_PER_10S = {"exact-sweep": 0.7, "mc-sharded": 2.0, "service-mix": 1.5}

SETUP_REPEATS = 7

#: A timed run sends at least this many requests, so that at least ten
#: lie beyond the p90.
MIN_REQUESTS = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "req_p50_s": "s",
    "req_p90_s": "s",
    "cpu_s_per_job": "s",
    "peak_rss_mb": "MB",
    "correct_frac": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def write_requests(workload, seed, rounds, directory, cat):
    """Generate *rounds* rounds and write one JSONL file per request.
    Returns ``[[(path, items), ...], ...]`` by round."""
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    written = []
    for r, requests in enumerate(gen.build(workload, seed, rounds, cat)):
        paths = []
        for k, items in enumerate(requests):
            path = directory / f"r{r:03d}-{k:03d}.jsonl"
            with open(path, "w", encoding="utf-8") as handle:
                for item in items:
                    record = gen.job(item, cat)
                    handle.write(json.dumps(record, separators=(",", ":")) + "\n")
            paths.append((str(path), items))
        written.append(paths)
    os.sync()  # no writeback of the request files during the timed phase
    return written


def measure_setup():
    """Median over fresh interpreters of the time to import the batch
    runner (with it the engine registry, advisor and service layer)."""
    code = (
        "import time; t = time.perf_counter(); import repro.service.runner; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for attempt in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        if attempt:  # the first import also compiles the bytecode cache
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Client:
    """The closed-loop client: one ``run_batch`` call per request."""

    def __init__(self, workload):
        from repro.service.cache import ResultCache
        from repro.service.runner import run_batch

        self.run_batch = run_batch
        self.processes = workload == "mc-sharded"
        self.cache = ResultCache() if workload == "service-mix" else None

    def send(self, path):
        return self.run_batch(
            path, workers=WORKERS, cache=self.cache, use_processes=self.processes
        )


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_pass(client, rounds, seconds=None, on_report=None):
    """Send the requests of *rounds* in order; with *seconds*, stop at
    the first round end after that many seconds and ``MIN_REQUESTS``
    requests.  Returns per-request
    latencies, ``(items, results)`` pairs and per-round ``(requests,
    wall seconds, CPU seconds)``."""
    latencies, outputs, spans = [], [], []
    start = time.perf_counter()
    for paths in rounds:
        round_start, round_cpu = time.perf_counter(), cpu_seconds()
        for path, items in paths:
            sent = time.perf_counter()
            report = client.send(path)
            latencies.append(time.perf_counter() - sent)
            outputs.append((items, report["results"]))  # not the metrics
            if on_report is not None:
                on_report(items, report)
        now = time.perf_counter()
        spans.append((len(paths), now - round_start, cpu_seconds() - round_cpu))
        if seconds is not None and now - start >= seconds and len(latencies) >= MIN_REQUESTS:
            break
    return latencies, outputs, spans


def check_outputs(outputs, refs, cat):
    """``(jobs, failures)`` over every job of *outputs*."""
    first_seen, failures, jobs = {}, [], 0
    for items, results in outputs:
        for item, result in zip(items, results):
            jobs += 1
            problem = checks.check(item, result, refs, cat, first_seen)
            if problem is not None:
                failures.append(f"{item.id} ({item.entry}): {problem}")
    return jobs, failures


def end_to_end(latencies, outputs, rounds, failed):
    """The end-to-end metrics of one pass.  Rates and CPU per job are
    medians over rounds (every round does the same work), which keeps a
    burst of load from other processes on the host out of the figure."""
    attempted = sum(len(items) for items, _ in outputs)
    per_round, i = [], 0
    for requests, wall, cpu in rounds:
        n = sum(len(items) for items, _ in outputs[i : i + requests])
        per_round.append((n / wall, cpu / n))
        i += requests
    return {
        "jobs_per_s": statistics.median(r for r, _ in per_round) * (attempted - failed) / attempted,
        "req_p50_s": statistics.median(latencies),
        "req_p90_s": statistics.quantiles(latencies, n=10)[-1],
        "cpu_s_per_job": statistics.median(c for _, c in per_round),
        "peak_rss_mb": peak_rss_mb(),
        "correct_frac": (attempted - failed) / attempted,
    }


def print_table(title, metrics, units):
    print(title)
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")


def emit(metrics, units, attempted, failures):
    """Print the failures and, as the last line, the JSON result."""
    for line in failures[:20]:
        print("FAILED", line)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))


def main(argv=None):
    args = parse_args(argv)
    checks.pin_hash_seed()
    if not (SRC / "repro" / "service" / "runner.py").is_file():
        print(f"error: the program is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cat = gen.catalog()
    refs = checks.load_refs(cat)
    directory = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            trace_rounds = max(
                1, round(args.seconds / 10 * TRACE_ROUNDS_PER_10S[args.workload])
            )
            rounds = write_requests(
                args.workload, args.seed, trace_rounds, directory, cat
            )
            return traced_run(args, rounds, refs, cat)
        rounds = write_requests(
            args.workload, args.seed, MAX_ROUNDS[args.workload], directory, cat
        )
        setup = measure_setup()
        client = Client(args.workload)
        warm = Client(args.workload)  # own cache: the warm-up hits nothing later
        warm.send(rounds[0][0][0])
        latencies, outputs, spans = run_pass(client, rounds, args.seconds)
        jobs, failures = check_outputs(outputs, refs, cat)
        metrics = {"setup_s": setup}
        metrics.update(end_to_end(latencies, outputs, spans, len(failures)))
        print(
            f"{args.workload}: seed {args.seed}, {len(latencies)} requests, "
            f"{jobs} jobs, {len(spans)} rounds, {sum(w for _, w, _ in spans):.2f} s timed"
        )
        print_table("end-to-end", metrics, END_TO_END_UNITS)
        emit(metrics, END_TO_END_UNITS, jobs, failures)
        return 0
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def traced_run(args, rounds, refs, cat):
    """Untraced then traced pass over the same fixed rounds."""
    import layers

    Client(args.workload).send(rounds[0][0][0])  # warm-up
    latencies, outputs, spans = run_pass(Client(args.workload), rounds)
    jobs, failures = check_outputs(outputs, refs, cat)
    plain = end_to_end(latencies, outputs, spans, len(failures))

    recorder = layers.Recorder()
    with recorder.installed():
        t_lat, t_out, t_spans = run_pass(
            Client(args.workload), rounds, on_report=recorder.on_report
        )
    t_jobs, t_failures = check_outputs(t_out, refs, cat)
    failures += t_failures
    metrics = recorder.metrics()
    plain_wall = sum(w for _, w, _ in spans)
    traced_wall = sum(w for _, w, _ in t_spans)
    metrics["trace.overhead_frac"] = 1.0 - plain_wall / traced_wall
    print(
        f"{args.workload}: seed {args.seed}, traced run of {len(rounds)} rounds, "
        f"{len(t_lat)} requests, {t_jobs} jobs per pass"
    )
    print_table("end-to-end (untraced pass)", plain, END_TO_END_UNITS)
    print_table("per-layer (traced pass)", metrics, layers.UNITS)
    emit(metrics, layers.UNITS, jobs + t_jobs, failures)
    return 0


if __name__ == "__main__":
    sys.exit(main())
