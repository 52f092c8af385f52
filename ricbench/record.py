"""Record the reference outputs of every catalog entry into refs.json.

Run from the repository root on the commit whose outputs are the
reference (it was recorded on the commit that introduced the
benchmark)::

    python3 ricbench/record.py

Every entry is measured at its base values through ``run_batch``; the
benchmark later compares renamed copies against these values.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
from repro.service.runner import run_batch  # noqa: E402

REFS = HERE / "refs.json"


def base_jobs(cat):
    """(entry id, check kind, job) for everything a workload can send."""
    mc_ids = set(gen.MIX_MC) | {
        eid for cls in gen.MC_MIX for eid in gen._ids(cls)
    }
    for eid, entry in cat.items():
        if eid.startswith("graph/"):
            job = {k: entry[k] for k in ("edges", "query", "source")}
            yield eid, "rpq", dict(job, kind="rpq")
        elif eid.startswith("design/"):
            yield eid, "advise", {
                "kind": "advise",
                "design": entry["design"],
                "measure": entry["measure"],
            }
        else:
            shape = gen.CLASSES[eid.split("/")[0]]
            if shape.positions <= 12 and eid != "mvd12/0":
                yield eid, "exact", dict(_measure(entry), method="exact")
            if eid in mc_ids:
                yield eid, "mc", dict(
                    _measure(entry),
                    method="montecarlo",
                    samples=entry["samples"],
                    seed=entry["seed"],
                )


def _measure(entry):
    return {
        "kind": "measure",
        "design": entry["design"],
        "rows": entry["rows"],
        "position": entry["position"],
    }


def main() -> int:
    checks.pin_hash_seed()
    cat = gen.catalog()
    jobs = list(base_jobs(cat))
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        path = os.path.join(tmp, "all.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            for eid, check, job in jobs:
                handle.write(json.dumps(dict(job, id=f"{check}:{eid}")) + "\n")
        report = run_batch(path, workers=2)
    refs = {}
    for (eid, check, _job), result in zip(jobs, report["results"]):
        if not result["ok"]:
            print(f"{eid}: {result['error']}", file=sys.stderr)
            return 1
        value = json.loads(json.dumps(result["value"]))
        slot = refs.setdefault(eid, {"digest": gen.entry_digest(cat[eid])})
        slot[check] = value
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(jobs)} outputs of {len(refs)} entries to {REFS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
