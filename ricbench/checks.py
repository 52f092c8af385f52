"""Output checks against the paper's values and the recorded references.

Every job of a request is checked; a job that failed, or whose output
differs from its expected value, counts against ``correct_frac``:

- exact values equal the recorded reference of their catalog entry and,
  where the paper gives one, the theory value (1 on BCNF/4NF designs,
  7/8 for the running example);
- Monte-Carlo means equal the recorded mean bit for bit (the estimator
  is deterministic in ``(samples, seed)``);
- advisor reports equal the recorded report;
- RPQ answers equal the recorded answer under the job's node renaming;
- a cached result equals the first uncached result with the same key.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, Optional

import gen

REFS = Path(__file__).resolve().parent / "refs.json"


def pin_hash_seed() -> None:
    """Re-execute this interpreter with ``PYTHONHASHSEED=0``.

    The advisor's decompositions follow set iteration order, so under
    another hash seed some designs get other, equally valid fragments,
    or the same fragments in another order; the references were
    recorded under seed 0.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


def load_refs(cat: Dict[str, dict]) -> Dict[str, dict]:
    """The recorded references, refusing any whose catalog entry has
    changed since recording."""
    refs = json.loads(REFS.read_text())
    for eid, ref in refs.items():
        if ref["digest"] != gen.entry_digest(cat[eid]):
            raise SystemExit(f"refs.json is stale for {eid}; rerun ricbench/record.py")
    return refs


def expected(item: gen.Item, refs: Dict[str, dict], cat: Dict[str, dict]):
    """The value a correct program returns for *item*."""
    ref = refs[item.entry][item.check]
    if item.check == "rpq":
        rename = gen.node_renaming(cat[item.entry], item.variant)
        return {
            "source": rename(ref["source"]),
            "reachable": sorted((rename(n) for n in ref["reachable"]), key=repr),
            "count": ref["count"],
        }
    return ref


def check(item: gen.Item, result: dict, refs, cat, first_seen: dict) -> Optional[str]:
    """Why *result* is wrong for *item*, or None when it is right."""
    if not result.get("ok"):
        return f"failed: {result.get('error')}"
    value = json.loads(json.dumps(result["value"]))
    key = result["key"]
    if result.get("cached"):
        if key in first_seen and first_seen[key] != value:
            return "cached result differs from its uncached counterpart"
    else:
        first_seen.setdefault(key, value)
    want = expected(item, refs, cat)
    if item.check == "exact":
        theory = cat[item.entry]["theory"]
        if theory is not None and Fraction(value["fraction"]) != Fraction(theory):
            return f"exact {value['fraction']} != theory {theory}"
        if value["fraction"] != want["fraction"]:
            return f"exact {value['fraction']} != reference {want['fraction']}"
        return None
    if item.check == "mc":
        if (value["mean"], value["samples"]) != (want["mean"], want["samples"]):
            return f"mean {value['mean']!r} != reference {want['mean']!r}"
        return None
    if value != want:
        return f"{item.check} output differs from the reference"
    return None
