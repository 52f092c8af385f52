"""Atomic JSONL checkpointing of completed batch results.

A :class:`Checkpoint` makes a batch run **kill-safe**: as each job
completes, its result entry is appended (one JSON object per line,
flushed and fsynced) so a SIGKILL mid-batch loses at most the job that
was in flight.  ``python -m repro batch --resume PATH`` reloads the file
and skips every checkpointed job; because the runtime's estimators are
deterministic, the resumed results are bit-identical to the
uninterrupted run.

Two properties make the file a stable artifact rather than a scratch log:

- **torn-tail tolerance** — a kill can leave a partial final line;
  :meth:`Checkpoint.load` skips undecodable lines (counting them) instead
  of failing, which is exactly the recovery the append-and-fsync
  protocol promises;
- **atomic compaction** — when a batch finishes, :meth:`Checkpoint.finalize`
  rewrites the file in *input order* via tempfile + ``os.replace``, so
  the completed checkpoint is a deterministic, byte-reproducible JSONL
  rendering of the batch results (completion order, which varies with
  thread scheduling, never leaks into the final bytes).

Entries are stored through :func:`checkpoint_entry`, which drops
wall-clock fields — the one nondeterministic component of a result —
so ``uninterrupted run == kill + resume`` holds at the byte level.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from typing import Dict, Iterable, Optional

from repro.service.metrics import CHECKPOINTS_WRITTEN, METRICS
from repro.service.trace import TRACER

#: Result-entry fields excluded from checkpoints: wall-clock timing and
#: resume provenance vary between runs; everything else is deterministic.
VOLATILE_FIELDS = ("seconds", "resumed")


def checkpoint_entry(entry: dict) -> dict:
    """The deterministic projection of a result entry."""
    return {k: v for k, v in entry.items() if k not in VOLATILE_FIELDS}


def _dumps(record: dict) -> str:
    return json.dumps(
        record, sort_keys=True, separators=(",", ":"), default=str
    )


class Checkpoint:
    """Append-through, atomically-compacted JSONL result storage."""

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._handle = None
        #: Lines skipped by :meth:`load` (torn tail, garbage).
        self.skipped_lines = 0

    # ------------------------------------------------------------------
    # reading (resume)
    # ------------------------------------------------------------------

    def load(self) -> Dict[str, dict]:
        """The ``job_key -> entry`` map of checkpointed results.

        Missing file means a fresh start (empty map).  Undecodable or
        structurally wrong lines are skipped and counted — the torn tail
        a kill leaves behind must never poison the resume.
        """
        entries: Dict[str, dict] = {}
        self.skipped_lines = 0
        if not os.path.exists(self.path):
            return entries
        with open(self.path, "r", encoding="utf-8") as handle:
            text = handle.read()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                self.skipped_lines += 1
                continue
            if (
                not isinstance(record, dict)
                or not isinstance(record.get("key"), str)
                or not isinstance(record.get("entry"), dict)
            ):
                self.skipped_lines += 1
                continue
            entries[record["key"]] = record["entry"]
        return entries

    # ------------------------------------------------------------------
    # writing (during and after the run)
    # ------------------------------------------------------------------

    def append(self, key: str, entry: dict) -> None:
        """Durably record one completed result (flush + fsync)."""
        line = _dumps({"key": key, "entry": checkpoint_entry(entry)})
        with TRACER.span("checkpoint.append", key=key[:16]):
            with self._lock:
                if self._handle is None:
                    self._handle = open(self.path, "a", encoding="utf-8")
                self._handle.write(line + "\n")
                self._handle.flush()
                os.fsync(self._handle.fileno())
        METRICS.inc(CHECKPOINTS_WRITTEN)

    def finalize(self, entries: Iterable[dict]) -> None:
        """Atomically rewrite the file from *entries* (input order).

        ``entries`` are result entries carrying their ``key``; the
        rewrite goes through a tempfile in the same directory and an
        ``os.replace``, so a crash during compaction leaves either the
        old file or the new one — never a mix.
        """
        lines = [
            _dumps({"key": entry["key"], "entry": checkpoint_entry(entry)})
            for entry in entries
        ]
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            directory = os.path.dirname(os.path.abspath(self.path))
            fd, tmp = tempfile.mkstemp(
                prefix=".checkpoint-", suffix=".tmp", dir=directory
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write("".join(line + "\n" for line in lines))
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, self.path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        METRICS.inc(CHECKPOINTS_WRITTEN)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "Checkpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def truncate(path: str) -> None:
    """Start a checkpoint file fresh (explicit non-resume runs)."""
    open(path, "w", encoding="utf-8").close()
