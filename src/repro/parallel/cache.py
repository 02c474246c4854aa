"""Content-addressed result cache for simulation campaigns.

A sweep replays one trace under many configurations; re-running the
sweep after editing *one* axis recomputes every cell.  This cache makes
re-runs incremental: each completed simulation is stored under a
BLAKE2b key derived from everything that determines its outcome —

* the **trace digest** (:func:`repro.sanitize.digest.trace_digest` —
  the columnar content hash of the replayed trace,
  :meth:`repro.core.columns.TraceColumns.digest`),
* the **scheduler identity** (registry kind, name, constructor kwargs),
* the **engine configuration** (slot counts, slow-start, task
  recording, preemption) plus a cache schema / package version salt.

Replays are deterministic (the repo's determinism contract, enforced by
simlint and simsan), so equal keys imply equal results — a lookup *is*
a re-execution.  Storage is a single sqlite3 file (same idiom as
:class:`repro.trace.database.TraceDatabase`): rows are committed one by
one as runs finish, which is what makes an interrupted sweep resumable
for free — the completed cells are already on disk, and the re-run only
executes the rest.

The stored payload is the :func:`repro.core.results_io.result_to_dict`
document, including the run's event-stream digest, so a restored
:class:`~repro.core.results.SimulationResult` is verifiably identical
to a fresh execution (compare ``event_digest``).
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from hashlib import blake2b
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional

from ..core.results import SimulationResult
from ..core.results_io import result_from_dict, result_to_dict

__all__ = ["ResultCache", "CacheStats", "cache_key", "default_cache_path"]

#: Bump to invalidate every stored entry (schema or semantic change in
#: what a cached simulation means).
CACHE_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    key          TEXT PRIMARY KEY,
    trace_digest TEXT NOT NULL,
    scheduler    TEXT NOT NULL,
    config       TEXT NOT NULL,
    payload      TEXT NOT NULL,
    created_at   INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_results_trace ON results (trace_digest);
"""

#: SQL expression for "now" (unix seconds).  Timestamps are assigned by
#: sqlite, not Python — store-maintenance bookkeeping, never simulation
#: input, so the determinism contract (no wall-clock in sim code) holds.
_SQL_NOW = "CAST(strftime('%s','now') AS INTEGER)"


def default_cache_path() -> Path:
    """Default on-disk location of the sweep result cache.

    ``$SIMMR_CACHE_DIR/results.sqlite`` when the environment variable is
    set, else ``~/.cache/simmr/results.sqlite``.
    """
    root = os.environ.get("SIMMR_CACHE_DIR")
    base = Path(root) if root else Path.home() / ".cache" / "simmr"
    return base / "results.sqlite"


def cache_key(
    trace_digest: str,
    scheduler_id: str,
    engine_config: Mapping[str, Any],
) -> str:
    """The content address of one simulation run.

    ``engine_config`` must contain every engine knob that can change the
    result; it is canonicalized (sorted keys, compact JSON) before
    hashing, and salted with the cache schema and package versions so an
    engine behaviour change cannot resurrect stale entries.
    """
    # Deferred import: repro/__init__ imports the sweep layers, so the
    # package version is not yet bound while this module first loads.
    from .. import __version__

    config_json = json.dumps(dict(engine_config), sort_keys=True, separators=(",", ":"))
    h = blake2b(digest_size=16)
    for part in (
        f"simmr-cache-v{CACHE_SCHEMA_VERSION}",
        __version__,
        trace_digest,
        scheduler_id,
        config_json,
    ):
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


class CacheStats:
    """Hit/miss/store counters for one cache session."""

    __slots__ = ("hits", "misses", "stores")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stores = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 with no lookups)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheStats(hits={self.hits}, misses={self.misses}, stores={self.stores})"


class ResultCache:
    """sqlite3-backed content-addressed store of simulation results.

    Usable as a context manager::

        with ResultCache(path) as cache:
            result = cache.get(key)
            if result is None:
                result = engine.run(trace)
                cache.put(key, result, trace_digest=td, scheduler_id=sid)

    Every ``put`` commits immediately, so partial sweeps survive
    interruption.  ``":memory:"`` gives a process-local cache (tests).

    One instance may be shared across threads (the simulation service
    fronts its job queue with a cache that every HTTP handler thread
    and worker consults): all statement execution is serialized behind
    an internal lock, which is cheap next to the simulations it saves.
    """

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        with self._lock:
            self._conn.executescript(_SCHEMA)
            self._migrate()
            self._conn.commit()
        #: Counters for this session (not persisted).
        self.stats = CacheStats()

    def _migrate(self) -> None:
        """Bring a pre-``created_at`` cache file up to the current table.

        ``CREATE TABLE IF NOT EXISTS`` leaves an existing table alone,
        so files written before the timestamp column exist without it;
        add it in place (existing rows read as 0 = "age unknown", which
        every prune treats as prunable).  Takes the (reentrant) instance
        lock itself rather than relying on the caller already holding it.
        """
        with self._lock:
            columns = {
                row[1]
                for row in self._conn.execute("PRAGMA table_info(results)").fetchall()
            }
            if "created_at" not in columns:
                self._conn.execute(
                    "ALTER TABLE results ADD COLUMN created_at INTEGER NOT NULL DEFAULT 0"
                )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- lookups -----------------------------------------------------------

    def get(self, key: str) -> Optional[SimulationResult]:
        """The stored result under ``key``, or None (counted as a miss).

        A row whose payload no longer parses (truncated write, format
        change) is treated as absent and deleted, so a corrupt entry
        costs one re-execution instead of a crash.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM results WHERE key = ?", (key,)
            ).fetchone()
            if row is None:
                self.stats.misses += 1
                return None
            try:
                result = result_from_dict(json.loads(row[0]))
            except (ValueError, KeyError, TypeError):
                self.delete(key)
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            return result

    def contains(self, key: str) -> bool:
        """Whether ``key`` is stored (does not touch the stats)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM results WHERE key = ?", (key,)
            ).fetchone()
        return row is not None

    # -- mutation ----------------------------------------------------------

    def put(
        self,
        key: str,
        result: SimulationResult,
        *,
        trace_digest: str = "",
        scheduler_id: str = "",
    ) -> None:
        """Store (or overwrite) a result; committed immediately."""
        payload = json.dumps(result_to_dict(result))
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO results"
                " (key, trace_digest, scheduler, config, payload, created_at)"
                f" VALUES (?, ?, ?, ?, ?, {_SQL_NOW})",
                (key, trace_digest, scheduler_id, "", payload),
            )
            self._conn.commit()
            self.stats.stores += 1

    def delete(self, key: str) -> None:
        with self._lock:
            self._conn.execute("DELETE FROM results WHERE key = ?", (key,))
            self._conn.commit()

    def clear(self) -> int:
        """Drop every stored result; returns the number removed."""
        with self._lock:
            cur = self._conn.execute("DELETE FROM results")
            self._conn.commit()
            removed = cur.rowcount
            cur.close()
            return removed

    def prune_older_than(self, seconds: float) -> int:
        """Delete entries stored more than ``seconds`` ago; returns the count.

        The age comparison happens entirely in SQL against sqlite's
        clock (the same clock that stamped the rows), so there is no
        cross-clock skew.  Rows from pre-timestamp cache files carry
        ``created_at = 0`` and are always pruned — their age is unknown,
        and a deleted entry only costs one deterministic re-execution.
        """
        if seconds < 0:
            raise ValueError("prune age must be >= 0 seconds")
        with self._lock:
            # Inclusive comparison: an entry exactly at the threshold is
            # pruned, so ``prune_older_than(0)`` empties the store even
            # for rows written this same second.
            cur = self._conn.execute(
                f"DELETE FROM results WHERE created_at <= {_SQL_NOW} - ?",
                (int(seconds),),
            )
            self._conn.commit()
            removed = cur.rowcount
            cur.close()
            return removed

    # -- introspection -----------------------------------------------------

    def info(self) -> dict[str, Any]:
        """One-shot summary of the store (the ``simmr cache stats`` view)."""
        with self._lock:
            entries, traces, schedulers, payload_bytes = self._conn.execute(
                "SELECT COUNT(*), COUNT(DISTINCT trace_digest),"
                " COUNT(DISTINCT scheduler),"
                " COALESCE(SUM(LENGTH(CAST(payload AS BLOB))), 0) FROM results"
            ).fetchone()
            oldest_age, newest_age = self._conn.execute(
                f"SELECT {_SQL_NOW} - MIN(created_at), {_SQL_NOW} - MAX(created_at)"
                " FROM results WHERE created_at > 0"
            ).fetchone()
        file_bytes = 0
        if self.path != ":memory:":
            try:
                file_bytes = os.stat(self.path).st_size
            except OSError:
                pass
        return {
            "path": self.path,
            "entries": entries,
            "distinct_traces": traces,
            "distinct_schedulers": schedulers,
            "payload_bytes": payload_bytes,
            "file_bytes": file_bytes,
            "oldest_age_seconds": oldest_age,
            "newest_age_seconds": newest_age,
            "session": self.stats.to_dict(),
        }

    def __len__(self) -> int:
        with self._lock:
            return self._conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]

    def keys(self) -> Iterator[str]:
        with self._lock:
            rows = self._conn.execute("SELECT key FROM results ORDER BY key").fetchall()
        for (key,) in rows:
            yield key
