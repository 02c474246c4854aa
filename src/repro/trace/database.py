"""The Trace Database: persistent storage of job templates and traces.

Paper Section III-A: "We store job traces persistently in a Trace database
(for efficient lookup and storage) using a job template."

Backed by sqlite3 (stdlib) with two tables:

* ``profiles`` — job templates, keyed by ``(application, execution)`` so
  multiple recorded executions of the same application coexist (the
  Section II analysis compares five executions per application);
* ``traces`` — named replayable traces; each row stores submit time,
  deadline and a reference into ``profiles``.

Durations are stored as JSON arrays inside the row — profiles are a few
hundred floats, and keeping the row self-contained makes the database a
single portable file.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path
from typing import Optional, Sequence

from ..core.job import JobProfile, TraceJob
from .schema import profile_from_dict, profile_to_dict

__all__ = ["TraceDatabase"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS profiles (
    id          INTEGER PRIMARY KEY,
    application TEXT NOT NULL,
    execution   INTEGER NOT NULL,
    num_maps    INTEGER NOT NULL,
    num_reduces INTEGER NOT NULL,
    payload     TEXT NOT NULL,
    UNIQUE (application, execution)
);
CREATE INDEX IF NOT EXISTS idx_profiles_app ON profiles (application);
CREATE TABLE IF NOT EXISTS traces (
    id          INTEGER PRIMARY KEY,
    name        TEXT NOT NULL,
    position    INTEGER NOT NULL,
    submit_time REAL NOT NULL,
    deadline    REAL,
    profile_id  INTEGER NOT NULL REFERENCES profiles (id),
    UNIQUE (name, position)
);
CREATE INDEX IF NOT EXISTS idx_traces_name ON traces (name);
"""


class TraceDatabase:
    """A sqlite3-backed store of job templates and replayable traces.

    Usable as a context manager::

        with TraceDatabase("cluster.db") as db:
            db.add_profile(profile, execution=0)
            trace = db.load_trace("april-mix")
    """

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = str(path)
        self._conn = sqlite3.connect(self.path)
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "TraceDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- profiles ----------------------------------------------------------

    def add_profile(self, profile: JobProfile, execution: int = 0) -> int:
        """Store one execution's job template; returns its row id.

        Raises :class:`ValueError` if ``(application, execution)`` already
        exists — use a fresh execution index per recorded run.
        """
        payload = json.dumps(profile_to_dict(profile))
        try:
            cur = self._conn.execute(
                "INSERT INTO profiles (application, execution, num_maps, num_reduces, payload)"
                " VALUES (?, ?, ?, ?, ?)",
                (profile.name, execution, profile.num_maps, profile.num_reduces, payload),
            )
        except sqlite3.IntegrityError:
            raise ValueError(
                f"profile for application {profile.name!r} execution {execution} already stored"
            ) from None
        row_id = cur.lastrowid
        cur.close()
        self._conn.commit()
        assert row_id is not None
        return row_id

    def get_profile(self, application: str, execution: int = 0) -> JobProfile:
        """Load one stored execution of an application."""
        row = self._conn.execute(
            "SELECT payload FROM profiles WHERE application = ? AND execution = ?",
            (application, execution),
        ).fetchone()
        if row is None:
            raise KeyError(f"no profile for application {application!r} execution {execution}")
        return profile_from_dict(json.loads(row[0]))

    def executions_of(self, application: str) -> list[int]:
        """Stored execution indices of an application, ascending."""
        rows = self._conn.execute(
            "SELECT execution FROM profiles WHERE application = ? ORDER BY execution",
            (application,),
        ).fetchall()
        return [r[0] for r in rows]

    def applications(self) -> list[str]:
        """Distinct application names, sorted."""
        rows = self._conn.execute(
            "SELECT DISTINCT application FROM profiles ORDER BY application"
        ).fetchall()
        return [r[0] for r in rows]

    # -- traces --------------------------------------------------------------

    def save_trace(self, name: str, trace: Sequence[TraceJob]) -> None:
        """Persist a replayable trace under ``name``.

        Each job's profile is stored (or reused if an identical
        ``(application, execution)`` template is already present — the
        execution index is allocated by content match, so saving the same
        trace twice does not duplicate profiles).
        """
        if self.trace_names().count(name):
            raise ValueError(f"trace {name!r} already stored")
        rows = []
        for pos, job in enumerate(trace):
            payload = json.dumps(profile_to_dict(job.profile))
            pid = self._find_profile_by_payload(job.profile.name, payload)
            if pid is None:
                execution = self._next_execution(job.profile.name)
                cur = self._conn.execute(
                    "INSERT INTO profiles (application, execution, num_maps, num_reduces, payload)"
                    " VALUES (?, ?, ?, ?, ?)",
                    (
                        job.profile.name,
                        execution,
                        job.profile.num_maps,
                        job.profile.num_reduces,
                        payload,
                    ),
                )
                pid = cur.lastrowid
                cur.close()
            rows.append((name, pos, job.submit_time, job.deadline, pid))
        self._conn.executemany(
            "INSERT INTO traces (name, position, submit_time, deadline, profile_id)"
            " VALUES (?, ?, ?, ?, ?)",
            rows,
        )
        self._conn.commit()

    def _find_profile_by_payload(self, application: str, payload: str) -> Optional[int]:
        row = self._conn.execute(
            "SELECT id FROM profiles WHERE application = ? AND payload = ?",
            (application, payload),
        ).fetchone()
        return None if row is None else row[0]

    def _next_execution(self, application: str) -> int:
        row = self._conn.execute(
            "SELECT COALESCE(MAX(execution), -1) + 1 FROM profiles WHERE application = ?",
            (application,),
        ).fetchone()
        return row[0]

    def load_trace(self, name: str) -> list[TraceJob]:
        """Rebuild a stored trace in submission order."""
        rows = self._conn.execute(
            "SELECT t.submit_time, t.deadline, p.payload FROM traces t"
            " JOIN profiles p ON p.id = t.profile_id"
            " WHERE t.name = ? ORDER BY t.position",
            (name,),
        ).fetchall()
        if not rows:
            raise KeyError(f"no trace named {name!r}")
        return [
            TraceJob(
                profile=profile_from_dict(json.loads(payload)),
                submit_time=submit,
                deadline=deadline,
            )
            for submit, deadline, payload in rows
        ]

    def trace_names(self) -> list[str]:
        """Distinct stored trace names, sorted."""
        rows = self._conn.execute("SELECT DISTINCT name FROM traces ORDER BY name").fetchall()
        return [r[0] for r in rows]

    def delete_trace(self, name: str) -> None:
        """Remove a stored trace (its profiles stay available)."""
        cur = self._conn.execute("DELETE FROM traces WHERE name = ?", (name,))
        deleted = cur.rowcount
        cur.close()
        if deleted == 0:
            raise KeyError(f"no trace named {name!r}")
        self._conn.commit()
