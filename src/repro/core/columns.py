"""Columnar task-profile storage: one buffer, many zero-copy views.

A trace is logically a list of :class:`~repro.core.job.TraceJob`, each
carrying four per-phase duration vectors.  Moving that representation
between processes (the parallel executor), off disk (the binary trace
format) or through a service cache as per-job Python objects costs a
full pickle/parse per copy.  :class:`TraceColumns` is the columnar
alternative: all duration vectors of all jobs live back-to-back in a
single contiguous float64 buffer, with small per-job metadata columns
(``array`` module vectors) describing where each phase's span sits.

The crucial property is that the buffer never needs to be owned by this
process: it can be an in-process ``array('d')``, an ``mmap`` of a
binary trace file, or a ``multiprocessing.shared_memory`` segment —
:meth:`TraceColumns.jobs` rebuilds :class:`~repro.core.job.TraceJob`
objects whose :class:`~repro.core.job.JobProfile` arrays are *views*
into that buffer (``numpy.frombuffer``), so "parsing" a trace the
second time is O(jobs), not O(task durations), and N workers mapping
the same segment share one physical copy of the durations.

Schedulers, the engine and the results layer are unchanged: a view-built
``TraceJob`` is indistinguishable from a loaded one (same types, same
bit-exact float64 durations).

:meth:`TraceColumns.digest` is the trace's one content identity: every
format (JSON, ``.simmr`` bytes or mapped file, sqlite) reaches it by
way of these columns, and
:func:`~repro.sanitize.digest.trace_digest` is a thin alias for it.
"""

from __future__ import annotations

import math
import struct
from array import array
from hashlib import blake2b
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .job import JobProfile, TraceJob

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .cluster import ClusterConfig
    from .job import Job

__all__ = ["SchedulerColumns", "TraceColumns", "PHASES"]

#: The four duration phases, in their storage order within each job's
#: span table (and within the binary trace format's job records).
PHASES = ("map", "first_shuffle", "typical_shuffle", "reduce")

#: ``depends_on`` column value meaning "no dependency".
_NO_DEP = -1

#: Per-job digest record: submit time, stored deadline (NaN = none),
#: depends_on, map count, reduce count, name length in bytes.
_DIGEST_JOB = struct.Struct("<ddqqqQ")
_DIGEST_LEN = struct.Struct("<Q")


def _phase_arrays(profile: JobProfile) -> tuple[np.ndarray, ...]:
    return (
        profile.map_durations,
        profile.first_shuffle_durations,
        profile.typical_shuffle_durations,
        profile.reduce_durations,
    )


class TraceColumns:
    """Array-backed columnar form of a replayable trace.

    Columns (all little arrays, one entry per job):

    * ``names`` — job/application names;
    * ``submit_times`` (``array('d')``), ``deadlines`` (``array('d')``,
      NaN encodes "no deadline"), ``depends_on`` (``array('q')``, -1
      encodes "no dependency");
    * ``num_maps`` / ``num_reduces`` (``array('q')``);
    * ``spans`` (``array('Q')``, 8 entries per job) — ``(offset,
      length)`` pairs into :attr:`data` for each of the four
      :data:`PHASES`, in float64 units.

    ``data`` is any object exposing the buffer protocol over the
    contiguous float64 durations; ``owner`` (optional) is kept alive so
    a backing ``mmap`` or shared-memory segment cannot be collected
    while views into it exist.

    Identical duration vectors are stored once (content deduplication):
    a trace replaying one recorded profile 500 times carries one copy
    of its arrays, which is also what makes the packed binary form
    compact.
    """

    __slots__ = (
        "names",
        "submit_times",
        "deadlines",
        "depends_on",
        "num_maps",
        "num_reduces",
        "spans",
        "data",
        "owner",
    )

    def __init__(
        self,
        *,
        names: tuple[str, ...],
        submit_times: array,
        deadlines: array,
        depends_on: array,
        num_maps: array,
        num_reduces: array,
        spans: array,
        data: object,
        owner: object = None,
    ) -> None:
        n = len(names)
        if not (
            len(submit_times) == len(deadlines) == len(depends_on)
            == len(num_maps) == len(num_reduces) == n
            and len(spans) == 8 * n
        ):
            raise ValueError("column lengths disagree")
        self.names = names
        self.submit_times = submit_times
        self.deadlines = deadlines
        self.depends_on = depends_on
        self.num_maps = num_maps
        self.num_reduces = num_reduces
        self.spans = spans
        self.data = data
        self.owner = owner

    # -- construction ------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: Sequence[TraceJob]) -> "TraceColumns":
        """Copy a job-object trace into fresh columnar storage."""
        names: list[str] = []
        submit_times = array("d")
        deadlines = array("d")
        depends_on = array("q")
        num_maps = array("q")
        num_reduces = array("q")
        spans = array("Q")
        data = array("d")
        # Content-level dedup of duration vectors: byte-identical spans
        # share one slot in the buffer (deterministic — keyed purely on
        # content, first occurrence wins).
        seen: dict[bytes, int] = {}
        for job in trace:
            profile = job.profile
            names.append(profile.name)
            submit_times.append(job.submit_time)
            deadlines.append(math.nan if job.deadline is None else job.deadline)
            depends_on.append(_NO_DEP if job.depends_on is None else job.depends_on)
            num_maps.append(profile.num_maps)
            num_reduces.append(profile.num_reduces)
            for arr in _phase_arrays(profile):
                payload = arr.tobytes()
                offset = seen.get(payload)
                if offset is None:
                    offset = len(data)
                    seen[payload] = offset
                    data.frombytes(payload)
                spans.append(offset)
                spans.append(arr.size)
        return cls(
            names=tuple(names),
            submit_times=submit_times,
            deadlines=deadlines,
            depends_on=depends_on,
            num_maps=num_maps,
            num_reduces=num_reduces,
            spans=spans,
            data=data,
        )

    # -- shape -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.names)

    @property
    def total_durations(self) -> int:
        """float64 slots in the shared duration buffer."""
        return memoryview(self.data).nbytes // 8

    # -- view reconstruction ----------------------------------------------

    def _phase_view(self, raw: memoryview, slot: int) -> np.ndarray:
        offset = self.spans[slot]
        count = self.spans[slot + 1]
        return np.frombuffer(raw, dtype="<f8", count=count, offset=offset * 8)

    def _job(self, index: int, raw: memoryview) -> TraceJob:
        base = 8 * index
        deadline = self.deadlines[index]
        dep = self.depends_on[index]
        profile = JobProfile(
            name=self.names[index],
            num_maps=self.num_maps[index],
            num_reduces=self.num_reduces[index],
            map_durations=self._phase_view(raw, base),
            first_shuffle_durations=self._phase_view(raw, base + 2),
            typical_shuffle_durations=self._phase_view(raw, base + 4),
            reduce_durations=self._phase_view(raw, base + 6),
        )
        return TraceJob(
            profile=profile,
            submit_time=self.submit_times[index],
            deadline=None if math.isnan(deadline) else deadline,
            depends_on=None if dep == _NO_DEP else dep,
        )

    def jobs(self) -> list[TraceJob]:
        """The full trace, every duration array a view into :attr:`data`.

        O(jobs) object construction; no duration is copied.  The views
        keep :attr:`data` (and :attr:`owner`) alive, so the backing
        mmap / shared-memory segment outlives every returned job.
        """
        raw = memoryview(self.data).cast("B")
        return [self._job(i, raw) for i in range(len(self.names))]

    # -- identity ----------------------------------------------------------

    def digest(self) -> str:
        """The trace's content digest (BLAKE2b-16, hex).

        Walks the jobs in order, hashing each job's metadata (submit
        time, stored deadline, ``depends_on``, task counts, name length
        and UTF-8 bytes) and then its four duration vectors (length,
        then raw float64 bytes).  Span offsets and the dedup layout are
        not hashed, so columns built by :meth:`from_trace` and columns
        mapped from a binary file digest the same.  Every NaN deadline
        hashes as one canonical NaN: it can only mean "no deadline".
        """
        h = blake2b(digest_size=16)
        raw = memoryview(self.data).cast("B")
        spans = self.spans
        for i, name in enumerate(self.names):
            encoded = name.encode("utf-8", "surrogatepass")
            deadline = self.deadlines[i]
            h.update(_DIGEST_JOB.pack(
                self.submit_times[i],
                math.nan if math.isnan(deadline) else deadline,
                self.depends_on[i],
                self.num_maps[i],
                self.num_reduces[i],
                len(encoded),
            ))
            h.update(encoded)
            for slot in range(8 * i, 8 * i + 8, 2):
                offset = 8 * spans[slot]
                length = spans[slot + 1]
                h.update(_DIGEST_LEN.pack(length))
                h.update(raw[offset:offset + 8 * length])
        return h.hexdigest()


class SchedulerColumns:
    """Per-job simulation-state columns the kernel maintains for policies.

    The columnar engine's replay path hands one instance to schedulers
    opting into :class:`~repro.schedulers.base.ColumnarSchedulerMixin`.
    Static columns (submit times, deadlines, task counts) are built once
    per run; the dispatch/completion counters are updated in place by
    the kernel as events are processed, so a policy's
    ``columnar_key_columns`` sees exactly the state the object engine's
    ``choose_next_*`` would read from the :class:`~repro.core.job.Job`
    objects — same values, as contiguous float64 vectors.

    Scalars (``now``, ``queue_depth``, ``free_map``, ``free_reduce``)
    are refreshed by the kernel before every key computation and mirror
    :class:`repro.policy.compiler._EvalContext`: ``now`` is the time of
    the last job arrival/departure hook.  The heavier profile-derived
    columns (``total_work``, phase averages) are built lazily on first
    access, so policies that never read them pay nothing.
    """

    __slots__ = (
        "jobs", "cluster", "job_ids", "submit", "deadline", "has_deadline",
        "rel_deadline", "nmaps", "nreds", "total_tasks", "gate",
        "active", "mdisp", "mcomp", "rdisp", "rcomp", "capm", "capr",
        "now", "queue_depth", "free_map", "free_reduce",
        "_total_work", "_avg_map", "_avg_reduce",
    )

    def __init__(self, jobs: Sequence["Job"], cluster: "ClusterConfig") -> None:
        n = len(jobs)
        self.jobs = jobs
        self.cluster = cluster
        self.job_ids = np.arange(n, dtype=np.int64)
        self.submit = np.array([j.submit_time for j in jobs], dtype=np.float64)
        self.deadline = np.array(
            [math.inf if j.deadline is None else j.deadline for j in jobs],
            dtype=np.float64,
        )
        self.has_deadline = np.array(
            [0.0 if j.deadline is None else 1.0 for j in jobs], dtype=np.float64
        )
        # Same per-job arithmetic as the scalar accessor: deadline -
        # submit_time, +inf for deadline-less jobs.
        self.rel_deadline = np.array(
            [
                math.inf if j.deadline is None else j.deadline - j.submit_time
                for j in jobs
            ],
            dtype=np.float64,
        )
        self.nmaps = np.array([float(j.num_maps) for j in jobs], dtype=np.float64)
        self.nreds = np.array([float(j.num_reduces) for j in jobs], dtype=np.float64)
        self.total_tasks = self.nmaps + self.nreds
        self.gate = np.zeros(n, dtype=np.float64)
        # In the job queue right now: arrived and not yet departed.
        self.active = np.zeros(n, dtype=np.bool_)
        self.mdisp = np.zeros(n, dtype=np.float64)
        self.mcomp = np.zeros(n, dtype=np.float64)
        self.rdisp = np.zeros(n, dtype=np.float64)
        self.rcomp = np.zeros(n, dtype=np.float64)
        # Wanted-slot caps; +inf encodes "uncapped".
        self.capm = np.full(n, math.inf, dtype=np.float64)
        self.capr = np.full(n, math.inf, dtype=np.float64)
        self.now = 0.0
        self.queue_depth = 0.0
        self.free_map = 0.0
        self.free_reduce = 0.0
        self._total_work: Optional[np.ndarray] = None
        self._avg_map: Optional[np.ndarray] = None
        self._avg_reduce: Optional[np.ndarray] = None

    @property
    def total_work(self) -> np.ndarray:
        """Sum of all task durations per job (lazy; profile-derived)."""
        if self._total_work is None:
            self._total_work = np.array(
                [j.profile.total_task_seconds() for j in self.jobs],
                dtype=np.float64,
            )
        return self._total_work

    @property
    def avg_map(self) -> np.ndarray:
        """Mean map duration per job (lazy; profile-derived)."""
        if self._avg_map is None:
            self._avg_map = np.array(
                [j.profile.map_stats.avg for j in self.jobs], dtype=np.float64
            )
        return self._avg_map

    @property
    def avg_reduce(self) -> np.ndarray:
        """Mean reduce duration per job (lazy; profile-derived)."""
        if self._avg_reduce is None:
            self._avg_reduce = np.array(
                [j.profile.reduce_stats.avg for j in self.jobs], dtype=np.float64
            )
        return self._avg_reduce

