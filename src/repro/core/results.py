"""Simulation outputs: per-job results and whole-run summaries.

The engine's "output log" (paper Figure 4).  :class:`SimulationResult`
carries everything the evaluation experiments need: per-job completion
times (Figure 5 accuracy), task-level records (Figures 1-3 progress plots
and duration CDFs), the deadline-exceeded utility metric (Figures 7-8),
and engine statistics (Figure 6 / the ">1M events per second" headline).
"""

from __future__ import annotations

import gc
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional

import numpy as np

from .events import Event
from .job import Job, TaskRecord

__all__ = ["JobResult", "SimulationResult", "TaskRecords"]

#: Kind label per ``is_reduce`` value, indexed by the boolean column.
_KINDS = np.array(["map", "reduce"], dtype=object)


class TaskRecords(Sequence):
    """Read-only task records of one run, stored as parallel columns.

    One row per task attempt, in the object engine's global append order
    (one record per ``*_TASK_ARRIVAL`` pop).  The columns are numpy
    arrays marked read-only:

    ``job_id``, ``task_index`` (int64), ``is_reduce``, ``first_wave``,
    ``killed`` (bool), ``start``, ``end`` (float64; ``end`` is ``inf``
    for an attempt that never finished) and ``shuffle_end`` (float64,
    NaN where :class:`~repro.core.job.TaskRecord` has ``None``: maps,
    and reduces killed before their shuffle was priced).  The task index
    column is ``task_index`` because ``index`` is the sequence method.

    Metrics and result I/O read the columns directly.  Element access or
    iteration builds :class:`~repro.core.job.TaskRecord` objects for the
    whole run once and caches them; the objects are a snapshot, so
    editing one changes neither the columns nor anything computed from
    them.  The cache is dropped when the value is pickled.  A value
    compares equal to another ``TaskRecords`` with equal columns and to
    a plain sequence of equal ``TaskRecord`` objects in the same order.
    """

    __slots__ = (
        "job_id", "is_reduce", "task_index", "start", "end",
        "shuffle_end", "first_wave", "killed", "_objects",
    )

    #: Column names in constructor order.
    COLUMNS = (
        "job_id", "is_reduce", "task_index", "start", "end",
        "shuffle_end", "first_wave", "killed",
    )
    _DTYPES = (np.int64, np.bool_, np.int64, np.float64, np.float64,
               np.float64, np.bool_, np.bool_)

    def __init__(
        self,
        job_id: Any,
        is_reduce: Any,
        task_index: Any,
        start: Any,
        end: Any,
        shuffle_end: Any,
        first_wave: Any,
        killed: Any,
    ) -> None:
        columns = (job_id, is_reduce, task_index, start, end, shuffle_end,
                   first_wave, killed)
        size = None
        for name, values, dtype in zip(self.COLUMNS, columns, self._DTYPES):
            # A view, so freezing it leaves the caller's array writable.
            column = np.asarray(values, dtype=dtype).view()
            if column.ndim != 1 or (size is not None and len(column) != size):
                raise ValueError(
                    f"task record column {name!r} must be 1-D and as long as the others"
                )
            size = len(column)
            column.flags.writeable = False
            setattr(self, name, column)
        self._objects: Optional[list[TaskRecord]] = None

    @classmethod
    def empty(cls) -> "TaskRecords":
        """No records: a run with ``record_tasks=False``."""
        return cls(*([()] * len(cls.COLUMNS)))

    @classmethod
    def from_records(cls, records: Iterable[TaskRecord]) -> "TaskRecords":
        """Columns of finished :class:`TaskRecord` objects, in their order."""
        records = list(records)
        return cls(
            [r.job_id for r in records],
            [r.kind == "reduce" for r in records],
            [r.index for r in records],
            [r.start for r in records],
            [r.end for r in records],
            [np.nan if r.shuffle_end is None else r.shuffle_end for r in records],
            [r.first_wave for r in records],
            [r.killed for r in records],
        )

    def columns(self) -> tuple[np.ndarray, ...]:
        """The eight columns, in :attr:`COLUMNS` order."""
        return tuple(getattr(self, name) for name in self.COLUMNS)

    def kind_mask(self, kind: Optional[str]) -> np.ndarray:
        """Boolean row mask of one task kind (every row for ``None``)."""
        if kind is None:
            return np.ones(len(self), dtype=bool)
        if kind == "reduce":
            return self.is_reduce.copy()
        if kind == "map":
            return ~self.is_reduce
        return np.zeros(len(self), dtype=bool)

    def select(self, rows: Any) -> "TaskRecords":
        """The rows a boolean mask or a slice picks, in order."""
        return TaskRecords(*(column[rows] for column in self.columns()))

    def kinds(self) -> list[str]:
        """``"map"``/``"reduce"`` per row."""
        return _KINDS[self.is_reduce.view(np.int8)].tolist()

    def _materialize(self) -> list[TaskRecord]:
        objects = self._objects
        if objects is None:
            shuffle_end = self.shuffle_end.astype(object)
            shuffle_end[np.isnan(self.shuffle_end)] = None
            fields = (
                self.kinds(),
                self.job_id.tolist(),
                self.task_index.tolist(),
                self.start.tolist(),
                self.end.tolist(),
                shuffle_end.tolist(),
                self.first_wave.tolist(),
                self.killed.tolist(),
            )
            # The records hold no references to each other, so the cyclic
            # collector has nothing to find here; left on, its passes
            # triggered by the allocation count cost ~4x the build itself
            # on a 200k-record run.
            collecting = gc.isenabled()
            gc.disable()
            try:
                objects = self._objects = list(map(TaskRecord, *fields))
            finally:
                if collecting:
                    gc.enable()
        return objects

    def __len__(self) -> int:
        return len(self.start)

    def __getitem__(self, item: Any) -> Any:
        if isinstance(item, slice):
            return self.select(item)
        return self._materialize()[item]

    def __iter__(self) -> Iterator[TaskRecord]:
        return iter(self._materialize())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TaskRecords):
            return all(
                np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
                for a, b in zip(self.columns(), other.columns())
            )
        if isinstance(other, (list, tuple)):
            return len(other) == len(self) and self._materialize() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self) -> tuple:
        return (TaskRecords, self.columns())

    def __repr__(self) -> str:
        return f"TaskRecords(<{len(self)} records>)"


@dataclass(frozen=True, slots=True)
class JobResult:
    """Immutable summary of one completed (or unfinished) job."""

    job_id: int
    name: str
    submit_time: float
    start_time: Optional[float]
    map_stage_end: Optional[float]
    completion_time: Optional[float]
    deadline: Optional[float]
    num_maps: int
    num_reduces: int

    @classmethod
    def from_job(cls, job: Job) -> "JobResult":
        return cls(
            job_id=job.job_id,
            name=job.name,
            submit_time=job.submit_time,
            start_time=job.start_time,
            map_stage_end=job.map_stage_end,
            completion_time=job.completion_time,
            deadline=job.deadline,
            num_maps=job.num_maps,
            num_reduces=job.num_reduces,
        )

    @property
    def duration(self) -> Optional[float]:
        """Completion time relative to submission (the paper's T_J)."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.submit_time

    @property
    def met_deadline(self) -> Optional[bool]:
        """Whether the job met its deadline; ``None`` if it had none."""
        if self.deadline is None or self.completion_time is None:
            return None
        return self.completion_time <= self.deadline

    def relative_deadline_exceeded(self) -> float:
        """``(T_J - D_J)/D_J`` if exceeded, else 0 (paper Section V-A)."""
        if self.deadline is None or self.completion_time is None or self.deadline <= 0:
            return 0.0
        over = self.completion_time - self.deadline
        return over / self.deadline if over > 0 else 0.0


@dataclass(slots=True)
class SimulationResult:
    """Full output of one simulator run."""

    scheduler_name: str
    jobs: list[JobResult]
    task_records: TaskRecords
    makespan: float
    events_processed: int
    wall_clock_seconds: float
    #: BLAKE2b fingerprint of the popped event stream (hex), populated
    #: when the run carried an event digest (a sanitizer with
    #: ``digest=``, or the sweep layers' ``DigestRecorder``).  Two runs
    #: with equal digests scheduled the same tasks at the same times in
    #: the same order — the determinism contract's equality, and how the
    #: parallel sweep cache proves a restored result faithful.
    event_digest: Optional[str] = None
    #: Which execution path produced the run: ``"kernel"`` (columnar
    #: engine's fast path, either mode) or ``"object"`` (the classic
    #: object-per-event loop — forced, or a columnar-engine fallback).
    #: ``None`` on results from before this field existed.
    engine_path: Optional[str] = None
    #: Why the columnar engine fell back to the object loop (``None``
    #: when it did not, or when the object engine was asked for
    #: directly).  See ``ColumnarEngine._fallback_reason`` for the
    #: envelope's short list of reasons.
    fallback_reason: Optional[str] = None
    #: The processed event stream (populated only when the engine ran
    #: with ``record_events=True``) — the paper's seven event types in
    #: processing order.
    event_log: list[Event] = field(default_factory=list)

    # Cached lookups -------------------------------------------------------
    _by_id: dict[int, JobResult] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._by_id = {j.job_id: j for j in self.jobs}

    def job(self, job_id: int) -> JobResult:
        """Result of the job with the given id."""
        return self._by_id[job_id]

    def completion_times(self) -> dict[int, float]:
        """Map from job id to absolute completion time (completed jobs)."""
        return {
            j.job_id: j.completion_time
            for j in self.jobs
            if j.completion_time is not None
        }

    def durations(self) -> dict[int, float]:
        """Map from job id to T_J = completion - submission."""
        return {j.job_id: j.duration for j in self.jobs if j.duration is not None}

    def relative_deadline_exceeded(self) -> float:
        """The paper's utility metric: sum over late jobs of (T-D)/D.

        Lower is better; the scheduler minimizing it "is a better candidate
        for a deadline-based scheduler" (Section V-A).
        """
        return sum(j.relative_deadline_exceeded() for j in self.jobs)

    def jobs_missed_deadline(self) -> list[JobResult]:
        """Jobs that finished after their deadline."""
        return [j for j in self.jobs if j.met_deadline is False]

    @property
    def events_per_second(self) -> float:
        """Engine throughput (events / wall second); inf for instant runs."""
        if self.wall_clock_seconds <= 0:
            return float("inf")
        return self.events_processed / self.wall_clock_seconds

    def task_records_for(self, job_id: int, kind: Optional[str] = None) -> TaskRecords:
        """Task records of one job, optionally filtered to "map"/"reduce"."""
        records = self.task_records
        return records.select((records.job_id == job_id) & records.kind_mask(kind))

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterable[JobResult]:
        return iter(self.jobs)
