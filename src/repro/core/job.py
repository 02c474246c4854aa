"""Job templates (trace records) and runtime job state.

The paper's Trace Database stores, per job *J* (Section III-A):

* ``(N_M, N_R)`` — the number of map and reduce tasks;
* ``MapDurations`` — the ``N_M`` map-task durations;
* ``FirstShuffleDurations`` — durations of the *non-overlapping part* of
  the first reduce wave's shuffle phase (the portion after the map stage
  has finished);
* ``TypicalShuffleDurations`` — shuffle durations of the later waves;
* ``ReduceDurations`` — the ``N_R`` reduce-phase durations.

:class:`JobProfile` is that template.  :class:`TraceJob` binds a profile to
a submission time and an optional deadline — a *trace* is a sequence of
:class:`TraceJob`.  :class:`Job` is the engine's mutable runtime state for
one replayed job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "JobProfile",
    "PhaseStats",
    "TraceJob",
    "Job",
    "JobState",
    "TaskRecord",
]


def _as_duration_array(values: Sequence[float], what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be a 1-D sequence, got shape {arr.shape}")
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0)):
        raise ValueError(f"{what} must contain finite non-negative durations")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, slots=True)
class PhaseStats:
    """Average and maximum task duration for one execution phase.

    These are the "performance invariants" of the ARIA model (paper
    Section V-A): the makespan bounds need only ``avg`` and ``max`` of the
    task durations plus the task count.
    """

    avg: float
    max: float
    count: int

    @classmethod
    def of(cls, durations: np.ndarray) -> "PhaseStats":
        if durations.size == 0:
            return cls(avg=0.0, max=0.0, count=0)
        return cls(
            avg=float(durations.mean()),
            max=float(durations.max()),
            count=int(durations.size),
        )


@dataclass(frozen=True)
class JobProfile:
    """The job template stored in the trace database.

    Durations are in seconds of simulated time.  ``num_maps`` /
    ``num_reduces`` may exceed the stored array lengths (e.g. a profile
    recorded from a down-sampled run); replay then cycles through the
    arrays deterministically via :meth:`map_duration` and friends.
    """

    name: str
    num_maps: int
    num_reduces: int
    map_durations: np.ndarray
    first_shuffle_durations: np.ndarray
    typical_shuffle_durations: np.ndarray
    reduce_durations: np.ndarray

    def __post_init__(self) -> None:
        if self.num_maps < 0 or self.num_reduces < 0:
            raise ValueError("task counts must be non-negative")
        if self.num_maps == 0 and self.num_reduces == 0:
            raise ValueError(f"job profile {self.name!r} has no tasks")
        object.__setattr__(
            self, "map_durations", _as_duration_array(self.map_durations, "map_durations")
        )
        object.__setattr__(
            self,
            "first_shuffle_durations",
            _as_duration_array(self.first_shuffle_durations, "first_shuffle_durations"),
        )
        object.__setattr__(
            self,
            "typical_shuffle_durations",
            _as_duration_array(self.typical_shuffle_durations, "typical_shuffle_durations"),
        )
        object.__setattr__(
            self,
            "reduce_durations",
            _as_duration_array(self.reduce_durations, "reduce_durations"),
        )
        if self.num_maps > 0 and self.map_durations.size == 0:
            raise ValueError(f"job {self.name!r}: {self.num_maps} maps but no map durations")
        if self.num_reduces > 0:
            if self.reduce_durations.size == 0:
                raise ValueError(
                    f"job {self.name!r}: {self.num_reduces} reduces but no reduce durations"
                )
            if self.first_shuffle_durations.size == 0 and self.typical_shuffle_durations.size == 0:
                raise ValueError(f"job {self.name!r}: reduces but no shuffle durations")

    # -- per-task duration lookup (deterministic cyclic indexing) ---------

    def map_duration(self, index: int) -> float:
        """Duration of map task ``index``."""
        return float(self.map_durations[index % self.map_durations.size])

    def first_shuffle_duration(self, index: int) -> float:
        """Non-overlapping first-wave shuffle duration for reduce ``index``.

        Falls back to the typical-shuffle array when the profile recorded
        no first-wave measurements (e.g. a single-wave original run where
        every reduce was first-wave would instead lack *typical* entries).
        """
        if self.first_shuffle_durations.size:
            return float(self.first_shuffle_durations[index % self.first_shuffle_durations.size])
        return self.typical_shuffle_duration(index)

    def typical_shuffle_duration(self, index: int) -> float:
        """Typical (non-first-wave) shuffle duration for reduce ``index``."""
        if self.typical_shuffle_durations.size:
            return float(
                self.typical_shuffle_durations[index % self.typical_shuffle_durations.size]
            )
        return float(self.first_shuffle_durations[index % self.first_shuffle_durations.size])

    def reduce_duration(self, index: int) -> float:
        """Reduce-phase (post-shuffle) duration of reduce task ``index``."""
        return float(self.reduce_durations[index % self.reduce_durations.size])

    # -- phase statistics ---------------------------------------------------

    @property
    def map_stats(self) -> PhaseStats:
        return PhaseStats.of(self.map_durations)

    @property
    def first_shuffle_stats(self) -> PhaseStats:
        if self.first_shuffle_durations.size:
            return PhaseStats.of(self.first_shuffle_durations)
        return PhaseStats.of(self.typical_shuffle_durations)

    @property
    def typical_shuffle_stats(self) -> PhaseStats:
        if self.typical_shuffle_durations.size:
            return PhaseStats.of(self.typical_shuffle_durations)
        return PhaseStats.of(self.first_shuffle_durations)

    @property
    def reduce_stats(self) -> PhaseStats:
        return PhaseStats.of(self.reduce_durations)

    def total_task_seconds(self) -> float:
        """Total task-seconds of work (serial execution time)."""
        total = sum(self.map_duration(i) for i in range(self.num_maps))
        for i in range(self.num_reduces):
            total += self.typical_shuffle_duration(i) + self.reduce_duration(i)
        return total

    def with_name(self, name: str) -> "JobProfile":
        """A copy of this profile under a different name."""
        return JobProfile(
            name=name,
            num_maps=self.num_maps,
            num_reduces=self.num_reduces,
            map_durations=self.map_durations,
            first_shuffle_durations=self.first_shuffle_durations,
            typical_shuffle_durations=self.typical_shuffle_durations,
            reduce_durations=self.reduce_durations,
        )


@dataclass(frozen=True, slots=True)
class TraceJob:
    """One entry of a replayable trace: profile + submit time + deadline.

    ``deadline`` is absolute simulated time (not relative to submission);
    ``None`` means the job has no deadline (FIFO-style workloads).

    ``depends_on`` turns traces into workflows: the index (within the
    trace) of a job that must complete before this one is submitted.
    The effective submission time is then ``max(submit_time, parent
    completion)`` — e.g. the stages of a Mahout TF-IDF pipeline, where
    each MapReduce job consumes the previous one's output.
    """

    profile: JobProfile
    submit_time: float
    deadline: Optional[float] = None
    depends_on: Optional[int] = None

    def __post_init__(self) -> None:
        if self.submit_time < 0 or not math.isfinite(self.submit_time):
            raise ValueError(f"submit_time must be finite and >= 0, got {self.submit_time}")
        if self.deadline is not None and math.isnan(self.deadline):
            raise ValueError("deadline must be a number or None, got NaN")
        if self.deadline is not None and self.deadline < self.submit_time:
            raise ValueError(
                f"deadline {self.deadline} precedes submit_time {self.submit_time}"
            )
        if self.depends_on is not None and self.depends_on < 0:
            raise ValueError(f"depends_on must be a trace index >= 0, got {self.depends_on}")


class JobState(Enum):
    """Lifecycle of a replayed job."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"


@dataclass(slots=True)
class TaskRecord:
    """Execution record of one simulated task attempt.

    For reduce tasks, ``shuffle_end`` marks the boundary between the
    (combined shuffle/sort) phase and the reduce phase; for map tasks it
    is ``None``.  ``first_wave`` records whether the reduce task's shuffle
    overlapped the job's map stage.
    """

    kind: str  # "map" | "reduce"
    job_id: int
    index: int
    start: float
    end: float = math.inf
    shuffle_end: Optional[float] = None
    first_wave: bool = False
    #: True when the attempt was preemption-killed; ``end`` is then the
    #: kill time and the index reruns as a later record.
    killed: bool = False


class Job:
    """Mutable runtime state of one job inside the simulator engine."""

    __slots__ = (
        "job_id",
        "profile",
        "num_maps",
        "num_reduces",
        "reduce_gate",
        "submit_time",
        "deadline",
        "state",
        "start_time",
        "completion_time",
        "maps_dispatched",
        "maps_completed",
        "reduces_dispatched",
        "reduces_completed",
        "map_stage_end",
        "map_records",
        "reduce_records",
        "wanted_map_slots",
        "wanted_reduce_slots",
        "sched_key",
        "in_map_heap",
        "in_reduce_heap",
        "next_map_index",
        "next_reduce_index",
        "requeued_maps",
        "requeued_reduces",
    )

    def __init__(self, job_id: int, trace_job: TraceJob) -> None:
        self.job_id = job_id
        self.profile = trace_job.profile
        # Task counts copied to plain attributes: they sit on the hot
        # eligibility path, where property indirection is measurable.
        self.num_maps = trace_job.profile.num_maps
        self.num_reduces = trace_job.profile.num_reduces
        # Completed-maps threshold for reduce slow-start; the engine sets
        # it from its min_map_percent_completed at job arrival.
        self.reduce_gate = 0.0
        self.submit_time = trace_job.submit_time
        self.deadline = trace_job.deadline
        self.state = JobState.PENDING
        self.start_time: Optional[float] = None
        self.completion_time: Optional[float] = None
        self.maps_dispatched = 0
        self.maps_completed = 0
        self.reduces_dispatched = 0
        self.reduces_completed = 0
        self.map_stage_end: Optional[float] = None
        self.map_records: list[TaskRecord] = []
        self.reduce_records: list[TaskRecord] = []
        # Slot demand caps consulted by demand-aware schedulers (MinEDF).
        # ``None`` means "as many as the policy will give us".
        self.wanted_map_slots: Optional[int] = None
        self.wanted_reduce_slots: Optional[int] = None
        # Engine bookkeeping for the static-priority fast path.
        self.sched_key: tuple = ()
        self.in_map_heap = False
        self.in_reduce_heap = False
        # Task-index allocation.  Fresh tasks take the next_* counter;
        # preemption-killed tasks requeue their index (the attempt reruns
        # from scratch, Hadoop's kill semantics).
        self.next_map_index = 0
        self.next_reduce_index = 0
        self.requeued_maps: list[int] = []
        self.requeued_reduces: list[int] = []

    # -- derived queries used by schedulers and the engine -----------------

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def pending_maps(self) -> int:
        """Map tasks not yet dispatched to a slot."""
        return self.num_maps - self.maps_dispatched

    @property
    def pending_reduces(self) -> int:
        """Reduce tasks not yet dispatched to a slot."""
        return self.num_reduces - self.reduces_dispatched

    @property
    def running_maps(self) -> int:
        return self.maps_dispatched - self.maps_completed

    @property
    def running_reduces(self) -> int:
        return self.reduces_dispatched - self.reduces_completed

    @property
    def map_stage_complete(self) -> bool:
        return self.maps_completed >= self.num_maps

    @property
    def is_complete(self) -> bool:
        return (
            self.maps_completed >= self.num_maps
            and self.reduces_completed >= self.num_reduces
        )

    def map_fraction_completed(self) -> float:
        """Fraction of map tasks completed (1.0 for map-less jobs)."""
        if self.num_maps == 0:
            return 1.0
        return self.maps_completed / self.num_maps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job(id={self.job_id}, name={self.name!r}, state={self.state.value}, "
            f"maps={self.maps_completed}/{self.num_maps}, "
            f"reduces={self.reduces_completed}/{self.num_reduces})"
        )
