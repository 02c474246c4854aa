"""Derived metrics over simulation results.

The paper's headline metric is the *relative deadline exceeded* utility
(already on :class:`~repro.core.results.SimulationResult`); cluster
operators additionally reason about slot utilization, queueing delay and
stage breakdowns when sizing clusters — the "what-if questions" SimMR is
built to answer (Section VII).  This module computes those from the
task-level records of a run.

Every function here reads the columns of
:class:`~repro.core.results.TaskRecords` (``start``, ``end``,
``shuffle_end``, ``is_reduce``, ``job_id``) with numpy reductions and
never builds :class:`~repro.core.job.TaskRecord` objects, so a metric
over a 200k-task run costs milliseconds.  Sums run over the columns in
record order, so two runs with equal records give bit-identical
metrics whichever engine produced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cluster import ClusterConfig
from .results import SimulationResult

__all__ = [
    "UtilizationReport",
    "utilization",
    "slot_seconds",
    "queueing_delays",
    "stage_breakdown",
    "concurrency_series",
]


def slot_seconds(result: SimulationResult, kind: Optional[str] = None) -> float:
    """Total busy slot-seconds of the run (optionally one task kind).

    For reduce tasks this counts the full slot occupation — shuffle
    (including filler time waiting for the map stage) plus reduce phase —
    because the slot is held for all of it.
    """
    records = result.task_records
    busy = records.end - records.start
    return float(busy[records.kind_mask(kind)].sum())


@dataclass(frozen=True, slots=True)
class UtilizationReport:
    """Average busy fraction of the cluster's slots over the run."""

    map_utilization: float
    reduce_utilization: float
    makespan: float
    map_slot_seconds: float
    reduce_slot_seconds: float
    map_slots: int
    reduce_slots: int

    @property
    def overall(self) -> float:
        """Busy fraction across all slots of both kinds."""
        capacity = (self.map_slots + self.reduce_slots) * self.makespan
        if capacity <= 0:
            return 0.0
        return (self.map_slot_seconds + self.reduce_slot_seconds) / capacity


def utilization(result: SimulationResult, cluster: ClusterConfig) -> UtilizationReport:
    """Average map/reduce slot utilization over the run's makespan."""
    if not result.task_records:
        raise ValueError(
            "utilization needs task records; run the engine with record_tasks=True"
        )
    makespan = result.makespan
    if makespan <= 0:
        return UtilizationReport(0.0, 0.0, 0.0, 0.0, 0.0, cluster.map_slots, cluster.reduce_slots)
    map_busy = slot_seconds(result, "map")
    reduce_busy = slot_seconds(result, "reduce")
    return UtilizationReport(
        map_utilization=map_busy / (cluster.map_slots * makespan),
        reduce_utilization=(
            reduce_busy / (cluster.reduce_slots * makespan) if cluster.reduce_slots else 0.0
        ),
        makespan=makespan,
        map_slot_seconds=map_busy,
        reduce_slot_seconds=reduce_busy,
        map_slots=cluster.map_slots,
        reduce_slots=cluster.reduce_slots,
    )


def queueing_delays(result: SimulationResult) -> dict[int, float]:
    """Per-job delay between submission and first task dispatch.

    Under saturation this is the dominant component of the deadline
    misses in Figures 7-8.
    """
    return {
        j.job_id: j.start_time - j.submit_time
        for j in result.jobs
        if j.start_time is not None
    }


def stage_breakdown(result: SimulationResult, job_id: int) -> dict[str, float]:
    """One job's time decomposed into map / shuffle / reduce task-seconds.

    Filler waiting time (shuffle slots held while the map stage runs) is
    part of ``shuffle`` — that slot time is really spent, which is why
    MinEDF's minimal allocations matter.
    """
    records = result.task_records_for(job_id)
    if not records:
        raise KeyError(f"no task records for job {job_id}")
    maps = ~records.is_reduce
    shuffled = records.is_reduce & ~np.isnan(records.shuffle_end)
    return {
        "map": float((records.end - records.start)[maps].sum()),
        "shuffle": float((records.shuffle_end - records.start)[shuffled].sum()),
        "reduce": float((records.end - records.shuffle_end)[shuffled].sum()),
    }


def concurrency_series(
    result: SimulationResult,
    kind: str,
    points: int = 100,
    job_id: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(times, running)`` — concurrent tasks of ``kind`` over the run.

    The data behind the Figure 1/2-style progress plots; restrict to one
    job with ``job_id``.
    """
    if kind not in ("map", "reduce"):
        raise ValueError(f"kind must be 'map' or 'reduce', got {kind!r}")
    if points < 2:
        raise ValueError("points must be >= 2")
    records = result.task_records
    mask = records.kind_mask(kind)
    if job_id is not None:
        mask &= records.job_id == job_id
    times = np.linspace(0.0, max(result.makespan, 1e-9), points)
    if not mask.any():
        return times, np.zeros(points, dtype=np.int64)
    starts = records.start[mask]
    ends = records.end[mask]
    running = (
        (times[:, None] >= starts[None, :]) & (times[:, None] < ends[None, :])
    ).sum(axis=1)
    return times, running
