"""Mumak: Apache's MapReduce simulator, rebuilt to its published behaviour.

The paper's baseline (Sections I, IV-A, IV-E).  Two properties matter and
both are reproduced here:

1. **No shuffle modeling.**  "Mumak models the total runtime of the
   reduce task as the summation of the time taken for completion of all
   maps and the time taken for an individual task to complete the reduce
   phase (without the shuffle).  Thus, Mumak does not model the shuffle
   phase accurately."  Concretely: a reduce task assigned at time *t*
   finishes at ``max(t, map_stage_end) + reduce_phase_duration`` — the
   shuffle durations recorded in the trace are ignored.  For shuffle-heavy
   applications this *underestimates* completion times by tens of percent
   (Figure 5(a): 37% average error).

2. **TaskTracker/heartbeat simulation.**  "Mumak simulates the
   TaskTrackers and the heartbeats between them, which leads to greater
   number of simulated events and computation" — the source of the two
   orders of magnitude speed gap (Figure 6).  This implementation
   simulates every tracker's periodic heartbeat and assigns tasks only on
   heartbeats, like the real Mumak (which drives the actual JobTracker
   code with virtual time).

Mumak replays Rumen traces; use :func:`repro.mumak.rumen.rumen_to_trace`
to go from history logs to the trace format, or feed any SimMR trace —
the shuffle arrays are simply not consulted.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional, Sequence

from ..core.cluster import ClusterConfig
from ..core.job import Job, JobState, TraceJob
from ..core.results import JobResult, SimulationResult, TaskRecords
from ..core.walltime import elapsed_since, perf_seconds
from ..schedulers.base import Scheduler

__all__ = ["MumakSimulator"]

_MAP_DONE, _RED_DONE, _SUBMIT, _HEARTBEAT = 0, 1, 2, 3


class MumakSimulator:
    """Heartbeat-level trace replay without shuffle modeling.

    Parameters
    ----------
    num_nodes / map_slots_per_node / reduce_slots_per_node:
        Cluster shape (defaults mirror the paper's testbed).
    heartbeat_interval:
        TaskTracker heartbeat period in simulated seconds (Hadoop default
        3 s).
    scheduler:
        Mumak's design goal is running real schedulers "as-is"; any
        :class:`~repro.schedulers.base.Scheduler` plugs in (default FIFO).
    """

    def __init__(
        self,
        num_nodes: int = 64,
        map_slots_per_node: int = 1,
        reduce_slots_per_node: int = 1,
        heartbeat_interval: float = 3.0,
        scheduler: Optional[Scheduler] = None,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        self.num_nodes = num_nodes
        self.map_slots_per_node = map_slots_per_node
        self.reduce_slots_per_node = reduce_slots_per_node
        self.heartbeat_interval = heartbeat_interval
        if scheduler is None:
            from ..schedulers.fifo import FIFOScheduler

            scheduler = FIFOScheduler()
        self.scheduler = scheduler

    def run(self, trace: Sequence[TraceJob]) -> SimulationResult:
        """Replay ``trace``; returns completion times per job.

        The result's ``scheduler_name`` is prefixed with ``Mumak/`` so
        accuracy tables can tell the simulators apart.
        """
        # Feeds only the result's wall_clock_seconds metric, never a
        # simulated timestamp; walltime is the sanctioned site.
        wall_start = perf_seconds()
        jobs = [Job(i, tj) for i, tj in enumerate(trace)]
        job_q: list[Job] = []
        agg = ClusterConfig(
            self.num_nodes * self.map_slots_per_node,
            max(self.num_nodes * self.reduce_slots_per_node, 0),
        )
        # Node slot occupancy; Mumak needs no speed factors (replay is
        # deterministic from the trace).
        free_maps = [self.map_slots_per_node] * self.num_nodes
        free_reduces = [self.reduce_slots_per_node] * self.num_nodes
        # Per-job reduce tasks waiting for the map stage: (index, node).
        waiting_reduces: dict[int, list[tuple[int, int]]] = {}

        heap: list[tuple] = []
        seq = 0

        def push(t: float, pri: int, a: int, b: int) -> None:
            nonlocal seq
            heappush(heap, (t, pri, seq, a, b))
            seq += 1

        submit_order = sorted(range(len(jobs)), key=lambda i: jobs[i].submit_time)
        next_submit_pos = 0
        active = 0
        completed = 0
        for i in submit_order:
            push(jobs[i].submit_time, _SUBMIT, i, -1)
        start_t = jobs[submit_order[0]].submit_time if jobs else 0.0
        for n in range(self.num_nodes):
            push(start_t + self.heartbeat_interval * n / self.num_nodes, _HEARTBEAT, n, -1)

        def map_eligible(job: Job) -> bool:
            if job.state is not JobState.RUNNING or job.pending_maps <= 0:
                return False
            cap = job.wanted_map_slots
            return cap is None or job.running_maps < cap

        def reduce_eligible(job: Job) -> bool:
            # Mumak launches reduces once any map has finished (its
            # AllMapsFinished event gates completion, not launch).
            if job.state is not JobState.RUNNING or job.pending_reduces <= 0:
                return False
            if job.num_maps > 0 and job.maps_completed == 0:
                return False
            cap = job.wanted_reduce_slots
            return cap is None or job.running_reduces < cap

        def finish_job(job: Job, now: float) -> None:
            nonlocal active, completed
            job.state = JobState.COMPLETED
            job.completion_time = now
            job_q.remove(job)
            self.scheduler.on_job_departure(job, now)
            active -= 1
            completed += 1

        events = 0
        while heap:
            now, pri, _s, a, b = heappop(heap)
            events += 1

            if pri == _MAP_DONE:
                job, node = jobs[a], b
                free_maps[node] += 1
                job.maps_completed += 1
                if job.map_stage_complete and job.map_stage_end is None:
                    job.map_stage_end = now
                    # AllMapsFinished: reduce runtime = map completion time
                    # + reduce phase, no shuffle component.
                    for ridx, rnode in waiting_reduces.pop(job.job_id, []):
                        end = now + job.profile.reduce_duration(ridx)
                        push(end, _RED_DONE, job.job_id, rnode)
                    if job.num_reduces == 0:
                        finish_job(job, now)

            elif pri == _RED_DONE:
                job, node = jobs[a], b
                free_reduces[node] += 1
                job.reduces_completed += 1
                if job.is_complete:
                    finish_job(job, now)

            elif pri == _SUBMIT:
                job = jobs[a]
                job.state = JobState.RUNNING
                job_q.append(job)
                active += 1
                next_submit_pos += 1
                self.scheduler.on_job_arrival(job, now, agg)

            elif pri == _HEARTBEAT:
                node = a
                while free_maps[node] > 0:
                    candidates = [j for j in job_q if map_eligible(j)]
                    if not candidates:
                        break
                    job = self.scheduler.choose_next_map_task(candidates)
                    if job is None:
                        break
                    index = job.maps_dispatched
                    job.maps_dispatched += 1
                    if job.start_time is None:
                        job.start_time = now
                    free_maps[node] -= 1
                    push(now + job.profile.map_duration(index), _MAP_DONE, job.job_id, node)
                while free_reduces[node] > 0:
                    candidates = [j for j in job_q if reduce_eligible(j)]
                    if not candidates:
                        break
                    job = self.scheduler.choose_next_reduce_task(candidates)
                    if job is None:
                        break
                    index = job.reduces_dispatched
                    job.reduces_dispatched += 1
                    if job.start_time is None:
                        job.start_time = now
                    free_reduces[node] -= 1
                    if not job.map_stage_complete:
                        waiting_reduces.setdefault(job.job_id, []).append((index, node))
                    else:
                        push(
                            now + job.profile.reduce_duration(index),
                            _RED_DONE,
                            job.job_id,
                            node,
                        )

                if completed < len(jobs):
                    next_beat = now + self.heartbeat_interval
                    if active == 0 and next_submit_pos < len(submit_order):
                        nxt = jobs[submit_order[next_submit_pos]].submit_time
                        next_beat = max(
                            next_beat, nxt + self.heartbeat_interval * node / self.num_nodes
                        )
                    push(next_beat, _HEARTBEAT, node, -1)

            else:  # pragma: no cover
                raise AssertionError(f"unknown event priority {pri}")

        wall = elapsed_since(wall_start)
        makespan = max(
            (j.completion_time for j in jobs if j.completion_time is not None), default=0.0
        )
        return SimulationResult(
            scheduler_name=f"Mumak/{self.scheduler.name}",
            jobs=[JobResult.from_job(j) for j in jobs],
            task_records=TaskRecords.empty(),
            makespan=makespan,
            events_processed=events,
            wall_clock_seconds=wall,
        )
