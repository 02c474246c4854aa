"""Discrete-event primitives for the SimMR simulator engine.

The paper (Section III-B) describes the engine as maintaining "a priority
queue Q for seven event types: job arrivals and departures, map and reduce
task arrivals and departures, and an event signaling the completion of the
map stage. Each event is a triplet ``(eventTime, eventType, jobId)``".

This module provides exactly that: the :class:`EventType` enumeration with
the seven types, the :class:`Event` triplet (extended with a task index so
handlers know *which* task completed), and :class:`EventQueue`, a
binary-heap priority queue with deterministic total ordering.

Determinism matters: two events at the same simulated time must always pop
in the same order regardless of insertion history, otherwise replaying the
same trace twice could yield different schedules.  Ordering is therefore
``(time, type-priority, sequence number)`` where the sequence number is a
monotonically increasing insertion counter.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterator, Optional

__all__ = ["EventType", "Event", "EventQueue"]


class EventType(IntEnum):
    """The seven SimMR event types.

    The integer values double as tie-breaking priorities for events that
    fire at the same simulated time.  Departures (task/job completions)
    are processed before arrivals so that slots freed at time *t* are
    visible to allocation decisions made at time *t*; the map-stage
    completion signal fires after map-task departures at the same instant
    (it is *caused* by the last departure) but before any reduce activity,
    so first-wave shuffle durations are rewritten before new reduce
    decisions are taken.
    """

    MAP_TASK_DEPARTURE = 0
    ALL_MAPS_FINISHED = 1
    REDUCE_TASK_DEPARTURE = 2
    JOB_DEPARTURE = 3
    JOB_ARRIVAL = 4
    MAP_TASK_ARRIVAL = 5
    REDUCE_TASK_ARRIVAL = 6


@dataclass(frozen=True, slots=True)
class Event:
    """The paper's ``(eventTime, eventType, jobId)`` triplet.

    ``task_index`` augments the triplet with the index of the map/reduce
    task the event refers to (``None`` for job-level events).  It carries
    no scheduling semantics — ordering is purely by time, type and
    insertion sequence.
    """

    time: float
    event_type: EventType
    job_id: int
    task_index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"event time must be non-negative, got {self.time}")


@dataclass(order=True, slots=True)
class _HeapEntry:
    time: float
    priority: int
    seq: int
    event: Event = field(compare=False)


class EventQueue:
    """Deterministic binary-heap priority queue of :class:`Event`.

    Pops events in ``(time, event-type priority, insertion order)`` order.
    The queue also tracks the total number of events ever pushed, which the
    performance experiments (paper Section IV-E, ">1 million events per
    second") use as the event count.
    """

    __slots__ = ("_heap", "_seq", "_pushed")

    def __init__(self) -> None:
        self._heap: list[_HeapEntry] = []
        self._seq = 0
        self._pushed = 0

    def push(self, event: Event) -> None:
        """Insert ``event``; O(log n)."""
        entry = _HeapEntry(event.time, int(event.event_type), self._seq, event)
        self._seq += 1
        self._pushed += 1
        heapq.heappush(self._heap, entry)

    def pop(self) -> Event:
        """Remove and return the earliest event; raises IndexError if empty."""
        return heapq.heappop(self._heap).event

    def peek(self) -> Event:
        """Return the earliest event without removing it."""
        return self._heap[0].event

    def peek_time(self) -> float:
        """Time of the earliest event; raises IndexError if empty."""
        return self._heap[0].time

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __iter__(self) -> Iterator[Event]:
        """Iterate events in pop order *without* consuming the queue."""
        return (entry.event for entry in sorted(self._heap))

    @property
    def total_pushed(self) -> int:
        """Number of events pushed over the queue's lifetime."""
        return self._pushed

    def clear(self) -> None:
        self._heap.clear()
