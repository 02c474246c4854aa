"""Streamed event digests and replay-divergence detection.

The determinism contract (``docs/linting.md``) promises that replaying
one trace twice yields the *identical* event stream.  Static analysis
(DET001/DET002/DET004) proves the absence of known nondeterminism
sources; this module checks the contract *empirically*: each sanitized
run streams every popped event ``(time, type, job_id, task_index)``
into a BLAKE2b digest, and :func:`dual_run` executes the same trace on
two independently built engines and compares the fingerprints.  When
they disagree the kept event streams are diffed to name the first
diverging event — the point to start debugging from.

The digest deliberately excludes the heap sequence number: two runs
that schedule the same tasks at the same times in the same order are
equivalent even if internal push counters drift (they do not today,
but the contract is about observable behaviour).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ..core.columns import TraceColumns
from ..core.events import EventType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.engine import SimulatorEngine
    from ..core.job import TraceJob
    from ..core.results import SimulationResult
    from .sanitizer import Violation

__all__ = [
    "EventDigest",
    "DigestRecorder",
    "DivergenceReport",
    "DualRunOutcome",
    "compare_digests",
    "dual_run",
    "trace_digest",
]

# One packed record per event: float64 time + three int32 fields.
_PACK = struct.Struct("<dlll").pack

#: The same 20-byte packed layout as ``_PACK``, as a numpy record dtype
#: (field dtypes listed explicitly → packed, no alignment padding), so a
#: whole event stream can be hashed in one buffer update.
_PACK_DTYPE = [
    ("time", "<f8"),
    ("etype", "<i4"),
    ("job_id", "<i4"),
    ("task_index", "<i4"),
]


def trace_digest(trace: Sequence["TraceJob"]) -> str:
    """Content digest of a replayable trace (the cache-key input).

    The trace's columnar identity, :meth:`TraceColumns.digest
    <repro.core.columns.TraceColumns.digest>`: BLAKE2b over each job's
    metadata and raw float64 durations, so a trace digests equally
    whether it came from JSON, a ``.simmr`` file or the trace database.
    :mod:`repro.parallel` keys its content-addressed result cache on
    this together with the scheduler and engine configuration.
    """
    return TraceColumns.from_trace(trace).digest()


def _describe_event(event: tuple[float, int, int, int]) -> str:
    time, etype, job_id, task_index = event
    try:
        name = EventType(etype).name
    except ValueError:  # pragma: no cover - defensive
        name = f"type{etype}"
    task = "" if task_index < 0 else f", task {task_index}"
    return f"{name}(job {job_id}{task}) at t={time:g}"


class EventDigest:
    """Order-sensitive fingerprint of a simulation's event stream.

    ``update`` is called once per popped event by a
    :class:`~repro.sanitize.sanitizer.Sanitizer` carrying this digest.
    With ``keep_events=True`` (the default) the raw
    ``(time, type, job_id, task_index)`` tuples are retained so a
    mismatch can be localised to the first diverging event; disable it
    to fingerprint huge traces in O(1) memory.
    """

    __slots__ = ("keep_events", "count", "events", "_hash")

    def __init__(self, *, keep_events: bool = True) -> None:
        self.keep_events = keep_events
        self.reset()

    def reset(self) -> None:
        self.count = 0
        self.events: list[tuple[float, int, int, int]] = []
        self._hash = blake2b(digest_size=16)

    def update(self, time: float, etype: int, job_id: int, task_index: int) -> None:
        self._hash.update(_PACK(time, etype, job_id, task_index))
        self.count += 1
        if self.keep_events:
            self.events.append((time, etype, job_id, task_index))

    def update_many(self, times, etypes, job_ids, task_indices) -> None:
        """Bulk :meth:`update`: whole event stream in one hash call.

        Accepts parallel arrays (any numpy-coercible sequences) and
        hashes them through the exact ``_PACK`` byte layout — one packed
        record buffer, one BLAKE2b update — so the digest is
        byte-for-byte what per-event :meth:`update` calls would produce.
        This is what lets the columnar kernel fingerprint a
        400k-event run without paying 400k python-level hash calls.
        """
        import numpy as np

        rec = np.empty(len(times), dtype=_PACK_DTYPE)
        rec["time"] = times
        rec["etype"] = etypes
        rec["job_id"] = job_ids
        rec["task_index"] = task_indices
        self._hash.update(rec.tobytes())
        self.count += len(rec)
        if self.keep_events:
            self.events.extend(
                zip(
                    rec["time"].tolist(),
                    rec["etype"].tolist(),
                    rec["job_id"].tolist(),
                    rec["task_index"].tolist(),
                )
            )

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class DigestRecorder:
    """Minimal sanitizer stand-in that *only* streams the event digest.

    Implements the four engine hooks (``begin_run`` / ``observe_pop`` /
    ``observe_handled`` / ``end_run``) that the sanitized run-loop
    branch calls, but performs no invariant checking — one digest update
    per popped event and nothing else.  This is what the sweep layers
    (:mod:`repro.sweep`, :mod:`repro.parallel`) install to fingerprint
    every run cheaply: the full :class:`~repro.sanitize.sanitizer.Sanitizer`
    costs roughly a 5x slowdown, the recorder a few percent.

    The digest is identical to the one a full sanitizer carrying the
    same :class:`EventDigest` would produce (both hash the popped
    ``(time, type, job_id, task_index)`` stream), so fingerprints from
    checked and unchecked runs are directly comparable.
    """

    __slots__ = ("digest", "violations")

    #: Observe-only: never reads engine state, so the columnar kernel
    #: can serve it from the reconstructed event stream instead of
    #: falling back to the object engine (the full Sanitizer inspects
    #: per-event engine state and declares ``inspects_state = True``).
    inspects_state = False

    def __init__(self, digest: Optional[EventDigest] = None) -> None:
        self.digest = digest if digest is not None else EventDigest(keep_events=False)
        #: Always empty — kept so callers can treat any installed
        #: sanitizer uniformly (``engine.sanitizer.violations``).
        self.violations: list = []

    def begin_run(self, engine: "SimulatorEngine", trace: Sequence["TraceJob"]) -> None:
        self.digest.reset()

    def observe_pop(
        self, time: float, etype: int, seq: int, job_id: int, task_index: int
    ) -> None:
        self.digest.update(time, etype, job_id, task_index)

    def observe_handled(self, engine: "SimulatorEngine", job: object, etype: int) -> None:
        pass

    def end_run(self, engine: "SimulatorEngine") -> None:
        pass

    def hexdigest(self) -> str:
        return self.digest.hexdigest()


@dataclass(frozen=True, slots=True)
class DivergenceReport:
    """Outcome of comparing two runs' event digests (check ``DIV001``)."""

    diverged: bool
    digest_a: str
    digest_b: str
    count_a: int
    count_b: int
    #: Index (0-based) of the first differing event, when both digests
    #: kept their event streams; None for digest-only comparisons.
    first_index: Optional[int] = None
    event_a: Optional[tuple[float, int, int, int]] = None
    event_b: Optional[tuple[float, int, int, int]] = None

    def describe(self) -> str:
        if not self.diverged:
            return f"runs identical: {self.count_a} events, digest {self.digest_a}"
        if self.first_index is None:
            return (
                f"DIV001: runs diverged (digest {self.digest_a} != "
                f"{self.digest_b}, {self.count_a} vs {self.count_b} events)"
            )
        a = _describe_event(self.event_a) if self.event_a else "<stream ended>"
        b = _describe_event(self.event_b) if self.event_b else "<stream ended>"
        return (
            f"DIV001: runs diverged at event #{self.first_index}: "
            f"first run saw {a}, second run saw {b}"
        )

    def to_dict(self) -> dict:
        return {
            "diverged": self.diverged,
            "digest_a": self.digest_a,
            "digest_b": self.digest_b,
            "count_a": self.count_a,
            "count_b": self.count_b,
            "first_index": self.first_index,
            "event_a": list(self.event_a) if self.event_a else None,
            "event_b": list(self.event_b) if self.event_b else None,
        }


def compare_digests(a: EventDigest, b: EventDigest) -> DivergenceReport:
    """Compare two per-run digests, localising the first mismatch."""
    diverged = a.hexdigest() != b.hexdigest() or a.count != b.count
    first_index = None
    event_a = None
    event_b = None
    if diverged and a.keep_events and b.keep_events:
        limit = max(len(a.events), len(b.events))
        for i in range(limit):
            ea = a.events[i] if i < len(a.events) else None
            eb = b.events[i] if i < len(b.events) else None
            if ea != eb:
                first_index, event_a, event_b = i, ea, eb
                break
    return DivergenceReport(
        diverged=diverged,
        digest_a=a.hexdigest(),
        digest_b=b.hexdigest(),
        count_a=a.count,
        count_b=b.count,
        first_index=first_index,
        event_a=event_a,
        event_b=event_b,
    )


@dataclass(frozen=True, slots=True)
class DualRunOutcome:
    """Everything :func:`dual_run` learned from replaying a trace twice."""

    report: DivergenceReport
    results: tuple["SimulationResult", "SimulationResult"]
    violations: tuple[tuple["Violation", ...], tuple["Violation", ...]] = field(
        default=((), ())
    )

    @property
    def ok(self) -> bool:
        return not self.report.diverged and not any(self.violations)


def dual_run(
    engine_factory: Callable[[], "SimulatorEngine"],
    trace: Sequence["TraceJob"],
    *,
    keep_events: bool = True,
) -> DualRunOutcome:
    """Replay ``trace`` twice on independently built engines and compare.

    ``engine_factory`` must return a *fresh* engine **and** a fresh
    scheduler on every call — reusing a scheduler would let first-run
    state leak into the second run and mask (or fabricate) divergence.
    Each engine gets a fresh collecting sanitizer (``fail_fast=False``)
    carrying an :class:`EventDigest`, replacing any sanitizer the
    factory installed; invariant violations are reported alongside the
    divergence verdict rather than raised.
    """
    from .sanitizer import Sanitizer

    digests: list[EventDigest] = []
    results = []
    violations = []
    for _ in range(2):
        engine = engine_factory()
        digest = EventDigest(keep_events=keep_events)
        engine.sanitizer = Sanitizer(fail_fast=False, digest=digest)
        results.append(engine.run(trace))
        digests.append(digest)
        violations.append(tuple(engine.sanitizer.violations))
    return DualRunOutcome(
        report=compare_digests(digests[0], digests[1]),
        results=(results[0], results[1]),
        violations=(violations[0], violations[1]),
    )
