"""Property-based tests of simulator-engine invariants (hypothesis)."""

from __future__ import annotations

import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import functools
import sys

from repro.core import ClusterConfig, JobProfile, TraceColumns, TraceJob
from repro.core import simulate as _simulate
from repro.core.metrics import utilization
from repro.sanitize.digest import DigestRecorder, trace_digest
from repro.schedulers import FIFOScheduler, MaxEDFScheduler, MinEDFScheduler
from repro.trace.binfmt import load_columns, pack_trace, save_trace_bin, unpack_columns
from repro.trace.database import TraceDatabase
from repro.trace.schema import trace_from_dict, trace_to_dict

simulate = _simulate


@pytest.fixture
def _both_engines(engine_kind, monkeypatch):
    """Run a test class on both execution paths.

    Function-scoped on purpose: one engine per test invocation, stable
    across all hypothesis examples of that invocation.
    """
    monkeypatch.setattr(
        sys.modules[__name__],
        "simulate",
        functools.partial(_simulate, engine=engine_kind),
    )

durations = st.floats(min_value=0.1, max_value=100.0, allow_nan=False)

#: Degenerate durations on purpose: zero-length tasks and integer ties
#: at the same instant, mixed with the ordinary continuous draws.
tied_durations = st.one_of(
    st.just(0.0), st.integers(min_value=0, max_value=4).map(float), durations
)


@st.composite
def profiles(draw, max_maps=12, max_reduces=8, durations=durations):
    num_maps = draw(st.integers(min_value=0, max_value=max_maps))
    min_reduces = 1 if num_maps == 0 else 0
    num_reduces = draw(st.integers(min_value=min_reduces, max_value=max_reduces))
    return JobProfile(
        name=draw(st.sampled_from(["a", "b", "c"])),
        num_maps=num_maps,
        num_reduces=num_reduces,
        map_durations=np.array(
            draw(st.lists(durations, min_size=max(num_maps, 1), max_size=max(num_maps, 1)))
        )
        if num_maps
        else np.empty(0),
        first_shuffle_durations=np.array(
            draw(st.lists(durations, min_size=1, max_size=4))
        )
        if num_reduces
        else np.empty(0),
        typical_shuffle_durations=np.array(
            draw(st.lists(durations, min_size=1, max_size=4))
        )
        if num_reduces
        else np.empty(0),
        reduce_durations=np.array(
            draw(st.lists(durations, min_size=num_reduces, max_size=num_reduces))
        )
        if num_reduces
        else np.empty(0),
    )


@st.composite
def traces(draw, max_jobs=6, durations=durations):
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    jobs = []
    t = 0.0
    for _ in range(n):
        t += draw(st.floats(min_value=0.0, max_value=50.0))
        profile = draw(profiles(durations=durations))
        deadline_gap = draw(st.one_of(st.none(), st.floats(min_value=1.0, max_value=500.0)))
        jobs.append(
            TraceJob(profile, t, deadline=None if deadline_gap is None else t + deadline_gap)
        )
    return jobs


@st.composite
def clusters(draw):
    return ClusterConfig(
        draw(st.integers(min_value=1, max_value=16)),
        draw(st.integers(min_value=1, max_value=16)),
    )


@pytest.mark.usefixtures("_both_engines")
class TestEngineInvariants:
    @settings(max_examples=60, deadline=None)
    @given(trace=traces(), cluster=clusters())
    def test_every_job_completes(self, trace, cluster):
        result = simulate(trace, FIFOScheduler(), cluster)
        for job in result.jobs:
            assert job.completion_time is not None
            assert job.completion_time >= job.submit_time

    @settings(max_examples=40, deadline=None)
    @given(trace=traces(), cluster=clusters())
    def test_task_records_are_consistent(self, trace, cluster):
        result = simulate(trace, FIFOScheduler(), cluster)
        per_job_tasks: dict[int, int] = {}
        for record in result.task_records:
            assert record.end >= record.start
            assert math.isfinite(record.end)
            if record.kind == "reduce":
                assert record.shuffle_end is not None
                assert record.start <= record.shuffle_end <= record.end
            per_job_tasks[record.job_id] = per_job_tasks.get(record.job_id, 0) + 1
        for job in result.jobs:
            assert per_job_tasks.get(job.job_id, 0) == job.num_maps + job.num_reduces

    @settings(max_examples=40, deadline=None)
    @given(trace=traces(), cluster=clusters())
    def test_makespan_bounds(self, trace, cluster):
        """Makespan is at least the busiest-dimension work bound and at
        most the serial execution of everything."""
        result = simulate(trace, FIFOScheduler(), cluster)
        serial = sum(tj.profile.total_task_seconds() for tj in trace) + sum(
            tj.profile.first_shuffle_stats.max for tj in trace
        )
        last_submit = max(tj.submit_time for tj in trace)
        assert result.makespan <= last_submit + serial + 1e-6

    @settings(max_examples=30, deadline=None)
    @given(trace=traces(), cluster=clusters())
    def test_slot_capacity_respected(self, trace, cluster):
        result = simulate(trace, FIFOScheduler(), cluster)
        for kind, limit in (("map", cluster.map_slots), ("reduce", cluster.reduce_slots)):
            events = []
            for r in result.task_records:
                if r.kind == kind:
                    events.append((r.start, 1))
                    events.append((r.end, -1))
            events.sort(key=lambda e: (e[0], e[1]))
            running = 0
            for _, delta in events:
                running += delta
                assert running <= limit

    @settings(max_examples=30, deadline=None)
    @given(trace=traces(), cluster=clusters())
    def test_fast_path_matches_narrow_interface(self, trace, cluster):
        """The static-priority heap path must produce the exact schedule
        the paper's choose-next interface produces."""

        class DynamicFIFO(FIFOScheduler):
            static_priority = False

        fast = simulate(trace, FIFOScheduler(), cluster)
        slow = simulate(trace, DynamicFIFO(), cluster)
        assert fast.completion_times() == slow.completion_times()

    @settings(max_examples=30, deadline=None)
    @given(trace=traces(), cluster=clusters())
    def test_fast_path_matches_for_maxedf(self, trace, cluster):
        class DynamicMaxEDF(MaxEDFScheduler):
            static_priority = False

        fast = simulate(trace, MaxEDFScheduler(), cluster)
        slow = simulate(trace, DynamicMaxEDF(), cluster)
        assert fast.completion_times() == slow.completion_times()

    @settings(max_examples=30, deadline=None)
    @given(trace=traces(), cluster=clusters())
    def test_fast_path_matches_for_minedf(self, trace, cluster):
        class DynamicMinEDF(MinEDFScheduler):
            static_priority = False

        fast = simulate(trace, MinEDFScheduler(), cluster)
        slow = simulate(trace, DynamicMinEDF(), cluster)
        assert fast.completion_times() == slow.completion_times()

    @settings(max_examples=30, deadline=None)
    @given(trace=traces(), cluster=clusters())
    def test_replay_of_replay_is_identical(self, trace, cluster):
        r1 = simulate(trace, FIFOScheduler(), cluster)
        r2 = simulate(trace, FIFOScheduler(), cluster)
        assert r1.completion_times() == r2.completion_times()
        assert r1.events_processed == r2.events_processed

    @settings(max_examples=30, deadline=None)
    @given(trace=traces())
    def test_more_slots_never_hurt_solo_jobs(self, trace):
        """For a single job, a strictly larger cluster cannot be slower.

        Caveat found by hypothesis: the raw property is FALSE for
        profiles whose first-shuffle durations exceed the typical ones —
        a bigger cluster pulls more reduces into the first wave, where
        they draw from the (larger) first-shuffle array.  That is
        correct replay semantics, not an engine defect, so the property
        is asserted for profiles with identical first/typical shuffle
        pricing, where wave membership cannot change task durations.
        """
        profile = trace[0].profile
        if profile.num_reduces > 0:
            from repro.core import JobProfile

            shuffle = profile.typical_shuffle_durations
            if not shuffle.size:
                shuffle = profile.first_shuffle_durations
            profile = JobProfile(
                name=profile.name,
                num_maps=profile.num_maps,
                num_reduces=profile.num_reduces,
                map_durations=profile.map_durations,
                first_shuffle_durations=shuffle,
                typical_shuffle_durations=shuffle,
                reduce_durations=profile.reduce_durations,
            )
        small = simulate([TraceJob(profile, 0.0)], FIFOScheduler(), ClusterConfig(2, 2))
        big = simulate([TraceJob(profile, 0.0)], FIFOScheduler(), ClusterConfig(8, 8))
        assert big.makespan <= small.makespan + 1e-9


def _digested_run(trace, scheduler, cluster, engine):
    recorder = DigestRecorder()
    result = _simulate(trace, scheduler, cluster, engine=engine, sanitizer=recorder)
    result.event_digest = recorder.hexdigest()
    return result


@pytest.mark.usefixtures("_both_engines")
class TestEngineDifferential:
    @settings(max_examples=40, deadline=None)
    @given(
        trace=traces(durations=tied_durations),
        cluster=clusters(),
        scheduler=st.sampled_from([FIFOScheduler, MaxEDFScheduler]),
    )
    def test_object_and_columnar_digests_agree(self, trace, cluster, scheduler):
        """Both engines emit the same event stream and the same task
        records in the same order, zero-length and same-instant tasks
        included; metrics over those records are bit-identical."""
        obj = _digested_run(trace, scheduler(), cluster, "object")
        col = _digested_run(trace, scheduler(), cluster, "columnar")
        assert obj.event_digest == col.event_digest
        assert col.task_records == obj.task_records
        assert list(col.task_records) == list(obj.task_records)
        assert utilization(col, cluster) == utilization(obj, cluster)


def _one_ulp_sites(trace):
    """Every float a trace's digest must cover, as ``(job, field, index)``."""
    sites = []
    for j, job in enumerate(trace):
        sites.append((j, "submit_time", None))
        if job.deadline is not None:
            sites.append((j, "deadline", None))
        for phase in ("map", "first_shuffle", "typical_shuffle", "reduce"):
            field = f"{phase}_durations"
            sites.extend((j, field, k) for k in range(getattr(job.profile, field).size))
    return sites


def _nudged(trace, site):
    """``trace`` with the float at ``site`` moved up by one ulp."""
    j, field, index = site
    job = trace[j]
    if index is None:
        job = dataclasses.replace(job, **{field: float(np.nextafter(getattr(job, field), np.inf))})
    else:
        values = getattr(job.profile, field).copy()
        values[index] = np.nextafter(values[index], np.inf)
        job = dataclasses.replace(job, profile=dataclasses.replace(job.profile, **{field: values}))
    return trace[:j] + [job] + trace[j + 1:]


@pytest.mark.usefixtures("_both_engines")
class TestTraceIdentity:
    """One trace, one digest: every format reaches the same identity."""

    @settings(max_examples=40, deadline=None)
    @given(trace=traces(durations=tied_durations))
    def test_digest_is_format_independent(self, trace):
        digest = trace_digest(trace)
        from_json = trace_from_dict(json.loads(json.dumps(trace_to_dict(trace))))
        assert trace_digest(from_json) == digest
        assert unpack_columns(pack_trace(trace)).digest() == digest
        assert trace_digest(TraceColumns.from_trace(trace).jobs()) == digest
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.simmr"
            save_trace_bin(trace, path)
            mapped = load_columns(path, use_mmap=True)
            assert mapped.digest() == digest
            assert trace_digest(mapped.jobs()) == digest
        with TraceDatabase() as db:
            db.save_trace("t", trace)
            assert trace_digest(db.load_trace("t")) == digest

    @settings(max_examples=40, deadline=None)
    @given(trace=traces(durations=tied_durations), data=st.data())
    def test_one_ulp_changes_the_digest(self, trace, data):
        site = data.draw(st.sampled_from(_one_ulp_sites(trace)))
        assert trace_digest(_nudged(trace, site)) != trace_digest(trace)
