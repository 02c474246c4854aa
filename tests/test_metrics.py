"""Tests for the derived simulation metrics (utilization, delays, ...)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ClusterConfig, TraceJob, simulate
from repro.core.metrics import (
    concurrency_series,
    queueing_delays,
    slot_seconds,
    stage_breakdown,
    utilization,
)
from repro.schedulers import FIFOScheduler

from conftest import make_constant_profile, make_random_profile


@pytest.fixture
def run():
    """One fully-packed run: 8 maps of 10s on 4 slots + 4 reduces."""
    profile = make_constant_profile(
        num_maps=8, num_reduces=4, map_s=10.0, first_shuffle_s=5.0, reduce_s=3.0
    )
    cluster = ClusterConfig(4, 4)
    return simulate([TraceJob(profile, 0.0)], FIFOScheduler(), cluster), cluster, profile


class TestSlotSeconds:
    def test_map_slot_seconds(self, run):
        result, _, _ = run
        assert slot_seconds(result, "map") == pytest.approx(80.0)

    def test_total_includes_filler_occupation(self, run):
        result, _, _ = run
        # Reduce slots are held from dispatch (during the map stage)
        # through shuffle and reduce — more than shuffle+reduce durations.
        assert slot_seconds(result, "reduce") > 4 * (5.0 + 3.0)

    def test_all_kinds(self, run):
        result, _, _ = run
        total = slot_seconds(result)
        assert total == pytest.approx(
            slot_seconds(result, "map") + slot_seconds(result, "reduce")
        )


class TestUtilization:
    def test_map_utilization(self, run):
        result, cluster, _ = run
        report = utilization(result, cluster)
        # 80 map-slot-seconds / (4 slots * 28s makespan)
        assert report.map_utilization == pytest.approx(80.0 / (4 * result.makespan))
        assert 0.0 < report.reduce_utilization <= 1.0
        assert 0.0 < report.overall <= 1.0

    def test_requires_records(self, run):
        _, cluster, profile = run
        bare = simulate(
            [TraceJob(profile, 0.0)], FIFOScheduler(), cluster, record_tasks=False
        )
        with pytest.raises(ValueError, match="record_tasks"):
            utilization(bare, cluster)

    def test_empty_run(self):
        result = simulate([], FIFOScheduler(), ClusterConfig(2, 2))
        with pytest.raises(ValueError):
            utilization(result, ClusterConfig(2, 2))


class TestQueueingDelays:
    def test_first_job_starts_immediately(self, run):
        result, _, _ = run
        assert queueing_delays(result)[0] == pytest.approx(0.0)

    def test_queued_job_waits(self):
        profile = make_constant_profile(num_maps=4, num_reduces=0, map_s=10.0)
        trace = [TraceJob(profile, 0.0), TraceJob(profile, 0.0)]
        result = simulate(trace, FIFOScheduler(), ClusterConfig(4, 4))
        delays = queueing_delays(result)
        assert delays[0] == pytest.approx(0.0)
        assert delays[1] == pytest.approx(10.0)


class TestStageBreakdown:
    def test_decomposition(self, run):
        result, _, _ = run
        breakdown = stage_breakdown(result, 0)
        assert breakdown["map"] == pytest.approx(80.0)
        assert breakdown["reduce"] == pytest.approx(4 * 3.0)
        assert breakdown["shuffle"] > 0

    def test_unknown_job(self, run):
        result, _, _ = run
        with pytest.raises(KeyError):
            stage_breakdown(result, 99)


class TestConcurrencySeries:
    def test_peaks_at_slot_count(self, run):
        result, cluster, _ = run
        _, running = concurrency_series(result, "map", points=200)
        assert running.max() == cluster.map_slots
        assert running.min() == 0

    def test_job_filter(self, run):
        result, _, _ = run
        times, running = concurrency_series(result, "map", points=50, job_id=0)
        assert running.sum() > 0
        _, none = concurrency_series(result, "map", points=50, job_id=42)
        assert none.sum() == 0

    def test_validation(self, run):
        result, _, _ = run
        with pytest.raises(ValueError):
            concurrency_series(result, "shuffle")
        with pytest.raises(ValueError):
            concurrency_series(result, "map", points=1)


class TestColumnsMatchRecordLoop:
    """The column reductions against the per-record loops they replaced.

    numpy sums pairwise where the loops summed left to right, so the
    two agree to a few ulps of the total, not bit for bit.
    """

    @pytest.fixture(params=["object", "columnar"])
    def busy_run(self, request):
        rng = np.random.default_rng(5)
        trace = [
            TraceJob(make_random_profile(rng, num_maps=40, num_reduces=12), 15.0 * i)
            for i in range(12)
        ]
        cluster = ClusterConfig(8, 4)
        return simulate(trace, FIFOScheduler(), cluster, engine=request.param), cluster

    def test_slot_seconds_and_stage_breakdown(self, busy_run):
        result, _ = busy_run
        records = list(result.task_records)
        for kind in (None, "map", "reduce"):
            loop = sum(r.end - r.start for r in records if kind is None or r.kind == kind)
            assert slot_seconds(result, kind) == pytest.approx(loop, rel=1e-12)
        for job in result.jobs:
            mine = [r for r in records if r.job_id == job.job_id]
            reduces = [r for r in mine if r.kind == "reduce" and r.shuffle_end is not None]
            assert stage_breakdown(result, job.job_id) == pytest.approx({
                "map": sum(r.end - r.start for r in mine if r.kind == "map"),
                "shuffle": sum(r.shuffle_end - r.start for r in reduces),
                "reduce": sum(r.end - r.shuffle_end for r in reduces),
            }, rel=1e-12)

    def test_concurrency_series(self, busy_run):
        result, _ = busy_run
        records = list(result.task_records)
        for kind in ("map", "reduce"):
            times, running = concurrency_series(result, kind, points=64, job_id=3)
            mine = [r for r in records if r.kind == kind and r.job_id == 3]
            assert running.tolist() == [
                sum(r.start <= t < r.end for r in mine) for t in times
            ]
