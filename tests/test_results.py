"""Tests for result containers and combined-feature engine scenarios."""

from __future__ import annotations

import numpy as np
import pytest

import math
import pickle

from repro.core import (
    ClusterConfig,
    JobResult,
    NetworkShuffleModel,
    SimulationResult,
    SimulatorEngine,
    TaskRecord,
    TaskRecords,
    TraceJob,
    simulate,
)
from repro.core.metrics import utilization
from repro.core.results_io import result_from_dict, result_to_dict
from repro.schedulers import FIFOScheduler, MinEDFScheduler

from conftest import make_constant_profile


class TestJobResult:
    def make(self, completion=50.0, deadline=None):
        return JobResult(
            job_id=0, name="j", submit_time=10.0, start_time=11.0,
            map_stage_end=30.0, completion_time=completion, deadline=deadline,
            num_maps=4, num_reduces=2,
        )

    def test_duration(self):
        assert self.make().duration == pytest.approx(40.0)

    def test_unfinished_duration_none(self):
        assert self.make(completion=None).duration is None

    def test_met_deadline(self):
        assert self.make(deadline=60.0).met_deadline is True
        assert self.make(deadline=40.0).met_deadline is False
        assert self.make(deadline=None).met_deadline is None

    def test_relative_deadline_exceeded(self):
        assert self.make(deadline=40.0).relative_deadline_exceeded() == pytest.approx(
            10.0 / 40.0
        )
        assert self.make(deadline=60.0).relative_deadline_exceeded() == 0.0
        assert self.make(deadline=None).relative_deadline_exceeded() == 0.0


class TestSimulationResultHelpers:
    @pytest.fixture
    def result(self):
        profile = make_constant_profile(num_maps=4, num_reduces=2)
        trace = [TraceJob(profile, 0.0, deadline=10.0), TraceJob(profile, 5.0)]
        return simulate(trace, FIFOScheduler(), ClusterConfig(4, 4))

    def test_job_lookup(self, result):
        assert result.job(1).submit_time == 5.0
        with pytest.raises(KeyError):
            result.job(9)

    def test_jobs_missed_deadline(self, result):
        missed = result.jobs_missed_deadline()
        assert [j.job_id for j in missed] == [0]  # 10s deadline is impossible

    def test_len_and_iter(self, result):
        assert len(result) == 2
        assert [j.job_id for j in result] == [0, 1]

    def test_task_records_for_filters(self, result):
        maps = result.task_records_for(0, "map")
        assert len(maps) == 4
        everything = result.task_records_for(0)
        assert len(everything) == 6

    def test_events_per_second_positive(self, result):
        assert result.events_per_second > 0


class TestFeatureCombinations:
    def test_dependencies_with_deadline_scheduler(self):
        """A workflow's final-stage deadline drives MinEDF demands."""
        profile = make_constant_profile(num_maps=8, num_reduces=0, map_s=10.0)
        trace = [
            TraceJob(profile, 0.0),
            TraceJob(profile, 0.0, deadline=200.0, depends_on=0),
        ]
        result = simulate(trace, MinEDFScheduler(), ClusterConfig(8, 8))
        assert result.jobs[1].start_time >= result.jobs[0].completion_time
        assert result.jobs[1].completion_time <= 200.0

    def test_dependencies_with_preemption(self):
        """A dependent urgent job preempts when it finally arrives."""
        parent = make_constant_profile(name="parent", num_maps=2, num_reduces=0, map_s=5.0)
        hog = make_constant_profile(name="hog", num_maps=8, num_reduces=0, map_s=100.0)
        child = make_constant_profile(name="child", num_maps=4, num_reduces=0, map_s=5.0)
        trace = [
            TraceJob(parent, 0.0, deadline=20.0),
            TraceJob(hog, 1.0, deadline=10000.0),
            TraceJob(child, 0.0, deadline=40.0, depends_on=0),
        ]
        from repro.schedulers import MaxEDFScheduler

        engine = SimulatorEngine(
            ClusterConfig(4, 4), MaxEDFScheduler(preemptive=True), preemption=True
        )
        result = engine.run(trace)
        assert result.jobs[2].completion_time <= 40.0
        assert any(r.killed for r in result.task_records)

    def test_shuffle_model_with_dependencies(self):
        profile = make_constant_profile(num_maps=2, num_reduces=2, map_s=5.0, reduce_s=1.0)
        model = NetworkShuffleModel(1e8, 1e8, first_wave_fraction=1.0)
        trace = [TraceJob(profile, 0.0), TraceJob(profile, 0.0, depends_on=0)]
        engine = SimulatorEngine(
            ClusterConfig(4, 4), FIFOScheduler(), shuffle_model=model
        )
        result = engine.run(trace)
        assert result.jobs[1].start_time >= result.jobs[0].completion_time

    def test_workflow_chain_under_contention(self):
        """Dependent stages interleave correctly with unrelated jobs."""
        stage = make_constant_profile(name="stage", num_maps=4, num_reduces=0, map_s=10.0)
        other = make_constant_profile(name="other", num_maps=4, num_reduces=0, map_s=10.0)
        trace = [
            TraceJob(stage, 0.0),
            TraceJob(other, 0.0),
            TraceJob(stage, 0.0, depends_on=0),
        ]
        result = simulate(trace, FIFOScheduler(), ClusterConfig(4, 4))
        assert result.jobs[2].start_time >= result.jobs[0].completion_time
        assert all(j.completion_time is not None for j in result.jobs)


class TestTaskRecords:
    """The one columnar record type every engine path returns."""

    @pytest.fixture(params=["object", "columnar"])
    def result(self, request):
        profile = make_constant_profile(num_maps=6, num_reduces=3)
        trace = [TraceJob(profile, 0.0), TraceJob(profile, 2.0), TraceJob(profile, 2.0)]
        return simulate(trace, FIFOScheduler(), ClusterConfig(4, 2), engine=request.param)

    def test_one_type_on_every_path(self, result):
        assert type(result.task_records) is TaskRecords
        empty = simulate(
            [TraceJob(make_constant_profile(), 0.0)], FIFOScheduler(),
            ClusterConfig(4, 4), record_tasks=False,
        )
        assert type(empty.task_records) is TaskRecords

    def test_equals_a_plain_list(self, result):
        plain = [
            TaskRecord(r.kind, r.job_id, r.index, r.start, r.end, r.shuffle_end,
                       r.first_wave, r.killed)
            for r in result.task_records
        ]
        assert result.task_records == plain
        assert plain == result.task_records
        assert result.task_records != plain[:-1]
        assert result.task_records[:3] == plain[:3]
        assert TaskRecords.from_records(plain) == result.task_records

    def test_columns_are_read_only(self, result):
        with pytest.raises(ValueError):
            result.task_records.start[0] = 99.0
        with pytest.raises(TypeError):
            result.task_records[0] = result.task_records[1]

    def test_materialized_records_are_a_snapshot(self, result):
        records = result.task_records
        before = utilization(result, ClusterConfig(4, 2))
        first = records[0]
        assert records[0] is first  # built once, then cached
        first.end += 100.0
        assert records.end[0] == first.end - 100.0
        assert utilization(result, ClusterConfig(4, 2)) == before

    def test_round_trips_without_a_cache(self, result):
        records = result.task_records
        list(records)  # materialize, so a leaked cache would show
        for back in (
            result_from_dict(result_to_dict(result)).task_records,
            pickle.loads(pickle.dumps(records)),
        ):
            assert back._objects is None
            assert back == records
            assert back.start.flags.writeable is False
        assert pickle.loads(pickle.dumps(result)).task_records._objects is None

    def test_unfinished_and_unshuffled_encodings(self):
        records = TaskRecords.from_records([
            TaskRecord("map", 0, 0, 1.0),
            TaskRecord("reduce", 0, 0, 1.0, 4.0, 3.0, True),
        ])
        assert math.isinf(records.end[0])
        assert np.isnan(records.shuffle_end[0])
        assert list(records) == [
            TaskRecord("map", 0, 0, 1.0),
            TaskRecord("reduce", 0, 0, 1.0, 4.0, 3.0, True),
        ]
        doc = result_to_dict(SimulationResult("x", [], records, 0.0, 0, 0.0))
        assert doc["task_records"][0]["end"] is None
        assert doc["task_records"][0]["shuffle_end"] is None
        assert doc["task_records"][1]["shuffle_end"] == 3.0


class TestProfileStability:
    def test_phase_invariants_stable_across_executions(self):
        """Paper Section II: avg/max per-phase metrics are 'very stable
        (within 10-15%) across different job executions'."""
        from repro.workloads import app_spec

        rng = np.random.default_rng(3)
        for app in ("WordCount", "Sort", "Bayes"):
            spec = app_spec(app)
            runs = [spec.make_profile(rng) for _ in range(5)]
            for stat in ("map_stats", "typical_shuffle_stats", "reduce_stats"):
                avgs = [getattr(p, stat).avg for p in runs]
                spread = (max(avgs) - min(avgs)) / np.mean(avgs)
                assert spread < 0.15, f"{app}.{stat}: spread {spread:.2%}"
