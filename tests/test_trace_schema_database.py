"""Tests for trace serialization and the sqlite trace database."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TraceJob
from repro.trace.database import TraceDatabase
from repro.trace.schema import (
    SCHEMA_VERSION,
    load_trace,
    profile_from_dict,
    profile_to_dict,
    save_trace,
    trace_from_dict,
    trace_to_dict,
)

from conftest import make_constant_profile, make_random_profile


class TestSchema:
    def test_profile_round_trip(self, random_profile):
        rebuilt = profile_from_dict(profile_to_dict(random_profile))
        assert rebuilt.name == random_profile.name
        assert rebuilt.num_maps == random_profile.num_maps
        assert np.array_equal(rebuilt.map_durations, random_profile.map_durations)
        assert np.array_equal(
            rebuilt.first_shuffle_durations, random_profile.first_shuffle_durations
        )

    def test_trace_round_trip(self, random_profile):
        trace = [TraceJob(random_profile, 0.0, 500.0), TraceJob(random_profile, 10.0)]
        rebuilt = trace_from_dict(trace_to_dict(trace))
        assert len(rebuilt) == 2
        assert rebuilt[0].deadline == 500.0
        assert rebuilt[1].deadline is None
        assert rebuilt[1].submit_time == 10.0

    def test_version_checked(self, random_profile):
        doc = trace_to_dict([TraceJob(random_profile, 0.0)])
        assert doc["schema_version"] == SCHEMA_VERSION
        doc["schema_version"] = 99
        with pytest.raises(ValueError, match="schema version"):
            trace_from_dict(doc)

    def test_missing_field_raises(self):
        with pytest.raises(ValueError, match="missing required field"):
            profile_from_dict({"name": "x"})

    def test_file_round_trip(self, tmp_path, random_profile):
        trace = [TraceJob(random_profile, 5.0, 300.0)]
        path = tmp_path / "trace.json"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded[0].submit_time == 5.0
        assert np.array_equal(loaded[0].profile.map_durations, random_profile.map_durations)


class TestTraceDatabase:
    def test_profile_store_and_get(self):
        with TraceDatabase() as db:
            profile = make_constant_profile(name="WordCount")
            db.add_profile(profile, execution=0)
            loaded = db.get_profile("WordCount", 0)
            assert loaded.num_maps == profile.num_maps
            assert np.array_equal(loaded.map_durations, profile.map_durations)

    def test_multiple_executions(self, rng):
        with TraceDatabase() as db:
            for e in range(3):
                db.add_profile(make_random_profile(rng, name="app"), execution=e)
            assert db.executions_of("app") == [0, 1, 2]

    def test_duplicate_execution_rejected(self):
        with TraceDatabase() as db:
            db.add_profile(make_constant_profile(name="a"), execution=0)
            with pytest.raises(ValueError, match="already stored"):
                db.add_profile(make_constant_profile(name="a"), execution=0)

    def test_missing_profile_raises(self):
        with TraceDatabase() as db:
            with pytest.raises(KeyError):
                db.get_profile("nothing")

    def test_applications_listing(self, rng):
        with TraceDatabase() as db:
            db.add_profile(make_random_profile(rng, name="b"))
            db.add_profile(make_random_profile(rng, name="a"))
            assert db.applications() == ["a", "b"]

    def test_trace_round_trip(self, rng):
        with TraceDatabase() as db:
            profile = make_random_profile(rng, name="app")
            trace = [TraceJob(profile, 0.0, 100.0), TraceJob(profile, 7.0)]
            db.save_trace("night-batch", trace)
            loaded = db.load_trace("night-batch")
            assert len(loaded) == 2
            assert loaded[0].deadline == 100.0
            assert loaded[1].submit_time == 7.0
            assert np.array_equal(loaded[0].profile.map_durations, profile.map_durations)

    def test_identical_profiles_deduplicated(self, rng):
        with TraceDatabase() as db:
            profile = make_random_profile(rng, name="app")
            db.save_trace("t", [TraceJob(profile, 0.0), TraceJob(profile, 1.0)])
            assert db.executions_of("app") == [0]

    def test_duplicate_trace_name_rejected(self, rng):
        with TraceDatabase() as db:
            profile = make_random_profile(rng)
            db.save_trace("t", [TraceJob(profile, 0.0)])
            with pytest.raises(ValueError, match="already stored"):
                db.save_trace("t", [TraceJob(profile, 0.0)])

    def test_depends_on_refused(self, rng):
        # No column holds depends_on; storing the trace would silently
        # turn a workflow into independent jobs.
        profile = make_random_profile(rng)
        trace = [TraceJob(profile, 0.0), TraceJob(profile, 1.0, depends_on=0)]
        with TraceDatabase() as db:
            with pytest.raises(ValueError, match="job 1 has depends_on"):
                db.save_trace("t", trace)
            assert db.trace_names() == []

    def test_delete_trace(self, rng):
        with TraceDatabase() as db:
            profile = make_random_profile(rng)
            db.save_trace("t", [TraceJob(profile, 0.0)])
            db.delete_trace("t")
            assert db.trace_names() == []
            with pytest.raises(KeyError):
                db.load_trace("t")
            with pytest.raises(KeyError):
                db.delete_trace("t")

    def test_persistent_file(self, tmp_path, rng):
        path = tmp_path / "traces.db"
        profile = make_random_profile(rng, name="app")
        with TraceDatabase(path) as db:
            db.save_trace("t", [TraceJob(profile, 3.0)])
        with TraceDatabase(path) as db:
            loaded = db.load_trace("t")
            assert loaded[0].submit_time == 3.0
