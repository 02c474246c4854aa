"""The benchmark's own tests, at tiny input sizes.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(
    replay_per_app=2, sweep_per_app=2, service_per_app=1, setup_repeats=2,
)
SEED = 3
SPEC = harness.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]
LOCAL = ["replay_static", "sweep_dynamic"]


@pytest.fixture(scope="module")
def runs():
    """One tiny run per (workload, traced), shared by the tests."""
    done: dict[tuple[str, bool], workloads.RunResult] = {}

    def get(name: str, traced: bool) -> workloads.RunResult:
        if (name, traced) not in done:
            done[name, traced] = workloads.run_benchmark(name, SEED, 0, traced, TINY)
        return done[name, traced]

    return get


def test_spec_names_the_workloads():
    assert NAMES == ["replay_static", "sweep_dynamic", "service_warm"]
    assert set(workloads.WORKLOADS) == set(NAMES)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(runs, name, traced):
    run = runs(name, traced)
    expected = SPEC["per_layer" if traced else "end_to_end"]
    assert set(run.metrics.values) == {m["name"] for m in expected}
    for m in expected:
        assert run.metrics.values[m["name"]].unit == m["unit"]
    line = json.loads(harness.result_line(run.correct, run.attempted, run.failed, run.metrics))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1
    for key in ("commit", "dirty", "date_utc", "nproc", "python", "numpy", "seed",
                "ops_per_run", "source_digest"):
        assert key in run.provenance
    assert run.provenance["seed"] == SEED


@pytest.mark.parametrize("name", NAMES)
def test_no_failures_at_head(runs, name):
    for traced in (False, True):
        run = runs(name, traced)
        assert run.failed == 0 and run.correct, run.errors
    layers = runs(name, True).metrics.values
    assert layers["failed_frac"].value == 0.0
    assert layers["core.kernel.kernel_ratio"].value == 1.0
    if name != "replay_static":
        expected_hits = 1.0 if name == "service_warm" else 0.0
        assert layers["parallel.cache.hit_ratio"].value == expected_hits


def _wrong_digest(real):
    def reference(*args, **kwargs):
        result = real(*args, **kwargs)
        result.event_digest = "0" * 32
        return result

    return reference


def _wrong_digests(real):
    def reference(*args, **kwargs):
        return {key: ("0" * 32, times) for key, (_, times) in real(*args, **kwargs).items()}

    return reference


@pytest.mark.parametrize(
    "name, reference, corrupt",
    [
        ("replay_static", "object_reference", _wrong_digest),
        ("sweep_dynamic", "sweep_reference", _wrong_digests),
        ("service_warm", "service_reference", _wrong_digests),
    ],
)
def test_wrong_reference_digest_fails_the_ops(monkeypatch, name, reference, corrupt):
    monkeypatch.setattr(workloads, reference, corrupt(getattr(workloads, reference)))
    run = workloads.run_benchmark(name, SEED, 0, False, TINY)
    assert run.failed == run.attempted > 0
    assert not run.correct


@pytest.mark.parametrize("name", LOCAL)
def test_traced_unit_takes_the_untraced_engine_path(tmp_path, name):
    workload = workloads.WORKLOADS[name](SEED, TINY, tmp_path, harness.SpeedGauge())
    workload.setup()
    with workload:
        plain = workload.unit(None)
        traced = workload.unit(harness.Spans())
    expected_mode = "passes" if name == "replay_static" else "replay"
    assert [(op.path, op.mode) for op in plain] == [("kernel", expected_mode)] * len(plain)
    assert [(op.key, op.path, op.mode, op.output) for op in traced] == [
        (op.key, op.path, op.mode, op.output) for op in plain
    ]
    assert all(op.layers for op in traced) and not any(op.layers for op in plain)


@pytest.mark.parametrize("name", NAMES)
def test_ops_carry_their_cpu_time(tmp_path, name):
    """``op_p95_ms`` is taken over on-CPU time; on the service it must
    count the server's CPU as well as the client's."""
    workload = workloads.WORKLOADS[name](SEED, TINY, tmp_path, harness.SpeedGauge())
    try:
        workload.setup()
        with workload:
            server_before = workload.server_cpu() if name == "service_warm" else 0.0
            ops = workload.unit(None)
            server = workload.server_cpu() - server_before if name == "service_warm" else 0.0
    finally:
        workload.close()
    assert all(op.error is None and op.cpu_seconds > 0 for op in ops)
    if name == "service_warm":
        assert server > 0
        assert sum(op.cpu_seconds for op in ops) > server


def test_exits_nonzero_without_sources(tmp_path):
    """With only BENCHMARK.json and the benchmark's own files, the
    runner refuses and prints no result."""
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "replay_static",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
