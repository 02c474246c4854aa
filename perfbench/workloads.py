"""The three workloads of the SimMR end-to-end benchmark, and the run loop.

* ``replay_static`` — the paper's Fig. 6 user call: ``simulate()`` with
  defaults on a ~500-job performance trace, then
  ``core.metrics.utilization``.  Kernel pass mode, task records and the
  metrics layer; no run-time scheduler decisions.
* ``sweep_dynamic`` — one cell of a serial ``simulate_many(...,
  workers=0, digest=True)`` batch writing a fresh on-disk
  ``ResultCache``: Fair, Fair+P, MaxEDF+P and the ``deadline-aware``
  policy tree at 32x32 and 64x64 slots on a deadline-decorated
  120-job trace.  Segmented replay, scheduler decisions, kills, the
  event digest and cache writes.
* ``service_warm`` — one ``POST /simulate`` through ``ServiceClient``
  to a child ``simmr serve --workers 1`` whose cache was pre-warmed, so
  every timed request is a cache hit: JSON, ``parse_request``,
  ``trace_digest``, the cache read and result encoding.

Every operation's output is checked outside the timed region: against
``SimulatorEngine`` on the same inputs for the two local workloads, and
against a local ``simulate_many`` for the service.  README.md beside
this file documents the metrics.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import urllib.request
from dataclasses import dataclass, replace
from hashlib import blake2b
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Optional

import numpy as np

from harness import (
    ROOT,
    SRC,
    EnginePaths,
    Metrics,
    Op,
    Spans,
    SpeedGauge,
    child_peak_rss_mb,
    load_spec,
    pin_to_one_cpu,
    process_cpu_clock,
    provenance,
    quantile,
    self_peak_rss_mb,
    unpin,
    wrap_instance_method,
)
from repro.core import ClusterConfig, ColumnarEngine, SimulatorEngine, TraceJob, simulate
from repro.core.columns import TraceColumns
from repro.core.metrics import utilization
from repro.core.results_io import result_from_dict, result_to_dict
from repro.parallel import ResultCache, SchedulerSpec, SimTask, simulate_many
from repro.policy import policy_spec
from repro.policy.examples import example_policy
from repro.sanitize.digest import DigestRecorder, trace_digest
from repro.schedulers import FIFOScheduler, MaxEDFScheduler
from repro.service import ServiceClient
from repro.service.protocol import parse_request, request_document
from repro.trace.arrivals import ExponentialArrivals
from repro.trace.schema import trace_from_dict
from repro.trace.synthetic import SyntheticTraceGen
from repro.workloads.apps import make_app_specs

#: Seed the documented numbers were measured with, and the held-out
#: seed a claimed gain must be re-checked on.
DEFAULT_SEED = 7
HELD_OUT_SEED = 1009

WORK_DIR = ROOT / ".perfbench_work"


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark, tests shrink them."""

    #: Jobs per application (six apps): 504, 120 and 30 jobs.
    replay_per_app: int = 84
    sweep_per_app: int = 20
    service_per_app: int = 5
    #: Set-up is repeated and its median reported (``setup_s``).
    setup_repeats: int = 5


def balanced_trace(per_app: int, mean_interarrival: float, seed: int) -> list[TraceJob]:
    """A seeded trace of the paper's six-application mix, ``per_app``
    jobs of each application, on the first Poisson arrivals.

    ``make_performance_trace`` draws each job's application at random,
    so its task count, and every timing with it, moves between seeds
    (a 30-job trace serializes to 314-459 KB over twelve seeds).
    Taking the first ``per_app`` jobs of each
    application from the same generator fixes the task count, so a
    seed changes durations and arrival times, not the amount of work.
    """
    specs = list(make_app_specs().values())
    gen = SyntheticTraceGen(specs, ExponentialArrivals(mean_interarrival), seed=seed)
    n = per_app * len(specs)
    arrivals = gen.generate(n)
    pool = list(arrivals)
    while True:
        taken: dict[str, int] = {}
        picked = []
        for tj in pool:
            if taken.get(tj.profile.name, 0) < per_app:
                taken[tj.profile.name] = taken.get(tj.profile.name, 0) + 1
                picked.append(tj)
        if len(picked) == n:
            break
        pool += gen.generate(n)
    return [TraceJob(tj.profile, at.submit_time) for tj, at in zip(picked, arrivals)]


def object_reference(trace: list[TraceJob], scheduler: Any, cluster: ClusterConfig) -> Any:
    """The reference run: ``SimulatorEngine`` with an event digest."""
    recorder = DigestRecorder()
    result = SimulatorEngine(cluster, scheduler, sanitizer=recorder).run(trace)
    result.event_digest = recorder.hexdigest()
    return result


def completion_times(result: Any) -> tuple:
    return tuple(j.completion_time for j in result.jobs)


def _fail(ops: list[Op], error: str) -> None:
    for op in ops:
        if op.error is None:
            op.error = error


def _check_path(op: Op, mode: Optional[str]) -> None:
    if op.error is None and op.path != "kernel":
        op.error = f"engine path {op.path!r}, expected 'kernel'"
    if op.error is None and mode is not None and op.mode != mode:
        op.error = f"kernel mode {op.mode!r}, expected {mode!r}"


# --------------------------------------------------------------------------- #
# replay_static
# --------------------------------------------------------------------------- #

STATIC_SCHEDULERS = (("fifo", FIFOScheduler), ("maxedf", MaxEDFScheduler))


def static_output(result: Any) -> tuple:
    """What a static replay must reproduce: a fingerprint of its task
    records (in a canonical order) and job times, plus the event count."""
    rows = np.array(
        [
            (r.job_id, r.kind == "reduce", r.index, r.start, r.end,
             _num(r.shuffle_end), r.first_wave, r.killed)
            for r in result.task_records
        ],
        dtype=np.float64,
    ).reshape(-1, 8)
    rows = rows[np.lexsort(rows.T[::-1])]
    jobs = np.array(
        [(j.job_id, _num(j.start_time), _num(j.map_stage_end), _num(j.completion_time))
         for j in result.jobs],
        dtype=np.float64,
    )
    h = blake2b(digest_size=16)
    for part in (rows, jobs, np.float64(result.makespan)):
        h.update(np.ascontiguousarray(part).tobytes())
    return (h.hexdigest(), result.events_processed)


def _num(value: Optional[float]) -> float:
    return math.nan if value is None else value


class ReplayStatic:
    name = "replay_static"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, gauge: SpeedGauge) -> None:
        self.seed = seed
        self.sizes = sizes
        self.gauge = gauge
        self.cluster = ClusterConfig(64, 64)
        self.paths = EnginePaths()
        self.generate_s = 0.0

    def setup(self) -> None:
        start = perf_counter()
        self.trace = balanced_trace(self.sizes.replay_per_app, 50.0, self.seed)
        self.generate_s = perf_counter() - start

    def __enter__(self) -> "ReplayStatic":
        self.paths.__enter__()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.paths.__exit__(*exc_info)

    def close(self) -> None:
        pass

    def unit(self, spans: Optional[Spans]) -> list[Op]:
        """FIFO then MaxEDF, so every whole unit has the same mix."""
        return [self._op(key, factory, spans) for key, factory in STATIC_SCHEDULERS]

    def _op(self, key: str, factory: Any, spans: Optional[Spans]) -> Op:
        self.paths.take()
        self.gauge.sample()
        try:
            start, cpu_start = perf_counter(), process_time()
            result = simulate(self.trace, factory(), self.cluster)
            mid = perf_counter()
            report = utilization(result, self.cluster)
            end, cpu_end = perf_counter(), process_time()
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            return Op(key, 0.0, error=f"{type(exc).__name__}: {exc}")
        paths = self.paths.take()
        path, mode = paths[0] if len(paths) == 1 else (None, None)
        op = Op(
            key, end - start, started=start, events=result.events_processed,
            output=(*static_output(result), report.overall), path=path, mode=mode,
            cpu_seconds=cpu_end - cpu_start,
        )
        records = len(result.task_records)
        del result  # the probes below must not run beside a live result
        if spans is not None:
            op.layers = self._probe(factory, records, end - mid, op.seconds)
        return op

    def _probe(self, factory: Any, records: int, util_s: float, op_s: float) -> dict:
        """Layer split of one op: calls the benchmark makes itself."""
        layers = {
            "core.metrics.utilization_ms": util_s,
            "core.kernel.task_records": records,
        }
        _timed(layers, "core.columns.from_trace_ms", lambda: TraceColumns.from_trace(self.trace))
        runs = {}
        for record in (False, True):
            engine = ColumnarEngine(self.cluster, factory(), record_tasks=record)
            start = perf_counter()
            engine.run(self.trace)
            runs[record] = perf_counter() - start
        layers["core.kernel.passes_ms"] = runs[False]
        layers["core.kernel.records_ms"] = runs[True] - runs[False]
        layers["trace.residual_ms"] = op_s - runs[True] - layers["core.metrics.utilization_ms"]
        self.paths.take()
        return layers

    def check(self, ops: list[Op]) -> None:
        for key, factory in STATIC_SCHEDULERS:
            mine = [op for op in ops if op.key == key]
            ref = object_reference(self.trace, factory(), self.cluster)
            expected = static_output(ref)
            expected_util = utilization(ref, self.cluster).overall
            # The ops run without a digest (simulate()'s defaults); the
            # same call with a DigestRecorder proves their event stream.
            recorder = DigestRecorder()
            digested = simulate(self.trace, factory(), self.cluster, sanitizer=recorder)
            if recorder.hexdigest() != ref.event_digest:
                _fail(mine, "event digest differs from SimulatorEngine")
            if static_output(digested) != expected:
                _fail(mine, "digest-carrying run differs from SimulatorEngine")
            for op in mine:
                if op.error is None and op.output[:2] != expected:
                    op.error = "task records or job times differ from SimulatorEngine"
                # Slot-seconds sum in record order, which the engines may
                # not share: equal up to rounding.
                util = op.output[2] if op.output else math.nan
                if op.error is None and not math.isclose(util, expected_util, rel_tol=1e-9):
                    op.error = f"utilization {util} != {expected_util}"
                _check_path(op, "passes")

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()


# --------------------------------------------------------------------------- #
# sweep_dynamic
# --------------------------------------------------------------------------- #

SWEEP_CLUSTERS = (ClusterConfig(32, 32), ClusterConfig(64, 64))


def deadline_trace(per_app: int, seed: int) -> list[TraceJob]:
    """Performance trace with a 50/50 tight/loose deadline decoration, so
    EDF and the policy tree make real deadline decisions (the same
    decoration as ``benchmarks/bench_engine_throughput.py``)."""
    rng = np.random.default_rng(seed)
    trace = []
    for tj in balanced_trace(per_app, 50.0, seed):
        slack = rng.uniform(30, 120) if rng.random() < 0.5 else rng.uniform(500, 3000)
        trace.append(TraceJob(tj.profile, tj.submit_time, deadline=tj.submit_time + slack))
    return trace


def sweep_tasks() -> list[SimTask]:
    cells = (
        ("fair", SchedulerSpec("registry", "fair"), False),
        ("fair+p", SchedulerSpec("registry", "fair", (("preemptive", True),)), True),
        ("maxedf+p", SchedulerSpec("registry", "maxedf", (("preemptive", True),)), True),
        ("deadline-aware", policy_spec(example_policy("deadline-aware")), False),
    )
    return [
        SimTask(
            "trace", spec, cluster=cluster, preemption=preemption,
            tag=f"{name}@{cluster.map_slots}x{cluster.reduce_slots}",
        )
        for cluster in SWEEP_CLUSTERS
        for name, spec, preemption in cells
    ]


def sweep_reference(trace: list[TraceJob], tasks: list[SimTask]) -> dict[str, tuple]:
    """Digest and job times of every cell on ``SimulatorEngine``.

    The object engine is several times slower than the kernel on these
    cells, so the references run on two worker processes; they are
    outside every timed region.  The trace ships pickled, so no shared
    memory segment or temporary file is made outside the checkout.
    """
    outcomes = simulate_many(
        {"trace": trace}, [replace(task, engine="object") for task in tasks],
        workers=2, cache=None, digest=True, transport="pickle",
    )
    return {
        o.task.tag: (o.result.event_digest, completion_times(o.result)) for o in outcomes
    }


class SweepDynamic:
    name = "sweep_dynamic"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, gauge: SpeedGauge) -> None:
        self.seed = seed
        self.sizes = sizes
        self.gauge = gauge
        self.workdir = workdir
        self.paths = EnginePaths()
        self.generate_s = 0.0
        self.batches = 0

    def setup(self) -> None:
        start = perf_counter()
        self.trace = deadline_trace(self.sizes.sweep_per_app, self.seed)
        self.generate_s = perf_counter() - start
        self.tasks = sweep_tasks()

    def __enter__(self) -> "SweepDynamic":
        self.paths.__enter__()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.paths.__exit__(*exc_info)

    def close(self) -> None:
        pass

    def unit(self, spans: Optional[Spans]) -> list[Op]:
        """One whole batch into a fresh on-disk cache: every cell a write."""
        self.batches += 1
        path = self.workdir / f"sweep-{self.batches}.sqlite"
        cache = ResultCache(path)
        ends: list[float] = []
        starts: list[float] = []
        cpu: list[float] = []
        layers: list[dict[str, float]] = []
        if spans is not None:
            self._trace_cache(cache, spans)
        self.paths.take()

        def progress(done: int, total: int, outcome: Any) -> None:
            ends.append(perf_counter())
            cpu[-1] = process_time() - cpu[-1]
            if spans is not None:
                layers.append(spans.take())
            self.gauge.sample()
            starts.append(perf_counter())
            cpu.append(process_time())

        self.gauge.sample()
        try:
            with _TracedBuild(spans):
                starts.append(perf_counter())
                cpu.append(process_time())
                outcomes = simulate_many(
                    {"trace": self.trace}, self.tasks, workers=0, cache=cache,
                    digest=True, progress=progress,
                )
        except Exception as exc:  # noqa: BLE001 - a failed batch is counted, not fatal
            return [Op(task.tag, 0.0, error=f"{type(exc).__name__}: {exc}") for task in self.tasks]
        finally:
            cache.close()
            path.unlink(missing_ok=True)
        paths = self.paths.take()
        ops = []
        for i, outcome in enumerate(outcomes):
            result = outcome.result
            path, mode = paths[i] if len(paths) == len(outcomes) else (None, None)
            op = Op(
                outcome.task.tag, ends[i] - starts[i], started=starts[i],
                events=result.events_processed,
                output=(result.event_digest, completion_times(result)), path=path, mode=mode,
                cpu_seconds=cpu[i],
            )
            if outcome.cached or outcome.key is None:
                op.error = "cell was not executed and written to the cache"
            if spans is not None:
                op.layers = self._op_layers(layers[i], result)
            ops.append(op)
        if spans is not None:
            start = perf_counter()
            trace_digest(self.trace)
            ops[0].layers["sanitize.digest.trace_digest_ms"] = perf_counter() - start
        return ops

    @staticmethod
    def _trace_cache(cache: ResultCache, spans: Spans) -> None:
        wrap_instance_method(cache, "put", spans, "cache.put", count="cache.puts")

        def counted(result: Any) -> Any:
            spans.add("cache.hits" if result is not None else "cache.misses", 1)
            return result

        wrap_instance_method(cache, "get", spans, "cache.get", count="cache.gets",
                             on_result=counted)

    @staticmethod
    def _op_layers(acc: dict[str, float], result: Any) -> dict[str, float]:
        layers = {
            "schedulers.decisions": acc.get("schedulers.decisions", 0.0),
            "schedulers.decide_ms": acc.get("schedulers.decide", 0.0),
            "schedulers.kill_requests": acc.get("schedulers.kill_requests", 0.0),
            "parallel.cache.stores": acc.get("cache.puts", 0.0),
            "core.kernel.task_records": len(result.task_records),
        }
        # Outside the op: what the cache put spends on encoding.
        _timed(layers, "core.results_io.encode_ms", lambda: json.dumps(result_to_dict(result)))
        if layers["schedulers.decisions"]:
            layers["schedulers.decide_us"] = (
                layers["schedulers.decide_ms"] / layers["schedulers.decisions"]
            )
        if "policy.build" in acc:
            layers["policy.compiler.build_ms"] = acc["policy.build"]
        if acc.get("cache.puts"):
            layers["parallel.cache.put_ms"] = acc["cache.put"] / acc["cache.puts"]
        if acc.get("cache.gets"):
            layers["parallel.cache.get_ms"] = acc["cache.get"] / acc["cache.gets"]
            layers["parallel.cache.hit_ratio"] = acc.get("cache.hits", 0.0) / acc["cache.gets"]
        # Seconds the op spent in spans, for the residual.
        layers["_covered"] = sum(
            acc.get(name, 0.0) for name in ("cache.put", "cache.get", "policy.build")
        )
        return layers

    def probe_cells(self, traced: list[Op]) -> None:
        """Per distinct cell, the engine run with and without the digest
        recorder (plain ``ColumnarEngine.run`` calls, no wrappers).

        The probes run after the traced phase, when the machine may run
        at another speed than during the op they are set against.  Each
        probe is therefore timed at reference speed and converted to the
        op's speed, which the report's scaling then undoes.
        """
        runs: dict[str, tuple[float, float]] = {}
        for task in self.tasks:
            timed = []
            for recorder in (None, DigestRecorder()):
                # No cell scheduler is seeded, so the seed is unused.
                engine = ColumnarEngine(
                    task.cluster, task.scheduler.build(0), record_tasks=False,
                    preemption=task.preemption, sanitizer=recorder,
                )
                self.gauge.sample()
                start = perf_counter()
                engine.run(self.trace)
                end = perf_counter()
                self.gauge.sample()
                timed.append((end - start) * self.gauge.factor(start, end))
            runs[task.tag] = (timed[0], timed[1])
        self.paths.take()
        seen: set[str] = set()
        for op in traced:
            if op.error is not None:
                continue
            op_speed = self.gauge.factor(op.started, op.started + op.seconds)
            plain, digested = (seconds / op_speed for seconds in runs[op.key])
            layers = op.layers
            if op.key not in seen:
                layers["sanitize.digest.event_digest_ms"] = digested - plain
                seen.add(op.key)
            layers["core.kernel.replay_self_ms"] = plain - layers["schedulers.decide_ms"]
            covered = layers.pop("_covered") + layers.get("sanitize.digest.trace_digest_ms", 0.0)
            layers["trace.residual_ms"] = op.seconds - digested - covered

    def check(self, ops: list[Op]) -> None:
        expected = sweep_reference(self.trace, self.tasks)
        for op in ops:
            if op.error is None and op.output != expected[op.key]:
                op.error = "event digest or job times differ from SimulatorEngine"
            _check_path(op, "replay")

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()


class _TracedBuild:
    """While tracing, ``SchedulerSpec.build`` times policy compilation
    and wraps the built scheduler *instance's* decision methods."""

    def __init__(self, spans: Optional[Spans]) -> None:
        self.spans = spans

    def __enter__(self) -> None:
        spans = self.spans
        if spans is None:
            return
        self.original = original = SchedulerSpec.build

        def build(spec: SchedulerSpec, seed: int) -> Any:
            start = perf_counter()
            scheduler = original(spec, seed)
            if spec.kind == "policy":
                spans.add("policy.build", perf_counter() - start)
            for attr in ("columnar_key_columns", "preemption_requests"):
                if hasattr(scheduler, attr):
                    wrap_instance_method(
                        scheduler, attr, spans, "schedulers.decide",
                        count="schedulers.decisions",
                        on_result=_count_kills(spans) if attr == "preemption_requests" else None,
                    )
            return scheduler

        SchedulerSpec.build = build  # type: ignore[method-assign]

    def __exit__(self, *exc_info: object) -> None:
        if self.spans is not None:
            SchedulerSpec.build = self.original  # type: ignore[method-assign]


def _count_kills(spans: Spans) -> Any:
    def count(requests: Any) -> list:
        requests = list(requests)
        spans.add("schedulers.kill_requests", len(requests))
        return requests

    return count


def _timed(layers: dict[str, float], metric: str, fn: Any) -> Any:
    """Call ``fn``, store its seconds under ``metric``, return its value."""
    start = perf_counter()
    value = fn()
    layers[metric] = perf_counter() - start
    return value


# --------------------------------------------------------------------------- #
# service_warm
# --------------------------------------------------------------------------- #

SERVICE_SCHEDULERS = ("fifo", "maxedf", "minedf", "fair")
SERVICE_CLUSTERS = (ClusterConfig(32, 32), ClusterConfig(64, 64))
LISTENING = re.compile(r"simmr service listening on (http://[\w.]+:\d+)")


def service_requests() -> list[tuple[str, ClusterConfig]]:
    return [(name, cluster) for name in SERVICE_SCHEDULERS for cluster in SERVICE_CLUSTERS]


def _service_key(name: str, cluster: ClusterConfig) -> str:
    return f"{name}@{cluster.map_slots}x{cluster.reduce_slots}"


def service_reference(trace: list[TraceJob]) -> dict[str, tuple]:
    """Digest and job times of every request, from a local run."""
    requests = service_requests()
    outcomes = simulate_many(
        {"trace": trace},
        [SimTask("trace", SchedulerSpec("registry", name), cluster=cluster)
         for name, cluster in requests],
        workers=0, cache=None, digest=True,
    )
    return {
        _service_key(name, cluster): (o.result.event_digest, completion_times(o.result))
        for (name, cluster), o in zip(requests, outcomes)
    }


class ServiceWarm:
    name = "service_warm"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, gauge: SpeedGauge) -> None:
        self.seed = seed
        self.sizes = sizes
        self.gauge = gauge
        self.workdir = workdir
        self.proc: Optional[subprocess.Popen] = None
        self.generate_s = 0.0
        self.local_cache: Optional[ResultCache] = None

    def setup(self) -> None:
        start = perf_counter()
        self.trace = balanced_trace(self.sizes.service_per_app, 40.0, self.seed)
        self.generate_s = perf_counter() - start
        fd, cache_path = tempfile.mkstemp(suffix=".sqlite", dir=self.workdir)
        os.close(fd)
        self.cache_path = Path(cache_path)
        self.url = self._start_server()
        self.server_cpu = process_cpu_clock(self.proc.pid)
        self.client = ServiceClient(self.url, timeout=120.0)
        for name, cluster in service_requests():
            self.client.replay(self.trace, scheduler=name, cluster=cluster)

    def _start_server(self) -> str:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "1",
             "--cache-path", str(self.cache_path)],
            cwd=ROOT, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        assert self.proc.stdout is not None
        for _ in range(50):
            line = self.proc.stdout.readline()
            if not line:
                break
            match = LISTENING.search(line)
            if match:
                return match.group(1)
        raise RuntimeError("simmr serve never printed its listening line")

    def __enter__(self) -> "ServiceWarm":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass

    def close(self) -> None:
        if self.local_cache is not None:
            self.local_cache.close()
            self.local_cache = None
        proc, self.proc = self.proc, None
        if proc is None:
            return
        proc.send_signal(signal.SIGTERM)
        try:
            proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()

    def unit(self, spans: Optional[Spans]) -> list[Op]:
        """One round-robin pass over the 8 pre-warmed requests."""
        return [self._op(name, cluster, spans) for name, cluster in service_requests()]

    def _op(self, name: str, cluster: ClusterConfig, spans: Optional[Spans]) -> Op:
        key = _service_key(name, cluster)
        self.gauge.sample()
        try:
            start, cpu_start, server_start = perf_counter(), process_time(), self.server_cpu()
            reply = self.client.replay(self.trace, scheduler=name, cluster=cluster)
            seconds = perf_counter() - start
            cpu = process_time() - cpu_start + self.server_cpu() - server_start
        except Exception as exc:  # noqa: BLE001 - a refused request is counted, not fatal
            return Op(key, 0.0, error=f"{type(exc).__name__}: {exc}")
        result = reply.result
        op = Op(
            key, seconds, started=start, events=result.events_processed,
            output=(reply.event_digest, completion_times(result)), path=result.engine_path,
            cpu_seconds=cpu,
        )
        if not reply.cached:
            op.error = "warm request was not a cache hit"
        if spans is not None:
            try:
                op.layers = self._probe(name, cluster, reply, seconds)
            except Exception as exc:  # noqa: BLE001 - counted like a failed op
                op.error = f"probe failed: {type(exc).__name__}: {exc}"
        return op

    def _probe(self, name: str, cluster: ClusterConfig, reply: Any, op_s: float) -> dict:
        """Re-run each layer of the request path in-process, on the same
        bytes, plus one raw POST to capture the reply body."""
        layers: dict[str, float] = {}

        def timed(metric: str, fn: Any) -> Any:
            return _timed(layers, metric, fn)

        body = timed("service.client.encode_ms", lambda: json.dumps(
            request_document(trace=self.trace, scheduler=name, cluster=cluster)
        ).encode())
        request = urllib.request.Request(
            f"{self.url}/simulate", data=body,
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with urllib.request.urlopen(request, timeout=120.0) as response:
            payload = response.read()
        doc = timed("service.client.decode_ms", lambda: json.loads(payload))
        result = timed("core.results_io.decode_ms", lambda: result_from_dict(doc["result"]))
        layers["service.client.decode_ms"] += layers["core.results_io.decode_ms"]
        timed("core.results_io.encode_ms", lambda: json.dumps(result_to_dict(result)))
        timed("service.protocol.parse_ms", lambda: parse_request(json.loads(body)))
        request_doc = json.loads(body)
        trace = timed("trace.schema.decode_ms", lambda: trace_from_dict(request_doc["trace"]))
        timed("sanitize.digest.trace_digest_ms", lambda: trace_digest(trace))
        if self.local_cache is None:
            self.local_cache = ResultCache(self.cache_path)
        cached = timed("parallel.cache.get_ms", lambda: self.local_cache.get(reply.key))
        layers["parallel.cache.hit_ratio"] = float(reply.cached and cached is not None)
        layers["service.server_ms"] = reply.server_seconds
        layers["service.queue_ms"] = reply.queue_seconds
        # The server stops its ``seconds.total`` clock before it encodes
        # the result, so the encode is outside the server time and
        # inside what the wire would otherwise be charged with.
        layers["service.wire_ms"] = (
            op_s - reply.server_seconds - layers["core.results_io.encode_ms"]
            - layers["service.client.encode_ms"] - layers["service.client.decode_ms"]
        )
        layers["trace.residual_ms"] = (
            reply.server_seconds - layers["service.protocol.parse_ms"]
            - layers["parallel.cache.get_ms"]
        )
        layers["service.request_bytes"] = len(body)
        layers["service.reply_bytes"] = len(payload)
        return layers

    def check(self, ops: list[Op]) -> None:
        expected = service_reference(self.trace)
        for op in ops:
            if op.error is None and op.output != expected[op.key]:
                op.error = "reply differs from a local simulate_many run"
            _check_path(op, None)

    def peak_rss_mb(self) -> float:
        server = child_peak_rss_mb(self.proc.pid) if self.proc is not None else 0.0
        return self_peak_rss_mb() + server


WORKLOADS = {cls.name: cls for cls in (ReplayStatic, SweepDynamic, ServiceWarm)}


# --------------------------------------------------------------------------- #
# the run loop
# --------------------------------------------------------------------------- #

@dataclass
class RunResult:
    metrics: Metrics
    attempted: int
    failed: int
    correct: bool
    errors: list[str]
    provenance: dict[str, Any]


def _measure(
    workload: Any, gauge: SpeedGauge, seconds: float, units: Optional[int],
    spans: Optional[Spans],
) -> tuple[list[Op], int]:
    """Whole units until ``seconds`` have passed (or exactly ``units``)."""
    ops: list[Op] = []
    done = 0
    start = perf_counter()
    while done < 1 or (
        done < units if units is not None else perf_counter() - start < seconds
    ):
        ops.extend(workload.unit(spans))
        gauge.sample()
        done += 1
    return ops, done


def run_benchmark(
    name: str, seed: int, seconds: float, traced: bool, sizes: Sizes = Sizes()
) -> RunResult:
    """Set up, measure, check; the metrics of one run of one workload.

    A traced run measures ``seconds / 2`` untraced, then the same
    number of units traced.
    """
    spec = load_spec()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    cls = WORKLOADS[name]
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR))
    gauge = SpeedGauge()
    workload = None
    setups: list[Op] = []
    generate: list[Op] = []
    allowed = pin_to_one_cpu()
    try:
        for _ in range(sizes.setup_repeats):
            if workload is not None:
                workload.close()
            workload = cls(seed, sizes, workdir, gauge)
            gauge.sample()
            start = perf_counter()
            workload.setup()
            setups.append(Op("setup", perf_counter() - start, started=start))
            generate.append(Op("generate", workload.generate_s, started=start))
            gauge.sample()
        with workload:
            ops, units = _measure(workload, gauge, seconds / 2 if traced else seconds, None, None)
            peak_rss = workload.peak_rss_mb()
            traced_ops: list[Op] = []
            if traced:
                traced_ops, _ = _measure(workload, gauge, seconds, units, Spans())
                if isinstance(workload, SweepDynamic):
                    workload.probe_cells(traced_ops)
            # The reference runs are not measured and may use every CPU.
            unpin(allowed)
            workload.check(ops + traced_ops)
        untraced_paths = {(op.key, op.path, op.mode, op.output) for op in ops}
        for op in traced_ops:
            if op.error is None and (op.key, op.path, op.mode, op.output) not in untraced_paths:
                op.error = "traced op differs from the untraced op (output or engine path)"
    finally:
        unpin(allowed)
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    everything = ops + traced_ops
    for op in everything + setups + generate:
        op.speed = gauge.factor(op.started, op.started + op.seconds)
        op.cpu_speed = gauge.cpu_factor(op.started, op.started + op.seconds)
    failed = sum(op.error is not None for op in everything)
    errors = sorted({f"{op.key}: {op.error}" for op in everything if op.error})
    metrics = Metrics(per_layer if traced else e2e)
    if traced:
        _layer_metrics(metrics, ops, traced_ops, generate, failed / len(everything))
    else:
        _e2e_metrics(metrics, ops, setups, peak_rss)
    for missing in metrics.missing():
        # A layer this workload's operation never enters reads 0.
        metrics.set(missing, 0.0, 0)
    prov = provenance(name, seed, len(ops), int(seconds), traced)
    return RunResult(metrics, len(everything), failed, failed == 0, errors, prov)


def _busy(ops: list[Op]) -> float:
    """The ops' speed-normalized seconds."""
    return sum(op.seconds * op.speed for op in ops)


def _rate(count: float, ops: list[Op]) -> tuple[float, float]:
    """``count`` per normalized and per wall second of the ops' time."""
    busy, wall = _busy(ops), sum(op.seconds for op in ops)
    return (count / busy if busy > 0 else 0.0, count / wall if wall > 0 else 0.0)


def _e2e_metrics(metrics: Metrics, ops: list[Op], setups: list[Op], peak_rss: float) -> None:
    seconds = [op.seconds for op in ops]
    speeds = [op.speed for op in ops]
    n = len(ops)
    metrics.timing("op_p50_ms", seconds, speeds)
    # The tail is taken over on-CPU time: on a shared host the slowest
    # twentieth of wall-clock latencies are the ones that waited for a
    # CPU, and how many did changes from run to run (README.md).
    metrics.set(
        "op_p95_ms", quantile([op.cpu_seconds * op.cpu_speed for op in ops], 0.95) * 1e3, n,
        quantile(seconds, 0.95) * 1e3,
    )
    ops_rate, ops_wall = _rate(n, ops)
    metrics.set("ops_per_s", ops_rate, n, ops_wall)
    events_rate, events_wall = _rate(sum(op.events for op in ops), ops)
    metrics.set("events_per_s", events_rate, n, events_wall)
    metrics.timing("setup_s", [op.seconds for op in setups], [op.speed for op in setups], 1.0)
    metrics.set("peak_rss_mb", peak_rss, 1)


#: Layer metrics that are averaged per op rather than taken as a median.
_MEAN_UNITS = {"count", "bytes", "ratio"}
_SCALE = {"ms": 1e3, "us": 1e6, "s": 1.0}


def _layer_metrics(
    metrics: Metrics, ops: list[Op], traced: list[Op], generate: list[Op],
    failed_frac: float,
) -> None:
    samples: dict[str, list[tuple[float, float]]] = {}
    for op in traced:
        for name, value in op.layers.items():
            samples.setdefault(name, []).append((value, op.speed))
    for name, pairs in samples.items():
        unit = metrics.units[name]
        values = [value for value, _ in pairs]
        if unit in _MEAN_UNITS:
            metrics.set(name, sum(values) / len(values), len(values))
        else:
            metrics.timing(name, values, [speed for _, speed in pairs], _SCALE[unit])
    everything = ops + traced
    metrics.set("core.kernel.events", sum(op.events for op in traced) / len(traced), len(traced))
    metrics.set(
        "core.kernel.kernel_ratio",
        sum(op.path == "kernel" for op in everything) / len(everything), len(everything),
    )
    metrics.timing(
        "trace.synthetic.generate_s", [op.seconds for op in generate],
        [op.speed for op in generate], 1.0,
    )
    metrics.set("trace.overhead_frac", _busy(traced) / _busy(ops) - 1.0, len(traced))
    metrics.set("failed_frac", failed_frac, len(everything))


