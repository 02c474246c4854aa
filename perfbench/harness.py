"""Shared machinery of the SimMR end-to-end benchmark.

Everything here is workload-agnostic: the metric registry (read from
``BENCHMARK.json`` so the names and units exist in one place), the
operation record every workload produces, order statistics, span
recording for traced runs, the engine-path observer, CPU pinning and
CPU clocks, provenance, and the report printer.  ``workloads.py``
holds the three workloads and ``run.py`` the command line.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import platform
import resource
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import datetime, timezone
from hashlib import blake2b
from pathlib import Path
from time import clock_gettime, perf_counter, process_time
from typing import Any, Callable, Iterator, Optional

import numpy as np

#: Root of the checkout: ``perfbench/`` sits directly under it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"


def load_spec() -> dict[str, Any]:
    """The benchmark definition: workloads and metric names, units, bounds."""
    return json.loads(SPEC_PATH.read_text())


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #

def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile."""
    return float(np.quantile(values, q))


def median(values: list[float]) -> float:
    return quantile(values, 0.5)


# --------------------------------------------------------------------------- #
# operations and metrics
# --------------------------------------------------------------------------- #

@dataclass
class Op:
    """One timed operation and what is needed to check its output.

    ``key`` names the distinct input the operation ran (a scheduler, a
    sweep cell); every operation with the same key must produce the
    same ``output``.  ``error`` is set by the operation itself (it
    raised, or a reply was refused) or by the reference check.
    """

    key: str
    seconds: float
    #: ``perf_counter()`` when the operation started.
    started: float = 0.0
    events: int = 0
    output: Any = None
    path: Optional[str] = None
    mode: Optional[str] = None
    error: Optional[str] = None
    #: Per-layer measurements of this operation (traced phase only):
    #: seconds for spans, plain numbers for counts.
    layers: dict[str, float] = field(default_factory=dict)
    #: Machine-speed factor of the operation's time window (see
    #: :class:`SpeedGauge`); reported times are ``seconds * speed``.
    speed: float = 1.0
    #: On-CPU seconds of the operation: this process, plus the server
    #: child on ``service_warm`` (see :func:`process_cpu_clock`).
    cpu_seconds: float = 0.0
    #: The same factor for CPU time: ``cpu_seconds * cpu_speed``.
    cpu_speed: float = 1.0


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    #: The same statistic on raw wall-clock seconds, for times.
    wall: Optional[float] = None


class Metrics:
    """Metric values by name, with units from the benchmark definition."""

    def __init__(self, units: dict[str, str]) -> None:
        self.units = units
        self.values: dict[str, Metric] = {}

    def set(self, name: str, value: float, samples: int, wall: Optional[float] = None) -> None:
        if name not in self.units:
            raise KeyError(f"metric {name!r} is not in BENCHMARK.json")
        self.values[name] = Metric(float(value), self.units[name], samples, wall)

    def timing(
        self, name: str, seconds: list[float], speeds: list[float], scale: float = 1e3
    ) -> None:
        """Median of speed-normalized per-operation seconds, scaled
        (default: to ms); the raw wall-clock median rides along."""
        if seconds:
            normalized = [s * f for s, f in zip(seconds, speeds)]
            self.set(name, median(normalized) * scale, len(seconds), median(seconds) * scale)

    def missing(self) -> list[str]:
        return [name for name in self.units if name not in self.values]


# --------------------------------------------------------------------------- #
# machine speed
# --------------------------------------------------------------------------- #

#: Seconds the calibration slice takes on the reference machine: times
#: are reported as if measured on it.
CALIBRATION_NOMINAL_S = 0.007

_CAL_KEYS = [(i * 7919) % 10007 for i in range(20000)]


def calibration_slice() -> tuple[float, float]:
    """Wall and CPU seconds a fixed slice of interpreter work takes now.

    Three rounds of 20 000 updates to a fresh dict of Python ints:
    bytecode dispatch, hashing and small tables, the work SimMR's event
    loop, schedulers and JSON layers do.  It runs with the garbage
    collector off, so the program's heap size cannot change its cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start, cpu_start = perf_counter(), process_time()
        for _ in range(3):
            counts: dict[int, int] = {}
            for key in _CAL_KEYS:
                counts[key] = counts.get(key, 0) + 1
        return perf_counter() - start, process_time() - cpu_start
    finally:
        if enabled:
            gc.enable()


class SpeedGauge:
    """The machine's momentary speed, sampled between operations.

    On a shared host the same CPU-bound work can take 1.5-2x longer for
    tens of seconds at a time, uniformly over interpreter and numpy
    code.  A run of any practical length then reads 20-30% off the
    next.  The benchmark therefore times :func:`calibration_slice`
    before and after every operation and reports each operation's
    seconds scaled by ``CALIBRATION_NOMINAL_S / slice`` over its
    window.  The slice is not SimMR code, so a change to the program
    cannot move it; the raw wall-clock figures are printed beside.
    """

    def __init__(self) -> None:
        self._at: list[float] = []
        self._took: list[float] = []
        self._took_cpu: list[float] = []

    def sample(self) -> None:
        took, took_cpu = calibration_slice()
        self._at.append(perf_counter())
        self._took.append(took)
        self._took_cpu.append(took_cpu)

    def factor(self, start: float, end: float) -> float:
        """Scale for a window: the median of the two samples just before
        it and the two just after it (one slice alone jitters)."""
        return self._scale(self._took, start, end)

    def cpu_factor(self, start: float, end: float) -> float:
        """The same scale for on-CPU seconds, from the slices' CPU time."""
        return self._scale(self._took_cpu, start, end)

    def _scale(self, took: list[float], start: float, end: float) -> float:
        if not self._at:
            return 1.0
        before = bisect.bisect_right(self._at, start)
        after = bisect.bisect_left(self._at, end)
        near = took[max(before - 2, 0):before] + took[after:after + 2]
        return CALIBRATION_NOMINAL_S / median(near or took)


# --------------------------------------------------------------------------- #
# tracing
# --------------------------------------------------------------------------- #

class Spans:
    """Accumulates span durations and counts for the operation in flight.

    The traced phase wraps public calls into each layer; each wrapper
    adds its duration under the layer's name.  ``take`` hands the
    totals of the finished operation to its :class:`Op` and starts the
    next one from zero.
    """

    def __init__(self) -> None:
        self._acc: dict[str, float] = defaultdict(float)

    def add(self, name: str, amount: float) -> None:
        self._acc[name] += amount

    def take(self) -> dict[str, float]:
        taken = dict(self._acc)
        self._acc.clear()
        return taken


def wrap_instance_method(
    obj: Any,
    attr: str,
    spans: Spans,
    name: str,
    *,
    count: Optional[str] = None,
    on_result: Optional[Callable[[Any], Any]] = None,
) -> None:
    """Shadow ``obj.attr`` with a timing wrapper on this instance only.

    The class attribute is untouched, so ``type(obj).attr`` checks (the
    kernel's preemption envelope test) see the real method.
    """
    inner = getattr(obj, attr)

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = perf_counter()
        result = inner(*args, **kwargs)
        if on_result is not None:
            result = on_result(result)
        spans.add(name, perf_counter() - start)
        if count is not None:
            spans.add(count, 1)
        return result

    setattr(obj, attr, wrapper)


class EnginePaths:
    """Records ``(last_path, last_kernel_mode)`` of every columnar run.

    ``simulate()`` and ``simulate_many`` build their engines internally,
    so the engine that ran is only reachable by observing
    ``ColumnarEngine.run``.  Use as a context manager; the class
    attribute is restored on exit.
    """

    def __init__(self) -> None:
        self._seen: list[tuple[Optional[str], Optional[str]]] = []

    def __enter__(self) -> "EnginePaths":
        # Imported here: run.py imports this module before it has
        # checked that src/ exists and put it on sys.path.
        from repro.core.kernel import ColumnarEngine

        self._original = ColumnarEngine.run
        original = self._original
        seen = self._seen

        def run(engine: Any, trace: Any) -> Any:
            result = original(engine, trace)
            seen.append((engine.last_path, engine.last_kernel_mode))
            return result

        ColumnarEngine.run = run  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc_info: object) -> None:
        from repro.core.kernel import ColumnarEngine

        ColumnarEngine.run = self._original  # type: ignore[method-assign]

    def take(self) -> list[tuple[Optional[str], Optional[str]]]:
        taken = list(self._seen)
        self._seen.clear()
        return taken


# --------------------------------------------------------------------------- #
# process facts
# --------------------------------------------------------------------------- #

def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_cpu_clock(pid: int) -> Callable[[], float]:
    """Reader of another process's CPU seconds, all its threads together.

    Linux names the CPU clock of process ``pid`` ``~pid << 3 | 2``
    (``CPUCLOCK_SCHED``); it counts in nanoseconds, also the time of
    threads that have ended.
    """
    clock = (~pid << 3) | 2

    def read() -> float:
        return clock_gettime(clock)

    read()  # fail here, at set-up, where the clock is not readable
    return read


def pin_to_one_cpu() -> Optional[set[int]]:
    """Restrict this process (and children started later) to one CPU.

    Returns the CPUs it was allowed before, for :func:`unpin`.  The
    calibration slice then runs on the CPU the measured work runs on,
    and the service's client and server share one cache instead of
    trading places between CPUs from run to run.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


def unpin(allowed: Optional[set[int]]) -> None:
    if allowed is not None:
        os.sched_setaffinity(0, allowed)


def child_peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live child, from ``/proc`` (0 if unreadable)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def _git(*args: str) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """BLAKE2b over every file under ``src/`` — identifies the code
    measured even in a checkout that is not a git repository."""
    h = blake2b(digest_size=16)
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(b"\x00")
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(workload: str, seed: int, ops: int, seconds: int, traced: bool) -> dict[str, Any]:
    """Where and on what a result was measured, so stale numbers show."""
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "ops_per_run": ops,
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "source_digest": source_digest(),
        "date_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# --------------------------------------------------------------------------- #
# report
# --------------------------------------------------------------------------- #

def iter_report(
    title: str, metrics: Metrics, prov: dict[str, Any]
) -> Iterator[str]:
    yield title
    for name, metric in sorted(metrics.values.items()):
        wall = "" if metric.wall is None else f"  (wall {metric.wall:.6f})"
        yield f"  {name:34s} {metric.value:>16.6f} {metric.unit:8s} n={metric.samples}{wall}"
    yield "provenance " + json.dumps(prov, sort_keys=True)


def result_line(correct: bool, attempted: int, failed: int, metrics: Metrics) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": m.value, "unit": m.unit}
                for name, m in metrics.values.items()
            },
        }
    )


def print_lines(lines: Iterator[str]) -> None:
    for line in lines:
        print(line)
    sys.stdout.flush()
