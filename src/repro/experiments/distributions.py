"""Figure 3 and Table I: stability of task-duration distributions.

Section II establishes the property SimMR's replay model rests on:

* **Figure 3** — the CDFs of map, shuffle and reduce task durations of
  two WordCount executions with *different* resource allocations (64x64
  vs 32x32 slots) are nearly identical.
* **Table I** — the symmetric KL divergence between phase-duration
  distributions of different executions of the *same* application is
  small, while across *different* applications it is large (the paper
  quotes cross-application (min, avg, max) of roughly (7.3, 11.6, 13.3)
  for map, (11.3, 13.1, 13.5) for shuffle, (9.1, 12.7, 13.3) for reduce).

Executions are produced on the Hadoop emulator with the paper's modified
capped-FIFO scheduler, profiled from the history logs — the same pipeline
a real deployment would use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from ..core.job import JobProfile, TraceJob
from ..hadoop.emulator import EmulatorConfig, HadoopClusterEmulator
from ..mrprofiler.profiler import profile_history
from ..schedulers.capped import CappedFIFOScheduler
from ..stats.cdf import EmpiricalCDF, ks_distance
from ..stats.kl import histogram_kl
from ..workloads.apps import APP_NAMES, app_spec
from .common import format_table

__all__ = [
    "CDFComparisonResult",
    "KLTableResult",
    "run_fig3_cdfs",
    "run_table1_kl",
]


def _phase_samples(profile: JobProfile) -> dict[str, np.ndarray]:
    shuffle = (
        np.concatenate([profile.first_shuffle_durations, profile.typical_shuffle_durations])
        if profile.typical_shuffle_durations.size
        else profile.first_shuffle_durations
    )
    return {
        "map": profile.map_durations,
        "shuffle": shuffle,
        "reduce": profile.reduce_durations,
    }


def _emulate_execution(
    app: str,
    map_cap: Optional[int],
    reduce_cap: Optional[int],
    seed: int,
) -> JobProfile:
    """One emulated execution of ``app``, profiled from its history log."""
    rng = np.random.default_rng(seed)
    profile = app_spec(app).make_profile(rng)
    emulator = HadoopClusterEmulator(
        EmulatorConfig(seed=seed),
        CappedFIFOScheduler(map_cap, reduce_cap),
    )
    result = emulator.run([TraceJob(profile, 0.0)])
    profiled = profile_history(result.history_text())
    assert len(profiled) == 1
    return profiled[0].profile


@dataclass
class CDFComparisonResult:
    """Figure 3 data: per-phase CDFs of two WordCount executions."""

    allocations: tuple[str, str]
    #: phase -> (cdf of execution A, cdf of execution B)
    cdfs: dict[str, tuple[EmpiricalCDF, EmpiricalCDF]]
    #: phase -> two-sample KS distance between the executions
    ks: dict[str, float]

    def rows(self) -> list[dict]:
        out = []
        for phase, (cdf_a, cdf_b) in self.cdfs.items():
            # Compare at the deciles, the figures' visual content.
            for q in (0.1, 0.25, 0.5, 0.75, 0.9):
                out.append(
                    {
                        "phase": phase,
                        "percentile": int(q * 100),
                        self.allocations[0]: float(cdf_a.quantile(q)),
                        self.allocations[1]: float(cdf_b.quantile(q)),
                    }
                )
        return out

    def __str__(self) -> str:
        head = ("Figure 3: task-duration CDF quantiles under two allocations; "
                "KS distances: ") + ", ".join(
            f"{phase}={d:.3f}" for phase, d in self.ks.items()
        )
        return head + "\n" + format_table(self.rows())


def run_fig3_cdfs(
    allocation_a: tuple[int, int] = (64, 64),
    allocation_b: tuple[int, int] = (32, 32),
    app: str = "WordCount",
    seed: int = 0,
) -> CDFComparisonResult:
    """Compare task-duration CDFs of two differently-provisioned runs."""
    prof_a = _emulate_execution(app, *allocation_a, seed=seed)
    prof_b = _emulate_execution(app, *allocation_b, seed=seed + 1)
    labels = (f"{allocation_a[0]}x{allocation_a[1]}", f"{allocation_b[0]}x{allocation_b[1]}")
    cdfs: dict[str, tuple[EmpiricalCDF, EmpiricalCDF]] = {}
    ks: dict[str, float] = {}
    for phase in ("map", "shuffle", "reduce"):
        sample_a = _phase_samples(prof_a)[phase]
        sample_b = _phase_samples(prof_b)[phase]
        cdfs[phase] = (EmpiricalCDF(sample_a), EmpiricalCDF(sample_b))
        ks[phase] = ks_distance(sample_a, sample_b)
    return CDFComparisonResult(allocations=labels, cdfs=cdfs, ks=ks)


@dataclass
class KLTableResult:
    """Table I plus the cross-application comparison from the text."""

    #: app -> phase -> (min, avg, max) over pairwise same-app KL values
    same_app: dict[str, dict[str, tuple[float, float, float]]]
    #: phase -> (min, avg, max) over cross-application KL values
    cross_app: dict[str, tuple[float, float, float]]

    def rows(self) -> list[dict]:
        out = []
        for app, phases in self.same_app.items():
            row: dict = {"application": app}
            for phase in ("map", "shuffle", "reduce"):
                mn, avg, mx = phases[phase]
                row[f"{phase}_min"] = mn
                row[f"{phase}_avg"] = avg
                row[f"{phase}_max"] = mx
            out.append(row)
        row = {"application": "(cross-app)"}
        for phase in ("map", "shuffle", "reduce"):
            mn, avg, mx = self.cross_app[phase]
            row[f"{phase}_min"] = mn
            row[f"{phase}_avg"] = avg
            row[f"{phase}_max"] = mx
        out.append(row)
        return out

    def __str__(self) -> str:
        return format_table(
            self.rows(), title="Table I: symmetric KL divergence of task-duration distributions"
        )


def run_table1_kl(
    apps: Sequence[str] = APP_NAMES,
    executions: int = 5,
    seed: int = 0,
    emulate: bool = False,
) -> KLTableResult:
    """Pairwise KL divergences within and across applications.

    With ``emulate=True`` each execution goes through the full
    emulate -> log -> profile pipeline (slow but end-to-end); by default
    executions are sampled directly from the application models, which
    measures the same statistical property.
    """
    if executions < 2:
        raise ValueError("need at least 2 executions for pairwise comparison")
    rng = np.random.default_rng(seed)
    samples: dict[str, list[dict[str, np.ndarray]]] = {}
    for app in apps:
        runs = []
        for e in range(executions):
            if emulate:
                profile = _emulate_execution(app, None, None, seed=seed * 1000 + e)
            else:
                profile = app_spec(app).make_profile(rng)
            runs.append(_phase_samples(profile))
        samples[app] = runs

    same_app: dict[str, dict[str, tuple[float, float, float]]] = {}
    for app, runs in samples.items():
        phases: dict[str, tuple[float, float, float]] = {}
        for phase in ("map", "shuffle", "reduce"):
            values = [
                histogram_kl(a[phase], b[phase]) for a, b in combinations(runs, 2)
            ]
            phases[phase] = (float(np.min(values)), float(np.mean(values)), float(np.max(values)))
        same_app[app] = phases

    cross_app: dict[str, tuple[float, float, float]] = {}
    app_list = list(samples)
    for phase in ("map", "shuffle", "reduce"):
        values = []
        for app_a, app_b in combinations(app_list, 2):
            # First execution of each app, as "any one of the executions
            # can be used as a job representative".
            values.append(histogram_kl(samples[app_a][0][phase], samples[app_b][0][phase]))
        cross_app[phase] = (float(np.min(values)), float(np.mean(values)), float(np.max(values)))

    return KLTableResult(same_app=same_app, cross_app=cross_app)
