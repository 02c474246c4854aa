"""SimMR core: the discrete-event simulator engine and its data model."""

from .cluster import ClusterConfig
from .columns import TraceColumns
from .engine import SimulatorEngine, simulate
from .kernel import ColumnarEngine
from .events import Event, EventQueue, EventType
from .job import Job, JobProfile, JobState, PhaseStats, TaskRecord, TraceJob
from .metrics import (
    UtilizationReport,
    concurrency_series,
    queueing_delays,
    slot_seconds,
    stage_breakdown,
    utilization,
)
from .results import JobResult, SimulationResult
from .shuffle import NetworkShuffleModel, ShuffleContext, ShuffleModel, TraceShuffleModel
from .results_io import jobs_to_csv, load_result, result_from_dict, result_to_dict, save_result

__all__ = [
    "ClusterConfig",
    "SimulatorEngine",
    "ColumnarEngine",
    "TraceColumns",
    "simulate",
    "Event",
    "EventQueue",
    "EventType",
    "Job",
    "JobProfile",
    "JobState",
    "PhaseStats",
    "TaskRecord",
    "TraceJob",
    "JobResult",
    "SimulationResult",
    "jobs_to_csv",
    "load_result",
    "result_from_dict",
    "result_to_dict",
    "save_result",
    "NetworkShuffleModel",
    "ShuffleContext",
    "ShuffleModel",
    "TraceShuffleModel",
    "UtilizationReport",
    "concurrency_series",
    "queueing_delays",
    "slot_seconds",
    "stage_breakdown",
    "utilization",
]
