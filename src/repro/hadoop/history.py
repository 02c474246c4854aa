"""Hadoop 0.20-style job-history log writer.

The paper's MRProfiler "extracts the job performance metrics by
processing the counters and logs stored at the JobTracker at the end of
each job" (Section III-A).  Our testbed substitute must therefore emit
logs in the JobTracker history format so the MRProfiler pipeline is
exercised for real — parsing text logs, not handed in-memory objects.

The format is line-oriented ``Entity KEY="value" ...`` records, the
relevant subset of Hadoop 0.20's ``JobHistory``:

* ``Job``: SUBMIT_TIME / LAUNCH_TIME / TOTAL_MAPS / TOTAL_REDUCES /
  FINISH_TIME / JOB_STATUS;
* ``MapAttempt``: START_TIME then FINISH_TIME + TASK_STATUS + HOSTNAME;
* ``ReduceAttempt``: START_TIME then SHUFFLE_FINISHED + SORT_FINISHED +
  FINISH_TIME + TASK_STATUS + HOSTNAME.

All timestamps are epoch milliseconds, as in real logs; simulated seconds
are mapped from :data:`BASE_EPOCH_MS` (1 Nov 2010, the start of the
paper's six-month trace collection window).
"""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = ["BASE_EPOCH_MS", "JobHistoryWriter", "format_job_id", "ms"]

#: 2010-11-01 00:00:00 UTC, in epoch milliseconds.
BASE_EPOCH_MS = 1288569600000

#: JobTracker start-time identifier used in job ids (a real JobTracker
#: embeds its start timestamp, e.g. ``job_201011010000_0001``).
_JT_ID = "201011010000"


def ms(sim_seconds: float) -> int:
    """Simulated seconds -> epoch milliseconds."""
    return BASE_EPOCH_MS + int(round(sim_seconds * 1000.0))


def format_job_id(serial: int) -> str:
    """``job_<jobtracker-start>_<serial>`` as Hadoop prints it (1-based)."""
    return f"job_{_JT_ID}_{serial + 1:04d}"


def _attempt_id(job_serial: int, kind: str, index: int, attempt: int = 0) -> str:
    tag = "m" if kind == "map" else "r"
    return f"attempt_{_JT_ID}_{job_serial + 1:04d}_{tag}_{index:06d}_{attempt}"


def _task_id(job_serial: int, kind: str, index: int) -> str:
    tag = "m" if kind == "map" else "r"
    return f"task_{_JT_ID}_{job_serial + 1:04d}_{tag}_{index:06d}"


class JobHistoryWriter:
    """Accumulates history lines for one job and renders the log text."""

    def __init__(self, job_serial: int, job_name: str) -> None:
        self.job_serial = job_serial
        self.job_id = format_job_id(job_serial)
        self.job_name = job_name
        self._lines: list[str] = []

    # -- job-level records --------------------------------------------------

    def job_submitted(self, submit_time: float) -> None:
        self._lines.append(
            f'Job JOBID="{self.job_id}" JOBNAME="{self.job_name}" USER="simmr" '
            f'SUBMIT_TIME="{ms(submit_time)}" JOBCONF="hdfs://namenode/job.xml"'
        )

    def job_launched(self, launch_time: float, total_maps: int, total_reduces: int) -> None:
        self._lines.append(
            f'Job JOBID="{self.job_id}" LAUNCH_TIME="{ms(launch_time)}" '
            f'TOTAL_MAPS="{total_maps}" TOTAL_REDUCES="{total_reduces}" JOB_STATUS="PREP"'
        )

    def job_finished(self, finish_time: float, maps: int, reduces: int) -> None:
        self._lines.append(
            f'Job JOBID="{self.job_id}" FINISH_TIME="{ms(finish_time)}" '
            f'JOB_STATUS="SUCCESS" FINISHED_MAPS="{maps}" FINISHED_REDUCES="{reduces}" '
            f'FAILED_MAPS="0" FAILED_REDUCES="0"'
        )

    # -- attempt records ------------------------------------------------------

    def map_started(
        self, index: int, start_time: float, hostname: str, attempt: int = 0
    ) -> None:
        self._lines.append(
            f'MapAttempt TASK_TYPE="MAP" TASKID="{_task_id(self.job_serial, "map", index)}" '
            f'TASK_ATTEMPT_ID="{_attempt_id(self.job_serial, "map", index, attempt)}" '
            f'START_TIME="{ms(start_time)}" TRACKER_NAME="tracker_{hostname}" HTTP_PORT="50060"'
        )

    def map_finished(
        self, index: int, finish_time: float, hostname: str, attempt: int = 0
    ) -> None:
        self._lines.append(
            f'MapAttempt TASK_TYPE="MAP" TASKID="{_task_id(self.job_serial, "map", index)}" '
            f'TASK_ATTEMPT_ID="{_attempt_id(self.job_serial, "map", index, attempt)}" '
            f'TASK_STATUS="SUCCESS" FINISH_TIME="{ms(finish_time)}" HOSTNAME="{hostname}"'
        )

    def map_failed(
        self, index: int, fail_time: float, hostname: str, attempt: int = 0
    ) -> None:
        """A failed attempt (will be retried as a new attempt)."""
        self._lines.append(
            f'MapAttempt TASK_TYPE="MAP" TASKID="{_task_id(self.job_serial, "map", index)}" '
            f'TASK_ATTEMPT_ID="{_attempt_id(self.job_serial, "map", index, attempt)}" '
            f'TASK_STATUS="FAILED" FINISH_TIME="{ms(fail_time)}" HOSTNAME="{hostname}" '
            f'ERROR="java.io.IOException: task failed"'
        )

    def map_killed(
        self, index: int, kill_time: float, hostname: str, attempt: int = 0
    ) -> None:
        """A killed attempt (lost speculative race or preempted)."""
        self._lines.append(
            f'MapAttempt TASK_TYPE="MAP" TASKID="{_task_id(self.job_serial, "map", index)}" '
            f'TASK_ATTEMPT_ID="{_attempt_id(self.job_serial, "map", index, attempt)}" '
            f'TASK_STATUS="KILLED" FINISH_TIME="{ms(kill_time)}" HOSTNAME="{hostname}"'
        )

    def reduce_started(
        self, index: int, start_time: float, hostname: str, attempt: int = 0
    ) -> None:
        self._lines.append(
            f'ReduceAttempt TASK_TYPE="REDUCE" '
            f'TASKID="{_task_id(self.job_serial, "reduce", index)}" '
            f'TASK_ATTEMPT_ID="{_attempt_id(self.job_serial, "reduce", index, attempt)}" '
            f'START_TIME="{ms(start_time)}" TRACKER_NAME="tracker_{hostname}" HTTP_PORT="50060"'
        )

    def reduce_failed(
        self, index: int, fail_time: float, hostname: str, attempt: int = 0
    ) -> None:
        """A failed reduce attempt (will be retried)."""
        self._lines.append(
            f'ReduceAttempt TASK_TYPE="REDUCE" '
            f'TASKID="{_task_id(self.job_serial, "reduce", index)}" '
            f'TASK_ATTEMPT_ID="{_attempt_id(self.job_serial, "reduce", index, attempt)}" '
            f'TASK_STATUS="FAILED" FINISH_TIME="{ms(fail_time)}" HOSTNAME="{hostname}" '
            f'ERROR="java.io.IOException: task failed"'
        )

    def reduce_finished(
        self,
        index: int,
        shuffle_finished: float,
        sort_finished: float,
        finish_time: float,
        hostname: str,
        attempt: int = 0,
    ) -> None:
        self._lines.append(
            f'ReduceAttempt TASK_TYPE="REDUCE" '
            f'TASKID="{_task_id(self.job_serial, "reduce", index)}" '
            f'TASK_ATTEMPT_ID="{_attempt_id(self.job_serial, "reduce", index, attempt)}" '
            f'TASK_STATUS="SUCCESS" SHUFFLE_FINISHED="{ms(shuffle_finished)}" '
            f'SORT_FINISHED="{ms(sort_finished)}" FINISH_TIME="{ms(finish_time)}" '
            f'HOSTNAME="{hostname}"'
        )

    # -- output -----------------------------------------------------------------

    def render(self) -> str:
        """The job's history log text (one record per line)."""
        return "\n".join(self._lines) + "\n"

    @staticmethod
    def combine(writers: Iterable["JobHistoryWriter"]) -> str:
        """Concatenate several jobs' logs into one JobTracker history file."""
        return "".join(w.render() for w in writers)
