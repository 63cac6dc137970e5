"""Job lifecycle state.

A :class:`Job` moves through ``PENDING → RUNNING → FINISHED``; the
power-emergency ladder adds two side exits — ``RUNNING ⇄ SUSPENDED``
(checkpointed in place, nodes idle but still held) and
``RUNNING/SUSPENDED → KILLED`` (the job's rack blacked out; terminal,
excluded from finished-job metrics).  Besides
identity (application, process count) it records the timestamps and the
progress bookkeeping the metrics need afterwards:

* ``nominal_runtime_s`` — what the job *would* take with every node at
  the top DVFS level (the ``T_j`` of the Performance(cap) metric);
* ``actual runtime`` — ``finish_time − start_time`` (the ``T_cap,j``);
* ``degraded_exposure_s`` — integrated wall-clock during which at least
  one of the job's nodes ran below the top level (used by CPLJ to decide
  whether a job was performance-lossless, and handy for analysis).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from repro.errors import WorkloadError
from repro.workload.applications import ApplicationProfile

__all__ = ["Job", "JobState"]


class JobState(enum.Enum):
    """Lifecycle states of a job."""

    PENDING = "pending"
    RUNNING = "running"
    SUSPENDED = "suspended"
    FINISHED = "finished"
    KILLED = "killed"


@dataclass
class Job:
    """One evaluation job.

    Args:
        job_id: Unique id assigned by the generator/queue.
        app: The application profile this job runs.
        nprocs: MPI process count (the paper draws from {8 … 256}).
        submit_time: Simulated time the job entered the queue.
    """

    job_id: int
    app: ApplicationProfile
    nprocs: int
    submit_time: float
    #: SLA/priority class: higher = more important.  Only consulted by
    #: priority-aware selection policies (e.g. ``sla``); 0 by default.
    priority: int = 0
    state: JobState = JobState.PENDING
    nodes: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    start_time: float | None = None
    finish_time: float | None = None
    #: Work completed so far, in *nominal seconds* (seconds of full-speed
    #: execution).  The job finishes when this reaches nominal_runtime_s.
    progress_s: float = 0.0
    #: Wall-clock seconds during which ≥1 of the job's nodes was degraded.
    degraded_exposure_s: float = 0.0

    def __post_init__(self) -> None:
        if self.nprocs < 1:
            raise WorkloadError(f"job {self.job_id}: nprocs must be >= 1")
        if self.submit_time < 0:
            raise WorkloadError(f"job {self.job_id}: negative submit_time")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @functools.cached_property
    def nominal_runtime_s(self) -> float:
        """``T_j``: runtime at full frequency, seconds.

        Cached: ``app`` and ``nprocs`` never change after construction.
        """
        return self.app.nominal_runtime(self.nprocs)

    @property
    def actual_runtime_s(self) -> float:
        """``T_cap,j``: measured runtime, seconds.

        Raises:
            WorkloadError: if the job has not finished.
        """
        if self.state is not JobState.FINISHED:
            raise WorkloadError(f"job {self.job_id} has not finished")
        assert self.start_time is not None and self.finish_time is not None
        return self.finish_time - self.start_time

    @property
    def remaining_work_s(self) -> float:
        """Nominal seconds of work still to do (0 when finished)."""
        return max(0.0, self.nominal_runtime_s - self.progress_s)

    @property
    def cycle_position(self) -> float:
        """Position within the cyclic phase schedule, ∈ [0, 1).

        The job's work is divided into fixed-length cycles; the position
        is the fractional part of progress measured in cycles.  Cycle
        length is chosen as min(nominal/8, 120 s) of nominal work so even
        short jobs traverse several phase cycles.
        """
        cycle = self.cycle_length_s
        return (self.progress_s % cycle) / cycle

    @property
    def cycle_length_s(self) -> float:
        """Nominal work per phase cycle, seconds."""
        return min(self.nominal_runtime_s / 8.0, 120.0)

    @property
    def waiting_time_s(self) -> float:
        """Queue waiting time, seconds (requires the job to have started)."""
        if self.start_time is None:
            raise WorkloadError(f"job {self.job_id} has not started")
        return self.start_time - self.submit_time

    # ------------------------------------------------------------------
    # Lifecycle transitions (driven by the scheduler/executor)
    # ------------------------------------------------------------------
    def start(self, time: float, nodes: np.ndarray) -> None:
        """Transition PENDING → RUNNING on the given nodes."""
        if self.state is not JobState.PENDING:
            raise WorkloadError(f"job {self.job_id} started twice")
        if len(nodes) == 0:
            raise WorkloadError(f"job {self.job_id} started on zero nodes")
        if time < self.submit_time:
            raise WorkloadError(f"job {self.job_id} started before submission")
        self.state = JobState.RUNNING
        self.start_time = float(time)
        self.nodes = np.asarray(nodes, dtype=np.int64).copy()

    def finish(self, time: float) -> None:
        """Transition RUNNING → FINISHED."""
        if self.state is not JobState.RUNNING:
            raise WorkloadError(f"job {self.job_id} finished without running")
        assert self.start_time is not None
        if time < self.start_time:
            raise WorkloadError(f"job {self.job_id} finished before starting")
        self.state = JobState.FINISHED
        self.finish_time = float(time)

    def suspend(self, time: float) -> None:
        """Transition RUNNING → SUSPENDED (checkpoint in place).

        Progress freezes (the executor skips non-running jobs) but the
        job keeps its nodes; wall-clock spent suspended shows up in the
        actual runtime once the job resumes and finishes.
        """
        if self.state is not JobState.RUNNING:
            raise WorkloadError(
                f"job {self.job_id} suspended while {self.state.value}"
            )
        self.state = JobState.SUSPENDED

    def resume(self, time: float) -> None:
        """Transition SUSPENDED → RUNNING."""
        if self.state is not JobState.SUSPENDED:
            raise WorkloadError(
                f"job {self.job_id} resumed while {self.state.value}"
            )
        self.state = JobState.RUNNING

    def kill(self, time: float) -> None:
        """Transition RUNNING/SUSPENDED → KILLED (terminal).

        The power-emergency path uses this when the job's rack blacks
        out; the job never counts as finished.
        """
        if self.state not in (JobState.RUNNING, JobState.SUSPENDED):
            raise WorkloadError(
                f"job {self.job_id} killed while {self.state.value}"
            )
        self.state = JobState.KILLED
        self.finish_time = float(time)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Job {self.job_id} {self.app.name} np={self.nprocs} "
            f"{self.state.value}>"
        )
