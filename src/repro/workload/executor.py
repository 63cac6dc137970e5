"""Advances running jobs each control tick and drives the cluster state.

# reprolint: hot-path

The executor is the bridge between the workload models and the machine
model.  Once per tick (``dt`` seconds, normally the telemetry/control
interval τ) it, for every running job:

1. looks up the job's current :class:`~repro.workload.phases.Phase` from
   its progress (work-domain phases);
2. computes the job's progress rate from the DVFS levels of its nodes —
   the bulk-synchronous bottleneck model of
   :func:`repro.workload.scaling.job_progress_rate`;
3. advances ``progress_s`` by ``rate · dt`` and detects completion, with
   sub-tick interpolation of the finish instant so an uncapped job's
   measured runtime equals its nominal runtime *exactly* (the CPLJ metric
   depends on that exactness);
4. writes the phase's CPU/NIC signature (with small multiplicative
   jitter, shared across the job's nodes plus per-node noise) and the
   ramping memory footprint into the structure-of-arrays cluster state.

The work is delegated to a :class:`~repro.cluster.engine.ClusterEngine`.
The vector engine does all four steps as array operations over the whole
running set — its only per-job Python work is one progress gather and
one write-back — reading the job-invariant inputs (node ids, nominal
runtimes, start times, phase tables) from a :class:`RunningLayout`.
The executor owns that layout and rebuilds it only when the set of
running jobs changes, so a tick with no start, finish, suspend or kill
does no per-job setup at all.  The object engine steps jobs and nodes
one at a time and ignores the layout.  Both consume the executor's RNG
stream identically, so the engines are interchangeable bit for bit.

Power consumption itself is *not* computed here — the power model reads
the state this executor wrote, keeping workload and power strictly
layered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.engine import ClusterEngine, get_engine
from repro.cluster.state import ClusterState
from repro.errors import WorkloadError
from repro.workload.job import Job, JobState

__all__ = ["FinishedJob", "JobExecutor", "RunningLayout"]


@dataclass(frozen=True)
class FinishedJob:
    """A completion notice: which job, and the exact finish instant."""

    job: Job
    finish_time: float


@dataclass(frozen=True, eq=False)
class RunningLayout:
    """The job-invariant arrays of one running set, in job-list order.

    Everything here is fixed from a job's start to its end (its nodes,
    nominal runtime, start time, application), so a layout stays valid
    for as long as the same jobs run in the same order.  Per-node
    arrays concatenate the jobs' node blocks (``K`` nodes in all);
    per-job arrays have one entry per job (``n`` jobs).
    """

    #: The running jobs' ids, in order — the layout's identity.
    job_ids: tuple[int, ...]
    #: Node ids of every running job, concatenated.
    node_ids: np.ndarray
    #: Per node: index of its job in the job list.
    node_job: np.ndarray
    #: Per job: where its block begins in ``node_ids``.
    offsets: np.ndarray
    #: Per job: ``Job.nominal_runtime_s`` and ``Job.cycle_length_s``.
    nominal_s: np.ndarray
    cycle_s: np.ndarray
    #: Per job: the application's steady-state memory fraction.
    mem_fraction: np.ndarray
    #: Per job: the memory ramp is ``min(1, (now − ramp_origin_s) /
    #: ramp_s)``.  A ramping job has its start time and ``mem_ramp_s``
    #: here; a job with ``mem_ramp_s = 0`` has ``-inf`` and 1.0, which
    #: make the ramp exactly 1.0.
    ramp_origin_s: np.ndarray
    ramp_s: np.ndarray
    #: ``(n, P)`` phase boundaries, each row padded with ``+inf`` up to
    #: the longest schedule's ``P`` phases.
    bounds: np.ndarray
    #: Per job: index of its last phase (``phase_at``'s clamp).
    last_phase: np.ndarray
    #: ``(n·P, 3)`` phase signatures — cpu_util, nic_frac, β; row
    #: ``j·P + i`` is phase ``i`` of job ``j``.
    signatures: np.ndarray
    #: Per job: ``j·P``, where its rows begin in ``signatures``.
    row_base: np.ndarray
    #: One tick's combined draw of ``n + K`` standard normals holds, per
    #: job, one jitter value and then one noise value per node; these
    #: are the positions of the two parts.
    jitter_pos: np.ndarray
    noise_pos: np.ndarray

    @classmethod
    def build(cls, jobs: list[Job]) -> RunningLayout:
        """Gather the layout of ``jobs`` (all RUNNING)."""
        n = len(jobs)
        first = np.arange(n, dtype=np.int64)
        counts = np.array([len(job.nodes) for job in jobs], dtype=np.int64)
        offsets = np.zeros(n, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        node_job = np.repeat(first, counts)
        nominal, cycle, start, mem_fraction, ramp = np.array(
            [
                (
                    job.nominal_runtime_s,
                    job.cycle_length_s,
                    job.start_time,
                    job.app.mem_fraction,
                    job.app.mem_ramp_s,
                )
                for job in jobs
            ],
            dtype=np.float64,
        ).T
        # Phase tables: each distinct schedule padded once, then gathered.
        schedules = [job.app.schedule for job in jobs]
        distinct = {schedule: k for k, schedule in enumerate(dict.fromkeys(schedules))}
        width = max(len(schedule) for schedule in distinct)
        padded = np.stack(
            [
                np.concatenate(
                    (schedule.table, np.full((4, width - len(schedule)), np.inf)),
                    axis=1,
                )
                for schedule in distinct
            ]
        )
        which = np.array([distinct[schedule] for schedule in schedules], dtype=np.int64)
        tables = padded[which]
        last_phase = np.array([len(schedule) - 1 for schedule in distinct])[which]
        return cls(
            job_ids=tuple([job.job_id for job in jobs]),
            node_ids=np.concatenate([job.nodes for job in jobs]),
            node_job=node_job,
            offsets=offsets,
            nominal_s=nominal,
            cycle_s=cycle,
            mem_fraction=mem_fraction,
            ramp_origin_s=np.where(ramp > 0, start, -np.inf),
            ramp_s=np.where(ramp > 0, ramp, 1.0),
            bounds=np.ascontiguousarray(tables[:, 0, :]),
            last_phase=last_phase,
            signatures=tables[:, 1:, :].transpose(0, 2, 1).reshape(n * width, 3),
            row_base=first * width,
            jitter_pos=offsets + first,
            noise_pos=np.arange(len(node_job), dtype=np.int64) + node_job + 1,
        )


class JobExecutor:
    """Per-tick advancement of running jobs.

    Args:
        state: The cluster state to read levels from and write load into.
        rng: Random generator for load jitter (a named stream).
        util_jitter_std: Std-dev of the multiplicative per-tick jitter
            applied to the phase's CPU/NIC signature (shared by all nodes
            of a job — phases are synchronous).  Set 0 for deterministic
            load.
        node_noise_std: Std-dev of additional per-node multiplicative
            noise (load imbalance).
        modulation_std: Stationary std-dev of the cluster-wide load
            modulation — a slowly-varying AR(1) multiplicative factor
            shared by *all* jobs, modelling correlated demand swings
            (input-dependent intensity, phase alignment across jobs).
            This is what produces the occasional power excursions that
            power capping exists to contain; 0 disables it.
        modulation_tau_s: Correlation time of the modulation process,
            seconds — excursions last on this order.
        engine: Hot-path engine (instance, registry name, or ``None``
            for the default vector engine) that carries out the actual
            per-node stepping.
    """

    def __init__(
        self,
        state: ClusterState,
        rng: np.random.Generator,
        util_jitter_std: float = 0.04,
        node_noise_std: float = 0.02,
        modulation_std: float = 0.08,
        modulation_tau_s: float = 60.0,
        engine: ClusterEngine | str | None = None,
    ) -> None:
        if util_jitter_std < 0 or node_noise_std < 0:
            raise WorkloadError("jitter std-devs must be non-negative")
        if modulation_std < 0:
            raise WorkloadError("modulation_std must be non-negative")
        if modulation_tau_s <= 0:
            raise WorkloadError("modulation_tau_s must be positive")
        self._state = state
        self._rng = rng
        self._util_jitter = float(util_jitter_std)
        self._node_noise = float(node_noise_std)
        self._modulation_std = float(modulation_std)
        self._modulation_tau = float(modulation_tau_s)
        self._modulation = 0.0  # AR(1) state, zero-mean
        self._engine = get_engine(engine)
        # Per executor, i.e. per world: job ids are unique within one.
        self._layout: RunningLayout | None = None

    @property
    def engine(self) -> ClusterEngine:
        """The hot-path engine stepping this executor's jobs."""
        return self._engine

    @property
    def modulation_factor(self) -> float:
        """Current cluster-wide load multiplier (≈ 1.0 on average)."""
        return min(1.45, max(0.55, 1.0 + self._modulation))

    def advance(self, jobs: list[Job], now: float, dt: float) -> list[FinishedJob]:
        """Advance every RUNNING job in ``jobs`` by one tick.

        Args:
            jobs: Jobs to advance (non-running entries are skipped).
            now: Simulated time at the *start* of the tick.
            dt: Tick length, seconds.

        Returns:
            Completion notices for jobs whose work finished during this
            tick, with interpolated finish instants in ``(now, now+dt]``.
            The executor does **not** transition job state or release
            nodes — the scheduler owns those side effects.
        """
        if dt <= 0:
            raise WorkloadError("tick length must be positive")
        self._step_modulation(dt)
        running = [job for job in jobs if job.state is JobState.RUNNING]
        if not running:
            return []
        ids = tuple([job.job_id for job in running])
        if self._layout is None or self._layout.job_ids != ids:
            self._layout = RunningLayout.build(running)
        return self._engine.step_jobs(
            self._state,
            running,
            now,
            dt,
            self._rng,
            self._util_jitter,
            self._node_noise,
            self.modulation_factor,
            layout=self._layout,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _step_modulation(self, dt: float) -> None:
        """Advance the cluster-wide AR(1) load modulation by ``dt``."""
        if self._modulation_std == 0.0:
            return
        rho = float(np.exp(-dt / self._modulation_tau))
        innovation = self._rng.normal(0.0, self._modulation_std)
        self._modulation = rho * self._modulation + (1.0 - rho * rho) ** 0.5 * innovation
