"""The structure-of-arrays fast path of the per-cycle hot loop.

# reprolint: hot-path

:class:`VectorEngine` is the production implementation of
:class:`~repro.cluster.engine.ClusterEngine`: telemetry sweeps are fancy-
indexed gathers, Formula (1) is fused array arithmetic, per-job
aggregation is ``numpy.bincount``, and job stepping is array operations
along both the node and the job axis.  A tick reads the running set's
job-invariant arrays from a cached
:class:`~repro.workload.executor.RunningLayout`, looks every job's
phase up at once from padded phase tables, draws all jitter and
per-node noise in one ``standard_normal`` call, takes bottleneck rates
with one segmented ``minimum.reduceat`` and writes the load with one
``set_load``; its only per-job Python work is one progress gather and
one write-back.  No kernel loops over nodes in Python, and no kernel
draws from the RNG inside a loop — reprolint's RL106 and RL108 enforce
both for every module carrying the hot-path marker above.

Bit-identity with the object engine is engineered, not hoped for: see
the module docstring of :mod:`repro.cluster.engine` for the contract,
and the inline notes below for where each association order matters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.engine import ClusterEngine
from repro.power.estimator import JobPowerTable, NodePowerEstimator
from repro.workload.executor import FinishedJob

if TYPE_CHECKING:
    from repro.cluster.state import ClusterState
    from repro.power.model import PowerModel
    from repro.workload.executor import RunningLayout
    from repro.workload.job import Job

__all__ = ["VectorEngine"]


class VectorEngine(ClusterEngine):
    """Vectorised hot-path kernels (the default engine)."""

    name = "vector"

    # -- telemetry -----------------------------------------------------
    def sample_telemetry(
        self, state: ClusterState, node_ids: np.ndarray, now: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Sweep every agent at once: five gathers, five copies."""
        ids = node_ids
        return (
            state.level[ids].copy(),
            state.cpu_util[ids].copy(),
            state.mem_frac[ids].copy(),
            state.nic_frac[ids].copy(),
            state.job_id[ids].copy(),
        )

    # -- Formula (1) estimation ----------------------------------------
    def estimate_node_power(
        self,
        model: PowerModel,
        level: np.ndarray,
        cpu_util: np.ndarray,
        mem_frac: np.ndarray,
        nic_frac: np.ndarray,
        node_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        if node_ids is not None:
            return model.evaluate_for_nodes(
                node_ids, level, cpu_util, mem_frac, nic_frac
            )
        return np.asarray(
            model.evaluate(level, cpu_util, mem_frac, nic_frac),
            dtype=np.float64,
        )

    # -- per-job aggregation -------------------------------------------
    def aggregate_by_job(
        self, job_id: np.ndarray, values: np.ndarray
    ) -> JobPowerTable:
        # ``numpy.bincount`` accumulates each bin's weights left to
        # right in input order — the same association the object
        # engine's dict accumulation uses, hence bit-identical sums.
        return NodePowerEstimator.aggregate_by_job(job_id, values)

    # -- workload stepping ---------------------------------------------
    def step_jobs(
        self,
        state: ClusterState,
        jobs: list[Job],
        now: float,
        dt: float,
        rng: np.random.Generator,
        util_jitter_std: float,
        node_noise_std: float,
        modulation_factor: float,
        layout: RunningLayout,
    ) -> list[FinishedJob]:
        if not jobs:
            return []
        n_jobs = len(jobs)
        ids = layout.node_ids
        progress = np.array([job.progress_s for job in jobs], dtype=np.float64)

        # Phases: ``Job.cycle_position`` then ``PhaseSchedule.phase_at``
        # (its ``% 1.0`` wrap, bisect and last-phase clamp) for every job
        # at once.  Progress is non-negative, where numpy's ``remainder``
        # and Python's ``%`` both reduce to the exact ``fmod``; counting
        # the boundaries ``<= pos`` of a sorted row is ``bisect_right``.
        pos = np.remainder(np.remainder(progress, layout.cycle_s) / layout.cycle_s, 1.0)
        phase = np.minimum(
            (layout.bounds <= pos[:, None]).sum(axis=1), layout.last_phase
        )
        sig = layout.signatures[layout.row_base + phase]
        betas = sig[:, 2]

        # Jitter and per-node noise: one draw for the whole running set.
        # ``Generator.normal(0.0, std)`` returns ``0.0 + std·z`` for the
        # next standard normal ``z``, and ``1.0 + (0.0 + x) == 1.0 + x``
        # for every float ``x``, so these are the per-job draws' bits.
        jittered, noisy = util_jitter_std > 0, node_noise_std > 0
        if jittered and noisy:
            z = rng.standard_normal(n_jobs + len(ids))
            z_jitter, z_noise = z[layout.jitter_pos], z[layout.noise_pos]
        elif jittered:
            z_jitter = rng.standard_normal(n_jobs)
        elif noisy:
            z_noise = rng.standard_normal(len(ids))
        jitter: float | np.ndarray = modulation_factor
        if jittered:
            factor = np.maximum(0.0, 1.0 + util_jitter_std * z_jitter)
            jitter = (modulation_factor * factor)[:, None]

        # Bottleneck rate.  ``minimum.reduceat`` is an exact segmented
        # min — identical to the object engine's per-node running min.
        s_min = np.minimum.reduceat(state.speed_of(ids), layout.offsets)
        rates = 1.0 / ((1.0 - betas) + betas / s_min)
        degraded = (
            np.minimum.reduceat(state.level[ids], layout.offsets)
            < state.spec.top_level
        )

        # Progress, finishing and the sub-tick finish instant.  ``fmax``
        # is Python's ``max(0.0, x)`` even for NaN, so ``remaining`` is
        # never negative and the reference's ``remaining >= 0`` holds.
        remaining = np.fmax(0.0, layout.nominal_s - progress)
        step_work = rates * dt
        done = step_work >= remaining
        for job, value in zip(
            jobs, np.where(done, layout.nominal_s, progress + step_work).tolist()
        ):
            job.progress_s = value
        for j in np.flatnonzero(degraded).tolist():
            jobs[j].degraded_exposure_s += dt
        finished: list[FinishedJob] = []
        fin = np.flatnonzero(done)
        if fin.size:
            time_to_finish = np.divide(
                remaining[fin], rates[fin], out=np.full(fin.size, dt), where=rates[fin] > 0
            )
            finished = [
                FinishedJob(job=jobs[j], finish_time=t)
                for j, t in zip(fin.tolist(), (now + time_to_finish).tolist())
            ]

        # One combined load write.  Job node sets are disjoint, so this
        # equals the object engine's per-node writes; the association
        # ``(signature · jitter) · node_factor`` matches its scalar
        # product order (a factor of exactly 1.0 is skipped).
        load = (sig[:, :2] * jitter)[layout.node_job]
        if noisy:
            load *= np.maximum(0.0, 1.0 + node_noise_std * z_noise)[:, None]
        ramp = np.minimum(1.0, (now - layout.ramp_origin_s) / layout.ramp_s)
        mem_vals = (layout.mem_fraction * ramp)[layout.node_job]
        state.set_load(ids, cpu_util=load[:, 0], mem_frac=mem_vals, nic_frac=load[:, 1])
        return finished
