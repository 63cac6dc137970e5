"""Engine-level differential test of job stepping.

The preset matrix compares whole experiments; this test compares the
vector engine's ``step_jobs`` with the object engine's directly, tick
by tick, on small hand-driven worlds.  Hypothesis chooses the inputs
that matter to the batched kernel:

* all four RNG layouts (jitter and per-node noise each on or off);
* 1-node jobs next to multi-node ones;
* progress exactly on phase boundaries and on whole cycles (the
  ``pos == 1.0`` wrap), and jobs that finish this tick;
* degraded nodes;
* an application with ``mem_ramp_s = 0``;
* running sets that change between ticks through start, finish,
  suspend and kill, so the executor's cached layout is rebuilt.

After every tick the two worlds must agree bit for bit on the state's
load arrays, every job's ``progress_s`` and ``degraded_exposure_s``,
the finish notices and the RNG position; at the end, on the next draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.cluster.engine import get_engine
from repro.sim import RandomSource
from repro.workload import Job, JobExecutor, JobState, get_application
from repro.workload.applications import ApplicationProfile
from repro.workload.executor import RunningLayout
from repro.workload.phases import Phase, PhaseSchedule

from tests.equivalence.harness import ENGINES

NUM_NODES = 24

#: Exactly representable boundaries (0.25, 0.5, 1.0) and, at 64 or 32
#: processes, nominal runtimes of 64 s or 128 s — cycles of 8 s or 16 s —
#: so ``progress = cycle · boundary`` lands on a boundary exactly.
BOUNDARY_APP = ApplicationProfile(
    name="BND",
    schedule=PhaseSchedule(
        [
            Phase("a", 1.0, cpu_util=0.9, nic_frac=0.1, compute_boundness=0.9),
            Phase("b", 1.0, cpu_util=0.4, nic_frac=0.6, compute_boundness=0.3),
            Phase("c", 2.0, cpu_util=0.7, nic_frac=0.2, compute_boundness=0.6),
        ]
    ),
    mem_fraction=0.3,
    mem_ramp_s=0.0,
    ref_nprocs=64,
    ref_runtime_s=64.0,
    scaling_exponent=1.0,
    gflops_per_node=1.0,
)

APPS = (
    BOUNDARY_APP,
    get_application("EP"),
    get_application("CG"),
    get_application("BT"),
    get_application("SP"),
)


@dataclass
class World:
    """One engine's copy of the hand-driven world."""

    cluster: Cluster
    executor: JobExecutor
    rng: np.random.Generator
    jobs: dict[int, Job] = field(default_factory=dict)


def make_world(
    engine: str, seed: int, jitter: float, noise: float, modulation: float
) -> World:
    cluster = Cluster.tianhe_1a(num_nodes=NUM_NODES, engine=engine)
    rng = RandomSource(seed=seed).stream("exec")
    executor = JobExecutor(
        cluster.state,
        rng,
        util_jitter_std=jitter,
        node_noise_std=noise,
        modulation_std=modulation,
        engine=cluster.engine,
    )
    return World(cluster, executor, rng)


def _initial_progress(job: Job, kind: int, frac: float) -> float:
    cycle = job.cycle_length_s
    if kind == 0:  # exactly on a phase boundary of the boundary app
        return cycle * (0.25, 0.5)[int(frac * 2) % 2] + cycle * int(frac * 3)
    if kind == 1:  # a whole number of cycles: pos wraps to 0.0
        return cycle * int(1 + frac * 6)
    if kind == 2:  # just short of nominal: finishes this tick
        return job.nominal_runtime_s - frac * 1.5
    return frac * job.nominal_runtime_s


def apply_op(world: World, op: tuple, now: float, next_id: int) -> None:
    """Apply one scenario operation (identically on every engine)."""
    state = world.cluster.state
    kind = op[0]
    active = sorted(
        jid
        for jid, job in world.jobs.items()
        if job.state in (JobState.RUNNING, JobState.SUSPENDED)
    )
    if kind == "start":
        _, app, k, nprocs, progress_kind, frac = op
        free = np.flatnonzero(state.job_id < 0)[:k]
        if len(free) == 0:
            return
        job = Job(job_id=next_id, app=APPS[app], nprocs=nprocs, submit_time=0.0)
        state.assign_job(free, next_id)
        job.start(now, free)
        job.progress_s = _initial_progress(job, progress_kind, frac)
        world.jobs[next_id] = job
    elif kind == "degrade":
        _, node, level = op
        state.set_level(node, min(level, state.spec.top_level))
    elif active:
        job = world.jobs[active[op[1] % len(active)]]
        if kind == "suspend" and job.state is JobState.RUNNING:
            job.suspend(now)
        elif kind == "resume" and job.state is JobState.SUSPENDED:
            job.resume(now)
        elif kind == "kill":
            job.kill(now)
            state.release_job(job.nodes)


def tick(world: World, now: float, dt: float) -> list[tuple[int, str]]:
    """Advance every job (in id order) and retire finished ones."""
    jobs = [world.jobs[jid] for jid in sorted(world.jobs)]
    notices = world.executor.advance(jobs, now, dt)
    for notice in notices:
        notice.job.finish(notice.finish_time)
        world.cluster.state.release_job(notice.job.nodes)
    return [(n.job.job_id, repr(n.finish_time)) for n in notices]


def snapshot(world: World) -> tuple:
    state = world.cluster.state
    return (
        state.cpu_util.tobytes(),
        state.mem_frac.tobytes(),
        state.nic_frac.tobytes(),
        tuple(
            (jid, job.state, repr(job.progress_s), repr(job.degraded_exposure_s))
            for jid, job in sorted(world.jobs.items())
        ),
        repr(world.rng.bit_generator.state),
    )


_start = st.tuples(
    st.just("start"),
    st.integers(0, len(APPS) - 1),
    st.sampled_from([1, 1, 2, 3, 4, 6]),
    st.sampled_from([32, 64, 64, 128]),
    st.integers(0, 3),
    st.floats(0.0, 0.999),
)
_op = st.one_of(
    _start,
    _start,
    st.tuples(
        st.sampled_from(["suspend", "resume", "kill"]), st.integers(0, 1000)
    ),
    st.tuples(
        st.just("degrade"), st.integers(0, NUM_NODES - 1), st.integers(0, 9)
    ),
)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    jitter=st.sampled_from([0.0, 0.04]),
    noise=st.sampled_from([0.0, 0.02]),
    modulation=st.sampled_from([0.0, 0.08]),
    dt=st.sampled_from([0.5, 1.0, 3.0]),
    ticks=st.lists(st.lists(_op, max_size=4), min_size=1, max_size=12),
)
def test_step_jobs_bit_identical_across_engines(
    seed: int,
    jitter: float,
    noise: float,
    modulation: float,
    dt: float,
    ticks: list[list[tuple]],
) -> None:
    worlds = [make_world(e, seed, jitter, noise, modulation) for e in ENGINES]
    next_id = 0
    now = 0.0
    for step, ops in enumerate(ticks):
        for op in ops:
            for world in worlds:
                apply_op(world, op, now, next_id)
            next_id += op[0] == "start"
        notices = [tick(world, now, dt) for world in worlds]
        assert notices[0] == notices[1], f"finish notices diverged at tick {step}"
        vector, obj = (snapshot(world) for world in worlds)
        assert vector == obj, f"engines diverged at tick {step}"
        now += dt
    draws = [repr(world.rng.standard_normal()) for world in worlds]
    assert draws[0] == draws[1]


def test_layout_is_cached_until_the_running_set_changes() -> None:
    world = make_world("vector", seed=5, jitter=0.04, noise=0.02, modulation=0.0)
    for op in (("start", 1, 4, 64, 3, 0.1), ("start", 0, 1, 64, 3, 0.2)):
        apply_op(world, op, 0.0, len(world.jobs))
    tick(world, 0.0, 1.0)
    layout = world.executor._layout
    tick(world, 1.0, 1.0)
    assert world.executor._layout is layout
    world.jobs[0].suspend(2.0)
    tick(world, 2.0, 1.0)
    assert world.executor._layout is not layout
    assert world.executor._layout is not None
    assert world.executor._layout.job_ids == (1,)


def test_direct_step_matches_object_engine() -> None:
    # The engines called directly, outside an executor.
    results = []
    for engine in ENGINES:
        world = make_world(engine, seed=11, jitter=0.04, noise=0.02, modulation=0.0)
        for jid, op in enumerate(
            (("start", 2, 3, 64, 3, 0.4), ("start", 0, 1, 32, 0, 0.7))
        ):
            apply_op(world, op, 0.0, jid)
        world.cluster.state.set_level(1, 0)
        jobs = [world.jobs[jid] for jid in sorted(world.jobs)]
        finished = get_engine(engine).step_jobs(
            world.cluster.state, jobs, 0.0, 1.0, world.rng, 0.04, 0.02, 1.0,
            layout=RunningLayout.build(jobs),
        )
        assert finished == []
        results.append(snapshot(world))
    assert results[0] == results[1]


def test_layout_positions_interleave_jitter_and_noise() -> None:
    world = make_world("vector", seed=1, jitter=0.04, noise=0.02, modulation=0.0)
    for jid, k in enumerate((2, 1, 3)):
        apply_op(world, ("start", 1, k, 64, 3, 0.5), 0.0, jid)
    layout = RunningLayout.build([world.jobs[j] for j in range(3)])
    # Per job: [jitter, noise × k] → j0: 0 | 1 2, j1: 3 | 4, j2: 5 | 6 7 8.
    assert layout.jitter_pos.tolist() == [0, 3, 5]
    assert layout.noise_pos.tolist() == [1, 2, 4, 6, 7, 8]
    assert layout.node_job.tolist() == [0, 0, 1, 2, 2, 2]
