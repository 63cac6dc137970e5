"""Vector-engine gates: speedup over the object engine, and job-axis scaling.

**Speedup gate.**  Runs the complete per-cycle hot path — job stepping,
telemetry sweep, Formula (1) estimation and policy ranking — on both
engines over the same busy world and gates the structure-of-arrays
speedup:

* full mode (default): 1024 nodes, vector must be >= 10x the object
  engine's cycle throughput;
* ``--quick``: 256 nodes and a >= 3x gate — the CI smoke configuration.

**Job-axis gate.**  Measures one ``JobExecutor.advance`` tick on busy
worlds of 8-node jobs and gates how its cost grows with the number of
running jobs — per-job Python work shows up here as linear growth.  It
runs two worlds: a steady one, whose running set never changes, and a
turnover one, where one job is suspended and another resumed before
every tick, so the executor rebuilds its running-set layout every tick.

* full mode: the 4096-node / 512-job tick costs <= 12x the 128-node /
  16-job tick in the steady world and <= 16x in the turnover world,
  whose per-tick rebuild gathers every job's inputs in Python;
* ``--quick``: the 1024-node / 128-job tick costs <= 4x the 128-node one
  in both worlds.

Usage::

    PYTHONPATH=src python benchmarks/bench_vector_engine.py [--quick]
    PYTHONPATH=src python benchmarks/bench_vector_engine.py --nodes 4096

The module is also collectable by pytest (``test_quick_gate`` and
``test_quick_job_axis_gate``) so both gates run inside the benchmark
suite too.
"""

from __future__ import annotations

import argparse
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.cluster import Cluster
from repro.core import NodeSets, PowerThresholds
from repro.core.policies import PolicyContext, make_policy
from repro.power import NodePowerEstimator, PowerModel
from repro.sim import RandomSource
from repro.telemetry import TelemetryCollector
from repro.workload import Job, JobExecutor, get_application

#: Nodes per job in the synthetic busy world.
_BLOCK = 8


@dataclass(frozen=True)
class EngineTiming:
    """Measured steady-state cost of one management cycle."""

    engine: str
    num_nodes: int
    cycles: int
    seconds_per_cycle: float

    @property
    def cycles_per_second(self) -> float:
        return 1.0 / self.seconds_per_cycle


def _busy_executor(engine: str, num_nodes: int):
    """A fully-busy cluster: one running job per 8-node block."""
    cluster = Cluster.tianhe_1a(num_nodes=num_nodes, engine=engine)
    rng = RandomSource(seed=42)
    executor = JobExecutor(
        cluster.state, rng.stream("exec"), engine=cluster.engine
    )
    app = get_application("EP")
    jobs = []
    for start in range(0, num_nodes, _BLOCK):
        ids = np.arange(start, min(start + _BLOCK, num_nodes))
        jid = start // _BLOCK
        job = Job(job_id=jid, app=app, nprocs=64, submit_time=0.0)
        cluster.state.assign_job(ids, jid)
        job.start(0.0, ids)
        jobs.append(job)
    return cluster, executor, jobs


def _build_world(engine: str, num_nodes: int):
    """One management cycle over a fully-busy cluster."""
    cluster, executor, jobs = _busy_executor(engine, num_nodes)
    sets = NodeSets(cluster)
    collector = TelemetryCollector(
        cluster.state, sets.candidates, engine=cluster.engine
    )
    estimator = NodePowerEstimator(PowerModel(cluster.spec), engine=cluster.engine)
    policy = make_policy("mpc")
    thresholds = PowerThresholds(p_low=1.0, p_high=2.0)

    def one_cycle(t: float) -> None:
        executor.advance(jobs, t, 1.0)
        snapshot = collector.collect(t)
        ctx = PolicyContext(
            snapshot, collector.previous, estimator, 10.0, thresholds
        )
        policy.select(ctx)

    return one_cycle


def measure_engine(
    engine: str, num_nodes: int, cycles: int, warmup: int = 2
) -> EngineTiming:
    """Steady-state seconds per management cycle on ``engine``."""
    one_cycle = _build_world(engine, num_nodes)
    t = 1.0
    for _ in range(warmup):
        one_cycle(t)
        t += 1.0
    start = time.perf_counter()
    for _ in range(cycles):
        one_cycle(t)
        t += 1.0
    elapsed = time.perf_counter() - start
    return EngineTiming(engine, num_nodes, cycles, elapsed / cycles)


def run_gate(
    num_nodes: int, min_speedup: float, vector_cycles: int, object_cycles: int
) -> float:
    """Measure both engines, print the table, and enforce the gate."""
    vector = measure_engine("vector", num_nodes, vector_cycles)
    obj = measure_engine("object", num_nodes, object_cycles)
    speedup = obj.seconds_per_cycle / vector.seconds_per_cycle
    print(f"\nvector-engine gate @ {num_nodes} nodes")
    print(f"{'engine':<8} {'ms/cycle':>10} {'cycles/s':>10}")
    for timing in (vector, obj):
        print(
            f"{timing.engine:<8} {timing.seconds_per_cycle * 1e3:>10.3f} "
            f"{timing.cycles_per_second:>10.1f}"
        )
    print(f"speedup: {speedup:.1f}x (gate: >= {min_speedup:.0f}x)")
    if speedup < min_speedup:
        raise SystemExit(
            f"GATE FAILED: vector engine is only {speedup:.1f}x the object "
            f"engine at {num_nodes} nodes (required >= {min_speedup:.0f}x)"
        )
    return speedup


def _advance_ticker(num_nodes: int, turnover: bool) -> Callable[[float], None]:
    """One ``JobExecutor.advance`` tick on a busy world of 8-node jobs.

    With ``turnover`` the next job is suspended and the previously
    suspended one resumed before every tick, so the running set changes
    every tick and the executor rebuilds its cached layout each time.
    """
    _cluster, executor, jobs = _busy_executor("vector", num_nodes)
    suspended = 0
    if turnover:
        jobs[suspended].suspend(0.0)

    def tick(t: float) -> None:
        nonlocal suspended
        if turnover:
            resumed, suspended = suspended, (suspended + 1) % len(jobs)
            jobs[suspended].suspend(t)
            jobs[resumed].resume(t)
        executor.advance(jobs, t, 1.0)

    return tick


def measure_advance(
    sizes: tuple[int, ...], ticks: int = 20, rounds: int = 9
) -> dict[tuple[int, bool], float]:
    """Seconds per ``JobExecutor.advance`` tick, by (nodes, turnover).

    Every world is timed in alternating rounds of ``ticks`` ticks and
    keeps its fastest round, so all see the same host and a burst of
    interference cannot land on one side only.
    """
    worlds = {
        (n, turnover): _advance_ticker(n, turnover)
        for n in sizes
        for turnover in (False, True)
    }
    best = dict.fromkeys(worlds, float("inf"))
    t = 0.0
    for _ in range(rounds):
        for key, tick in worlds.items():
            start = time.perf_counter()
            for step in range(ticks):
                tick(t + step)
            best[key] = min(best[key], (time.perf_counter() - start) / ticks)
        t += ticks
    return best


def run_job_axis_gate(
    large_nodes: int, max_ratio: float, max_turnover_ratio: float
) -> dict[str, float]:
    """Gate each world's large/small tick-cost ratio against 128 nodes."""
    cost = measure_advance((128, large_nodes))
    print(f"\njob-axis gate: JobExecutor.advance, {_BLOCK}-node jobs")
    print(f"{'nodes':>6} {'jobs':>5} {'steady us':>10} {'turnover us':>12}")
    for nodes in (128, large_nodes):
        print(
            f"{nodes:>6} {nodes // _BLOCK:>5} {cost[nodes, False] * 1e6:>10.1f}"
            f" {cost[nodes, True] * 1e6:>12.1f}"
        )
    ratios: dict[str, float] = {}
    for turnover, world, bound in (
        (False, "steady", max_ratio),
        (True, "turnover", max_turnover_ratio),
    ):
        ratio = cost[large_nodes, turnover] / cost[128, turnover]
        ratios[world] = ratio
        print(f"{world} ratio: {ratio:.1f}x (gate: <= {bound:.0f}x)")
        if ratio > bound:
            raise SystemExit(
                f"GATE FAILED: in the {world} world a {large_nodes}-node tick "
                f"costs {ratio:.1f}x a 128-node tick (allowed <= {bound:.0f}x)"
            )
    return ratios


def test_quick_gate() -> None:
    """The CI smoke gate, collectable by pytest."""
    assert run_gate(
        num_nodes=256, min_speedup=3.0, vector_cycles=20, object_cycles=5
    ) >= 3.0


def test_quick_job_axis_gate() -> None:
    """The CI smoke job-axis gate, collectable by pytest."""
    ratios = run_job_axis_gate(
        large_nodes=1024, max_ratio=4.0, max_turnover_ratio=4.0
    )
    assert max(ratios.values()) <= 4.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke sizes: 256 nodes, 3x speedup and 1024 vs 128 nodes, "
        "4x job-axis gates (instead of 1024 nodes, 10x and 4096 vs 128, "
        "12x steady / 16x turnover)",
    )
    parser.add_argument(
        "--nodes",
        type=int,
        default=None,
        help="override the cluster size (keeps the mode's gate)",
    )
    args = parser.parse_args()
    if args.quick:
        nodes = args.nodes or 256
        run_gate(nodes, min_speedup=3.0, vector_cycles=20, object_cycles=5)
        run_job_axis_gate(large_nodes=1024, max_ratio=4.0, max_turnover_ratio=4.0)
    else:
        nodes = args.nodes or 1024
        run_gate(nodes, min_speedup=10.0, vector_cycles=30, object_cycles=5)
        run_job_axis_gate(
            large_nodes=4096, max_ratio=12.0, max_turnover_ratio=16.0
        )


if __name__ == "__main__":
    main()
