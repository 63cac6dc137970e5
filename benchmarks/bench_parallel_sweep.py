"""Gates for the deterministic parallel sweep runner and result cache.

Three contracts, measured on a fig7-style grid (shared unmanaged
baseline + policies × seeds, >= 12 managed cells):

* **(a) parallel speedup** — 4 workers must finish the grid >= 3x
  faster than serial.  The gate needs >= 4 usable CPUs; on smaller
  hosts it prints SKIP (the other gates still run — correctness never
  depends on the machine).
* **(b) warm cache** — re-running the identical sweep against a
  populated cache must be >= 10x faster than the cold run that filled
  it: a cache hit is a disk read, not a simulation.
* **(c) bit-identity** — the merged canonical JSON must be
  byte-identical for ``jobs`` in {1, 2, 4}, cold or warm.  This is the
  contract that makes (a) safe to use at all.

Serial and parallel runs both share training prefixes (rule 4 of
:mod:`repro.experiments.sweep`): the grid holds three worlds, one per
seed (5, 4 and 4 cells, the baseline sharing the first seed's), so the
serial reference trains three of them, and at 4 workers the 5-cell
world is split in two so the pool still has 4 tasks (4 trainings).
The gates are unchanged.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_sweep.py [--quick]

``--quick`` shrinks the per-cell simulation (CI smoke); the full mode
uses cells heavy enough that pool startup is noise.  The module is
also collectable by pytest (``test_quick_gate``).
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time

from repro.experiments import ExperimentConfig, ResultCache
from repro.experiments.sweep import SweepCell, baseline_cell, run_sweep

#: Gate thresholds from the issue: 3x at 4 workers, 10x warm-vs-cold.
MIN_PARALLEL_SPEEDUP = 3.0
MIN_WARM_SPEEDUP = 10.0
_POLICIES = ("mpc", "hri", "bfp", "lpc")
_SEEDS = (2012, 2013, 2014)


def build_grid(quick: bool) -> list[SweepCell]:
    """Shared baseline + |policies| x |seeds| managed cells (13 total)."""
    if quick:
        shape = dict(
            num_nodes=32,
            runtime_scale=0.02,
            training_duration_s=120.0,
            run_duration_s=240.0,
            adjust_every_cycles=60,
        )
    else:
        shape = dict(
            num_nodes=128,
            runtime_scale=0.02,
            training_duration_s=600.0,
            run_duration_s=1200.0,
        )
    cells = [baseline_cell(ExperimentConfig(seed=_SEEDS[0], **shape))]
    for seed in _SEEDS:
        config = ExperimentConfig(seed=seed, **shape)
        cells.extend(SweepCell(config, policy) for policy in _POLICIES)
    return cells


def measure(
    cells: list[SweepCell], jobs: int, cache: ResultCache | None = None
) -> tuple[float, str]:
    """``(wall seconds, merged canonical JSON)`` for one sweep run."""
    start = time.perf_counter()
    report = run_sweep(cells, jobs=jobs, cache=cache)
    return time.perf_counter() - start, report.merged_json()


def run_gates(quick: bool) -> None:
    """Measure all three gates; raise SystemExit on any failure."""
    cells = build_grid(quick)
    managed = sum(1 for c in cells if c.policy is not None)
    print(
        f"\nparallel-sweep gates ({'quick' if quick else 'full'} mode, "
        f"{len(cells)} cells / {managed} managed)"
    )

    serial_s, serial_json = measure(cells, jobs=1)
    print(f"serial (jobs=1):      {serial_s:8.2f}s")

    # (c) bit-identity across worker counts, before anything else: the
    # speedup gates are meaningless if parallel output ever differed.
    for jobs in (2, 4):
        par_s, par_json = measure(cells, jobs=jobs)
        print(f"parallel (jobs={jobs}):    {par_s:8.2f}s")
        if par_json != serial_json:
            raise SystemExit(
                f"GATE FAILED: jobs={jobs} merged output differs from "
                "serial — the bit-identity contract is broken"
            )
        if jobs == 4:
            four_worker_s = par_s
    print("bit-identity:          jobs in {1, 2, 4} byte-identical")

    # (a) parallel speedup — only meaningful with >= 4 usable CPUs.
    cpus = os.cpu_count() or 1
    if cpus < 4:
        print(
            f"parallel speedup:      SKIP (host has {cpus} CPU(s); the "
            f">= {MIN_PARALLEL_SPEEDUP:.0f}x @ 4-worker gate needs >= 4)"
        )
    else:
        speedup = serial_s / four_worker_s
        print(
            f"parallel speedup:      {speedup:.1f}x "
            f"(gate: >= {MIN_PARALLEL_SPEEDUP:.0f}x)"
        )
        if speedup < MIN_PARALLEL_SPEEDUP:
            raise SystemExit(
                f"GATE FAILED: 4 workers are only {speedup:.1f}x serial "
                f"(required >= {MIN_PARALLEL_SPEEDUP:.0f}x)"
            )

    # (b) warm cache >= 10x cold.
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        cold_s, cold_json = measure(cells, jobs=1, cache=cache)
        warm_s, warm_json = measure(cells, jobs=1, cache=cache)
        warm_speedup = cold_s / warm_s
        print(
            f"cold -> warm cache:   {cold_s:8.2f}s -> {warm_s:.2f}s "
            f"({warm_speedup:.0f}x; gate: >= {MIN_WARM_SPEEDUP:.0f}x)"
        )
        if cold_json != serial_json or warm_json != serial_json:
            raise SystemExit(
                "GATE FAILED: cached replay differs from the live run"
            )
        if warm_speedup < MIN_WARM_SPEEDUP:
            raise SystemExit(
                f"GATE FAILED: warm cache is only {warm_speedup:.1f}x the "
                f"cold run (required >= {MIN_WARM_SPEEDUP:.0f}x)"
            )
    print("all gates passed")


def test_quick_gate() -> None:
    """The CI smoke gates, collectable by pytest."""
    run_gates(quick=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small per-cell simulations (CI smoke) instead of full size",
    )
    args = parser.parse_args()
    run_gates(quick=args.quick)


if __name__ == "__main__":
    main()
