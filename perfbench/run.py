"""Host-time benchmark of the §V.C protocol and the Fig. 7 sweep.

Run from the repository root::

    python3 perfbench/run.py --workload defended-128 --seed 2012 --seconds 50 --trace 0

It sets up (import, inputs, an untimed shrunk warm-up), then repeats the
workload's rep (a cold sweep pass, then about a second of warm passes)
while another fits in ``--seconds``, checks every output, and prints one ``metric`` line per
value followed by a JSON result line.  ``--trace 1`` alternates untraced and
traced reps and reports the per-layer metrics instead (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # imported lazily below: importing repro is part of setup_s
    from perfbench.tracing import AfterHook, Tracer
    from perfbench.workloads import Rep, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _p in (ROOT, ROOT / "src"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

#: Setup is measured this many times per invocation (in-process + probes).
SETUP_SAMPLES = 5
#: Output directory (span files, scratch caches) inside the checkout.
OUT = ROOT / ".perfbench-out"

#: ``(name, unit)`` of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("sweep_cold_s", "s"),
    ("sweep_warm_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=2012)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _set_up(name: str, seed: int, workdir: Path, t0: float) -> tuple[Workload, float]:
    """Import, build the inputs and warm up on one shrunk rep; return the
    workload and the setup time since ``t0``."""
    from perfbench import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; have {sorted(workloads.WORKLOADS)}")
    workload = workloads.build(name, seed)
    warm = workloads.build(name, seed, shrunk=True)
    rep = warm.run_rep(workdir, warm_budget_s=0.0)
    if rep.failures:
        raise RuntimeError(f"warm-up failed its checks: {rep.failures}")
    return workload, time.perf_counter() - t0


def _probe_setups(args: argparse.Namespace, count: int) -> list[float]:
    """Setup time of ``count`` fresh processes (each imports anew)."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def _peak_rss_mb(with_children: bool) -> float:
    """Peak RSS of this process, plus the largest waited-for child."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def _provenance(workload: Workload, seed: int) -> dict[str, Any]:
    import numpy

    from repro.experiments import CODE_VERSION

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        sha = None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "code_version": CODE_VERSION,
        "config_hash": workload.cell_hashes(),
        "engine": workload.config.engine,
        "jobs": workload.jobs,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
    }


def _trace_hooks(training_end_s: float) -> dict[str, AfterHook]:
    """Counters gathered at the traced boundaries themselves; a tick
    belongs to the training prefix when its ``now`` is within it."""

    def tick(tracer: Tracer, args: tuple, kwargs: dict, dur: float) -> None:
        now = args[1] if len(args) > 1 else kwargs["now"]
        phase = "training_s" if now <= training_end_s + 1e-9 else "window_s"
        tracer.counters[phase] += dur

    def advance(tracer: Tracer, args: tuple, kwargs: dict, dur: float) -> None:
        jobs = args[1] if len(args) > 1 else kwargs["jobs"]
        tracer.counters["job_steps"] += len(jobs)

    def apply(tracer: Tracer, args: tuple, kwargs: dict, dur: float) -> None:
        tracer.seen[id(args[0])] = args[0]

    return {"scheduler.tick": tick, "workload.advance": advance, "core.apply": apply}


def _per_layer(tracer: Tracer, traced: list[Rep], untraced: list[Rep]) -> dict[str, float]:
    from perfbench import tracing

    n = len(traced)
    spans = tracer.closed_spans()
    table = tracing.layer_times(spans)
    out: dict[str, float] = {}
    for fn in tracing.LAYER_FUNCTIONS:
        calls, total, own = table.get(fn, (0, 0.0, 0.0))
        out[f"{fn}.calls"] = calls / n
        out[f"{fn}.s"] = total / n
        out[f"{fn}.self_s"] = own / n
    c = tracer.counters
    steps = c["job_steps"]
    gaps = tracing.cycle_ms(spans)
    wall = sum(r.total_s for r in traced)
    out.update({
        "experiments.training.s": c["training_s"] / n,
        "experiments.window.s": c["window_s"] / n,
        "workload.job_steps": steps / n,
        "workload.us_per_job_step": (
            table["workload.advance"][1] / steps * 1e6 if steps else 0.0
        ),
        "core.actuator.effective_ratio": (
            c["effective"] / c["sent"] if c["sent"] else 0.0
        ),
        "experiments.cache.hit_ratio": (
            sum(r.hits for r in traced) / sum(r.hits + r.misses for r in traced)
        ),
        "experiments.cache.bytes_written": sum(r.bytes_written for r in traced) / n,
        "cycle_ms.p50": tracing.percentile(gaps, 50),
        "cycle_ms.p99": tracing.percentile(gaps, 99),
        "cycle_ms.samples": float(len(gaps)),
        "trace.overhead": (
            statistics.median(r.cold_s for r in traced)
            / statistics.median(r.cold_s for r in untraced)
            - 1.0
        ),
        "trace.top_level_share": tracing.top_level_seconds(spans) / wall,
    })
    return out


@dataclass
class Measured:
    """Every rep of one run, split by whether it was traced."""

    tracer: Tracer
    untraced: list[Rep] = field(default_factory=list)
    traced: list[Rep] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Simulated statistics of the first untraced rep.
    simulated: dict[str, float] = field(default_factory=dict)


def _measure(args: argparse.Namespace, workload: Workload, workdir: Path) -> Measured:
    """Repeat the rep while another fits in ``--seconds`` (at least once;
    with ``--trace 1``, untraced and traced reps alternate)."""
    from perfbench import tracing

    run = Measured(tracing.Tracer(after=_trace_hooks(workload.config.training_duration_s)))
    tracer = run.tracer
    start = time.perf_counter()
    while True:
        trace_this = bool(args.trace) and len(run.untraced) > len(run.traced)
        run.attempted += 1
        rep_start = time.perf_counter()
        try:
            if trace_this:
                tracer.run = len(run.traced)
                with tracer:
                    rep = workload.run_rep(workdir)
                for actuator in tracer.seen.values():
                    tracer.counters["effective"] += actuator.effective_commands
                    tracer.counters["sent"] += actuator.commands_sent
                tracer.seen.clear()
            else:
                rep = workload.run_rep(workdir)
        except Exception:  # a broken rep is a failed attempt, not a crash
            traceback.print_exc()
            run.failed += 1
            run.failures.append("rep raised")
        else:
            if run.digests and rep.digest != run.digests[0]:
                rep.failures.append(f"digest {rep.digest} != first rep {run.digests[0]}")
            run.digests.append(rep.digest)
            if rep.failures:
                run.failed += 1
                run.failures += rep.failures
            if not (trace_this or run.untraced):
                run.simulated = workload.simulated(rep.results)
            # Results are kept by no later step; freeing them keeps the peak
            # RSS independent of how many reps fit in ``--seconds``.
            rep.results.clear()
            (run.traced if trace_this else run.untraced).append(rep)
            print(
                f"rep {run.attempted} {'traced' if trace_this else 'untraced'} "
                f"cold_s={rep.cold_s:.4f} warm_s={rep.warm_s:.4f} "
                f"ok={not rep.failures}",
                flush=True,
            )
        now = time.perf_counter()
        have_all = bool(run.untraced) and (bool(run.traced) or not args.trace)
        # Stop when another rep as long as this one would overrun --seconds.
        if now - start + now - rep_start > args.seconds and (have_all or run.failed >= 3):
            return run


def _probe_main(args: argparse.Namespace, t0: float) -> int:
    workdir = OUT / f"probe-{os.getpid()}"
    try:
        _, setup = _set_up(args.workload, args.seed, workdir, t0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(setup))
    return 0


def _stop_resource_tracker() -> None:
    """Stop the helper process that the spawn-context worker pool starts
    (``multiprocessing``'s resource tracker) and wait until it has ended.
    Left alone, it outlives this process by a moment."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def _terminate(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    # SIGTERM unwinds like an error, so the worker pool and the helper
    # processes are stopped and waited for on that path too.
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        return _main(argv)
    finally:
        _stop_resource_tracker()
        signal.signal(signal.SIGTERM, previous)


def _main(argv: list[str] | None) -> int:
    t0 = time.perf_counter()
    args = _parse(argv)
    if args.setup_probe:
        return _probe_main(args, t0)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        workload, first_setup = _set_up(args.workload, args.seed, workdir, t0)
        from perfbench import workloads

        print(f"# perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}", flush=True)
        print("provenance " + json.dumps(_provenance(workload, args.seed), sort_keys=True))
        run = _measure(args, workload, workdir)
        peak_rss = _peak_rss_mb(with_children=workload.jobs > 1)
        reps = run.untraced
        correct = run.failed == 0 and bool(reps)
        setups = [first_setup] + _probe_setups(args, SETUP_SAMPLES - 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in run.failures:
        print(f"FAILED {failure}")
    digest = run.digests[0] if run.digests else None
    print(f"digest {args.workload} seed={args.seed} sha256={digest} "
          f"identical_across_reps={len(set(run.digests)) <= 1}")

    e2e: dict[str, float | None] = {
        "setup_s": statistics.median(setups),
        "sweep_cold_s": statistics.median(r.cold_s for r in reps) if reps else None,
        "sweep_warm_s": min(r.warm_s for r in reps) if reps else None,
        "peak_rss_mb": peak_rss,
    }
    units = dict(END_TO_END)
    print(f"setup samples_s={[round(s, 4) for s in setups]}")
    print(f"runs untraced={len(reps)} traced={len(run.traced)}")
    for name, value in e2e.items():
        print(f"metric {name} {value!r} {units[name]}")
    for name, value in run.simulated.items():
        ref = workloads.PAPER[name]
        print(f"simulated {name} {value!r} ratio ({workload.managed} vs {workload.baseline}; "
              f"paper {ref}, error {value - ref:+.4f})")
    print(f"metric error_rate {run.failed / run.attempted!r} ratio "
          f"(failed {run.failed} of {run.attempted} reps)")

    if args.trace:
        from perfbench import tracing

        tracer = run.tracer
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        if workload.jobs > 1:
            print("note: cells run in worker processes, which are not traced; "
                  "worker-internal layers of this sweep read 0 here and are "
                  "measured in-process by defended-128")
        layer = _per_layer(tracer, run.traced, reps) if run.traced and reps else {}
        correct = correct and bool(layer)
        units = dict(tracing.per_layer_metric_names())
        for name, unit in units.items():
            print(f"layer {name} {layer.get(name)!r} {unit}")
        values: dict[str, float | None] = {n: layer.get(n) for n in units}
    else:
        values = e2e
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
