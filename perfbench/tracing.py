"""Host-time tracing of the simulator's layers, installed from outside.

The tracer wraps a fixed list of public functions and methods of
:mod:`repro` (``TARGETS``) with thin timing shims, records one span per
call in memory and restores every original afterwards.  Nothing in
``src/`` knows it is being traced: host time flows out of the program
into this module and never back in.

A span is ``(name, start, end, parent, run)``: ``parent`` is the index
of the enclosing span (``-1`` for a root), ``run`` the rep it belongs
to.  A layer's *self time* is its span's duration minus the part of
that interval covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple

__all__ = [
    "AfterHook",
    "DERIVED_METRICS",
    "LAYER_FUNCTIONS",
    "Span",
    "TARGETS",
    "TOP_LEVEL",
    "Target",
    "Tracer",
    "cycle_ms",
    "layer_times",
    "per_layer_metric_names",
    "percentile",
    "self_times",
    "top_level_seconds",
]


class Target(NamedTuple):
    """One traced function: span name, defining module, qualified name."""

    name: str
    module: str
    qualname: str


#: Every traced function.  Several targets may share a span name (both
#: engines' ``step_jobs``, both power models, and ``result_from_dict`` as
#: bound in the cache and in the sweep module): whichever runs is counted.
TARGETS: tuple[Target, ...] = (
    Target("scheduler.tick", "repro.scheduler.scheduler", "BatchScheduler.tick"),
    Target("workload.advance", "repro.workload.executor", "JobExecutor.advance"),
    Target("cluster.step_jobs", "repro.cluster.vector", "VectorEngine.step_jobs"),
    Target("cluster.step_jobs", "repro.cluster.object_engine", "ObjectEngine.step_jobs"),
    Target(
        "cluster.sample_telemetry", "repro.cluster.vector", "VectorEngine.sample_telemetry"
    ),
    Target(
        "cluster.sample_telemetry",
        "repro.cluster.object_engine",
        "ObjectEngine.sample_telemetry",
    ),
    Target("power.system_power", "repro.power.model", "PowerModel.system_power"),
    Target(
        "power.system_power",
        "repro.power.hetero",
        "HeterogeneousPowerModel.system_power",
    ),
    Target("power.meter_read", "repro.power.meter", "SystemPowerMeter.read"),
    Target(
        "power.estimate_nodes", "repro.power.estimator", "NodePowerEstimator.estimate_nodes"
    ),
    Target("telemetry.collect", "repro.telemetry.collector", "TelemetryCollector.collect"),
    Target("telemetry.validate", "repro.telemetry.integrity", "TelemetryValidator.validate"),
    Target(
        "telemetry.meter_filter", "repro.telemetry.integrity", "MeterIntegrityMonitor.filter"
    ),
    Target("core.control_cycle", "repro.core.manager", "PowerManager.control_cycle"),
    Target("core.decide", "repro.core.capping", "PowerCappingAlgorithm.decide"),
    Target("core.apply", "repro.core.actuator", "DvfsActuator.apply"),
    Target("faults.begin_cycle", "repro.faults.injector", "FaultInjector.begin_cycle"),
    Target("provision.begin_cycle", "repro.provision.runtime", "ProvisionRuntime.begin_cycle"),
    Target("ha.control_cycle", "repro.ha.failover", "HaController.control_cycle"),
    Target("ha.journal_append", "repro.ha.journal", "StateJournal.append"),
    Target("ha.journal_compact", "repro.ha.journal", "StateJournal.compact"),
    Target("metrics.evaluate", "repro.metrics.summary", "RunMetrics.evaluate"),
    Target("experiments.run_sweep", "repro.experiments", "run_sweep"),
    Target("experiments.run_experiment", "repro.experiments.sweep", "run_experiment"),
    Target("experiments.cache_get", "repro.experiments.cache", "ResultCache.get"),
    Target("experiments.cache_put", "repro.experiments.cache", "ResultCache.put"),
    Target(
        "experiments.result_from_dict", "repro.experiments.cache", "result_from_dict"
    ),
    Target(
        "experiments.result_from_dict", "repro.experiments.sweep", "result_from_dict"
    ),
)

#: The distinct span names, in table order.
LAYER_FUNCTIONS: tuple[str, ...] = tuple(dict.fromkeys(t.name for t in TARGETS))

#: Derived per-layer metrics that are not ``<fn>.{calls,s,self_s}``.
DERIVED_METRICS: tuple[tuple[str, str], ...] = (
    ("experiments.training.s", "s"),
    ("experiments.window.s", "s"),
    ("workload.job_steps", "count"),
    ("workload.us_per_job_step", "us"),
    ("core.actuator.effective_ratio", "ratio"),
    ("experiments.cache.hit_ratio", "ratio"),
    ("experiments.cache.bytes_written", "bytes"),
    ("cycle_ms.p50", "ms"),
    ("cycle_ms.p99", "ms"),
    ("cycle_ms.samples", "count"),
    ("trace.overhead", "ratio"),
    ("trace.top_level_share", "ratio"),
)

#: Spans that together make up a rep whose runs execute in this process:
#: the simulated run (the manager/HA cycle counts once, ``core.control_cycle``
#: under ``ha.control_cycle`` being nested) and the cache I/O around it.
TOP_LEVEL: frozenset[str] = frozenset(
    {
        "scheduler.tick",
        "core.control_cycle",
        "ha.control_cycle",
        "metrics.evaluate",
        "experiments.cache_get",
        "experiments.cache_put",
    }
)


def per_layer_metric_names() -> list[tuple[str, str]]:
    """``(name, unit)`` of every per-layer metric, in report order."""
    names: list[tuple[str, str]] = []
    for fn in LAYER_FUNCTIONS:
        names += [(f"{fn}.calls", "count"), (f"{fn}.s", "s"), (f"{fn}.self_s", "s")]
    return names + list(DERIVED_METRICS)


@dataclass
class Span:
    """One traced call (``parent`` is a span index, -1 for a root)."""

    name: str
    start: float
    end: float
    parent: int
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start


#: Hook run after a traced call: ``(tracer, args, kwargs, duration_s)``.
AfterHook = Callable[["Tracer", tuple, dict, float], None]


class _Patch(NamedTuple):
    owner: Any  # class or module
    attr: str
    original: Any  # the raw attribute (function, classmethod, ...)


class Tracer:
    """Records spans around the ``TARGETS`` while installed.

    Use as a context manager: ``with tracer: ...`` installs every
    wrapper and restores the originals on exit, also on error.
    """

    def __init__(
        self,
        targets: Iterable[Target] = TARGETS,
        after: dict[str, AfterHook] | None = None,
    ) -> None:
        self.targets = tuple(targets)
        self.after = dict(after or {})
        self.spans: list[Span | None] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        #: Objects hooks chose to keep until the rep is summarised.
        self.seen: dict[int, Any] = {}
        self.run = 0
        self._stack: list[int] = []
        self._patches: list[_Patch] = []

    # -- installation --------------------------------------------------
    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def install(self) -> None:
        """Wrap every target; a second call is an error."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for target in self.targets:
                self._patch(target)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every original back, last patched first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, target: Target) -> None:
        owner: Any = importlib.import_module(target.module)
        *path, attr = target.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        # The owner's own attribute, so a restore never leaves a copy of
        # an inherited method behind.
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(self._wrap(target.name, raw.__func__))
        elif callable(raw):
            wrapped = self._wrap(target.name, raw)
        else:
            raise TypeError(f"{target.module}.{target.qualname} is not callable")
        self._patches.append(_Patch(owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _wrap(self, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        after = self.after.get(name)

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.run)
                if after is not None:
                    after(self, args, kwargs, end - start)

        return traced

    # -- output --------------------------------------------------------
    def closed_spans(self) -> list[Span]:
        """Every recorded span, indexed as ``Span.parent`` refers to them."""
        spans = [s for s in self.spans if s is not None]
        if len(spans) != len(self.spans):
            raise RuntimeError("a traced call has not returned yet")
        return spans

    def write(self, path: Path) -> None:
        """Write all spans once, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for i, s in enumerate(self.closed_spans()):
                out.write(json.dumps([i, s.run, s.name, s.start, s.end, s.parent]) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: duration minus the union of its children.

    Children are clipped to their parent's interval and merged, so
    overlapping or overhanging children never count twice.
    """
    children: defaultdict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out: list[float] = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for c in sorted(children.get(i, ()), key=lambda k: spans[k].start):
            lo = max(spans[c].start, cursor)
            hi = min(spans[c].end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration - covered)
    return out


def layer_times(spans: list[Span]) -> dict[str, tuple[int, float, float]]:
    """``name -> (calls, total_s, self_s)`` over ``spans``."""
    table: dict[str, list[float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.duration
        row[2] += own
    return {k: (int(v[0]), v[1], v[2]) for k, v in table.items()}


def top_level_seconds(spans: list[Span]) -> float:
    """Time in ``TOP_LEVEL`` spans that have no ``TOP_LEVEL`` ancestor.

    When no simulated run executed in this process (a parallel sweep),
    the ``experiments.run_sweep`` roots stand in for them.
    """
    if not any(s.name == "scheduler.tick" for s in spans):
        return sum(
            s.duration
            for s in spans
            if s.parent < 0 and s.name == "experiments.run_sweep"
        )
    total = 0.0
    for span in spans:
        if span.name not in TOP_LEVEL:
            continue
        p = span.parent
        while p >= 0 and spans[p].name not in TOP_LEVEL:
            p = spans[p].parent
        if p < 0:
            total += span.duration
    return total


def cycle_ms(spans: list[Span]) -> list[float]:
    """Host time per control period, ms: gaps between successive
    ``scheduler.tick`` starts within one simulated run (ticks of one run
    share their parent, the ``experiments.run_experiment`` span)."""
    starts: defaultdict[tuple[int, int], list[float]] = defaultdict(list)
    for span in spans:
        if span.name == "scheduler.tick":
            starts[(span.run, span.parent)].append(span.start)
    gaps: list[float] = []
    for series in starts.values():
        series.sort()
        gaps += [(b - a) * 1e3 for a, b in zip(series, series[1:])]
    return gaps


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method); 0.0 without samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
