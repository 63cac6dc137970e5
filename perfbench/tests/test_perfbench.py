"""Tests of the benchmark itself: tracer arithmetic, patch hygiene,
metric names, and that every workload emits every metric it names.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import io
import json
import re
import sys
from contextlib import redirect_stdout
from multiprocessing import resource_tracker
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _p in (ROOT, ROOT / "src"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

from perfbench import run, tracing, workloads  # noqa: E402
from perfbench.tracing import Span, Target, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _tree() -> list[Span]:
    #  root [0, 10]
    #  ├── a [1, 4]
    #  └── b [5, 9]
    #      └── c [6, 7]
    return [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("c", 6.0, 7.0, 2, 0),
    ]


def test_self_time_subtracts_children() -> None:
    assert tracing.self_times(_tree()) == [3.0, 3.0, 3.0, 1.0]


def test_self_time_clips_and_merges_overlapping_children() -> None:
    spans = [
        Span("p", 0.0, 10.0, -1, 0),
        Span("x", 2.0, 6.0, 0, 0),
        Span("y", 4.0, 8.0, 0, 0),  # overlaps x: union is [2, 8]
        Span("z", 9.0, 12.0, 0, 0),  # overhangs the parent: clipped to [9, 10]
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_layer_times_aggregates_by_name() -> None:
    spans = _tree() + [Span("a", 11.0, 12.0, -1, 1)]
    table = tracing.layer_times(spans)
    assert table["a"] == (2, 4.0, 4.0)
    assert table["root"] == (1, 10.0, 3.0)


def test_top_level_counts_outermost_only() -> None:
    spans = [
        Span("experiments.run_sweep", 0.0, 10.0, -1, 0),
        Span("scheduler.tick", 0.0, 2.0, 0, 0),
        Span("ha.control_cycle", 2.0, 6.0, 0, 0),
        Span("core.control_cycle", 2.5, 5.5, 2, 0),  # nested: not counted
        Span("metrics.evaluate", 9.0, 9.5, 0, 0),
        Span("experiments.cache_put", 9.5, 9.8, 0, 0),
        Span("experiments.result_from_dict", 9.6, 9.7, 5, 0),  # nested
    ]
    assert tracing.top_level_seconds(spans) == pytest.approx(6.8)
    parallel = [Span("experiments.run_sweep", 0.0, 4.0, -1, 0)]
    assert tracing.top_level_seconds(parallel) == pytest.approx(4.0)


def test_cycle_gaps_are_per_simulated_run() -> None:
    spans = [Span("experiments.run_experiment", 0.0, 1.0, -1, 0),
             Span("experiments.run_experiment", 2.0, 3.0, -1, 0)]
    spans += [Span("scheduler.tick", t, t + 0.001, parent, 0) for parent, t in
              [(0, 0.0), (0, 0.002), (0, 0.005), (1, 2.0), (1, 2.004)]]
    assert tracing.cycle_ms(spans) == pytest.approx([2.0, 3.0, 4.0])


def _raw(target: Target) -> object:
    owner = importlib.import_module(target.module)
    *path, attr = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner)[attr]


def test_wrappers_are_installed_and_restored() -> None:
    before = [_raw(t) for t in tracing.TARGETS]
    tracer = Tracer()
    with tracer:
        assert all(_raw(t) is not b for t, b in zip(tracing.TARGETS, before))
    assert all(_raw(t) is b for t, b in zip(tracing.TARGETS, before))


def test_wrappers_are_restored_when_the_traced_code_raises() -> None:
    before = [_raw(t) for t in tracing.TARGETS]
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert all(_raw(t) is b for t, b in zip(tracing.TARGETS, before))


def test_a_classmethod_stays_a_classmethod_and_spans_nest() -> None:
    from repro.errors import MetricError
    from repro.metrics.summary import RunMetrics

    tracer = Tracer([Target("metrics.evaluate", "repro.metrics.summary",
                            "RunMetrics.evaluate")])
    with tracer:
        assert isinstance(vars(RunMetrics)["evaluate"], classmethod)
        with pytest.raises(MetricError):  # no finished jobs
            RunMetrics.evaluate("x", None, None, [], 1.0)
    spans = tracer.closed_spans()
    assert [s.name for s in spans] == ["metrics.evaluate"]
    assert spans[0].parent == -1 and spans[0].end >= spans[0].start


def test_every_metric_name_is_well_formed() -> None:
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [n for n, _ in run.END_TO_END] + [n for n, _ in
                                               tracing.per_layer_metric_names()]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names
                                                   if not NAME.fullmatch(n)]
    assert len(set(n for n, _ in tracing.per_layer_metric_names())) == len(
        tracing.per_layer_metric_names())


def test_benchmark_json_matches_the_code() -> None:
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == (
        tracing.per_layer_metric_names())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_emits_every_metric(
    name: str, trace: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    build = workloads.build
    monkeypatch.setattr(
        workloads, "build", lambda n, seed, shrunk=False: build(n, seed, shrunk=True)
    )
    monkeypatch.setattr(workloads, "WARM_BUDGET_S", 0.0)
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(["--workload", name, "--seed", "7", "--seconds", "0",
                         "--trace", str(trace)]) == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    # The spawn pool's helper process is stopped and waited for.
    assert resource_tracker._resource_tracker._pid is None
