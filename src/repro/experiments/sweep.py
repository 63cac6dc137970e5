"""Deterministic parallel experiment orchestration.

The paper's §V.C protocol is an embarrassingly parallel grid — policy ×
seed × candidate size × fault preset — yet every harness used to walk it
one :func:`run_experiment` call at a time in one process.  This module
is the campaign layer: a declarative list of :class:`SweepCell`\\ s is
fanned out over a spawn-context :class:`~concurrent.futures.
ProcessPoolExecutor` and merged under a hard contract:

**The merged output is bit-identical to serial execution, regardless of
worker count or completion order.**

Four design rules make that contract hold:

1. *Cell-keyed randomness.*  Every cell's world is seeded exclusively
   from its own configuration (``RandomSource(seed=config.seed)``
   inside :func:`run_experiment`); nothing about worker identity, pool
   size or host CPU topology (reprolint RL107 bans reading it) ever
   reaches a result.
2. *Canonical ordering.*  Results are keyed and ordered by the cell's
   content address (:func:`repro.experiments.serialize.config_hash`),
   never by completion time.
3. *Normalized transport.*  Results that cross a process boundary or
   the cache travel as canonical JSON; :meth:`SweepReport.merged_json`
   renders every run through the same encoder, so ``jobs=1`` and
   ``jobs=64`` produce the same bytes.
4. *World-keyed prefix sharing.*  The unmanaged training period reads
   only world fields, so pending cells whose configs agree once every
   :data:`WINDOW_ONLY_FIELDS` entry is reset (same *world key*) train
   one world together.  Each member but the last runs its evaluation
   window on a ``copy.deepcopy`` of the trained world, the last on the
   world itself; a fork is bit-identical to re-running the prefix
   because every RNG substream is keyed by name and nothing of the
   window (manager, meter, injector, HA layer) exists before it.  A
   group of one, and every observability-enabled cell (its facade
   records prefix spans), runs plain :func:`run_experiment`.  With
   ``jobs > 1`` the unit of work is a group, split so there are never
   fewer tasks than ``min(jobs, cells)``.

Underneath sits the content-addressed :class:`~repro.experiments.cache.
ResultCache`: identical cells — the unmanaged baseline that Figure 6,
Figure 7 and every ablation share, or an unchanged CI matrix cell — are
simulated once and replayed from disk afterwards.
"""

from __future__ import annotations

import copy
import json
from collections.abc import Iterator
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import MISSING, dataclass, fields, replace
from multiprocessing import get_context

from repro.errors import ConfigurationError
from repro.experiments.cache import CODE_VERSION, ResultCache
from repro.experiments.common import (
    ExperimentConfig,
    ExperimentResult,
    _run_window,
    _trained_world,
    run_experiment,
)
from repro.experiments.serialize import (
    canonical_json,
    config_from_dict,
    config_hash,
    config_to_dict,
    result_from_dict,
    result_to_dict,
)

__all__ = [
    "MANAGER_ONLY_FIELDS",
    "WINDOW_ONLY_FIELDS",
    "SweepCell",
    "SweepReport",
    "SweepStats",
    "baseline_cell",
    "baseline_config",
    "cell_key",
    "run_sweep",
    "validate_jobs",
]

#: Fields of :class:`ExperimentConfig` that are read *only* when a
#: policy is managing the run.  With ``policy=None`` no manager, meter,
#: fault injector, integrity pipeline, HA layer or provision runtime is
#: even constructed (see :func:`run_experiment`), so two unmanaged
#: configs differing only here simulate identically.
#: :func:`baseline_config` resets them to the class defaults, which is
#: what lets one cached baseline cell serve fig6, fig7 and every
#: manager-knob ablation.  ``tests/experiments/test_sweep.py`` holds the
#: property test backing this list; extend it (or this list) whenever a
#: new manager-only field is added.
MANAGER_ONLY_FIELDS: tuple[str, ...] = (
    "candidate_size",
    "candidate_strategy",
    "steady_green_cycles",
    "margin_high",
    "margin_low",
    "adjust_every_cycles",
    "cost_model",
    "faults",
    "degraded",
    "ha",
    "provision",
    "attach_provision",
)

#: Fields of :class:`ExperimentConfig` the training period never reads:
#: every manager-only field plus what only the evaluation window uses.
#: Cells that agree on everything else share one trained world (rule 4
#: above).  A deny-list on purpose: a new field stays in the world key,
#: and so is never shared, until someone classifies it here;
#: ``tests/experiments/test_sweep.py`` fails until every field is either
#: listed here or in its explicit list of world fields.
WINDOW_ONLY_FIELDS: tuple[str, ...] = MANAGER_ONLY_FIELDS + (
    "run_duration_s",
    "provision_fraction",
    "meter_noise_fraction",
    "track_thermal",
    "corruption",
    "integrity",
)


def validate_jobs(jobs: object) -> int:
    """Validate a worker count; friendly errors, default serial.

    ``None`` means "unset" and resolves to serial execution.  Anything
    that is not a positive integer (0, negatives, floats, non-numeric
    strings) raises :class:`ConfigurationError` with the offending
    value, matching the CLI's unknown-preset error UX.
    """
    if jobs is None:
        return 1
    if isinstance(jobs, bool) or not isinstance(jobs, (int, str)):
        raise ConfigurationError(
            f"--jobs must be a positive integer, got {jobs!r}"
        )
    try:
        count = int(jobs)
    except ValueError:
        raise ConfigurationError(
            f"--jobs must be a positive integer, got {jobs!r}"
        ) from None
    if count < 1:
        raise ConfigurationError(
            f"--jobs must be a positive integer, got {jobs!r}"
        )
    return count


@dataclass(frozen=True)
class SweepCell:
    """One cell of a sweep grid: a configuration, a policy, a label.

    Only *names* are accepted for the policy (not policy instances):
    a cell must be fully serializable so it can cross a process
    boundary and address the result cache.
    """

    config: ExperimentConfig
    policy: str | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if self.policy is not None and not isinstance(self.policy, str):
            raise ConfigurationError(
                "sweep cells take policy *names* (or None for the "
                f"unmanaged baseline), got {type(self.policy).__name__}"
            )


def cell_key(cell: SweepCell, *, salt: str = CODE_VERSION) -> str:
    """The cell's content address (also its cache key)."""
    return config_hash(
        cell.config, cell.policy, salt=salt, label=cell.label
    )


def baseline_config(config: ExperimentConfig) -> ExperimentConfig:
    """``config`` normalized for an unmanaged (``policy=None``) run.

    Resets every :data:`MANAGER_ONLY_FIELDS` entry to its class
    default so all baselines that simulate identically also *hash*
    identically.  Note the returned config is what lands in
    ``result.config`` (and in the informational ``p_low_w``/``p_high_w``
    threshold fields, which an unmanaged run derives from the margins):
    a shared baseline reports the default margins, not any particular
    caller's.
    """
    return _reset(config, MANAGER_ONLY_FIELDS)


def _reset(config: ExperimentConfig, names: tuple[str, ...]) -> ExperimentConfig:
    """``config`` with every field in ``names`` at its class default."""
    defaults = {
        f.name: (
            f.default_factory()
            if f.default_factory is not MISSING
            else f.default
        )
        for f in fields(ExperimentConfig)
        if f.name in names
    }
    return replace(config, **defaults)


def _world_key(config: ExperimentConfig) -> str:
    """Content address of the world ``config`` trains (rule 4)."""
    return config_hash(
        _reset(config, WINDOW_ONLY_FIELDS), None, salt=CODE_VERSION
    )


def baseline_cell(config: ExperimentConfig) -> SweepCell:
    """The shared unmanaged-baseline cell for ``config``'s world."""
    return SweepCell(baseline_config(config), policy=None)


@dataclass
class SweepStats:
    """What one :func:`run_sweep` call actually did."""

    cells: int = 0
    computed: int = 0
    cache_hits: int = 0
    #: Cells that ran in worker processes (0 in serial mode).
    parallel: int = 0

    def as_dict(self) -> dict[str, int]:
        """Flat mapping for JSON payloads (CI warm-cache assertions)."""
        return {
            "cells": self.cells,
            "computed": self.computed,
            "cache_hits": self.cache_hits,
            "parallel": self.parallel,
        }


@dataclass(frozen=True)
class SweepReport:
    """The merged outcome of one sweep.

    ``cells`` are the deduplicated grid cells in canonical (cell-key)
    order; ``results`` maps cell key → result.  Lookup by the original
    cell object goes through :meth:`result_for`.
    """

    cells: tuple[SweepCell, ...]
    results: dict[str, ExperimentResult]
    stats: SweepStats
    salt: str = CODE_VERSION

    def result_for(self, cell: SweepCell) -> ExperimentResult:
        """The result of ``cell`` (or its deduplicated twin)."""
        key = cell_key(cell, salt=self.salt)
        if key not in self.results:
            raise ConfigurationError(
                f"cell {cell.policy!r}/{cell.label!r} was not part of this sweep"
            )
        return self.results[key]

    def merged_json(self) -> str:
        """Canonical bytes of the whole sweep, ordered by cell key.

        This is the bit-identity surface: the same grid must render the
        same string for every worker count and submission order.
        """
        merged = [
            {"key": key, "result": result_to_dict(self.results[key])}
            for key in sorted(self.results)
        ]
        return canonical_json(merged)


def _dedup(cells: list[SweepCell], salt: str) -> dict[str, SweepCell]:
    """Key → cell, first occurrence wins; identical cells collapse."""
    unique: dict[str, SweepCell] = {}
    for cell in cells:
        unique.setdefault(cell_key(cell, salt=salt), cell)
    return unique


def _group_by_world(
    pending: list[str], unique: dict[str, SweepCell]
) -> list[list[str]]:
    """Pending cell keys grouped by world key, each group in key order.

    Observability-enabled cells never share: each is a group of one.
    """
    groups: dict[tuple[str, str], list[str]] = {}
    for key in pending:
        config = unique[key].config
        world = (
            ("cell", key) if config.obs.enabled else ("world", _world_key(config))
        )
        groups.setdefault(world, []).append(key)
    return list(groups.values())


def _plan_tasks(groups: list[list[str]], jobs: int) -> list[list[str]]:
    """Units of work for ``jobs`` workers.

    There are ``max(len(groups), min(jobs, cells))`` tasks, so the pool
    keeps as many workers busy as when every cell was its own task:
    while there are too few, the largest task (the first, on ties) is
    split into halves, each of which trains its own world.
    """
    tasks = [list(group) for group in groups]
    target = max(len(tasks), min(jobs, sum(len(task) for task in tasks)))
    while len(tasks) < target:
        largest = max(range(len(tasks)), key=lambda i: len(tasks[i]))
        task = tasks.pop(largest)
        half = (len(task) + 1) // 2
        tasks[largest:largest] = [task[:half], task[half:]]
    return tasks


def _run_group(cells: list[SweepCell]) -> Iterator[ExperimentResult]:
    """Each cell's result, in order, from one shared training prefix.

    The cells must share a world key.  Every member but the last runs
    its window on a ``copy.deepcopy`` of the trained world (taken
    before any window touches it), the last on the world itself.  A
    group of one runs plain :func:`run_experiment`.
    """
    if len(cells) == 1:
        cell = cells[0]
        yield run_experiment(cell.config, cell.policy, label=cell.label)
        return
    world, training_peak = _trained_world(cells[0].config)
    last = len(cells) - 1
    for i, cell in enumerate(cells):
        fork = world if i == last else copy.deepcopy(world)
        yield _run_window(
            fork, training_peak, cell.config, cell.policy, cell.label
        )


def _group_payload(cells: list[SweepCell]) -> str:
    return canonical_json(
        [
            {
                "config": config_to_dict(cell.config),
                "policy": cell.policy,
                "label": cell.label,
            }
            for cell in cells
        ]
    )


def _run_group_json(payload: str) -> list[str]:
    """Worker entry point: decode a group, run it, return one canonical
    JSON per cell, in the group's order.

    Module-level (picklable by the spawn context) and free of any
    worker-local state: the runs are a pure function of the payload, so
    which worker executes them — and in what order — cannot matter.
    """
    cells = [
        SweepCell(config_from_dict(spec["config"]), spec["policy"], spec["label"])
        for spec in json.loads(payload)
    ]
    return [canonical_json(result_to_dict(result)) for result in _run_group(cells)]


def run_sweep(
    cells: list[SweepCell] | tuple[SweepCell, ...],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> SweepReport:
    """Run every cell of a sweep grid; merge deterministically.

    Args:
        cells: The grid.  Identical cells (same config, policy and
            label) are deduplicated and simulated once.
        jobs: Worker-process count; 1 (the default) runs in-process.
            Worker count may only affect scheduling, never results.
        cache: Optional content-addressed result cache; hits skip the
            simulation entirely.

    Returns:
        A :class:`SweepReport` whose merged output is bit-identical to
        the ``jobs=1`` run of the same grid.

    Raises:
        ConfigurationError: on an invalid worker count, or when a cell
            enables observability while ``jobs > 1`` (live instruments
            cannot cross process boundaries, and parallel runs writing
            one trace path would race).
    """
    jobs = validate_jobs(jobs)
    if not cells:
        raise ConfigurationError("empty sweep grid")
    salt = cache.salt if cache is not None else CODE_VERSION
    unique = _dedup(list(cells), salt)
    stats = SweepStats(cells=len(unique))
    results: dict[str, ExperimentResult] = {}

    pending: list[str] = []
    for key in sorted(unique):
        cached = cache.get(key) if cache is not None else None
        if cached is not None:
            results[key] = cached
            stats.cache_hits += 1
        else:
            pending.append(key)

    if jobs > 1:
        for key in pending:
            if unique[key].config.obs.enabled:
                raise ConfigurationError(
                    "observability is enabled on a sweep cell but --jobs "
                    "> 1: live instruments cannot cross process "
                    "boundaries; run serially or disable obs"
                )

    def record(key: str, result: ExperimentResult) -> None:
        results[key] = result
        stats.computed += 1
        if cache is not None:
            cache.put(key, result)

    tasks = _plan_tasks(_group_by_world(pending, unique), jobs)
    if jobs == 1 or len(tasks) <= 1:
        for task in tasks:
            group = [unique[key] for key in task]
            for key, result in zip(task, _run_group(group), strict=True):
                record(key, result)
    else:
        workers = min(jobs, len(tasks))
        context = get_context("spawn")
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=context
        ) as pool:
            futures: dict[Future[list[str]], list[str]] = {
                pool.submit(
                    _run_group_json, _group_payload([unique[key] for key in task])
                ): task
                for task in tasks
            }
            outstanding = set(futures)
            while outstanding:
                done, outstanding = wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                for future in done:
                    task = futures[future]
                    for key, encoded in zip(task, future.result(), strict=True):
                        record(key, result_from_dict(json.loads(encoded)))
                        stats.parallel += 1

    ordered = tuple(unique[key] for key in sorted(unique))
    return SweepReport(cells=ordered, results=results, stats=stats, salt=salt)
