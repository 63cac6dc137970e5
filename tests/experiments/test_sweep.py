"""Tests for the deterministic parallel sweep runner.

The two contracts under test:

1. **Parallel equals serial, bit for bit.**  Worker count and cell
   submission order may only affect scheduling; the merged canonical
   JSON must be byte-identical for every ``jobs`` value.
2. **The shared baseline simulates once.**  fig6, fig7 and the
   manager-knob ablations all dedupe onto one normalized unmanaged
   cell; with a shared cache, the whole grid family computes it once.
3. **Each world trains once.**  Cells that differ only in
   ``WINDOW_ONLY_FIELDS`` share one training prefix; the fields listed
   there really are never read before the evaluation window.

Simulations are counted at the window seam (``_run_window``, which
both :func:`run_experiment` and the shared-prefix path go through) and
training prefixes at ``_run_training``.
"""

import random
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.common as common_module
import repro.experiments.sweep as sweep_module
from repro.core.sets import CandidateSelector
from repro.errors import ConfigurationError
from repro.experiments import ExperimentConfig, ResultCache, run_fig6, run_fig7
from repro.experiments.ablations import sweep_steady_green
from repro.experiments.common import _trained_world, run_experiment
from repro.experiments.serialize import canonical_json, result_to_dict
from repro.experiments.sweep import (
    MANAGER_ONLY_FIELDS,
    WINDOW_ONLY_FIELDS,
    SweepCell,
    _plan_tasks,
    baseline_cell,
    baseline_config,
    cell_key,
    run_sweep,
    validate_jobs,
)
from repro.faults import CorruptionScenario, DegradedModeConfig, FaultScenario
from repro.ha import HaConfig
from repro.obs import ObsConfig
from repro.provision import ProvisionScenario
from repro.telemetry import IntegrityConfig, ManagementCostModel
from tests.equivalence.harness import fingerprint

from .test_common import tiny_config

#: Every ``ExperimentConfig`` field the training period may read: the
#: complement of ``WINDOW_ONLY_FIELDS``.  A new field must be added to
#: one list or the other (see ``test_every_field_is_classified``).
WORLD_FIELDS = (
    "seed",
    "num_nodes",
    "control_period_s",
    "runtime_scale",
    "training_duration_s",
    "privileged_nodes",
    "modulation_std",
    "modulation_tau_s",
    "scheduler",
    "priority_choices",
    "obs",
    "engine",
)

#: A non-default value for every window-only field.
WINDOW_OVERRIDES = {
    "candidate_size": 8,
    "candidate_strategy": CandidateSelector.SPREAD_K,
    "steady_green_cycles": 3,
    "margin_high": 0.10,
    "margin_low": 0.22,
    "adjust_every_cycles": 30,
    "cost_model": ManagementCostModel(fixed_ms=7.0),
    "faults": FaultScenario.light(),
    "degraded": DegradedModeConfig(blackout_cycles=2),
    "ha": HaConfig.warm(crash_at_cycles=(10,)),
    "provision": ProvisionScenario.preset("feed-loss"),
    "attach_provision": True,
    "run_duration_s": 60.0,
    "provision_fraction": 0.9,
    "meter_noise_fraction": 0.01,
    "track_thermal": True,
    "corruption": CorruptionScenario.preset("stuck-at"),
    "integrity": IntegrityConfig(),
}


def _count_windows(monkeypatch):
    """Record ``(config, policy)`` of every simulated evaluation window."""
    calls = []
    original = common_module._run_window

    def counting(world, training_peak, config, policy, label=None, factory=None):
        calls.append((config, policy))
        return original(world, training_peak, config, policy, label, factory)

    monkeypatch.setattr(common_module, "_run_window", counting)
    monkeypatch.setattr(sweep_module, "_run_window", counting)
    return calls


def _count_trainings(monkeypatch):
    """Record the config of every simulated training prefix."""
    calls = []
    original = common_module._run_training

    def counting(world):
        calls.append(world.config)
        return original(world)

    monkeypatch.setattr(common_module, "_run_training", counting)
    return calls


def _grid(n_extra_seeds=2):
    """A small fig7-style grid: shared baseline + policies + seeds."""
    config = tiny_config(num_nodes=32, training_duration_s=120.0)
    cells = [baseline_cell(config)]
    cells += [SweepCell(config, policy) for policy in ("mpc", "hri")]
    cells += [
        SweepCell(tiny_config(num_nodes=32, training_duration_s=120.0, seed=s), "bfp")
        for s in range(7, 7 + n_extra_seeds)
    ]
    return cells


# ----------------------------------------------------------------------
# --jobs validation
# ----------------------------------------------------------------------
def test_validate_jobs_defaults_serial():
    assert validate_jobs(None) == 1


@pytest.mark.parametrize("value,expect", [(1, 1), (4, 4), ("2", 2), ("16", 16)])
def test_validate_jobs_accepts_positive_ints(value, expect):
    assert validate_jobs(value) == expect


@pytest.mark.parametrize("bad", [0, -1, -8, "0", "abc", "2.5", 2.5, True, []])
def test_validate_jobs_rejects_non_positive_non_int(bad):
    with pytest.raises(ConfigurationError, match="positive integer"):
        validate_jobs(bad)


# ----------------------------------------------------------------------
# Cell / grid basics
# ----------------------------------------------------------------------
def test_cell_rejects_policy_instances():
    with pytest.raises(ConfigurationError, match="policy"):
        SweepCell(tiny_config(), policy=object())  # type: ignore[arg-type]


def test_empty_grid_rejected():
    with pytest.raises(ConfigurationError, match="empty"):
        run_sweep([])


def test_result_for_unknown_cell_raises():
    cells = [SweepCell(tiny_config(num_nodes=32), "mpc")]
    report = run_sweep(cells)
    with pytest.raises(ConfigurationError, match="not part of this sweep"):
        report.result_for(SweepCell(tiny_config(num_nodes=32, seed=99), "mpc"))


def test_duplicate_cells_collapse(monkeypatch):
    config = tiny_config(num_nodes=32)
    calls = _count_windows(monkeypatch)
    cells = [SweepCell(config, "mpc")] * 3 + [baseline_cell(config)] * 2
    report = run_sweep(cells)
    assert len(calls) == 2
    assert report.stats.cells == 2
    assert report.stats.computed == 2


def test_obs_cells_refuse_parallel_jobs(tmp_path):
    config = tiny_config(
        num_nodes=32,
        obs=ObsConfig(trace=True, trace_path=str(tmp_path / "t.jsonl")),
    )
    cells = [SweepCell(config, "mpc"), SweepCell(config, "hri")]
    with pytest.raises(ConfigurationError, match="observability"):
        run_sweep(cells, jobs=2)
    # Serial is fine: the run stays in-process with live instruments.
    report = run_sweep([SweepCell(config, "mpc")])
    assert report.stats.computed == 1


# ----------------------------------------------------------------------
# Bit-identity: jobs ∈ {1, 2, 4} × shuffled submission order
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serial_merged():
    return run_sweep(_grid(), jobs=1).merged_json()


@settings(max_examples=4, deadline=None)
@given(
    jobs=st.sampled_from((1, 2, 4)),
    order_seed=st.integers(min_value=0, max_value=2**16),
)
def test_merged_json_identical_across_jobs_and_order(
    serial_merged, jobs, order_seed
):
    cells = _grid()
    random.Random(order_seed).shuffle(cells)
    assert run_sweep(cells, jobs=jobs).merged_json() == serial_merged


def test_parallel_report_results_bit_identical_per_cell(serial_merged):
    cells = _grid()
    report = run_sweep(cells, jobs=2)
    assert report.merged_json() == serial_merged
    for cell in cells:
        encoded = canonical_json(result_to_dict(report.result_for(cell)))
        assert encoded in serial_merged


# ----------------------------------------------------------------------
# Shared-baseline normalization and dedup
# ----------------------------------------------------------------------
def test_baseline_config_resets_only_manager_fields():
    config = tiny_config(
        num_nodes=32,
        candidate_size=8,
        margin_high=0.10,
        margin_low=0.22,
        steady_green_cycles=3,
        faults=FaultScenario.light(),
        ha=HaConfig.warm(crash_at_cycles=(10,)),
        cost_model=ManagementCostModel(),
        track_thermal=True,
        scheduler="backfill",
    )
    normalized = baseline_config(config)
    defaults = ExperimentConfig()
    for name in MANAGER_ONLY_FIELDS:
        assert getattr(normalized, name) == getattr(defaults, name), name
    # Simulation-relevant fields survive untouched.
    assert normalized.seed == config.seed
    assert normalized.num_nodes == config.num_nodes
    assert normalized.track_thermal is True
    assert normalized.scheduler == "backfill"


@pytest.mark.parametrize(
    "overrides",
    [
        {"candidate_size": 8, "candidate_strategy": CandidateSelector.SPREAD_K},
        {"margin_high": 0.10, "margin_low": 0.22, "steady_green_cycles": 3},
        {"adjust_every_cycles": 30, "faults": FaultScenario.light()},
        {"ha": HaConfig.warm(crash_at_cycles=(10,))},
    ],
)
def test_manager_only_fields_do_not_affect_unmanaged_runs(overrides):
    """The property behind the shared baseline: an unmanaged run is
    bit-identical under any manager-only override, except for the
    echoed config and the informational threshold fields derived from
    the margins."""
    base = tiny_config(num_nodes=32, training_duration_s=120.0)
    varied = tiny_config(num_nodes=32, training_duration_s=120.0, **overrides)
    r_base = result_to_dict(run_experiment(baseline_config(varied), None))
    r_varied = result_to_dict(run_experiment(varied, None))
    for node in (r_base, r_varied):
        for informational in ("config", "p_low_w", "p_high_w"):
            node["fields"].pop(informational)
    assert canonical_json(r_base) == canonical_json(r_varied)
    # And the normalized cell is literally the same address as the
    # plain config's baseline — that's what makes it shared.
    assert cell_key(baseline_cell(varied)) == cell_key(baseline_cell(base))


def test_baseline_simulates_once_per_grid(monkeypatch, tmp_path):
    """fig6 + fig7 + an ablation against one cache: the shared
    unmanaged baseline is computed exactly once across the family."""
    calls = _count_windows(monkeypatch)
    config = tiny_config(num_nodes=32, training_duration_s=120.0)
    cache = ResultCache(tmp_path)
    run_fig7(config, policies=("mpc",), cache=cache)
    run_fig6(config, sizes=(0, 8), policies=("mpc",), cache=cache)
    sweep_steady_green(config, values=(2, 20), cache=cache)
    baseline_runs = [cfg for cfg, policy in calls if policy is None]
    assert len(baseline_runs) == 1
    # ... and it ran with the normalized (default manager knobs) config.
    assert baseline_runs[0] == baseline_config(config)


def test_cache_round_trip_preserves_merged_bytes(tmp_path):
    cells = _grid(n_extra_seeds=0)
    cache = ResultCache(tmp_path)
    cold = run_sweep(cells, jobs=2, cache=cache)
    warm = run_sweep(cells, jobs=2, cache=cache)
    assert warm.stats.computed == 0
    assert warm.stats.cache_hits == cold.stats.cells
    assert warm.merged_json() == cold.merged_json()


# ----------------------------------------------------------------------
# Shared training prefix: world keys, prefix counts, task planning
# ----------------------------------------------------------------------
def test_every_field_is_classified():
    """Each config field is window-only or a world field, never both:
    a new field fails here until someone decides whether the training
    period reads it."""
    names = {f.name for f in fields(ExperimentConfig)}
    assert set(WINDOW_ONLY_FIELDS).isdisjoint(WORLD_FIELDS)
    assert set(WINDOW_ONLY_FIELDS) | set(WORLD_FIELDS) == names
    assert set(MANAGER_ONLY_FIELDS) <= set(WINDOW_ONLY_FIELDS)
    assert set(WINDOW_OVERRIDES) == set(WINDOW_ONLY_FIELDS)


def _trained_fingerprint(config):
    world, peak = _trained_world(config)
    rng_states = {
        name: gen.bit_generator.state
        for name, gen in world.rng._streams.items()
    }
    return peak, fingerprint((world.now, world.scheduler.finished_jobs, rng_states))


@pytest.mark.parametrize("name", WINDOW_ONLY_FIELDS)
def test_window_only_fields_do_not_affect_the_trained_world(name):
    """The property behind prefix sharing: overriding any window-only
    field leaves the post-training world bit-identical."""
    base = tiny_config(num_nodes=32, training_duration_s=120.0)
    varied = tiny_config(
        num_nodes=32, training_duration_s=120.0, **{name: WINDOW_OVERRIDES[name]}
    )
    assert getattr(varied, name) != getattr(base, name)
    assert _trained_fingerprint(varied) == _trained_fingerprint(base)
    assert sweep_module._world_key(varied) == sweep_module._world_key(base)


def test_fig7_grid_trains_its_world_once(monkeypatch):
    config = tiny_config(num_nodes=32, training_duration_s=120.0)
    trainings = _count_trainings(monkeypatch)
    windows = _count_windows(monkeypatch)
    cells = [baseline_cell(config)]
    cells += [SweepCell(config, policy) for policy in ("mpc", "hri", "bfp", "lpc")]
    report = run_sweep(cells, jobs=1)
    assert len(trainings) == 1
    assert len(windows) == 5
    assert report.stats.computed == 5


def test_obs_cells_each_train_their_own_world(monkeypatch):
    config = tiny_config(num_nodes=32, obs=ObsConfig(metrics=True))
    trainings = _count_trainings(monkeypatch)
    cells = [SweepCell(config, "mpc"), SweepCell(config, "hri")]
    report = run_sweep(cells, jobs=1)
    assert len(trainings) == 2
    for cell in cells:
        assert report.result_for(cell).observability is not None


def test_plan_keeps_parallelism():
    groups = [[f"a{i}" for i in range(5)], ["b0", "b1", "b2", "b3"],
              ["c0", "c1", "c2", "c3"]]
    tasks = _plan_tasks(groups, 4)
    assert [len(task) for task in tasks] == [3, 2, 4, 4]
    assert sorted(key for task in tasks for key in task) == sorted(
        key for group in groups for key in group
    )
    # fig7-sweep: one world per job stream, two workers -> two tasks.
    fig7 = [[f"s0-{p}" for p in range(5)], [f"s1-{p}" for p in range(5)]]
    assert _plan_tasks(fig7, 2) == fig7
    # Never more tasks than cells, never fewer than groups.
    assert len(_plan_tasks([["x", "y"]], 8)) == 2
    assert len(_plan_tasks(groups, 1)) == 3
