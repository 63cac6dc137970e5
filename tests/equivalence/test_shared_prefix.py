"""Differential test: a window run on a forked trained world ≡ a fresh run.

:func:`repro.experiments.sweep.run_sweep` trains each world once and
runs every cell of that world on a ``copy.deepcopy`` of it (rule 4 of
the sweep module).  The oracle is the slow path: a standalone
:func:`run_experiment` per cell, prefix and all.  Every cell's canonical
JSON must be byte-identical between the two, serially and across
worker processes.

The matrix is the behaviour pin's (every registered policy on the
clean preset, MPC and HRI on each fault preset), which differs only in
window-only fields and so forms one world, plus:

* a world with several priority classes, running ``sla`` (whose
  ``priority_of`` must bind to the *forked* generator) and ``random``
  (which draws from the ``policy.random`` stream), each twice under
  two labels so at least one of each runs on a fork;
* one defended run with faults, corruption, integrity, provision and
  HA all on, a thermal tracker, meter noise and a shorter window.
"""

from __future__ import annotations

import pytest

import repro.experiments.common as common_module
from repro.core.policies import available_policies
from repro.experiments.common import run_experiment
from repro.experiments.serialize import canonical_json, result_to_dict
from repro.experiments.sweep import SweepCell, run_sweep
from repro.faults import CorruptionScenario, FaultScenario
from repro.ha import HaConfig
from repro.provision import ProvisionScenario
from repro.telemetry import IntegrityConfig
from tests.equivalence.harness import PRESETS, make_config

#: Policies run on every fault preset (as in the behaviour pin).
FAULT_POLICIES = ("mpc", "hri")


def _cells() -> list[SweepCell]:
    cells = [
        SweepCell(make_config("vector", **PRESETS["clean"]), policy)
        for policy in available_policies()
    ]
    for preset in sorted(PRESETS):
        if preset != "clean":
            config = make_config("vector", **PRESETS[preset])
            cells.extend(SweepCell(config, policy) for policy in FAULT_POLICIES)
    cells.append(
        SweepCell(
            make_config(
                "vector",
                run_s=200.0,
                faults=FaultScenario(meter_outage_rate=0.05, telemetry_dropout=0.05),
                corruption=CorruptionScenario.preset("stuck-at"),
                integrity=IntegrityConfig(),
                provision=ProvisionScenario.preset("breaker-stress"),
                attach_provision=True,
                ha=HaConfig.warm(crash_at_cycles=(40,)),
                track_thermal=True,
                meter_noise_fraction=0.01,
            ),
            "hri",
            label="defended",
        )
    )
    prioritized = make_config("vector", priority_choices=(0, 1, 2))
    for policy in ("sla", "random"):
        cells.append(SweepCell(prioritized, policy))
        cells.append(SweepCell(prioritized, policy, label=f"{policy}-fork"))
    return cells


def _encoded(result) -> str:
    return canonical_json(result_to_dict(result))


@pytest.fixture(scope="module")
def fresh() -> list[str]:
    """The oracle: one standalone run per cell, in ``_cells()`` order."""
    return [
        _encoded(run_experiment(cell.config, cell.policy, label=cell.label))
        for cell in _cells()
    ]


@pytest.mark.parametrize("jobs", (1, 2))
def test_forked_cells_match_fresh_runs(fresh, jobs, monkeypatch):
    trainings = []
    original = common_module._run_training

    def counting(world):
        trainings.append(world.config)
        return original(world)

    monkeypatch.setattr(common_module, "_run_training", counting)
    cells = _cells()
    report = run_sweep(cells, jobs=jobs)
    diverged = [
        f"{cell.policy}/{cell.label}"
        for cell, oracle in zip(cells, fresh, strict=True)
        if _encoded(report.result_for(cell)) != oracle
    ]
    assert diverged == [], f"forked runs diverged from fresh runs: {diverged}"
    if jobs == 1:
        # Guard on the test itself: the grid really took the shared
        # path, one world for the pin matrix and one for the priority
        # world (workers train out of this process's sight).
        assert len(trainings) == 2
