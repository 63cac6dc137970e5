"""Property-based seed sweep: random seeds × run lengths × policies.

Hypothesis drives the harness over a much wider slice of configuration
space than the fixed preset matrix — any divergence between the engines
on any seeded world is a failing example with a minimal reproduction.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MetricError
from repro.experiments.common import run_experiment
from tests.equivalence.harness import (
    PRESETS,
    assert_results_equal,
    make_config,
    run_pair,
)

#: Policies spanning every engine kernel mix: power-ranked (mpc/lpc),
#: savings-ranked (bfp), increase-rate (hri), stochastic and priority.
_POLICIES = ("mpc", "lpc", "bfp", "mpc-c", "hri", "random", "sla")


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    policy=st.sampled_from(_POLICIES),
    run_s=st.sampled_from([150.0, 240.0, 330.0]),
    num_nodes=st.sampled_from([24, 32]),
)
def test_engines_identical_over_random_worlds(
    seed: int, policy: str, run_s: float, num_nodes: int
) -> None:
    world = dict(run_s=run_s, num_nodes=num_nodes, training_s=120.0)
    try:
        vector, obj = run_pair(policy=policy, seed=seed, preset="clean", **world)
    except MetricError:
        # A short world in which no job finishes has no metrics (the
        # vector run raised); the object engine must fail the same way.
        config = make_config("object", seed=seed, **{**PRESETS["clean"], **world})
        with pytest.raises(MetricError):
            run_experiment(config, policy=policy)
        return
    assert_results_equal(
        vector, obj, context=f"seed={seed} policy={policy} run={run_s}"
    )


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    preset=st.sampled_from(["meter-outage", "corruption"]),
)
def test_engines_identical_under_random_fault_seeds(seed: int, preset: str) -> None:
    vector, obj = run_pair(policy="bfp", seed=seed, preset=preset)
    assert_results_equal(vector, obj, context=f"seed={seed} preset={preset}")
