"""Behaviour pin: simulated outputs change only together with the salt.

``behaviour_pin.json`` stores one :func:`tests.equivalence.harness.fingerprint`
digest per run of a small matrix, together with the
:data:`~repro.experiments.cache.CODE_VERSION` salt they were computed
under.  The matrix is every registered policy on the clean preset, plus
MPC and HRI on each fault preset of the equivalence harness.  Runs use
the vector engine only: vector ≡ object is the equivalence suite's
job; this pin catches changes that move *both* engines at once (a
workload model, a metric, a cached derived quantity), which the
differential suite cannot see.

The test fails in two ways:

* a digest changed but the salt did not — simulation semantics moved,
  so every cached result is now stale.  Bump ``CODE_VERSION`` and
  regenerate the pin;
* the salt changed but no digest did — the pin is stale (or the bump
  was unnecessary).  Regenerate the pin, or revert the bump.

Digests are exact bits, and those depend on more than the code: a
numpy release or a CPU with other SIMD extensions may pick different
floating-point kernels.  The pin therefore stores the environment it
was computed in (numpy's major.minor version, the machine architecture
and the SIMD extensions numpy found) and the test skips, saying so,
wherever that differs — a digest there would differ for reasons that
are not a behaviour change.  Regenerate with::

    PYTHONPATH=src python -m tests.golden.test_behaviour_pin --regenerate
"""

from __future__ import annotations

import argparse
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from repro.core.policies import available_policies
from repro.experiments.cache import CODE_VERSION
from repro.experiments.common import run_experiment
from tests.equivalence.harness import (
    PRESETS,
    fingerprint,
    make_config,
    result_fingerprints,
)

PIN_PATH = Path(__file__).resolve().parent / "behaviour_pin.json"

SEED = 2012
#: Policies run on every fault preset (the clean preset runs them all).
FAULT_POLICIES = ("mpc", "hri")

REGENERATE = "PYTHONPATH=src python -m tests.golden.test_behaviour_pin --regenerate"


def matrix() -> list[tuple[str, str]]:
    """``(preset, policy)`` cells of the pinned matrix, in pin order."""
    cells = [("clean", policy) for policy in available_policies()]
    for preset in sorted(PRESETS):
        if preset != "clean":
            cells.extend((preset, policy) for policy in FAULT_POLICIES)
    return cells


def environment() -> dict[str, object]:
    """What the digests' bits depend on besides the code and the seed."""
    try:
        simd = sorted(np.show_config(mode="dicts")["SIMD Extensions"]["found"])
    except (TypeError, KeyError):  # numpy < 1.26 cannot report it
        simd = None
    return {
        "numpy": ".".join(np.__version__.split(".")[:2]),
        "machine": platform.machine(),
        "simd": simd,
    }


def compute_digests() -> dict[str, str]:
    """``"<preset>/<policy>"`` → digest of every compared result field."""
    digests: dict[str, str] = {}
    for preset, policy in matrix():
        config = make_config("vector", seed=SEED, **PRESETS[preset])
        result = run_experiment(config, policy=policy)
        digests[f"{preset}/{policy}"] = fingerprint(result_fingerprints(result))
    return digests


def pin_problem(pin: dict, digests: dict[str, str], salt: str) -> str | None:
    """Why ``digests`` under ``salt`` disagree with ``pin``; ``None`` if not."""
    changed = [
        name
        for name in sorted(set(digests) | set(pin["digests"]))
        if digests.get(name) != pin["digests"].get(name)
    ]
    if pin["code_version"] == salt:
        if changed:
            return (
                f"simulated behaviour changed under an unchanged CODE_VERSION "
                f"({salt!r}) in {changed}: bump CODE_VERSION in "
                f"repro/experiments/cache.py so stale cache blobs miss, then "
                f"regenerate the pin with `{REGENERATE}`"
            )
        return None
    if not changed:
        return (
            f"stale pin: CODE_VERSION changed ({pin['code_version']!r} -> "
            f"{salt!r}) but no digest did; regenerate the pin with "
            f"`{REGENERATE}` (or revert the unneeded bump)"
        )
    return (
        f"pin predates CODE_VERSION {salt!r} (behaviour changed in "
        f"{changed}); regenerate it with `{REGENERATE}`"
    )


def test_behaviour_pin() -> None:
    pin = json.loads(PIN_PATH.read_text(encoding="utf-8"))
    here = environment()
    if pin["environment"] != here:
        pytest.skip(
            f"pin computed under {pin['environment']}, this is {here}: "
            f"floating-point kernels may differ, so its digests do not apply"
        )
    problem = pin_problem(pin, compute_digests(), CODE_VERSION)
    assert problem is None, problem


def test_pin_problem_classifies_every_case() -> None:
    pin = {"code_version": "v1", "digests": {"clean/mpc": "aa"}}
    assert pin_problem(pin, {"clean/mpc": "aa"}, "v1") is None
    assert "unchanged CODE_VERSION" in str(pin_problem(pin, {"clean/mpc": "bb"}, "v1"))
    assert "stale pin" in str(pin_problem(pin, {"clean/mpc": "aa"}, "v2"))
    assert "predates" in str(pin_problem(pin, {"clean/mpc": "bb"}, "v2"))
    # A cell added to or dropped from the matrix counts as a change.
    assert pin_problem(pin, {"clean/mpc": "aa", "clean/hri": "cc"}, "v1")


def main() -> None:
    parser = argparse.ArgumentParser(description="rewrite the behaviour pin")
    parser.add_argument("--regenerate", action="store_true", required=True)
    parser.parse_args()
    digests = compute_digests()
    payload = {
        "code_version": CODE_VERSION,
        "environment": environment(),
        "seed": SEED,
        "digests": digests,
    }
    PIN_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {PIN_PATH}")


if __name__ == "__main__":
    main()
