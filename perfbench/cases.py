"""Workload table and configs for the ospkit benchmark.

This module imports nothing heavy, so the set-up probe can time
``import ospkit`` from a fresh interpreter after importing it.
"""

from __future__ import annotations

import random

# Reference 3-state plant (the presets' plant): a flexible-link drive with
# a fast actuator mode at -1000 and two coupled slow modes.
PLANT_A = [[-10.0, 1.0, 0.0], [-0.02, -2.0, 156.3], [0.0, 0.0, -1000.0]]
PLANT_B = [[0.0], [0.0], [64.0]]
PLANT_Q = [[1e-2, 0.0, 0.0], [0.0, 1e-2, 0.0], [0.0, 0.0, 1e-2]]
PERIOD = 0.01

# Set to 1 in every process that runs ospkit for the benchmark.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SEARCH_OBSERVERS = 16
SEARCH_MODEL_SEED = 16

# Simulation workloads: (preset, policy, cycles per repetition).  The cycle
# counts are fixed because the cost of a cycle may depend on its index
# (open-horizon grows quadratically), so a repetition always does the same
# work.  ``tiny`` sizes serve the smoke test.
SIM_RUNS = {
    "closed-loop-blackout": [("blackout-6of6-100000", "bnb", 200)],
    "open-horizon": [("unconstrained", "none", 200)],
    "multirate-stream": [("rate-fast", "bnb", 1000), ("rate-slow", "bnb", 500)],
}
TINY_CYCLES = 12

WORKLOADS = (*SIM_RUNS, "search-wide")


def search_model_config() -> dict:
    """Config of the 16-observer search model over the reference plant.

    Observation rows are standard normal and noise variances uniform in
    [1e-3, 1], drawn from a fixed seed, so the model is the same for every
    workload seed; only the instances vary with the seed.
    """
    rng = random.Random(SEARCH_MODEL_SEED)
    n = SEARCH_OBSERVERS
    C = [[rng.gauss(0.0, 1.0) for _ in range(3)] for _ in range(n)]
    R = [[rng.uniform(1e-3, 1.0) if i == j else 0.0 for j in range(n)] for i in range(n)]
    return {
        "model": {
            "A": PLANT_A, "B": PLANT_B, "C": C, "Q": PLANT_Q, "R": R,
            "T": PERIOD, "observer_periods": [PERIOD] * n,
        },
        # The search never reads the channel; load_config requires one.
        "channel": {"seed": 0, "obs_airtime": [[1e-5, 1e-5]] * n, "action_airtime": []},
        "run": {"policy": "bnb"},
    }


def config_dicts(workload: str, ospkit, seed: int) -> list[tuple[str, dict]]:
    """(label, config dict) for each config the workload loads."""
    if workload == "search-wide":
        return [("search-model", search_model_config())]
    out = []
    for preset, policy, _ in SIM_RUNS[workload]:
        data = ospkit.preset_config(preset)
        data["channel"]["seed"] = seed
        data["run"]["policy"] = policy
        out.append((preset, data))
    return out
