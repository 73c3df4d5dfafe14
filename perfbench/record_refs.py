"""Record the reference outputs the benchmark checks every run against.

usage: PYTHONPATH=src python3 perfbench/record_refs.py [WORKLOAD ...]

Writes ``perfbench/refs/<workload>.json``: per simulated cycle the chosen
``seq`` and ``mse_pred``, and per search instance ``seq`` and ``mse``.
Search references are also checked against ``exhaustive_oracle`` for
every instance with L <= 10.  Run it only on a commit whose outputs are
known good; the committed references come from the commit that
introduced the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import cases

# The same single-threaded numerics as the benchmark's children.
os.environ.update({v: "1" for v in cases.THREAD_VARS})

import ospkit  # noqa: E402

import workload as wl  # noqa: E402

# Seeds recorded per workload.  Simulations whose checked outputs do not
# depend on the seed keep one entry, verified against EXTRA_SEEDS.
BANKS = {
    "closed-loop-blackout": 16,
    "search-wide": 16,
    "open-horizon": 1,
    "multirate-stream": 1,
}
EXTRA_SEEDS = (1, 2)


def outputs(pairs) -> dict:
    pairs = list(pairs)
    return {"seq": [wl.seq_key(s) for s, _ in pairs], "mse": [m for _, m in pairs]}


def sim_entry(workload: str, seed: int, workdir) -> dict:
    paths = wl.write_configs(workload, seed, workdir)
    _, parts = wl.sim_unit(workload, paths, None)
    return {
        preset: outputs((log.seq, log.mse_pred) for log in logs)
        for (preset, _, _), (_, _, logs) in zip(cases.SIM_RUNS[workload], parts)
    }


def search_entry(seed: int, workdir) -> dict:
    (path,) = wl.write_configs("search-wide", seed, workdir)
    model = ospkit.load_config(path).model
    pairs = []
    for block in wl.search_pool(seed, wl.SEARCH_POOL_BLOCKS):
        for ctx in block:
            ev = ospkit.bnb_search(ctx, model)
            if ctx.L <= wl.ORACLE_MAX_L:
                ref = ospkit.exhaustive_oracle(ctx, ospkit.load_config(path).model)
                if ev.seq != ref.seq or abs(ev.mse - ref.mse) > wl.MSE_RTOL * abs(ref.mse):
                    raise SystemExit(f"seed {seed}: search disagrees with the oracle on {ctx}")
            pairs.append((ev.seq, ev.mse))
    return outputs(pairs)


def record(workload: str, workdir) -> dict:
    if workload == "search-wide":
        entries = [search_entry(seed, workdir) for seed in range(BANKS[workload])]
    else:
        entries = [sim_entry(workload, seed, workdir) for seed in range(BANKS[workload])]
        if BANKS[workload] == 1:
            for seed in EXTRA_SEEDS:
                if sim_entry(workload, seed, workdir) != entries[0]:
                    raise SystemExit(f"{workload}: outputs depend on the seed; raise its bank")
    return {"recorded_at": wl.git_commit(), "entries": entries}


def main() -> None:
    workdir = wl.HERE / "_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    wl.REFS.mkdir(exist_ok=True)
    try:
        for workload in sys.argv[1:] or cases.WORKLOADS:
            refs = record(workload, workdir)
            (wl.REFS / f"{workload}.json").write_text(json.dumps(refs, separators=(",", ":")) + "\n")
            print(f"{workload}: {len(refs['entries'])} entries")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
