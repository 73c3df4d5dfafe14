"""One benchmark workload, run in its own process by ``run.py``.

usage: python3 perfbench/workload.py --workload NAME --seed N --seconds S
                                     --trace 0|1 --workdir DIR [--tiny]

Prints one JSON line: ``attempted``, ``failed``, ``metrics`` and ``detail``.
Every output the program produces is checked against the reference
outputs under ``refs/``; checks and instance generation are never timed.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import ospkit

import cases
import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs"

# Same tolerance as the oracle gate in the test suite.
MSE_RTOL = 1e-9
# Fewest decisions timed in a run, so that the 95th percentile has at
# least ten samples beyond it.
MIN_DECISIONS = 200
# Untraced units timed against the traced one for the tracing overhead.
UNTRACED_UNITS = 3

# search-wide: one block of instances as (L, tight).  Loose node counts
# (2^L - 1) do not depend on the seed, tight ones do.  The weights put the
# median in the middle of the L=8 loose instances (as many instances lie
# below them as above) and the 95th percentile in the middle of the L=12
# loose ones (a tenth of the block), so both percentiles are steady.
_L8 = (8, False)
SEARCH_BLOCK = (
    _L8, (6, False), _L8, (6, True), _L8, (10, False), _L8, (8, True), _L8, (12, False),
    _L8, (10, True), _L8, (10, False), _L8, (12, True), _L8, (12, False), _L8, (10, False),
)
SEARCH_POOL_BLOCKS = 8
TRACE_SEARCH_BLOCKS = 4
ORACLE_MAX_L = 10

# Timed work between two timings of the reference kernel (see speed.py).
CHUNK_S = 0.5


def seq_key(seq) -> str:
    return "+".join(str(i) for i in seq)


class Checker:
    """Counts checked outputs and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def tally(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"output mismatch: {what}", file=sys.stderr)

    def output(self, seq, mse: float, ref: dict, i: int, what: str) -> None:
        """seq must equal the reference exactly, mse within MSE_RTOL."""
        ref_mse = ref["mse"][i]
        self.tally(
            seq_key(seq) == ref["seq"][i]
            and math.isfinite(mse)
            and abs(mse - ref_mse) <= MSE_RTOL * abs(ref_mse),
            f"{what}: seq={seq_key(seq)!r} mse={mse!r} "
            f"ref seq={ref['seq'][i]!r} mse={ref_mse!r}",
        )

    def error(self, outputs: int, what: str) -> None:
        """An exception lost ``outputs`` outputs."""
        traceback.print_exc(file=sys.stderr)
        print(f"exception in {what}", file=sys.stderr)
        self.attempted += outputs
        self.failed += outputs


def load_refs(workload: str, seed: int) -> tuple[int, object]:
    """(input seed, reference entry).  A bank of one entry means the checked
    outputs do not depend on the seed; otherwise inputs are drawn from
    seed mod bank, the seeds the bank covers."""
    refs = json.loads((REFS / f"{workload}.json").read_text())
    bank = len(refs["entries"])
    return (seed % bank if bank > 1 else seed), refs["entries"][seed % bank]


def write_configs(workload: str, seed: int, workdir: Path) -> list[Path]:
    """Write the workload's config JSON files, as a user would, and return
    their paths."""
    paths = []
    for label, data in cases.config_dicts(workload, ospkit, seed):
        paths.append(workdir / f"{label}.json")
        paths[-1].write_text(json.dumps(data))
    return paths


# -- simulation workloads -----------------------------------------------------

def sim_part(path, policy: str, cycles: int):
    """``ospkit simulate`` after set-up for one config: run_simulation plus
    write_csv into a buffer.  Returns (timed seconds, (cfg, policy, logs))."""
    cfg = ospkit.load_config(path)
    t = time.perf_counter()
    logs = ospkit.run_simulation(
        cfg.model, cfg.channel, policy, cycles, initial_cov=cfg.initial_cov()
    )
    ospkit.write_csv(logs, cfg.model.n_states, io.StringIO())
    return time.perf_counter() - t, (cfg, policy, logs)


def sim_unit(workload: str, paths, cycles: int | None):
    """Every config of the workload in turn.  Returns (timed seconds,
    [(cfg, policy, logs)])."""
    wall, parts = 0.0, []
    for (_, policy, K), path in zip(cases.SIM_RUNS[workload], paths):
        seconds, part = sim_part(path, policy, cycles or K)
        wall += seconds
        parts.append(part)
    return wall, parts


def check_logs(parts, ref: dict, workload: str, check: Checker) -> None:
    for (preset, _, _), (_, _, logs) in zip(cases.SIM_RUNS[workload], parts):
        for i, log in enumerate(logs):
            check.output(log.seq, log.mse_pred, ref[preset], i, f"{preset} cycle {log.cycle}")
            check.tally(math.isfinite(log.sq_err), f"{preset} cycle {log.cycle} sq_err")


def decide(policy: str, ctx, model):
    """The executive's decision for one cycle under the policy."""
    if policy == "bnb":
        ev = ospkit.bnb_search(ctx, model)
        return ev.seq, ev.mse
    if policy == "none":
        return (), ospkit.sequence_mse(model, ctx.prior_cov, ctx.t0, (), ctx.cycle_end)[0]
    raise ValueError(f"no decision replay for policy {policy!r}")


def replay_decisions(workload: str, paths, parts, ref: dict, check: Checker):
    """Time the decision of every simulated cycle again, on the cycle's own
    instance and a model whose cache starts cold as the simulation's did.
    Yields (preset, cycle) and the decision's time."""
    for (preset, _, _), path, (cfg, policy, logs) in zip(cases.SIM_RUNS[workload], paths, parts):
        model = ospkit.load_config(path).model
        for i, log in enumerate(logs):
            ctx = ospkit.CycleContext(
                candidates=log.candidates,
                action_airtimes=tuple(ospkit.sample_airtimes(cfg.channel, log.cycle)[1]),
                T=model.T,
                cycle_index=log.cycle,
                t0=log.t0,
                prior_cov=log.prior_cov,
            )
            t = time.perf_counter()
            seq, mse = decide(policy, ctx, model)
            yield (preset, log.cycle), time.perf_counter() - t
            check.output(seq, mse, ref[preset], i, f"{preset} decision {log.cycle}")


def sim_events(workload: str, paths, ref: dict, cycles: int | None, check: Checker):
    """Forever, per repetition: ("cycles", n, seconds) for each config,
    then ("decision", seconds, (preset, cycle)) for each replayed decision,
    then ("end", True): a repetition is a whole user run."""
    runs = cases.SIM_RUNS[workload]
    total = sum(cycles or K for _, _, K in runs)
    while True:
        parts = []
        try:
            for (_, policy, K), path in zip(runs, paths):
                seconds, part = sim_part(path, policy, cycles or K)
                parts.append(part)
                yield ("cycles", cycles or K, seconds)
        except Exception:
            check.error(2 * total, "simulation")
            yield ("end", False)
            continue
        check_logs(parts, ref, workload, check)
        try:
            for key, seconds in replay_decisions(workload, paths, parts, ref, check):
                yield ("decision", seconds, key)
        except Exception:
            check.error(total, "decision replay")
        yield ("end", True)


# -- search-wide --------------------------------------------------------------

def search_instance(rng, L: int, tight: bool):
    """One instance shaped like ``random_context`` in tests/conftest.py:
    sorted in-cycle timestamps, distinct observers, 0-2 actions of
    U(0, 0.15 T) airtime each.

    Tight: timestamps across the whole cycle and airtimes U(0.05, 0.4) T, so
    only a few candidates fit.  Loose: timestamps in the first 60% of the
    cycle and airtimes U(0.002, 0.005) T; even at L=12 the whole set ends
    by 0.66 T while the budget is at least 0.7 T, so every subset fits.
    """
    T = cases.PERIOD
    k = int(rng.integers(1, 50))
    lo = (k - 1) * T
    width, air = (1.0, (0.05, 0.4)) if tight else (0.6, (0.002, 0.005))
    ts = np.sort(rng.uniform(lo, lo + width * T, size=L))
    observers = rng.choice(cases.SEARCH_OBSERVERS, size=L, replace=False)
    order = np.lexsort((observers, ts))
    cands = tuple(
        ospkit.Candidate(float(ts[i]), float(rng.uniform(*air) * T), int(observers[i]))
        for i in order
    )
    actions = tuple(
        float(a) for a in rng.uniform(0.0, 0.15 * T, size=int(rng.integers(0, 3)))
    )
    return ospkit.CycleContext(
        candidates=cands, action_airtimes=actions, T=T, cycle_index=k,
        t0=float(lo), prior_cov=np.eye(3),
    )


def search_pool(seed: int, blocks: int) -> list[list]:
    rng = np.random.default_rng(seed)
    return [[search_instance(rng, L, tight) for L, tight in SEARCH_BLOCK] for _ in range(blocks)]


def is_loose(ctx) -> bool:
    return ospkit.is_schedulable(tuple(range(ctx.L)), ctx)


def search_events(pool, path, ref: dict, check: Checker):
    """Forever, per pool block: ("decision", seconds, None) for each instance,
    then ("end", last block of the pool).  Each pass over the pool starts
    with a cold model, as one executive deciding the whole pool."""
    for n in itertools.count():
        b = n % len(pool)
        if b == 0:
            model = ospkit.load_config(path).model
        for j, ctx in enumerate(pool[b]):
            i = b * len(SEARCH_BLOCK) + j
            try:
                t = time.perf_counter()
                ev = ospkit.bnb_search(ctx, model)
                seconds = time.perf_counter() - t
            except Exception:
                check.error(1, f"search instance {i}")
                continue
            yield ("decision", seconds, None)
            check.output(ev.seq, ev.mse, ref, i, f"search instance {i}")
        yield ("end", b == len(pool) - 1)


def oracle_cross_check(pool, path, check) -> int:
    """bnb_search against exhaustive_oracle on the first block's instances
    with L <= ORACLE_MAX_L.  Returns how many were compared."""
    compared = 0
    for ctx in pool[0]:
        if ctx.L > ORACLE_MAX_L:
            continue
        ev = ospkit.bnb_search(ctx, ospkit.load_config(path).model)
        ref = ospkit.exhaustive_oracle(ctx, ospkit.load_config(path).model)
        check.tally(
            ev.seq == ref.seq and abs(ev.mse - ref.mse) <= MSE_RTOL * abs(ref.mse),
            f"oracle L={ctx.L}: search {ev.seq} {ev.mse!r}, oracle {ref.seq} {ref.mse!r}",
        )
        compared += 1
    return compared


# -- environment and entry point ----------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, input_seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "threads": {v: os.environ.get(v) for v in cases.THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
        "input_seed": input_seed,
    }


def timed_events(events, seconds: float, min_decisions: int) -> dict:
    """Consume timing events until ``seconds`` have passed, ``min_decisions``
    decisions were timed and a whole user run ended (or ``3 * seconds``
    have passed when failures keep that from happening), stopping only at
    an "end".  The peak RSS is taken when the first whole user run ends,
    so it does not depend on how much work the run's time allowed.

    The reference kernel is timed whenever about CHUNK_S of work has been
    timed, and at each "end"; the times in between are scaled by the mean
    of the two reference times around them (see speed.py).
    """
    out: dict = {key: [] for key in ("scales", "samples", "raw_samples")}
    out.update(cycles=0, cycle_s=0.0, raw_cycle_s=0.0)
    pending_cycles: list[tuple[int, float]] = []
    pending_times: list[tuple[object, float]] = []
    start = time.perf_counter()
    before = speed.reference_seconds()
    for kind, *value in events:
        if kind == "cycles":
            pending_cycles.append(tuple(value))
        elif kind == "decision":
            pending_times.append((value[1], value[0]))
        work = sum(t for _, t in pending_cycles + pending_times)
        if work < CHUNK_S and kind != "end":
            continue
        after = speed.reference_seconds()
        scale = speed.scale(before, after)
        before = after
        out["scales"].append(scale)
        for n, t in pending_cycles:
            out["cycles"] += n
            out["cycle_s"] += t * scale
            out["raw_cycle_s"] += t
        out["samples"] += [(key, t * scale) for key, t in pending_times]
        out["raw_samples"] += pending_times
        pending_cycles, pending_times = [], []
        if kind != "end":
            continue
        if value[0] and "peak_rss_mb" not in out:
            out["peak_rss_mb"] = peak_rss_mb()
        elapsed = time.perf_counter() - start
        enough = len(decision_times(out["samples"])) >= min_decisions and "peak_rss_mb" in out
        if elapsed >= seconds and (enough or elapsed >= 3 * seconds):
            out.setdefault("peak_rss_mb", peak_rss_mb())
            return out


def decision_times(samples) -> list[float]:
    """One time per decision: a keyed decision (a simulated cycle, replayed
    once per repetition) counts as the median of its timings, so that a
    host slowdown during a few repetitions does not reach the tail."""
    keyed: dict = {}
    out = []
    for key, t in samples:
        if key is None:
            out.append(t)
        else:
            keyed.setdefault(key, []).append(t)
    return out + [statistics.median(ts) for ts in keyed.values()]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summary(count: int, count_s: float, samples) -> dict[str, float]:
    return {
        "cycles_per_s": count / count_s if count_s else 0.0,
        "decision_ms_p50": spans.percentile(samples, 50) * 1e3,
        "decision_ms_p95": spans.percentile(samples, 95) * 1e3,
    }


def measure(args, check: Checker) -> tuple[dict, dict]:
    """Untraced run: the end-to-end metrics except setup_s."""
    input_seed, ref = load_refs(args.workload, args.seed)
    paths = write_configs(args.workload, input_seed, args.workdir)
    detail: dict = {"env": environment(args.seed, input_seed)}
    if args.workload == "search-wide":
        pool = search_pool(input_seed, 1 if args.tiny else SEARCH_POOL_BLOCKS)
        detail["oracle_checked"] = oracle_cross_check(pool, paths[0], check)
        events = search_events(pool, paths[0], ref, check)
    else:
        cycles = cases.TINY_CYCLES if args.tiny else None
        events = sim_events(args.workload, paths, ref, cycles, check)
    runs = timed_events(events, args.seconds, 1 if args.tiny else MIN_DECISIONS)
    samples = decision_times(runs["samples"])
    raw = decision_times(runs["raw_samples"])
    if args.workload == "search-wide":
        # A decision is the unit of work: decisions per second.
        metrics = summary(len(samples), sum(samples), samples)
        unscaled = summary(len(raw), sum(raw), raw)
    else:
        metrics = summary(runs["cycles"], runs["cycle_s"], samples)
        unscaled = summary(runs["cycles"], runs["raw_cycle_s"], raw)
    p95 = metrics["decision_ms_p95"] / 1e3
    detail.update(
        cycles=runs["cycles"],
        decision_samples=len(samples),
        decision_timings=len(runs["samples"]),
        decision_samples_beyond_p95=sum(1 for t in samples if t > p95),
        host_scale_median=statistics.median(runs["scales"]),
        host_scale_range=[min(runs["scales"]), max(runs["scales"])],
        unscaled=unscaled,
    )
    metrics["peak_rss_mb"] = runs["peak_rss_mb"]
    return metrics, detail


def trace(args, check: Checker) -> tuple[dict, dict]:
    """Traced run: the per-layer metrics of one fixed unit of work (set-up
    plus one repetition, or TRACE_SEARCH_BLOCKS search blocks), so every
    count repeats exactly for a seed; timings of untraced units of the
    same work give the tracing overhead."""
    input_seed, ref = load_refs(args.workload, args.seed)
    search = args.workload == "search-wide"
    blocks = 1 if args.tiny else TRACE_SEARCH_BLOCKS
    cycles = cases.TINY_CYCLES if args.tiny else None
    pool = search_pool(input_seed, blocks) if search else None

    def unit(paths) -> float:
        if search:
            total, ends = 0.0, 0
            for kind, *value in search_events(pool, paths[0], ref, check):
                if kind == "decision":
                    total += value[0]
                elif kind == "end":
                    ends += 1
                    if ends == blocks:
                        return total
        wall, parts = sim_unit(args.workload, paths, cycles)
        check_logs(parts, ref, args.workload, check)
        return wall

    paths = write_configs(args.workload, input_seed, args.workdir)
    untraced = [unit(paths) for _ in range(UNTRACED_UNITS)]
    with spans.Tracer() as tracer:
        paths = write_configs(args.workload, input_seed, args.workdir)
        traced = unit(paths)
    metrics = spans.layer_metrics(tracer.spans, is_loose)
    metrics["trace.overhead_ratio"] = traced / statistics.median(untraced)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    span_file = out / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write(span_file)
    detail = {
        "env": environment(args.seed, input_seed),
        "spans": len(tracer.spans),
        "span_file": str(span_file.relative_to(ROOT)),
        "untraced_s": untraced,
        "traced_s": traced,
        "missing_functions": tracer.missing,
    }
    return metrics, detail


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = p.parse_args()
    src = (ROOT / "src").resolve()
    if src not in Path(ospkit.__file__).resolve().parents:
        sys.exit(f"ospkit was imported from {ospkit.__file__}, not from {src}")
    check = Checker()
    metrics, detail = (trace if args.trace else measure)(args, check)
    print(json.dumps({
        "attempted": check.attempted, "failed": check.failed,
        "metrics": metrics, "detail": detail,
    }))


if __name__ == "__main__":
    main()
