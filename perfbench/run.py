"""Run one ospkit benchmark workload and print its metrics.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the benchmark uses the ospkit sources under ``src/`` of
the checkout it sits in.  Each workload runs in a fresh child process with
one BLAS/OpenMP thread.  With ``--trace 0`` the last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric of BENCHMARK.json; with ``--trace 1`` it holds every
per-layer metric.  The line before it holds the details: the environment,
sample counts and ``error_ratio``.  Exits non-zero without a result when
the run cannot be made.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from cases import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 30
CHILD_TIMEOUT_S = 140


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(cmd, timeout: float) -> str:
    """Run a child to completion and return its stdout."""
    try:
        out = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[1]} did not finish within {timeout} s")
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        raise BenchError(f"{cmd[1]} exited with code {out.returncode}")
    return out.stdout


def setup_seconds(workload: str, workdir: Path, probes: int) -> list[tuple[float, float]]:
    """(scaled, measured) set-up seconds of each probe."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(workdir)]
    out = []
    for _ in range(probes):
        scaled, measured = run_child(cmd, PROBE_TIMEOUT_S).split()[-2:]
        out.append((float(scaled), float(measured)))
    return out


def measure(args, spec: dict, workdir: Path) -> tuple[dict, dict]:
    """(result line, detail line)."""
    cmd = [
        sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir),
    ] + (["--tiny"] if args.tiny else [])
    setup = [] if args.trace else setup_seconds(args.workload, workdir, 1 if args.tiny else SETUP_PROBES)
    lines = run_child(cmd, CHILD_TIMEOUT_S).strip().splitlines()
    if not lines:
        raise BenchError("workload printed no result")
    child = json.loads(lines[-1])
    values = dict(child["metrics"])
    if setup:
        values["setup_s"] = statistics.median(scaled for scaled, _ in setup)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    if set(values) != set(names):
        raise BenchError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(names) - set(values))}, "
            f"extra {sorted(set(values) - set(names))}"
        )
    attempted, failed = child["attempted"], child["failed"]
    if attempted < 1:
        raise BenchError("no output was checked")
    detail = dict(child["detail"], workload=args.workload, trace=args.trace,
                  error_ratio=failed / attempted,
                  setup_s_unscaled=[measured for _, measured in setup])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return result, detail


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = p.parse_args()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        if not (ROOT / "src" / "ospkit" / "__init__.py").is_file():
            raise BenchError(f"no ospkit sources under {ROOT / 'src'}")
        workdir = HERE / "_work" / str(os.getpid())
        workdir.mkdir(parents=True)
        try:
            result, detail = measure(args, spec, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                workdir.parent.rmdir()
            except OSError:
                pass
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
