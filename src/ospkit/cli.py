"""Command-line front end.

Subcommands:
  schedule    solve one cycle instance from a JSON file
  simulate    run the closed-loop simulation and emit CSV logs
  oracle      cross-check the search against the exhaustive oracle
  timestamps  print the first-observation timetable per observer
  preset      materialize a named scenario config

Exit codes: 0 success, 1 config error, 2 numeric error, 3 oracle mismatch.
Environment: OSPKIT_LOG sets the logging level (e.g. DEBUG, INFO).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import kalman, scheduler, sim
from .config import (
    PRESET_NAMES,
    CSV_FLOAT_FMT,
    format_seq,
    load_config,
    load_instance,
    preset_config,
    write_csv,
)
from .errors import ConfigError, DomainError, NumericError, OspkitError

log = logging.getLogger("ospkit")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_MISMATCH = 3


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ospkit", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("schedule", help="solve one cycle instance from file")
    ps.add_argument("--config", required=True, help="cycle-instance JSON file")
    ps.add_argument("--policy", choices=tuple(scheduler.POLICIES), default="bnb")

    pm = sub.add_parser("simulate", help="run a full simulation to CSV")
    pm.add_argument("--config", required=True)
    pm.add_argument("--policy", choices=tuple(scheduler.POLICIES))
    pm.add_argument("--cycles", type=int)
    pm.add_argument("--seed", type=int)
    pm.add_argument("--out", help="CSV output path (default from config, else stdout)")
    pm.add_argument("--reps", type=int, default=1,
                    help="independent repetitions on consecutive seeds")

    po = sub.add_parser("oracle", help="cross-check search vs exhaustive oracle")
    po.add_argument("--config", required=True)
    po.add_argument("--cycles", type=int)
    po.add_argument("--seed", type=int)

    pt = sub.add_parser("timestamps", help="first-observation timetable")
    pt.add_argument("--config")
    pt.add_argument("-T", "--period", type=float, help="decision period")
    pt.add_argument("--observer-period", type=float, help="observation period")
    pt.add_argument("--cycles", type=int, default=10)

    pp = sub.add_parser("preset", help="emit a named scenario config")
    pp.add_argument("name", choices=PRESET_NAMES)
    pp.add_argument("--out", help="output path (default stdout)")

    return p


def _cmd_schedule(args) -> int:
    model, ctx = load_instance(args.config)
    ev = scheduler.decide(args.policy, ctx, model)
    print(f"policy: {args.policy}")
    print(f"sequence: {format_seq(ev.seq)}")
    print(f"end_of_harvest: {CSV_FLOAT_FMT % ev.end_of_harvest}")
    print(f"budget: {CSV_FLOAT_FMT % ctx.budget}")
    print(f"mse: {CSV_FLOAT_FMT % ev.mse}")
    if ev.forced_empty:
        print("forced_empty: true")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    policy = args.policy or cfg.policy
    cycles = args.cycles if args.cycles is not None else cfg.cycles
    seed = args.seed if args.seed is not None else cfg.channel.seed
    if args.reps < 1:
        raise ConfigError("--reps must be >= 1")
    logs = []
    for rep in range(args.reps):
        channel = dataclasses.replace(cfg.channel, seed=seed + rep)
        logs.extend(sim.run_simulation(
            cfg.model, channel, policy, cycles, initial_cov=cfg.initial_cov()
        ))
    out = args.out or cfg.csv_path
    if out:
        # Opened only after the run, so a failed run writes no CSV.
        try:
            with open(out, "w", newline="\n") as fh:
                write_csv(logs, cfg.model.n_states, fh)
        except OSError as exc:
            raise ConfigError(f"{out}: {exc.strerror or exc}") from None
        log.info("wrote %d rows to %s", len(logs), out)
    else:
        write_csv(logs, cfg.model.n_states, sys.stdout)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    cycles = args.cycles if args.cycles is not None else cfg.cycles
    seed = args.seed if args.seed is not None else cfg.channel.seed
    channel = dataclasses.replace(cfg.channel, seed=seed)
    mismatches = 0
    pipeline = sim.decision_cycles(cfg.model, channel, "bnb", cfg.initial_cov(), cycles)
    for ctx, ev in pipeline:
        ref = scheduler.exhaustive_oracle(ctx, cfg.model)
        rel = abs(ev.mse - ref.mse) / max(abs(ref.mse), 1e-300)
        if ev.seq != ref.seq or rel > 1e-9:
            mismatches += 1
            print(
                f"cycle {ctx.cycle_index}: MISMATCH search={format_seq(ev.seq)} "
                f"mse={ev.mse!r} oracle={format_seq(ref.seq)} mse={ref.mse!r}"
            )
    if mismatches:
        print(f"{mismatches}/{cycles} cycles mismatched")
        return EXIT_MISMATCH
    print(f"oracle agreement on {cycles}/{cycles} cycles")
    return EXIT_OK


def _cmd_timestamps(args) -> int:
    if args.config:
        model = load_config(args.config).model
        T = model.T
        periods = list(enumerate(model.observer_periods))
    elif args.period is not None and args.observer_period is not None:
        T = args.period
        periods = [(0, args.observer_period)]
    else:
        raise ConfigError(
            "timestamps requires --config or both --period and --observer-period"
        )
    try:
        kalman._cycle_index("cycle count", args.cycles)
        rows = [
            (n, k, kalman.first_obs_timestamp(T, T_n, k))
            for n, T_n in periods
            for k in range(1, args.cycles + 1)
        ]
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    print("observer,cycle,timestamp")
    for n, k, t in rows:
        print(f"{n},{k},{'-' if t is None else CSV_FLOAT_FMT % t}")
    return EXIT_OK


def _cmd_preset(args) -> int:
    text = json.dumps(preset_config(args.name), indent=2)
    if args.out:
        try:
            Path(args.out).write_text(text + "\n")
        except OSError as exc:
            raise ConfigError(f"{args.out}: {exc.strerror or exc}") from None
    else:
        print(text)
    return EXIT_OK


_COMMANDS = {
    "schedule": _cmd_schedule,
    "simulate": _cmd_simulate,
    "oracle": _cmd_oracle,
    "timestamps": _cmd_timestamps,
    "preset": _cmd_preset,
}


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        level = os.environ.get("OSPKIT_LOG", "WARNING").upper()
        if not isinstance(logging.getLevelName(level), int):
            raise ConfigError(f"OSPKIT_LOG: unknown level {level!r}")
        logging.basicConfig(level=level)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OspkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
