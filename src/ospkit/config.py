"""Experiment configuration: the two JSON documents, named scenario presets,
and CSV log output.

A config file (``load_config``) is a single JSON object with four blocks::

    {
      "model":   {"A": [[..]], "B": [[..]], "C": [[..]], "Q": [[..]],
                  "R": [[..]], "T": 0.01, "observer_periods": [..]},
      "channel": {"seed": 0,
                  "obs_airtime": [[lo, hi], ..],     # one pair per observer
                  "action_airtime": [[lo, hi], ..]}  # one pair per action
                  # or instead of the two distributions:
                  # "trace_path": "airtimes.txt"
      "run":     {"policy": "bnb", "cycles": 100, "initial_cov_scale": 1.0},
      "output":  {"csv": "out.csv"}                  # optional
    }

A cycle-instance file (``load_instance``, for ``ospkit schedule``) has the
same ``model`` block and one decision cycle::

    {"model": {..},
     "instance": {"candidates": [[timestamp, airtime, observer], ..],
                  "action_airtimes": [..], "cycle_index": 1, "t0": 0.0,
                  "prior_cov": [[..]]}}              # or "prior_cov_scale"

``_FIELDS`` lists each block's string fields and number fields, and how
deeply a number field nests its numbers: 0 for a scalar such as ``T``, 1
for a list such as ``observer_periods``, 2 for a matrix, the airtime
ranges and the candidate triples.  ``_check_document`` checks either
document against it first: a top-level key that names no block of either
document, a key its block does not list, a list where a number belongs, a
number where a list belongs, or a leaf of the wrong kind (in a number
field, a JSON boolean, string or null) is a ConfigError naming its JSON
path.

A trace file has one line per cycle, blank lines skipped, so trace row k is
the k-th non-blank line: comma-separated observer airtimes, then the action
airtimes, every line as wide as the first.  ``SystemModel``,
``ChannelConfig`` and ``CycleContext`` check the values.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError
from .kalman import _cycle_index
from .model import SystemModel, check_covariance
from .scheduler import Candidate, CycleContext, _check_instance, _policy_rule
from .sim import ChannelConfig, CycleLog

__all__ = [
    "ExperimentConfig",
    "load_config",
    "load_instance",
    "parse_config_dict",
    "preset_config",
    "PRESET_NAMES",
    "write_csv",
    "CSV_FLOAT_FMT",
]

SIGMA0_SQ = 1e-2  # low observation-noise variance
SIGMA1_SQ = 1.0   # high (blacked-out) observation-noise variance

CSV_FLOAT_FMT = "%.17g"


@dataclass(frozen=True)
class ExperimentConfig:
    model: SystemModel
    channel: ChannelConfig
    policy: str
    cycles: int
    initial_cov_scale: float
    csv_path: str | None = None

    def initial_cov(self) -> np.ndarray:
        return self.initial_cov_scale * np.eye(self.model.n_states)


def _read_trace(path: Path) -> tuple[tuple[float, ...], ...]:
    """Parse a trace file's non-blank lines; every line must have the first
    one's width.  Ranges are ``ChannelConfig``'s to check."""
    rows = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            vals = tuple(float(v) for v in line.split(","))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: unparseable airtime: {exc}")
        if rows and len(vals) != len(rows[0]):
            raise ConfigError(
                f"{path}:{lineno}: expected {len(rows[0])} airtimes, as on the "
                f"first line, got {len(vals)}"
            )
        rows.append(vals)
    if not rows:
        raise ConfigError(f"{path}: trace file is empty")
    return tuple(rows)


def _trace_bounds(trace, lo_col: int, hi_col: int):
    """Per-column (min, max) of trace columns; fills ChannelConfig's
    distribution slots when sampling is bypassed by the trace."""
    cols = np.asarray(trace)[:, lo_col:hi_col]
    return tuple((float(c.min()), float(c.max())) for c in cols.T)


# A number field is marked by the depth of its numbers in nested lists.
_STRING = "a string"
_FIELDS = {
    "model": {"A": 2, "B": 2, "C": 2, "Q": 2, "R": 2, "T": 0, "observer_periods": 1},
    "channel": {"seed": 0, "obs_airtime": 2, "action_airtime": 2, "trace_path": _STRING},
    "run": {"policy": _STRING, "cycles": 0, "initial_cov_scale": 0, "preset": _STRING},
    "output": {"csv": _STRING},
    "instance": {"candidates": 2, "action_airtimes": 1, "cycle_index": 0, "t0": 0,
                 "prior_cov": 2, "prior_cov_scale": 0},
}


def _leaf_errors(path: str, value, kind):
    """Messages for the parts of ``value`` that are not of ``kind``: a
    string, or numbers nested ``kind`` lists deep."""
    if kind == _STRING:
        if not isinstance(value, str):
            yield f"{path}: expected a string, got {json.dumps(value, default=repr)}"
    elif isinstance(value, list):
        if kind == 0:
            yield f"{path}: expected a number, got a list"
        else:
            for i, v in enumerate(value):
                yield from _leaf_errors(f"{path}[{i}]", v, kind - 1)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        yield f"{path}: expected a number, got {json.dumps(value, default=repr)}"
    elif kind > 0:
        yield f"{path}: expected a list, got {json.dumps(value)}"


def _check_document(data: dict, required: tuple, optional: tuple = ()) -> None:
    """One ConfigError listing each top-level key that names no block, each
    of the blocks that is missing or not an object, each key its block does
    not list and each value of the wrong kind."""
    errors = [f"{key}: unknown block; the blocks are " + ", ".join(_FIELDS)
              for key in data if key not in _FIELDS]
    for block in required + optional:
        fields = data.get(block)
        if not isinstance(fields, dict):
            if block in data or block in required:
                errors.append(f"{block}: missing or not an object")
            continue
        for key, value in fields.items():
            kind = _FIELDS[block].get(key)
            if kind is None:
                errors.append(f"{block}.{key}: unknown key; {block} takes "
                              + ", ".join(_FIELDS[block]))
            else:
                errors.extend(_leaf_errors(f"{block}.{key}", value, kind))
    if errors:
        raise ConfigError("\n".join(errors))


def parse_model(mb: dict) -> SystemModel:
    """Build a checked ``model`` block; raises ConfigError on the first problem."""
    missing = [f for f in _FIELDS["model"] if f not in mb]
    if missing:
        raise ConfigError("model: missing fields: " + ", ".join(missing))
    try:
        return SystemModel(**mb)
    except Exception as exc:
        raise ConfigError(f"model: {exc}")


def parse_config_dict(data: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """Validate a parsed JSON object into an ExperimentConfig.

    ``_check_document`` runs first; then every violation it can find is
    collected before raising a single :class:`ConfigError` listing them all.
    """
    _check_document(data, ("model", "channel", "run"), ("output",))
    errors: list[str] = []
    base_dir = base_dir or Path.cwd()

    model = None
    try:
        model = parse_model(data["model"])
    except ConfigError as exc:
        errors.append(str(exc))

    cb = data["channel"]
    channel = None
    seed = cb.get("seed", 0)
    has_dists = "obs_airtime" in cb or "action_airtime" in cb
    has_trace = "trace_path" in cb
    if has_dists == has_trace:
        errors.append(
            "channel: exactly one of {obs_airtime/action_airtime, trace_path} required"
        )
    elif model is not None:
        try:
            n_obs = model.n_observers
            if has_trace:
                trace = _read_trace((base_dir / cb["trace_path"]).resolve())
                channel = ChannelConfig(
                    obs_airtime=_trace_bounds(trace, 0, n_obs),
                    action_airtime=_trace_bounds(trace, n_obs, None),
                    seed=seed,
                    trace=trace,
                )
            else:
                channel = ChannelConfig(
                    obs_airtime=tuple(tuple(p) for p in cb.get("obs_airtime", ())),
                    action_airtime=tuple(tuple(p) for p in cb.get("action_airtime", ())),
                    seed=seed,
                )
            if len(channel.obs_airtime) != n_obs:
                errors.append(
                    f"channel: model has {n_obs} observers, channel has airtimes "
                    f"for {len(channel.obs_airtime)}"
                )
        except ConfigError as exc:
            errors.append(str(exc))
        except Exception as exc:
            errors.append(f"channel: {exc}")

    rb = data["run"]
    policy = rb.get("policy", "bnb")
    try:
        _policy_rule(policy)
    except ConfigError as exc:
        errors.append(f"run.policy: {exc}")
    cycles = rb.get("cycles", 100)
    try:
        _cycle_index("cycle count", cycles)
    except DomainError as exc:
        errors.append(f"run.cycles: {exc}")
        cycles = 1
    scale = rb.get("initial_cov_scale", 1.0)
    if not (isinstance(scale, (int, float)) and scale > 0):
        errors.append(f"run.initial_cov_scale: must be a number > 0, got {scale!r}")
        scale = 1.0

    if errors:
        raise ConfigError("\n".join(errors))
    return ExperimentConfig(
        model=model,
        channel=channel,
        policy=policy,
        cycles=cycles,
        initial_cov_scale=float(scale),
        csv_path=data.get("output", {}).get("csv"),
    )


def read_json_object(path) -> dict:
    """Read a JSON file whose top level must be an object."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}")
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return data


def load_config(path) -> ExperimentConfig:
    """Load and validate a JSON experiment config file."""
    return parse_config_dict(read_json_object(path), base_dir=Path(path).parent)


def load_instance(path) -> tuple[SystemModel, CycleContext]:
    """A checked cycle-instance file: the model and the cycle it poses.

    ``prior_cov`` is checked in full (``check_covariance``), and the cycle
    against the model by ``scheduler._check_instance``, the check every
    policy makes; a failure is a ConfigError naming the file."""
    data = read_json_object(path)
    _check_document(data, ("model", "instance"))
    model = parse_model(data["model"])
    inst = data["instance"]
    S = model.n_states
    try:
        scale = float(inst.get("prior_cov_scale", 1.0))
        prior_cov = check_covariance("prior_cov", inst.get("prior_cov", scale * np.eye(S)), S)
        ctx = CycleContext(
            candidates=tuple(
                Candidate(float(t), float(a), operator.index(n))
                for t, a, n in inst["candidates"]
            ),
            action_airtimes=inst.get("action_airtimes", ()),
            T=model.T,
            cycle_index=inst.get("cycle_index", 1),
            t0=float(inst["t0"]) if "t0" in inst else None,
            prior_cov=prior_cov,
        )
        _check_instance(ctx, model)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed instance: {type(exc).__name__}: {exc}")
    return model, ctx


# -- named scenario presets --------------------------------------------------

_A = [[-10.0, 1.0, 0.0], [-0.02, -2.0, 156.3], [0.0, 0.0, -1000.0]]
_B = [[0.0], [0.0], [64.0]]
_Q = [[1e-2, 0.0, 0.0], [0.0, 1e-2, 0.0], [0.0, 0.0, 1e-2]]
_T = 0.01

# Six observers, consecutive pairs identical (observers are pairwise
# correlated).
_C1 = [
    [1.0, 0.0, 0.0],
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
    [0.0, 0.0, 1.0],
]
_C2 = [
    [-0.684, 0.763, 0.144],
    [-0.684, 0.763, 0.144],
    [0.504, 0.765, 0.532],
    [0.504, 0.765, 0.532],
    [2.180, -0.554, -0.632],
    [2.180, -0.554, -0.632],
]


def _r_from_bitstring(bits: str) -> list[list[float]]:
    """Diagonal R: bit '1' marks a blacked-out (high-noise) observer."""
    n = len(bits)
    R = [[0.0] * n for _ in range(n)]
    for i, b in enumerate(bits):
        R[i][i] = SIGMA1_SQ if b == "1" else SIGMA0_SQ
    return R


def _scenario(C, R, periods, obs_airtime, action_airtime, cycles: int) -> dict:
    """Preset skeleton over the shared plant (_A, _B, _Q, _T)."""
    return {
        "model": {
            "A": _A, "B": _B, "C": C, "Q": _Q, "R": R, "T": _T,
            "observer_periods": periods,
        },
        "channel": {"seed": 0, "obs_airtime": obs_airtime, "action_airtime": action_airtime},
        "run": {"policy": "bnb", "cycles": cycles, "initial_cov_scale": 1.0},
    }


def _single_observer_rate(period: float) -> dict:
    return _scenario([_C2[0]], [[SIGMA0_SQ]], [period], [[1e-4, 2e-4]], [[1e-4, 2e-4]], 200)


def _blackout(bits: str) -> dict:
    # Airtimes tuned so four of the six observations fit in a typical cycle.
    # C2 is used because its rows excite every state; under C1 the third
    # state's -1000 eigenvalue makes observers 4/5 carry almost no boundary
    # MSE, and a noisy duplicate of another direction would beat them.
    return _scenario(
        _C2, _r_from_bitstring(bits), [_T] * 6,
        [[1.0e-3, 1.2e-3]] * 6, [[4.95e-3, 5.05e-3]], 100,
    )


def _unconstrained() -> dict:
    return _scenario(
        _C1, _r_from_bitstring("000000"), [_T] * 6, [[1e-4, 2e-4]] * 6, [[1e-4, 2e-4]], 100
    )


def _baseline(kind: str) -> dict:
    # Three observers; the third duplicates the second's row with far less
    # noise.  In the "diff" variant the airtimes make (1, 2) exhaust the
    # budget so greedy settles for (1, 2) while the optimum is (1, 3); the
    # "same" variant leaves room for everything.
    if kind == "diff":
        obs_air = [[2.0e-3, 2.0e-3], [3.0e-3, 3.0e-3], [3.5e-3, 3.5e-3]]
        act_air = [[4.0e-3, 4.0e-3]]
    else:
        obs_air = [[1e-4, 1e-4], [1e-4, 1e-4], [1e-4, 1e-4]]
        act_air = [[1e-4, 1e-4]]
    return _scenario(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]],
        [[SIGMA0_SQ, 0.0, 0.0], [0.0, SIGMA1_SQ, 0.0], [0.0, 0.0, 1e-4]],
        [_T] * 3, obs_air, act_air, 50,
    )


_PRESETS = {
    "rate-fast": lambda: _single_observer_rate(0.003),
    "rate-slow": lambda: _single_observer_rate(0.053),
    "blackout-6of6-100000": lambda: _blackout("100000"),
    "blackout-6of6-001000": lambda: _blackout("001000"),
    "blackout-6of6-000010": lambda: _blackout("000010"),
    "unconstrained": _unconstrained,
    "baseline-compare-diff": lambda: _baseline("diff"),
    "baseline-compare-same": lambda: _baseline("same"),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_config(name: str) -> dict:
    """JSON-serializable config dict for a named scenario."""
    if name not in _PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    data = _PRESETS[name]()
    data["run"]["preset"] = name
    return data


# -- CSV output ---------------------------------------------------------------

def _fmt(x: float) -> str:
    return CSV_FLOAT_FMT % x


def format_seq(seq) -> str:
    """Candidate indices joined by '+', 1-based; '-' for the empty sequence."""
    return "+".join(str(i + 1) for i in seq) if seq else "-"


def write_csv(logs: list[CycleLog], n_states: int, fh) -> None:
    """Write cycle logs in the fixed CSV schema (LF endings, 17 significant
    digits)."""
    header = ["cycle", "policy", "seq", "d", "budget", "mse_pred", "sq_err",
              "nodes_visited"]
    header += [f"x{i}" for i in range(n_states)]
    header += [f"xhat{i}" for i in range(n_states)]
    fh.write(",".join(header) + "\n")
    for log in logs:
        row = [
            str(log.cycle),
            log.policy,
            format_seq(log.seq),
            _fmt(log.end_of_harvest),
            _fmt(log.budget),
            _fmt(log.mse_pred),
            _fmt(log.sq_err),
            str(log.nodes_visited),
        ]
        row += [CSV_FLOAT_FMT % v for v in log.true_state.tolist()]
        row += [CSV_FLOAT_FMT % v for v in log.est_state.tolist()]
        fh.write(",".join(row) + "\n")
