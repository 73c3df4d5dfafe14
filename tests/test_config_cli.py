"""Config parsing, preset round-trips, CSV schema, and CLI behavior
(subcommands, output format, exit codes)."""
from __future__ import annotations

import io
import json

import numpy as np
import pytest

from ospkit import ConfigError, run_simulation, sim
from ospkit.cli import EXIT_CONFIG, run_cli
from ospkit.config import (
    PRESET_NAMES,
    format_seq,
    load_config,
    parse_config_dict,
    preset_config,
    write_csv,
)


BASELINE_MODEL = preset_config("baseline-compare-diff")["model"]


def minimal_config_dict():
    return {
        "model": {
            "A": [[0.0]],
            "B": [[1.0]],
            "C": [[1.0]],
            "Q": [[0.01]],
            "R": [[0.01]],
            "T": 0.01,
            "observer_periods": [0.01],
        },
        "channel": {
            "obs_airtime": [[1e-4, 2e-4]],
            "action_airtime": [],
            "seed": 0,
        },
        "run": {"policy": "bnb", "cycles": 5, "initial_cov_scale": 1.0},
    }


class TestConfigParsing:
    def test_minimal_round_trip(self):
        cfg = parse_config_dict(minimal_config_dict())
        assert cfg.policy == "bnb" and cfg.cycles == 5
        assert cfg.model.n_states == 1 and cfg.model.n_observers == 1
        np.testing.assert_array_equal(cfg.initial_cov(), np.eye(1))

    def test_collects_all_violations(self):
        d = minimal_config_dict()
        d["model"]["T"] = -1.0
        d["run"]["policy"] = "psychic"
        with pytest.raises(ConfigError) as err:
            parse_config_dict(d)
        msg = str(err.value)
        assert "T" in msg and "policy" in msg

    def test_run_policy_and_cycles_name_their_rules(self):
        # Each message is the rule's own, under its JSON path, and both are
        # listed at once.
        d = minimal_config_dict()
        d["run"]["policy"] = "psychic"
        d["run"]["cycles"] = 2.5
        with pytest.raises(ConfigError) as err:
            parse_config_dict(d)
        assert str(err.value).splitlines() == [
            "run.policy: unknown policy 'psychic'; expected one of "
            "('bnb', 'greedy', 'all', 'none')",
            "run.cycles: cycle count must be an integer >= 1, got 2.5",
        ]

    def test_rejects_wrong_C_width(self):
        d = minimal_config_dict()
        d["model"]["C"] = [[1.0, 0.0]]
        with pytest.raises(ConfigError) as err:
            parse_config_dict(d)
        assert "C" in str(err.value)

    def test_rejects_nondiagonal_R(self):
        d = minimal_config_dict()
        d["model"]["C"] = [[1.0], [1.0]]
        d["model"]["R"] = [[0.01, 0.005], [0.005, 0.01]]
        d["model"]["observer_periods"] = [0.01, 0.01]
        d["channel"]["obs_airtime"] = [[1e-4, 2e-4]] * 2
        with pytest.raises(ConfigError) as err:
            parse_config_dict(d)
        assert "diagonal" in str(err.value)

    def test_json_error_carries_location(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"model": \n}')
        with pytest.raises(ConfigError) as err:
            load_config(p)
        assert ":2:" in str(err.value)  # path:line:col prefix

    def test_trace_file_channel(self, tmp_path):
        trace = tmp_path / "chan.csv"
        trace.write_text("1.5e-4,1.2e-3\n1.8e-4,1.9e-3\n")
        d = minimal_config_dict()
        d["channel"] = {"trace_path": trace.name, "seed": 0}
        cfg = parse_config_dict(d, base_dir=tmp_path)
        obs, act = sim.sample_airtimes(cfg.channel, 2)
        assert obs[0] == 1.8e-4 and act[0] == 1.9e-3

    def test_trace_with_zero_action_airtime_simulates(self, tmp_path):
        trace = tmp_path / "chan.csv"
        trace.write_text("1.5e-4,0\n1.8e-4,4e-3\n")
        d = minimal_config_dict()
        d["channel"] = {"trace_path": trace.name, "seed": 0}
        cfg = parse_config_dict(d, base_dir=tmp_path)
        assert cfg.channel.action_airtime == ((0.0, 4e-3),)
        logs = run_simulation(cfg.model, cfg.channel, cfg.policy, 2)
        assert [log.budget for log in logs] == [0.01, 0.01 - 4e-3]

    def test_trace_width_sets_the_actions(self, tmp_path):
        # One observer, so the second column is the one action airtime,
        # whatever the model's agent count (two here).
        trace = tmp_path / "chan.csv"
        trace.write_text("1.5e-4,1.2e-3\n1.8e-4,1.9e-3\n")
        d = minimal_config_dict()
        d["model"]["B"] = [[1.0, 0.5]]
        d["channel"] = {"trace_path": trace.name}
        cfg = parse_config_dict(d, base_dir=tmp_path)
        assert cfg.channel.action_airtime == ((1.2e-3, 1.9e-3),)
        logs = run_simulation(cfg.model, cfg.channel, cfg.policy, 2)
        assert [log.budget for log in logs] == [0.01 - 1.2e-3, 0.01 - 1.9e-3]

    @pytest.mark.parametrize(
        "text, match",
        [("1.5e-4,1.2e-3,1e-3\n1.8e-4,1.9e-3\n", r"chan\.csv:2: expected 3 airtimes"),
         ("1.5e-4\n1.8e-4\n", "model has 2 observers, channel has airtimes for 1"),
         ("\n\n", "trace file is empty"),
         ("1.5e-4,1.2e-3,1e-3\n\n1.8e-4,x,1e-3\n", r"chan\.csv:3: unparseable")],
        ids=["ragged", "narrower-than-observers", "empty", "unparseable"],
    )
    def test_malformed_trace_file(self, tmp_path, text, match):
        (tmp_path / "chan.csv").write_text(text)
        d = minimal_config_dict()
        d["model"].update(C=[[1.0], [1.0]], R=[[0.01, 0.0], [0.0, 0.01]],
                          observer_periods=[0.01, 0.01])
        d["channel"] = {"trace_path": "chan.csv"}
        with pytest.raises(ConfigError, match=match):
            parse_config_dict(d, base_dir=tmp_path)

    # A JSON boolean, string or null where a number belongs; Python would
    # read a boolean as 0 or 1.
    @pytest.mark.parametrize(
        "block, key, value",
        [("run", "cycles", True), ("channel", "seed", False), ("run", "cycles", "5"),
         ("channel", "seed", None)],
    )
    def test_rejects_bool_for_integer(self, block, key, value):
        d = minimal_config_dict()
        d[block][key] = value
        with pytest.raises(ConfigError) as err:
            parse_config_dict(d)
        assert str(err.value) == f"{block}.{key}: expected a number, got {json.dumps(value)}"

    @pytest.mark.parametrize(
        "block, key, value, message",
        [("model", "T", True, "model.T: expected a number, got true"),
         ("model", "observer_periods", [True], "model.observer_periods[0]: expected a number, got true"),
         ("run", "initial_cov_scale", True, "run.initial_cov_scale: expected a number, got true"),
         ("model", "A", [[True]], "model.A[0][0]: expected a number, got true"),
         ("model", "R", [[True]], "model.R[0][0]: expected a number, got true"),
         ("channel", "obs_airtime", [[True, True]],
          "channel.obs_airtime[0][0]: expected a number, got true\n"
          "channel.obs_airtime[0][1]: expected a number, got true"),
         ("channel", "action_airtime", [[1e-4, None]],
          "channel.action_airtime[0][1]: expected a number, got null"),
         ("model", "A", [["-1"]], 'model.A[0][0]: expected a number, got "-1"'),
         ("model", "T", "0.01", 'model.T: expected a number, got "0.01"'),
         ("model", "observer_periods", ["0.01"],
          'model.observer_periods[0]: expected a number, got "0.01"'),
         ("channel", "action_airtime", "0", 'channel.action_airtime: expected a number, got "0"'),
         ("run", "initial_cov_scale", {"x": 1},
          'run.initial_cov_scale: expected a number, got {"x": 1}'),
         ("model", "T", [0.01], "model.T: expected a number, got a list"),
         ("channel", "obs_airtime", [1e-4, 2e-4],
          "channel.obs_airtime[0]: expected a list, got 0.0001\n"
          "channel.obs_airtime[1]: expected a list, got 0.0002"),
         ("model", "A", 0.0, "model.A: expected a list, got 0.0"),
         ("model", "observer_periods", [[0.01]],
          "model.observer_periods[0]: expected a number, got a list"),
         ("channel", "seed", [0], "channel.seed: expected a number, got a list")],
        ids=["T", "observer_periods", "initial_cov_scale", "A-leaf", "R-leaf",
             "obs-airtime-pair", "action-airtime-null", "A-string", "T-string",
             "period-string", "action-airtime-string", "scale-object", "T-list",
             "obs-airtime-flat", "A-scalar", "period-nested", "seed-list"],
    )
    def test_rejects_bool_for_number(self, block, key, value, message):
        d = minimal_config_dict()
        d[block][key] = value
        with pytest.raises(ConfigError) as err:
            parse_config_dict(d)
        assert str(err.value) == message

    def test_rejects_unknown_keys(self):
        # Every unknown key and every bad leaf, in one error.
        d = minimal_config_dict()
        d["run"] = {"polcy": "greedy", "cycle": 5}
        d["channel"]["sed"] = 3
        d["output"] = {"csv": 1}
        with pytest.raises(ConfigError) as err:
            parse_config_dict(d)
        assert str(err.value).split("\n") == [
            "channel.sed: unknown key; channel takes seed, obs_airtime, action_airtime, "
            "trace_path",
            "run.polcy: unknown key; run takes policy, cycles, initial_cov_scale, preset",
            "run.cycle: unknown key; run takes policy, cycles, initial_cov_scale, preset",
            "output.csv: expected a string, got 1",
        ]

    def test_channel_requires_one_source(self):
        d = minimal_config_dict()
        d["channel"]["trace_path"] = "whatever.csv"
        with pytest.raises(ConfigError):
            parse_config_dict(d)


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_all_presets_parse_and_run(self, name):
        cfg = parse_config_dict(preset_config(name))
        logs = run_simulation(
            cfg.model, cfg.channel, cfg.policy, 3, initial_cov=cfg.initial_cov()
        )
        assert len(logs) == 3

    def test_preset_round_trip_is_bit_exact(self):
        d = preset_config("blackout-6of6-100000")
        cfg = parse_config_dict(d)
        d2 = preset_config("blackout-6of6-100000")
        cfg2 = parse_config_dict(json.loads(json.dumps(d2)))
        np.testing.assert_array_equal(cfg.model.A, cfg2.model.A)
        np.testing.assert_array_equal(cfg.model.R, cfg2.model.R)

    def test_blackout_marks_first_observer(self):
        cfg = parse_config_dict(preset_config("blackout-6of6-100000"))
        R = np.diag(cfg.model.R)
        assert R[0] == pytest.approx(1.0)
        assert all(r == pytest.approx(1e-2) for r in R[1:])

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("definitely-not-a-preset")


class TestCsv:
    def test_format_seq(self):
        assert format_seq(()) == "-"
        assert format_seq((0, 2, 3)) == "1+3+4"

    def test_schema(self):
        cfg = parse_config_dict(preset_config("baseline-compare-diff"))
        logs = run_simulation(cfg.model, cfg.channel, "bnb", 3)
        buf = io.StringIO()
        write_csv(logs, cfg.model.n_states, buf)
        lines = buf.getvalue().split("\n")
        header = lines[0].split(",")
        assert header[:9] == [
            "cycle",
            "policy",
            "seq",
            "d",
            "budget",
            "mse_pred",
            "sq_err",
            "nodes_visited",
            "x0",
        ]
        assert header[-1] == "xhat2" and len(header) == 8 + 6
        assert len([ln for ln in lines if ln]) == 4
        row = lines[1].split(",")
        assert row[0] == "1" and row[1] == "bnb"
        # Floats round-trip through the %.17g format.
        assert float(row[5]) == logs[0].mse_pred


class TestCli:
    def test_timestamps_table(self, capsys):
        assert run_cli(["timestamps", "-T", "0.01", "--observer-period", "0.003", "--cycles", "3"]) == 0
        rows = capsys.readouterr().out.strip().split("\n")
        assert rows[0] == "observer,cycle,timestamp"
        got = [(int(r.split(",")[1]), float(r.split(",")[2])) for r in rows[1:]]
        assert got == [(1, 0.0), (2, pytest.approx(0.012)), (3, pytest.approx(0.021))]

    def test_timestamps_absent_cycle(self, capsys):
        assert run_cli(["timestamps", "-T", "0.01", "--observer-period", "0.025", "--cycles", "3"]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert rows[0].endswith(",-") and rows[1].endswith(",-")
        assert float(rows[2].split(",")[2]) == pytest.approx(0.025)

    def test_preset_emits_loadable_json(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert run_cli(["preset", "rate-fast", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["run"]["preset"] == "rate-fast"
        assert load_config(out).model.observer_periods == (0.003,)

    def test_schedule_solves_instance(self, tmp_path, capsys):
        d = preset_config("baseline-compare-diff")
        inst = {
            "model": d["model"],
            "instance": {
                "candidates": [[0.0, 0.002, 0], [0.0, 0.003, 1], [0.0, 0.0035, 2]],
                "action_airtimes": [0.004],
                "cycle_index": 1,
                "t0": 0.0,
                "prior_cov_scale": 1.0,
            },
        }
        p = tmp_path / "inst.json"
        p.write_text(json.dumps(inst))
        assert run_cli(["schedule", "--config", str(p), "--policy", "bnb"]) == 0
        out = capsys.readouterr().out
        assert "sequence: 1+3" in out
        assert run_cli(["schedule", "--config", str(p), "--policy", "greedy"]) == 0
        assert "sequence: 1+2" in capsys.readouterr().out
        assert run_cli(["schedule", "--config", str(p), "--policy", "all"]) == 0
        assert "sequence: 1+2+3" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "doc",
        [
            {"instance": {"candidates": [[0.0, 0.002, 0]]}},
            [1, 2],
            {"model": BASELINE_MODEL, "instance": {"action_airtimes": [0.004]}},
            {"model": BASELINE_MODEL, "instance": {"candidates": [[0.0, 0.002]]}},
            {"model": BASELINE_MODEL, "instance": {"candidates": [[0.0, 0.002, 3]]}},
            {
                "model": BASELINE_MODEL,
                "instance": {"candidates": [[0.0, 0.002, 0]], "prior_cov": [[1.0]]},
            },
            {
                "model": BASELINE_MODEL,
                "instance": {"candidates": [[0.0, 0.002, 0]], "action_airtimes": ["x"]},
            },
            {
                "model": BASELINE_MODEL,
                "instance": {
                    "candidates": [[0.0, 0.002, 0]],
                    "prior_cov": [[float("nan"), 0, 0], [0, 1, 0], [0, 0, 1]],
                },
            },
            {
                "model": BASELINE_MODEL,
                "instance": {
                    "candidates": [[0.0, 0.002, 0]],
                    "prior_cov": [[1, 0.5, 0], [0, 1, 0], [0, 0, 1]],
                },
            },
            {
                "model": BASELINE_MODEL,
                "instance": {
                    "candidates": [[0.0, 0.002, 0]],
                    "prior_cov": [[-5, 0, 0], [0, 1, 0], [0, 0, 1]],
                },
            },
            # json.dumps writes inf and nan as Infinity and NaN, which
            # json.loads reads back, as it reads 1e400 as inf.
            {"model": BASELINE_MODEL, "instance": {"candidates": [[0.0, float("inf"), 0]]}},
            {"model": BASELINE_MODEL, "instance": {"candidates": [[float("nan"), 0.002, 0]]}},
            {"model": BASELINE_MODEL, "instance": {"candidates": [[float("inf"), 0.002, 0]]}},
            {
                "model": BASELINE_MODEL,
                "instance": {"candidates": [[0.0, 0.002, 0]], "action_airtimes": [float("inf")]},
            },
            {
                "model": BASELINE_MODEL,
                "instance": {"candidates": [[0.0, 0.002, 0]], "action_airtimes": [float("nan")]},
            },
            {
                "model": BASELINE_MODEL,
                "instance": {"candidates": [[0.0, 0.002, 0]], "t0": float("nan")},
            },
            {"model": BASELINE_MODEL, "instance": {"candidates": [[0.5, 0.002, 0]]}},
            # A candidate inside cycle 2, so that truncating to cycle 2 would
            # solve the instance.
            {
                "model": BASELINE_MODEL,
                "instance": {"candidates": [[0.0175, 0.002, 0]], "cycle_index": 2.7},
            },
            {
                "model": BASELINE_MODEL,
                "instance": {"candidates": [[0.005, 0.002, 0]], "cycle_index": True},
            },
        ],
        ids=[
            "no-model", "top-level-array", "no-candidates", "two-field-candidate",
            "observer-out-of-range", "prior-cov-shape", "non-numeric-action-airtime",
            "prior-cov-non-finite", "prior-cov-asymmetric", "prior-cov-not-psd",
            "airtime-inf", "timestamp-nan", "timestamp-inf", "action-airtime-inf",
            "action-airtime-nan", "t0-nan", "timestamp-after-cycle-end",
            "cycle-index-fractional", "cycle-index-bool",
        ],
    )
    def test_schedule_malformed_instance_is_config_error(self, tmp_path, capsys, doc):
        p = tmp_path / "inst.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["schedule", "--config", str(p)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    def test_schedule_string_cycle_index_names_the_rule(self, tmp_path, capsys):
        # Without t0 the anchor defaults to the cycle start, which must not
        # be computed from a cycle index that is not yet checked.
        doc = {
            "model": BASELINE_MODEL,
            "instance": {"candidates": [[0.015, 0.002, 0]], "cycle_index": "2"},
        }
        p = tmp_path / "inst.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["schedule", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err == 'config error: instance.cycle_index: expected a number, got "2"\n'

    @pytest.mark.parametrize(
        "block, value",
        [("output", "x.csv"), ("run", {"policy": ["bnb"]})],
        ids=["output-not-object", "policy-not-string"],
    )
    def test_malformed_config_is_config_error(self, tmp_path, capsys, block, value):
        d = minimal_config_dict()
        d[block] = value
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(d))
        assert run_cli(["simulate", "--config", str(p)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(f"config error: {block}")

    def test_infinite_airtime_bound_is_config_error(self, tmp_path, capsys):
        # JSON reads 1e400 as inf, which the uniform draw cannot take.
        text = json.dumps(minimal_config_dict()).replace("0.0002", "1e400")
        assert "1e400" in text
        p = tmp_path / "cfg.json"
        p.write_text(text)
        assert run_cli(["simulate", "--config", str(p)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "config error: obs airtime bounds must satisfy 0 < lo <= hi < inf, "
            "got (0.0001, inf)\n"
        )

    def test_infinite_trace_airtime_is_config_error(self, tmp_path, capsys):
        # An action airtime of inf made the budget -inf in the CSV.
        # A blank line is skipped, so the bad value is row 2, cycle 2's.
        (tmp_path / "chan.csv").write_text("1.5e-4,1.2e-3\n\n1.8e-4,inf\n")
        d = minimal_config_dict()
        d["channel"] = {"trace_path": "chan.csv"}
        d["run"]["cycles"] = 2
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(d))
        out = tmp_path / "run.csv"
        assert run_cli(["simulate", "--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: trace row 2: need 2 finite airtimes")
        assert not out.exists()

    @pytest.mark.parametrize("field", ["T", "observer_periods"])
    @pytest.mark.parametrize("command", ["simulate", "schedule", "timestamps"])
    def test_infinite_period_is_config_error(self, tmp_path, capsys, command, field):
        # Infinite periods used to reach a NaN timetable: a traceback from
        # simulate, and "t0 must be finite, got nan" from schedule.
        d = preset_config("baseline-compare-diff")
        if field == "T":
            d["model"]["T"] = float("inf")
        else:
            d["model"]["observer_periods"][0] = float("inf")
        argv = [command, "--config", str(tmp_path / "cfg.json")]
        if command == "schedule":
            d = {"model": d["model"], "instance": {"candidates": [[0.0, 0.002, 0]]}}
        else:
            argv += ["--cycles", "3"]
        (tmp_path / "cfg.json").write_text(json.dumps(d))
        assert "Infinity" in (tmp_path / "cfg.json").read_text()
        assert run_cli(argv) == EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("config error: model: ") and "finite and > 0" in out.err

    @pytest.mark.parametrize(
        "T, T_n",
        [("inf", "0.01"), ("0.01", "inf"), ("0.01", "nan"),
         # A zero flag used to count as missing: "requires --config or both ...".
         ("0", "0.003"), ("0.01", "0")],
    )
    def test_timestamps_non_finite_period_flag_is_config_error(self, capsys, T, T_n):
        assert run_cli(["timestamps", "-T", T, "--observer-period", T_n]) == EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("config error: periods must be finite and > 0")

    @pytest.mark.parametrize(
        "argv, seed",
        [(["simulate", "--seed", "-1"], None), (["oracle", "--seed", "-3"], None),
         (["simulate"], -5)],
        ids=["simulate-flag", "oracle-flag", "config"],
    )
    def test_negative_seed_is_config_error(self, tmp_path, capsys, argv, seed):
        # These used to end in a ValueError traceback from numpy's generator.
        d = minimal_config_dict()
        if seed is not None:
            d["channel"]["seed"] = seed
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(d))
        assert run_cli(argv + ["--config", str(p), "--cycles", "2"]) == EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("config error: channel.seed: must be an integer >= 0")

    @pytest.mark.parametrize("policy", ["none", "bnb"])
    def test_zero_observation_noise_rejected_at_load(self, tmp_path, capsys, policy):
        # Policy none never updates, so R = 0 used to run under it.
        d = minimal_config_dict()
        d["model"]["R"] = [[0.0]]
        d["run"]["policy"] = policy
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(d))
        assert run_cli(["simulate", "--config", str(p)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "config error: model: R must have a positive diagonal\n"

    @pytest.mark.parametrize("command", ["simulate", "oracle", "timestamps"])
    def test_zero_cycles_rejected(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(preset_config("unconstrained")))
        assert run_cli([command, "--config", str(cfg_path), "--cycles", "0"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and ">= 1" in out.err

    def test_simulate_writes_csv(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(preset_config("unconstrained")))
        out = tmp_path / "run.csv"
        assert run_cli([
            "simulate", "--config", str(cfg_path), "--cycles", "4", "--out", str(out)
        ]) == 0
        lines = out.read_text().split("\n")
        assert lines[0].startswith("cycle,policy,seq,d,budget,mse_pred,sq_err,nodes_visited")
        assert len([ln for ln in lines if ln]) == 5

    def test_simulate_reps_concatenate(self, tmp_path):
        # One header, then the rows of --seed 5, then those of --seed 6.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(preset_config("unconstrained")))

        def rows(*argv):
            out = tmp_path / "run.csv"
            assert run_cli([
                "simulate", "--config", str(cfg_path), "--cycles", "3", "--out", str(out),
                *argv,
            ]) == 0
            return out.read_text().splitlines()

        header, *five = rows("--seed", "5")
        six = rows("--seed", "6")[1:]
        assert len(five) == len(six) == 3 and five != six
        assert rows("--reps", "2", "--seed", "5") == [header, *five, *six]

    def test_simulate_zero_reps_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(preset_config("unconstrained")))
        assert run_cli(["simulate", "--config", str(cfg_path), "--reps", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: --reps must be >= 1\n"

    def test_oracle_agrees(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(preset_config("blackout-6of6-100000")))
        assert run_cli(["oracle", "--config", str(cfg_path), "--cycles", "5"]) == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_run_exits_numeric(self, tmp_path, capsys):
        # An unstable scalar plant under pure prediction overflows to inf
        # near cycle 89: the run must fail with exit 2 and write no CSV.
        d = minimal_config_dict()
        d["model"]["A"] = [[400.0]]
        d["channel"]["action_airtime"] = [[1e-4, 2e-4]]
        d["run"] = {"policy": "none", "cycles": 120}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(d))
        out = tmp_path / "run.csv"
        assert run_cli(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert not out.exists()
        assert run_cli(["simulate", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "numeric error: " in captured.err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_schedule_non_finite_mse_exits_numeric(self, tmp_path, capsys):
        # Predicting the unstable scalar plant from t0 = 0 to cycle 200
        # overflows the covariance: exit 2, not "mse: inf" with exit 0.
        d = minimal_config_dict()
        d["model"]["A"] = [[400.0]]
        doc = {
            "model": d["model"],
            "instance": {"candidates": [[1.99, 0.002, 0]], "cycle_index": 200, "t0": 0.0},
        }
        p = tmp_path / "inst.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["schedule", "--config", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric error: cycle 200: predicted MSE is")

    def test_config_error_exit_code(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{}")
        assert run_cli(["simulate", "--config", str(p)]) == 1

    def test_missing_file_exit_code(self):
        assert run_cli(["simulate", "--config", "/nonexistent/nope.json"]) == 1

    @pytest.mark.parametrize("how", ["simulate-flag", "simulate-config", "preset"])
    def test_unwritable_output_is_config_error(self, tmp_path, capsys, how):
        out = tmp_path / "missing" / "out.txt"
        d = minimal_config_dict()
        if how == "simulate-config":
            d["output"] = {"csv": str(out)}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(d))
        argv = {
            "simulate-flag": ["simulate", "--config", str(cfg_path), "--out", str(out)],
            "simulate-config": ["simulate", "--config", str(cfg_path)],
            "preset": ["preset", "rate-fast", "--out", str(out)],
        }[how]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {out}: No such file or directory\n"

    def test_unknown_log_level_is_config_error(self, monkeypatch, capsys):
        monkeypatch.setenv("OSPKIT_LOG", "bogus")
        assert run_cli(["preset", "rate-fast"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: OSPKIT_LOG: unknown level 'BOGUS'\n"

    # The README's instance with one leaf that is not a JSON number: a
    # boolean, which would otherwise be read as 1 (each variant still
    # solves at cycle 100, which spans (0.99, 1.0]), a string or null.
    @pytest.mark.parametrize(
        "block, fields, message",
        [
            ("instance", {"candidates": [[0.0, 0.003, True], [0.001, 0.003, 0]]},
             "instance.candidates[0][2]: expected a number, got true"),
            ("instance", {"candidates": [[True, 0.003, 0]], "cycle_index": 100},
             "instance.candidates[0][0]: expected a number, got true"),
            ("instance", {"candidates": [[0.0, True, 0]]},
             "instance.candidates[0][1]: expected a number, got true"),
            ("instance", {"candidates": [[0.0, 0.003, 0]], "action_airtimes": [True]},
             "instance.action_airtimes[0]: expected a number, got true"),
            ("instance", {"candidates": [[1.0, 0.003, 0]], "cycle_index": 100, "t0": True},
             "instance.t0: expected a number, got true"),
            ("instance", {"candidates": [[0.0, 0.003, 0]], "prior_cov_scale": True},
             "instance.prior_cov_scale: expected a number, got true"),
            ("instance", {"candidates": [[0.0, 0.003, 0]], "prior_cov": [[True]]},
             "instance.prior_cov[0][0]: expected a number, got true"),
            ("model", {"A": [[True]]}, "model.A[0][0]: expected a number, got true"),
            ("model", {"R": [[True, 0.0], [0.0, 1.0]]},
             "model.R[0][0]: expected a number, got true"),
            ("model", {"A": [["-1"]]}, 'model.A[0][0]: expected a number, got "-1"'),
            ("model", {"T": "0.01"}, 'model.T: expected a number, got "0.01"'),
            ("model", {"observer_periods": ["0.01", 0.01]},
             'model.observer_periods[0]: expected a number, got "0.01"'),
            ("instance", {"candidates": [["0.0", "0.003", 0]]},
             'instance.candidates[0][0]: expected a number, got "0.0"\n'
             'instance.candidates[0][1]: expected a number, got "0.003"'),
            ("instance", {"candidates": [[0.0, 0.003, 0]], "action_airtimes": "0"},
             'instance.action_airtimes: expected a number, got "0"'),
            ("instance", {"candidates": [[0.0, 0.003, 0]], "t0": None},
             "instance.t0: expected a number, got null"),
            ("instance", {"candidates": [[0.0, 0.003, 0]], "cycle_index": [1]},
             "instance.cycle_index: expected a number, got a list"),
            ("instance", {"candidates": [0.0, 0.003, 0]},
             "instance.candidates[0]: expected a list, got 0.0\n"
             "instance.candidates[1]: expected a list, got 0.003\n"
             "instance.candidates[2]: expected a list, got 0"),
        ],
        ids=["observer", "timestamp", "airtime", "action-airtime", "t0",
             "prior-cov-scale", "prior-cov", "A-leaf", "R-leaf", "A-string", "T-string",
             "period-string", "candidate-strings", "action-airtimes-string", "t0-null",
             "cycle-index-list", "candidates-flat"],
    )
    def test_schedule_rejects_booleans(self, tmp_path, capsys, block, fields, message):
        doc = {
            "model": {
                "A": [[-1.0]], "B": [[1.0]], "C": [[1.0], [1.0]], "Q": [[0.01]],
                "R": [[0.01, 0.0], [0.0, 1.0]], "T": 0.01, "observer_periods": [0.01, 0.01],
            },
            "instance": {"candidates": [[0.0, 0.003, 0]]},
        }
        doc[block].update(fields)
        p = tmp_path / "inst.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["schedule", "--config", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"

    @pytest.mark.parametrize(
        "command, block, key",
        [("simulate", "run", "polcy"), ("simulate", "channel", "sed"),
         ("schedule", "instance", "cycle"), ("schedule", "model", "a")],
    )
    def test_unknown_key_is_config_error(self, tmp_path, capsys, command, block, key):
        # "polcy" used to run bnb silently, and "sed" seed 0.
        if command == "simulate":
            doc = minimal_config_dict()
        else:
            doc = {"model": minimal_config_dict()["model"],
                   "instance": {"candidates": [[0.0, 0.003, 0]]}}
        doc[block][key] = 1
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(doc))
        assert run_cli([command, "--config", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {block}.{key}: unknown key; {block} takes ")

    def test_unknown_block_is_config_error(self, tmp_path, capsys):
        # A misspelt "output" block used to run and write the CSV to stdout.
        doc = minimal_config_dict()
        doc["outptu"] = {"csv": str(tmp_path / "x.csv")}
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["simulate", "--config", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "x.csv").exists()
        assert captured.err == (
            "config error: outptu: unknown block; the blocks are model, channel, run, "
            "output, instance\n"
        )

    def test_instance_file_may_carry_a_presets_blocks(self, tmp_path, capsys):
        # Every block of either document is allowed at the top of both.
        doc = preset_config("baseline-compare-diff")
        doc["instance"] = {"candidates": [[0.0, 0.002, 0], [0.001, 0.003, 1]]}
        p = tmp_path / "inst.json"
        p.write_text(json.dumps(doc))
        assert run_cli(["schedule", "--config", str(p)]) == 0
        assert "sequence: 1+2\n" in capsys.readouterr().out
