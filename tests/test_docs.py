"""The README's examples run as written: the library example executes, the
cycle-instance example solves under `ospkit schedule` with the sequences
the README states, and every `ospkit` command of the CLI block exits 0."""
from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from ospkit.cli import run_cli

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced(lang: str) -> list[str]:
    """Bodies of the README's ```lang fenced blocks, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_library_example_runs(capsys):
    (example,) = fenced("python")
    exec(compile(example, str(README), "exec"), {"__name__": "readme"})
    stats = eval(capsys.readouterr().out)
    assert set(stats) == {0, 1}


@pytest.mark.parametrize("policy, seq", [("bnb", "2"), ("greedy", "1")])
def test_instance_example_schedules(tmp_path, capsys, policy, seq):
    (instance,) = fenced("json")
    path = tmp_path / "instance.json"
    path.write_text(instance)
    assert run_cli(["schedule", "--config", str(path), "--policy", policy]) == 0
    assert f"sequence: {seq}\n" in capsys.readouterr().out


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    commands = [
        shlex.split(line)
        for block in fenced("sh")
        for line in block.splitlines()
        if line.startswith("ospkit ")
    ]
    assert len(commands) == 6
    (instance,) = fenced("json")
    (tmp_path / "instance.json").write_text(instance)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run_cli(argv[1:]) == 0, argv
    assert capsys.readouterr().err == ""
