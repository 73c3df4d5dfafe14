"""The README's examples run as written: the library example executes, and
the cycle-instance example solves under `ospkit schedule` with the
sequences the README states."""
from __future__ import annotations

import re
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
