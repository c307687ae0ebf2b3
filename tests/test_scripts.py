"""Smoke tests for the command-line scripts under scripts/, at tiny sizes."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_replay_sweep(capsys):
    assert _load("verify_replay").main(["sweep", "--t", "256"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "OK"


def test_run_area_law_counter(capsys):
    assert _load("run_area_law").main(["counter", "--emin", "6", "--emax", "8"]) == 0
    assert "exponent=" in capsys.readouterr().out
