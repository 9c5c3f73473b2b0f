"""Smoke tests: the demos execute in process and print their headline
numbers."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name,expect", [
    ("demo_store_retrieve.py", "loss-corrected eta'"),
    ("demo_phase_control.py", "fitted phase slope: 1.000000000"),
    ("demo_flux_curves.py", "-52.0             0.2000          1.2000"),
    ("demo_splitting.py", "on-resonance splitting: 2.400 MHz (2 g_P = 2.400 MHz)"),
    ("demo_chevron.py", "+0.0          2.398441        2.398441              2.400000"),
])
def test_demo_runs(name, expect, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert expect in capsys.readouterr().out
