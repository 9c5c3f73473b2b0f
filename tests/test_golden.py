"""The golden-run tool: two captures of one checkout are byte-identical,
which checks that every runner and demo is deterministic."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden.py"


def _golden():
    spec = importlib.util.spec_from_file_location("golden", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_captures_are_identical(tmp_path, capsys):
    golden = _golden()
    golden.capture(tmp_path / "a")
    golden.capture(tmp_path / "b")
    capsys.readouterr()
    assert golden.compare(tmp_path / "a", tmp_path / "b") == 0
    report = capsys.readouterr().out.splitlines()
    files = sorted(str(p.relative_to(tmp_path / "a")) for p in (tmp_path / "a").rglob("*")
                   if p.is_file())
    assert report == [f"{name}: identical" for name in files]
    for run in ("splitting", "chevron", "power_sweep", "store_retrieve", "phase_sweep",
                "custom_sequence", "custom_sequence_lab"):
        assert f"{run}/report.txt" in files
    assert len([name for name in files if name.startswith("demos/")]) == 5
