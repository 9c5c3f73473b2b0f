"""The package runs on numpy alone: scipy is a test-only dependency, and
no runner starts worker processes."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# scipy blocked: any `import scipy...` raises ImportError in this interpreter
_SCRIPT = """
import sys
sys.modules["scipy"] = None
import cavityswap, cavityswap.cli
runs = [("splitting", "probe_count = 201\\npump_count = 3\\n"),
        ("store_retrieve", "delay_count = 4\\ndelay_stop = 16us\\n"),
        ("chevron", "delta_count = 3\\nt_end = 0.5us\\n")]
for runner, text in runs:
    cfg = f"{runner}.cfg"
    with open(cfg, "w") as fh:
        fh.write(text)
    rc = cavityswap.cli.main([runner, "--config", cfg, "--out", runner])
    assert rc == 0, (runner, rc)
loaded = sorted(m for m, mod in sys.modules.items()
                if m.split(".")[0] == "scipy" and mod is not None)
assert not loaded, loaded
print("ok")
"""


def test_runners_need_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _SCRIPT], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().endswith("ok")
    assert (tmp_path / "splitting" / "spectrum.csv").exists()
    assert (tmp_path / "store_retrieve" / "store_retrieve.csv").exists()
    assert (tmp_path / "chevron" / "chevron_map.csv").exists()


def test_cli_loads_no_process_pool():
    script = ("import sys, cavityswap.cli\n"
              "print(sorted(m for m in sys.modules\n"
              "             if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
