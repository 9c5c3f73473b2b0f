"""Golden runs: capture every output of a checkout, and compare two captures.

Run from anywhere::

    python tools/golden.py capture DIR
    python tools/golden.py compare OLD NEW

``capture`` runs, at their default configs, the five sweep runners
(``splitting``, ``chevron``, ``power_sweep``, ``store_retrieve``,
``phase_sweep``), ``custom_sequence`` in the rotating and the lab frame on
``golden_sequence.txt`` (a delay before an ``nbar`` load, a ramped detuned
swap and a ``power=`` swap), and the five demos. It writes each runner's
files and printed results under ``DIR/<run>/`` and each demo's standard
output as ``DIR/demos/<demo>.txt``. It runs the package of the checkout
this file sits in (``src/`` next to ``tools/``), and exits with an error
where ``cavityswap`` is imported from anywhere else; to capture another
checkout, copy ``tools/`` into it and run its copy. The runs use paths
relative to DIR, so captures of different checkouts can be byte-identical.

``compare`` reports for each file of either capture whether it is
byte-identical. Otherwise it prints, for a CSV, the largest difference of
each numeric column relative to that column's peak in OLD; for a
``key = value`` file (``report.txt``, ``trace.csv.meta``, printed
results), the relative difference of each numeric key; and for any other
text, a diff. It pins no numbers: it exits 1 only when files, rows,
columns or keys differ, and 0 otherwise.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import math
import os
import runpy
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEQUENCE = Path(__file__).resolve().with_name("golden_sequence.txt")
SWEEPS = ("splitting", "chevron", "power_sweep", "store_retrieve", "phase_sweep")


@contextlib.contextmanager
def _inside(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def capture(dest) -> None:
    """Run every runner and demo of this checkout with outputs under `dest`."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from cavityswap import cli

    # another checkout's package (an editable install, say) shadows this one
    origin = Path(cli.__file__).resolve()
    if not origin.is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported cavityswap from {origin.parent}, not {ROOT / 'src'}")

    dest = Path(dest)
    (dest / "demos").mkdir(parents=True, exist_ok=True)
    shutil.copyfile(SEQUENCE, dest / "sequence.txt")
    (dest / "sequence.cfg").write_text("sequence = sequence.txt\n")
    runs = [(name, [name]) for name in SWEEPS]
    runs += [("custom_sequence", ["custom_sequence", "--config", "sequence.cfg"]),
             ("custom_sequence_lab", ["custom_sequence", "--config", "sequence.cfg",
                                      "--lab-frame"])]
    with _inside(dest):
        for name, argv in runs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv + ["--out", name])
            if rc != 0:
                raise SystemExit(f"{name} exited {rc}")
            Path(name, "stdout.txt").write_text(out.getvalue())
    with _inside(dest / "demos"):  # a demo that saves a figure saves it here
        for demo in sorted((ROOT / "demos").glob("*.py")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                runpy.run_path(str(demo), run_name="__main__")
            Path(demo.stem + ".txt").write_text(out.getvalue())


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _rel(a, b, scale):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / scale if scale else math.inf


def _compare_csv(old, new):
    """(lines to print, structure changed)."""
    def split(text):
        lines = text.splitlines()
        body = [line for line in lines if not line.startswith("#")]
        return ([line for line in lines if line.startswith("#")], body[0].split(","),
                [row.split(",") for row in body[1:]])

    (old_meta, old_cols, old_rows), (new_meta, new_cols, new_rows) = split(old), split(new)
    if old_cols != new_cols:
        return [f"  columns {old_cols} -> {new_cols}"], True
    if len(old_rows) != len(new_rows):
        return [f"  rows {len(old_rows)} -> {len(new_rows)}"], True
    out = [f"  header: {a!r} -> {b!r}" for a, b in zip(old_meta, new_meta) if a != b]
    for k, name in enumerate(old_cols):
        cells = [(row[k], other[k]) for row, other in zip(old_rows, new_rows)]
        pairs = [(_number(a), _number(b)) for a, b in cells]
        if all(a is not None and b is not None for a, b in pairs):
            peak = max((abs(a) for a, _ in pairs if math.isfinite(a)), default=0.0)
            worst = max((_rel(a, b, peak) for a, b in pairs), default=0.0)
            out.append(f"  {name}: max |diff| / peak = {worst:.3g}")
        else:
            changed = sum(a != b for a, b in cells)
            out.append(f"  {name}: {changed} of {len(cells)} cells differ")
    return out, False


def _compare_keys(old, new):
    def parse(text):
        return dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)

    a, b = parse(old), parse(new)
    if a.keys() != b.keys():
        return [f"  keys removed {sorted(a.keys() - b.keys())}, "
                f"added {sorted(b.keys() - a.keys())}"], True
    out = []
    for key in sorted(a):
        if a[key] == b[key]:
            continue
        x, y = _number(a[key]), _number(b[key])
        if x is None or y is None:
            out.append(f"  {key}: {a[key]!r} -> {b[key]!r}")
        else:
            out.append(f"  {key}: relative difference "
                       f"{_rel(x, y, max(abs(x), abs(y))):.3g}")
    return out, False


def compare(old, new) -> int:
    """Print the comparison of two captures; 1 if their structure differs."""
    old, new = Path(old), Path(new)
    names = sorted({p.relative_to(d) for d in (old, new) for p in d.rglob("*")
                    if p.is_file()})
    changed = False
    for name in names:
        a, b = old / name, new / name
        if not (a.is_file() and b.is_file()):
            print(f"{name}: only in {old if a.is_file() else new}")
            changed = True
            continue
        if a.read_bytes() == b.read_bytes():
            print(f"{name}: identical")
            continue
        print(f"{name}: differs")
        text_a, text_b = a.read_text(errors="replace"), b.read_text(errors="replace")
        if name.suffix == ".csv":
            lines, structural = _compare_csv(text_a, text_b)
        elif name.name in ("report.txt", "stdout.txt") or name.suffix == ".meta":
            lines, structural = _compare_keys(text_a, text_b)
        else:
            lines = ["  " + line.rstrip("\n") for line in difflib.unified_diff(
                text_a.splitlines(), text_b.splitlines(), str(a), str(b), lineterm="")]
            structural = False
        if lines:
            print("\n".join(lines))
        changed |= structural
    return 1 if changed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2 and argv[0] == "capture":
        capture(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print("usage: golden.py capture DIR | golden.py compare OLD NEW", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
