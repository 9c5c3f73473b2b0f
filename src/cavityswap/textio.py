"""The package's two text formats, and their writers.

* A CSV file: ``#`` header lines, the column names, then one row per
  sample. A float cell is the text of ``'%.17g' %``, so it reads back to
  the same float; a str cell is written as it is. The runners write their
  data this way, and ``TraceRecord.to_csv`` writes a trace with no header
  lines. ``write_csv`` writes columns. ``write_row_groups`` writes groups
  of rows that each repeat one of a few distinct groups, every row led by
  the group's key cell (the chevron map), and lays out each distinct
  group's text once.
* A ``key = value`` file, one pair to a line: a runner's ``report.txt``
  and a trace's ``trace.csv.meta``.

The float cells are laid out by a numpy kernel (``_float_cells``), a block
of rows at a time (``_csv_blocks``), as bytes; its tables are built on
first use.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import ValidationError

# CSV rows laid out at once by ``_csv_blocks`` (fewer where a row has more
# than two float cells: one kernel call takes at most 2 * _CSV_BLOCK cells),
# and axis values formatted at once by ``_axis_cells``: bounds their working
# arrays (32 bytes per float cell, plus the cell kernel's per-cell
# temporaries) and each write, not the text. Blocks of 4,096 rows of a
# 7-column trace (28,672 cells a call) took about three times the page
# faults and 13-23% longer per write than blocks of 1,170 rows, at
# 2,000-10,000 rows on a 2-core x86-64 VM.
_CSV_BLOCK = 4096

# A float CSV cell (``_float_cells``) is 32 bytes, four 64-bit words: the
# sign, a "0.000" prefix, the first digit and a point; the other 16 digits
# (with a point among them where %.17g puts one there); the digit that
# point pushed out, the exponent and the separator. The bytes a cell does
# not use hold _CELL_PAD, which is never a byte of UTF-8 text, and are
# deleted once a block of rows is laid out.
_CELL_PAD = 0xFF
_CELL_BYTES = 32
# decimal exponents E with a table entry for 10^(16 - E); beyond them that
# power or its low part leaves the normal doubles
_CELL_EXP = range(-280, 281)
# a cell is certified only where frac(|x| 10^(16 - E)) lies farther than
# this from 1/2; the double-double product is within 2^-46 of |x| 10^(16 - E)
_CELL_TIE = 2.0**-40
_CELL_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into halves
_SEPARATORS = b",\n"


@functools.cache
def _cell_tables():
    """The tables of ``_float_cells``, built on its first call:

    - ``pow_hi``, ``pow_lo``: 10^(16 - E) = hi + lo (a double-double) for
      each E of ``_CELL_EXP``, and ``hi_h``, ``hi_l``: hi split into halves;
    - ``kind[E]``: 0 where %.17g writes an exponent (E < -4 or E > 16),
      E + 5 elsewhere;
    - ``point[E]``: how many of the 16 digits of words 1-2 precede the
      point (E for 1 <= E <= 15, else 0: no point among them);
    - ``suffix[last, E]``: word 3 without the pushed-out digit: the
      exponent where E has one, then "," (last = 0) or "\\n" (last = 1);
    - ``layout[(kind, kept digits, sign)]``: the text a cell of that shape
      holds besides its digits and suffix, with 0 where those go;
    - ``low[k]``, ``dot[k]``: for a point after k of the 16 digits of
      words 1-2, the mask of the bytes before it and the point itself;
    - ``ascii4[g]``: the four ASCII digits of 0 <= g < 10^4 as one word,
      ``sig4[g]``: how many of them precede the trailing zeros.
    """
    n = len(_CELL_EXP)
    pow_hi, pow_lo = np.empty(n), np.empty(n)
    suffix = np.empty((2, n), np.uint64)
    for i, e in enumerate(_CELL_EXP):
        if e <= 16:
            exact = 10 ** (16 - e)
            pow_hi[i] = exact
            pow_lo[i] = exact - int(pow_hi[i])
        else:  # 10^(16 - e) = 1/den, and lo = 1/den - hi rounded once
            den = 10 ** (e - 16)
            pow_hi[i] = 1 / den
            num, two = pow_hi[i].as_integer_ratio()
            pow_lo[i] = (two - num * den) / (two * den)
        text = b"" if -4 <= e <= 16 else b"e%+03d" % e
        for last in (0, 1):
            row = b"\0" + text.ljust(6, b"\xff") + _SEPARATORS[last:last + 1]
            suffix[last, i] = np.frombuffer(row, np.uint64)[0]
    t = _CELL_SPLIT * pow_hi
    hi_h = t - (t - pow_hi)
    exps = np.array(_CELL_EXP)
    kind = np.where((exps >= -4) & (exps <= 16), exps + 5, 0)
    point = np.where((exps >= 1) & (exps <= 15), exps, 0)

    layout = np.empty((22, 17, 2, 4), np.uint64)
    for k in range(22):
        e = k - 5
        before = 1 if k == 0 else max(e + 1, 0)  # digits before the point
        prefix = b"0." + b"0" * (-e - 1) if 1 <= k <= 4 else b""
        for sig in range(1, 18):
            kept = max(sig, before)  # %.17g drops trailing zeros after the point
            point_a = b"." if before == 1 < kept else b"\xff"
            if before >= 2:
                body = [0] * (before - 1) + [ord(".") if kept > before else _CELL_PAD]
                body += [0 if j < kept else _CELL_PAD for j in range(before, 17)]
            else:
                body = [0 if j < kept else _CELL_PAD for j in range(1, 17)] + [_CELL_PAD]
            for neg, sign in enumerate((b"\xff", b"-")):
                row = sign + prefix.ljust(5, b"\xff") + b"\0" + point_a + bytes(body) + bytes(7)
                layout[k, sig - 1, neg] = np.frombuffer(row, np.uint64)

    low = np.empty((2, 16), np.uint64)
    dot = np.zeros((2, 16), np.uint64)
    for k in range(16):
        mask = (1 << 8 * k) - 1 if k else (1 << 128) - 1
        low[:, k] = mask & (2**64 - 1), mask >> 64
        if k:
            dot[:, k] = divmod(ord(".") << 8 * k, 2**64)[::-1]
    g = np.arange(10000)
    ascii4 = sum((48 + g // 10 ** (3 - j) % 10).astype(np.uint64) << np.uint64(8 * j)
                 for j in range(4))
    sig4 = np.select([g % 1000 == 0, g % 100 == 0, g % 10 == 0], [1, 2, 3], 4)
    return (pow_hi, pow_lo, hi_h, pow_hi - hi_h, kind, point, suffix,
            layout.reshape(-1, 4), low, dot, ascii4, sig4)


def _float_cells(x, last):
    """The %.17g cells of the float array `x` (see ``_CELL_PAD``), as an
    (x.size, 4) uint64 array, each ended by "\\n" where `last` is true and
    by "," elsewhere; and the mask of the cells formatted by ``'%.17g' %``.

    With E = floor(log10 |x|), the kernel forms T = |x| 10^(16 - E) as
    p + q (Dekker, Numer. Math. 18, 224, 1971): p = fl(|x| hi) and q = its
    exact rounding error plus |x| lo, within 2^-46 of T. A cell is certified
    when round(p + q) lies in (10^16, 10^17) and frac(p + q) is farther than
    ``_CELL_TIE`` from 1/2: the exact integer part of T then lies in
    [10^16, 10^17) and rounds as p + q does, so the 17 digits of round(T)
    and E are those %.17g prints. T = 10^16 is certified where the product
    is exact, and a zero is "0" or "-0". Every other cell (a near-tie, an E
    off by one next to a power of ten, |x| outside the table, inf or nan)
    is formatted by ``'%.17g' %``, so each cell holds the bytes of
    ``'%.17g' %`` by construction.
    """
    (pow_hi, pow_lo, hi_h, hi_l, kind, point, suffix, layout, low, dot,
     ascii4, sig4) = _cell_tables()
    ax = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.floor(np.log10(ax))
        ok = (e >= _CELL_EXP[0]) & (e <= _CELL_EXP[-1])
        i = np.where(ok, e - _CELL_EXP[0], -_CELL_EXP[0]).astype(np.intp)  # E, else 0
        p = ax * pow_hi[i]
        t = _CELL_SPLIT * ax
        ah = t - (t - ax)
        al = ax - ah
        ch, cl, lo = hi_h[i], hi_l[i], pow_lo[i]
        q = (((ah * ch - p) + ah * cl + al * ch) + al * cl) + ax * lo
        whole = np.floor(q)
        frac = q - whole
        n17 = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    exact = (p == 1e16) & (q == 0.0) & (lo == 0.0)
    ok &= ((np.abs(frac - 0.5) > _CELL_TIE) & (n17 > 10**16) | exact) & (n17 < 10**17)
    zero = ax == 0.0
    n17[~ok] = 10**16
    n17[zero] = 0
    fallback = ~(ok | zero)

    # 17 digits: d0, then words 1-2 from four groups of four
    top = n17 // 10**8
    d0 = top // 10**8
    groups = np.stack((top - d0 * 10**8, n17 - top * 10**8))
    head = groups // 10**4
    groups -= head * 10**4
    words = ascii4[head] | (ascii4[groups] << np.uint64(32))
    sig = np.where(groups[1] != 0, 13 + sig4[groups[1]],
                   np.where(head[1] != 0, 9 + sig4[head[1]],
                            np.where(groups[0] != 0, 5 + sig4[groups[0]],
                                     np.where(head[0] != 0, 1 + sig4[head[0]], 1))))
    # a point after k of the 16 digits: the bytes from k on move up by one
    k = point[i]
    before = words & np.take(low, k, axis=1)
    after = words ^ before
    words = before | (after << np.uint64(8)) | np.take(dot, k, axis=1)
    words[1] |= after[0] >> np.uint64(56)

    cells = np.take(layout, (kind[i] * 17 + sig - 1) * 2 + np.signbit(x), axis=0)
    cells[:, 0] |= (d0 + 48).astype(np.uint64) << np.uint64(48)
    cells[:, 1] |= words[0]
    cells[:, 2] |= words[1]
    cells[:, 3] |= (after[1] >> np.uint64(56)) | np.take(suffix, last * len(_CELL_EXP) + i)
    text = cells.view(np.uint8)
    for r in np.flatnonzero(fallback).tolist():
        cell = b"%.17g" % x[r]
        text[r, :_CELL_BYTES - 1] = _CELL_PAD
        text[r, :len(cell)] = np.frombuffer(cell, np.uint8)
    return cells, fallback


def _str_cells(cells, separator):
    """(rows, width) bytes of the str `cells` (UTF-8), each padded with
    ``_CELL_PAD`` and ended by `separator`."""
    text = [str(c).encode("utf-8") for c in cells]
    size = np.array([len(t) for t in text])
    width = int(size.max())
    out = np.full((len(text), width + 1), _CELL_PAD, np.uint8)
    if width:
        raw = np.array(text, dtype=f"S{width}").view(np.uint8).reshape(len(text), width)
        out[:, :width] = np.where(np.arange(width) < size[:, None], raw, _CELL_PAD)
    out[:, width] = separator
    return out


def _axis_cells(values, index, last):
    """The (values, index) column of ``_csv_blocks``: the float cells of
    `values`, formatted once and ``_CSV_BLOCK`` at a time (which bounds the
    kernel's temporaries), and `index` as an integer array."""
    values = np.asarray(values).astype(float, copy=False).reshape(-1)
    index = np.asarray(index)
    if index.ndim != 1 or index.dtype.kind not in "iu":
        raise ValidationError("the index of a (values, index) CSV column must be "
                              "a 1-D integer array")
    if index.size and not (index.min() >= 0 and index.max() < values.size):
        raise ValidationError(f"a (values, index) CSV column indexes outside its "
                              f"{values.size} values")
    cells = np.empty((values.size, _CELL_BYTES // 8), np.uint64)
    for lo in range(0, values.size, _CSV_BLOCK):
        cells[lo:lo + _CSV_BLOCK] = _float_cells(values[lo:lo + _CSV_BLOCK], last)[0]
    return cells.view(np.uint8).reshape(-1, _CELL_BYTES), index


def _csv_blocks(columns):
    """The CSV rows of equal-length `columns` as bytes, a block of rows at a
    time: a column of str cells (a str or object array, or a list) as it
    is, a pair ``(values, index)`` of a float and an integer array as the
    float cells of ``values[index]``, and any other as float cells.

    The float cells of a block are laid out together by ``_float_cells``,
    which certifies each cell it formats with array arithmetic and sends
    the rest to ``'%.17g' %``: every cell is the text of ``'%.17g' %``. A
    block holds ``_CSV_BLOCK`` rows, or fewer where that would pass the
    kernel more than ``2 * _CSV_BLOCK`` cells. The `values` of a pair (a
    sweep axis, whose values repeat from row to row) are formatted once,
    and each block gathers their cells by `index`.
    """
    cols, axes = [], {}  # axes[k]: the cells of the values of pair column k
    for k, col in enumerate(columns):
        if isinstance(col, tuple):  # cols[k] is then its index
            axes[k], col = _axis_cells(*col, k == len(columns) - 1)
        arr = np.asarray(col)
        cols.append(arr if k in axes or arr.dtype.kind in "OU" else arr.astype(float, copy=False))
    n = len(cols[0])
    if any(len(col) != n for col in cols):
        raise ValidationError("CSV columns must have equal lengths")
    floats = [k for k, col in enumerate(cols) if k not in axes and col.dtype.kind not in "OU"]
    last = np.array([k == len(cols) - 1 for k in floats], dtype=np.intp)
    block = max(1, min(_CSV_BLOCK, 2 * _CSV_BLOCK // max(len(floats), 1)))
    for lo in range(0, n, block):
        rows = min(block, n - lo)
        if floats:  # no kernel call for a block of pair and str columns alone
            x = np.array([cols[k][lo:lo + rows] for k in floats], dtype=float).reshape(-1)
            cells = iter(_float_cells(x, np.repeat(last, rows))[0]
                         .view(np.uint8).reshape(len(floats), rows, _CELL_BYTES))
        slots = [next(cells) if k in floats else
                 np.take(axes[k], col[lo:lo + rows], axis=0) if k in axes else
                 _str_cells(col[lo:lo + rows].tolist(), _SEPARATORS[k == len(cols) - 1])
                 for k, col in enumerate(cols)]
        text = np.concatenate(slots, axis=1).reshape(-1)
        yield text.tobytes().translate(None, bytes((_CELL_PAD,)))


def format_cells(values) -> np.ndarray:
    """The ``%.17g`` cells of `values` as an object array of str, for a
    column that mixes numbers with words."""
    text = b"".join(_csv_blocks([values])).decode("ascii")
    return np.array(text.splitlines(), dtype=object)


def _csv_head(meta_lines, colnames) -> bytes:
    """The ``#`` `meta_lines` and the `colnames` line of a CSV file."""
    head = "".join(f"# {line}\n" for line in meta_lines) + ",".join(colnames) + "\n"
    return head.encode("utf-8")


def write_csv(path, meta_lines, colnames, columns):
    """Write equal-length `columns` under ``#`` `meta_lines` and `colnames`:
    a float column as ``%.17g`` cells, a str column as it is, and a pair
    ``(values, index)`` as the cells of ``values[index]``."""
    with open(path, "wb") as fh:
        fh.write(_csv_head(meta_lines, colnames))
        fh.writelines(_csv_blocks(columns))


def write_row_groups(path, meta_lines, colnames, keys, groups, order):
    """Write row groups under ``#`` `meta_lines` and `colnames`: group k of
    the file holds the rows of ``groups[order[k]]``, a list of equal-length
    float columns, each row led by the ``%.17g`` cell of ``keys[k]``.

    The file holds the bytes ``write_csv`` writes for the columns these
    rows make, but the text of each distinct group is laid out once, and
    each group of the file puts its key cell before every line of it.
    """
    if len(order) != len(keys) or not all(0 <= j < len(groups) for j in order):
        raise ValidationError("row groups need one key per group of the file, "
                              "each naming one of the distinct groups")
    texts = [b"".join(_csv_blocks(group)) for group in groups]
    cells = b"".join(_csv_blocks([keys])).splitlines()
    with open(path, "wb") as fh:
        fh.write(_csv_head(meta_lines, colnames))
        for cell, j in zip(cells, order):
            if texts[j]:
                head = cell + b","
                fh.write(head)
                fh.write(memoryview(texts[j].replace(b"\n", b"\n" + head))[:-len(head)])


def read_csv(path) -> np.ndarray:
    """The float rows of a CSV file with no ``#`` lines, as a 2-D array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def write_key_values(path, pairs):
    """Write the (key, value) `pairs` to `path` as ``key = value`` lines."""
    with open(path, "w") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in pairs)


def read_key_values(path) -> dict:
    """The pairs of a ``key = value`` file ({} where there is none): values
    that parse as int or float come back as numbers, the rest as str."""
    try:
        with open(path) as fh:
            return {key.strip(): _meta_value(val.strip())
                    for key, _, val in (line.partition("=") for line in fh)}
    except FileNotFoundError:
        return {}


def _meta_value(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text
