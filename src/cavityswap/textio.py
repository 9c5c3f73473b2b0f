"""The package's two text formats, and their writers.

* A CSV file: ``#`` header lines, the column names, then one row per
  sample. Every cell is a float, the text of ``'%.17g' %`` (``nan``
  where a value has none), so it reads back to the same float and the
  file loads with ``np.loadtxt``. The runners write their data this
  way, and ``TraceRecord.to_csv`` writes a trace with no header lines.
  ``write_csv`` writes columns. ``write_row_groups`` writes groups
  of rows that each repeat one of a few distinct groups, every row led by
  the group's key cell (the chevron map), and lays out each distinct
  group's text once. ``write_mirrored_grid`` writes a grid that is a
  palindrome in file order over its two axes (the splitting spectrum)
  from its first half, formatting each axis value once.
* A ``key = value`` file, one pair to a line: a runner's ``report.txt``
  and a trace's ``trace.csv.meta``.

The writers replace an existing output file rather than truncate it
(``_create``), which ext4 finishes sooner on a rerun into the same
directory. The bytes written are the same; a reader that holds an old
file open keeps reading the old bytes, and a symlink, a file with other
hard links and a file the user may not write are treated as a truncating
``open`` treats them.

The float cells are laid out by a numpy kernel (``_float_cells``), a block
of rows at a time (``_csv_blocks``), as bytes; its tables are built on
first use. The kernel does the work of a cell shape only on the cells of
that shape (a point among the digits, a zero last group of four digits,
a 17-digit integer of exactly 10^16), each subset taken with
``np.flatnonzero``. A table of float columns goes to it as a row-major
block, whose cells are already in file order.
"""

from __future__ import annotations

import functools
import os
import stat

import numpy as np

from .core import ValidationError

# CSV rows laid out at once by ``_csv_blocks`` (fewer where a row has more
# than two float cells: one kernel call takes at most 2 * _CSV_BLOCK cells),
# and values formatted and lines laid out at once by ``_stripped`` and
# ``write_mirrored_grid``: bounds their working arrays (32 bytes per float
# cell, plus the cell kernel's per-cell temporaries) and each write, not
# the text. Blocks of 4,096 rows of a 7-column trace (28,672 cells a call)
# took about three times the page faults and 13-23% longer per write than
# blocks of 1,170 rows, at 2,000-10,000 rows on a 2-core x86-64 VM.
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
_PAD = bytes((_CELL_PAD,))


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

    Work that only some shapes need runs on those cells alone: the
    exactness test on the cells whose integer is 10^16, the search for
    the last kept digit before the last group of four on the cells whose
    last group is 0, and the shift that makes room for a point among the
    16 digits of words 1-2 on the cells with 1 <= E <= 15. Elsewhere no
    digit is pushed out into word 3.
    """
    (pow_hi, pow_lo, hi_h, hi_l, kind, point, suffix, layout, low, dot,
     ascii4, sig4) = _cell_tables()
    ax = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.floor(np.log10(ax))
        ok = (e >= _CELL_EXP[0]) & (e <= _CELL_EXP[-1])
        i = np.where(ok, e - _CELL_EXP[0], -_CELL_EXP[0]).astype(np.intp)  # E, else 0
        p = ax * np.take(pow_hi, i)
        t = _CELL_SPLIT * ax
        ah = t - (t - ax)
        al = ax - ah
        ch, cl, lo = np.take(hi_h, i), np.take(hi_l, i), np.take(pow_lo, i)
        q = (((ah * ch - p) + ah * cl + al * ch) + al * cl) + ax * lo
        whole = np.floor(q)
        frac = q - whole
        n17 = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    certified = (np.abs(frac - 0.5) > _CELL_TIE) & (n17 > 10**16) & (n17 < 10**17)
    edge = np.flatnonzero(n17 == 10**16)  # certified only where the product is exact
    certified[edge] = (p[edge] == 1e16) & (q[edge] == 0.0) & (lo[edge] == 0.0)
    ok &= certified
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
    words = np.take(ascii4, head) | (np.take(ascii4, groups) << np.uint64(32))
    # the digits kept: up to the last nonzero one of the last group, and
    # where that group is 0, of the first nonzero group before it
    sig = 13 + np.take(sig4, groups[1])
    z = np.flatnonzero(groups[1] == 0)
    h1, g0, h0 = head[1, z], groups[0, z], head[0, z]
    sig[z] = np.where(h1 != 0, 9 + np.take(sig4, h1),
                      np.where(g0 != 0, 5 + np.take(sig4, g0),
                               np.where(h0 != 0, 1 + np.take(sig4, h0), 1)))

    cells = np.take(layout, (np.take(kind, i) * 17 + sig - 1) * 2 + np.signbit(x), axis=0)
    cells[:, 0] |= (d0 + 48).astype(np.uint64) << np.uint64(48)
    cells[:, 3] |= np.take(suffix, last * len(_CELL_EXP) + i)
    # a point after k of the 16 digits (1 <= E <= 15): the bytes from k on
    # move up by one, and the digit pushed out of word 2 goes to word 3
    k = np.take(point, i)
    m = np.flatnonzero(k)
    km = k[m]
    before = words[:, m] & np.take(low, km, axis=1)
    after = words[:, m] ^ before
    words[:, m] = before | (after << np.uint64(8)) | np.take(dot, km, axis=1)
    words[1, m] |= after[0] >> np.uint64(56)
    cells[m, 3] |= after[1] >> np.uint64(56)
    cells[:, 1] |= words[0]
    cells[:, 2] |= words[1]
    text = cells.view(np.uint8)
    for r in np.flatnonzero(fallback).tolist():
        cell = b"%.17g" % x[r]
        text[r, :_CELL_BYTES - 1] = _CELL_PAD
        text[r, :len(cell)] = np.frombuffer(cell, np.uint8)
    return cells, fallback


def _stripped(values):
    """The float cells of `values` ended by ",", each with its text first
    and then _CELL_PAD up to the widest text, as an (n, width) uint8 array.
    The cells are formatted and left-aligned ``_CSV_BLOCK`` at a time."""
    cells = np.empty((values.size, _CELL_BYTES), np.uint8)
    width = 0
    for lo in range(0, values.size, _CSV_BLOCK):
        block = _float_cells(values[lo:lo + _CSV_BLOCK], 0)[0].view(np.uint8)
        pad = block == _CELL_PAD
        order = np.argsort(pad, axis=1, kind="stable")  # the text, then the pads
        cells[lo:lo + _CSV_BLOCK] = np.take_along_axis(block, order, axis=1)
        width = max(width, _CELL_BYTES - int(pad.sum(axis=1).min()))
    return cells[:, :width].copy()


def _csv_blocks(columns):
    """The CSV rows of equal-length float `columns` as bytes, a block of
    rows at a time.

    The cells of a block are laid out together by ``_float_cells``, which
    certifies each cell it formats with array arithmetic and sends the rest
    to ``'%.17g' %``: every cell is the text of ``'%.17g' %``. A block holds
    ``_CSV_BLOCK`` rows, or fewer where that would pass the kernel more
    than ``2 * _CSV_BLOCK`` cells. The columns of a block go to the kernel
    as one row-major array, so its cells are the block's text in file order.
    """
    cols = [np.asarray(col).astype(float, copy=False) for col in columns]
    n = len(cols[0])
    if any(len(col) != n for col in cols):
        raise ValidationError("CSV columns must have equal lengths")
    block = max(1, min(_CSV_BLOCK, 2 * _CSV_BLOCK // len(cols)))
    x = np.empty((min(block, n), len(cols)))  # a block's cells, row by row
    last = np.tile(np.arange(len(cols)) == len(cols) - 1, len(x)).astype(np.intp)
    for lo in range(0, n, block):
        rows = min(block, n - lo)
        for j, col in enumerate(cols):
            x[:rows, j] = col[lo:lo + rows]
        text = _float_cells(x[:rows].reshape(-1), last[:rows * len(cols)])[0]
        yield text.tobytes().translate(None, _PAD)


def _csv_head(meta_lines, colnames) -> bytes:
    """The ``#`` `meta_lines` and the `colnames` line of a CSV file."""
    head = "".join(f"# {line}\n" for line in meta_lines) + ",".join(colnames) + "\n"
    return head.encode("utf-8")


def _create(path, mode):
    """`path` opened in the write `mode` as an empty file.

    An existing regular file with no other hard link, which the user owns
    and may write, is unlinked and created anew with its permission bits:
    a truncating ``open`` of a file written shortly before makes ext4 (its
    default ``auto_da_alloc``) allocate the new data's blocks at close,
    and a new file does not. Rewriting a 9.4 MB file every 0.1-1 s, the
    truncating ``open`` took 4.0-4.8 ms and the unlink and create 0.7 ms
    (medians of 15, 2-core x86-64 VM). A temporary file renamed over the
    old one cost as much as truncating: ext4 treats it alike.

    Anything else is opened in place and truncated, as a plain ``open``
    does: a symlink is written through, a file with other hard links gets
    the new bytes under every name, a file another user owns keeps its
    owner, a file the user may not write is refused (PermissionError), and
    a file whose directory the user may not write (the unlink fails) is
    rewritten.
    """
    try:
        old = os.lstat(path)
    except OSError:  # none there, or a path ``open`` refuses too
        return open(path, mode)
    if (stat.S_ISREG(old.st_mode) and old.st_nlink == 1 and old.st_uid == os.geteuid()
            and os.access(path, os.W_OK)):
        try:
            os.unlink(path)
        except OSError:  # a directory the user may not write
            pass
        else:
            fh = open(path, mode)
            os.fchmod(fh.fileno(), stat.S_IMODE(old.st_mode))
            return fh
    return open(path, mode)


def write_csv(path, meta_lines, colnames, columns):
    """Write equal-length float `columns` as ``%.17g`` cells under ``#``
    `meta_lines` and `colnames` to a new file at `path` (``_create``)."""
    with _create(path, "wb") as fh:
        fh.write(_csv_head(meta_lines, colnames))
        fh.writelines(_csv_blocks(columns))


def write_mirrored_grid(path, meta_lines, colnames, outer, inner, half):
    """Write a P x Q grid g that is a palindrome in file order, g[i, j] =
    g[P-1-i, Q-1-j], under ``#`` `meta_lines` and `colnames` to a new file
    at `path` (``_create``), from `half`, its first ceil(P/2) rows: line
    (i, j) holds the ``%.17g`` cells of ``outer[i]``, ``inner[j]`` and
    g[i, j], the bytes ``write_csv`` writes for the expanded columns.

    Each axis value is formatted once, and so is g up to the middle of the
    palindrome: the rest of a middle row mirrors its first half, and a
    later row is its mirror row reversed. A row is laid out ``_CSV_BLOCK``
    lines at a time in one reused buffer, the `inner` cells (``_stripped``)
    beside the row's cells of g, stripped by one ``translate``; the row's
    `outer` cell then goes before each line.
    """
    outer, inner, half = (np.asarray(v).astype(float, copy=False) for v in (outer, inner, half))
    n_out, n_in = outer.size, inner.size
    if outer.ndim != 1 or inner.ndim != 1 or half.shape != ((n_out + 1) // 2, n_in):
        raise ValidationError(f"a mirrored grid needs 1-D axes and the first "
                              f"{(n_out + 1) // 2} of its {n_out} rows of {n_in} values, "
                              f"got rows of shape {half.shape}")
    heads = [cell + b"," for cell in b"".join(_csv_blocks([outer])).splitlines()]
    inner_cells = _stripped(inner)
    width = inner_cells.shape[1]
    n, held = n_out * n_in, (n_out * n_in + 1) // 2
    flat = half.reshape(-1)
    grid = np.empty((half.size, _CELL_BYTES // 8), np.uint64)
    for lo in range(0, held, _CSV_BLOCK):
        hi = min(lo + _CSV_BLOCK, held)
        grid[lo:hi] = _float_cells(flat[lo:hi], 1)[0]
    grid[held:] = grid[n - half.size:n - held][::-1]  # the rest of a middle row
    grid = grid.view(np.uint8).reshape(half.shape + (_CELL_BYTES,))
    lines = max(1, min(n_in, _CSV_BLOCK))
    raw = bytearray((width + _CELL_BYTES) * lines)
    buf = np.frombuffer(raw, np.uint8).reshape(lines, -1)
    held_lo = None  # the first inner value whose cells buf holds
    with _create(path, "wb") as fh:
        fh.write(_csv_head(meta_lines, colnames))
        for i, head in enumerate(heads):
            row = grid[i] if i < len(grid) else grid[n_out - 1 - i, ::-1]
            for lo in range(0, n_in, lines):
                k = min(lines, n_in - lo)
                if lo != held_lo:
                    buf[:k, :width] = inner_cells[lo:lo + k]
                    held_lo = lo
                buf[:k, width:] = row[lo:lo + k]
                text = (raw if k == lines else raw[:buf[:k].nbytes]).translate(None, _PAD)
                fh.write(head)
                fh.write(memoryview(text.replace(b"\n", b"\n" + head))[:-len(head)])


def write_row_groups(path, meta_lines, colnames, keys, groups, order):
    """Write row groups under ``#`` `meta_lines` and `colnames` to a new
    file at `path` (``_create``): group k of the file holds the rows of
    ``groups[order[k]]``, a list of equal-length float columns, each row
    led by the ``%.17g`` cell of ``keys[k]``.

    The file holds the bytes ``write_csv`` writes for the columns these
    rows make, but the text of each distinct group is laid out once, and
    each group of the file puts its key cell before every line of it.
    """
    if len(order) != len(keys) or not all(0 <= j < len(groups) for j in order):
        raise ValidationError("row groups need one key per group of the file, "
                              "each naming one of the distinct groups")
    texts = [b"".join(_csv_blocks(group)) for group in groups]
    cells = b"".join(_csv_blocks([keys])).splitlines()
    with _create(path, "wb") as fh:
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
    """Write the (key, value) `pairs` as ``key = value`` lines to a new file
    at `path` (``_create``)."""
    with _create(path, "w") as fh:
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
