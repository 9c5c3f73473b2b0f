"""Coupled-mode integration and steady-state reflection.

In the lab frame the coupled-mode equations of motion read (plus an input
drive term on the readout port):

    da/dt = -i(w_A - i g_A/2) a - i g_P(t) e^{+i(w_P t + phi_P)} b + sqrt(g_ext) a_in(t)
    db/dt = -i(w_B - i g_B/2) b - i g_P(t) e^{-i(w_P t + phi_P)} a

Everything here integrates them in the rotating frame, which rotates each
mode at its own natural frequency and leaves only the slow envelopes:

    da~/dt = -(g_A/2) a~ - i g_P(t) e^{+i(D t + phi_P)} b~ + drive
    db~/dt = -(g_B/2) b~ - i g_P(t) e^{-i(D t + phi_P)} a~

with D = w_P - (w_B - w_A) the pump detuning (mode B must lie above mode
A). ``core.PumpDrive`` holds D itself, with the envelope g_P(t) and the
phase phi_P, and no absolute pump frequency. The output field at the
readout port is a_out = a_in - sqrt(g_ext) a (fixed by the
critical-coupling null of the reflection coefficient).

Both frames hold the same rotating-wave equations, so a lab-frame trace is
exactly the rotating-frame one times e^{-i w_A t} (a, a_out) and
e^{-i w_B t} (b): ``lab_frame`` applies that rotation after the fact.

Integration is classic fixed-step RK4, chosen over adaptive stepping so
that sweep trajectories are bit-reproducible. The equations are linear,
x' = A(t) x + f(t), so one RK4 step is an affine map x_{k+1} = P_k x_k +
q_k. One engine, ``rk4_run``, steps ``integrate`` (one segment) and the
sequence oracle (every segment of a sequence, each with its own step,
pump and drive) alike: for each block of steps it builds the maps as
arrays from A and f at the stage times and composes them with an
odd-even prefix scan (Blelloch, CMU-CS-90-190, 1990), and its blocks run
across segment boundaries. That is the RK4 solution of a step-by-step
loop, rounded differently, so the dt/2 rerun of ``integrate_checked``
still measures a genuine RK4 step-size difference. A constant pump with no
drive has an exact solution instead (``propagate_swap``): substituting
c = b~ e^{i(D t + phi_P)} makes the rotating-frame system time-invariant,

    d/dt (a~, c) = M (a~, c),   M = [[-g_A/2, -i g_P], [-i g_P, i D - g_B/2]],

and exp(M t) = e^{m t} (cosh(s t) I + sinh(s t)/s N) with m = tr M / 2,
N = M - m I and s^2 = N_11^2 - g_P^2 (Moler & Van Loan, SIAM Rev. 45,
2003). A drive tone with no pump is a scalar affine equation for a~ and
a free decay for b~ (``propagate_load``). RK4 stays the integrator for
everything else (raised-cosine pump envelopes) and the oracle for the
exact solutions (``check_exact``).

``exact_segment`` samples the swap on its record grid t_j = t_start + j h
(h = record_stride dt, j = 0..J, then the off-stride last step) with no
complex exp, cosh or sinh per sample, by the addition theorem
exp(M (tau_q + tau_i)) = exp(M tau_i) exp(M tau_q). The grid is laid out
in rows of B = ceil(sqrt(J + 1)) samples; one ``_swap_exp`` call gives
ch = e^{m tau} cosh(s tau) and sh = e^{m tau} sinh(s tau)/s on about
2 sqrt(J) offsets: the first time of each row (and the last step) from
initial.t, and i h for i < B. Sample j = q B + i is the state at the start
of row q moved on by ch_i I + sh_i N, one (rows, 2) by (2, B) matrix
product, and the rotation e^{-i(D t + phi_P)} of b~ splits into a factor
per row and one per column, folded into both. The tabulated sample is the
closed form at t_{qB} + i h where ``propagate_swap`` takes the rounded
grid time t_j; the two differ by about an ulp of t, so they agree to about
that ulp times the fastest rate: 5.8e-14 of the peak |(a, b)| at worst on
the runners' default grids, and within 1e-12 on the generated grids of
the tests. ``propagate_swap`` stays per-sample: it serves arbitrary
times (the swap-time calibration) and is the oracle of the tabulation.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (ModeParams, PumpDrive, ComplexAmplitudePair, ValidationError,
                   check_mode_order)

TWO_PI = 2.0 * math.pi

# minimum sample points per cycle of the fastest timescale
MIN_POINTS_PER_CYCLE = 50

# RK4 steps whose maps ``integrate`` builds and composes at once: bounds
# its working memory, not its result
_BLOCK = 4096

# most RK4 steps one ``integrate`` call may take (default runner configs
# take at most 30,720): a longer run is refused before it starts
MAX_STEPS = 10**7

# CSV rows laid out at once by ``_csv_blocks``: bounds its working arrays
# (32 bytes per float cell, plus the cell kernel's per-cell temporaries)
# and each write, not the text
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


class ResolutionError(ValidationError):
    """Integrator step too large for the fastest rotating-frame timescale."""


class IntegrationDivergedError(RuntimeError):
    """Non-finite state encountered during integration."""


class ConvergenceError(RuntimeError):
    """Half-step self-convergence (or exact-vs-RK4 agreement) check failed."""

    def __init__(self, rel_diff, tolerance, check="half-step self-convergence"):
        super().__init__(f"{check} {rel_diff:.3e} exceeds tolerance {tolerance:.3e}")
        self.rel_diff = rel_diff
        self.tolerance = tolerance


class SingularSteadyStateError(ValidationError):
    """Steady-state system is exactly singular (zero damping on resonance)."""


@dataclass(frozen=True)
class DriveTone:
    """Coherent input tone on the readout port.

    amp_in is in sqrt(photons/s); the tone is zero outside [t_start, t_stop].
    """

    omega_d: float
    amp_in: float
    phase: float = 0.0
    t_start: float = -math.inf
    t_stop: float = math.inf

    def __post_init__(self):
        if self.amp_in < 0.0:
            raise ValidationError("incident amplitude must be >= 0")
        if not self.t_stop > self.t_start:
            raise ValidationError("drive support must be well-ordered")


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-9
    t_end: float = 1e-6
    t_start: float = 0.0
    record_stride: int = 1
    tolerance: float = 1e-6  # half-step self-convergence target

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValidationError("dt must be positive")
        if not self.t_end > self.t_start:
            raise ValidationError("t_end must exceed t_start")
        if self.record_stride < 1:
            raise ValidationError("record_stride must be >= 1")


@dataclass
class TraceRecord:
    """Sampled trajectory: times, mode amplitudes, and the output field."""

    t: np.ndarray
    a: np.ndarray
    b: np.ndarray
    a_out: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def energy_a(self) -> np.ndarray:
        return np.abs(self.a) ** 2

    @property
    def energy_b(self) -> np.ndarray:
        return np.abs(self.b) ** 2

    def window(self, t_lo: float, t_hi: float) -> "TraceRecord":
        """Sub-trace with t_lo <= t <= t_hi (half-open rounding tolerant)."""
        eps = 1e-15 + 1e-9 * (self.t[-1] - self.t[0])
        sel = (self.t >= t_lo - eps) & (self.t <= t_hi + eps)
        if not np.any(sel):
            raise ValidationError("empty trace window")
        return TraceRecord(self.t[sel], self.a[sel], self.b[sel],
                           self.a_out[sel], dict(self.meta))

    def to_csv(self, path):
        """Write data columns to `path` (cells as ``%.17g``) and metadata to
        `<path>.meta`."""
        with open(path, "w") as fh:
            fh.write("t_s,re_a,im_a,re_b,im_b,re_aout,im_aout\n")
            write_columns(fh, [self.t, self.a.real, self.a.imag, self.b.real,
                               self.b.imag, self.a_out.real, self.a_out.imag])
        with open(f"{path}.meta", "w") as fh:
            for key in sorted(self.meta):
                fh.write(f"{key} = {self.meta[key]}\n")

    @classmethod
    def from_csv(cls, path):
        """Read a trace written by ``to_csv``; metadata values that parse as
        int or float come back as numbers, the rest as str."""
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        meta = {}
        try:
            with open(f"{path}.meta") as fh:
                for line in fh:
                    key, _, val = line.partition("=")
                    meta[key.strip()] = _meta_value(val.strip())
        except FileNotFoundError:
            pass
        return cls(data[:, 0], data[:, 1] + 1j * data[:, 2],
                   data[:, 3] + 1j * data[:, 4], data[:, 5] + 1j * data[:, 6],
                   meta)


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
    text = [str(c).encode("utf-8", "surrogatepass") for c in cells]
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
    `values`, formatted once, and `index` as an integer array."""
    values = np.asarray(values).astype(float, copy=False).reshape(-1)
    index = np.asarray(index)
    if index.ndim != 1 or index.dtype.kind not in "iu":
        raise ValidationError("the index of a (values, index) CSV column must be "
                              "a 1-D integer array")
    if index.size and not (index.min() >= 0 and index.max() < values.size):
        raise ValidationError(f"a (values, index) CSV column indexes outside its "
                              f"{values.size} values")
    return _float_cells(values, last)[0].view(np.uint8).reshape(-1, _CELL_BYTES), index


def _csv_blocks(columns):
    """The CSV rows of equal-length `columns`, ``_CSV_BLOCK`` rows to a
    string: a column of str cells (a str or object array, or a list) as it
    is, a pair ``(values, index)`` of a float and an integer array as the
    float cells of ``values[index]``, and any other as float cells.

    The float cells of a block are laid out together by ``_float_cells``,
    which certifies each cell it formats with array arithmetic and sends
    the rest to ``'%.17g' %``: every cell is the text of ``'%.17g' %``. The
    `values` of a pair (a sweep axis, whose values repeat from row to row)
    are formatted once, and each block gathers their cells by `index`.
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
    for lo in range(0, n, _CSV_BLOCK):
        rows = min(_CSV_BLOCK, n - lo)
        x = np.array([cols[k][lo:lo + rows] for k in floats], dtype=float).reshape(-1)
        cells = iter(_float_cells(x, np.repeat(last, rows))[0]
                     .view(np.uint8).reshape(len(floats), rows, _CELL_BYTES))
        slots = [next(cells) if k in floats else
                 np.take(axes[k], col[lo:lo + rows], axis=0) if k in axes else
                 _str_cells(col[lo:lo + rows].tolist(), _SEPARATORS[k == len(cols) - 1])
                 for k, col in enumerate(cols)]
        block = np.concatenate(slots, axis=1).reshape(-1)
        yield block.tobytes().translate(None, bytes((_CELL_PAD,))).decode("utf-8", "surrogatepass")


def write_columns(fh, columns):
    """Write equal-length `columns` to the text file `fh` as CSV rows."""
    fh.writelines(_csv_blocks(columns))


def format_cells(values) -> np.ndarray:
    """The ``%.17g`` cells of `values` as an object array of str, for a
    column that mixes numbers with words."""
    return np.array("".join(_csv_blocks([values])).splitlines(), dtype=object)


def _meta_value(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def lab_frame(trace: TraceRecord, mode_a: ModeParams, mode_b: ModeParams) -> TraceRecord:
    """The lab-frame trace of a rotating-frame one: a and a_out times
    e^{-i w_A t}, b times e^{-i w_B t}. Exact, since both frames hold the
    same rotating-wave equations."""
    rot_a = np.exp(-1j * mode_a.omega * trace.t)
    return TraceRecord(trace.t, trace.a * rot_a,
                       trace.b * np.exp(-1j * mode_b.omega * trace.t),
                       trace.a_out * rot_a, dict(trace.meta, frame="lab"))


def rabi_frequency(delta: float, g_p: float) -> float:
    """Energy-oscillation frequency of the detuned two-mode swap.

    This is the frequency at which |a(t)|^2 oscillates: sqrt(D^2 + 4 g_P^2),
    i.e. 2 g_P on resonance (the normal-mode splitting).
    """
    return math.sqrt(delta * delta + 4.0 * g_p * g_p)


def max_step(mode_a, mode_b, pump, drive=None,
             points_per_cycle=MIN_POINTS_PER_CYCLE) -> float:
    """Largest RK4 step that spends `points_per_cycle` steps on one cycle of
    the fastest rotating-frame rate of this system (inf if none).

    That rate is max(sqrt(D^2 + 4 g_P^2), gamma_A, gamma_B, |w_d - w_A|):
    the swap frequency at the peak pump amplitude, the losses and the
    drive offset. A swap frequency at or above w_B - w_A, outside the
    rotating-wave model, raises ValidationError.
    """
    swap = rabi_frequency(pump.delta, pump.g)
    spacing = mode_b.omega - mode_a.omega
    if not swap < spacing:
        raise ValidationError(f"swap frequency {swap / TWO_PI:.6g}Hz is not below the mode "
                              f"spacing {spacing / TWO_PI:.6g}Hz: outside the rotating-wave model")
    rates = [mode_a.gamma_total, mode_b.gamma_total, swap]
    if drive is not None:
        rates.append(abs(drive.omega_d - mode_a.omega))
    fastest = max(rates)
    return math.inf if fastest == 0.0 else TWO_PI / (points_per_cycle * fastest)


def input_field(drive, mode_a, t):
    """Incident field a_in at times t (array), in the rotating frame."""
    if drive is None or drive.amp_in == 0.0:
        return np.zeros_like(t, dtype=complex)
    dw = drive.omega_d - mode_a.omega
    field_vals = drive.amp_in * np.exp(-1j * (dw * t + drive.phase))
    mask = (t >= drive.t_start) & (t <= drive.t_stop)
    return np.where(mask, field_vals, 0.0 + 0.0j)


def _steps(config: SimConfig):
    """(step count, step) of ``integrate``: dt is shrunk, never grown, so an
    integer number of steps lands exactly on t_end. The rounding slack is
    relative, as in the ResolutionError check of ``integrate``, so a span
    of exactly N steps takes N at any N."""
    span = config.t_end - config.t_start
    n = max(1, int(math.ceil(span / config.dt * (1.0 - 1e-12))))
    return n, span / n


def half_step_config(config: SimConfig) -> SimConfig:
    """The dt/2 run ``integrate_checked`` compares against (and returns),
    recording at twice the stride so it keeps the same record times."""
    _, dt = _steps(config)
    return replace(config, dt=0.5 * dt, record_stride=2 * config.record_stride)


def _record_steps(n: int, stride: int) -> np.ndarray:
    """Step counts after which ``integrate`` records: every `stride` steps
    plus the final one."""
    k = np.arange(stride, n + 1, stride)
    if k.size == 0 or k[-1] != n:
        k = np.append(k, n)
    return k


def record_times(config: SimConfig) -> np.ndarray:
    """The times ``integrate`` records under `config`, bit for bit."""
    n, dt = _steps(config)
    k = _record_steps(n, config.record_stride)
    return np.concatenate(([config.t_start], config.t_start + k * dt))


def exact_segment(initial: ComplexAmplitudePair, modes, pump: PumpDrive,
                  drive: DriveTone | None, config: SimConfig) -> TraceRecord:
    """The closed-form rotating-frame solution of one constant-coefficient
    segment (constant pump and no drive, or a drive tone and no pump) on
    the grid ``integrate`` records under `config`; a swap is tabulated
    (``_swap_grid``, see the module docstring)."""
    check_mode_order(*modes)
    mode_a = modes[0]
    t = record_times(config)
    if drive is None:
        a, b = _swap_grid(initial, modes, pump, config, t)
    else:
        a, b = propagate_load(initial, modes, drive, t)
    a_out = input_field(drive, mode_a, t) - math.sqrt(mode_a.gamma_ext) * a
    return TraceRecord(t, a, b, a_out)


def checked_steps(modes, pump: PumpDrive, drive: DriveTone | None, config: SimConfig):
    """(step count, step) of the RK4 run of ``integrate`` under `config`
    (``_steps``), after its two refusals: ResolutionError when config.dt
    does not resolve the fastest timescale (``max_step``), and
    ValidationError above ``MAX_STEPS`` steps. Both come before any array
    is built."""
    dt_max = max_step(*modes, pump, drive)
    if config.dt > dt_max * (1.0 + 1e-12):
        raise ResolutionError(f"dt={config.dt:.3e} s does not resolve the fastest "
                              f"timescale (need dt <= {dt_max:.3e} s)")
    n, dt = _steps(config)
    if n > MAX_STEPS:
        raise ValidationError(f"{n} RK4 steps exceed the bound of {MAX_STEPS} steps "
                              "per integration")
    return n, dt


def integrate(initial: ComplexAmplitudePair, modes, pump: PumpDrive,
              drive: DriveTone | None = None,
              config: SimConfig = SimConfig()) -> TraceRecord:
    """Fixed-step RK4 trajectory of the coupled-mode equations.

    The step is shrunk (never grown) so an integer number of steps lands
    exactly on t_end; more than ``MAX_STEPS`` steps raise ValidationError
    (``checked_steps``). Records (t, a, b, a_out) every `record_stride` steps
    plus the final point. ``rk4_run`` steps it as a run of one segment.
    """
    check_mode_order(*modes)
    n, dt = checked_steps(modes, pump, drive, config)
    t_arr = record_times(config)
    x = rk4_run([initial.a, initial.b], modes, [(pump, drive, config.t_start, n, dt)],
                _record_steps(n, config.record_stride))
    check_finite(x, t_arr)

    mode_a, mode_b = modes
    a_in = input_field(drive, mode_a, t_arr)
    a_out = a_in - math.sqrt(mode_a.gamma_ext) * x[0]
    meta = {
        "frame": "rotating",
        "dt": dt,
        "t_start": config.t_start,
        "t_end": config.t_end,
        "record_stride": config.record_stride,
        "omega_a": mode_a.omega,
        "gamma_int_a": mode_a.gamma_int,
        "gamma_ext_a": mode_a.gamma_ext,
        "omega_b": mode_b.omega,
        "gamma_int_b": mode_b.gamma_int,
        "gamma_ext_b": mode_b.gamma_ext,
        "delta": pump.delta,
        "phi_p": pump.phase,
    }
    return TraceRecord(t_arr, x[0], x[1], a_out, meta)


def check_finite(x, t):
    """Raise IntegrationDivergedError naming the first of the states `x`
    (2, len(t)), recorded at the times `t`, that is not finite."""
    bad = np.flatnonzero(~np.all(np.isfinite(x), axis=0))
    if bad.size:
        a, b = complex(x[0, bad[0]]), complex(x[1, bad[0]])
        raise IntegrationDivergedError(
            f"non-finite state at t={t[bad[0]]:.6e} s (a={a!r}, b={b!r})")


def rk4_run(x0, modes, segments, record) -> np.ndarray:
    """RK4 from the state `x0` = (a, b) through `segments`, one after the
    other: each is (pump, drive, t_start, n, dt), n steps of dt from
    t_start. Returns the states (2, 1 + len(record)): `x0`, then the
    state after each step count of `record` (increasing, counted over
    all the segments).

    The steps run in blocks of ``_BLOCK``, counted from the first step,
    that cross segment boundaries: one ``_rk4_maps`` call builds the
    affine maps of a block from the stage coefficients of every
    segment's share of it (``_block_coefficients``), and one ``_scan``
    composes them from the state the block starts in. So a block holds
    at most ``_BLOCK`` steps, however long a segment is.
    """
    mode_a, mode_b = modes
    na, nb = complex(-0.5 * mode_a.gamma_total), complex(-0.5 * mode_b.gamma_total)
    total = sum(n for _, _, _, n, _ in segments)
    x = np.empty((2, len(record) + 1), dtype=complex)
    x[:, 0] = state = np.array(x0, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # see check_finite
        for j0 in range(0, total, _BLOCK):
            j1 = min(j0 + _BLOCK, total)
            # `maps` lives on while the next block's maps are built: freed
            # first, its pages go back to the system and fault in again
            # (3.6 times the page faults over a run of 8 blocks)
            maps = _rk4_maps(na, nb, *_block_coefficients(segments, j0, j1, mode_a))
            states = _scan(maps, state)
            state = states[:, -1]
            lo, hi = np.searchsorted(record, (j0, j1), side="right")
            x[:, 1 + lo:1 + hi] = states[:, record[lo:hi] - j0 - 1]
    return x


def _block_coefficients(segments, j0, j1, mode_a):
    """(h, up, down, f) of the steps j0 to j1 - 1 of ``rk4_run``: the stage
    coefficients (``_rk4_coefficients``) of each segment's share, joined,
    and the step length, a float where one segment holds them all and an
    array of one per step otherwise."""
    steps, coeffs = [], []  # (step, count) and coefficients of each share
    first = 0  # the first step of each segment
    for pump, drive, t_start, n, dt in segments:
        lo, hi = max(j0 - first, 0), min(j1 - first, n)
        if lo < hi:
            steps.append((dt, hi - lo))
            coeffs.append(_rk4_coefficients(t_start + np.arange(lo, hi) * dt, dt,
                                            mode_a, pump, drive))
        first += n
    if len(coeffs) == 1:
        return (steps[0][0], *coeffs[0])
    return (np.repeat(*zip(*steps)), *(np.concatenate(c, axis=-1) for c in zip(*coeffs)))


def _rk4_coefficients(t, dt, mode_a, pump, drive):
    """The coefficients at the three RK4 stage times t, t + dt/2, t + dt of
    the steps of length `dt` starting at the times `t`, each as a
    (3, len(t)) array: the couplings up = -i g_P e^{+i(D t + phi_P)}
    (a <- b) and down = -i g_P e^{-i(D t + phi_P)} (b <- a), and the drive
    f = sqrt(gamma_ext) a_in.

    Where g_P = 0 (a delay, readout or load) both couplings are zeros and
    the pump phase is not evaluated. The maps of ``_rk4_maps`` keep their
    bits, signed zeros included: a zero coupling of either sign changes no
    nonzero stage value, and each map entry ends by adding its stage sum
    to 0 or 1, which turns a zero of either sign into +0."""
    stages = t + np.array([0.0, 0.5 * dt, dt])[:, None]
    f = math.sqrt(mode_a.gamma_ext) * input_field(drive, mode_a, stages)
    if pump.g == 0.0:
        zero = np.zeros(stages.shape, dtype=complex)
        return zero, zero, f
    ph = np.exp(1j * (pump.delta * stages + pump.phase))
    g = -1j * pump(stages)
    return g * ph, g * ph.conj(), f


def _rk4_maps(na, nb, h, up, down, f) -> np.ndarray:
    """The affine RK4 maps of the steps with the stage coefficients `up`,
    `down`, `f` of ``_rk4_coefficients``, the decay rates na = -gamma_A/2
    and nb = -gamma_B/2 and the step length `h` (a float, or an array of
    one per step: the arithmetic and its bits are the same), as an array
    M of shape (2, 3, steps): row r of step k gives component r of
    x_{k+1} = M[:, :2, k] x_k + M[:, 2, k].

    The classic RK4 stages run on the three columns at once: the unit
    states (1, 0) and (0, 1) without the drive, and (0, 0) with it.
    """
    half = 0.5 * h

    def rhs(s, a, b):
        da = na * a + up[s] * b
        da[2] += f[s]
        return da, nb * b + down[s] * a

    a = np.array([[1.0], [0.0], [0.0]], dtype=complex)
    b = np.array([[0.0], [1.0], [0.0]], dtype=complex)
    k1a, k1b = rhs(0, a, b)
    k2a, k2b = rhs(1, a + half * k1a, b + half * k1b)
    k3a, k3b = rhs(1, a + half * k2a, b + half * k2b)
    k4a, k4b = rhs(2, a + h * k3a, b + h * k3b)
    sixth = h / 6.0
    return np.stack((a + sixth * (k1a + 2.0 * k2a + 2.0 * k3a + k4a),
                     b + sixth * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)))


def _scan(maps: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """States (2, m) after each of the m affine steps `maps` from x0.

    Odd-even prefix scan (Blelloch, CMU-CS-90-190): compose neighbouring
    pairs of steps, solve the half-length problem for every second state,
    then take one step from each of those to fill in the rest. log2(m)
    levels of array operations and O(m) work, with no loop over steps.
    """
    m = maps.shape[-1]
    even, odd = maps[..., 0::2], maps[..., 1::2]  # steps 0, 2, ... and 1, 3, ...
    pairs = odd.shape[-1]
    before = x0[:, None]  # the states the even steps start from
    if pairs:
        first = even[..., :pairs]
        composed = odd[:, :1] * first[:1] + odd[:, 1:2] * first[1:2]
        composed[:, 2] += odd[:, 2]
        every_second = _scan(composed, x0)
        before = np.concatenate((before, every_second[:, :(m - 1) // 2]), axis=1)
    out = np.empty((2, m), dtype=complex)
    out[:, 0::2] = even[:, 0] * before[0] + even[:, 1] * before[1] + even[:, 2]
    if pairs:
        out[:, 1::2] = every_second
    return out


def integrate_checked(initial, modes, pump, drive=None,
                      config: SimConfig = SimConfig()):
    """Integrate with a mandatory half-step self-convergence check.

    Runs the trajectory at dt and dt/2 and compares the final states;
    raises ConvergenceError above config.tolerance. Returns the half-step
    trace and the measured relative difference.
    """
    coarse = integrate(initial, modes, pump, drive, config)
    fine = integrate(initial, modes, pump, drive, half_step_config(config))
    return fine, check_half_step(coarse, fine, config.tolerance)


def check_half_step(coarse: TraceRecord, fine: TraceRecord, tolerance: float) -> float:
    """Relative difference |(a, b)_coarse - (a, b)_fine| / |(a, b)_fine| of
    the final states of a run and its half-step rerun.

    Both states are first scaled by the power of two that brings the peak
    component of the fine one into [1/2, 1): exact, so the difference is
    the same, but its squares in the norms cannot underflow at tiny
    amplitudes.

    Raises ConvergenceError above `tolerance`; otherwise stores the
    difference as fine.meta["convergence_rel_diff"] and returns it.
    """
    vc = np.array([coarse.a[-1], coarse.b[-1]])
    vf = np.array([fine.a[-1], fine.b[-1]])
    shift = -math.frexp(float(np.max(np.abs(vf.view(float)))))[1]
    with np.errstate(over="ignore"):  # a coarse state far above the fine one fails below
        vc, vf = (np.ldexp(v.view(float), shift).view(complex) for v in (vc, vf))
    scale = max(float(np.linalg.norm(vf)), 1e-300)
    rel = float(np.linalg.norm(vc - vf) / scale)
    if rel > tolerance:
        raise ConvergenceError(rel, tolerance)
    fine.meta["convergence_rel_diff"] = rel
    return rel


def check_exact(a, b, rk4: TraceRecord, tolerance: float) -> float:
    """Largest |(a, b) - (a, b)_RK4| over the grid of `rk4`, relative to
    the peak exact amplitude |(a, b)|, for exact amplitudes `a`, `b`
    sampled on that grid.

    Raises ConvergenceError above `tolerance`; otherwise returns it.
    """
    peak = max(float(np.max(np.hypot(np.abs(a), np.abs(b)))), 1e-300)
    diff = float(np.max(np.hypot(np.abs(a - rk4.a), np.abs(b - rk4.b)))) / peak
    if diff > tolerance:
        raise ConvergenceError(diff, tolerance, "exact-vs-RK4 difference")
    return diff


def propagate_swap(initial: ComplexAmplitudePair, modes, g_p: float,
                   delta: float, phi_p: float, t):
    """Exact rotating-frame amplitudes under a constant pump and no drive.

    `g_p` is the pump amplitude, `delta` = w_P - (w_B - w_A) the detuning
    and `phi_p` the pump phase; the state `initial` is taken
    at time initial.t. Returns the arrays (a~(t), b~(t)) at the times `t`
    from the closed-form matrix exponential in the module docstring,
    evaluated at each time on its own (``exact_segment`` tabulates it on
    its record grid instead).
    """
    check_mode_order(*modes)
    t = np.asarray(t, dtype=float)
    a0 = complex(initial.a)
    c0 = complex(initial.b) * cmath.exp(1j * (delta * initial.t + phi_p))
    n11, ch, sh = _swap_exp(modes, g_p, delta, t - initial.t)
    a = ch * a0 + sh * (n11 * a0 - 1j * g_p * c0)
    c = ch * c0 - sh * (1j * g_p * a0 + n11 * c0)
    b = c * np.exp(-1j * (delta * t + phi_p))
    return _finite(a, b, "swap")


def _swap_exp(modes, g_p, delta, tau):
    """(n11, ch, sh) with exp(M tau) = ch I + sh N at the offsets `tau`:
    ch = e^{m tau} cosh(s tau) and sh = e^{m tau} sinh(s tau)/s, for the
    M, m, s and N = [[n11, -i g_P], [-i g_P, -n11]] of the module
    docstring."""
    mode_a, mode_b = modes
    ga2 = 0.5 * mode_a.gamma_total
    gb2 = 0.5 * mode_b.gamma_total
    m = 0.5 * (1j * delta - ga2 - gb2)
    n11 = -ga2 - m
    s = cmath.sqrt(n11 * n11 - g_p * g_p)
    if abs(s.real) * float(np.max(np.abs(tau))) < 700.0:
        em = np.exp(m * tau)
        ch = em * np.cosh(s * tau)
        sh = em * (tau if s == 0.0 else np.sinh(s * tau) / s)  # sinh(s t)/s -> t
    else:  # cosh(s t) would overflow: expand in the eigenvalues m +- s instead
        e_plus, e_minus = np.exp((m + s) * tau), np.exp((m - s) * tau)
        ch = 0.5 * (e_plus + e_minus)
        sh = (e_plus - e_minus) / (2.0 * s)
    return n11, ch, sh


def _swap_grid(initial: ComplexAmplitudePair, modes, pump: PumpDrive,
               config: SimConfig, t):
    """(a~, b~) of ``propagate_swap`` under `pump` on the grid
    `t` = ``record_times(config)``, tabulated by the addition theorem of
    the module docstring."""
    g, delta, phi = pump.g, pump.delta, pump.phase
    n, dt = _steps(config)
    last = n // config.record_stride  # t[j] = t_start + j h for j <= last
    width = math.isqrt(last) + 1  # ceil(sqrt(last + 1)) samples to a row
    rows = last // width + 1
    # the first time of each row, the off-stride last time, then i h, i < width
    tau = np.concatenate((t[:last + 1:width], t[last + 1:],
                          (np.arange(width) * config.record_stride) * dt))
    k = len(tau) - width
    angle = delta * tau
    angle[:k] += phi
    tau[:k] -= initial.t
    n11, ch, sh = _swap_exp(modes, g, delta, tau)
    table = np.array((ch, sh))
    turn = np.exp(-1j * angle)
    # exp(M tau) x0 = ch x0 + sh N x0 and N exp(M tau) x0 = ch N x0 + sh s^2 x0
    a0 = complex(initial.a)
    c0 = complex(initial.b) * cmath.exp(1j * (delta * initial.t + phi))
    u0, v0, s2 = n11 * a0 - 1j * g * c0, -(1j * g * a0 + n11 * c0), n11 * n11 - g * g
    start = table[:, :k].T @ np.array([[a0, u0, c0, v0], [u0, s2 * a0, v0, s2 * c0]])
    start[:, 2:] *= turn[:k, None]  # (a, (N x)_a, b, (N x)_c e^{-i(D t + phi_P)})
    # row q, column i: the state at the row's start moved on by exp(M i h),
    # and b turned by the column's factor of the rotation
    step = np.stack((table[:, k:], table[:, k:] * turn[k:]))
    x = (start[:rows].reshape(rows, 2, 2).transpose(1, 0, 2) @ step).reshape(2, -1)
    x = np.concatenate((x[:, :last + 1], start[rows:, ::2].T), axis=1)
    return _finite(x[0], x[1], "swap")


def propagate_load(initial: ComplexAmplitudePair, modes, drive: DriveTone, t):
    """Exact rotating-frame amplitudes under the drive tone `drive` and no
    pump; the drive must be on over all of `t`.

    With gamma = gamma_A/2, f = sqrt(gamma_ext) amp_in, D = w_d - w_A,
    z = gamma - iD and tau = t - initial.t,

        a~(t) = a0 e^{-gamma tau} + f e^{-i phi} e^{-iD t} tau h(z tau),

    where h(w) = (1 - e^{-w})/w and h(0) = 1, and b~ decays freely.
    Returns the arrays (a~(t), b~(t)).
    """
    mode_a, mode_b = modes
    check_mode_order(mode_a, mode_b)
    t = np.asarray(t, dtype=float)
    if np.any(t < drive.t_start) or np.any(t > drive.t_stop):
        raise ValidationError("propagate_load needs the drive on over all sample times")
    tau = t - initial.t
    ga2 = 0.5 * mode_a.gamma_total
    dw = drive.omega_d - mode_a.omega
    w = (ga2 - 1j * dw) * tau
    nonzero = w != 0.0
    w_safe = np.where(nonzero, w, 1.0)
    h = np.where(nonzero, -np.expm1(-w_safe) / w_safe, 1.0)
    f = math.sqrt(mode_a.gamma_ext) * drive.amp_in
    a = (complex(initial.a) * np.exp(-ga2 * tau)
         + f * np.exp(-1j * (dw * t + drive.phase)) * tau * h)
    b = complex(initial.b) * np.exp(-0.5 * mode_b.gamma_total * tau)
    return _finite(a, b, "load")


def _finite(a, b, what):
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise IntegrationDivergedError(f"non-finite exact {what} amplitudes")
    return a, b


def reflection_spectrum(mode_a: ModeParams, mode_b: ModeParams,
                        pump: PumpDrive, probe_omegas) -> np.ndarray:
    """Steady-state reflection coefficient of the readout port under a CW pump.

    Solves the linear rotating-frame steady state under a weak probe at
    each frequency and returns Gamma(w) = a_out/a_in. For g_P = 0 this is
    the standard single-port Lorentzian 1 - gamma_ext / (i(w_A - w) + gamma_A/2).
    """
    check_mode_order(mode_a, mode_b)
    if not pump.is_cw:
        raise ValidationError("reflection_spectrum requires a CW pump envelope")
    g = pump.g
    w = np.asarray(probe_omegas, dtype=float)

    chi_a_inv = 1j * (mode_a.omega - w) + 0.5 * mode_a.gamma_total
    if g == 0.0:
        denom = chi_a_inv
    else:
        chi_b_inv = 1j * ((mode_a.omega - w) - pump.delta) + 0.5 * mode_b.gamma_total
        if np.any(chi_b_inv == 0.0):
            raise SingularSteadyStateError(
                "undamped storage mode exactly on the converted probe frequency")
        denom = chi_a_inv + g * g / chi_b_inv
    if np.any(denom == 0.0):
        raise SingularSteadyStateError(
            "undamped readout mode exactly on the probe frequency")
    return 1.0 - mode_a.gamma_ext / denom
