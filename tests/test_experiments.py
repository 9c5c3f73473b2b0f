import math
import os
import re
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cavityswap import analysis, cli, dynamics, experiments, fluxmap, sequences, textio
from cavityswap.cli import main
from cavityswap.core import ComplexAmplitudePair, PumpDrive, ValidationError
from cavityswap.dynamics import (SimConfig, TraceRecord, _reflection_at, check_exact,
                                 exact_segment, half_step_config, integrate_checked,
                                 max_step, rabi_frequency, swap_coupling_sq)
from cavityswap.experiments import (RUNNERS, parse_config_file, resolve_config,
                                    run_chevron, run_phase_sweep,
                                    run_power_sweep, run_splitting,
                                    run_store_retrieve)
from cavityswap.sequences import emit_sequence, parse_sequence

TWO_PI = 2.0 * math.pi


class TestConfigResolution:
    def test_defaults(self):
        cfg = resolve_config("splitting")
        assert cfg["freq_a"] == pytest.approx(TWO_PI * 8.70e9)
        assert cfg["q_int_a"] == 900e3
        assert cfg["t1_b"] == 14.9e-6
        assert cfg["pump_power"] == -52.0
        assert cfg["jobs"] == 1

    def test_string_overrides_carry_units(self):
        cfg = resolve_config("splitting", {"freq_a": "8.5GHz",
                                           "pump_power": "-46dBm",
                                           "probe_count": "101"})
        assert cfg["freq_a"] == pytest.approx(TWO_PI * 8.5e9)
        assert cfg["pump_power"] == -46.0
        assert cfg["probe_count"] == 101

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown config key"):
            resolve_config("splitting", {"bogus": "1"})

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValidationError, match="freq"):
            resolve_config("splitting", {"freq_a": "8.5us"})

    def test_non_integer_count_rejected(self):
        with pytest.raises(ValidationError, match="integer"):
            resolve_config("splitting", {"probe_count": "10.5"})

    def test_sweep_counts_must_be_at_least_two(self):
        with pytest.raises(ValidationError, match="sweep count"):
            resolve_config("splitting", {"probe_count": "1"})

    @pytest.mark.parametrize("runner,key", [
        ("splitting", "probe_count"), ("splitting", "pump_count"),
        ("chevron", "delta_count"), ("power_sweep", "power_count"),
        ("store_retrieve", "delay_count"), ("phase_sweep", "phase_count")])
    def test_sweep_counts_are_bounded(self, runner, key):
        # the bound itself resolves; one more is refused, naming key and bound
        assert resolve_config(runner, {key: "1e5"})[key] == 100_000
        with pytest.raises(ValidationError,
                           match=f"sweep count {key} must be <= 100000, got 100001"):
            resolve_config(runner, {key: "100001"})

    def test_determinism_cannot_be_disabled(self):
        with pytest.raises(ValidationError, match="deterministic"):
            resolve_config("splitting", {"deterministic": "false"})

    def test_unknown_runner_rejected(self):
        with pytest.raises(ValidationError):
            resolve_config("resonance_fluorescence")

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# a comment\nfreq_a = 8.5GHz\n\nprobe_count=101 # inline\n")
        overrides = parse_config_file(path)
        assert overrides == {"freq_a": "8.5GHz", "probe_count": "101"}

    def test_config_file_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("freq_a 8.5GHz\n")
        with pytest.raises(ValidationError, match="key = value"):
            parse_config_file(path)

    def test_config_file_rejects_duplicate_keys(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("gp = 1MHz\n# comment\ngp = 2MHz\n")
        with pytest.raises(ValidationError, match="dup.txt:3: duplicate key 'gp'"):
            parse_config_file(path)

    def test_mode_b_must_lie_above_mode_a(self):
        with pytest.raises(ValidationError, match="must lie above"):
            resolve_config("chevron", {"freq_a": "9.33GHz", "freq_b": "8.7GHz"})


SMALL_SPLITTING = {"probe_count": "201", "pump_count": "3"}
SMALL_CHEVRON = {"delta_count": "5", "t_end": "4us"}
SMALL_POWER = {"power_count": "5", "n_cycles": "3"}
SMALL_SR = {"delay_count": "4", "delay_stop": "16us"}
SMALL_PHASE = {"phase_count": "8", "delay": "2us"}
SEQ = ("mode A freq=8.7GHz q_int=900e3 q_ext=50e3\n"
       "mode B freq=9.33GHz t1=14.9us\n"
       "seg load dur=5us nbar=4\n"
       "seg swap dur=0.2us gp=1.2MHz delta=0Hz phase=0deg\n"
       "seg readout dur=2us\n")


class _ReadRecorder(dict):
    """A config dict that records the keys read from it while `on`."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()
        self.on = True

    def __getitem__(self, key):
        if self.on:
            self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        if self.on:
            self.read.add(key)
        return super().get(key, default)


class TestSchemas:
    @pytest.mark.parametrize("runner,small", [
        ("splitting", SMALL_SPLITTING), ("chevron", SMALL_CHEVRON),
        ("power_sweep", SMALL_POWER), ("store_retrieve", SMALL_SR),
        ("phase_sweep", SMALL_PHASE), ("custom_sequence", None)])
    def test_every_key_is_read(self, tmp_path, monkeypatch, runner, small):
        # a key the runner never reads, outside the report that lists the
        # config, cannot change its output; `jobs` is the one exception: it
        # accepts only 1 and stays for configs that still set it
        if small is None:
            seq = tmp_path / "seq.txt"
            seq.write_text(SEQ)
            small = {"sequence": str(seq)}
        cfg = _ReadRecorder(resolve_config(runner, small))
        write_report = experiments._write_report

        def unrecorded(outdir, name, config, results):
            config.on = False
            return write_report(outdir, name, config, results)

        monkeypatch.setattr(experiments, "_write_report", unrecorded)
        RUNNERS[runner](cfg, tmp_path / "out")
        assert cfg.read == set(experiments.runner_schema(runner)) - {"jobs"}


class TestSplittingRunner:
    def test_dip_separation_and_outputs(self, tmp_path):
        cfg = resolve_config("splitting", SMALL_SPLITTING)
        results = run_splitting(cfg, tmp_path)
        assert results["dip_separation_hz"] == pytest.approx(2.4e6, rel=0.05)
        assert results["dip_count"] == 2
        assert (tmp_path / "spectrum.csv").exists()
        assert (tmp_path / "report.txt").exists()

    def test_csv_has_hash_header_block(self, tmp_path):
        run_splitting(resolve_config("splitting", SMALL_SPLITTING), tmp_path)
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert lines[0].startswith("# ")
        k = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[k] == "pump_detuning_hz,probe_offset_hz,reflection_abs"

    def test_report_contains_resolved_config(self, tmp_path):
        run_splitting(resolve_config("splitting", SMALL_SPLITTING), tmp_path)
        report = (tmp_path / "report.txt").read_text()
        assert "runner = splitting" in report
        assert "config.freq_a = 8700000000Hz" in report
        assert "result.dip_separation_hz" in report


def _splitting_grid(cfg):
    """(pump detunings, probe offsets, |r| of every pump row) of a
    splitting run, each row evaluated directly at the offsets: the mirrored
    grid of the runner's docstring, built here from its definition."""
    mode_a, mode_b = experiments._modes(cfg)
    g = experiments._resolve_gp(cfg)

    def mirrored(n):
        upper = np.linspace(0.5 * (1 - n % 2) / (n - 1), 0.5, (n + 1) // 2)
        return np.concatenate((-upper[::-1][:n // 2], upper))

    pump_deltas = mirrored(cfg["pump_count"]) * cfg["pump_span"]
    offsets = mirrored(cfg["probe_count"]) * cfg["probe_span"]
    assert np.array_equal(pump_deltas, -pump_deltas[::-1])
    assert np.array_equal(offsets, -offsets[::-1])
    mags = np.array([np.abs(_reflection_at(mode_a, mode_b, PumpDrive(g, delta), offsets))
                     for delta in pump_deltas])
    return pump_deltas, offsets, mags


class TestSplittingGrid:
    """The splitting grid is its own mirror image: the runner evaluates and
    formats half of it."""

    @settings(derandomize=True, max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(freq_a_ghz=st.floats(8.0, 9.5), gap_ghz=st.floats(0.05, 2.0),
           q_int=st.floats(1e4, 1e7), q_ext=st.floats(1e3, 1e6), t1_us=st.floats(0.5, 100.0),
           probe_count=st.integers(4, 60), pump_count=st.integers(2, 60),
           probe_mhz=st.floats(0.5, 20.0), probe_sign=st.sampled_from([1.0, -1.0]),
           pump_mhz=st.sampled_from([0.0, -3.0]) | st.floats(-20.0, 20.0),
           gp_share=st.just(0.0) | st.floats(0.01, 0.95))
    def test_spectrum_is_the_mirrored_half(self, tmp_path, freq_a_ghz, gap_ghz, q_int, q_ext,
                                           t1_us, probe_count, pump_count, probe_mhz,
                                           probe_sign, pump_mhz, gp_share):
        # g_P up to 95% of the most the probe span holds (see run_splitting);
        # g_P = 0 through a pump power whose coupling is 0 (the flux curves
        # calibrate for a readout mode from 8 GHz up)
        most = probe_mhz * (0.5 - 1.0 / (probe_count - 1))
        gp = {"gp": TWO_PI * 1e6 * gp_share * most} if gp_share else {"pump_power": "-8000dBm"}
        cfg = resolve_config("splitting", {
            "freq_a": TWO_PI * 1e9 * freq_a_ghz, "freq_b": TWO_PI * 1e9 * (freq_a_ghz + gap_ghz),
            "q_int_a": q_int, "q_ext_a": q_ext, "t1_b": 1e-6 * t1_us,
            "probe_count": probe_count, "pump_count": pump_count,
            "probe_span": TWO_PI * 1e6 * probe_sign * probe_mhz,
            "pump_span": TWO_PI * 1e6 * pump_mhz, **gp})
        run_splitting(cfg, tmp_path)
        pump_deltas, offsets, mags = _splitting_grid(cfg)
        n = mags.size
        cell = np.arange(n)
        mirrored = mags.ravel()[np.minimum(cell, n - 1 - cell)]
        pump_cells, probe_cells = pump_deltas[cell // probe_count], offsets[cell % probe_count]
        assert _data_text(tmp_path / "spectrum.csv") == _per_cell_text(
            [pump_cells / TWO_PI, probe_cells / TWO_PI, mirrored])
        # the direct evaluation of every cell: exact on both axes, and
        # within 4 ulps on |r| (bit for bit on numpy's complex arithmetic)
        data = np.array(_csv_rows(tmp_path / "spectrum.csv"), dtype=float)
        assert np.array_equal(data[:, 0], pump_cells / TWO_PI)
        assert np.array_equal(data[:, 1], probe_cells / TWO_PI)
        assert np.all(np.abs(data[:, 2] - mags.ravel()) <= 4 * np.spacing(mags.ravel()))

    def test_even_pump_count_reads_the_zero_detuning_spectrum(self, tmp_path):
        # no pump row sits at delta = 0: the dips come from the closed form
        # there, not from the grid, so an even count reads what an odd one does
        even = run_splitting(resolve_config("splitting", {"pump_count": "2"}), tmp_path / "2")
        odd = run_splitting(resolve_config("splitting", {"pump_count": "3"}), tmp_path / "3")
        assert even["dip_count"] == 2
        assert even["dip_separation_hz"] == pytest.approx(even["expected_splitting_hz"],
                                                          rel=0.01)
        assert even == odd
        # that evaluation is not written: two rows of probes
        assert len(_csv_rows(tmp_path / "2" / "spectrum.csv")) == 2 * 801

    @pytest.mark.parametrize("probe_count", [800, 801])
    def test_uncoupled_dip_counts_once(self, tmp_path, probe_count):
        # g_P = 0: one Lorentzian dip at w_A, whose bottom at an even count
        # is two equal samples either side of it
        cfg = resolve_config("splitting", {"pump_power": "-8000dBm",
                                           "probe_count": str(probe_count)})
        results = run_splitting(cfg, tmp_path)
        center = _splitting_grid(cfg)[2][cfg["pump_count"] // 2]
        mid = probe_count // 2
        assert (center[mid - 1] == center[mid]) == (probe_count % 2 == 0)
        assert results["dip_count"] == 1
        assert results["dip_separation_hz"] == 0.0

    # the dense-grid oracle of TestSplittingDips reads a minimum as a run of
    # equal samples below both neighbours, at the run's middle
    @pytest.mark.parametrize("mag,runs", [
        ([3.0, 1.0, 3.0], [(1, 1)]),
        ([3.0, 1.0, 1.0, 3.0], [(1, 2)]),
        ([3.0, 1.0, 1.0, 1.0, 2.0, 0.5, 4.0], [(1, 3), (5, 5)]),
        ([1.0, 1.0, 2.0], []),  # a run at the edge has no smaller neighbour to its left
        ([2.0, 1.0, 1.0], []),
        ([3.0, 2.0, 2.0, 1.0, 3.0], [(3, 3)]),  # a shelf on the way down
        ([1.0, 1.0, 1.0], []),
    ])
    def test_local_minima_are_runs(self, mag, runs):
        mag = np.array(mag)
        deepest_first = sorted(runs, key=lambda run: (mag[run[0]], run[0]))
        expected = [0.5 * (first + last) for first, last in deepest_first]
        assert _grid_minima(np.arange(float(mag.size)), mag).tolist() == expected

    def test_flat_bottomed_dips_sit_at_their_middle(self):
        omegas = np.arange(9.0)
        mag = np.array([5.0, 2.0, 1.0, 1.0, 4.0, 1.0, 1.0, 2.0, 5.0])
        assert _separation(_grid_minima(omegas, mag)) == 3.0


def _grid_minima(x, mag):
    """The interior local minima of `mag` on the grid `x`: each a run of
    equal samples lower than both neighbours, at the middle of its run, the
    deepest first (of two equally deep, the lower x first)."""
    edges = np.flatnonzero(mag[1:] != mag[:-1])
    first = np.concatenate(([0], edges + 1))
    last = np.concatenate((edges, [mag.size - 1]))
    level = mag[first]
    lower = np.flatnonzero((level[1:-1] < level[:-2]) & (level[1:-1] < level[2:])) + 1
    where = 0.5 * (x[first[lower]] + x[last[lower]])
    return where[np.lexsort((where, level[lower]))]


def _separation(dips):
    return abs(dips[1] - dips[0]) if dips.size > 1 else 0.0


class TestSplittingDips:
    """dip_count and dip_separation_hz are read from the minima of the
    closed-form |r| at delta = 0 (``dynamics._reflection_dips``); a dense
    grid of ``_reflection_at`` is the oracle."""

    def test_defaults_sit_at_the_closed_form_minima(self, tmp_path):
        results = run_splitting(resolve_config("splitting"), tmp_path)
        assert results["dip_count"] == 2
        assert results["dip_separation_hz"] == pytest.approx(2398342.248, abs=1e-3)
        # within one probe spacing (10 kHz) of the parabola through three
        # samples of the probe grid that the runner used to read
        assert abs(results["dip_separation_hz"] - 2398413.146) < 10e3

    # the default modes around the g_P where their two dips merge into one
    # (319740.766 rad/s, 0.5541378 gamma_A/2): 1e-6 above it the dips sit at
    # +-9.4e-4 gamma_A/2, 4.7 grid spacings from 0; 1e-9 above it at 0.15
    # spacings; 1e-9 below it there is one dip
    @example(q_int=900e3, q_ext=50e3, log_t1=math.log10(14.9e-6),
             gp_share=0.5541378235089173 * (1 + 1e-6))
    @example(q_int=900e3, q_ext=50e3, log_t1=math.log10(14.9e-6),
             gp_share=0.5541378235089173 * (1 + 1e-9))
    @example(q_int=900e3, q_ext=50e3, log_t1=math.log10(14.9e-6),
             gp_share=0.5541378235089173 * (1 - 1e-9))
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(q_int=st.floats(1e4, 1e7), q_ext=st.floats(1e3, 1e6), log_t1=st.floats(-7.0, 12.0),
           gp_share=st.just(0.0) | st.floats(-3.0, 1.0).map(lambda e: 10.0 ** e))
    def test_minima_match_a_dense_grid(self, q_int, q_ext, log_t1, gp_share):
        cfg = resolve_config("splitting", {"q_int_a": q_int, "q_ext_a": q_ext,
                                           "t1_b": 10.0 ** log_t1})
        mode_a, mode_b = experiments._modes(cfg)
        g = gp_share * 0.5 * mode_a.gamma_total
        dips = dynamics._reflection_dips(mode_a, mode_b, g)

        def mag(x):
            return np.abs(_reflection_at(mode_a, mode_b, PumpDrive(g, 0.0), np.asarray(x)))

        # every minimum lies within |x| <= max(g_P, gamma_A/2) + gamma_A/2: a
        # grid of 2 M + 1 probes over twice that span holds them all
        span = 2.0 * (max(g, 0.5 * mode_a.gamma_total) + 0.5 * mode_a.gamma_total)
        m = 20_000
        h = span / m
        x = h * np.arange(-m, m + 1)
        grid = _grid_minima(x, mag(x))
        # |r| = |1 - gamma_ext/denom| is rounded to about eps (1 + |r|)
        rounding = 8.0 * np.finfo(float).eps * (1.0 + mag(dips))
        assert np.all(np.abs(dips) < 0.5 * span)
        # one dip at x = 0 or a mirrored pair, as |r| is even in x
        assert (dips.size == 1 and dips[0] == 0.0) or \
            (dips.size == 2 and abs(dips[0] + dips[1]) <= 1e-12 * span)
        for eps in (h, 1e-3 * h):
            assert np.all(mag(dips) <= np.minimum(mag(dips - eps), mag(dips + eps)) + rounding)
        if grid.size == dips.size:
            # a grid minimum lies within a spacing of its closed-form one
            assert abs(_separation(grid) - _separation(dips)) <= 2.0 * h
        else:
            # near the g_P where two dips merge, |r|^2 = r0 + alpha x^2 +
            # beta x^4 with alpha -> 0: the dips at +-x0 = +-sqrt(-alpha/2 beta)
            # rise beta x0^4 to the centre. The grid splits them only where a
            # probe lies between them (x0 > h) and that rise exceeds the
            # rounding of |r|; otherwise it sees one dip. So the counts may
            # differ only where both separations are within two spacings, or
            # where |r| at the centre rises above the closed-form dips by no
            # more than the rounding.
            assert max(_separation(grid), _separation(dips)) <= 2.0 * h or \
                mag([0.0])[0] - mag(dips[:1])[0] <= rounding[0]


class TestChevronRunner:
    def test_ridge_and_fit(self, tmp_path):
        cfg = resolve_config("chevron", SMALL_CHEVRON)
        results = run_chevron(cfg, tmp_path)
        assert results["gp_fit_hz"] == pytest.approx(1.2e6, rel=0.02)
        assert results["model_rms_rel"] < 0.02
        assert results["ridge_min_hz"] == pytest.approx(2.4e6, rel=0.02)
        assert results["convergence_rel_diff"] < 1e-8

    def test_repeated_runs_byte_identical(self, tmp_path):
        cfg = resolve_config("chevron", SMALL_CHEVRON)
        run_chevron(cfg, tmp_path / "a")
        run_chevron(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "report.txt").read_bytes() == \
            (tmp_path / "b" / "report.txt").read_bytes()

    def test_tiny_normal_occupancy_gives_the_same_fit(self, tmp_path):
        # the equations are linear: nbar scales every energy and no frequency
        fits = [run_chevron(resolve_config("chevron", {"nbar": nbar, "delta_count": "3",
                                                       "t_end": "2us"}),
                            tmp_path / nbar)["gp_fit_hz"] for nbar in ("1", "1e-300")]
        assert fits[1] == pytest.approx(fits[0], rel=1e-9)

    def test_ridge_mirrors_in_detuning(self, tmp_path):
        # conjugating the equations (with b -> -b) maps +delta onto -delta:
        # the ridge of a symmetric detuning grid is its own reverse, bit for bit
        run_chevron(resolve_config("chevron", SMALL_CHEVRON), tmp_path)
        ridge = np.array(_csv_rows(tmp_path / "chevron_ridge.csv"), dtype=float)[:, 1]
        assert ridge.size == 5
        assert np.array_equal(ridge, ridge[::-1])

    def test_lab_frame_is_rejected(self):
        # energies are frame-independent: chevron has no frame setting
        with pytest.raises(ValidationError, match="unknown config key 'frame'"):
            resolve_config("chevron", dict(SMALL_CHEVRON, frame="lab"))


def _csv_rows(path, names=False):
    """The rows of a runner CSV as lists of cells, after its column names
    (or from them, with `names`)."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return [line.split(",") for line in lines[not names:]]


def _rk4_swap_trace(cfg, g, delta, t_end, amp0):
    """The integrate_checked path chevron and power_sweep ran on every sweep
    point before their closed form: the oracle for the exact traces."""
    mode_a, mode_b = experiments._modes(cfg)
    pump = PumpDrive(g, delta, 0.0, -1.0, 2.0 * t_end)
    omega_fast = math.sqrt(delta * delta + 4.0 * g * g)
    dt = TWO_PI / (cfg["points_per_cycle"] * max(omega_fast, mode_a.gamma_total))
    stride = max(1, int(math.ceil(t_end / dt)) // 4096)
    config = SimConfig(dt, t_end, 0.0, stride)
    init = ComplexAmplitudePair(complex(amp0), 0.0j, 0.0)
    trace, _ = integrate_checked(init, (mode_a, mode_b), pump, None, config, cfg["tolerance"])
    return trace


class TestExactSweepsMatchRk4:
    def test_chevron(self, tmp_path):
        cfg = resolve_config("chevron", SMALL_CHEVRON)
        results = run_chevron(cfg, tmp_path)
        g = experiments._resolve_gp(cfg)
        deltas = np.linspace(-0.5, 0.5, cfg["delta_count"]) * cfg["delta_span"]
        old_rows = []
        for delta in deltas:
            trace = _rk4_swap_trace(cfg, g, delta, cfg["t_end"], math.sqrt(cfg["nbar"]))
            ea, dt_rec, _ = experiments._swap_energies(trace)
            old_rows += [(delta / TWO_PI, k * dt_rec, e) for k, e in enumerate(ea)]
        new_rows = _csv_rows(tmp_path / "chevron_map.csv")
        assert [r[:2] for r in new_rows] == \
            [[f"{d:.17g}", f"{t:.17g}"] for d, t, _ in old_rows]
        old_e = np.array([e for _, _, e in old_rows])
        new_e = np.array([float(r[2]) for r in new_rows])
        assert np.max(np.abs(new_e - old_e)) <= 1e-10 * np.max(old_e)
        assert 0.0 < results["exact_rk4_max_diff"] < 1e-9
        assert 0.0 < results["convergence_rel_diff"] < 1e-8

    def test_power_sweep(self, tmp_path):
        cfg = resolve_config("power_sweep", SMALL_POWER)
        results = run_power_sweep(cfg, tmp_path)
        curve_a, curve_b, coupler = fluxmap.calibrated_curves(
            omega_a=cfg["freq_a"], omega_b=cfg["freq_b"])
        powers = np.linspace(cfg["power_start"], cfg["power_stop"], cfg["power_count"])
        new_rows = _csv_rows(tmp_path / "power_sweep.csv")
        for p, row in zip(powers, new_rows):
            g = fluxmap.coupling_rate(curve_a, curve_b, replace(
                coupler, delta_phi=fluxmap.pump_power_to_flux(p, cfg["flux_calib"])))
            t_end = cfg["n_cycles"] * TWO_PI / (2.0 * g)
            old = _rk4_swap_trace(cfg, g, 0.0, t_end, 1.0)
            new = experiments.run_plan(*experiments._swap_problem(cfg, g, 0.0, t_end, 1.0))
            assert np.array_equal(new.t, old.t)
            assert np.max(np.abs(new.energy_a - old.energy_a)) <= 1e-10
            ea, dt_rec, _ = experiments._swap_energies(old)
            omega_old = experiments.oscillation_frequency(ea, dt_rec, 2.0 * g, cfg["tolerance"])
            g_old = math.sqrt(swap_coupling_sq(experiments._modes(cfg), omega_old, 0.0))
            assert row[:3] == [f"{p:.17g}", f"{math.sqrt(10.0 ** (p / 10.0)):.17g}",
                               f"{g / TWO_PI:.17g}"]
            assert float(row[3]) == pytest.approx(g_old / TWO_PI, rel=1e-12)
        assert 0.0 < results["exact_rk4_max_diff"] < 1e-9
        assert 0.0 < results["convergence_rel_diff"] < 1e-8


    def test_scaled_carrier_oracle_point(self, tmp_path):
        # a chevron at scaled-down carriers and strong loss keeps its RK4 oracle
        cfg = resolve_config("chevron", {
            "freq_a": "20MHz", "freq_b": "35MHz", "q_int_a": "1e3", "q_ext_a": "1e3",
            "gp": "1.2MHz", "delta_count": "3", "delta_span": "1MHz",
            "t_end": "0.5us", "points_per_cycle": "8000"})
        results = run_chevron(cfg, tmp_path)
        assert 0.0 < results["exact_rk4_max_diff"] < 1e-8


def _per_cell_text(columns):
    """The CSV rows of `columns` formatted cell by cell: the writer's oracle."""
    return "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in zip(*columns))


_SPECIAL_FLOATS = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300]


class TestCsvWriter:
    def test_matches_per_cell_formatting(self, tmp_path):
        columns = [
            [1, np.float64(0.1), np.float32(0.1), True],
            [-0.0, np.int64(-7), 2**60, 5e-324],
            [float("inf"), float("nan"), -float("inf"), np.float64(-2.5e-17)],
            [1e300, np.int32(3), 1e300, np.int32(3)],
        ]
        experiments._write_csv(tmp_path / "out.csv", ["a = 1"], ["v", "w", "x", "y"], columns)
        expected = "# a = 1\nv,w,x,y\n" + _per_cell_text(columns)
        assert (tmp_path / "out.csv").read_text() == expected

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="equal lengths"):
            experiments._write_csv(tmp_path / "out.csv", [], ["x", "y"], [[1.0], [1.0, 2.0]])

    @pytest.mark.parametrize("n", [3, 4, 5, 11])  # around and across a block of 4
    @settings(derandomize=True, max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_blocks_match_per_cell_formatting(self, tmp_path, monkeypatch, n, data):
        monkeypatch.setattr(textio, "_CSV_BLOCK", 4)
        floats = st.sampled_from(_SPECIAL_FLOATS) | st.floats()
        columns = []
        for _ in range(data.draw(st.integers(1, 4))):
            col = data.draw(st.lists(floats, min_size=n, max_size=n))
            columns.append(np.array(col) if data.draw(st.booleans()) else col)
        path = tmp_path / "out.csv"
        experiments._write_csv(path, [], [f"c{k}" for k in range(len(columns))], columns)
        header = ",".join(f"c{k}" for k in range(len(columns))) + "\n"
        assert path.read_text() == header + _per_cell_text(columns)


    @settings(derandomize=True, max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_row_groups_match_the_expanded_columns(self, tmp_path, monkeypatch, data):
        # groups of 1-3 float columns, some used twice or more and some not
        # at all, each block of rows a few rows or one
        monkeypatch.setattr(textio, "_CSV_BLOCK", data.draw(st.integers(1, 5)))
        floats = st.sampled_from(_SPECIAL_FLOATS) | st.floats()
        width = data.draw(st.integers(1, 3))
        groups = [[data.draw(st.lists(floats, min_size=n, max_size=n)) for _ in range(width)]
                  for n in data.draw(st.lists(st.integers(0, 6), min_size=1, max_size=4))]
        order = data.draw(st.lists(st.integers(0, len(groups) - 1), max_size=6))
        keys = data.draw(st.lists(floats, min_size=len(order), max_size=len(order)))
        colnames = ["key"] + [f"c{k}" for k in range(width)]
        textio.write_row_groups(tmp_path / "groups.csv", ["a = 1"], colnames, np.array(keys),
                                [[np.array(col) for col in group] for group in groups], order)
        expanded = [[key for key, j in zip(keys, order) for _ in groups[j][0]]]
        expanded += [[v for j in order for v in groups[j][c]] for c in range(width)]
        textio.write_csv(tmp_path / "columns.csv", ["a = 1"], colnames, expanded)
        assert (tmp_path / "groups.csv").read_bytes() == (tmp_path / "columns.csv").read_bytes()

    @pytest.mark.parametrize("keys,order", [([1.0, 2.0], [0]), ([1.0], [0, 0]),
                                            ([1.0], [2]), ([1.0], [-1])])
    def test_row_groups_refused(self, tmp_path, keys, order):
        groups = [([0.5], [1.5]), ([2.5], [3.5])]
        with pytest.raises(ValidationError, match="one key per group"):
            textio.write_row_groups(tmp_path / "out.csv", [], ["k", "x", "y"], keys, groups,
                                    order)

    def test_trace_blocks_bound_each_kernel_call(self, tmp_path, monkeypatch):
        # a 7-column trace with more than 2 * _CSV_BLOCK cells passes the
        # cell kernel at most that many a call, and writes the cells of
        # per-cell '%.17g'
        sizes = []
        float_cells = textio._float_cells

        def counting(x, last):
            sizes.append(np.size(x))
            return float_cells(x, last)

        seq = tmp_path / "seq.txt"
        seq.write_text(SEQ.replace("seg readout dur=2us", "seg readout dur=16us"))
        monkeypatch.setattr(textio, "_float_cells", counting)
        experiments.run_custom_sequence(resolve_config("custom_sequence", {"sequence": str(seq)}),
                                        tmp_path)
        trace = TraceRecord.from_csv(tmp_path / "trace.csv")
        assert 7 * trace.t.size > 2 * textio._CSV_BLOCK
        assert sizes and max(sizes) <= 2 * textio._CSV_BLOCK
        columns = [trace.t, trace.a.real, trace.a.imag, trace.b.real, trace.b.imag,
                   trace.a_out.real, trace.a_out.imag]
        header = "t_s,re_a,im_a,re_b,im_b,re_aout,im_aout\n"
        assert (tmp_path / "trace.csv").read_text() == header + _per_cell_text(columns)


def _data_text(path):
    """The rows of a runner CSV, without its header block and column names."""
    lines = [line for line in path.read_text().splitlines(keepends=True)
             if not line.startswith("#")]
    return "".join(lines[1:])


class TestAxisColumns:
    """The runners format each sweep-axis value once; their CSVs must equal
    the text of the former per-row loop over the same data."""

    def test_splitting(self, tmp_path, monkeypatch):
        monkeypatch.setattr(textio, "_CSV_BLOCK", 100)
        cfg = resolve_config("splitting", SMALL_SPLITTING)
        run_splitting(cfg, tmp_path)
        # the runner evaluates the first ceil(P/2) pump rows; this oracle
        # reads each later row as the reverse of its mirror row
        pump_deltas, offsets, mags = _splitting_grid(cfg)
        half = (pump_deltas.size + 1) // 2
        rows = []
        for k, delta in enumerate(pump_deltas):
            mag = mags[k] if k < half else mags[-1 - k][::-1]
            for x, m in zip(offsets, mag):
                rows.append("%.17g,%.17g,%.17g\n" % (delta / TWO_PI, x / TWO_PI, m))
        assert _data_text(tmp_path / "spectrum.csv") == "".join(rows)

    @pytest.mark.parametrize("overrides,distinct", [
        ({}, 3),
        ({"delta_count": "4"}, 2),  # even: no zero detuning
        ({"delta_count": "2"}, 1),  # even, and the oracle point mirrors the other one
        # linspace(-0.5, 0.5, 7) puts two mirror pairs 1 ulp apart; this grid none
        ({"delta_count": "7", "delta_span": "3.3MHz"}, 4),
        ({"delta_span": "-8MHz"}, 3),
    ], ids=["count5", "count4", "count2", "count7-span3.3MHz", "count5-negative-span"])
    def test_chevron(self, tmp_path, monkeypatch, overrides, distinct):
        # the runner computes each |delta| once; this oracle computes every
        # point, and `distinct` counts the |delta| that are equal bit for bit
        monkeypatch.setattr(textio, "_CSV_BLOCK", 1000)
        cfg = resolve_config("chevron", {**SMALL_CHEVRON, **overrides})
        run_chevron(cfg, tmp_path)
        g = experiments._resolve_gp(cfg)
        # the grid's lower half is its negated upper half, so each mirror
        # pair has the same |delta| bit for bit
        n = cfg["delta_count"]
        upper = np.linspace(0.5 * (1 - n % 2) / (n - 1), 0.5, (n + 1) // 2)
        deltas = np.concatenate((-upper[::-1][:n // 2], upper)) * cfg["delta_span"]
        assert len({abs(delta) for delta in deltas}) == distinct
        map_rows = []
        ridge_rows = []
        for delta in deltas:
            trace = experiments.run_plan(*experiments._swap_problem(
                cfg, g, delta, cfg["t_end"], math.sqrt(cfg["nbar"])))
            ea, dt_rec, _ = experiments._swap_energies(trace)
            omega_e = experiments.oscillation_frequency(ea, dt_rec, rabi_frequency(delta, g),
                                                        cfg["tolerance"])
            ridge_rows.append("%.17g,%.17g\n" % (delta / TWO_PI, omega_e / TWO_PI))
            for k, e in enumerate(ea):
                map_rows.append("%.17g,%.17g,%.17g\n" % (delta / TWO_PI, k * dt_rec, e))
        assert _data_text(tmp_path / "chevron_map.csv") == "".join(map_rows)
        assert _data_text(tmp_path / "chevron_ridge.csv") == "".join(ridge_rows)


    @pytest.fixture
    def formatted(self, monkeypatch):
        """{file name: float values the cell kernel formatted to write it}"""
        counts, current = {}, []
        float_cells = textio._float_cells

        def counting_cells(x, last):
            counts[current[-1]] = counts.get(current[-1], 0) + np.size(x)
            return float_cells(x, last)

        def tracking(write):
            def tracking_write(path, *args):
                current.append(os.path.basename(path))
                write(path, *args)
            return tracking_write

        monkeypatch.setattr(textio, "_float_cells", counting_cells)
        for name in ("_write_csv", "write_row_groups"):
            monkeypatch.setattr(experiments, name, tracking(getattr(experiments, name)))
        return counts

    def test_splitting_formats_each_axis_value_once(self, tmp_path, formatted):
        cfg = resolve_config("splitting", SMALL_SPLITTING)
        run_splitting(cfg, tmp_path)
        # the magnitudes up to the middle of the palindrome, and each axis value
        probe, pump = cfg["probe_count"], cfg["pump_count"]
        assert formatted == {"spectrum.csv": (probe * pump + 1) // 2 + probe + pump}

    def test_chevron_formats_each_detuning_once(self, tmp_path, formatted):
        cfg = resolve_config("chevron", SMALL_CHEVRON)
        run_chevron(cfg, tmp_path)
        rows = [row[0] for row in _csv_rows(tmp_path / "chevron_map.csv")]
        assert len(rows) > 100 * cfg["delta_count"]
        # the t_s and energy_a cells of the points at one |delta|, formatted once
        distinct = {detuning.lstrip("-"): rows.count(detuning) for detuning in set(rows)}
        assert len(distinct) == 3
        assert formatted == {"chevron_map.csv": 2 * sum(distinct.values()) + cfg["delta_count"],
                             "chevron_ridge.csv": 2 * cfg["delta_count"]}


def _fallback_share(columns):
    """Share of the float cells of `columns` that the cell kernel sends to
    ``'%.17g' %``."""
    x = np.concatenate(columns)
    return float(np.mean(textio._float_cells(x, np.zeros(x.size, dtype=np.intp))[1]))


class TestCellFallbackShare:
    """The kernel certifies all but a small share of real data cells."""

    def test_default_chevron_map(self, tmp_path):
        run_chevron(resolve_config("chevron"), tmp_path)
        rows = _data_text(tmp_path / "chevron_map.csv").splitlines()
        data = np.array([row.split(",") for row in rows], dtype=float)
        share = _fallback_share(data.T)
        print(f"chevron_map.csv: {share:.3%} of {data.size} float cells fall back")
        assert share < 0.01

    def test_custom_sequence_trace(self, tmp_path):
        seq = tmp_path / "seq.txt"
        seq.write_text(SEQ.replace("seg readout", "seg swap dur=0.4us gp=1.2MHz ramp=0.1us\n"
                                                  "seg readout"))
        experiments.run_custom_sequence(resolve_config("custom_sequence", {"sequence": str(seq)}),
                                        tmp_path)
        trace = TraceRecord.from_csv(tmp_path / "trace.csv")
        columns = [trace.t, trace.a.real, trace.a.imag, trace.b.real, trace.b.imag,
                   trace.a_out.real, trace.a_out.imag]
        share = _fallback_share(columns)
        print(f"trace.csv: {share:.3%} of {7 * trace.t.size} float cells fall back")
        assert share < 0.01


class TestStoreRetrieveRunner:
    def test_efficiency_and_decay(self, tmp_path):
        cfg = resolve_config("store_retrieve", SMALL_SR)
        results = run_store_retrieve(cfg, tmp_path)
        assert 0.65 <= results["eta_shortest"] <= 0.85
        assert results["tau_s"] == pytest.approx(14.9e-6, rel=0.01)
        assert results["eta_prime"] >= 0.99
        assert results["convergence_rel_diff"] < 1e-8
        # calibrated swap time sits near (slightly below) pi/(2 g)
        t_pi = math.pi / (2.0 * TWO_PI * results["gp_hz"])
        assert 0.95 * t_pi < results["t_swap_s"] < t_pi

    def test_reference_matches_its_closed_form(self, tmp_path):
        # the load read out at once over the readout's own length T_R:
        # gamma_ext nbar (1 - e^{-gamma_A T_R}) / gamma_A
        cfg = resolve_config("store_retrieve", SMALL_SR)
        results = run_store_retrieve(cfg, tmp_path)
        mode_a, _ = experiments._modes(cfg)
        gamma_a = mode_a.gamma_total
        t_r = 5.0 / gamma_a  # readout_dur = 0
        expected = mode_a.gamma_ext * cfg["nbar"] * -math.expm1(-gamma_a * t_r) / gamma_a
        assert results["reference_energy"] == pytest.approx(expected, rel=1e-12)

    def test_explicit_swap_time_is_respected(self, tmp_path):
        cfg = resolve_config("store_retrieve",
                             dict(SMALL_SR, t_swap="0.18us", delay_count="4"))
        results = run_store_retrieve(cfg, tmp_path)
        assert results["t_swap_s"] == pytest.approx(0.18e-6)
        # a mistimed swap leaves energy behind: efficiency drops
        assert results["eta_shortest"] < 0.72

    @pytest.mark.parametrize("runner", ["store_retrieve", "phase_sweep"])
    @pytest.mark.parametrize("t_swap", ["0us", "0.2us"])
    def test_pump_power_with_no_coupling_is_refused(self, tmp_path, runner, t_swap):
        # a g_P that underflows to 0 has no swap, calibrated or set
        small = {"store_retrieve": SMALL_SR, "phase_sweep": SMALL_PHASE}[runner]
        cfg = resolve_config(runner, dict(small, pump_power="-8000dBm", t_swap=t_swap))
        with pytest.raises(ValidationError, match="pump power -8000dBm gives g_P = 0Hz"):
            RUNNERS[runner](cfg, tmp_path)
        assert not list(tmp_path.glob("*"))

    def test_lossless_storage_mode_has_no_decay_time(self, tmp_path):
        cfg = resolve_config("store_retrieve", SMALL_SR)
        cfg["t1_b"] = math.inf
        results = run_store_retrieve(cfg, tmp_path)
        assert results["tau_degenerate"] == "true"
        assert results["tau_note"] == "DegenerateFitError"
        assert "tau_s" not in results

    @pytest.mark.parametrize("runner", ["store_retrieve", "chevron", "phase_sweep"])
    def test_occupancy_scales_energies_and_nothing_else(self, tmp_path, runner):
        # the equations are linear: nbar = 4 doubles every amplitude and
        # multiplies every energy by 4, exactly in floating point, and
        # leaves every other CSV column and result alone, bit for bit
        small, scaled = {
            "store_retrieve": (SMALL_SR, {"store_retrieve.csv:retrieved_energy": 4.0,
                                          "reference_energy": 4.0, "fit_residual_rms": 4.0}),
            "chevron": (SMALL_CHEVRON, {"chevron_map.csv:energy_a": 4.0}),
            "phase_sweep": (SMALL_PHASE, {"phase_sweep.csv:i": 2.0, "phase_sweep.csv:q": 2.0,
                                          "phase_sweep.csv:energy": 4.0}),
        }[runner]
        runs = {}
        for nbar in ("1", "4"):
            out = tmp_path / nbar
            runs[nbar] = RUNNERS[runner](resolve_config(runner, dict(small, nbar=nbar)), out)
            for path in out.glob("*.csv"):
                names, *rows = _csv_rows(path, names=True)
                for name, column in zip(names, np.array(rows, dtype=float).T):
                    runs[nbar][f"{path.name}:{name}"] = column
        one, four = runs["1"], runs["4"]
        assert one.keys() == four.keys() and scaled.keys() <= one.keys()
        for key, value in one.items():
            expected = scaled[key] * value if key in scaled else value
            assert np.array_equal(four[key], expected), key

    def test_unexpected_fit_failure_propagates(self, tmp_path, monkeypatch):
        def broken_fit(t, energy):
            raise ZeroDivisionError("not a fit outcome")

        monkeypatch.setattr(experiments, "fit_exponential_decay", broken_fit)
        with pytest.raises(ZeroDivisionError):
            run_store_retrieve(resolve_config("store_retrieve", SMALL_SR), tmp_path)


class TestClosedFormReadout:
    """store_retrieve and phase_sweep read each readout in closed form from
    the state where it starts; `demodulate` on a traced run is the oracle."""

    def test_trapezoid_converges_to_the_closed_form(self):
        # the demodulated reference trace at 400, 800 and 1600 points per
        # cycle: a second-order rule, so each doubling cuts both errors about
        # 4x (energy 2.05e-5, 5.13e-6, 1.28e-6; IQ 5.12e-6, 1.28e-6, 3.21e-7)
        cfg = resolve_config("store_retrieve")
        seq = experiments._sr_sequence(cfg, experiments._resolve_gp(cfg), 0.2e-6, 1e-6, 0.0)
        ref = sequences.PulseSequence(seq.mode_specs, (seq.segments[0], seq.segments[-1]))
        _, t_lo, t_hi = ref.windows()[-1]
        iq, energy = experiments._readout_iq(seq.mode_a, math.sqrt(cfg["nbar"]),
                                             seq.segments[-1].duration)
        errors = []
        for ppc in (400, 800, 1600):
            trace = sequences.run_sequence(ref, points_per_cycle=ppc)
            i, q, e = sequences.demodulate(trace, seq.mode_a.omega, (t_lo, t_hi))
            errors.append((abs(e / energy - 1.0), abs(complex(i, q) / iq - 1.0)))
        errors = np.array(errors)
        assert np.all((3.8 < errors[:-1] / errors[1:]) & (errors[:-1] / errors[1:] < 4.2))
        assert errors[-1, 0] < 1.4e-6 and errors[-1, 1] < 3.5e-7

    def test_dwell_times_converge_to_the_energy_identity(self, tmp_path):
        # the paper's procedure, eta' = eta exp(gamma_A t_a + gamma_B t_b)
        # with the dwell times of the shortest delay traced from the load's
        # end to its readout, at 400, 800 and 1600 points per cycle: a
        # trapezoid, so each doubling cuts its gap to the runner's eta' about
        # 4x (1.05e-7, 2.62e-8, 6.56e-9)
        cfg = resolve_config("store_retrieve")
        results = run_store_retrieve(cfg, tmp_path)
        mode_a, mode_b = experiments._modes(cfg)
        seq = experiments._sr_sequence(cfg, experiments._resolve_gp(cfg), results["t_swap_s"],
                                       cfg["delay_start"], 0.0)
        windows = seq.windows()
        upto_readout = sequences.PulseSequence(seq.mode_specs, seq.segments[:-1])
        gaps = []
        for ppc in (400, 800, 1600):
            trace = sequences.run_sequence(upto_readout, points_per_cycle=ppc)
            t_a, t_b = analysis.dwell_times(trace, (windows[0][2], windows[-1][1]))
            eta_prime = analysis.loss_corrected_efficiency(results["eta_shortest"], t_a, t_b,
                                                           mode_a, mode_b)
            gaps.append(abs(eta_prime - results["eta_prime"]))
        gaps = np.array(gaps)
        assert np.all((3.8 < gaps[:-1] / gaps[1:]) & (gaps[:-1] / gaps[1:] < 4.2))
        assert gaps[-1] < 7e-9

    @pytest.mark.parametrize("delay,phase", [(3.1e-6, 0.0), (2e-6, 2.2)],
                             ids=["store_retrieve", "phase_sweep"])
    def test_chained_state_matches_the_oracle_trace(self, delay, phase):
        cfg = resolve_config("store_retrieve")
        g = experiments._resolve_gp(cfg)
        mode_a, mode_b = experiments._modes(cfg)
        t_swap = dynamics.calibrate_swap_time((mode_a, mode_b), g)
        seq = experiments._sr_sequence(cfg, g, t_swap, delay, phase)
        state = experiments._readout_state(cfg, seq)
        trace, _ = sequences.run_sequence_checked(seq, points_per_cycle=cfg["points_per_cycle"])
        k = int(np.argmin(np.abs(trace.t - seq.windows()[-1][1])))
        assert trace.t[k] == pytest.approx(state.t, rel=1e-15)
        peak = float(np.max(np.hypot(np.abs(trace.a), np.abs(trace.b))))
        assert abs(state.a) > 0.5 * peak  # retrieved: the check is not vacuous
        assert math.hypot(abs(state.a - trace.a[k]), abs(state.b - trace.b[k])) <= 1e-12 * peak


class TestRetrievalSequence:
    def test_unit_labels_render_the_values(self):
        # every quantity of the built sequence reads back from its own
        # rendering: the unit labels match the internal-unit values
        cfg = resolve_config("store_retrieve")
        seq = experiments._sr_sequence(cfg, TWO_PI * 1.234567e6, 0.2083e-6, 3.1e-6, 0.7)
        back = parse_sequence(emit_sequence(seq))
        pairs = [(seq.mode_specs[m], back.mode_specs[m]) for m in "AB"]
        pairs += [(s.params, r.params) for s, r in zip(seq.segments, back.segments)]
        for built, read in pairs:
            assert built.keys() == read.keys()
            for key in built:
                assert read[key].kind == built[key].kind
                assert read[key].value == pytest.approx(built[key].value, rel=1e-11)

    def test_modes_are_built_once_per_sequence(self, tmp_path, monkeypatch):
        # validation and every later read of seq.mode_a and seq.mode_b share
        # the two modes each sequence builds
        built, calls = [], []
        init, mode_from_spec = sequences.PulseSequence.__init__, sequences._mode_from_spec

        def counting_init(self, *args):
            built.append(1)
            init(self, *args)

        def counting(spec):
            calls.append(1)
            return mode_from_spec(spec)

        monkeypatch.setattr(sequences.PulseSequence, "__init__", counting_init)
        monkeypatch.setattr(sequences, "_mode_from_spec", counting)
        run_store_retrieve(resolve_config("store_retrieve"), tmp_path)
        assert built and len(calls) <= 2 * len(built)

    @pytest.mark.parametrize("runner,small,calls", [("store_retrieve", SMALL_SR, 0),
                                                    ("phase_sweep", SMALL_PHASE, 0)])
    def test_dwell_times_only_where_read(self, tmp_path, monkeypatch, runner, small, calls):
        # eta' of store_retrieve is read from the energy identity at the
        # shortest delay's readout state, so neither runner reads dwell times
        counted = []
        dwell_times = experiments.dwell_times

        def counting(*args):
            counted.append(1)
            return dwell_times(*args)

        monkeypatch.setattr(experiments, "dwell_times", counting)
        RUNNERS[runner](resolve_config(runner, small), tmp_path)
        assert len(counted) == calls


class TestSequenceOracle:
    @pytest.mark.parametrize("runner,small", [("store_retrieve", SMALL_SR),
                                              ("phase_sweep", SMALL_PHASE)])
    def test_only_the_oracle_point_integrates(self, tmp_path, monkeypatch, runner, small):
        calls = []
        rk4_trace = sequences.rk4_trace

        def counting(initial, modes, plan):
            calls.append(len(plan))
            return rk4_trace(initial, modes, plan)

        monkeypatch.setattr(sequences, "rk4_trace", counting)
        monkeypatch.setattr(sequences, "integrate", None)  # no ramped swap here
        results = RUNNERS[runner](resolve_config(runner, small), tmp_path)
        # one rk4_trace of the 4 planned segments (swap, delay, swap,
        # readout; the load is direct), coarse and fine, at the middle point only
        assert calls == [4, 4]
        assert 0.0 < results["exact_rk4_max_diff"] < 1e-9
        assert 0.0 < results["convergence_rel_diff"] < 1e-8


class TestSwapOracle:
    @pytest.mark.parametrize("runner,small", [("chevron", SMALL_CHEVRON),
                                              ("power_sweep", SMALL_POWER)])
    def test_one_oracle_call_per_runner(self, tmp_path, monkeypatch, runner, small):
        pump_deltas = []
        check_plan = experiments.check_plan

        def recording(initial, modes, plan, tolerance):
            pump_deltas.append(plan[0][0].delta)
            return check_plan(initial, modes, plan, tolerance)

        monkeypatch.setattr(experiments, "check_plan", recording)
        cfg = resolve_config(runner, small)
        results = RUNNERS[runner](cfg, tmp_path)
        # one call, at zero pump detuning (the middle of the chevron sweep)
        assert pump_deltas == [0.0]
        assert 0.0 < results["exact_rk4_max_diff"] < 1e-9
        assert 0.0 < results["convergence_rel_diff"] < 1e-8

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(g=st.floats(0.5, 2.0), delta=st.floats(-3.0, 3.0), t_end=st.floats(0.3, 2.0),
           points_per_cycle=st.integers(50, 400))
    @example(g=2.0, delta=0.0, t_end=4.0, points_per_cycle=1000)  # record stride 3
    def test_check_plan_is_the_old_composition(self, g, delta, t_end, points_per_cycle):
        # g and delta drawn in MHz, t_end in us; a tolerance no difference reaches
        cfg = resolve_config("chevron", {"points_per_cycle": str(points_per_cycle),
                                         "tolerance": "1"})
        g, delta, t_end = TWO_PI * 1e6 * g, TWO_PI * 1e6 * delta, 1e-6 * t_end
        trace, rel, diff = experiments.check_plan(
            *experiments._swap_problem(cfg, g, delta, t_end, 1.5), cfg["tolerance"])
        # the reference, composed by hand: the closed form on the half-step
        # grid, the public integrate_checked and check_exact
        modes, pump = experiments._modes(cfg), PumpDrive(g, delta)
        dt = max_step(*modes, pump, points_per_cycle=points_per_cycle)
        config = SimConfig(dt, t_end, 0.0, max(1, math.ceil(t_end / dt) // 4096))
        init = ComplexAmplitudePair(1.5 + 0j, 0j, 0.0)
        exact = exact_segment(init, modes, pump, None, half_step_config(config))
        rk4, old_rel = integrate_checked(init, modes, pump, None, config, cfg["tolerance"])
        old_diff = check_exact(exact.a, exact.b, rk4, cfg["tolerance"])
        for key in ("t", "a", "b", "a_out"):
            assert getattr(trace, key).tobytes() == getattr(exact, key).tobytes()
        assert (rel, diff) == (old_rel, old_diff)
        assert 0.0 < rel < 1.0 and 0.0 < diff < 1.0

    def test_power_sweep_refuses_a_silent_power(self, tmp_path, monkeypatch, capsys):
        # g_P = 0 at the middle power: it has no swap to time, where the
        # sweep used to skip it and report zero oracle differences
        g_of = fluxmap.pump_coupling_rate
        mid = -54.0

        def silent_middle(omega_a, omega_b, p_dbm, *args):
            return 0.0 if p_dbm == mid else g_of(omega_a, omega_b, p_dbm, *args)

        monkeypatch.setattr(fluxmap, "pump_coupling_rate", silent_middle)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("power_count = 5\nn_cycles = 3\npower_start = -64dBm\n"
                       "power_stop = -44dBm\n")
        out = tmp_path / "out"
        assert main(["power_sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: pump power -54dBm gives g_P = 0")
        assert not list(out.glob("*.csv"))


class TestSwapSweep:
    """``_swap_sweep`` shares one trace between the points whose (g_P,
    |delta|, t_end) are equal bit for bit, and only between those."""

    CFG = {"points_per_cycle": "200", "tolerance": "1e-4"}
    G = (TWO_PI * 1.2e6, TWO_PI * 0.9e6)
    DELTA = (0.0, TWO_PI * 1.5e6, TWO_PI * 3e6)
    T_END = (1e-6, 1.5e-6)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(points=st.lists(st.tuples(st.sampled_from(G), st.sampled_from(DELTA),
                                     st.booleans(), st.sampled_from(T_END)),
                           min_size=1, max_size=6))
    # one |delta| at two g_P and two t_end, and a mirror pair
    @example(points=[(G[0], DELTA[1], False, T_END[0]), (G[1], DELTA[1], True, T_END[0]),
                     (G[0], DELTA[1], True, T_END[1]), (G[0], DELTA[1], True, T_END[0])])
    def test_every_point_equals_its_own_run(self, points):
        cfg = resolve_config("chevron", self.CFG)
        points = [(g, -delta if mirror else delta, t_end) for g, delta, mirror, t_end in points]
        _, _, omegas, records, order = experiments._swap_sweep(cfg, points, 1.5, "test", "t_end")
        assert len(records) == len({(g, abs(delta), t) for g, delta, t in points})
        for k, point in enumerate(points):
            _, _, (omega,), ((ea, dt),), _ = experiments._swap_sweep(
                cfg, [point], 1.5, "test", "t_end")
            assert np.array_equal(omegas[k], omega, equal_nan=True)
            assert records[order[k]][1] == dt
            assert np.array_equal(records[order[k]][0], ea)

    def test_chevron_names_a_detuning_without_oscillation(self, tmp_path, monkeypatch,
                                                           capsys):
        cfg = resolve_config("chevron", SMALL_CHEVRON)
        g = experiments._resolve_gp(cfg)
        silent = -0.25 * cfg["delta_span"]
        trace = experiments.run_plan(*experiments._swap_problem(
            cfg, g, silent, cfg["t_end"], math.sqrt(cfg["nbar"])))
        dt_silent = experiments._swap_energies(trace)[1]
        oscillation_frequency = experiments.oscillation_frequency

        def none_at_silent(series, dt, rate, tolerance):
            if dt == dt_silent:
                raise experiments.NoOscillationError("the series' exponents are all real")
            return oscillation_frequency(series, dt, rate, tolerance)

        monkeypatch.setattr(experiments, "oscillation_frequency", none_at_silent)
        path = tmp_path / "cfg.txt"
        path.write_text("".join(f"{k} = {v}\n" for k, v in SMALL_CHEVRON.items()))
        out = tmp_path / "out"
        assert main(["chevron", "--config", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == ("numerical check failed: no swap oscillation at "
                                           "pump detuning -2000000Hz\n")
        assert not list(out.glob("*.csv"))

    def test_power_sweep_writes_nan_for_a_power_without_oscillation(self, tmp_path,
                                                                      monkeypatch):
        # the second power's |a|^2 is read as having no oscillation: its
        # extracted g_P is a nan cell, so the CSV stays all floats, and the
        # report counts it and fits the slope without it
        cfg = resolve_config("power_sweep", SMALL_POWER)
        powers = np.linspace(cfg["power_start"], cfg["power_stop"], cfg["power_count"])
        g_silent = fluxmap.pump_coupling_rate(cfg["freq_a"], cfg["freq_b"], powers[1],
                                              cfg["flux_calib"])
        oscillation_frequency = experiments.oscillation_frequency

        def none_at_silent(series, dt, rate, tolerance):
            if rate == rabi_frequency(0.0, g_silent):
                raise experiments.NoOscillationError("the series' exponents are all real")
            return oscillation_frequency(series, dt, rate, tolerance)

        monkeypatch.setattr(experiments, "oscillation_frequency", none_at_silent)
        results = run_power_sweep(cfg, tmp_path)
        rows = _csv_rows(tmp_path / "power_sweep.csv")
        assert [row[3] == "nan" for row in rows] == [False, True, False, False, False]
        data = np.loadtxt(tmp_path / "power_sweep.csv", delimiter=",", skiprows=2, ndmin=2)
        assert data.shape == (5, 4)
        assert np.isnan(data[1, 3]) and np.all(np.isfinite(np.delete(data[:, 3], 1)))
        assert results["points_no_oscillation"] == 1
        assert results["r_squared"] > 0.999

    def test_chevron_refuses_a_ridge_without_coupling(self, tmp_path, capsys):
        # q_int_a = 300 overdamps mode A: at zero detuning the swap has no
        # complex exponent, (gamma_B - gamma_A)^2 > 16 g_P^2, and the run
        # names that detuning, where it used to report gp_fit_hz = 0 and
        # model_rms_rel = inf
        path = tmp_path / "cfg.txt"
        path.write_text("q_int_a = 300\ndelta_count = 3\n")
        out = tmp_path / "out"
        assert main(["chevron", "--config", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == ("numerical check failed: no swap oscillation at "
                                           "pump detuning 0Hz\n")
        assert not list(out.glob("*.csv"))


def _report_values(out):
    return dict(line.split(" = ", 1) for line in (out / "report.txt").read_text().splitlines())


class TestSwapFrequencyWindows:
    """Windows under a few swap cycles and lossy readout modes, where the
    swap frequency was once read off an FFT peak of the occupancy fraction
    and answered wrong: g_P comes back within a stated bound of the flux
    model, and the run exits 0."""

    def _run(self, tmp_path, runner, text):
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        out = tmp_path / "out"
        assert main([runner, "--config", str(path), "--out", str(out)]) == 0
        return out

    # the report keeps 12 digits; t_end = 0.1us is 0.24 to 0.71 swap cycles
    @pytest.mark.parametrize("text,bound", [
        ("t_end = 0.1us\n", 1e-9),  # read 2.546 MHz
        ("t_end = 0.3us\n", 1e-10),
        ("q_int_a = 1e4\n", 1e-10),  # refused (exit 3)
        ("q_int_a = 3e4\n", 1e-10),  # refused (exit 3)
        ("q_int_a = 1e5\n", 1e-10),  # read 0.519 MHz
    ], ids=["t_end-0.1us", "t_end-0.3us", "q_int_a-1e4", "q_int_a-3e4", "q_int_a-1e5"])
    def test_chevron(self, tmp_path, text, bound):
        r = _report_values(self._run(tmp_path, "chevron", text))
        assert abs(float(r["result.gp_fit_hz"]) / float(r["result.gp_hz"]) - 1.0) <= bound

    def test_a_window_of_too_few_samples_is_refused(self, tmp_path, capsys):
        # 40 samples at zero detuning, where the FFT read g_P 32% off (exit 0)
        path = tmp_path / "cfg.txt"
        path.write_text("t_end = 0.02us\n")
        out = tmp_path / "out"
        assert main(["chevron", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: a swap window of 40 samples is too short for the swap frequency, "
            "which needs 52: raise points_per_cycle or t_end\n")
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("n_cycles,bound", [("0.3", 1e-10), ("0.1", 1e-8)])
    def test_power_sweep(self, tmp_path, n_cycles, bound):
        # n_cycles = 0.3 read a slope of 9.58e7 Hz/sqrt(mW) for 4.78e8
        out = self._run(tmp_path, "power_sweep", f"n_cycles = {n_cycles}\n")
        rows = np.array(_csv_rows(out / "power_sweep.csv"), dtype=float)
        assert np.max(np.abs(rows[:, 3] / rows[:, 2] - 1.0)) <= bound
        r = _report_values(out)
        assert r["result.points_no_oscillation"] == "0"
        assert abs(float(r["result.intercept_hz"])) < 1e-3


class TestPhaseSweepRunner:
    def test_slope_magnitude_and_locus(self, tmp_path):
        cfg = resolve_config("phase_sweep", SMALL_PHASE)
        results = run_phase_sweep(cfg, tmp_path)
        assert results["phase_slope"] == pytest.approx(1.0, abs=1e-6)
        assert results["iq_mag_rel_spread"] < 1e-9
        assert results["iq_locus_area"] == pytest.approx(
            results["iq_locus_area_expected"], rel=1e-6)

    def test_lab_frame_is_rejected(self):
        # demodulation at w_A undoes the lab rotation: phase_sweep has no
        # frame setting
        with pytest.raises(ValidationError, match="unknown config key 'frame'"):
            resolve_config("phase_sweep", dict(SMALL_PHASE, frame="lab"))


class TestCli:
    def test_splitting_via_cli(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("probe_count = 201\npump_count = 3\n")
        rc = main(["splitting", "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dip_separation_hz" in out
        assert (tmp_path / "out" / "report.txt").exists()

    def test_custom_sequence_via_cli(self, tmp_path, capsys):
        seq = tmp_path / "seq.txt"
        seq.write_text(
            "mode A freq=8.7GHz q_int=900e3 q_ext=50e3\n"
            "mode B freq=9.33GHz t1=14.9us\n"
            "seg load dur=5us nbar=4\n"
            "seg swap dur=0.2us gp=1.2MHz delta=0Hz phase=0deg\n"
            "seg readout dur=2us\n")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"sequence = {seq}\n")
        rc = main(["custom_sequence", "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "trace.csv").exists()
        assert (tmp_path / "out" / "trace.csv.meta").exists()
        report = (tmp_path / "out" / "report.txt").read_text()
        diff = float(report.split("result.exact_rk4_max_diff = ")[1].split()[0])
        assert 0.0 < diff < 1e-9

    def test_parser_is_built_once(self, tmp_path, monkeypatch, capsys):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        monkeypatch.setattr(cli, "_parser", None)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("probe_count = 51\npump_count = 3\n")
        for out in ("a", "b"):
            assert main(["splitting", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
        assert built == [1]
        assert ((tmp_path / "a" / "spectrum.csv").read_bytes()
                == (tmp_path / "b" / "spectrum.csv").read_bytes())

    def test_validation_error_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("nonsense = 1\n")
        rc = main(["splitting", "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        rc = main(["splitting", "--config", str(tmp_path / "absent.txt"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("tolerance = 1e-18\ndelta_count = 3\nt_end = 2us\n")
        rc = main(["chevron", "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "numerical check failed" in capsys.readouterr().err
        assert not (tmp_path / "out" / "chevron_map.csv").exists()

    @pytest.mark.parametrize("runner,small", [("store_retrieve", SMALL_SR),
                                              ("phase_sweep", SMALL_PHASE)])
    def test_swap_calibration_on_both_sides_of_critical_damping(self, tmp_path, capsys,
                                                                runner, small):
        # q_ext_a = 1e3 overdamps the swap (gamma_A - gamma_B > 4 g_P), yet
        # a(T) still crosses zero; a 10 ns storage T1 leaves no zero at all
        lines = [f"{k} = {v}" for k, v in small.items()]
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("\n".join(lines + ["q_ext_a = 1e3"]) + "\n")
        assert main([runner, "--config", str(cfg), "--out", str(tmp_path / "lossy")]) == 0
        capsys.readouterr()
        cfg.write_text("\n".join(lines + ["t1_b = 0.01us"]) + "\n")
        assert main([runner, "--config", str(cfg), "--out", str(tmp_path / "none")]) == 3
        assert capsys.readouterr().err.startswith(
            "numerical check failed: no pulse length nulls mode A")
        assert not list((tmp_path / "none").glob("*.csv"))

    def test_decay_fit_is_scale_free(self, tmp_path, capsys):
        # at nbar = 1e9 lstsq's default cutoff used to drop the tau column
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("nbar = 1e9\ndelay_count = 4\ndelay_stop = 5us\n")
        assert main(["store_retrieve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        out = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines()
                   if " = " in line)
        assert float(out["tau_s"]) == pytest.approx(14.9e-6, rel=1e-6)

    def test_decay_fit_converges_with_a_zero_offset(self, tmp_path, capsys):
        # the fitted offset sits at rounding level around its true 0, where a
        # stopping test on each parameter's step relative to itself is never
        # met and tau_s would be dropped
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("nbar = 18.64\nt1_b = 15.1793us\n"
                       "delay_start = 0.9524us\ndelay_stop = 55.0476us\n")
        assert main(["store_retrieve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        out = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines()
                   if " = " in line)
        assert out["tau_degenerate"] == "false"
        assert float(out["tau_s"]) == pytest.approx(15.1793e-6, rel=1e-9)

    def test_run_beyond_the_step_bound_exits_2(self, tmp_path, capsys):
        # the middle power's g_P is so small that its RK4 oracle would take
        # 3.2e8 steps: refused at once instead of running for hours
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("power_start = -300dBm\npower_stop = -50dBm\n"
                       "power_count = 3\nn_cycles = 3\n")
        start = time.perf_counter()
        assert main(["power_sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 10.0
        assert re.match(r"error: \d+ RK4 steps exceed the bound of 10000000 steps",
                        capsys.readouterr().err)
        assert not list((tmp_path / "out").glob("*.csv"))

    # a refusal is an error line, not an overflow warning and a wrong answer
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("runner,line", [
        ("chevron", "points_per_cycle = 0"),
        ("power_sweep", "points_per_cycle = 0"),
        ("store_retrieve", "points_per_cycle = 0"),
        ("custom_sequence", "points_per_cycle = 0"),
        ("chevron", "nbar = -1"),
        ("store_retrieve", "nbar = -1"),
        ("chevron", "nbar = 0"),
        ("chevron", "tolerance = 0"),
        ("chevron", "tolerance = -1"),
        ("chevron", "gp = -1MHz"),
        ("splitting", "gp = -1MHz"),
        # a probe grid that cannot hold both dips at w_A +- g_P
        ("splitting", "probe_span = 0Hz\nprobe_count = 101\npump_count = 3"),
        ("splitting", "probe_span = 2MHz\nprobe_count = 101\npump_count = 3"),
        ("store_retrieve", "t_swap = -1us"),
        ("phase_sweep", "t_swap = -1us"),
        ("store_retrieve", "load_dur = -1us"),
        ("phase_sweep", "load_dur = -1us"),
        ("phase_sweep", "delay = 0s"),
        ("splitting", "frame = lab"),
        ("chevron", "frame = lab"),
        ("power_sweep", "frame = lab"),
        ("store_retrieve", "frame = lab"),
        ("phase_sweep", "frame = lab"),
        # keys the runner does not read are unknown
        ("custom_sequence", "freq_a = 8.7GHz"),
        ("power_sweep", "gp = 1MHz"),
        ("splitting", "tolerance = 1e-6"),
        ("chevron", "delta_phi = 0.2"),
        # a swap frequency at or above the mode spacing w_B - w_A
        ("custom_sequence", "seg swap dur=0.01us gp=400MHz"),
        ("custom_sequence", "seg swap dur=1us power=60dBm"),
        ("chevron", "gp = 400MHz\ndelta_count = 3\nt_end = 0.5us"),
        ("chevron", "pump_power = 100dBm\ndelta_count = 3\nt_end = 1us"),
        ("power_sweep", "power_stop = 100dBm"),
        # swap points whose record grids span 2**64 steps or more (7.5e19 and
        # 1.2e20), which crashed with a TypeError before the oracle's step bound
        ("chevron", "t_end = 1e10s\ndelta_count = 3"),
        ("power_sweep", "power_start = -400dBm\npower_stop = -399dBm\npower_count = 3\n"
                        "n_cycles = 3"),
        # a points_per_cycle whose coarse RK4 step does not resolve the
        # fastest rate (ResolutionError): the coarse twin of check_plan
        # requests that step
        ("chevron", "points_per_cycle = 49"),
        ("power_sweep", "points_per_cycle = 49"),
        ("store_retrieve", "points_per_cycle = 30"),
        ("custom_sequence", "points_per_cycle = 30"),
        # sweeps too short for their fits
        ("store_retrieve", "delay_count = 3"),
        ("phase_sweep", "phase_count = 2"),
        # sweeps above the count bound, which would fail to allocate (exit 1)
        # or fill memory
        ("splitting", "probe_count = 1e12"),
        ("power_sweep", "power_count = 1e15"),
        ("phase_sweep", "phase_count = 1e12"),
        ("store_retrieve", "delay_count = 1e12"),
        ("chevron", "delta_count = 1e12"),
        # a delay sweep that does not increase
        ("store_retrieve", "delay_start = 55us\ndelay_stop = 1us"),
        ("store_retrieve", "delay_start = 5us\ndelay_stop = 5us"),
        # a power sweep with one abscissa, which the slope fit cannot use
        ("power_sweep", "power_start = -52dBm\npower_stop = -52dBm\npower_count = 3\n"
                        "n_cycles = 3"),
        # every sweep runs in one process
        *[(runner, line) for runner in RUNNERS for line in ("jobs = 2", "jobs = 0")],
        # numbers that overflow to inf (a "seg" line goes to the sequence file)
        ("chevron", "gp = 1e999MHz"),
        ("chevron", "t_end = 1e999us"),
        ("chevron", "delta_count = 1e999"),
        ("store_retrieve", "delay_stop = 1e999us"),
        ("custom_sequence", "seg delay dur=1e999us"),
        # loss parameters whose rates divide by zero or overflow to inf
        *[(runner, line) for runner in ("splitting", "chevron", "store_retrieve")
          for line in ("t1_b = 0us", "t1_b = 1e-999us", "t1_b = 1e-310s",
                       "q_int_a = 1e-310", "q_ext_a = 1e-310")],
        # a mode frequency whose flux calibration underflows or overflows
        *[(runner, "freq_b = 1e100GHz") for runner in ("splitting", "chevron", "store_retrieve")],
        # a pump power whose value in mW overflows
        *[(runner, "pump_power = 4000dBm")
          for runner in ("splitting", "chevron", "store_retrieve", "phase_sweep")],
        ("custom_sequence", "seg swap dur=0.2us power=4000dBm"),
        ("power_sweep", "power_stop = 4000dBm"),
        # an nbar whose readout energies are subnormal, where the fits used to
        # answer silently wrong (tau_s 12.77 us for 14.9 us, eta 0.718 for 0.729)
        ("store_retrieve", "nbar = 1e-320\ndelay_count = 4\ndelay_stop = 5us"),
        ("phase_sweep", "nbar = 1e-320\nphase_count = 4\ndelay = 1us"),
        # mode energies |a|^2 + |b|^2 that are subnormal, where chevron answered
        # gp_fit_hz 1199979.848 for 1199977.021
        ("chevron", "nbar = 1e-320\ndelta_count = 3\nt_end = 2us"),
        # a swap window of 51 samples, under the swap frequency's floor of 52
        ("power_sweep", "n_cycles = 0.05"),
        # and power_sweep on lossy modes, which took the FFT of those energies
        # and answered a slope of 4.61e8 Hz/sqrt(mW) with r_squared 0.953
        ("power_sweep", "q_int_a = 1e3\nt1_b = 0.01us\nn_cycles = 40\npower_count = 3"),
        # pump powers whose g_P underflows to 0, which power_sweep used to skip
        ("power_sweep", "power_start = -8000dBm\npower_stop = -50dBm\npower_count = 3"),
        # and so g_P = 0 at a set t_swap, where store_retrieve answered mode
        # A's decay as tau_s (0.867 us for 14.9 us) and phase_sweep a
        # phase_slope of -1.7e-16
        ("store_retrieve", "pump_power = -8000dBm\nt_swap = 0.2us"),
        ("phase_sweep", "pump_power = -8000dBm\nt_swap = 0.2us"),
        # a g_P whose calibration rate W overflows, which calibrated a swap
        # time of 0 and was refused as a sequence of a zero-length segment
        ("store_retrieve", "gp = 1e300Hz"),
        # a sequence whose energies are all subnormal, which wrote a trace.csv
        # of few-bit energies and final_energy_a = 0
        ("custom_sequence", "mode A freq=8.7GHz q_int=900e3 q_ext=50e3\n"
                            "mode B freq=9.33GHz t1=14.9us\nseg load dur=2us nbar=1e-320\n"
                            "seg swap dur=0.2037us gp=1.2MHz\nseg readout dur=2us"),
        # a load whose amplitude is finite but whose energy overflows, which
        # exited 0 with final_energy_a = inf and a RuntimeWarning
        ("custom_sequence", "mode A freq=8.7GHz q_int=900e3 q_ext=50e3\n"
                            "mode B freq=9.33GHz t1=14.9us\nseg delay dur=1us\n"
                            "seg load dur=1us amp=1e160"),
        # and readout energies that overflow, where phase_sweep answered eta = nan
        ("store_retrieve", "nbar = 1.7e308\ndelay_count = 4\ndelay_stop = 5us"),
        ("phase_sweep", "nbar = 1.7e308\nphase_count = 4\ndelay = 1us"),
        # a detuned nbar= load into a mode A with no external coupling
        ("custom_sequence", "mode A freq=8.7GHz q_int=900e3\nmode B freq=9.33GHz\n"
                            "seg delay dur=1us\nseg load dur=1us nbar=1 freq=8.701GHz"),
    ])
    def test_refused_config_values_exit_2(self, tmp_path, capsys, runner, line):
        seq = tmp_path / "seq.txt"
        if line.startswith("seg "):
            seq.write_text(SEQ + line + "\n")
            line = ""
        elif line.startswith("mode "):  # a whole sequence file
            seq.write_text(line + "\n")
            line = ""
        else:
            seq.write_text(SEQ)
        cfg = tmp_path / "cfg.txt"
        extra = f"sequence = {seq}\n" if runner == "custom_sequence" else ""
        cfg.write_text(f"{line}\n{extra}")
        out = tmp_path / "out"
        assert main([runner, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("case", ["config", "sequence", "nul"])
    def test_unreadable_inputs_exit_2(self, tmp_path, capsys, case):
        # a byte that is not UTF-8 in either file, and a sequence path with a
        # NUL byte, which open() refuses with a ValueError: each used to exit
        # 1 with a traceback
        seq, cfg = tmp_path / "seq.txt", tmp_path / "cfg.txt"
        seq.write_bytes(SEQ.encode() + (b"# caf\xe9\n" if case == "sequence" else b""))
        runner, text = "custom_sequence", f"sequence = {seq}\n".encode()
        if case == "config":
            runner, text = "splitting", b"probe_count = 201\xff\npump_count = 3\n"
        elif case == "nul":
            text = f"sequence = {tmp_path}/a\0b.txt\n".encode()
        cfg.write_bytes(text)
        out = tmp_path / "out"
        assert main([runner, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        named = {"config": f"{cfg}: not UTF-8", "sequence": f"{seq}: not UTF-8",
                 "nul": "sequence = "}
        assert named[case] in err
        assert not list(out.glob("*.csv"))

    def test_tiny_normal_sequence_energies_still_run(self, tmp_path):
        # the peak |a|^2 + |b|^2 of 1e-300 is normal, though final_energy_a is not
        seq = tmp_path / "seq.txt"
        seq.write_text(SEQ.replace("seg load dur=5us nbar=4", "seg load dur=2us nbar=1e-300"))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"sequence = {seq}\n")
        out = tmp_path / "out"
        assert main(["custom_sequence", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "trace.csv").exists()

    def test_sequence_flux_calibration_refuses_huge_mode_frequency(self, tmp_path, capsys):
        # a power= swap calibrates the flux curves at the file's mode frequencies
        seq = tmp_path / "seq.txt"
        seq.write_text(SEQ.replace("freq=9.33GHz", "freq=1e100GHz")
                       + "seg swap dur=0.2us power=-52dBm\n")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"sequence = {seq}\n")
        out = tmp_path / "out"
        assert main(["custom_sequence", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: flux calibration") and "1e+100GHz" in err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("runner", ["splitting", "chevron", "power_sweep",
                                        "store_retrieve", "phase_sweep"])
    def test_lab_frame_flag_only_on_custom_sequence(self, tmp_path, capsys, runner):
        with pytest.raises(SystemExit) as exc:
            main([runner, "--lab-frame", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "--lab-frame" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("runner,small", [("power_sweep", SMALL_POWER),
                                              ("store_retrieve", SMALL_SR),
                                              ("phase_sweep", SMALL_PHASE)])
    def test_oracle_failure_writes_no_csv(self, tmp_path, capsys, runner, small):
        # as for chevron above: the RK4 differences lie above 1e-13, and
        # the oracle runs before any data file is written
        cfg = tmp_path / "cfg.txt"
        lines = [f"{k} = {v}" for k, v in dict(small, tolerance="1e-13").items()]
        cfg.write_text("\n".join(lines) + "\n")
        assert main([runner, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert "numerical check failed" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*.csv"))

    def test_jobs_and_lab_frame_flags_are_wired(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("delta_count = 3\nt_end = 2us\n")
        assert main(["chevron", "--config", str(cfg), "--jobs", "1",
                     "--out", str(tmp_path / "jobs")]) == 0
        assert main(["chevron", "--config", str(cfg), "--out", str(tmp_path / "serial")]) == 0
        assert (tmp_path / "jobs" / "chevron_map.csv").read_bytes() == \
            (tmp_path / "serial" / "chevron_map.csv").read_bytes()
        capsys.readouterr()
        assert main(["chevron", "--config", str(cfg), "--jobs", "2",
                     "--out", str(tmp_path / "pool")]) == 2
        assert capsys.readouterr().err.startswith("error: jobs must be 1")
        assert not list((tmp_path / "pool").glob("*.csv"))

        seq = tmp_path / "seq.txt"
        seq.write_text(SEQ)
        cfg.write_text(f"sequence = {seq}\n")
        for flags, out in (([], "rot"), (["--lab-frame"], "lab")):
            assert main(["custom_sequence", "--config", str(cfg), *flags,
                         "--out", str(tmp_path / out)]) == 0
        assert "config.frame = lab" in (tmp_path / "lab" / "report.txt").read_text()
        rot = TraceRecord.from_csv(tmp_path / "rot" / "trace.csv")
        lab = TraceRecord.from_csv(tmp_path / "lab" / "trace.csv")
        assert lab.meta["frame"] == "lab"
        parsed = parse_sequence(SEQ)
        assert np.allclose(lab.a, rot.a * np.exp(-1j * parsed.mode_a.omega * rot.t),
                           rtol=1e-12, atol=0.0)
        assert np.allclose(lab.b, rot.b * np.exp(-1j * parsed.mode_b.omega * rot.t),
                           rtol=1e-12, atol=0.0)

    def test_swapped_mode_order_exits_2(self, tmp_path, capsys):
        # the equations hold only for w_B > w_A; run anyway, both give wrong physics
        seq = tmp_path / "seq.txt"
        seq.write_text("mode A freq=9.33GHz q_ext=50e3\n"
                       "mode B freq=8.7GHz\n"
                       "seg load dur=1us nbar=1\n"
                       "seg swap dur=0.2083us gp=1.2MHz\n")
        cfg = tmp_path / "seq_cfg.txt"
        cfg.write_text(f"sequence = {seq}\n")
        assert main(["custom_sequence", "--config", str(cfg),
                     "--out", str(tmp_path / "seq_out")]) == 2
        assert not (tmp_path / "seq_out" / "trace.csv").exists()
        cfg = tmp_path / "split_cfg.txt"
        cfg.write_text("freq_a = 9.33GHz\nfreq_b = 8.7GHz\n")
        assert main(["splitting", "--config", str(cfg),
                     "--out", str(tmp_path / "split_out")]) == 2
        assert "must lie above" in capsys.readouterr().err

    def test_custom_sequence_honours_flux_calib(self, tmp_path):
        seq = tmp_path / "seq.txt"
        seq.write_text("mode A freq=8.7GHz q_int=900e3 q_ext=50e3\n"
                       "mode B freq=9.33GHz t1=14.9us\n"
                       "seg load dur=5us nbar=4\n"
                       "seg swap dur=0.2us power=-52dBm\n")
        energies = []
        for calib in (fluxmap.DEFAULT_FLUX_CALIB, 0.5 * fluxmap.DEFAULT_FLUX_CALIB):
            cfg = tmp_path / "cfg.txt"
            cfg.write_text(f"sequence = {seq}\nflux_calib = {calib!r}\n")
            assert main(["custom_sequence", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 0
            report = (tmp_path / "out" / "report.txt").read_text()
            energies.append(float(report.split("result.final_energy_b = ")[1].split()[0]))
        # the default calibration gives a full swap at -52 dBm, half of it does not
        assert energies[0] > 3.5 and energies[1] < 0.6 * energies[0]

    def test_all_runners_have_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for name in RUNNERS:
            assert name in out


def _permission_checks_bypassed(tmp_path):
    """Whether this process may write a file its mode forbids it to (root)."""
    probe = tmp_path / "probe"
    probe.write_bytes(b"")
    probe.chmod(0o444)
    try:
        open(probe, "wb").close()
    except PermissionError:
        return False
    return True


class TestOutputFiles:
    """A rerun into an output directory replaces each file it writes: the
    same bytes as a run into a fresh directory, on a new file, so a reader
    holding an old one keeps its bytes, with the old permission bits; a
    symlink, a file with other hard links, a file another user owns and a
    file or directory the user may not write are treated as a truncating
    open treats them."""

    # per runner, a first config and a smaller second one: every file the
    # second run writes differs from the first's and is no longer
    RERUNS = {
        "splitting": ("probe_count = 201\npump_count = 3", "probe_count = 101\npump_count = 3"),
        "chevron": ("delta_count = 5\nt_end = 4us", "delta_count = 3\nt_end = 2us"),
        "power_sweep": ("power_count = 5\nn_cycles = 3", "power_count = 3\nn_cycles = 3"),
        "store_retrieve": ("delay_count = 5\ndelay_stop = 16us",
                           "delay_count = 4\ndelay_stop = 8us"),
        "phase_sweep": ("phase_count = 8\ndelay = 2us", "phase_count = 4\ndelay = 1us"),
        "custom_sequence": ("sequence = {seq}", "sequence = {seq}\nframe = lab"),
    }

    @staticmethod
    def _run(tmp_path, runner, text, out):
        seq = tmp_path / "seq.txt"
        seq.write_text(SEQ)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text.format(seq=seq) + "\n")
        return main([runner, "--config", str(cfg), "--out", str(out)])

    @staticmethod
    def _files(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    @pytest.mark.parametrize("runner", sorted(RERUNS))
    def test_every_csv_loads_as_floats(self, tmp_path, runner):
        # every cell is a float: np.loadtxt reads each file whole, past its
        # "#" lines and its column names, one value per name and row
        out = tmp_path / "out"
        assert self._run(tmp_path, runner, self.RERUNS[runner][0], out) == 0
        paths = sorted(out.glob("*.csv"))
        assert paths
        for path in paths:
            lines = path.read_text().splitlines()
            head = sum(line.startswith("#") for line in lines)
            data = np.loadtxt(path, delimiter=",", skiprows=head + 1, ndmin=2)
            assert data.shape == (len(lines) - head - 1, len(lines[head].split(",")))

    @pytest.mark.parametrize("runner", sorted(RERUNS))
    def test_a_rerun_replaces_every_file(self, tmp_path, runner):
        first, second = self.RERUNS[runner]
        out = tmp_path / "out"
        assert self._run(tmp_path, runner, first, out) == 0
        old = self._files(out)
        assert self._run(tmp_path, runner, second, tmp_path / "fresh") == 0
        fresh = self._files(tmp_path / "fresh")
        assert old.keys() == fresh.keys()
        assert all(old[name] != fresh[name] for name in old)
        handles = {name: open(out / name, "rb") for name in old}
        try:
            assert self._run(tmp_path, runner, second, out) == 0
            assert self._files(out) == fresh
            assert {name: fh.read() for name, fh in handles.items()} == old
        finally:
            for fh in handles.values():
                fh.close()

    def _rerun_splitting(self, tmp_path):
        """(out, fresh, second): splitting run into out at its first config,
        and the files of a run at its `second` config into a fresh directory."""
        first, second = self.RERUNS["splitting"]
        assert self._run(tmp_path, "splitting", second, tmp_path / "fresh") == 0
        out = tmp_path / "out"
        assert self._run(tmp_path, "splitting", first, out) == 0
        return out, self._files(tmp_path / "fresh"), second

    def test_a_symlink_is_written_through(self, tmp_path):
        out, fresh, second = self._rerun_splitting(tmp_path)
        target = tmp_path / "kept.csv"
        (out / "spectrum.csv").rename(target)
        (out / "spectrum.csv").symlink_to(target)
        assert self._run(tmp_path, "splitting", second, out) == 0
        assert (out / "spectrum.csv").is_symlink()
        assert target.read_bytes() == fresh["spectrum.csv"]

    def test_every_hard_link_gets_the_new_bytes(self, tmp_path):
        out, fresh, second = self._rerun_splitting(tmp_path)
        other = tmp_path / "linked.csv"
        os.link(out / "spectrum.csv", other)
        inode = other.stat().st_ino
        assert self._run(tmp_path, "splitting", second, out) == 0
        assert (out / "spectrum.csv").stat().st_ino == inode
        assert other.read_bytes() == fresh["spectrum.csv"]
        assert self._files(out) == fresh

    def test_a_replaced_file_keeps_its_permission_bits(self, tmp_path):
        out, fresh, second = self._rerun_splitting(tmp_path)
        (out / "report.txt").chmod(0o600)
        (out / "spectrum.csv").chmod(0o664)
        assert self._run(tmp_path, "splitting", second, out) == 0
        assert self._files(out) == fresh
        assert (out / "report.txt").stat().st_mode & 0o777 == 0o600
        assert (out / "spectrum.csv").stat().st_mode & 0o777 == 0o664

    def test_a_file_another_user_owns_keeps_its_owner(self, tmp_path):
        out, fresh, second = self._rerun_splitting(tmp_path)
        other = os.geteuid() + 1
        try:
            os.chown(out / "spectrum.csv", other, -1)
        except PermissionError:
            pytest.skip("this process may not give a file to another user")
        (out / "spectrum.csv").chmod(0o666)  # writable without privileges
        assert self._run(tmp_path, "splitting", second, out) == 0
        assert (out / "spectrum.csv").stat().st_uid == other
        assert self._files(out) == fresh

    def test_a_write_protected_file_is_refused(self, tmp_path, capsys):
        if _permission_checks_bypassed(tmp_path):
            pytest.skip("this process bypasses permission checks")
        out, _, second = self._rerun_splitting(tmp_path)
        kept = (out / "spectrum.csv").read_bytes()
        (out / "spectrum.csv").chmod(0o444)
        assert self._run(tmp_path, "splitting", second, out) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 13] Permission denied")
        assert (out / "spectrum.csv").read_bytes() == kept

    def test_a_file_in_a_write_protected_directory_is_rewritten(self, tmp_path):
        if _permission_checks_bypassed(tmp_path):
            pytest.skip("this process bypasses permission checks")
        out, fresh, second = self._rerun_splitting(tmp_path)
        inodes = {p.name: p.stat().st_ino for p in out.iterdir()}
        out.chmod(0o555)
        try:
            assert self._run(tmp_path, "splitting", second, out) == 0
        finally:
            out.chmod(0o755)
        assert self._files(out) == fresh
        assert {p.name: p.stat().st_ino for p in out.iterdir()} == inodes
